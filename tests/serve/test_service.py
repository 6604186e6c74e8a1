"""ClassificationService end-to-end, including the hot-swap criterion:
a publication mid-stream causes zero dropped and zero misrouted requests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import COVVEncoder
from repro.serve import CellConfig, ClassificationService


@pytest.fixture()
def service(serve_setup):
    model, result = serve_setup
    service = ClassificationService(model, result.registry,
                                    CellConfig(max_batch=32, max_wait_us=200),
                                    trainer=False)
    with service:
        yield service


class TestServing:
    def test_classify_round_trip(self, service, serve_setup):
        _model, result = serve_setup
        request = service.classify(result.tasks[0], timeout=5)
        assert request.done
        assert 0 <= request.group < 26
        assert request.version == 1
        assert request.latency_us > 0

    def test_matches_offline_prediction(self, service, serve_setup):
        model, result = serve_setup
        encoder = COVVEncoder(result.registry)
        for task in result.tasks[:40]:
            served = service.classify(task, timeout=5).group
            row = encoder.encode_row_dense(task).reshape(1, -1)
            expected = int(model.predict(
                row[:, :model.features_count])[0])
            assert served == expected

    def test_stats_consistent(self, service, serve_setup):
        _model, result = serve_setup
        for task in result.tasks[:60]:
            service.submit(task)
        service.batcher.stop(drain=True, timeout=10)
        stats = service.stats()
        assert stats.requests == 60
        assert stats.completed == 60
        assert stats.pending == 0
        assert stats.rejected == 0
        assert stats.model_version == 1
        assert sum(stats.versions_served.values()) == 60
        assert 0 < stats.mean_batch <= 32
        assert stats.to_dict()["completed"] == 60

    def test_double_start_rejected(self, service):
        with pytest.raises(RuntimeError):
            service.start()


class TestHotSwap:
    def test_mid_stream_swap_drops_and_misroutes_nothing(self, serve_setup):
        """The acceptance criterion: publish while a request stream is in
        flight; every request completes and every request's result equals
        what the exact version that served it would predict."""

        model, result = serve_setup
        n_requests, swap_at = 2000, 1000
        tasks = result.tasks

        v2_model = model.clone()
        # Shift the output layer so v2 visibly disagrees with v1.
        v2_model.model["fc2"].bias.data += \
            np.linspace(2.0, -2.0, 26).astype(np.float32)

        service = ClassificationService(model, result.registry,
                                        CellConfig(max_batch=32,
                                                   max_wait_us=200),
                                        trainer=False)
        with service:
            requests = []
            for i in range(n_requests):
                if i == swap_at:
                    service.publish(v2_model)
                requests.append(service.submit(tasks[i % len(tasks)]))
            for request in requests:
                assert request.wait(10), "request dropped"

        # Zero dropped.
        stats = service.stats()
        assert stats.completed == n_requests
        assert stats.rejected == 0
        # Both versions actually served.
        assert set(stats.versions_served) == {1, 2}
        assert stats.swaps == 1

        # Zero misrouted: replay each request against the audited
        # snapshot of the version that served it.
        encoder = COVVEncoder(result.registry)
        snapshots = {v: service.handle.snapshot_for(v) for v in (1, 2)}
        disagreements = 0
        for request in requests:
            snap = snapshots[request.version]
            row = encoder.encode_row_dense(request.task).reshape(1, -1)
            expected = int(snap.predict(snap.align(row))[0])
            assert request.group == expected, "misrouted request"
        # The perturbed v2 must actually disagree with v1 somewhere,
        # otherwise the misroute check proves nothing.
        for task in tasks[:200]:
            row = encoder.encode_row_dense(task).reshape(1, -1)
            a = int(snapshots[1].predict(snapshots[1].align(row))[0])
            b = int(snapshots[2].predict(snapshots[2].align(row))[0])
            disagreements += a != b
        assert disagreements > 0


class TestObservationPath:
    def test_observe_without_trainer_is_noop(self, service, serve_setup):
        _model, result = serve_setup
        service.observe(result.tasks[0], 3)
        assert service.stats().observations == 0


class TestLifecycle:
    def test_restart_after_close_rejected(self, serve_setup):
        model, result = serve_setup
        service = ClassificationService(model, result.registry,
                                        trainer=False)
        service.start()
        service.close()
        with pytest.raises(RuntimeError, match="cannot restart"):
            service.start()


class TestConcurrentVocabularyGrowth:
    def test_serving_while_registry_grows(self, pipeline_result,
                                          constant_model):
        """Live-integration flow: observe() keeps feeding tasks with
        *unseen* constraint vocabulary (growing the registry) while the
        batcher encodes and serves — nothing may fail or misencode."""

        import threading

        from repro.constraints import Constraint, ConstraintOperator, compact
        from repro.datasets.registry import FeatureRegistry
        from repro.sim import RetrainPolicy

        registry = FeatureRegistry()
        for task in pipeline_result.tasks:
            registry.observe_task(task)
        width = registry.features_count

        service = ClassificationService(
            constant_model(1, width), registry, CellConfig(max_wait_us=200),
            trainer=True,
            policy=RetrainPolicy(growth_threshold=10**6,
                                 min_observations=1))
        eq = ConstraintOperator.EQUAL
        stop = threading.Event()

        def grow_vocabulary():
            import time

            # Throttled: unbounded growth would make every encode miss
            # the memo and rescan an ever-longer feature list.
            for i in range(500):
                if stop.is_set():
                    return
                task = compact([Constraint("stress_attr", eq, f"v{i}")])
                service.observe(task, 1)
                time.sleep(0.001)

        with service:
            grower = threading.Thread(target=grow_vocabulary)
            grower.start()
            try:
                tasks = pipeline_result.tasks
                requests = [service.submit(tasks[i % len(tasks)])
                            for i in range(3000)]
                for request in requests:
                    assert request.wait(10)
            finally:
                stop.set()
                grower.join(5)

        assert all(r.ok for r in requests)
        stats = service.stats()
        assert stats.failed == 0
        assert stats.completed >= 3000
        # The registry really grew underneath the serving path.
        assert registry.features_count > width
        assert stats.observations > 0
