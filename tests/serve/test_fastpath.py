"""Compiled serving fast path: atomic (model, plan) pairs end to end.

The invariant under test: a worker batch is always served by a plan
compiled from *exactly* the model version its snapshot carries — under
hot-swap storms, registry growth, and mixed compiled/eager stacks —
and the fast path's predictions are indistinguishable from the eager
oracle's (a plan-less wrapper around the same model).
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core import BENCH_CONFIG, GrowingModel
from repro.serve import (CellConfig, ClassificationService, MicroBatcher,
                         ModelHandle)


class TestPublishCompiles:
    def test_snapshot_carries_versioned_plan(self, serve_setup):
        model, _result = serve_setup
        handle = ModelHandle()
        snap1 = handle.publish(model)
        snap2 = handle.publish(model)
        for snap in (snap1, snap2):
            assert snap.plan is not None
            assert snap.plan.model_version == snap.version
            assert snap.plan.features_count == snap.features_count
        assert snap1.plan is not snap2.plan

    def test_plain_model_publishes_plan_none(self, constant_model):
        handle = ModelHandle()
        snap = handle.publish(constant_model(3, features_count=11),
                              clone=False)
        assert snap.plan is None

    def test_broken_compile_falls_back_to_eager(self, caplog):
        """A duck-typed model whose unrelated compile() chokes must not
        fail the publication (a raising compile inside a background
        trainer's publish would otherwise kill the trainer thread)."""

        class KerasStyle:
            features_count = 7

            def predict(self, X):
                return np.zeros(X.shape[0], dtype=np.int64)

            def compile(self, **_kwargs):
                raise TypeError("optimizer and loss are required")

        handle = ModelHandle()
        with caplog.at_level("WARNING", logger="repro.serve.handle"):
            snap = handle.publish(KerasStyle(), clone=False)
        assert snap.plan is None
        assert snap.version == 1
        assert handle.snapshot() is snap
        assert any("serving eagerly" in r.message for r in caplog.records)


class TestCompiledService:
    def test_compiled_matches_eager_oracle(self, serve_setup, planless):
        """Same tasks through a compiled and an eager stack: identical
        predictions, and the counters prove which path served them."""

        model, result = serve_setup
        tasks = result.tasks[:200]
        groups: dict[bool, list[int]] = {}
        counters: dict[bool, object] = {}
        for compiled in (True, False):
            service = ClassificationService(
                model if compiled else planless(model), result.registry,
                CellConfig(max_batch=32, max_wait_us=200), trainer=False)
            with service:
                requests = [service.submit(task) for task in tasks]
                groups[compiled] = [r.result(5) for r in requests]
            counters[compiled] = service.stats()
        assert groups[True] == groups[False]
        assert counters[True].compiled_batches == counters[True].batches > 0
        assert counters[False].compiled_batches == 0
        assert counters[False].batches > 0

    def test_plain_model_falls_back_to_eager(self, constant_model,
                                             planless, serve_setup):
        """A model with no compile(): served eagerly."""

        _model, result = serve_setup
        width = result.registry.features_count
        service = ClassificationService(planless(constant_model(5, width)),
                                        result.registry, trainer=False)
        with service:
            assert service.classify(result.tasks[0]).result(5) == 5
        stats = service.stats()
        assert stats.batches > 0
        assert stats.compiled_batches == 0


def _grown_clone(model: GrowingModel, extra: int) -> GrowingModel:
    """A clone whose input layer was zero-extended by ``extra`` columns
    (the background trainer's growth step, minus the training)."""

    grown = GrowingModel(BENCH_CONFIG, rng=np.random.default_rng(extra))
    grown.restore_bytes(model.state_bytes(),
                        features_count=model.features_count + extra)
    return grown


class TestSwapStorm:
    def test_plan_never_pairs_with_mismatched_version(self, serve_setup):
        """Swap storm over growing widths: every retained snapshot must
        hold a plan stamped with its own version and width, every
        request must complete on a published version, and per-shard
        scratches must survive the width changes."""

        model, result = serve_setup
        handle = ModelHandle(retain_history=None)
        handle.publish(model)
        batcher = MicroBatcher(handle, result.registry, max_batch=16,
                               max_wait_us=100, n_workers=2).start()
        stop = threading.Event()

        def storm():
            extra = 0
            while not stop.is_set():
                extra += 3
                handle.publish(_grown_clone(model, extra))

        publisher = threading.Thread(target=storm, daemon=True)
        publisher.start()
        try:
            requests = [batcher.submit(task)
                        for task in result.tasks[:300]]
            for request in requests:
                assert request.result(10) >= 0
        finally:
            stop.set()
            publisher.join(10)
            batcher.stop()

        versions = {snap.version for snap in handle.history}
        for snap in handle.history:
            assert snap.plan is not None
            assert snap.plan.model_version == snap.version
            assert snap.plan.features_count == snap.features_count
        for request in requests:
            assert request.version in versions
        counters = batcher.counters()
        assert counters["compiled_batches"] == counters["batches"] > 0
        assert counters["completed"] == len(requests)

    def test_width_change_midstream_reuses_workers(self, serve_setup):
        """A hot-swap to a wider model mid-stream must not wedge the
        per-shard scratch (it is rebuilt against the new plan)."""

        model, result = serve_setup
        service = ClassificationService(model, result.registry,
                                        CellConfig(max_batch=8,
                                                   max_wait_us=100),
                                        trainer=False)
        with service:
            first = [service.submit(t) for t in result.tasks[:40]]
            for request in first:
                request.result(5)
            v1 = service.model_version
            service.publish(_grown_clone(model, 7))
            second = [service.submit(t) for t in result.tasks[40:80]]
            for request in second:
                request.result(5)
        assert service.model_version == v1 + 1
        snap = service.handle.snapshot()
        assert snap.plan is not None
        assert snap.plan.features_count == model.features_count + 7
        stats = service.stats()
        assert stats.compiled_batches == stats.batches > 0


class TestBatcherEagerPath:
    def test_planless_snapshot_serves_eagerly(self, serve_setup, planless):
        """The oracle path: a snapshot without a plan keeps every batch
        on ``align`` + ``predict``."""

        model, result = serve_setup
        handle = ModelHandle()
        snap = handle.publish(planless(model), clone=False)
        assert snap.plan is None
        batcher = MicroBatcher(handle, result.registry, max_batch=16,
                               max_wait_us=100).start()
        try:
            requests = [batcher.submit(t) for t in result.tasks[:50]]
            for request in requests:
                request.result(5)
        finally:
            batcher.stop()
        counters = batcher.counters()
        assert counters["compiled_batches"] == 0
        assert counters["completed"] == 50


@pytest.mark.parametrize("router_capped", [True, False])
def test_router_cells_can_mix_paths(serve_setup, router_capped):
    """Per-cell override: one cell's config differs from the router's
    (a queue cap added, or taken away), and only the capped cell runs
    admission control."""

    from repro.serve import CellRouter

    model, result = serve_setup
    router = CellRouter(CellConfig(max_batch=16, max_wait_us=100,
                                   max_queue=8 if router_capped else None))
    router.add_cell("default", model, result.registry)
    router.add_cell("override", model, result.registry,
                    replace(router.config,
                            max_queue=None if router_capped else 8))
    with router:
        for cell in ("default", "override"):
            request = router.classify(cell, result.tasks[0], timeout=5)
            assert request.ok
    capped = "default" if router_capped else "override"
    assert list(router.admission_snapshots()) == [capped]
    assert router.admission_snapshots()[capped]["max_queue"] == 8
    assert router.service(capped).config.max_queue == 8
