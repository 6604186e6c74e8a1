"""Sharded batcher correctness and stats/hot-swap concurrency."""

from __future__ import annotations

import threading

import pytest

from repro.serve import (CellConfig, ClassificationService, MicroBatcher,
                         ModelHandle)


@pytest.fixture()
def sharded_batcher(pipeline_result, constant_model):
    registry = pipeline_result.registry
    handle = ModelHandle(constant_model(0, registry.features_count),
                         features_count=registry.features_count)
    batcher = MicroBatcher(handle, registry, max_batch=16, max_wait_us=200,
                           n_workers=4)
    yield handle, batcher, pipeline_result.tasks
    batcher.stop(drain=True, timeout=10)


class TestShardedBatcher:
    def test_rejects_zero_workers(self, pipeline_result, constant_model):
        handle = ModelHandle(constant_model(0, 4), features_count=4)
        with pytest.raises(ValueError, match="n_workers"):
            MicroBatcher(handle, pipeline_result.registry, n_workers=0)

    def test_every_request_completes_exactly_once(self, sharded_batcher):
        """N workers over one queue: every request completes exactly
        once, and the per-shard counters add up to the aggregate."""

        _handle, batcher, tasks = sharded_batcher
        batcher.start()
        submitted = 800
        errors: list[Exception] = []

        def feed(offset: int, out: list) -> None:
            try:
                for i in range(submitted // 4):
                    out.append(batcher.submit(tasks[(offset + i)
                                                    % len(tasks)]))
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(exc)

        lanes: list[list] = [[] for _ in range(4)]
        feeders = [threading.Thread(target=feed, args=(k * 7, lanes[k]))
                   for k in range(4)]
        for thread in feeders:
            thread.start()
        for thread in feeders:
            thread.join(10)
        assert not errors
        requests = [r for lane in lanes for r in lane]
        assert len(requests) == submitted
        for request in requests:
            assert request.wait(10), "request dropped"
            assert request.ok and request.group == 0
        counters = batcher.counters()
        assert counters["requests"] == submitted
        assert counters["completed"] == submitted
        assert counters["failed"] == 0
        assert sum(counters["shard_completed"]) == submitted
        assert sum(counters["shard_batches"]) == counters["batches"]
        assert sum(counters["versions_served"].values()) == submitted
        assert batcher.pending == 0

    def test_version_consistent_across_shards_and_swaps(
            self, sharded_batcher, constant_model):
        """Constant model value == its version - 1: any request whose
        group disagrees with its recorded version was classified by a
        snapshot other than the one attributed to it."""

        handle, batcher, tasks = sharded_batcher
        width = handle.snapshot().features_count
        handle.publish(constant_model(1, width), clone=False)  # v2 -> 1
        batcher.start()
        requests = []
        for i in range(600):
            if i == 300:
                handle.publish(constant_model(2, width), clone=False)
            requests.append(batcher.submit(tasks[i % len(tasks)]))
        versions = set()
        for request in requests:
            assert request.wait(10)
            assert request.group == request.version - 1
            versions.add(request.version)
        assert versions <= {2, 3}
        assert 3 in versions

    def test_drain_on_stop_with_shards(self, pipeline_result,
                                       constant_model):
        registry = pipeline_result.registry
        handle = ModelHandle(constant_model(0, registry.features_count),
                             features_count=registry.features_count)
        batcher = MicroBatcher(handle, registry, max_batch=8,
                               max_wait_us=200, n_workers=3)
        requests = [batcher.submit(pipeline_result.tasks[0])
                    for _ in range(100)]
        batcher.start()
        batcher.stop(drain=True, timeout=10)
        assert all(r.done and r.ok for r in requests)
        assert batcher.completed_total == 100


class TestStatsHotSwapRace:
    def test_stats_under_hot_swap_storm(self, pipeline_result,
                                        constant_model):
        """Regression: stats() used to copy ``versions_served`` without
        a lock while workers insert fresh version keys; a publish storm
        made the copy raise "dictionary changed size during iteration".
        Here publishes, submissions, and stats() reads all race."""

        registry = pipeline_result.registry
        width = registry.features_count
        service = ClassificationService(constant_model(0, width), registry,
                                        CellConfig(max_batch=8,
                                                   max_wait_us=100,
                                                   n_workers=2),
                                        trainer=False)
        tasks = pipeline_result.tasks
        stop = threading.Event()
        errors: list[Exception] = []
        requests = []

        def publisher() -> None:
            i = 0
            try:
                while not stop.is_set():
                    service.publish(constant_model(i % 5, width),
                                    clone=False)
                    i += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def submitter() -> None:
            i = 0
            try:
                while not stop.is_set():
                    requests.append(service.submit(tasks[i % len(tasks)]))
                    i += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with service:
            threads = [threading.Thread(target=publisher),
                       threading.Thread(target=submitter)]
            for thread in threads:
                thread.start()
            try:
                # The regression surface: a tight stats() loop racing the
                # worker's dict inserts and the publisher's new versions.
                for _ in range(3000):
                    stats = service.stats()
                    assert stats.completed <= stats.requests
            finally:
                stop.set()
                for thread in threads:
                    thread.join(10)
        assert not errors
        for request in requests:
            assert request.wait(10), "request dropped"
        stats = service.stats()
        assert stats.completed == len(requests)
        assert sum(stats.versions_served.values()) == stats.completed
        assert sum(stats.shard_completed) == stats.completed
        assert stats.swaps > 0


class TestServiceSharding:
    def test_service_exposes_shard_stats(self, serve_setup):
        model, result = serve_setup
        service = ClassificationService(model, result.registry,
                                        CellConfig(max_wait_us=200,
                                                   n_workers=3),
                                        trainer=False)
        with service:
            for task in result.tasks[:90]:
                service.submit(task)
            service.batcher.stop(drain=True, timeout=10)
            stats = service.stats()
        assert stats.workers == 3
        assert stats.completed == 90
        assert len(stats.shard_completed) == 3
        assert sum(stats.shard_completed) == 90
        assert stats.to_dict()["workers"] == 3
