"""Telemetry plane: streaming histograms, the structural event log, and
their wiring into the serving stack.

The histogram tests pin the bucket contract (``le`` semantics matching
``bisect_left``, exact mergeability across shards, batch observation ≡
repeated single observation); the event tests pin the ring-buffer
accounting and the *edge-triggered* shed episodes (a thousand-request
flood is one episode, not a thousand events); the wiring tests check
that a served workload leaves exactly the stage counts the service
counters predict.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    CellConfig,
    ClassificationService,
    EventLog,
    StageTimings,
    StreamingHistogram,
    Telemetry,
)
from repro.serve.telemetry import STAGES, bucket_bounds

from .faults import SlowModel


class TestBucketBounds:
    def test_default_span_and_shape(self):
        bounds = bucket_bounds()
        assert bounds[0] == 1.0
        assert bounds[-1] == 1e7
        assert list(bounds) == sorted(bounds)
        # 7 decades at 3 per decade, inclusive endpoints.
        assert len(bounds) == 22

    def test_validation(self):
        with pytest.raises(ValueError):
            bucket_bounds(lo_us=0)
        with pytest.raises(ValueError):
            bucket_bounds(lo_us=10, hi_us=10)
        with pytest.raises(ValueError):
            bucket_bounds(per_decade=0)


class TestStreamingHistogram:
    def test_le_bucket_semantics(self):
        hist = StreamingHistogram(bounds=(10.0, 100.0))
        hist.observe(5.0)     # <= 10
        hist.observe(10.0)    # == bound -> still the 10-bucket (le)
        hist.observe(50.0)    # <= 100
        hist.observe(1000.0)  # overflow (+Inf)
        snap = hist.snapshot()
        assert snap.counts == (2, 1, 1)
        assert snap.count == 4
        assert snap.sum == pytest.approx(1065.0)
        assert snap.cumulative() == (2, 3, 4)

    def test_observe_many_equivalent_to_repeated_observe(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=4.0, sigma=2.5, size=2000)
        one = StreamingHistogram()
        many = StreamingHistogram()
        for v in values:
            one.observe(float(v))
        many.observe_many(values)
        a, b = one.snapshot(), many.snapshot()
        assert a.counts == b.counts
        assert a.sum == pytest.approx(b.sum)

    def test_observe_many_empty_is_noop(self):
        hist = StreamingHistogram()
        hist.observe_many([])
        assert hist.count == 0

    def test_merge_adds_counts(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        a.observe(3.0)
        b.observe(3.0)
        b.observe(2e7)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.count == 3
        assert merged.sum == pytest.approx(6.0 + 2e7)
        assert merged.counts[-1] == 1  # the overflow observation

    def test_merge_rejects_different_bounds(self):
        a = StreamingHistogram(bounds=(1.0, 10.0))
        b = StreamingHistogram(bounds=(1.0, 100.0))
        with pytest.raises(ValueError):
            a.snapshot().merge(b.snapshot())

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            StreamingHistogram(bounds=())
        with pytest.raises(ValueError):
            StreamingHistogram(bounds=(10.0, 10.0))
        with pytest.raises(ValueError):
            StreamingHistogram(bounds=(10.0, 5.0))

    def test_concurrent_observation_loses_nothing(self):
        hist = StreamingHistogram()
        n, per = 8, 500

        def work():
            for i in range(per):
                hist.observe(float(i % 97) + 0.5)

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == n * per


class TestStageTimings:
    def test_covers_every_stage(self):
        timings = StageTimings()
        for stage in STAGES:
            timings.observe(stage, 5.0)
        snap = timings.snapshot()
        assert set(snap) == set(STAGES)
        assert all(s.count == 1 for s in snap.values())

    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError):
            StageTimings().observe("nonsense", 1.0)


class TestEventLog:
    def test_ring_eviction_and_accounting(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.append("tick", n=i)
        assert log.total == 10
        assert log.dropped == 6
        tail = log.tail()
        assert [e.fields["n"] for e in tail] == [6, 7, 8, 9]
        assert [e.seq for e in tail] == [7, 8, 9, 10]  # seq survives drops

    def test_tail_n_and_kind_counts(self):
        log = EventLog(capacity=16)
        log.append("swap", cell="a")
        log.append("retrain")
        log.append("swap")
        assert [e.kind for e in log.tail(2)] == ["retrain", "swap"]
        assert log.kind_counts() == {"swap": 2, "retrain": 1}

    def test_event_to_dict(self):
        log = EventLog()
        event = log.append("publish", cell="x", version=3)
        payload = event.to_dict()
        assert payload["kind"] == "publish"
        assert payload["cell"] == "x"
        assert payload["version"] == 3
        assert payload["seq"] == 1
        assert payload["unix_ts"] <= time.time()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestTelemetry:
    def test_shards_merge_into_one_view(self):
        telemetry = Telemetry(n_shards=3)
        telemetry.observe("submit", 1.0)
        telemetry.shard(0).observe("total", 5.0)
        telemetry.shard(1).observe("total", 7.0)
        telemetry.shard(2).observe_many("total", [2.0, 3.0])
        merged = telemetry.stage_snapshots()
        assert merged["submit"].count == 1
        assert merged["total"].count == 4
        assert merged["total"].sum == pytest.approx(17.0)

    def test_to_dict_shape(self):
        telemetry = Telemetry(n_shards=1, events_capacity=8)
        telemetry.events.append("publish", version=1)
        payload = telemetry.to_dict(events_tail=4)
        assert set(payload["stages"]) == set(STAGES)
        assert payload["events_total"] == 1
        assert payload["events_dropped"] == 0
        assert payload["events"][0]["kind"] == "publish"

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            Telemetry(n_shards=0)


class TestServiceWiring:
    """A served workload leaves exactly the stage counts the service's
    own counters predict."""

    def test_stage_counts_match_counters(self, pipeline_result,
                                         constant_model):
        width = pipeline_result.registry.features_count
        service = ClassificationService(
            constant_model(1, width), pipeline_result.registry,
            CellConfig(n_workers=2, max_batch=8, max_wait_us=100),
            trainer=False)
        tasks = pipeline_result.tasks
        with service:
            for i in range(60):
                service.classify(tasks[i % len(tasks)])
            stats = service.stats()
            stages = service.telemetry.stage_snapshots()
        assert stats.completed == 60
        assert stages["submit"].count == 60
        assert stages["queue_wait"].count == 60
        assert stages["total"].count == 60
        # One assembly + one inference observation per batch.
        assert stages["assembly"].count == stats.batches
        assert stages["inference"].count == stats.batches
        # The initial publication is instrumented too.
        assert stages["publish"].count == 1

    def test_publish_event_is_event_one(self, pipeline_result,
                                        constant_model):
        width = pipeline_result.registry.features_count
        service = ClassificationService(
            constant_model(0, width), pipeline_result.registry,
            trainer=False)
        events = service.telemetry.events.tail()
        assert events and events[0].kind == "publish"
        assert events[0].fields["version"] == 1
        service.publish(constant_model(0, width), clone=False)
        kinds = service.telemetry.events.kind_counts()
        assert kinds["publish"] == 2
        last = service.telemetry.events.tail(1)[0]
        assert last.fields["version"] == 2
        assert last.fields["staleness_closed_s"] >= 0.0

    def test_shed_episode_is_edge_triggered(self, pipeline_result,
                                            constant_model):
        """A flood that sheds hundreds of arrivals logs one activation
        (plus one clearing), not hundreds of events."""

        from repro.errors import OverloadedError

        width = pipeline_result.registry.features_count
        service = ClassificationService(
            SlowModel(constant_model(0, width), 0.05),
            pipeline_result.registry,
            CellConfig(max_batch=8, max_wait_us=100, max_queue=6),
            trainer=False).start()
        tasks = pipeline_result.tasks
        shed = 0
        for i in range(120):
            try:
                service.submit(tasks[i % len(tasks)])
            except OverloadedError:
                shed += 1
        assert shed > 10, "flood must overflow the 6-slot queue"
        while service.batcher.pending:
            time.sleep(0.005)
        # Recovery: the next admitted arrival closes the episode.
        service.classify(tasks[0])
        kinds = service.telemetry.events.kind_counts()
        assert kinds.get("shed_activated", 0) == 1
        assert kinds.get("shed_cleared", 0) == 1
        activated = [e for e in service.telemetry.events.tail()
                     if e.kind == "shed_activated"]
        assert activated[0].fields["reason"] == "rejected"
        assert activated[0].fields["retry_after_s"] > 0
        service.close()

    def test_retrain_event_logged(self, serve_setup):
        from repro.sim import RetrainPolicy

        model, result = serve_setup
        service = ClassificationService(
            model, result.registry, trainer=True,
            policy=RetrainPolicy(growth_threshold=4, min_observations=50),
            rng=np.random.default_rng(3))
        for task, label in zip(result.tasks, result.labels):
            service.observe(task, int(label))
        update = service.trainer.train_once()
        assert update is not None
        kinds = service.telemetry.events.kind_counts()
        assert kinds.get("retrain", 0) == 1
        retrain = [e for e in service.telemetry.events.tail()
                   if e.kind == "retrain"][0]
        assert retrain.fields["version"] == 2
        assert retrain.fields["train_seconds"] > 0
        assert retrain.fields["n_observations"] >= 50
        assert (retrain.fields["features_after"]
                == result.registry.features_count)
        # Its publication was instrumented as well.
        assert kinds.get("publish", 0) == 2
