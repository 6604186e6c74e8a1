"""Overload behaviour: shedding, eviction, recovery, degraded modes.

Happy-path throughput is covered elsewhere; these tests put the stack
under adversarial load with the :mod:`tests.serve.faults` injectors and
check the admission-control contract: work is shed *predictably* (typed
error, retry-after hint, exact counters) instead of queueing without
bound, and the stack recovers — and keeps hot-swapping — while
overloaded.
"""

from __future__ import annotations

import time
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.errors import OverloadedError, ServiceError
from repro.serve import (AdmissionController, AutoTuner, CellConfig,
                         ClassificationService, MicroBatcher, ModelHandle)

from .faults import FailingEncoder, SlowModel, StallGate, assert_exactly_once


def flood(service, tasks, n):
    """Submit ``n`` tasks as fast as possible; (accepted, shed_errors)."""

    accepted, shed = [], []
    for i in range(n):
        try:
            accepted.append(service.submit(tasks[i % len(tasks)]))
        except OverloadedError as exc:
            shed.append(exc)
    return accepted, shed


def wait_drained(service, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while service.batcher.pending and time.monotonic() < deadline:
        time.sleep(0.005)
    assert service.batcher.pending == 0, "queue did not drain"


@pytest.fixture()
def slow_service_factory(pipeline_result, constant_model):
    """Build a deliberately slow service so floods actually queue."""

    width = pipeline_result.registry.features_count
    built = []

    def build(delay_s=0.05, max_batch=8, **kwargs):
        service = ClassificationService(
            SlowModel(constant_model(0, width), delay_s),
            pipeline_result.registry,
            CellConfig(max_batch=max_batch, max_wait_us=100, **kwargs),
            trainer=False)
        built.append(service)
        return service.start()

    yield build
    for service in built:
        service.close(drain=False)


class TestQueueCapShedding:
    def test_flood_sheds_past_the_cap_exactly_once(self, pipeline_result,
                                                   slow_service_factory):
        tasks = pipeline_result.tasks
        service = slow_service_factory(max_queue=12)
        accepted, shed = flood(service, tasks, 150)
        assert shed, "a 150-deep flood must overflow a 12-slot queue"
        assert len(accepted) + len(shed) == 150
        for exc in shed:
            assert exc.retry_after_s > 0
            assert "overloaded" in str(exc)
        service.close(drain=True)
        assert all(r.ok for r in accepted)
        stats = service.stats()
        assert stats.shed_rejected == len(shed)
        assert stats.shed == len(shed)
        assert stats.completed == len(accepted)
        assert_exactly_once(service.batcher, submitted=150)

    def test_queue_never_exceeds_cap(self, pipeline_result,
                                     slow_service_factory):
        service = slow_service_factory(max_queue=5)
        depths = []
        for i in range(60):
            try:
                service.submit(pipeline_result.tasks[i])
            except OverloadedError:
                pass
            depths.append(service.batcher.pending)
        assert max(depths) <= 5


class TestBudgetShedding:
    def test_budget_exceeded_sheds_with_retry_hint(self, pipeline_result,
                                                   slow_service_factory):
        tasks = pipeline_result.tasks
        service = slow_service_factory(delay_s=0.02, max_batch=4,
                                       latency_budget_ms=10.0)
        accepted, shed = flood(service, tasks, 300)
        assert shed, "projected wait must blow a 10 ms budget"
        assert len(accepted) + len(shed) == 300
        assert all(exc.retry_after_s > 0 for exc in shed)
        service.close(drain=True)
        # Accepted requests either completed or were culled at dequeue
        # once the drain collapse made their budget unreachable — every
        # one of them finished exactly one way.
        completed = [r for r in accepted if r.ok]
        expired = [r for r in accepted
                   if r.done and isinstance(r.error, OverloadedError)]
        assert completed
        assert len(completed) + len(expired) == len(accepted)
        assert_exactly_once(service.batcher, submitted=300)

    def test_admission_estimates_follow_observations(self, pipeline_result,
                                                     slow_service_factory):
        service = slow_service_factory(delay_s=0.02, max_batch=4,
                                       latency_budget_ms=10.0)
        assert service.admission is not None
        cold = service.admission.service_rate
        flood(service, pipeline_result.tasks, 100)
        wait_drained(service)
        snap = service.admission.snapshot()
        # A 4-task batch every >=20 ms is way below the cold-start
        # assumption; the EWMA must have moved toward reality.
        assert snap["service_rate"] < cold
        assert snap["arrival_rate"] > 0
        # The controller's outcome ledger mirrors the batcher's.
        counters = service.batcher.counters()
        assert snap["admitted"] == counters["requests"] == 100 - \
            counters["shed_rejected"]
        assert snap["shed"] == (counters["shed_rejected"]
                                + counters["shed_evicted"]
                                + counters["shed_expired"])

    def test_recovery_after_burst_drains(self, pipeline_result,
                                         slow_service_factory):
        tasks = pipeline_result.tasks
        service = slow_service_factory(delay_s=0.01, max_batch=8,
                                       latency_budget_ms=15.0)
        _accepted, shed = flood(service, tasks, 200)
        assert shed
        wait_drained(service)
        # The burst drained: the gate must admit again, and the fresh
        # request completes within the (idle-queue) budget.
        request = service.submit(tasks[0])
        assert request.result(timeout=5.0) == 0
        assert service.batcher.counters()["shed_rejected"] == len(shed)


class TestDequeueCulling:
    def test_expired_requests_are_shed_not_served_stale(self,
                                                        pipeline_result,
                                                        slow_service_factory):
        # 30 ms of model time per 4-task batch against a 20 ms budget:
        # anything queued behind an in-flight batch outlives the budget
        # before a worker can reach it.  Un-culled, those requests would
        # be served hundreds of ms late; the dequeue cull sheds them so
        # every *completed* request stays near the budget.
        tasks = pipeline_result.tasks
        service = slow_service_factory(delay_s=0.03, max_batch=4,
                                       latency_budget_ms=20.0)
        accepted, shed = flood(service, tasks, 40)
        assert len(accepted) + len(shed) == 40
        service.close(drain=True)
        completed = [r for r in accepted if r.ok]
        expired = [r for r in accepted
                   if r.done and isinstance(r.error, OverloadedError)]
        assert completed and expired
        assert all(r.error.reason == "expired" for r in expired)
        assert len(completed) + len(expired) == len(accepted)
        # Staleness bound: headroom-scaled budget at dequeue plus one
        # batch of model time (generous slack for scheduler jitter).
        for request in completed:
            assert request.latency_us < 70_000, request.latency_us
        stats = service.stats()
        assert stats.shed_expired == len(expired)
        assert stats.shed == len(expired) + len(shed)
        assert_exactly_once(service.batcher, submitted=40)


class TestDropOldestPolicy:
    def test_evicts_stalest_admits_freshest(self, pipeline_result,
                                            slow_service_factory):
        tasks = pipeline_result.tasks
        service = slow_service_factory(max_batch=4, max_queue=5,
                                       shed_policy="drop-oldest")
        accepted, shed = flood(service, tasks, 50)
        # drop-oldest never refuses at the gate while the queue is
        # non-empty — it trades the stalest queued request instead.
        assert not shed
        assert len(accepted) == 50
        service.close(drain=True)
        evicted = [r for r in accepted
                   if r.done and isinstance(r.error, OverloadedError)]
        completed = [r for r in accepted if r.ok]
        assert evicted, "a 50-deep flood must evict from a 5-slot queue"
        assert all(r.error.reason == "evicted" for r in evicted)
        assert len(evicted) + len(completed) == 50
        # Evictions hit the front of the queue: every evicted request
        # was submitted before every completed-but-later-queued one that
        # displaced it; spot-check the extremes.
        assert accepted.index(evicted[0]) < accepted.index(completed[-1])
        with pytest.raises(OverloadedError) as err:
            evicted[0].result(timeout=0)
        assert err.value.retry_after_s > 0
        stats = service.stats()
        assert stats.shed_evicted == len(evicted)
        assert_exactly_once(service.batcher, submitted=50)


class TestHotSwapUnderOverload:
    def test_swap_lands_while_shedding(self, pipeline_result,
                                       constant_model,
                                       slow_service_factory):
        tasks = pipeline_result.tasks
        width = pipeline_result.registry.features_count
        service = slow_service_factory(delay_s=0.02, max_batch=4,
                                       max_queue=16)
        first, shed_a = flood(service, tasks, 100)
        # Let v1 actually serve a batch before swapping — the flood
        # outruns the worker, so an immediate publish would land before
        # the first snapshot is ever taken.
        assert first[0].wait(5.0)
        service.publish(SlowModel(constant_model(1, width), 0.02),
                        clone=True)
        second, shed_b = flood(service, tasks, 100)
        assert shed_a and shed_b, "both floods must overflow the cap"
        service.close(drain=True)
        accepted = first + second
        assert all(r.ok for r in accepted)
        groups = {r.group for r in accepted}
        versions = {r.version for r in accepted}
        # The swap landed mid-overload: both models actually served.
        assert groups == {0, 1}
        assert versions == {1, 2}
        # Version monotonicity: once v2 served a request, no later
        # submission is served by v1 (batches take the queue in order).
        served_versions = [r.version for r in accepted]
        assert served_versions == sorted(served_versions)
        assert_exactly_once(service.batcher, submitted=200)


class TestFaultIsolation:
    def test_failing_encoder_fails_batch_not_worker(self, pipeline_result,
                                                    constant_model):
        registry = pipeline_result.registry
        width = registry.features_count
        handle = ModelHandle(constant_model(0, width))
        encoder = FailingEncoder(registry, fail_times=1)
        batcher = MicroBatcher(handle, registry, max_batch=8,
                               max_wait_us=200, encoder=encoder).start()
        try:
            first = [batcher.submit(t) for t in pipeline_result.tasks[:3]]
            for request in first:
                assert request.wait(5.0)
            assert encoder.failures_injected == 1
            errored = [r for r in first if not r.ok]
            assert errored, "the armed encoder must fail its batch"
            with pytest.raises(ServiceError):
                errored[0].result(timeout=0)
            # The worker survived the batch failure and keeps serving.
            probe = batcher.submit(pipeline_result.tasks[3])
            assert probe.result(timeout=5.0) == 0
            counters = batcher.counters()
            assert counters["failed"] == len(errored)
            assert counters["completed"] == 4 - len(errored)
            assert_exactly_once(batcher, submitted=4)
        finally:
            batcher.stop(drain=False)

    def test_stalled_worker_does_not_block_other_shards(self,
                                                        pipeline_result,
                                                        constant_model):
        registry = pipeline_result.registry
        width = registry.features_count
        gate = StallGate(constant_model(0, width))
        service = ClassificationService(gate, registry,
                                        CellConfig(max_batch=4,
                                                   max_wait_us=100,
                                                   n_workers=2),
                                        trainer=False).start()
        try:
            gate.stall()
            pinned = service.submit(pipeline_result.tasks[0])
            assert gate.entered.wait(5.0), "no worker picked up the batch"
            # One shard is parked inside predict; the other must keep
            # draining everything else.
            rest = [service.submit(t) for t in pipeline_result.tasks[1:11]]
            for request in rest:
                assert request.wait(5.0) and request.ok
            assert not pinned.done
            gate.release()
            assert pinned.result(timeout=5.0) == 0
            assert_exactly_once(service.batcher, submitted=11)
        finally:
            gate.release()
            service.close(drain=False)


class TestConfigValidation:
    def test_admission_controller_needs_a_limit(self):
        with pytest.raises(ValueError, match="budget or a queue cap"):
            AdmissionController(latency_budget_ms=None, max_queue=None)
        with pytest.raises(ValueError, match="policy"):
            AdmissionController(latency_budget_ms=10, policy="tail-drop")
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionController(max_queue=0)
        with pytest.raises(ValueError, match="positive"):
            AdmissionController(latency_budget_ms=-1)

    def test_autotuner_bounds_validation(self):
        with pytest.raises(ValueError, match="min_batch"):
            AutoTuner(min_batch=4, max_batch=2)
        with pytest.raises(ValueError, match="wait"):
            AutoTuner(min_wait_us=500, max_wait_us=100)
        with pytest.raises(ValueError, match="alpha"):
            AutoTuner(alpha=0.0)

    def test_policy_without_any_limit_is_rejected(self):
        # A non-default policy with nothing to act on would silently
        # never shed — refuse the configuration instead.
        with pytest.raises(ValueError, match="needs a latency budget"):
            CellConfig(shed_policy="drop-oldest")
        with pytest.raises(ValueError, match="shed_policy"):
            CellConfig(shed_policy="tail-drop")
        # A per-cell override is checked like a fresh config.
        with pytest.raises(ValueError, match="shed_policy"):
            replace(CellConfig(), shed_policy="tail-drop")

    def test_cell_config_is_frozen(self):
        config = CellConfig(max_queue=8)
        with pytest.raises(FrozenInstanceError):
            config.max_queue = 16
        assert config.max_queue == 8

    def test_service_wires_admission_and_tuner(self, pipeline_result,
                                               constant_model):
        width = pipeline_result.registry.features_count
        service = ClassificationService(
            constant_model(0, width), pipeline_result.registry,
            CellConfig(latency_budget_ms=25.0, autotune=True), trainer=False)
        assert service.admission is service.batcher.admission
        assert service.autotuner is service.batcher.autotuner
        # One arrival stream, one estimator: the controller borrows the
        # tuner's instead of folding every gap twice.
        assert service.admission.arrivals is service.autotuner.arrivals
        stats = service.stats()
        assert stats.batch_limit >= 1
        assert stats.wait_limit_us >= 0
        assert stats.shed == 0
        plain = ClassificationService(constant_model(0, width),
                                      pipeline_result.registry,
                                      trainer=False)
        assert plain.admission is None and plain.autotuner is None
