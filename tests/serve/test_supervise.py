"""Circuit breaker + supervisor: state machine, wedge detection,
trainer restart, crash-loop suspension, and the HTTP 503 surface."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import CircuitOpenError
from repro.serve import (BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN,
                         CircuitBreaker, ClassificationService, Supervisor)
from repro.sim import RetrainPolicy

from .conftest import WsgiClient
from .faults import StallGate, kill_trainer


class ZeroJitter:
    """rng stub: jitter factor is exactly 1.0, backoffs are exact."""

    def random(self) -> float:
        return 0.0


def make_breaker(**kwargs) -> CircuitBreaker:
    defaults = dict(min_samples=2, failure_threshold=0.5,
                    backoff_s=0.05, rng=ZeroJitter())
    defaults.update(kwargs)
    return CircuitBreaker(**defaults)


class TestCircuitBreaker:
    def test_starts_closed_and_admits(self):
        breaker = make_breaker()
        assert breaker.state_code == BREAKER_CLOSED
        breaker.check()  # no raise
        assert breaker.retry_after_s == 0.0

    def test_trips_on_failure_rate(self):
        breaker = make_breaker()
        breaker.record_failure()
        assert breaker.state_code == BREAKER_CLOSED  # below min_samples
        breaker.record_failure()
        assert breaker.state_code == BREAKER_OPEN
        assert breaker.trips_total == 1
        with pytest.raises(CircuitOpenError) as exc_info:
            breaker.check()
        assert exc_info.value.retry_after_s > 0
        assert breaker.rejected_total == 1
        assert breaker.retry_after_s > 0

    def test_below_threshold_stays_closed(self):
        breaker = make_breaker(min_samples=4)
        for _ in range(9):
            breaker.record_success()
        breaker.record_failure()  # 10% < 50%
        assert breaker.state_code == BREAKER_CLOSED

    def test_half_open_probe_success_closes(self):
        breaker = make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        time.sleep(0.06)  # past the unjittered 0.05s backoff
        breaker.check()  # the probe is admitted
        assert breaker.state_code == BREAKER_HALF_OPEN
        breaker.record_success()
        assert breaker.state_code == BREAKER_CLOSED
        breaker.check()  # fully back in service

    def test_half_open_limits_concurrent_probes(self):
        breaker = make_breaker(probe_limit=1)
        breaker.trip()
        time.sleep(0.06)
        breaker.check()
        with pytest.raises(CircuitOpenError, match="probe"):
            breaker.check()

    def test_probe_failure_reopens_with_doubled_backoff(self):
        breaker = make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        first = breaker._last_backoff_s
        time.sleep(0.06)
        breaker.check()
        breaker.record_failure()  # the probe fails
        assert breaker.state_code == BREAKER_OPEN
        assert breaker.trips_total == 2
        assert breaker._last_backoff_s == pytest.approx(2 * first)

    def test_backoff_caps_and_jitters(self):
        breaker = make_breaker(backoff_s=1.0, max_backoff_s=2.0,
                               rng=np.random.default_rng(0))
        for _ in range(5):
            breaker.trip()
            time.sleep(0.0)
            # reopen the trip path: forced trips while open are no-ops
            breaker._state = BREAKER_CLOSED  # test-only reach-in
        assert breaker._last_backoff_s <= 2.0 * 1.5  # cap * max jitter

    def test_forced_trip_and_reset(self):
        breaker = make_breaker()
        breaker.trip("wedged_worker")
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError, match="wedged_worker"):
            breaker.check()
        breaker.reset()
        assert breaker.state == "closed"
        breaker.check()

    def test_window_decay_forgets_old_history(self):
        breaker = make_breaker(min_samples=2, window=4,
                               failure_threshold=0.9)
        breaker.record_failure()
        for _ in range(20):
            breaker.record_success()
        # One old failure halved away: a single new failure cannot reach
        # the 90% threshold.
        breaker.record_failure()
        assert breaker.state_code == BREAKER_CLOSED


@pytest.fixture()
def stalled_service(serve_setup):
    """A 2-worker service over a stall-gated model + wired breaker."""

    model, result = serve_setup
    gate = StallGate(model)
    breaker = CircuitBreaker(name="cell-under-test", min_samples=2,
                             backoff_s=30.0, rng=ZeroJitter())
    service = ClassificationService(gate, result.registry, max_batch=8,
                                    max_wait_us=200, n_workers=2,
                                    trainer=False, breaker=breaker)
    with service:
        yield service, gate, breaker, result
        gate.release()


class TestSupervisorWedge:
    def test_wedged_shard_trips_breaker_and_degrades(self, stalled_service):
        service, gate, breaker, result = stalled_service
        supervisor = Supervisor(service, breaker=breaker,
                                poll_interval_s=0.02, wedge_timeout_s=0.1,
                                rng=ZeroJitter())
        supervisor.start()
        try:
            gate.stall()
            pinned = service.submit(result.tasks[0])
            assert gate.entered.wait(5), "no worker picked up the batch"
            deadline = time.monotonic() + 5
            while (breaker.state_code != BREAKER_OPEN
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert breaker.state_code == BREAKER_OPEN
            assert supervisor.degraded
            assert "wedged_worker" in supervisor.degraded_reasons
            assert supervisor.wedges_total >= 1
            # Fail-fast while wedged: callers get the breaker, not the
            # queue behind the stuck shard.
            with pytest.raises(CircuitOpenError):
                service.submit(result.tasks[1])
            gate.release()
            assert pinned.wait(5)
            deadline = time.monotonic() + 5
            while supervisor.degraded and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not supervisor.degraded
        finally:
            supervisor.stop()

    def test_retrips_while_wedge_persists(self, stalled_service):
        """A half-open probe into a still-wedged cell must not close
        the breaker for good: the supervisor re-trips."""

        service, gate, breaker, result = stalled_service
        supervisor = Supervisor(service, breaker=breaker,
                                poll_interval_s=0.02, wedge_timeout_s=0.1,
                                rng=ZeroJitter())
        supervisor.start()
        try:
            gate.stall()
            service.submit(result.tasks[0])
            assert gate.entered.wait(5)
            deadline = time.monotonic() + 5
            while (breaker.state_code != BREAKER_OPEN
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            trips_before = breaker.trips_total
            # Simulate an expired backoff + closed probe while the shard
            # is still stuck; the next supervisor tick re-opens.
            breaker.reset()
            deadline = time.monotonic() + 5
            while (breaker.state_code != BREAKER_OPEN
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert breaker.state_code == BREAKER_OPEN
            assert breaker.trips_total > trips_before
        finally:
            supervisor.stop()


class TestSupervisorTrainer:
    def test_dead_trainer_restarted(self, serve_setup):
        model, result = serve_setup
        service = ClassificationService(
            model, result.registry, trainer=True,
            policy=RetrainPolicy(growth_threshold=10_000,
                                 min_observations=10_000))
        with service:
            supervisor = Supervisor(service, poll_interval_s=0.02,
                                    restart_backoff_s=0.01,
                                    rng=ZeroJitter())
            supervisor.start()
            try:
                assert service.trainer.alive
                kill_trainer(service.trainer)
                assert not service.trainer.alive
                deadline = time.monotonic() + 5
                while (supervisor.restarts_total < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                assert service.trainer.alive, "trainer was not restarted"
                assert supervisor.restarts_total >= 1
                assert not supervisor.degraded
            finally:
                supervisor.stop()

    def test_crash_loop_suspends_into_degraded_serving(self, serve_setup):
        model, result = serve_setup
        service = ClassificationService(
            model, result.registry, trainer=True,
            policy=RetrainPolicy(growth_threshold=10_000,
                                 min_observations=10_000))
        with service:
            supervisor = Supervisor(service, poll_interval_s=0.02,
                                    restart_backoff_s=60.0,  # stay down
                                    rng=ZeroJitter())
            supervisor.start()
            try:
                trainer = service.trainer
                with trainer._lock:  # test-only reach-in: fake the streak
                    trainer._consecutive_failures = \
                        trainer.max_consecutive_failures
                deadline = time.monotonic() + 5
                while trainer.alive and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert not trainer.alive, "crash loop was not suspended"
                assert supervisor.degraded
                assert "trainer_down" in supervisor.degraded_reasons
                # Degraded-mode serving: the last-good snapshot still
                # answers while training is suspended.
                request = service.classify(result.tasks[0], timeout=5)
                assert request.done and request.error is None
                stats = service.stats()
                assert stats.has_published
            finally:
                supervisor.stop()

    def test_supervised_service_reports_stats(self, serve_setup):
        model, result = serve_setup
        service = ClassificationService(model, result.registry,
                                        trainer=False, supervise=True)
        with service:
            assert service.supervisor is not None
            assert service.supervisor.alive
            assert service.breaker is not None
            stats = service.stats()
            assert stats.breaker_state == BREAKER_CLOSED
            assert stats.degraded is False
            assert stats.supervisor_restarts == 0
            payload = stats.to_dict()
            assert payload["breaker_state"] == 0
            assert payload["degraded"] is False
        assert not service.supervisor.alive


class TestBreakerOverHttp:
    def test_open_breaker_maps_to_503_with_retry_after(self, serve_setup):
        from repro.serve import create_app

        model, result = serve_setup
        breaker = CircuitBreaker(name="default", backoff_s=30.0,
                                 rng=ZeroJitter())
        service = ClassificationService(model, result.registry,
                                        trainer=False, breaker=breaker)
        with service:
            client = WsgiClient(create_app(service))
            breaker.trip("failure_rate")
            response = client.post(
                "/classify", json={"task": result.tasks[0].to_dict()})
            assert response.status_code == 503
            assert int(response.headers["Retry-After"]) >= 1
            body = response.get_json()
            assert body["reason"] == "failure_rate"
            assert body["retry_after_s"] > 0
            health = client.get("/healthz")
            assert health.status_code == 503
            checks = {c["check"]: c for c in health.get_json()["checks"]
                      if c["cell"] == "default"}
            assert checks["breaker"]["ok"] is False
            assert checks["breaker"]["state"] == "open"
            breaker.reset()
            response = client.post(
                "/classify", json={"task": result.tasks[0].to_dict()})
            assert response.status_code == 200
            assert client.get("/healthz").status_code == 200
