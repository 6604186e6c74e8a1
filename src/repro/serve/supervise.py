"""Self-healing cells: circuit breaker + per-cell supervisor watchdog.

A long-running serving process fails in ways admission control cannot
see: a worker thread wedged inside a pathological batch, a trainer
thread that died or crash-loops, a cell whose error rate spikes.  This
module adds the control loop that notices and reacts:

* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine.  Failures recorded on the submit path (or a forced trip from
  the supervisor's wedge detector) open the breaker; while open, every
  submission fails fast with
  :class:`~repro.errors.CircuitOpenError` (HTTP 503 + ``Retry-After``)
  instead of queueing behind a sick cell.  After a jittered exponential
  backoff the breaker half-opens and admits a bounded number of probe
  requests; a probe success closes it, a probe failure re-opens with a
  doubled backoff.
* :class:`Supervisor` — a per-cell watchdog thread.  It heartbeats the
  batcher's worker shards (a shard busy on one batch past
  ``wedge_timeout_s`` is wedged → trip the breaker so callers stop
  piling onto a stuck queue) and the background trainer: a dead trainer
  thread is restarted with exponential backoff (supervised restart), a
  crash-looping trainer (``consecutive_failures`` past its threshold)
  is *suspended* — training stops, the cell keeps serving its last-good
  snapshot in degraded mode, surfaced via ``/healthz`` and stats — and
  retried later on the same backoff schedule.

Both are deliberately decoupled: a breaker works without a supervisor
(pure error-rate protection) and a supervisor without a breaker
(restart/degrade only).
"""

from __future__ import annotations

import logging
import threading
import time

import numpy as np

from ..analysis.concur.runtime import new_lock
from ..errors import CircuitOpenError

__all__ = ["CircuitBreaker", "Supervisor", "BREAKER_CLOSED",
           "BREAKER_HALF_OPEN", "BREAKER_OPEN"]

logger = logging.getLogger(__name__)

#: Breaker state gauge encoding (exported as ``repro_serve_breaker_state``).
BREAKER_CLOSED = 0
BREAKER_HALF_OPEN = 1
BREAKER_OPEN = 2

_STATE_NAMES = {BREAKER_CLOSED: "closed", BREAKER_HALF_OPEN: "half_open",
                BREAKER_OPEN: "open"}


class CircuitBreaker:
    """Per-cell closed/open/half-open failure gate.

    Parameters
    ----------
    failure_threshold / min_samples / window:
        Trip when at least ``min_samples`` outcomes are in the sliding
        ``window`` and the failure fraction reaches
        ``failure_threshold``.
    backoff_s / max_backoff_s:
        Reopen backoff: ``backoff_s * 2^(trips-1)`` capped at
        ``max_backoff_s``, then jittered up to +50% so cells sharing a
        failing dependency don't probe in lockstep.
    probe_limit:
        Concurrent probe submissions admitted while half-open.
    """

    def __init__(self, name: str = "cell",
                 failure_threshold: float = 0.5,
                 min_samples: int = 10,
                 window: int = 64,
                 backoff_s: float = 1.0,
                 max_backoff_s: float = 30.0,
                 probe_limit: int = 1,
                 rng: np.random.Generator | None = None,
                 telemetry=None):
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if min_samples < 1 or window < min_samples:
            raise ValueError("need window >= min_samples >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.window = window
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.probe_limit = probe_limit
        self.rng = rng or np.random.default_rng()
        self.telemetry = telemetry
        self._lock = new_lock("CircuitBreaker._lock")
        self._state = BREAKER_CLOSED  # guarded-by: _lock
        self._successes = 0  # guarded-by: _lock
        self._failures = 0  # guarded-by: _lock
        self._not_before = 0.0  # guarded-by: _lock
        self._last_backoff_s = 0.0  # guarded-by: _lock
        self._consecutive_trips = 0  # guarded-by: _lock
        self._probes = 0  # guarded-by: _lock
        self._last_reason = ""  # guarded-by: _lock
        self.trips_total = 0  # guarded-by: _lock
        self.rejected_total = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # submit-path gate
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Admit or refuse one submission (raises when open).

        Open → half-open happens here, lazily, once the backoff expires:
        the next arrival becomes the probe.
        """

        with self._lock:
            if self._state == BREAKER_CLOSED:
                return
            now = time.monotonic()
            if self._state == BREAKER_OPEN:
                if now < self._not_before:
                    self.rejected_total += 1
                    retry = self._not_before - now
                    reason = self._last_reason
                    raise CircuitOpenError(
                        f"cell {self.name!r} circuit is open "
                        f"({reason or 'failure threshold'}); retry in "
                        f"{retry:.1f}s", retry_after_s=retry,
                        cell=self.name, reason=reason or "open")
                self._state = BREAKER_HALF_OPEN
                self._probes = 0
            # Half-open: admit up to probe_limit in-flight probes; the
            # rest fail fast with a short retry hint.
            if self._probes >= self.probe_limit:
                self.rejected_total += 1
                raise CircuitOpenError(
                    f"cell {self.name!r} circuit is half-open; probe in "
                    f"flight", retry_after_s=self.backoff_s,
                    cell=self.name, reason="probing")
            self._probes += 1

    def record_success(self) -> None:
        """One successful submission; a half-open probe success closes."""

        event = None
        with self._lock:
            self._successes += 1
            self._shrink_window_locked()
            if self._state == BREAKER_HALF_OPEN:
                event = self._close_locked()
        self._emit(event)

    def record_failure(self) -> None:
        """One failed submission; may trip (or re-open from a probe)."""

        event = None
        with self._lock:
            self._failures += 1
            self._shrink_window_locked()
            if self._state == BREAKER_HALF_OPEN:
                event = self._trip_locked("probe_failed")
            elif self._state == BREAKER_CLOSED:
                total = self._successes + self._failures
                if (total >= self.min_samples
                        and self._failures / total
                        >= self.failure_threshold):
                    event = self._trip_locked("failure_rate")
        self._emit(event)

    def trip(self, reason: str = "forced") -> None:
        """Force the breaker open (the supervisor's wedge reaction)."""

        event = None
        with self._lock:
            if self._state != BREAKER_OPEN:
                event = self._trip_locked(reason)
        self._emit(event)

    def reset(self) -> None:
        """Force-close (an operator action; clears the trip streak)."""

        event = None
        with self._lock:
            if self._state != BREAKER_CLOSED:
                event = self._close_locked()
            self._consecutive_trips = 0
        self._emit(event)

    # ------------------------------------------------------------------
    def _shrink_window_locked(self) -> None:
        # requires-lock: _lock
        # A counter pair approximates the sliding window: past `window`
        # outcomes, halve both so old history decays instead of pinning
        # the rate forever.
        total = self._successes + self._failures
        if total > self.window:
            self._successes //= 2
            self._failures //= 2

    def _trip_locked(self, reason: str) -> tuple:
        # requires-lock: _lock
        self._state = BREAKER_OPEN
        self._consecutive_trips += 1
        self.trips_total += 1
        backoff = min(self.backoff_s * (2 ** (self._consecutive_trips - 1)),
                      self.max_backoff_s)
        backoff *= 1.0 + 0.5 * float(self.rng.random())  # jitter
        self._not_before = time.monotonic() + backoff
        self._last_backoff_s = backoff
        self._last_reason = reason
        self._successes = 0
        self._failures = 0
        return ("breaker_open", {"cell": self.name, "reason": reason,
                                 "trips": self.trips_total,
                                 "backoff_s": round(backoff, 3)})

    def _close_locked(self) -> tuple:
        # requires-lock: _lock
        self._state = BREAKER_CLOSED
        self._consecutive_trips = 0
        self._probes = 0
        self._successes = 0
        self._failures = 0
        return ("breaker_closed", {"cell": self.name})

    def _emit(self, event: tuple | None) -> None:
        # Telemetry appends take the event ring's own lock — emit
        # strictly outside the breaker lock, like every other serve
        # component.
        if event is None or self.telemetry is None:
            return
        kind, fields = event
        self.telemetry.events.append(kind, **fields)
        logger.info("%s: %s", kind, fields)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def state_code(self) -> int:
        """0 closed / 1 half-open / 2 open (the Prometheus gauge)."""

        return self._state  # unguarded-ok: atomic int read for stats; staleness is benign

    @property
    def state(self) -> str:
        return _STATE_NAMES[self.state_code]

    @property
    def retry_after_s(self) -> float:
        """Remaining reopen backoff (0.0 unless open)."""

        with self._lock:
            if self._state != BREAKER_OPEN:
                return 0.0
            return max(0.0, self._not_before - time.monotonic())


class Supervisor:
    """Per-cell watchdog: wedge detection, restart, degraded mode.

    The loop polls every ``poll_interval_s``:

    1. **Wedged workers** — any batcher shard busy on a single batch
       longer than ``wedge_timeout_s`` trips the breaker (if one is
       wired) so new arrivals fail fast instead of queueing behind the
       stuck shard, and marks the cell degraded until the shard
       recovers.
    2. **Dead trainer** — a started service whose trainer thread has
       died is restarted with exponential (jittered) backoff;
       successful restarts clear the failure streak.
    3. **Crash-looping trainer** — ``consecutive_failures`` at or past
       the trainer's own threshold suspends training entirely: the
       thread is stopped, the cell keeps serving its last-good
       snapshot (degraded mode), and a restart is attempted on the
       same backoff schedule.
    """

    def __init__(self, service, breaker: CircuitBreaker | None = None,
                 poll_interval_s: float = 0.25,
                 wedge_timeout_s: float = 5.0,
                 restart_backoff_s: float = 0.5,
                 max_restart_backoff_s: float = 30.0,
                 rng: np.random.Generator | None = None,
                 telemetry=None):
        self.service = service
        self.breaker = breaker
        self.poll_interval_s = poll_interval_s
        self.wedge_timeout_s = wedge_timeout_s
        self.restart_backoff_s = restart_backoff_s
        self.max_restart_backoff_s = max_restart_backoff_s
        self.rng = rng or np.random.default_rng()
        self.telemetry = telemetry
        self._lock = new_lock("Supervisor._lock")
        self._degraded_reasons: set[str] = set()  # guarded-by: _lock
        self.restarts_total = 0  # guarded-by: _lock
        self.wedges_total = 0  # guarded-by: _lock
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # Loop-thread private restart pacing.
        self._restart_not_before = 0.0
        self._consecutive_restarts = 0
        self._suspended = False
        self._wedged_before: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Supervisor":
        if self._thread is not None:
            raise RuntimeError("supervisor already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-supervisor",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 30.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None

    @property
    def alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while the cell serves on its last-good snapshot only
        (training suspended/dead or a worker wedged)."""

        with self._lock:
            return bool(self._degraded_reasons)

    @property
    def degraded_reasons(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._degraded_reasons))

    def _set_degraded(self, reason: str, active: bool) -> None:
        changed = False
        with self._lock:
            if active and reason not in self._degraded_reasons:
                self._degraded_reasons.add(reason)
                changed = True
            elif not active and reason in self._degraded_reasons:
                self._degraded_reasons.discard(reason)
                changed = True
        if changed and self.telemetry is not None:
            self.telemetry.events.append(
                "degraded" if active else "recovered", reason=reason)

    # ------------------------------------------------------------------
    # the watchdog loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            try:
                self._tick()
            except Exception:  # noqa: BLE001 — the watchdog must not die
                logger.exception("supervisor tick failed; continuing")

    def _tick(self) -> None:
        service = self.service
        if not service.started:
            return
        self._check_workers(service)
        self._check_trainer(service)

    def _check_workers(self, service) -> None:
        wedged = service.batcher.wedged_shards(self.wedge_timeout_s)
        if wedged and wedged != self._wedged_before:
            with self._lock:
                self.wedges_total += len(set(wedged)
                                         - set(self._wedged_before))
            logger.warning("batcher shard(s) %s wedged > %.1fs",
                           list(wedged), self.wedge_timeout_s)
            if self.telemetry is not None:
                self.telemetry.events.append(
                    "worker_wedged", shards=",".join(map(str, wedged)),
                    timeout_s=self.wedge_timeout_s)
        if wedged and self.breaker is not None:
            # Re-trip as long as the wedge persists: a half-open probe
            # admitted into a still-stuck shard must not close the
            # breaker's protection.
            if (wedged != self._wedged_before
                    or self.breaker.state_code != BREAKER_OPEN):
                self.breaker.trip("wedged_worker")
        self._wedged_before = wedged
        self._set_degraded("wedged_worker", bool(wedged))

    def _check_trainer(self, service) -> None:
        trainer = service.trainer
        if trainer is None:
            return
        now = time.monotonic()
        crash_looping = (trainer.consecutive_failures
                         >= trainer.max_consecutive_failures)
        if trainer.alive and not crash_looping:
            if not self._suspended:
                self._consecutive_restarts = 0
                self._set_degraded("trainer_down", False)
            return
        if trainer.alive and crash_looping and not self._suspended:
            # Suspend: stop feeding a crash loop; keep serving the
            # last-good snapshot.  The stop() join happens on this
            # watchdog thread with no locks held.
            logger.warning("trainer crash-looping (%d consecutive); "
                           "suspending training",
                           trainer.consecutive_failures)
            trainer.stop(timeout=5.0)
            self._suspended = True
            self._schedule_restart(now)
            self._set_degraded("trainer_down", True)
            if self.telemetry is not None:
                self.telemetry.events.append(
                    "trainer_suspended",
                    consecutive_failures=trainer.consecutive_failures)
            return
        # Dead (or suspended) trainer: restart once the backoff expires.
        self._set_degraded("trainer_down", True)
        if now < self._restart_not_before:
            return
        trainer.stop(timeout=5.0)  # reap the dead thread, if any
        trainer.reset_failures()
        try:
            trainer.start()
        except RuntimeError:  # pragma: no cover - lost race with close()
            return
        self._suspended = False
        self._schedule_restart(now)
        # Clear the reason before the restart counts, so no reader sees
        # "restarted" and "degraded" at once.
        self._set_degraded("trainer_down", False)
        with self._lock:
            self.restarts_total += 1
            restarts = self.restarts_total
        logger.info("trainer restarted (restart #%d)", restarts)
        if self.telemetry is not None:
            self.telemetry.events.append("trainer_restarted",
                                         restarts=restarts)

    def _schedule_restart(self, now: float) -> None:
        self._consecutive_restarts += 1
        backoff = min(self.restart_backoff_s
                      * (2 ** (self._consecutive_restarts - 1)),
                      self.max_restart_backoff_s)
        backoff *= 1.0 + 0.5 * float(self.rng.random())  # jitter
        self._restart_not_before = now + backoff
