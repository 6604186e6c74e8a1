"""Microbatching request queue for the online Task CO Analyzer.

Single-row inference wastes the model's vectorization: a two-layer
matmul over one row costs nearly the same as over sixty-four.  The
batcher therefore collects concurrent arrivals for at most
``max_wait_us`` microseconds (or until ``max_batch`` requests are
queued), encodes them as one CO-VV block, and classifies the block with
a single ``predict`` call — the standard dynamic-batching strategy of
model servers, tuned here for the analyzer's sub-millisecond budget.

Hot-swap atomicity: a worker takes **one** model snapshot per batch
and aligns the encoded block to that snapshot's input width, so every
request in a batch is classified by exactly one published version — a
publication landing mid-batch only affects the *next* batch.

Sharding: ``n_workers`` worker threads drain the same queue.  Each
shard owns a private :class:`~repro.datasets.COVVEncoder` (the per-spec
memo is never shared, so the registry lock is held only for the encode
itself, not across shards), takes whole batches, and keeps per-shard
counters that :meth:`MicroBatcher.counters` merges under ``stats_lock``
with the aggregate view.

Compiled fast path: a worker serves each batch through its snapshot's
fused :class:`~repro.core.InferencePlan` — the CO-VV block stays CSR
into the first GEMM (no ``toarray()``, no dense ``align`` copy) and the
dense layers run ``np.dot(..., out=)`` into a per-shard
:class:`~repro.core.PlanScratch` rebuilt only when a hot-swap installs
a new plan.  Snapshots without a plan (plan-less models such as
duck-typed doubles) serve on the eager ``align`` + ``predict`` path,
which doubles as the fast path's equivalence oracle in the tests.

Overload: an optional :class:`~repro.serve.AdmissionController` gates
:meth:`MicroBatcher.submit` — arrivals that would blow the cell's
latency budget (or hard queue cap) are shed with a typed
:class:`~repro.errors.OverloadedError` (policy ``"reject"``) or admitted
at the cost of evicting the oldest queued request (``"drop-oldest"``).
An optional :class:`~repro.serve.AutoTuner` continuously re-fits
``max_batch`` / ``max_wait_us`` to the observed arrival rate.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..analysis.concur.runtime import new_condition, new_lock
from ..constraints.compaction import CompactedTask
from ..core.inference_plan import PlanScratch
from ..datasets.co_vv import COVVEncoder
from ..datasets.registry import FeatureRegistry
from ..errors import OverloadedError, ServiceClosedError, ServiceError
from .admission import AdmissionController, AutoTuner
from .handle import ModelHandle

__all__ = ["ClassifyRequest", "MicroBatcher"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class _CanaryResult:
    """Outcome of serving one batch's canary slice with the candidate."""

    idx: list[int]
    groups: np.ndarray
    version: int
    agree: int
    cand_conf: float
    inc_conf: float
    conf_n: int


class ClassifyRequest:
    """One in-flight classification; completed by a batch worker.

    ``cell`` stays ``None`` for a directly-submitted request; the
    multi-cell :class:`~repro.serve.CellRouter` annotates it with the
    cell id the request was dispatched to, which is what the load
    generator's misroute audit keys on.
    """

    __slots__ = ("task", "enqueued_ns", "completed_ns", "group", "version",
                 "cell", "error", "_event")

    def __init__(self, task: CompactedTask):
        self.task = task
        self.enqueued_ns = time.perf_counter_ns()
        self.completed_ns: int | None = None
        self.group: int | None = None
        self.version: int | None = None
        self.cell: str | None = None
        self.error: Exception | None = None
        self._event = threading.Event()

    def _complete(self, group: int, version: int, now_ns: int) -> None:
        self.group = group
        self.version = version
        self.completed_ns = now_ns
        self._event.set()

    def _fail(self, error: Exception) -> None:
        self.error = error
        self._event.set()

    @property
    def done(self) -> bool:
        """The request finished — successfully (:attr:`ok`) or not."""

        return self._event.is_set()

    @property
    def ok(self) -> bool:
        return self._event.is_set() and self.error is None

    def wait(self, timeout: float | None = None) -> bool:
        """Block until finished (either way); False on timeout."""

        return self._event.wait(timeout)

    @property
    def latency_ns(self) -> int:
        if self.completed_ns is None:
            raise RuntimeError("request not completed yet")
        return self.completed_ns - self.enqueued_ns

    @property
    def latency_us(self) -> float:
        return self.latency_ns / 1e3

    def result(self, timeout: float | None = None) -> int:
        """The predicted group, blocking until available.

        Raises the failure (wrapped in :class:`~repro.errors.ServiceError`
        if needed) when the serving batch errored or was cancelled.
        """

        if not self.wait(timeout):
            raise TimeoutError("classification did not complete in time")
        if self.error is not None:
            if isinstance(self.error, ServiceError):
                raise self.error
            raise ServiceError("classification failed") from self.error
        assert self.group is not None
        return self.group


class MicroBatcher:
    """Collect requests for ≤``max_wait_us`` µs or ≤``max_batch`` tasks.

    ``n_workers`` daemon workers drain the queue; :meth:`stop` with the
    default ``drain=True`` processes everything already accepted before
    exiting, so accepted requests are never dropped — submissions after
    the batcher closed raise :class:`~repro.errors.ServiceClosedError`
    instead of silently vanishing.
    """

    def __init__(self, handle: ModelHandle, registry: FeatureRegistry,
                 max_batch: int = 64, max_wait_us: int = 500,
                 encoder: COVVEncoder | None = None,
                 registry_lock: threading.Lock | None = None,
                 n_workers: int = 1,
                 admission: AdmissionController | None = None,
                 autotuner: AutoTuner | None = None,
                 telemetry=None,
                 rollout=None):
        """``registry_lock`` must be shared with whatever grows the
        registry concurrently (the service wires the trainer's lock in):
        the CO-VV append-only invariant makes *grown* registries safe to
        serve, but an append landing mid-``encode_rows`` would emit
        column indices beyond the matrix width scipy silently drops.
        A passed ``encoder`` becomes shard 0's; further shards always
        get private encoders.

        ``admission`` gates every submit (see the module docstring);
        ``autotuner`` takes ownership of ``max_batch`` / ``max_wait_us``
        — the constructor values then only seed the pre-first-arrival
        state, and workers re-read both attributes every wakeup.

        ``telemetry`` (a :class:`~repro.serve.telemetry.Telemetry` with
        at least ``n_workers`` shards) turns on stage timing: producers
        record the submit→enqueue stage, each worker writes queue-wait /
        assembly / inference / total into its private shard histograms,
        and shed-episode transitions and autotuner re-fits land in the
        structural event log.

        ``rollout`` (a :class:`~repro.serve.rollout.RolloutController`)
        turns on staged rollout on the serving path: every completed
        batch feeds its replay ring, and while the handle holds a
        staged candidate the canary slice of each batch is served by it
        (deterministic per-task hash split) with the outcome reported
        to the controller."""

        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_us < 0:
            raise ValueError("max_wait_us cannot be negative")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.handle = handle
        self.registry = registry
        self.max_batch = max_batch  # guarded-by: _cond
        self.max_wait_us = max_wait_us  # guarded-by: _cond
        self.n_workers = n_workers
        self.admission = admission
        self.autotuner = autotuner
        if telemetry is not None and telemetry.n_shards < n_workers:
            raise ValueError(
                f"telemetry has {telemetry.n_shards} shard timing slots "
                f"for {n_workers} workers")
        self.telemetry = telemetry
        self.rollout = rollout
        # Shed-episode edge detection for the event log: log the first
        # shed of an episode and the first clean admit after it, not
        # every shed decision (a sustained flood would flush the ring).
        self._shed_episode = False  # guarded-by: stats_lock
        self.registry_lock = (registry_lock
                              or new_lock("MicroBatcher.registry_lock"))
        self._encoders = [encoder or COVVEncoder(registry)]
        self._encoders += [COVVEncoder(registry)
                           for _ in range(n_workers - 1)]
        # Per-shard scratch for the compiled fast path; workers rebuild
        # their slot whenever the snapshot's plan changes (hot-swap).
        # Only the owning shard touches its slot, so no lock is needed.
        self._scratches: list[PlanScratch | None] = [None] * n_workers
        # Candidate-side scratch for canary slices, same ownership rule.
        self._cand_scratches: list[PlanScratch | None] = [None] * n_workers
        # Wedge heartbeats: monotonic start of the batch a shard is
        # currently processing, 0.0 while idle/waiting.  Written only by
        # the owning shard; the supervisor reads them to detect a worker
        # stuck inside one batch (idle shards never false-positive).
        self._shard_busy_since = [0.0] * n_workers  # unguarded-ok: single-writer per slot (owning shard); float reference stores are atomic under the GIL

        self._queue: deque[ClassifyRequest] = deque()  # guarded-by: _cond
        self._cond = new_condition("MicroBatcher._cond")
        self._threads: list[threading.Thread] = []
        self._closing = False  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond

        # stats_lock guards every counter below (and versions_served —
        # an unguarded copy while a worker inserts a fresh version key
        # can raise "dictionary changed size during iteration").
        # Lock order where both are held: _cond, then stats_lock.
        self.stats_lock = new_lock("MicroBatcher.stats_lock")
        self.requests_total = 0  # guarded-by: stats_lock
        self.completed_total = 0  # guarded-by: stats_lock
        self.rejected_total = 0  # guarded-by: stats_lock
        self.cancelled_total = 0  # guarded-by: stats_lock
        self.failed_total = 0  # guarded-by: stats_lock
        self.shed_rejected_total = 0  # guarded-by: stats_lock
        self.shed_evicted_total = 0  # guarded-by: stats_lock
        self.shed_expired_total = 0  # guarded-by: stats_lock
        self.batches_total = 0  # guarded-by: stats_lock
        self.compiled_batches_total = 0  # guarded-by: stats_lock
        self.largest_batch = 0  # guarded-by: stats_lock
        self.canary_served_total = 0  # guarded-by: stats_lock
        self.versions_served: dict[int, int] = {}  # guarded-by: stats_lock
        self.shard_completed = [0] * n_workers  # guarded-by: stats_lock
        self.shard_batches = [0] * n_workers  # guarded-by: stats_lock

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        if self._closed:  # unguarded-ok: start() is a control-plane call; no worker exists yet to race with
            raise RuntimeError("batcher is stopped and cannot restart; "
                               "build a new one")
        if self._threads:
            raise RuntimeError("batcher already started")
        for shard in range(self.n_workers):
            thread = threading.Thread(target=self._worker, args=(shard,),
                                      name=f"repro-serve-batcher-{shard}",
                                      daemon=True)
            self._threads.append(thread)
            thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Shut the workers down; with ``drain`` the queue empties first.

        Without ``drain``, queued requests are cancelled: their waiters
        wake immediately with a :class:`~repro.errors.ServiceClosedError`
        rather than blocking out their timeout.
        """

        with self._cond:
            if not drain:
                cancelled = ServiceClosedError("request cancelled: "
                                               "batcher stopped")
                n_cancelled = 0
                while self._queue:
                    self._queue.popleft()._fail(cancelled)
                    n_cancelled += 1
                with self.stats_lock:
                    self.cancelled_total += n_cancelled
            self._closing = True
            self._closed = True
            self._cond.notify_all()
        if timeout is None:
            for thread in self._threads:
                thread.join()
        else:
            # One shared deadline: sequential full-timeout joins would
            # stretch a wedged shutdown to n_workers × timeout.
            deadline = time.monotonic() + timeout
            for thread in self._threads:
                thread.join(max(0.0, deadline - time.monotonic()))
        self._threads = []

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, task: CompactedTask) -> ClassifyRequest:
        """Enqueue one task; returns immediately with the request handle.

        Raises :class:`~repro.errors.OverloadedError` when admission
        control sheds the arrival (policy ``"reject"``); under
        ``"drop-oldest"`` the arrival is admitted and the stalest queued
        request fails with the overload error instead.
        """

        request = ClassifyRequest(task)
        shed_now = False
        with self._cond:
            if self._closed:
                with self.stats_lock:
                    self.rejected_total += 1
                raise ServiceClosedError("batcher is stopped")
            if self.autotuner is not None:
                self.autotuner.observe_arrival()
                new_batch, new_wait = self.autotuner.update()
                if (self.telemetry is not None
                        and (new_batch != self.max_batch
                             or new_wait != self.max_wait_us)):
                    self.telemetry.events.append(
                        "autotune", batch_limit=new_batch,
                        wait_limit_us=new_wait,
                        prev_batch_limit=self.max_batch,
                        prev_wait_limit_us=self.max_wait_us)
                self.max_batch, self.max_wait_us = new_batch, new_wait
            if self.admission is not None:
                # Skip the duplicate fold when the controller shares the
                # tuner's estimator (observed just above).
                if (self.autotuner is None
                        or self.admission.arrivals
                        is not self.autotuner.arrivals):
                    self.admission.note_arrival()
                retry_after = self.admission.evaluate(
                    len(self._queue), self.max_wait_us,
                    batch_limit=self.max_batch, workers=self.n_workers)
                if retry_after is not None:
                    shed_now = True
                    self._note_shed(
                        "evicted" if (self.admission.policy == "drop-oldest"
                                      and self._queue) else "rejected",
                        retry_after, len(self._queue))
                    if (self.admission.policy == "drop-oldest"
                            and self._queue):
                        victim = self._queue.popleft()
                        with self.stats_lock:
                            self.shed_evicted_total += 1
                            self.admission.shed_total += 1
                        victim._fail(OverloadedError(
                            f"request evicted: a newer arrival displaced "
                            f"it from an overloaded queue; retry in "
                            f"{retry_after:.3f}s",
                            retry_after_s=retry_after, reason="evicted",
                            cell=victim.cell))
                    else:
                        with self.stats_lock:
                            self.shed_rejected_total += 1
                            self.admission.shed_total += 1
                        raise OverloadedError(
                            f"cell overloaded: queue depth "
                            f"{len(self._queue)} would exceed the latency "
                            f"budget; retry in {retry_after:.3f}s",
                            retry_after_s=retry_after)
            self._queue.append(request)
            with self.stats_lock:
                self.requests_total += 1
                if self.admission is not None:
                    self.admission.admitted_total += 1
                if self._shed_episode and not shed_now:
                    # First clean admit (no shed in the same call, so a
                    # drop-oldest storm can't flap) ends the episode.
                    self._shed_episode = False
                    if self.telemetry is not None:
                        self.telemetry.events.append(
                            "shed_cleared", pending=len(self._queue))
            self._cond.notify()
        if self.telemetry is not None:
            self.telemetry.observe(
                "submit",
                (time.perf_counter_ns() - request.enqueued_ns) / 1e3)
        return request

    def submit_many(self, tasks: list[CompactedTask]
                    ) -> list[ClassifyRequest]:
        """Enqueue a whole batch under one lock acquisition.

        The wire-format amortization primitive: a batched ``/classify``
        body becomes one condvar round trip instead of ``len(tasks)``
        of them, and the admission gate prices the batch as a unit —
        evaluated against the queue depth its *last* member would join
        behind.  A shed decision rejects the whole batch (even under
        ``drop-oldest``: partially admitting a wire body would break
        its per-body 429 contract), raising one
        :class:`~repro.errors.OverloadedError` that accounts every
        task in the shed buckets.  Requests are queued in task order,
        so completions preserve the body's ordering guarantee.
        """

        if not tasks:
            return []
        requests = [ClassifyRequest(task) for task in tasks]
        with self._cond:
            if self._closed:
                with self.stats_lock:
                    self.rejected_total += len(requests)
                raise ServiceClosedError("batcher is stopped")
            if self.autotuner is not None:
                # Fold each arrival: a burst of n near-simultaneous
                # tasks is exactly what n back-to-back submits would
                # have shown the rate estimator.
                for _ in requests:
                    self.autotuner.observe_arrival()
                new_batch, new_wait = self.autotuner.update()
                if (self.telemetry is not None
                        and (new_batch != self.max_batch
                             or new_wait != self.max_wait_us)):
                    self.telemetry.events.append(
                        "autotune", batch_limit=new_batch,
                        wait_limit_us=new_wait,
                        prev_batch_limit=self.max_batch,
                        prev_wait_limit_us=self.max_wait_us)
                self.max_batch, self.max_wait_us = new_batch, new_wait
            if self.admission is not None:
                if (self.autotuner is None
                        or self.admission.arrivals
                        is not self.autotuner.arrivals):
                    for _ in requests:
                        self.admission.note_arrival()
                retry_after = self.admission.evaluate(
                    len(self._queue) + len(requests) - 1, self.max_wait_us,
                    batch_limit=self.max_batch, workers=self.n_workers)
                if retry_after is not None:
                    self._note_shed("rejected", retry_after,
                                    len(self._queue))
                    with self.stats_lock:
                        self.shed_rejected_total += len(requests)
                        self.admission.shed_total += len(requests)
                    raise OverloadedError(
                        f"cell overloaded: a batch of {len(requests)} "
                        f"would exceed the latency budget at queue depth "
                        f"{len(self._queue)}; retry in {retry_after:.3f}s",
                        retry_after_s=retry_after, reason="rejected")
            self._queue.extend(requests)
            with self.stats_lock:
                self.requests_total += len(requests)
                if self.admission is not None:
                    self.admission.admitted_total += len(requests)
                if self._shed_episode:
                    # A whole-batch admit is a clean admit: the shed
                    # episode (if any) ends here, as in submit().
                    self._shed_episode = False
                    if self.telemetry is not None:
                        self.telemetry.events.append(
                            "shed_cleared", pending=len(self._queue))
            if len(requests) > 1 and self.n_workers > 1:
                self._cond.notify_all()
            else:
                self._cond.notify()
        if self.telemetry is not None:
            now_ns = time.perf_counter_ns()
            self.telemetry.ingress.observe_many(
                "submit",
                [(now_ns - r.enqueued_ns) / 1e3 for r in requests])
        return requests

    def cancel(self, request: ClassifyRequest) -> bool:
        """Withdraw a still-queued request whose client stopped waiting.

        Returns ``True`` when the request was still queued: it is
        removed, failed with :class:`~repro.errors.ServiceError` (any
        residual waiter wakes immediately), and counted in
        ``cancelled_total`` — so a ``/classify`` timeout cannot leave a
        zombie in the queue whose later completion no client receives.
        Returns ``False`` when a worker already took it (its batch is
        in flight; it will complete normally moments later).
        """

        with self._cond:
            try:
                self._queue.remove(request)
            except ValueError:
                return False
            with self.stats_lock:
                self.cancelled_total += 1
        request._fail(ServiceError(
            "request cancelled: client stopped waiting"))
        return True

    def _note_shed(self, reason: str, retry_after_s: float,
                   pending: int) -> None:
        """Log the opening of a shed episode (edge-triggered).

        ``pending`` is the caller's view of the queue depth: submit()
        reads it under ``_cond``, the dequeue-side expiry path passes
        the advisory :attr:`pending` snapshot — this helper itself
        never touches ``_queue`` (it is called both with and without
        ``_cond``, so reading it here raced on the lock-free path).
        Takes ``stats_lock`` for the episode flag (lock order
        ``_cond`` → ``stats_lock``, as everywhere).
        """

        if self.telemetry is None:
            return
        with self.stats_lock:
            if self._shed_episode:
                return
            self._shed_episode = True
        policy = self.admission.policy if self.admission else "reject"
        self.telemetry.events.append(
            "shed_activated", reason=reason, policy=policy,
            pending=pending,
            retry_after_s=round(retry_after_s, 6))

    @property
    def pending(self) -> int:
        return len(self._queue)  # unguarded-ok: advisory depth for monitoring; len() is atomic under the GIL

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """One consistent copy of every counter (single lock hold)."""

        with self.stats_lock:
            return {
                "requests": self.requests_total,
                "completed": self.completed_total,
                "rejected": self.rejected_total,
                "cancelled": self.cancelled_total,
                "failed": self.failed_total,
                "shed_rejected": self.shed_rejected_total,
                "shed_evicted": self.shed_evicted_total,
                "shed_expired": self.shed_expired_total,
                # unguarded-ok: tuner-owned knobs; a stale limit in a stats copy is benign
                "batch_limit": self.max_batch,
                "wait_limit_us": self.max_wait_us,
                "batches": self.batches_total,
                "compiled_batches": self.compiled_batches_total,
                "largest_batch": self.largest_batch,
                "canary_served": self.canary_served_total,
                "versions_served": dict(self.versions_served),
                "shard_completed": tuple(self.shard_completed),
                "shard_batches": tuple(self.shard_batches),
            }

    def wedged_shards(self, timeout_s: float) -> tuple[int, ...]:
        """Shards stuck processing a single batch for ≥ ``timeout_s``.

        The supervisor's wedge probe: idle shards report 0.0 heartbeats
        and never match, so only a worker genuinely wedged inside model
        code (or an encoder) trips it.
        """

        now = time.monotonic()
        return tuple(
            shard for shard, since
            in enumerate(self._shard_busy_since)  # unguarded-ok: advisory read of owner-written heartbeat slots
            if since and now - since >= timeout_s)

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker(self, shard: int) -> None:
        encoder = self._encoders[shard]
        # End of this shard's previous batch; None right after an idle
        # wait.  Back-to-back batches report their full cycle (queue
        # re-acquisition and scheduler contention count against drain
        # capacity); the first batch after idle reports processing only,
        # so idle time never deflates the estimate.
        prev_end: float | None = None
        while True:
            with self._cond:
                # Re-read per wakeup: the autotuner retargets both
                # knobs while workers run.
                max_wait_ns = self.max_wait_us * 1_000
                # Idle: wait untimed — submit() and stop() both notify,
                # so a timed poll would only burn CPU (20 wakeups/s per
                # shard at the old 50 ms tick).
                while not self._queue and not self._closing:
                    prev_end = None
                    self._cond.wait()
                if not self._queue and self._closing:
                    return
                # The batching window opens when the oldest request
                # arrived: fill up to max_batch or until its deadline.
                # Recomputed per wakeup — another shard may have taken
                # the previous head, and holding its stale (possibly
                # expired) deadline would close the new head's window
                # early, shrinking batches.
                while (len(self._queue) < self.max_batch
                       and not self._closing):
                    deadline = self._queue[0].enqueued_ns + max_wait_ns
                    remaining = deadline - time.perf_counter_ns()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining / 1e9)
                    if not self._queue:
                        break  # another shard drained the window
                if not self._queue:
                    continue
                take = min(self.max_batch, len(self._queue))
                batch = [self._queue.popleft() for _ in range(take)]
            batch = self._cull_expired(batch)
            if not batch:
                continue
            taken = time.perf_counter()
            self._shard_busy_since[shard] = time.monotonic()  # unguarded-ok: owner-shard slot write (wedge heartbeat)
            try:
                ok = self._process(batch, shard, encoder)
            finally:
                self._shard_busy_since[shard] = 0.0  # unguarded-ok: owner-shard slot write (wedge heartbeat)
            end = time.perf_counter()
            if ok and self.admission is not None:
                # Only successful batches inform the drain estimate — a
                # fast-failing batch would inflate it and over-admit.
                start = taken if prev_end is None else prev_end
                self.admission.note_batch(len(batch), end - start)
            prev_end = end

    def _cull_expired(self, batch: list[ClassifyRequest]
                      ) -> list[ClassifyRequest]:
        """Shed dequeued requests that already outlived the budget.

        The admission gate projects from EWMA estimates; when the drain
        rate collapses after requests were admitted, serving them would
        deliver answers that blew the budget anyway *and* steal capacity
        from requests that can still make it.  Requests older than the
        controller's expiry cutoff fail with
        :class:`~repro.errors.OverloadedError`; fresh ones are served.
        """

        if self.admission is None:
            return batch
        expiry_ns = self.admission.expiry_ns
        if expiry_ns is None:
            return batch
        now_ns = time.perf_counter_ns()
        fresh = [r for r in batch if now_ns - r.enqueued_ns <= expiry_ns]
        expired = len(batch) - len(fresh)
        if expired:
            budget_s = self.admission.latency_budget_ms / 1e3
            for request in batch:
                if now_ns - request.enqueued_ns > expiry_ns:
                    request._fail(OverloadedError(
                        "shed at dequeue: request outlived the cell's "
                        "latency budget while queued",
                        retry_after_s=budget_s, reason="expired",
                        cell=request.cell))
            with self.stats_lock:
                self.shed_expired_total += expired
                self.admission.shed_total += expired
            self._note_shed("expired", budget_s, self.pending)
        return fresh

    def _process(self, batch: list[ClassifyRequest], shard: int,
                 encoder: COVVEncoder) -> bool:
        # Stage timing goes to this shard's private histograms — only
        # the snapshot reader ever contends with the owning worker.
        timings = (self.telemetry.shard(shard)
                   if self.telemetry is not None else None)
        taken_ns = time.perf_counter_ns()
        if timings is not None:
            timings.observe_many(
                "queue_wait",
                [(taken_ns - r.enqueued_ns) / 1e3 for r in batch])
        # A worker must survive any per-batch failure: an escaped
        # exception would kill the thread while submit() keeps
        # accepting requests that could then never complete.
        rollout = self.rollout
        canary = None
        try:
            snapshot = self.handle.snapshot()
            # One route read per batch: the frozen CandidateRoute keeps
            # the split decision and the reported canary version
            # consistent even across a concurrent promote/demote.
            route = (self.handle.candidate_route()
                     if rollout is not None else None)
            with self.registry_lock:
                X = encoder.encode_rows([r.task for r in batch])
            assembled_ns = time.perf_counter_ns()
            plan = snapshot.plan
            if plan is not None:
                # Fast path: CSR straight into the fused plan.  The
                # scratch is rebuilt when the plan changed — comparing
                # plan identity (not version) also covers a rebuilt
                # handle — so a worker can never pair a stale plan's
                # buffers with a newer model.
                scratch = self._scratches[shard]
                if scratch is None or scratch.plan is not plan:
                    scratch = plan.scratch(
                        max(len(batch),
                            self.max_batch))  # unguarded-ok: stale batch limit only sizes the scratch
                    self._scratches[shard] = scratch
                groups = plan.predict(X, scratch)
            else:
                rows = snapshot.align(X.toarray())
                groups = snapshot.predict(rows)
            if route is not None:
                canary = self._serve_canary(batch, X, route, groups,
                                            shard, plan)
        except Exception as exc:  # noqa: BLE001 — isolate the batch
            logger.exception("classification batch of %d failed",
                             len(batch))
            for request in batch:
                request._fail(exc)
            with self.stats_lock:
                self.batches_total += 1
                self.shard_batches[shard] += 1
                self.failed_total += len(batch)
            return False
        now = time.perf_counter_ns()
        versions = [snapshot.version] * len(batch)
        if canary is not None:
            # Merge the candidate's answers over the canary slice; each
            # canary request completes with the candidate's version, so
            # the misroute/version audit reports who really served it.
            idx, cand_groups, cand_version = \
                canary.idx, canary.groups, canary.version
            groups = np.array(groups)
            for k, i in enumerate(idx):
                groups[i] = cand_groups[k]
                versions[i] = cand_version
        n_canary = 0 if canary is None else len(canary.idx)
        # Counters land before any waiter is released: a caller whose
        # classify() just returned must already see itself in
        # completed_total (stats() right after a blocking classify).
        with self.stats_lock:
            self.batches_total += 1
            if plan is not None:
                self.compiled_batches_total += 1
            self.completed_total += len(batch)
            self.largest_batch = max(self.largest_batch, len(batch))
            self.shard_batches[shard] += 1
            self.shard_completed[shard] += len(batch)
            if len(batch) > n_canary:
                self.versions_served[snapshot.version] = \
                    self.versions_served.get(snapshot.version, 0) \
                    + len(batch) - n_canary
            if n_canary:
                self.canary_served_total += n_canary
                self.versions_served[canary.version] = \
                    self.versions_served.get(canary.version, 0) + n_canary
        if timings is not None:
            # Timings land before waiters too: a stage_snapshots() right
            # after a blocking classify() must include that request.
            timings.observe("assembly", (assembled_ns - taken_ns) / 1e3)
            timings.observe("inference", (now - assembled_ns) / 1e3)
            timings.observe_many(
                "total", [(now - r.enqueued_ns) / 1e3 for r in batch])
        for request, group, version in zip(batch, groups, versions):
            request._complete(int(group), version, now)
        # Rollout bookkeeping runs after the waiters are released — the
        # once-per-window promote/rollback decision must not sit on the
        # response path.  Isolated like the batch itself: a controller
        # bug must not kill the worker.
        if rollout is not None:
            try:
                rollout.ring.extend([r.task for r in batch])
                if canary is not None:
                    rollout.note_canary(
                        canary.version, n_canary, canary.agree,
                        canary.cand_conf, canary.inc_conf, canary.conf_n)
            except Exception:  # noqa: BLE001 — isolate the controller
                logger.exception("rollout bookkeeping failed")
        return True

    def _serve_canary(self, batch: list[ClassifyRequest], X,
                      route, inc_groups, shard: int,
                      inc_plan) -> "_CanaryResult | None":
        """Serve the canary slice of one batch with the staged candidate.

        Returns ``None`` when the hash split routed no row to the
        candidate.  The incumbent has already scored the *whole* batch
        (including the canary rows), so candidate/incumbent agreement —
        the live error-rate proxy — comes for free; when both sides run
        compiled plans the max-probability confidences are compared on
        the same rows too.
        """

        idx = [i for i, r in enumerate(batch) if route.takes(r.task)]
        if not idx:
            return None
        candidate = route.snapshot
        Xc = X[idx]
        cand_plan = candidate.plan
        cand_conf = inc_conf = 0.0
        conf_n = 0
        if cand_plan is not None:
            scratch = self._cand_scratches[shard]
            if scratch is None or scratch.plan is not cand_plan:
                scratch = cand_plan.scratch(
                    max(len(idx),
                        self.max_batch))  # unguarded-ok: stale batch limit only sizes the scratch
                self._cand_scratches[shard] = scratch
            proba_c = cand_plan.predict_proba(Xc, scratch)
            # argmax after in-place softmax is safe: softmax is
            # monotone per row, so the argmax is the logits' argmax.
            cand_groups = proba_c.argmax(axis=1)
            if inc_plan is not None:
                # Re-score just the canary rows with the incumbent for
                # same-row confidences; its shard scratch already
                # served the full batch and is free for reuse.
                proba_i = inc_plan.predict_proba(
                    Xc, self._scratches[shard])
                cand_conf = float(proba_c.max(axis=1).sum())
                inc_conf = float(proba_i.max(axis=1).sum())
                conf_n = len(idx)
        else:
            rows = candidate.align(Xc.toarray())
            cand_groups = np.asarray(candidate.predict(rows))
        agree = int(np.sum(cand_groups == np.asarray(inc_groups)[idx]))
        return _CanaryResult(idx=idx, groups=cand_groups,
                             version=candidate.version, agree=agree,
                             cand_conf=cand_conf, inc_conf=inc_conf,
                             conf_n=conf_n)
