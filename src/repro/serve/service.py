"""The online classification service: Figure 3's Task CO Analyzer, live.

:class:`ClassificationService` composes the serving stack:

* a :class:`~repro.serve.ModelHandle` holding the published model
  (double-buffered hot-swap),
* a :class:`~repro.serve.MicroBatcher` absorbing arrivals and
  classifying them in vectorized microbatches,
* an optional :class:`~repro.serve.BackgroundTrainer` that retrains and
  republishes as new constraint vocabulary arrives — the paper's
  parallel model-update path, on a real thread.

A scheduler integration calls :meth:`submit` per arriving constrained
task (non-blocking; the returned request completes within the microbatch
window) and :meth:`observe` once the task's true suitable-node count is
known, closing the training loop.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager
from dataclasses import dataclass

import numpy as np

from ..analysis.concur.runtime import new_lock
from ..constraints.compaction import CompactedTask
from ..core.growing import GrowingModel
from ..datasets.co_vv import COVVEncoder
from ..datasets.registry import FeatureRegistry
from ..errors import OverloadedError, ServiceError
from ..sim.online import RetrainPolicy
from .admission import SHED_POLICIES, AdmissionController, AutoTuner
from .handle import ModelHandle, ModelSnapshot
from .metrics import ServiceStats
from .microbatch import ClassifyRequest, MicroBatcher
from .persistence import AsyncCheckpointer, CellCheckpoint, CheckpointStore
from .rollout import RolloutController, RolloutPolicy
from .supervise import CircuitBreaker, Supervisor
from .telemetry import Telemetry
from .trainer import BackgroundTrainer

__all__ = ["CellConfig", "ClassificationService"]

#: Checkpoints kept on disk per cell (older ones are pruned).
CHECKPOINT_RETAIN = 5
#: Rollout replay-ring tail (tasks and labelled pairs) bundled into each
#: checkpoint, so a warm restart can shadow-score its next candidate.
CHECKPOINT_REPLAY_TAIL = 1024


@dataclass(frozen=True, slots=True)
class CellConfig:
    """Every setting of one cell's serving stack, in one frozen value.

    A :class:`ClassificationService` takes one; a
    :class:`~repro.serve.CellRouter` holds a router-wide one and gives
    it to every cell, and a per-cell override is written
    ``dataclasses.replace(router.config, max_queue=8)``.

    max_batch / max_wait_us:
        Microbatching: classify as soon as ``max_batch`` requests are
        queued, or when the oldest has waited ``max_wait_us``.
    n_workers:
        Batcher worker shards draining the shared request queue (each
        with a private encoder; see :class:`~repro.serve.MicroBatcher`).
    latency_budget_ms / max_queue / shed_policy:
        Admission control: when a budget or hard queue cap is set,
        arrivals that would blow it are shed with
        :class:`~repro.errors.OverloadedError` (``shed_policy="reject"``)
        or admitted by evicting the oldest queued request
        (``"drop-oldest"``).  Both ``None`` (default) admits everything.
    autotune:
        Continuously re-fit the microbatch size / wait to the observed
        arrival rate; ``max_batch`` / ``max_wait_us`` then act as the
        tuner's caps rather than fixed settings.
    rollout:
        A :class:`~repro.serve.RolloutPolicy` turns on the staged
        rollout control plane: the trainer's retrained candidates are
        shadow-scored on a replay ring of recent live traffic, then
        canaried on a hash-split fraction of requests, and promoted or
        auto-rolled-back on the policy's regression gates.  ``None``
        (default) keeps publication a direct swap.
    supervise:
        Start a :class:`~repro.serve.Supervisor` watchdog
        (wedged-worker detection, trainer restart with backoff,
        crash-loop suspension into degraded mode) wired to a
        :class:`~repro.serve.CircuitBreaker`.
    """

    max_batch: int = 64
    max_wait_us: int = 500
    n_workers: int = 1
    latency_budget_ms: float | None = None
    max_queue: int | None = None
    shed_policy: str = "reject"
    autotune: bool = False
    rollout: RolloutPolicy | None = None
    supervise: bool = False

    def __post_init__(self) -> None:
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(f"shed_policy must be one of {SHED_POLICIES}")
        if (self.shed_policy != "reject" and self.latency_budget_ms is None
                and self.max_queue is None):
            raise ValueError(
                f"shed_policy={self.shed_policy!r} needs a latency budget "
                f"or queue cap to act on — without one it would silently "
                f"never shed")


class ClassificationService(AbstractContextManager):
    """Serve group predictions for arriving constrained tasks.

    Parameters
    ----------
    model:
        The initially-deployed model (anything with ``predict``;
        a trained :class:`~repro.core.GrowingModel` in production).
        Models that compile to an :class:`~repro.core.InferencePlan`
        serve through it; plan-less models serve on the eager
        ``align`` + ``predict`` path.
    registry:
        The CO-VV feature registry the model was trained against; grows
        in place as :meth:`observe` sees new vocabulary.
    config:
        The cell's :class:`CellConfig` (batching, workers, admission,
        autotuning, staged rollout, supervision).
    trainer:
        ``True`` (default) starts the background retrainer with
        ``policy``; ``False`` serves the initial model forever (hot-swap
        still possible via :meth:`publish`).  Retrains resume the
        previous cycle's Adam state.
    state_dir:
        Turns on the durability plane: the newest valid checkpoint
        under it is warm-restored at construction (the cell serves
        immediately at its restored model version — version numbers
        stay monotone across restarts), every publish schedules an
        off-path checkpoint via :class:`~repro.serve.persistence.
        AsyncCheckpointer`, and :meth:`close` flushes a final one.
    breaker:
        An explicit :class:`~repro.serve.CircuitBreaker` gates
        :meth:`submit` on error rate; with ``config.supervise`` and no
        breaker, one is created with defaults.
    """

    def __init__(self, model: object, registry: FeatureRegistry,
                 config: CellConfig = CellConfig(), *,
                 trainer: bool = True, policy: RetrainPolicy | None = None,
                 features_count: int | None = None,
                 state_dir: str | None = None,
                 breaker: CircuitBreaker | None = None,
                 rng: np.random.Generator | None = None):
        self.config = config
        self.registry = registry
        # Durable-state plane: restore the newest valid checkpoint (if
        # any) *before* the handle exists, so the initial publication
        # below lands exactly at the restored version and the caller's
        # cold model is superseded by the trained one from disk.
        self.store: CheckpointStore | None = None
        self.checkpointer: AsyncCheckpointer | None = None
        self._restored_version = 0
        restored = None
        if state_dir is not None:
            self.store = CheckpointStore(state_dir, retain=CHECKPOINT_RETAIN)
            restored = self.store.load_latest()
        if restored is not None and restored.model_bytes is not None:
            registry.restore(restored.registry_features)
            rebuilt = (GrowingModel(model.config, rng=model.rng)
                       if isinstance(model, GrowingModel)
                       else GrowingModel(rng=rng))
            rebuilt.restore_bytes(restored.model_bytes,
                                  features_count=restored.features_count)
            model = rebuilt
            features_count = restored.features_count
            self._restored_version = restored.version
        clone = isinstance(model, GrowingModel)
        # The telemetry plane exists before anything that reports into
        # it: the initial publication below is already event #1.
        self.telemetry = Telemetry(n_shards=config.n_workers)
        self.handle = ModelHandle(telemetry=self.telemetry,
                                  base_version=max(
                                      0, self._restored_version - 1))
        self.handle.publish(model, features_count=features_count,
                            clone=clone)
        # One lock serializes registry growth (observe path) against the
        # batcher's and trainer's encoders — see MicroBatcher's docstring.
        registry_lock = new_lock("ClassificationService.registry_lock")
        self.autotuner: AutoTuner | None = None
        if config.autotune:
            self.autotuner = AutoTuner(
                max_batch=config.max_batch,
                min_wait_us=min(50, config.max_wait_us),
                max_wait_us=config.max_wait_us)
        self.admission: AdmissionController | None = None
        if (config.latency_budget_ms is not None
                or config.max_queue is not None):
            # Share the tuner's arrival estimator when both watch the
            # same stream; the batcher then feeds only the tuner.
            self.admission = AdmissionController(
                latency_budget_ms=config.latency_budget_ms,
                policy=config.shed_policy, max_queue=config.max_queue,
                arrivals=(None if self.autotuner is None
                          else self.autotuner.arrivals))
        self.rollout: RolloutController | None = None
        if config.rollout is not None:
            self.rollout = RolloutController(self.handle, registry,
                                             registry_lock=registry_lock,
                                             policy=config.rollout,
                                             telemetry=self.telemetry)
        self.batcher = MicroBatcher(self.handle, registry,
                                    max_batch=config.max_batch,
                                    max_wait_us=config.max_wait_us,
                                    registry_lock=registry_lock,
                                    n_workers=config.n_workers,
                                    admission=self.admission,
                                    autotuner=self.autotuner,
                                    telemetry=self.telemetry,
                                    rollout=self.rollout)
        self.trainer: BackgroundTrainer | None = None
        if trainer:
            self.trainer = BackgroundTrainer(self.handle, registry,
                                             policy=policy,
                                             registry_lock=registry_lock,
                                             telemetry=self.telemetry,
                                             rollout=self.rollout,
                                             rng=rng)
        if restored is not None:
            # Warm-start continuity: the trainer resumes the restored
            # Adam moments and drift reference; the rollout replay ring
            # re-seeds from the checkpointed tail.
            if self.trainer is not None:
                self.trainer.restore_state(
                    optimizer_state=restored.optimizer_state,
                    ref_label_counts=restored.ref_label_counts)
            if self.rollout is not None:
                if restored.replay_tasks:
                    self.rollout.ring.extend(list(restored.replay_tasks))
                for replay_task, replay_label in restored.replay_labeled:
                    self.rollout.ring.observe(replay_task, replay_label)
        if self.store is not None:
            # The hook is set *after* the initial publication above, so
            # a warm restore does not immediately rewrite the identical
            # checkpoint it just read.
            self.checkpointer = AsyncCheckpointer(self.store,
                                                  self._collect_checkpoint,
                                                  telemetry=self.telemetry)
            self.handle.on_publish = self._on_publish
        # Self-healing plane: an explicit breaker gates submissions on
        # error rate; config.supervise adds the watchdog (and a default
        # breaker when none was given).
        self.breaker: CircuitBreaker | None = breaker
        self.supervisor: Supervisor | None = None
        if config.supervise:
            if self.breaker is None:
                self.breaker = CircuitBreaker(rng=rng,
                                              telemetry=self.telemetry)
            self.supervisor = Supervisor(self, breaker=self.breaker,
                                         rng=rng, telemetry=self.telemetry)
        # Lifecycle flags flip under their own lock so concurrent
        # start()/close() calls cannot interleave (a double close used
        # to re-stop the batcher mid-drain of the first close).
        self._state_lock = new_lock("ClassificationService._state_lock")
        self._started = False  # guarded-by: _state_lock
        self._closed = False  # guarded-by: _state_lock

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClassificationService":
        with self._state_lock:
            if self._closed:
                raise RuntimeError("service was closed and cannot restart; "
                                   "build a new one")
            if self._started:
                raise RuntimeError("service already started")
            self._started = True
        # Component startup happens outside the lock: it spawns threads,
        # and holding a state lock across thread management is exactly
        # the blocking-under-lock shape the linter exists to catch.
        if self.checkpointer is not None:
            self.checkpointer.start()
            if self._restored_version == 0:
                # Cold start over empty (or unreadable) history: make
                # the initial publication durable right away, so a hard
                # kill before the first retrain still restarts warm.
                # Warm restores skip this — the newest checkpoint on
                # disk is already the state being served.
                self.checkpointer.request()
        self.batcher.start()
        if self.trainer is not None:
            self.trainer.start()
        if self.supervisor is not None:
            self.supervisor.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop the stack; with ``drain`` every accepted request finishes.

        Idempotent: only the first close stops the components — a second
        call (an explicit close followed by ``with`` exit, say) returns
        without re-joining worker threads.
        """

        with self._state_lock:
            already_closed = self._closed
            self._started = False
            self._closed = True
        if already_closed:
            return
        # Stops join worker threads; never do that under _state_lock.
        # The supervisor goes first so it cannot restart the trainer
        # mid-shutdown; the final checkpoint is flushed last, after the
        # batcher drain, so it captures the end-of-life state.
        if self.supervisor is not None:
            self.supervisor.stop()
        if self.trainer is not None:
            self.trainer.stop()
        self.batcher.stop(drain=drain)
        if self.checkpointer is not None:
            # Stop the background writer first: a save of an older
            # version still in flight must not land after the final one.
            self.checkpointer.stop()
            self.checkpointer.flush()

    def __enter__(self) -> "ClassificationService":
        return self.start() if not self._started else self  # unguarded-ok: convenience check; start() re-checks under _state_lock

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # serving path
    # ------------------------------------------------------------------
    def submit(self, task: CompactedTask) -> ClassifyRequest:
        """Enqueue one task for classification (non-blocking).

        With admission control configured this may raise
        :class:`~repro.errors.OverloadedError` instead of queueing; with
        a circuit breaker configured, an open breaker fails fast with
        :class:`~repro.errors.CircuitOpenError` before the queue is
        even touched.
        """

        breaker = self.breaker
        if breaker is None:
            return self.batcher.submit(task)
        breaker.check()
        try:
            request = self.batcher.submit(task)
        except OverloadedError:
            # Backpressure is load, not sickness: shedding must not trip
            # the breaker (that would turn every burst into an outage).
            raise
        except ServiceError:
            breaker.record_failure()
            raise
        breaker.record_success()
        return request

    def submit_many(self, tasks: list[CompactedTask]
                    ) -> list[ClassifyRequest]:
        """Enqueue a whole batch of tasks in one batcher round trip.

        The backing primitive of the batched ``/classify`` wire format:
        one lock acquisition, one admission decision for the batch as a
        unit (a shed rejects the whole batch with
        :class:`~repro.errors.OverloadedError`), and requests returned
        in task order.  Breaker semantics match :meth:`submit` — the
        whole batch counts as one outcome.
        """

        breaker = self.breaker
        if breaker is None:
            return self.batcher.submit_many(tasks)
        breaker.check()
        try:
            requests = self.batcher.submit_many(tasks)
        except OverloadedError:
            raise
        except ServiceError:
            breaker.record_failure()
            raise
        breaker.record_success()
        return requests

    def audit_classify(self, task: CompactedTask, version: int) -> int:
        """Re-classify ``task`` under the exact retained ``version``.

        The wire-level misroute audit's backend: raises ``KeyError``
        when the version has been evicted from the audit history.  The
        registry lock is held only while the task's CO-VV cells are
        read out of the (possibly still-growing) registry; the dense
        row build and the model forward run outside it, so an audit
        sweep cannot stall the batcher shards' encodes.
        """

        snapshot = self.handle.snapshot_for(version)
        encoder = COVVEncoder(self.registry)
        with self.batcher.registry_lock:
            width, cols, vals = encoder.task_cells(task)
        row = np.zeros(width, dtype=np.float32)
        row[cols] = vals
        rows = snapshot.align(row.reshape(1, -1))
        return int(snapshot.predict(rows)[0])

    def classify(self, task: CompactedTask,
                 timeout: float | None = 5.0) -> ClassifyRequest:
        """Submit and block until classified; returns the completed request."""

        request = self.submit(task)
        if not request.wait(timeout):
            raise TimeoutError("classification did not complete in time")
        return request

    def observe(self, task: CompactedTask, group: int) -> None:
        """Feed one labelled observation to the training loop (no-op
        when the trainer is disabled)."""

        if self.trainer is not None:
            self.trainer.observe(task, group)

    def publish(self, model: object, features_count: int | None = None,
                clone: bool = True) -> ModelSnapshot:
        """Manually hot-swap the served model (e.g. an external trainer)."""

        return self.handle.publish(model, features_count=features_count,
                                   clone=clone)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _on_publish(self, snapshot: ModelSnapshot) -> None:
        """Publish hook: mark the durable state dirty (constant-time;
        the actual write happens on the checkpointer thread)."""

        checkpointer = self.checkpointer
        if checkpointer is not None:
            checkpointer.request()

    def _collect_checkpoint(self) -> CellCheckpoint | None:
        """Assemble one durable unit from the live cell state.

        Runs on the checkpointer thread (or the shutdown path's
        synchronous flush).  Only the registry snapshot is read under a
        lock — model bytes come from the immutable published snapshot,
        and the trainer/replay copies take their own locks internally.
        """

        handle = self.handle
        if not handle.serving:
            return None
        snapshot = handle.snapshot()
        state_bytes = getattr(snapshot.model, "state_bytes", None)
        if not callable(state_bytes):
            return None  # duck-typed model with no durable form
        model_bytes = state_bytes()
        with self.batcher.registry_lock:
            registry_features = self.registry.snapshot()
        optimizer_state, ref_label_counts = (
            self.trainer.checkpoint_state()
            if self.trainer is not None else (None, None))
        replay_tasks: tuple[CompactedTask, ...] = ()
        replay_labeled: tuple[tuple[CompactedTask, int], ...] = ()
        if self.rollout is not None:
            tail = CHECKPOINT_REPLAY_TAIL
            ring = self.rollout.ring
            replay_tasks = tuple(ring.sample()[-tail:])
            labeled_tasks, labels = ring.labeled()
            replay_labeled = tuple(
                (labeled_task, int(label))
                for labeled_task, label
                in zip(labeled_tasks, labels))[-tail:]
        return CellCheckpoint(
            version=snapshot.version,
            features_count=snapshot.features_count,
            model_bytes=model_bytes,
            registry_features=registry_features,
            optimizer_state=optimizer_state,
            ref_label_counts=ref_label_counts,
            replay_tasks=replay_tasks,
            replay_labeled=replay_labeled)

    @property
    def restored_version(self) -> int:
        """The model version warm-restored from ``state_dir`` at
        construction (0 on a cold start)."""

        return self._restored_version

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True between :meth:`start` and :meth:`close` — the window in
        which liveness checks (trainer thread, workers) are meaningful."""

        return self._started  # unguarded-ok: atomic bool read for health probes; staleness is benign

    @property
    def model_version(self) -> int:
        return self.handle.version

    def stats(self) -> ServiceStats:
        batcher = self.batcher
        trainer = self.trainer
        # counters() copies everything under the batcher's stats_lock —
        # reading the attributes directly would race the worker shards
        # (a versions_served copy mid-insert raises RuntimeError).
        counters = batcher.counters()
        serving = self.handle.serving
        snapshot = self.handle.snapshot() if serving else None
        staleness = (time.monotonic() - snapshot.published_at
                     if serving else 0.0)
        last_update = (trainer.updates[-1]
                       if trainer is not None and trainer.updates else None)
        rollout = (self.rollout.counters()
                   if self.rollout is not None else None)
        store = self.store
        checkpointer = self.checkpointer
        breaker = self.breaker
        supervisor = self.supervisor
        checkpoints = (0 if store is None
                       else store.written_total)  # unguarded-ok: advisory counter read for stats
        checkpoint_failures = 0
        if store is not None:
            checkpoint_failures += store.quarantined_total  # unguarded-ok: advisory counter read for stats
        if checkpointer is not None:
            checkpoint_failures += checkpointer.failures_total  # unguarded-ok: advisory counter read for stats
        breaker_trips = (0 if breaker is None
                         else breaker.trips_total)  # unguarded-ok: advisory counter read for stats
        breaker_rejected = (0 if breaker is None
                            else breaker.rejected_total)  # unguarded-ok: advisory counter read for stats
        supervisor_restarts = (0 if supervisor is None
                               else supervisor.restarts_total)  # unguarded-ok: advisory counter read for stats
        return ServiceStats(
            requests=counters["requests"],
            completed=counters["completed"],
            rejected=counters["rejected"],
            cancelled=counters["cancelled"],
            failed=counters["failed"],
            shed_rejected=counters["shed_rejected"],
            shed_evicted=counters["shed_evicted"],
            shed_expired=counters["shed_expired"],
            batch_limit=counters["batch_limit"],
            wait_limit_us=counters["wait_limit_us"],
            pending=batcher.pending,
            batches=counters["batches"],
            compiled_batches=counters["compiled_batches"],
            largest_batch=counters["largest_batch"],
            versions_served=counters["versions_served"],
            model_version=self.handle.version,
            swaps=self.handle.swap_count,
            trainer_updates=0 if trainer is None else len(trainer.updates),
            trainer_failures=0 if trainer is None else trainer.failed_updates,
            observations=0 if trainer is None else trainer.observations_total,
            workers=batcher.n_workers,
            shard_completed=counters["shard_completed"],
            model_staleness_s=staleness,
            has_published=serving,
            last_publish_unix=(snapshot.published_unix if serving else 0.0),
            last_train_seconds=(0.0 if last_update is None
                                else last_update.train_seconds),
            rollouts_staged=(0 if rollout is None
                             else rollout["rollouts_staged"]),
            rollouts_promoted=(0 if rollout is None
                               else rollout["rollouts_promoted"]),
            rollouts_rolled_back=(0 if rollout is None
                                  else rollout["rollouts_rolled_back"]),
            rollouts_shadow_rejected=(
                0 if rollout is None
                else rollout["rollouts_shadow_rejected"]),
            canary_served=counters["canary_served"],
            canary_fraction=(0.0 if rollout is None
                             else rollout["canary_fraction"]),
            candidate_version=(0 if rollout is None
                               else rollout["candidate_version"]),
            replay_window=(0 if rollout is None
                           else rollout["replay_window"]),
            drift=0.0 if trainer is None else trainer.drift(),
            trainer_consecutive_failures=(
                0 if trainer is None else trainer.consecutive_failures),
            checkpoints=checkpoints,
            checkpoint_failures=checkpoint_failures,
            restored_version=self._restored_version,
            breaker_state=(0 if breaker is None else breaker.state_code),
            breaker_trips=breaker_trips,
            breaker_rejected=breaker_rejected,
            supervisor_restarts=supervisor_restarts,
            degraded=(supervisor is not None and supervisor.degraded))
