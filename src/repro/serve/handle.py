"""Double-buffered model publication for the serving path.

The real-world half of the paper's Figure 3 promise — "updating ML model
runs in parallel and won't block or slow down the main cluster
scheduler" — is a publication point: the serving thread keeps reading the
*old* model until a background trainer atomically swaps in a new one.

:class:`ModelHandle` is that point.  Publication clones the incoming
model through the checkpoint codec (:mod:`repro.nn.serialize`), so the
trainer retains its own live copy and the served weights can never be
mutated mid-prediction; readers take an immutable :class:`ModelSnapshot`
and use it for a whole microbatch, which is what makes hot-swaps
atomic at batch granularity (no request is classified half by one model
version and half by another).

Publication also *compiles*: models exposing ``compile()`` (a
:class:`~repro.core.GrowingModel`) are exported to a fused
:class:`~repro.core.InferencePlan` stamped with the snapshot's version,
and the frozen snapshot carries the ``(model, plan)`` pair — swapping
the model and its compiled form is a single atomic publication, so a
worker can never pair a stale plan with a newer model.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from ..analysis.concur.runtime import new_lock
from ..core.inference_plan import InferencePlan
from ..errors import NotServingError

__all__ = ["ModelSnapshot", "CandidateRoute", "ModelHandle"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class ModelSnapshot:
    """One published, immutable model version.

    ``model`` is anything with ``predict(X) -> labels`` (a
    :class:`~repro.core.GrowingModel` in production; test doubles are
    fine, mirroring :class:`~repro.sim.TaskCOAnalyzer`'s duck typing).
    ``plan`` is the model's fused inference plan when it could be
    compiled (``plan.model_version == version`` always holds), else
    ``None`` and serving stays on the eager path.
    """

    version: int
    model: object
    features_count: int
    published_at: float  # time.monotonic()
    plan: InferencePlan | None = None
    published_unix: float = 0.0  # time.time() — for absolute freshness

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict(X)

    def align(self, X: np.ndarray) -> np.ndarray:
        """Pad/slice a row block to this snapshot's input width.

        Rows encoded against a *newer* registry state are a superset of
        this model's columns (append-only growth), so slicing off the
        tail is exactly "ignore vocabulary this version never saw";
        older rows are right-padded with zeros (entirely-acceptable
        columns in the reversed CO-VV notation).
        """

        width = X.shape[1]
        if width < self.features_count:
            return np.pad(X, ((0, 0), (0, self.features_count - width)))
        if width > self.features_count:
            return X[:, :self.features_count]
        return X


@dataclass(frozen=True, slots=True)
class CandidateRoute:
    """A staged (not yet promoted) model version plus its traffic split.

    ``takes`` decides per request which side of the canary serves it,
    using the task's cached content hash — deterministic within the
    process, so the same task always routes to the same side and the
    misroute audit stays exact (every response reports the version that
    really served it, incumbent or candidate).  The split is resolved
    at 1/10000 granularity.
    """

    snapshot: ModelSnapshot
    fraction: float

    def takes(self, task: object) -> bool:
        return (hash(task) & 0x7FFFFFFF) % 10_000 < int(
            round(self.fraction * 10_000))


class ModelHandle:
    """Thread-safe double-buffered model slot.

    Writers call :meth:`publish` (rare); readers call :meth:`snapshot`
    (hot path — a single attribute read, no lock).  The most recent
    ``retain_history`` published versions are kept so audits can re-run
    a request against the exact model that served it; older snapshots
    are evicted (a continuously-retraining service would otherwise leak
    one weight copy per publication).  ``retain_history=None`` keeps
    everything.

    Every publication also exports the model's fused
    :class:`~repro.core.InferencePlan` when the model supports it
    (duck-typed on a ``compile(model_version=...)`` method); plan-less
    models publish with ``plan=None`` and serve on the eager path.
    """

    def __init__(self, model: object | None = None,
                 features_count: int | None = None,
                 retain_history: int | None = 32,
                 telemetry=None,
                 base_version: int = 0):
        if retain_history is not None and retain_history < 1:
            raise ValueError("retain_history must be >= 1 (or None)")
        if base_version < 0:
            raise ValueError("base_version must be >= 0")
        self._lock = new_lock("ModelHandle._lock")
        self._active: ModelSnapshot | None = None  # guarded-by: _lock
        # base_version seeds the version counter for warm restarts: the
        # next publication gets base_version + 1, and the pre-restart
        # versions count as evicted (their snapshots are not in memory),
        # keeping snapshot_for()'s history indexing and the monotone
        # version contract exact across process restarts.
        self._history: list[ModelSnapshot] = []  # guarded-by: _lock
        self._published = base_version  # guarded-by: _lock
        self._evicted = base_version  # guarded-by: _lock
        self._candidate: CandidateRoute | None = None  # guarded-by: _lock
        self._base_version = base_version
        self.retain_history = retain_history
        #: Optional post-publication hook (``hook(snapshot)``), invoked
        #: outside the lock after every publish/promote — the durability
        #: layer's async-checkpoint trigger.  Exceptions are logged,
        #: never propagated into the publishing thread.
        self.on_publish = None
        #: Optional :class:`~repro.serve.telemetry.Telemetry`: each
        #: publication records a ``publish`` stage timing and a
        #: structural hot-swap event (with the staleness window the new
        #: version closed).
        self.telemetry = telemetry
        if model is not None:
            self.publish(model, features_count=features_count, clone=False)

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    def publish(self, model: object, features_count: int | None = None,
                clone: bool = True) -> ModelSnapshot:
        """Atomically swap the served model; returns the new snapshot.

        With ``clone=True`` (the default) the model is copied via its
        ``clone()`` method — a checkpoint round-trip for
        :class:`~repro.core.GrowingModel` — so the caller keeps a
        private, still-trainable instance.  ``features_count`` defaults
        to the model's own ``features_count`` attribute.  The plan (if
        any) is stamped with the new snapshot's version under the
        publication lock, so ``(model, plan)`` always swap as one.
        """

        start_ns = time.perf_counter_ns()
        model, features_count = self._prepare(model, features_count, clone)
        with self._lock:
            snapshot = self._record(model, features_count)
            previous = self._active
            self._active = snapshot
            # A direct publish supersedes any in-flight canary: the new
            # active model invalidates the comparisons the candidate was
            # being judged on, so the experiment is abandoned (its
            # snapshot stays in history for audits).
            self._candidate = None
        telemetry = self.telemetry
        if telemetry is not None:
            publish_us = (time.perf_counter_ns() - start_ns) / 1e3
            staleness_closed_s = (
                snapshot.published_at - previous.published_at
                if previous is not None else 0.0)
            telemetry.observe("publish", publish_us)
            telemetry.events.append(
                "publish", version=snapshot.version,
                staleness_closed_s=round(staleness_closed_s, 6),
                compiled=snapshot.plan is not None,
                publish_us=round(publish_us, 3))
        self._notify_publish(snapshot)
        return snapshot

    def stage(self, model: object, fraction: float,
              features_count: int | None = None,
              clone: bool = True) -> ModelSnapshot:
        """Stage a candidate next to the incumbent for canary traffic.

        The candidate gets a real (monotone) version number and is
        retained in history immediately — requests it serves report
        that version, and audits can replay them against it even if the
        candidate is later demoted — but ``_active`` is untouched: the
        incumbent keeps serving ``1 - fraction`` of traffic until
        :meth:`promote` or :meth:`demote` resolves the pair.  Staging
        over an existing candidate replaces it.
        """

        if not 0.0 < fraction <= 1.0:
            raise ValueError("canary fraction must be in (0, 1]")
        model, features_count = self._prepare(model, features_count, clone)
        with self._lock:
            snapshot = self._record(model, features_count)
            self._candidate = CandidateRoute(snapshot, float(fraction))
        return snapshot

    @staticmethod
    def _prepare(model: object, features_count: int | None,
                 clone: bool) -> tuple[object, int]:
        """The private copy to serve and its input width."""

        if clone:
            cloner = getattr(model, "clone", None)
            if cloner is None:
                raise TypeError(
                    f"{type(model).__name__} has no clone(); pass "
                    f"clone=False if sharing the instance is intended")
            model = cloner()
        if features_count is None:
            features_count = getattr(model, "features_count", None)
        if features_count is None:
            raise ValueError("features_count required for models that do "
                             "not expose one (is the model trained?)")
        return model, int(features_count)

    def _record(self, model: object, features_count: int) -> ModelSnapshot:
        # requires-lock: _lock
        """Number, compile and retain one new version."""

        self._published += 1
        plan = None
        compiler = getattr(model, "compile", None)
        if compiler is not None:
            try:
                plan = compiler(model_version=self._published)
            except Exception:  # noqa: BLE001 — eager fallback
                # An uncompilable model (unsupported module, or a
                # duck-typed double whose unrelated compile() chokes on
                # our signature) must not fail the publication — and
                # must never kill a background trainer's publish — it
                # just serves eagerly.
                logger.warning(
                    "could not compile %s for v%d; serving eagerly",
                    type(model).__name__, self._published, exc_info=True)
        snapshot = ModelSnapshot(
            version=self._published, model=model,
            features_count=features_count,
            published_at=time.monotonic(), plan=plan,
            published_unix=time.time())
        self._history.append(snapshot)
        if self.retain_history is not None:
            while len(self._history) > self.retain_history:
                self._history.pop(0)
                self._evicted += 1
        return snapshot

    def promote(self) -> ModelSnapshot:
        """Make the staged candidate the active model atomically.

        Raises :class:`RuntimeError` when no candidate is staged (e.g.
        a concurrent :meth:`demote` or :meth:`publish` resolved the
        pair first).  Emits the same ``publish`` telemetry event a
        direct swap would, flagged ``promoted``.
        """

        start_ns = time.perf_counter_ns()
        with self._lock:
            candidate = self._candidate
            if candidate is None:
                raise RuntimeError("no staged candidate to promote")
            previous = self._active
            self._active = candidate.snapshot
            self._candidate = None
        snapshot = candidate.snapshot
        telemetry = self.telemetry
        if telemetry is not None:
            publish_us = (time.perf_counter_ns() - start_ns) / 1e3
            staleness_closed_s = (
                time.monotonic() - previous.published_at
                if previous is not None else 0.0)
            telemetry.observe("publish", publish_us)
            telemetry.events.append(
                "publish", version=snapshot.version,
                staleness_closed_s=round(staleness_closed_s, 6),
                compiled=snapshot.plan is not None,
                publish_us=round(publish_us, 3), promoted=True)
        self._notify_publish(snapshot)
        return snapshot

    def _notify_publish(self, snapshot: ModelSnapshot) -> None:
        hook = self.on_publish  # unguarded-ok: atomic reference read; set once at service wiring time
        if hook is None:
            return
        try:
            hook(snapshot)
        except Exception:  # noqa: BLE001 — the hook must never break publish
            logger.exception("on_publish hook failed for v%d",
                             snapshot.version)

    def demote(self) -> ModelSnapshot | None:
        """Drop the staged candidate; the incumbent was never displaced.

        Returns the demoted snapshot (still retained in history so
        audits of the requests it served keep working), or ``None``
        when no candidate was staged.
        """

        with self._lock:
            candidate = self._candidate
            self._candidate = None
        return None if candidate is None else candidate.snapshot

    # ------------------------------------------------------------------
    # reader side (hot path)
    # ------------------------------------------------------------------
    def snapshot(self) -> ModelSnapshot:
        """The currently-served version (lock-free attribute read)."""

        active = self._active  # unguarded-ok: hot path; a reference read is atomic and the snapshot is immutable
        if active is None:
            raise NotServingError("no model has been published")
        return active

    def candidate_route(self) -> CandidateRoute | None:
        """The staged candidate's route, or ``None`` (lock-free read).

        Batcher workers read this once per batch; the returned route is
        frozen, so the split decision and the version reported for
        canary-served requests are consistent even across a concurrent
        promote/demote.
        """

        return self._candidate  # unguarded-ok: hot path; atomic reference read of a frozen route

    @property
    def candidate_version(self) -> int:
        """Version of the staged candidate (0 when none)."""

        candidate = self._candidate  # unguarded-ok: atomic reference read; version is frozen on the snapshot
        return 0 if candidate is None else candidate.snapshot.version

    @property
    def serving(self) -> bool:
        return self._active is not None  # unguarded-ok: atomic reference read for health probes

    @property
    def version(self) -> int:
        """Version of the active snapshot (0 before first publish)."""

        active = self._active  # unguarded-ok: atomic reference read; version is frozen on the snapshot
        return 0 if active is None else active.version

    @property
    def base_version(self) -> int:
        """Version floor inherited from a warm restart (0 on a cold boot)."""

        return self._base_version

    @property
    def swap_count(self) -> int:
        """Hot-swaps after the initial publication (of this process)."""

        return max(0, self._published - 1 - self._base_version)  # unguarded-ok: monotonic int read for stats; staleness is benign

    @property
    def history(self) -> tuple[ModelSnapshot, ...]:
        """The retained (most recent) snapshots, oldest first."""

        with self._lock:
            return tuple(self._history)

    def snapshot_for(self, version: int) -> ModelSnapshot:
        """Look up a retained past version (1-based) for audit."""

        with self._lock:
            if not 1 <= version <= self._published:
                raise KeyError(f"no published version {version}")
            if version <= self._evicted:
                raise KeyError(
                    f"version {version} was evicted (retain_history="
                    f"{self.retain_history})")
            return self._history[version - 1 - self._evicted]
