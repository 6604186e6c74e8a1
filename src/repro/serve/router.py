"""Multi-cell routing: one serving stack per computing cell.

The paper evaluates four computing cells, each with its own constraint
vocabulary and task mix; related RL schedulers ("A HPC Co-Scheduler
with Reinforcement Learning", "Deep Reinforcement Agent for Scheduling
in HPC") likewise run per-queue / per-partition agents.
:class:`CellRouter` gives the Task CO Analyzer that shape: every cell
owns a full serving stack — a :class:`~repro.serve.ModelHandle`, a
(sharded) :class:`~repro.serve.MicroBatcher`, and an optional
:class:`~repro.serve.BackgroundTrainer` — behind one dispatch layer
that routes ``submit(cell_id, task)`` to the owning stack.

Isolation is the point: hot-swaps, registry growth, and retraining stay
per-cell, so one cell's model update can never misroute or stall
another cell's task stream.  Cells are registered with
:meth:`CellRouter.add_cell`, before :meth:`~CellRouter.start` or on a
live router.  Every cell serves with the router's
:class:`~repro.serve.CellConfig` unless it is given its own.
"""

from __future__ import annotations

import re
import zlib
from contextlib import AbstractContextManager
from pathlib import Path

import numpy as np

from ..analysis.concur.runtime import new_lock
from ..constraints.compaction import CompactedTask
from ..datasets.registry import FeatureRegistry
from ..errors import (CircuitOpenError, OverloadedError, ServiceClosedError,
                      UnknownCellError)
from ..sim.online import RetrainPolicy
from .handle import ModelSnapshot
from .metrics import RouterStats
from .microbatch import ClassifyRequest
from .service import CellConfig, ClassificationService

__all__ = ["CellRouter"]

_CELL_ID_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _sanitize_cell_id(cell_id: str) -> str:
    """A filesystem-safe per-cell subdirectory name.

    Collision-proof: when sanitization changes the id at all, a CRC of
    the original is appended, so ``a/b`` and ``a:b`` cannot share a
    checkpoint directory.
    """

    safe = _CELL_ID_UNSAFE.sub("_", cell_id).strip(".") or "cell"
    if safe != cell_id:
        safe = f"{safe}-{zlib.crc32(cell_id.encode('utf-8')):08x}"
    return safe


class CellRouter(AbstractContextManager):
    """Dispatch classifications across per-cell serving stacks.

    Parameters
    ----------
    config:
        The router-wide :class:`~repro.serve.CellConfig` every cell
        serves with unless :meth:`add_cell` is given its own — written
        ``dataclasses.replace(router.config, ...)``, so a small cell can
        run a tighter budget than a large one, or canary only where
        traffic is heavy enough to judge a window.  With
        ``supervise=True`` a sick cell fails fast with
        :class:`~repro.errors.CircuitOpenError` while its neighbours
        keep serving.
    state_dir:
        Durability root: every cell checkpoints into (and
        warm-restores from) its own subdirectory
        ``<state_dir>/<sanitized cell id>``, so cells never share
        checkpoint files.
    """

    def __init__(self, config: CellConfig = CellConfig(),
                 state_dir: str | None = None):
        self.config = config
        self.state_dir = state_dir
        self._services: dict[str, ClassificationService] = {}  # guarded-by: _lock
        self._lock = new_lock("CellRouter._lock")
        self._started = False  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    # ------------------------------------------------------------------
    # cell registry
    # ------------------------------------------------------------------
    def add_cell(self, cell_id: str, model: object,
                 registry: FeatureRegistry,
                 config: CellConfig | None = None, *,
                 trainer: bool = False,
                 policy: RetrainPolicy | None = None,
                 features_count: int | None = None,
                 rng: np.random.Generator | None = None
                 ) -> ClassificationService:
        """Register one cell's stack; on a started router it goes live
        immediately (dynamic registration).

        ``config=None`` serves the cell with the router's config.  With
        a router ``state_dir`` the cell checkpoints into
        ``<state_dir>/<sanitized cell id>`` — and warm-restores from it
        right here, before the first request is routed.
        """

        cell_state_dir = (None if self.state_dir is None
                          else str(Path(self.state_dir)
                                   / _sanitize_cell_id(cell_id)))
        service = ClassificationService(
            model, registry, self.config if config is None else config,
            trainer=trainer, policy=policy, features_count=features_count,
            state_dir=cell_state_dir, rng=rng)
        if service.breaker is not None:
            # The breaker's error message and telemetry name the cell.
            service.breaker.name = cell_id
        with self._lock:
            if self._closed:
                raise ServiceClosedError("router is closed")
            if cell_id in self._services:
                raise ValueError(f"cell {cell_id!r} already registered")
            if self._started:
                service.start()
            self._services[cell_id] = service
        return service

    @property
    def cells(self) -> tuple[str, ...]:
        """Registered cell ids, in registration order."""

        return tuple(self._services)  # unguarded-ok: atomic dict iteration; registration publishes via single item set

    def service(self, cell_id: str) -> ClassificationService:
        """The serving stack owning ``cell_id``."""

        try:
            return self._services[cell_id]  # unguarded-ok: hot path; atomic dict lookup, values are never mutated in place
        except KeyError:
            raise UnknownCellError(
                f"no serving stack registered for cell {cell_id!r} "
                f"(cells: {sorted(self._services)})") from None  # unguarded-ok: error-path name listing; racy view acceptable

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CellRouter":
        with self._lock:
            if self._closed:
                raise RuntimeError("router was closed and cannot restart; "
                                   "build a new one")
            if self._started:
                raise RuntimeError("router already started")
            self._started = True
            services = list(self._services.values())
        for service in services:
            service.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop every cell's stack; with ``drain`` accepted requests
        finish first."""

        with self._lock:
            self._closed = True
            self._started = False
            services = list(self._services.values())
        for service in services:
            service.close(drain=drain)

    def __enter__(self) -> "CellRouter":
        return self.start() if not self._started else self  # unguarded-ok: control-plane convenience check; start() re-checks under _lock

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch (hot path)
    # ------------------------------------------------------------------
    def submit(self, cell_id: str, task: CompactedTask) -> ClassifyRequest:
        """Route one task to its cell's batcher (non-blocking).

        A shed arrival raises :class:`~repro.errors.OverloadedError`,
        and a tripped cell :class:`~repro.errors.CircuitOpenError`,
        both annotated with the cell's id.
        """

        try:
            request = self.service(cell_id).submit(task)
        except (OverloadedError, CircuitOpenError) as exc:
            exc.cell = cell_id
            raise
        request.cell = cell_id
        return request

    def submit_many(self, cell_id: str, tasks: list[CompactedTask]
                    ) -> list[ClassifyRequest]:
        """Route a whole batch to its cell's batcher in one round trip.

        The batched ``/classify`` wire format's dispatch: one admission
        decision for the batch as a unit (a shed raises one
        :class:`~repro.errors.OverloadedError` annotated with the
        cell), requests returned in task order.
        """

        try:
            requests = self.service(cell_id).submit_many(tasks)
        except (OverloadedError, CircuitOpenError) as exc:
            exc.cell = cell_id
            raise
        for request in requests:
            request.cell = cell_id
        return requests

    def classify(self, cell_id: str, task: CompactedTask,
                 timeout: float | None = 5.0) -> ClassifyRequest:
        """Submit and block until classified; returns the completed
        request."""

        request = self.submit(cell_id, task)
        if not request.wait(timeout):
            raise TimeoutError("classification did not complete in time")
        return request

    def observe(self, cell_id: str, task: CompactedTask, group: int) -> None:
        """Feed one labelled observation to a cell's training loop."""

        self.service(cell_id).observe(task, group)

    def publish(self, cell_id: str, model: object,
                features_count: int | None = None,
                clone: bool = True) -> ModelSnapshot:
        """Hot-swap one cell's served model; other cells are untouched."""

        return self.service(cell_id).publish(
            model, features_count=features_count, clone=clone)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def model_version(self, cell_id: str) -> int:
        return self.service(cell_id).model_version

    def stats(self) -> RouterStats:
        with self._lock:
            services = dict(self._services)
        return RouterStats(cells={cell_id: service.stats()
                                  for cell_id, service in services.items()})

    def telemetries(self) -> dict[str, object]:
        """Per-cell :class:`~repro.serve.telemetry.Telemetry` planes
        (stage histograms + event rings), keyed like :meth:`stats`."""

        with self._lock:
            return {cell_id: service.telemetry
                    for cell_id, service in self._services.items()}

    def admission_snapshots(self) -> dict[str, dict]:
        """Per-cell admission-controller snapshots; cells without
        admission control are omitted."""

        with self._lock:
            services = dict(self._services)
        return {cell_id: service.admission.snapshot()
                for cell_id, service in services.items()
                if service.admission is not None}
