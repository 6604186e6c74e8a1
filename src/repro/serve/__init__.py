"""``repro.serve`` — real-time inference service for the Task CO Analyzer.

The production counterpart of the simulated Figure 3 loop: a
thread-safe, hot-swappable model slot (:class:`ModelHandle`) that
publishes ``(model, compiled InferencePlan)`` pairs atomically, a
sharded microbatching request queue (:class:`MicroBatcher`) serving
batches sparse-end-to-end through the fused plan (plan-less models
serve on the eager ``align`` + ``predict`` path), a background trainer
that retrains as constraint vocabulary grows
(:class:`BackgroundTrainer`), cell-aware backpressure and batch
autotuning (:class:`AdmissionController`, :class:`AutoTuner`), the
:class:`ClassificationService` facade composing them under one frozen
:class:`CellConfig`, a multi-cell dispatch layer owning one stack per
computing cell (:class:`CellRouter`), and an open-loop
:class:`LoadGenerator` measuring throughput, tail latency, and
shed/accept rates.

Quickstart::

    from repro.serve import CellConfig, ClassificationService, LoadGenerator

    service = ClassificationService(model, result.registry,
                                    CellConfig(n_workers=4)).start()
    report = LoadGenerator(service, result.tasks, result.labels,
                           rate=5000, duration_s=5,
                           observe_every=4).run()
    service.close()
    print(report)

Multi-cell (a per-cell override is a ``dataclasses.replace`` of the
router's config)::

    from dataclasses import replace

    from repro.serve import CellConfig, CellRouter, LoadGenerator

    router = CellRouter(CellConfig(n_workers=2))
    router.add_cell("2019a", model_a, registry_a)
    router.add_cell("2019c", model_c, registry_c,
                    replace(router.config, latency_budget_ms=20.0))
    with router:
        report = LoadGenerator(
            router, corpora={"2019a": (tasks_a, labels_a),
                             "2019c": (tasks_c, labels_c)},
            rate=8000, duration_s=5, swap_midstream=True).run()
    print(report)  # per-cell counts + misroute audit
"""

from .admission import SHED_POLICIES, AdmissionController, AutoTuner
from .handle import CandidateRoute, ModelHandle, ModelSnapshot
from .http import DEFAULT_CELL, HttpIngress, create_app
from .loadgen import LoadGenerator, LoadTestReport, arrival_offsets
from .metrics import LatencyStats, RouterStats, ServiceStats
from .microbatch import ClassifyRequest, MicroBatcher
from .persistence import (AsyncCheckpointer, CellCheckpoint,
                          CheckpointStore, CorruptCheckpointError)
from .rollout import (ROLLBACK_SIGNALS, OfferOutcome, ReplayRing,
                      RolloutController, RolloutPolicy, ShadowVerdict)
from .router import CellRouter
from .service import CellConfig, ClassificationService
from .supervise import (BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN,
                        CircuitBreaker, Supervisor)
from .telemetry import (EventLog, HistogramSnapshot, ServeEvent,
                        StageTimings, StreamingHistogram, Telemetry,
                        render_prometheus)
from .trainer import BackgroundTrainer, ServeUpdate

__all__ = [
    "ModelHandle", "ModelSnapshot", "CandidateRoute",
    "MicroBatcher", "ClassifyRequest",
    "RolloutPolicy", "RolloutController", "ReplayRing",
    "OfferOutcome", "ShadowVerdict", "ROLLBACK_SIGNALS",
    "AdmissionController", "AutoTuner", "SHED_POLICIES",
    "BackgroundTrainer", "ServeUpdate",
    "CellConfig", "ClassificationService",
    "CellRouter",
    "LoadGenerator", "LoadTestReport", "arrival_offsets",
    "LatencyStats", "ServiceStats", "RouterStats",
    "Telemetry", "StreamingHistogram", "StageTimings",
    "HistogramSnapshot", "EventLog", "ServeEvent", "render_prometheus",
    "HttpIngress", "create_app", "DEFAULT_CELL",
    "CheckpointStore", "CellCheckpoint", "AsyncCheckpointer",
    "CorruptCheckpointError",
    "CircuitBreaker", "Supervisor",
    "BREAKER_CLOSED", "BREAKER_HALF_OPEN", "BREAKER_OPEN",
]
