"""Soak/stress: 30 s of bursty multi-cell overload with live hot-swaps.

Deselected from the tier-1 run (``slow`` marker); the CI slow job runs
it with ``-m slow``.  The long horizon is the point — EWMA estimates
cross many burst periods, the autotuner retargets repeatedly, swaps
land mid-burst and mid-lull — and the invariants must hold *exactly*
at the end:

* zero misroutes (per-cell isolation survives swaps under shedding),
* zero lost requests (``accepted + shed == submitted``; every accepted
  request completes or is evicted — nothing vanishes),
* stats-lock consistency (every sampled snapshot is internally
  consistent and counters only ever grow).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import CellConfig, CellRouter, LoadGenerator

from .faults import SlowModel

pytestmark = pytest.mark.slow

SOAK_SECONDS = 30.0
SOAK_RATE = 12_000.0
SWAP_PERIOD_S = 2.5
# 10 ms of model time per batch at a 64-task cap bounds each cell's
# drain near 2 × 64/10 ms ≈ 12 k/s — bursty arrivals (4× duty
# compression over 3 cells) peak at ~16 k/s per cell, so every burst
# genuinely overruns the cells while the lulls let them drain and
# re-admit.
MODEL_DELAY_S = 0.01


class StatsPoller(threading.Thread):
    """Sample router stats concurrently and check snapshot invariants.

    Each :meth:`~repro.serve.ClassificationService.stats` call copies
    counters under the batcher's ``stats_lock``; a torn snapshot (shard
    sums disagreeing with aggregates, or a counter moving backwards
    between samples) means the lock discipline regressed.
    """

    def __init__(self, router):
        super().__init__(name="soak-stats-poller", daemon=True)
        self.router = router
        self.stop_event = threading.Event()
        self.samples = 0
        self.errors: list[str] = []

    def run(self) -> None:
        last: dict[str, tuple[int, int, int]] = {}
        while not self.stop_event.is_set():
            stats = self.router.stats()
            for cell, s in stats.cells.items():
                if sum(s.shard_completed) != s.completed:
                    self.errors.append(
                        f"{cell}: shard sum {sum(s.shard_completed)} != "
                        f"completed {s.completed}")
                if sum(s.versions_served.values()) != s.completed:
                    self.errors.append(
                        f"{cell}: versions sum != completed")
                current = (s.requests, s.completed, s.shed)
                previous = last.get(cell)
                if previous is not None and any(
                        c < p for c, p in zip(current, previous)):
                    self.errors.append(
                        f"{cell}: counter went backwards {previous} -> "
                        f"{current}")
                last[cell] = current
            self.samples += 1
            self.stop_event.wait(0.05)


class Swapper(threading.Thread):
    """Republish every cell's served model on a fixed cadence."""

    def __init__(self, router):
        super().__init__(name="soak-swapper", daemon=True)
        self.router = router
        self.stop_event = threading.Event()
        self.swaps = 0

    def run(self) -> None:
        while not self.stop_event.wait(SWAP_PERIOD_S):
            for cell in self.router.cells:
                service = self.router.service(cell)
                service.publish(service.handle.snapshot().model, clone=True)
                self.swaps += 1


def test_soak_multicell_bursty_overload(pipeline_result, constant_model):
    registry = pipeline_result.registry
    width = registry.features_count
    tasks = pipeline_result.tasks
    labels = np.zeros(len(tasks), dtype=np.int64)

    router = CellRouter(CellConfig(n_workers=2, max_batch=64, max_wait_us=5000,
                                   latency_budget_ms=25.0, autotune=True))
    # Distinct constant predictions per cell keep the misroute audit
    # sharp: any cross-cell leak flips the predicted group.
    for i, cell in enumerate(("east", "west", "north")):
        router.add_cell(cell, SlowModel(constant_model(i, width),
                                        MODEL_DELAY_S), registry)

    with router:
        poller = StatsPoller(router)
        swapper = Swapper(router)
        poller.start()
        swapper.start()
        try:
            report = LoadGenerator(
                router,
                corpora={cell: (tasks, labels) for cell in router.cells},
                rate=SOAK_RATE, duration_s=SOAK_SECONDS, pattern="bursty",
                swap_midstream=True, audit_per_cell=100,
                rng=np.random.default_rng(1234)).run()
        finally:
            swapper.stop_event.set()
            poller.stop_event.set()
            swapper.join(10.0)
            poller.join(10.0)
        final = router.stats()

    # Zero misroutes across every forced and periodic hot-swap.
    assert report.n_audited > 0
    assert report.n_misrouted == 0

    # Zero lost requests, exactly-once: the gate partitions submissions,
    # terminal outcomes partition admissions.
    assert report.n_requests == report.n_accepted + report.n_shed
    assert report.n_accepted == (report.n_completed + report.n_evicted
                                 + report.n_expired + report.n_dropped)
    assert report.n_dropped == 0
    assert report.n_completed > 0
    # The run was a real overload, not a gentle replay: bursts forced
    # the gate to shed, yet plenty of work still got through.
    assert report.n_shed > 0
    assert report.n_completed > report.n_requests * 0.2

    # The run exercised what it claims: many swaps landed and the
    # router-side ledger agrees with the generator's.
    assert swapper.swaps >= len(router.cells) * (SOAK_SECONDS
                                                 / SWAP_PERIOD_S - 2)
    assert final.swaps >= swapper.swaps  # + one forced swap per cell
    assert final.completed == report.n_completed
    assert final.shed == (report.n_shed + report.n_evicted
                          + report.n_expired)
    assert final.requests == report.n_accepted

    # Stats-lock consistency: the poller sampled live snapshots the
    # whole time and none of them was torn.
    assert poller.samples > 100
    assert poller.errors == []
