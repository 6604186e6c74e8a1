#!/usr/bin/env python
"""Real-time serving: microbatching, background retraining, hot-swap.

The production counterpart of ``examples/online_deployment.py``: instead
of a simulated timebase, a real :class:`~repro.serve.ClassificationService`
absorbs an open-loop task stream while a background trainer watches the
feature registry and hot-swaps extended models without blocking serving
("updating ML model runs in parallel and won't block or slow down the
main cluster scheduler").

Run:  python examples/serving_loadtest.py [--rate 8000] [--pattern bursty]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import BENCH_CONFIG, GrowingModel
from repro.datasets import DatasetData, build_step_datasets
from repro.serve import CellConfig, ClassificationService, LoadGenerator
from repro.sim import RetrainPolicy
from repro.trace import generate_cell


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cell", default="2019c")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--tasks-per-day", type=int, default=400)
    parser.add_argument("--days", type=int, default=4)
    parser.add_argument("--rate", type=float, default=8000.0)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--pattern", default="poisson",
                        choices=["poisson", "bursty"])
    parser.add_argument("--workers", type=int, default=1,
                        help="microbatcher worker shards")
    parser.add_argument("--latency-budget-ms", type=float, default=None,
                        help="shed arrivals whose projected queueing "
                             "delay exceeds this budget (try 20 with "
                             "--rate 40000 --pattern bursty)")
    parser.add_argument("--shed-policy", default="reject",
                        choices=["reject", "drop-oldest"])
    parser.add_argument("--autotune", action="store_true",
                        help="re-fit microbatch size/wait to the "
                             "observed arrival rate")
    args = parser.parse_args()

    cell = generate_cell(args.cell, scale=args.scale, seed=args.seed,
                         days=args.days, tasks_per_day=args.tasks_per_day)
    result = build_step_datasets(cell)

    # Deploy with first-window knowledge only, so the registry already
    # holds vocabulary the served model has never seen — a retrain (with
    # input-layer extension) becomes due as observations stream in.
    model = GrowingModel(BENCH_CONFIG,
                         rng=np.random.default_rng(args.seed + 1))
    for step in result.steps:
        if step.n_samples < 8 or len(np.unique(step.y)) < 2:
            continue
        model.fit_step(DatasetData(step.X, step.y,
                                   batch_size=BENCH_CONFIG.batch_size,
                                   rng=np.random.default_rng(0)))
        break
    print(f"{cell.name}: deployed {model.features_count}-feature model; "
          f"registry spans {result.registry.features_count} "
          f"({len(result.tasks):,} constrained tasks in corpus)")

    policy = RetrainPolicy(growth_threshold=4, min_observations=100)
    service = ClassificationService(
        model, result.registry,
        CellConfig(n_workers=args.workers,
                   latency_budget_ms=args.latency_budget_ms,
                   shed_policy=args.shed_policy, autotune=args.autotune),
        policy=policy, rng=np.random.default_rng(args.seed + 2))
    with service:
        report = LoadGenerator(
            service, result.tasks, result.labels, rate=args.rate,
            duration_s=args.duration, pattern=args.pattern,
            observe_every=2,
            rng=np.random.default_rng(args.seed + 3)).run()

    print(report)
    stats = service.stats()
    print(f"batches: {stats.batches} (mean {stats.mean_batch:.1f}, "
          f"largest {stats.largest_batch}); observations fed: "
          f"{stats.observations:,}")
    if service.admission is not None:
        snap = service.admission.snapshot()
        print(f"admission: {stats.shed:,} shed "
              f"({stats.shed_rejected:,} gate / {stats.shed_evicted:,} "
              f"evicted / {stats.shed_expired:,} expired); observed "
              f"arrival {snap['arrival_rate']:,.0f}/s, drain "
              f"{snap['service_rate']:,.0f}/s per worker")
    if service.autotuner is not None:
        print(f"autotuner: settled at batch {stats.batch_limit} / "
              f"wait {stats.wait_limit_us}µs for "
              f"{service.autotuner.arrival_rate:,.0f}/s offered")
    assert service.trainer is not None
    for update in service.trainer.updates:
        print(f"hot-swap -> v{update.version}: {update.features_before} -> "
              f"{update.features_after} features in {update.epochs} epochs "
              f"(acc {update.accuracy:.3f}), trained off-path in "
              f"{update.train_seconds:.2f}s")
    if not service.trainer.updates:
        print("no retrain became due (try a larger cell or lower "
              "--min-observations)")


if __name__ == "__main__":
    main()
