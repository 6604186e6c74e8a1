#!/usr/bin/env python
"""Multi-cell serving: one Task CO Analyzer stack per computing cell.

The paper evaluates four computing cells with distinct constraint
vocabularies; per-queue/per-partition agents are the standard shape for
related RL schedulers.  This example deploys one model + registry per
cell behind a :class:`~repro.serve.CellRouter`, drives an interleaved
open-loop stream across all cells, hot-swaps every cell's model
mid-stream, and audits completed requests against the exact per-cell
version that served them — zero drops and zero cross-cell misroutes is
the acceptance bar.

Run:  python examples/multicell_serving.py [--cells 2019a,2019c] \
          [--workers 2] [--rate 6000]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import BENCH_CONFIG, GrowingModel
from repro.datasets import DatasetData, build_step_datasets
from repro.serve import CellConfig, CellRouter, LoadGenerator
from repro.trace import generate_cell


def train_initial(result, seed: int) -> GrowingModel:
    model = GrowingModel(BENCH_CONFIG, rng=np.random.default_rng(seed))
    for step in result.steps[:3]:
        if step.n_samples < 8 or len(np.unique(step.y)) < 2:
            continue
        model.fit_step(DatasetData(step.X, step.y,
                                   batch_size=BENCH_CONFIG.batch_size,
                                   rng=np.random.default_rng(step.step_index)))
    return model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", default="2019a,2019c",
                        help="comma-separated trace profiles, one serving "
                             "stack each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--tasks-per-day", type=int, default=400)
    parser.add_argument("--days", type=int, default=4)
    parser.add_argument("--rate", type=float, default=6000.0)
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument("--workers", type=int, default=2,
                        help="batcher shards per cell")
    args = parser.parse_args()

    router = CellRouter(CellConfig(n_workers=args.workers))
    corpora = {}
    for k, profile in enumerate(p for p in args.cells.split(",") if p):
        cell = generate_cell(profile, scale=args.scale,
                             seed=args.seed + k,
                             days=args.days,
                             tasks_per_day=args.tasks_per_day)
        result = build_step_datasets(cell)
        model = train_initial(result, args.seed + 10 + k)
        if model.features_count is None or not result.tasks:
            raise SystemExit(f"{profile}: nothing trainable to serve")
        router.add_cell(cell.name, model, result.registry,
                        rng=np.random.default_rng(args.seed + 20 + k))
        corpora[cell.name] = (result.tasks, result.labels)
        print(f"{cell.name}: {model.features_count}-feature model, "
              f"{len(result.tasks):,} constrained tasks in corpus")

    with router:
        report = LoadGenerator(
            router, corpora=corpora, rate=args.rate,
            duration_s=args.duration, swap_midstream=True,
            rng=np.random.default_rng(args.seed + 30)).run()

    print(f"\n{report}")
    stats = router.stats()
    for cell_id, cell_stats in stats.cells.items():
        print(f"  {cell_id}: {cell_stats.completed:,} classified over "
              f"{cell_stats.batches} batches "
              f"(largest {cell_stats.largest_batch}), "
              f"{cell_stats.swaps} hot-swap(s), "
              f"shards {list(cell_stats.shard_completed)}")
    assert report.n_dropped == 0, "dropped requests"
    assert report.n_misrouted == 0, "cross-cell misroutes"
    print(f"zero drops, zero misroutes ({report.n_audited} audited) "
          f"across {stats.swaps} mid-stream hot-swaps")


if __name__ == "__main__":
    main()
