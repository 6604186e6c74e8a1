"""Shared benchmark infrastructure.

Every experiment regenerator uses the same scaled-down cells, built once
per pytest session and memoized here.  The scale policy is DESIGN.md §4:
cells of a few hundred machines, full 29/31-day horizons, the 26-group
scheme preserved via proportional bin widths.  Absolute numbers therefore
differ from the paper's full-scale runs; every bench asserts the *shape*
claims (who wins, by roughly what factor, where the bands lie) and prints
the paper-formatted table for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core import (BENCH_CONFIG, ContinuousLearningDriver,
                        FullyRetrainModel, GrowingModel, baseline_suite)
from repro.datasets import build_step_datasets
from repro.trace import generate_cell

#: Benchmark scale knobs (one place to tune total runtime).
SCALE = 0.03
TASKS_PER_DAY = 1500
SEED = 2025

CELLS = ("clusterdata-2011", "clusterdata-2019a", "clusterdata-2019c",
         "clusterdata-2019d")

#: Machine-readable benchmark results (one JSON object per artifact,
#: one key per bench section) — the perf trajectories tracked across
#: PRs; CI uploads both files as artifacts.  Override the locations
#: with the ``BENCH_SERVE_JSON`` / ``BENCH_TRAIN_JSON`` environment
#: variables.
_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_SERVE_JSON = Path(os.environ.get(
    "BENCH_SERVE_JSON", _REPO_ROOT / "BENCH_serve.json"))
BENCH_TRAIN_JSON = Path(os.environ.get(
    "BENCH_TRAIN_JSON", _REPO_ROOT / "BENCH_train.json"))


def record_bench(path: Path, section: str, payload: dict) -> Path:
    """Merge one bench section into the JSON artifact at ``path``.

    Sections written by earlier tests in the same run (or earlier runs)
    are preserved unless overwritten, so a full bench session leaves
    one complete JSON document behind.
    """

    results: dict = {}
    if path.exists():
        try:
            results = json.loads(path.read_text())
        except (OSError, ValueError):
            results = {}
    results[section] = dict(payload, recorded_at=time.time())
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


def record_serve_bench(section: str, payload: dict) -> Path:
    """One serving-side section into :data:`BENCH_SERVE_JSON`."""

    return record_bench(BENCH_SERVE_JSON, section, payload)


def record_train_bench(section: str, payload: dict) -> Path:
    """One training-side section into :data:`BENCH_TRAIN_JSON`."""

    return record_bench(BENCH_TRAIN_JSON, section, payload)


@lru_cache(maxsize=None)
class PlanlessModel:
    """Serves a model on the eager ``align`` + ``predict`` path.

    Delegates ``predict`` and ``features_count`` and has no
    ``compile``, so a publication of it carries no inference plan —
    the eager fallback that duck-typed models take.
    """

    def __init__(self, model):
        self.model = model

    @property
    def features_count(self):
        return self.model.features_count

    def predict(self, X):
        return self.model.predict(X)


def bench_cell(name: str, tasks_per_day: int = TASKS_PER_DAY,
               seed: int = SEED):
    """One synthetic cell at bench scale (memoized per session)."""

    return generate_cell(name, scale=SCALE, seed=seed,
                         tasks_per_day=tasks_per_day)


@lru_cache(maxsize=None)
def bench_pipeline(name: str, encoding: str = "co-vv",
                   tasks_per_day: int = TASKS_PER_DAY, seed: int = SEED):
    """The Figure 1 pipeline output for one bench cell (memoized)."""

    return build_step_datasets(bench_cell(name, tasks_per_day, seed),
                               encoding=encoding,
                               rng=np.random.default_rng(seed))


def ann_models(seed: int = SEED):
    """Fresh Growing + Fully-Retrain pair under the bench config."""

    return {
        "Growing": GrowingModel(BENCH_CONFIG,
                                rng=np.random.default_rng(seed + 1)),
        "Fully Retrain": FullyRetrainModel(
            BENCH_CONFIG, rng=np.random.default_rng(seed + 2)),
    }


def all_models(seed: int = SEED):
    """The full Table X model set (2 ANN variants + 4 baselines)."""

    models = ann_models(seed)
    models.update(baseline_suite(BENCH_CONFIG,
                                 rng=np.random.default_rng(seed + 3)))
    return models


@lru_cache(maxsize=None)
def bench_run(name: str, full_suite: bool = False, seed: int = SEED):
    """Continuous-learning run over one cell (memoized across benches)."""

    result = bench_pipeline(name, seed=seed)
    models = all_models(seed) if full_suite else ann_models(seed)
    driver = ContinuousLearningDriver(models, batch_size=BENCH_CONFIG.batch_size,
                                      rng=np.random.default_rng(seed))
    return driver.run(result.steps, cell_name=name)
