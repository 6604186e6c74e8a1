"""Shared pieces of the benchmark: inputs, the oracle, statistics and
process probes.

Everything here is benchmark-side code.  The program under test is the
``repro`` package in ``src/``; this module only calls its public entry
points.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for archives, spans and checkpoints (git-ignored).
WORK_DIR = ROOT / ".perfbench_work"

#: The synthetic cell every workload replays: the clusterdata-2019c
#: profile at the scale and seed the repository's own benches use.  It
#: is the same for every workload seed, so seeds vary the order and
#: timing of the work, not its amount.
CELL = "clusterdata-2019c"
SCALE = 0.03
TASKS_PER_DAY = 1500
CELL_SEED = 2025


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def generate_trace():
    """The trace every workload replays (see :data:`CELL_SEED`)."""

    from repro.trace import generate_cell

    return generate_cell(CELL, scale=SCALE, seed=CELL_SEED,
                         tasks_per_day=TASKS_PER_DAY)


def serve_model(result):
    """The initial model ``repro serve --seed CELL_SEED`` deploys.

    Mirrors the CLI's bring-up (BENCH_CONFIG, fitted on the first
    viable growth windows with seed + 1) through the public model API,
    so the in-process workloads serve the model the wire one does and
    the oracle can rebuild the wire server's model exactly.
    """

    from repro.core import BENCH_CONFIG, GrowingModel
    from repro.datasets import DatasetData

    model = GrowingModel(BENCH_CONFIG,
                         rng=np.random.default_rng(CELL_SEED + 1))
    for step in result.steps[:3]:  # the CLI's default --train-steps
        if step.n_samples < 8 or len(np.unique(step.y)) < 2:
            continue
        model.fit_step(DatasetData(
            step.X, step.y, batch_size=BENCH_CONFIG.batch_size,
            rng=np.random.default_rng(step.step_index)))
    if model.features_count is None:
        raise RuntimeError("no growth window had enough samples to train")
    return model


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
class Oracle:
    """Expected answers, computed independently of the serving path.

    ``expected[i]`` is the group the deployed model gives corpus task
    ``i``, computed once per distinct task shape in set-up through the
    eager model (dense rows, aligned to the model's width) rather than
    the compiled plan and microbatcher that serve it.
    """

    def __init__(self, model, registry, tasks, version: int):
        from repro.datasets import COVVEncoder

        shapes = list(dict.fromkeys(tasks))
        X = COVVEncoder(registry).encode_rows(shapes).toarray()
        width = model.features_count
        if X.shape[1] < width:
            X = np.pad(X, ((0, 0), (0, width - X.shape[1])))
        by_shape = dict(zip(shapes, model.predict(X[:, :width]).tolist()))
        self.expected = np.asarray([by_shape[t] for t in tasks],
                                   dtype=np.int64)
        self.version = version

    def wrong(self, idx, groups, versions) -> np.ndarray:
        """Mask of answers (for corpus tasks ``idx``) that are wrong:
        another group than the oracle's, or not the one served version.
        A failed request carries group -1 and is wrong too."""

        return ((np.asarray(groups) != self.expected[np.asarray(idx)])
                | (np.asarray(versions) != self.version))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    """Linear-interpolated percentile (NaN for an empty sample)."""

    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else float("nan")


# ----------------------------------------------------------------------
# process probes
# ----------------------------------------------------------------------
def proc_status_kib(pid: int | str, field: str) -> int:
    """One ``VmXXX`` field of ``/proc/<pid>/status`` in KiB (0 if gone)."""

    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def proc_cpu_s(pid: int | str) -> float:
    """User + system CPU seconds of a process so far."""

    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


class GcMonitor:
    """Times every garbage collection of this process via ``gc.callbacks``.

    ``events`` holds ``(start_ns, pause_ms, generation)`` per collection
    that began while ``active()`` was true (every one, without it);
    :meth:`close` detaches the callback.
    """

    def __init__(self, active=None):
        self.events: list[tuple[int, float, int]] = []
        self._active = active
        self._start = 0
        gc.callbacks.append(self._callback)

    def _callback(self, phase, info):
        if phase == "start":
            keep = self._active is None or self._active()
            self._start = time.perf_counter_ns() if keep else 0
        elif self._start:
            self.events.append((
                self._start, (time.perf_counter_ns() - self._start) / 1e6,
                info["generation"]))

    def close(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


def gc_summary(events, start_ns: int = 0, end_ns: int = 2 ** 63) -> dict:
    """Pause total / max and full (gen-2) collections inside a window."""

    pauses = [(ms, gen) for t, ms, gen in events if start_ns <= t <= end_ns]
    return {"gc_pause_ms_total": float(sum(ms for ms, _ in pauses)),
            "gc_pause_ms_max": float(max((ms for ms, _ in pauses),
                                         default=0.0)),
            "gc_gen2": sum(1 for _, gen in pauses if gen == 2)}


# ----------------------------------------------------------------------
# host fingerprint
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 — best effort across numpy versions
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _openblas_threads(),
    }


def _openblas_threads() -> int | None:
    """The thread count the OpenBLAS numpy loaded reports (if found)."""

    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None
