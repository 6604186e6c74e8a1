"""``learn-stream``: classify, observe and retrain window by window while
a concurrent classify stream runs.

Each pass replays the corpus in 12 equal windows.  Set-up fits a fresh
model on window 0 against a fresh ``FeatureRegistry`` and serves it
with a ``state_dir``, so the async checkpointer writes on every
publish; the automatic retrain policy is set out of reach.  For each of
the remaining 11 windows the pass (a) classifies the window with the
current model and scores it against the labels, (b) ``observe()``s the
labelled window and (c) calls ``trainer.train_once()`` — explicit
retrains, so every run does the same ones.  Throughout, an open-loop
single-task stream classifies at 1,000/s.

Registry growth invalidates the encoder memo, and the trainer
re-encodes every buffered observation under the registry lock and holds
the interpreter lock through its epochs, so a gain in encoding or
training that costs serving shows up here.
"""

from __future__ import annotations

import shutil
import threading
import time
from collections import deque

import numpy as np

from common import CELL_SEED, WORK_DIR, median, pct, proc_status_kib
from result import Result

WINDOWS = 12
STREAM_RATE = 1000.0
#: At least this many measured passes, however short the run.
MIN_PASSES = 2
WAIT_S = 10.0
#: Out of reach of the automatic trigger: retrains are driven explicitly.
NEVER = 10 ** 9


class _Stream:
    """Open-loop Poisson single-task classify stream (one sender thread).

    Latency is timed from each request's due time; the collector keeps
    no request after it completes (samples go into preallocated arrays).
    """

    def __init__(self, service, tasks, rate: float, rng, cap: int):
        self.service = service
        self.tasks = tasks
        self.gaps_ns = (rng.exponential(1e9 / rate, size=cap)).astype(
            np.int64)
        self.picks = rng.integers(0, len(tasks), size=cap)
        self.lat_ms = np.empty(cap)
        self.lag_ms = np.empty(cap)
        self.n = 0
        self.sent = 0
        self.lost = 0
        self.version_regressions = 0
        self._pending: deque = deque()
        self._ready = threading.Condition()
        self._stop = threading.Event()
        self._done_sending = False
        self._threads = [threading.Thread(target=self._send),
                         threading.Thread(target=self._collect)]

    def start(self) -> "_Stream":
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _send(self) -> None:
        due = time.perf_counter_ns()
        try:
            for i in range(len(self.gaps_ns)):
                due += int(self.gaps_ns[i])
                delay = due - time.perf_counter_ns()
                if delay > 0 and self._stop.wait(delay / 1e9):
                    break
                if self._stop.is_set():
                    break
                request = self.service.submit(self.tasks[self.picks[i]])
                self.lag_ms[i] = (time.perf_counter_ns() - due) / 1e6
                self.sent += 1
                with self._ready:
                    self._pending.append((due, request))
                    self._ready.notify()
        finally:
            with self._ready:
                self._done_sending = True
                self._ready.notify()

    def _collect(self) -> None:
        newest = 0
        while True:
            with self._ready:
                while not self._pending and not self._done_sending:
                    self._ready.wait()
                if not self._pending:
                    return
                due, request = self._pending.popleft()
            if not request.wait(WAIT_S) or not request.ok:
                self.lost += 1
                continue
            if request.version < newest:
                self.version_regressions += 1
            newest = max(newest, request.version)
            self.lat_ms[self.n] = (request.completed_ns - due) / 1e6
            self.n += 1


def _setup(cell, state_dir):
    """Trace in hand → a served window-0 model over a fresh registry.

    Training randomness is fixed, not drawn from the workload seed, so
    every pass and every run does the same retrains.
    """

    from repro.core import BENCH_CONFIG, GrowingModel
    from repro.datasets import (COVVEncoder, DatasetData, FeatureRegistry,
                                build_step_datasets)
    from repro.serve import ClassificationService
    from repro.sim import RetrainPolicy

    start = time.perf_counter()
    result = build_step_datasets(cell)
    tasks, labels = result.tasks, np.asarray(result.labels)
    windows = np.array_split(np.arange(len(tasks)), WINDOWS)
    registry = FeatureRegistry()
    first = [tasks[i] for i in windows[0]]
    for task in first:
        registry.observe_task(task)
    model = GrowingModel(BENCH_CONFIG,
                         rng=np.random.default_rng(CELL_SEED + 1))
    model.fit_step(DatasetData(
        COVVEncoder(registry).encode_rows(first), labels[windows[0]],
        batch_size=BENCH_CONFIG.batch_size,
        rng=np.random.default_rng(CELL_SEED + 2)))
    service = ClassificationService(
        model, registry,
        policy=RetrainPolicy(growth_threshold=NEVER, min_observations=NEVER),
        state_dir=str(state_dir), rng=np.random.default_rng(CELL_SEED + 3))
    service.start()
    return time.perf_counter() - start, tasks, labels, windows, service


def _pass(cell, seed: int, k: int, stream_cap: int, tracer=None) -> dict:
    """One set-up plus 11 classify → observe → retrain windows."""

    state_dir = WORK_DIR / f"learn-state-{seed}-{k}"
    shutil.rmtree(state_dir, ignore_errors=True)
    if tracer is not None:
        tracer.active = False
    setup_s, tasks, labels, windows, service = _setup(cell, state_dir)
    stream = _Stream(service, tasks, STREAM_RATE,
                     np.random.default_rng([seed, k]), stream_cap)
    out = {"setup_s": setup_s, "adapt_s": [], "window_s": 0.0,
           "window_tasks": 0, "correct": 0, "epochs": 0, "failed": 0,
           "attempted": 0, "versions": [service.model_version],
           "features_before": service.registry.features_count}
    if tracer is not None:
        tracer.active = True
    cpu0 = time.process_time()
    stream.start()
    try:
        for window in windows[1:]:
            batch = [tasks[i] for i in window]
            t0 = time.perf_counter()
            requests = service.submit_many(batch)
            served = np.asarray([
                r.group if r.wait(WAIT_S) and r.ok else -1
                for r in requests])
            del requests
            t1 = time.perf_counter()
            for task, label in zip(batch, labels[window]):
                service.observe(task, int(label))
            update = service.trainer.train_once()
            t2 = time.perf_counter()
            out["attempted"] += len(batch) + 1
            out["failed"] += int((served < 0).sum())
            out["correct"] += int((served == labels[window]).sum())
            out["window_tasks"] += len(batch)
            out["window_s"] += t2 - t0
            out["adapt_s"].append(t2 - t1)
            if update is None or update.version <= out["versions"][-1]:
                out["failed"] += 1
            else:
                out["versions"].append(update.version)
                out["epochs"] += update.epochs
    finally:
        stream.stop()
        out["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            tracer.active = False
        out["features_after"] = service.registry.features_count
        service.close()
        shutil.rmtree(state_dir, ignore_errors=True)
    # Keep only this pass's samples, not the stream's preallocated
    # arrays, so the run's peak memory does not grow with its passes.
    out.update(lat_ms=stream.lat_ms[:stream.n].copy(),
               lag_ms=stream.lag_ms[:stream.sent].copy(), sent=stream.sent,
               lost=stream.lost, regressions=stream.version_regressions)
    return out


def run(cell, seed: int, seconds: float, tracer=None) -> Result:
    stream_cap = int(STREAM_RATE * (seconds + 30))
    # Warm-up pass: lazy imports and first-use costs finish before
    # anything is timed (a first pass retrains several times slower).
    _pass(cell, seed, 0, stream_cap)
    passes = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        passes.append(_pass(cell, seed, len(passes) + 1, stream_cap,
                            tracer))

    lat = np.concatenate([p["lat_ms"] for p in passes])
    lag = np.concatenate([p["lag_ms"] for p in passes])
    adapt = [s for p in passes for s in p["adapt_s"]]
    sent = sum(p["sent"] for p in passes)
    lost = sum(p["lost"] for p in passes)
    regressions = sum(p["regressions"] for p in passes)
    epochs = {p["epochs"] for p in passes}
    window_tasks = sum(p["window_tasks"] for p in passes)
    res = Result(
        attempted=sum(p["attempted"] for p in passes) + sent,
        failed=sum(p["failed"] for p in passes) + lost + regressions)
    res.metric("setup_s", median([p["setup_s"] for p in passes]), "s",
               len(passes))
    # The stream's latency is a two-mode mixture: requests that find
    # the interpreter free are answered in about a millisecond, those
    # that arrive while the main thread holds it wait for a switch.
    # The median sits on the steep slope between the modes and jumps
    # from run to run, so the figure is the mean, which moves smoothly
    # with the share and the length of the waits.
    res.metric("classify_ms", float(np.mean(lat)), "ms", lat.size)
    # All windows' tasks over all windows' time: a ratio of sums, not a
    # median of per-pass rates, which jumps between the host's slow and
    # fast spells.
    res.metric("tasks_per_s",
               window_tasks / sum(p["window_s"] for p in passes),
               "tasks/s", len(passes))
    res.metric("accuracy",
               sum(p["correct"] for p in passes) / window_tasks,
               "fraction", window_tasks)
    res.metric("peak_rss_mb", proc_status_kib("self", "VmHWM") / 1024,
               "MiB", 1)
    res.note(f"classify latency is the mean of the concurrent "
             f"{STREAM_RATE:,.0f}/s stream from due time, pooled over "
             f"{len(passes)} passes; its p50 is {pct(lat, 50):.3f} ms")
    res.note(f"adapt_p50_s = {median(adapt):.4f} s (first observe() of a "
             f"window -> train_once() published; n={len(adapt)})")
    res.note(f"growing.epochs per pass: {sorted(epochs)} "
             f"({'identical' if len(epochs) == 1 else 'DIFFER'} across "
             f"{len(passes)} passes); stream: {sent} sent, {lost} lost, "
             f"{regressions} version regressions")
    res.layer["growing.epochs"] = passes[0]["epochs"]
    res.layer["registry.features_added"] = (passes[0]["features_after"]
                                            - passes[0]["features_before"])
    res.layer["runtime.cpu_s"] = sum(p["cpu_s"] for p in passes)
    res.layer["loadgen.sent"] = sent
    res.layer["loadgen.lag_p99_ms"] = pct(lag, 99)
    res.tail(lat)
    return res
