#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload <wire-single|learn-stream>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  Every workload replays the same
synthetic clusterdata-2019c cell; the seed fixes the load on it (task
order, arrival schedules, streamed tasks).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the workload twice, untraced and
then with spans around every layer boundary, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced, per
end-to-end metric).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--self-test`` plants wrong answers in the oracle and checks that they
are caught.  See ``perfbench/README.md`` for what each workload loads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import signal
import sys
from pathlib import Path

# One BLAS thread per benchmark process — this one, and the ``repro
# serve`` child that inherits the environment — so OpenBLAS does not
# oversubscribe a small host.  Must precede the first numpy import.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
# A fixed string-hash seed, because the program's results depend on it:
# ``FeatureRegistry.observe_spec`` adds a spec's ``not_in`` values in
# frozenset order, so CO-VV column order (and with it training) varies
# with the hash seed.  The seed is fixed before the interpreter starts,
# hence the re-exec; the ``repro serve`` child inherits it, which keeps
# the oracle's model identical to the served one.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("wire-single", "learn-stream")

#: The metric lists (names, units, better direction) live in
#: BENCHMARK.json at the repository root, the benchmark's contract.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]
             if not m["name"].startswith("overhead.")}


def layer_metrics(res) -> dict[str, float]:
    """Per-layer figures from a traced run's spans and its own probes."""

    import numpy as np

    import tracing
    from common import pct

    spans = res.spans
    named = tracing.by_name(spans)
    self_us = tracing.self_times_us(spans)

    def p50(name, scale=1.0, own=False):
        values = [(self_us[s["id"]] if own
                   else (s["end_ns"] - s["start_ns"]) / 1e3)
                  for s in named.get(name, ())]
        return pct(values, 50) * scale if values else 0.0

    def per_task(name):
        group = named.get(name, ())
        n = sum(s["n"] for s in group)
        return sum(self_us[s["id"]] for s in group) / n if n else 0.0

    waits = tracing.queue_waits_us(spans)
    sizes = tracing.batch_sizes(spans)
    out = {
        "http.server_us_p50": p50("http.request"),
        "compaction.decode_us_per_task": per_task("compaction.from_dict"),
        "service.submit_us_p50": p50("service.submit", own=True),
        "microbatch.queue_wait_us_p50": pct(waits, 50) if waits.size else 0.0,
        "microbatch.queue_wait_us_p99": pct(waits, 99) if waits.size else 0.0,
        "microbatch.batch_size_mean": float(np.mean(sizes)) if sizes else 0.0,
        "co_vv.encode_us_per_task": per_task("co_vv.encode_rows"),
        "co_vv.encode_calls": len(named.get("co_vv.encode_rows", ())),
        "input.repeat_share": (res.encode_repeats / res.encode_tasks
                               if res.encode_tasks else 0.0),
        "inference_plan.predict_us_per_task":
            per_task("inference_plan.predict"),
        "registry.observe_us_per_task": per_task("registry.observe_task"),
        "trainer.train_once_ms_p50": p50("trainer.train_once", 1e-3),
        "trainer.self_ms_p50": p50("trainer.train_once", 1e-3, own=True),
        "growing.fit_step_ms_p50": p50("growing.fit_step", 1e-3),
        "handle.publish_ms_p50": p50("handle.publish", 1e-3),
        "persistence.save_ms_p50": p50("persistence.save", 1e-3),
        "persistence.saves": len(named.get("persistence.save", ())),
        "trace.spans": len(spans),
    }
    for name in PER_LAYER:
        out.setdefault(name, 0.0)
    out.update(res.layer)
    return {name: float(out[name]) for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from common import WORK_DIR, GcMonitor, gc_summary, generate_trace

    WORK_DIR.mkdir(exist_ok=True)
    if name == "wire-single":
        import wire as module
    else:
        import learn as module
    cell = generate_trace()
    # The generated trace is the benchmark's input, not the program's
    # heap: move it out of garbage collection so its size does not set
    # the in-process stack's collection pauses.  Everything the program
    # builds from it afterwards is collected as usual.  (The wire
    # server, a separate process, loads its own copy and keeps it
    # collectable, exactly as shipped.)
    gc.collect()
    gc.freeze()
    if not trace:
        return module.run(cell, seed, seconds), None
    import tracing

    # Each half of a traced run boots the wire server once, not BOOTS
    # times: the pair only has to agree with itself on set-up.
    halves = {"boots": 1} if name == "wire-single" else {}
    base = module.run(cell, seed, seconds / 2, **halves)
    tracer = tracing.install(tracing.Tracer())
    tracer.active = False
    gc_monitor = GcMonitor(active=lambda: tracer.active)
    try:
        traced = module.run(cell, seed, seconds / 2, tracer, **halves)
    finally:
        gc_monitor.close()
    if not traced.spans:
        traced.spans = tracing.as_dicts(tracer)
        traced.encode_tasks = tracer.encode_tasks
        traced.encode_repeats = tracer.encode_repeats
        for key, value in gc_summary(gc_monitor.events).items():
            traced.layer.setdefault(f"runtime.{key}", value)
    return traced, base


def self_test() -> int:
    """Plant wrong answers among real served ones; the oracle must flag
    exactly the planted ones."""

    import numpy as np

    from common import Oracle, generate_trace, serve_model
    from repro.datasets import build_step_datasets
    from repro.serve import ClassificationService

    result = build_step_datasets(generate_trace())
    model = serve_model(result)
    idx = np.arange(min(256, len(result.tasks)))
    with ClassificationService(model, result.registry,
                               trainer=False) as service:
        requests = service.submit_many([result.tasks[i] for i in idx])
        groups = np.asarray([r.result(10) for r in requests])
        versions = np.asarray([r.version for r in requests])
        oracle = Oracle(model, result.registry, result.tasks,
                        service.model_version)
    served_wrong = int(oracle.wrong(idx, groups, versions).sum())
    groups[3] = (groups[3] + 1) % 26
    versions[7] += 1
    flagged = np.flatnonzero(oracle.wrong(idx, groups, versions)).tolist()
    ok = served_wrong == 0 and flagged == [3, 7]
    print(f"self-test: {len(idx)} served answers, {served_wrong} wrong; "
          f"planted a wrong group at 3 and a wrong model version at 7, "
          f"oracle flagged {flagged}: {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def _terminate(signum, _frame):
    # Unwind through the workloads' ``finally`` blocks, which stop the
    # server child and remove scratch state.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/repro is missing "
              f"(run from a full checkout of the repository)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from common import host_fingerprint

    res, base = run_workload(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    # End-to-end figures come from an untraced run: the traced half of
    # a traced run only feeds the per-layer metrics and the overhead.
    shown = res if base is None else base
    print(f"host: {json.dumps(host_fingerprint(), sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, (value, unit, n) in shown.metrics.items():
        print(f"  {name:<18} {value:>14.4f} {unit:<9} "
              f"(better {END_TO_END[name]['better']}, n={n})")
    print(f"  {'error_rate':<18} {shown.error_rate:>14.4f} fraction  "
          f"(better lower, n={shown.attempted})")
    for note in shown.notes:
        print(f"  note: {note}")

    attempted, failed = res.attempted, res.failed
    if base is None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _n) in res.metrics.items()}
    else:
        attempted += base.attempted
        failed += base.failed
        layers = layer_metrics(res)
        # The end-to-end tail is read off the untraced half.
        for name in ("tail.classify_p90_ms", "tail.classify_p99_ms"):
            layers[name] = base.layer[name]
        metrics = {name: {"value": value, "unit": PER_LAYER[name]["unit"]}
                   for name, value in layers.items()}
        for name, value in metrics.items():
            print(f"  layer {name:<36} {value['value']:>14.4f} "
                  f"{value['unit']}")
        print("  tracing overhead (traced minus untraced run):")
        for name, (value, unit, _n) in res.metrics.items():
            delta = value - base.metrics[name][0]
            print(f"    overhead.{name:<18} {delta:>+14.4f} {unit}")
            metrics[f"overhead.{name}"] = {"value": delta, "unit": unit}
    runs = [res] if base is None else [res, base]
    expected = (END_TO_END if base is None
                else {m["name"] for m in SPEC["per_layer"]})
    correct = (failed == 0 and attempted > 0 and set(metrics) == set(expected)
               and all(set(r.metrics) == set(END_TO_END) for r in runs)
               and all(math.isfinite(v) and v > 0
                       for r in runs for v, _u, _n in r.metrics.values()))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
