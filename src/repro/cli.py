"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the library's main workflows so the reproduction can be
driven without writing Python:

* ``generate``  — synthesize a cell and archive it to disk,
* ``stats``     — Table IX workload statistics for an archived cell,
* ``train``     — continuous transfer learning over an archived cell
  (Growing vs Fully Retrain, optional baselines), Table XI report,
* ``simulate``  — the Figure 3 scheduler experiment on an archived cell,
* ``serve``     — run the real-time classification service over an
  archive's task stream, with background retraining and hot-swap
  (``--workers`` shards the batcher; ``--cells`` adds extra cells from
  trace profiles behind a multi-cell router; ``--latency-budget-ms`` /
  ``--shed-policy`` enable cell-aware backpressure and ``--autotune``
  re-fits the microbatch to the arrival rate); with ``--http-port``
  the stack is exposed over an HTTP ingress (``/classify``,
  ``/metrics``, ``/healthz``, ...) until interrupted instead of being
  driven by the built-in load generator,
* ``loadtest``  — open-loop load generation against the service,
  reporting throughput, goodput, shed/accept rates, and p50/p95/p99
  latency (optionally as JSON); exits non-zero on any lost request
  or cross-cell misroute; with ``--url`` the same run drives a live
  HTTP ingress over the wire,
* ``info``      — library / experiment inventory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Continuous Transfer Learning for HPC cluster "
                    "scheduling (IPDPSW 2025 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a cell archive")
    gen.add_argument("outdir", type=Path, help="archive directory to create")
    gen.add_argument("--cell", default="2019c",
                     help="2011 | 2019a | 2019c | 2019d")
    gen.add_argument("--scale", type=float, default=0.03)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--days", type=int, default=None)
    gen.add_argument("--tasks-per-day", type=int, default=1200)

    stats = sub.add_parser("stats", help="Table IX statistics for an archive")
    stats.add_argument("archive", type=Path)

    train = sub.add_parser("train", help="continuous learning experiment")
    train.add_argument("archive", type=Path)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--all-baselines", action="store_true")
    train.add_argument("--encoding", default="co-vv",
                       choices=["co-vv", "co-el"])

    sim = sub.add_parser("simulate", help="Figure 3 scheduler experiment")
    sim.add_argument("archive", type=Path)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--scan-budget", type=int, default=24)

    def add_serving_args(p, default_rate: float, default_duration: float):
        p.add_argument("archive", type=Path)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rate", type=float, default=default_rate,
                       help="offered arrival rate, tasks/second")
        p.add_argument("--duration", type=float, default=default_duration,
                       help="load duration in seconds")
        p.add_argument("--pattern", default="poisson",
                       choices=["poisson", "bursty"])
        p.add_argument("--train-steps", type=int, default=3,
                       help="growth windows used for the initial model")
        p.add_argument("--max-batch", type=int, default=64)
        p.add_argument("--max-wait-us", type=int, default=500)
        p.add_argument("--observe-every", type=int, default=4,
                       help="feed every n-th task to the trainer "
                            "(0 disables observations)")
        p.add_argument("--workers", type=int, default=1,
                       help="microbatcher worker shards per cell")
        p.add_argument("--latency-budget-ms", type=float, default=None,
                       help="per-cell latency budget: arrivals whose "
                            "projected queueing delay exceeds it are shed "
                            "(OverloadedError with a retry-after hint) "
                            "instead of queueing unboundedly")
        p.add_argument("--max-queue", type=int, default=None,
                       help="hard per-cell queue-depth cap (sheds beyond)")
        p.add_argument("--shed-policy", default="reject",
                       choices=["reject", "drop-oldest"],
                       help="reject the new arrival, or admit it and "
                            "evict the oldest queued request")
        p.add_argument("--autotune", action="store_true",
                       help="continuously re-fit microbatch size/wait to "
                            "the observed arrival rate (--max-batch / "
                            "--max-wait-us become the tuner's caps)")
        p.add_argument("--canary-fraction", type=float, default=None,
                       help="stage retrained models instead of publishing "
                            "them directly: shadow-score on a replay ring, "
                            "then canary this fraction of live traffic and "
                            "auto-rollback on regression (0.0 = shadow "
                            "gate only, publish on pass; omit to keep "
                            "immediate publishes)")
        p.add_argument("--shadow-window", type=int, default=512,
                       help="replay-ring capacity for shadow scoring "
                            "candidates before they see live traffic")
        p.add_argument("--rollback-on", default="accuracy,confidence,"
                                                "agreement",
                       metavar="SIGNALS",
                       help="comma-separated regression signals armed for "
                            "shadow rejection and canary rollback "
                            "(subset of: accuracy, confidence, agreement)")
        p.add_argument("--drift-threshold", type=float, default=None,
                       help="retrain when the label distribution over the "
                            "live window drifts this far (total-variation "
                            "distance, 0..1) from the last published "
                            "model's training mix, even before vocabulary "
                            "growth would trigger")
        p.add_argument("--cells", default=None, metavar="PROFILES",
                       help="comma-separated extra cell profiles (e.g. "
                            "'2019a,2019d'): each is synthesized, trained, "
                            "and served behind a multi-cell router next to "
                            "the archive's cell; the load interleaves all "
                            "cells and audits for cross-cell misroutes")

    serve = sub.add_parser(
        "serve", help="real-time classification service over an archive")
    add_serving_args(serve, default_rate=2000.0, default_duration=10.0)
    serve.add_argument("--growth-threshold", type=int, default=4)
    serve.add_argument("--min-observations", type=int, default=200)
    serve.add_argument("--no-trainer", action="store_true",
                       help="serve the initial model without retraining")
    serve.add_argument("--http-port", type=int, default=None,
                       help="expose the stack over an HTTP ingress on this "
                            "port (0 = ephemeral) and serve until "
                            "interrupted, instead of running the built-in "
                            "load generator")
    serve.add_argument("--http-host", default="127.0.0.1",
                       help="bind address for --http-port")
    serve.add_argument("--http-listeners", type=int, default=1,
                       help="threaded ingress servers sharing the port via "
                            "SO_REUSEPORT (the kernel balances connections "
                            "across them; all serve one in-process stack)")
    serve.add_argument("--staleness-budget", type=float, default=None,
                       metavar="SECONDS",
                       help="/healthz turns 503 when a cell's served model "
                            "is older than this budget")
    serve.add_argument("--state-dir", type=Path, default=None,
                       metavar="DIR",
                       help="durable state root: warm-restore the newest "
                            "checkpoint from it at boot and checkpoint "
                            "every published model into it (per-cell "
                            "subdirectories behind --cells); a restart "
                            "resumes serving at the restored model version")
    serve.add_argument("--supervise", action="store_true",
                       help="run the per-cell supervisor + circuit "
                            "breaker: wedged workers trip the breaker "
                            "(503 + Retry-After), a dead trainer is "
                            "restarted with backoff, a crash-looping one "
                            "is suspended into degraded serving")

    loadtest = sub.add_parser(
        "loadtest", help="measure service throughput and tail latency")
    add_serving_args(loadtest, default_rate=8000.0, default_duration=5.0)
    loadtest.add_argument("--growth-threshold", type=int, default=4)
    loadtest.add_argument("--min-observations", type=int, default=200)
    loadtest.add_argument("--no-trainer", action="store_true")
    loadtest.add_argument("--json", action="store_true",
                          help="emit the report as one JSON object")
    loadtest.add_argument("--url", default=None,
                          help="drive a running HTTP ingress (e.g. "
                               "http://127.0.0.1:8080) over the wire "
                               "instead of an in-process stack; the "
                               "archive (and --cells) only provide the "
                               "task corpora")
    loadtest.add_argument("--http-connections", type=int, default=4,
                          help="keep-alive sender connections in --url "
                               "mode")
    loadtest.add_argument("--http-batch", type=int, default=1,
                          help="in --url mode, coalesce each sender's "
                               "backlog into batched /classify bodies of "
                               "up to this many tasks per round trip")

    lint = sub.add_parser(
        "lint", help="concurrency lint: lock discipline, blocking calls "
                     "under locks, lock-order cycles")
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to check "
                           "(default: src/repro)")
    lint.add_argument("--dot", type=Path, default=None, metavar="FILE",
                      help="write the static lock-order graph as "
                           "Graphviz DOT")
    lint.add_argument("--json", action="store_true",
                      help="emit the full report as one JSON object")

    sub.add_parser("info", help="library and experiment inventory")
    return parser


def _cmd_generate(args) -> int:
    from .trace import CellArchive, generate_cell

    cell = generate_cell(args.cell, scale=args.scale, seed=args.seed,
                         days=args.days, tasks_per_day=args.tasks_per_day)
    CellArchive(args.outdir).save(cell)
    print(f"{cell.name}: {cell.n_machines} machines, "
          f"{len(cell.trace):,} events, {len(cell.step_times)} growth "
          f"steps -> {args.outdir}")
    return 0


def _cmd_stats(args) -> int:
    from .analysis import co_distribution, render_table
    from .trace import CellArchive

    cell = CellArchive(args.archive).load()
    dist = co_distribution(cell)
    print(render_table(
        ["Cell", "Vol min", "Vol max", "Vol avg", "CPU min", "CPU max",
         "CPU avg", "Mem min", "Mem max", "Mem avg"],
        [[cell.name, *dist.by_volume.as_percent(),
          *dist.by_cpu.as_percent(), *dist.by_mem.as_percent()]],
        title="TABLE IX — DISTRIBUTION OF TASKS WITH CO"))
    print(f"\n{dist.n_tasks_with_co:,} constrained of {dist.n_tasks:,} "
          f"tasks")
    return 0


def _cmd_train(args) -> int:
    from .analysis import epoch_reduction, table_xi_report
    from .core import (BENCH_CONFIG, ContinuousLearningDriver,
                       FullyRetrainModel, GrowingModel, baseline_suite)
    from .datasets import build_step_datasets
    from .trace import CellArchive

    cell = CellArchive(args.archive).load()
    result = build_step_datasets(cell, encoding=args.encoding)
    models: dict[str, object] = {
        "Growing": GrowingModel(BENCH_CONFIG,
                                rng=np.random.default_rng(args.seed + 1)),
        "Fully Retrain": FullyRetrainModel(
            BENCH_CONFIG, rng=np.random.default_rng(args.seed + 2)),
    }
    if args.all_baselines:
        models.update(baseline_suite(
            BENCH_CONFIG, rng=np.random.default_rng(args.seed + 3)))
    driver = ContinuousLearningDriver(models,
                                      batch_size=BENCH_CONFIG.batch_size,
                                      rng=np.random.default_rng(args.seed))
    run = driver.run(result.steps, cell_name=cell.name)
    print(table_xi_report(run))
    print()
    for name, summary in run.summaries().items():
        f1 = ("—" if summary.avg_group_0_f1 is None
              else f"{summary.avg_group_0_f1:.5f}")
        print(f"{name:>18}: acc {summary.avg_accuracy:.5f}  F1_0 {f1}  "
              f"epochs {summary.epochs_total}")
    print(f"\nepoch reduction (Growing vs Fully Retrain): "
          f"{epoch_reduction(run):.0%}")
    return 0


def _cmd_simulate(args) -> int:
    from .core import BENCH_CONFIG, GrowingModel
    from .datasets import DatasetData, build_step_datasets
    from .sim import SimulationConfig, SimulationEngine, TaskCOAnalyzer
    from .trace import CellArchive

    cell = CellArchive(args.archive).load()
    result = build_step_datasets(cell)
    model = GrowingModel(BENCH_CONFIG,
                         rng=np.random.default_rng(args.seed + 1))
    for step in result.steps:
        if step.n_samples < 8:
            continue
        model.fit_step(DatasetData(step.X, step.y,
                                   batch_size=BENCH_CONFIG.batch_size,
                                   rng=np.random.default_rng(step.step_index)))
    config = SimulationConfig(scan_budget=args.scan_budget)
    baseline = SimulationEngine(config).run(cell)
    analyzer = TaskCOAnalyzer(model, result.registry, route_threshold=0)
    enhanced = SimulationEngine(config, analyzer=analyzer).run(cell)
    b = baseline.recorder.summary_restrictive()
    e = enhanced.recorder.summary_restrictive()
    print(f"restrictive tasks: baseline mean {b.mean_s:.2f}s "
          f"(n={b.count}) -> enhanced mean {e.mean_s:.2f}s (n={e.count})")
    print(f"all tasks: baseline {baseline.recorder.summary_all().mean_s:.2f}s "
          f"-> enhanced {enhanced.recorder.summary_all().mean_s:.2f}s")
    print(f"speedup on restrictive population: "
          f"{enhanced.restrictive_speedup_vs(baseline):.1f}x")
    return 0


def _train_initial_model(result, train_steps: int, seed: int):
    """A GrowingModel fitted on the first viable growth windows."""

    from .core import BENCH_CONFIG, GrowingModel
    from .datasets import DatasetData

    model = GrowingModel(BENCH_CONFIG, rng=np.random.default_rng(seed))
    for step in result.steps[:max(1, train_steps)]:
        if step.n_samples < 8 or len(np.unique(step.y)) < 2:
            continue
        model.fit_step(DatasetData(step.X, step.y,
                                   batch_size=BENCH_CONFIG.batch_size,
                                   rng=np.random.default_rng(step.step_index)))
    return model if model.features_count is not None else None


def _parse_cell_profiles(spec: str | None) -> list[str]:
    return [name for name in (spec or "").replace(" ", "").split(",")
            if name]


def _extra_cells(args, home: str) -> list[tuple[int, str, object]]:
    """``(k, cell id, pipeline result)`` for every ``--cells`` profile.

    ``serve --cells`` and ``loadtest --url --cells`` both name and seed
    their extra cells here, so a wire load run addresses exactly the
    cell ids, in the same order, that the server registered.  A profile
    repeating an id already taken gets a ``#<k+1>`` suffix.
    """

    from .datasets import build_step_datasets
    from .trace import generate_cell

    taken = {home}
    cells = []
    for k, profile in enumerate(_parse_cell_profiles(args.cells)):
        extra_cell = generate_cell(profile, scale=0.02,
                                   seed=args.seed + 10 + k, days=3,
                                   tasks_per_day=400)
        extra_result = build_step_datasets(extra_cell)
        if not extra_result.tasks:
            raise SystemExit(f"profile {profile} produced no constrained "
                             f"tasks")
        cell_id = extra_cell.name
        if cell_id in taken:
            cell_id = f"{cell_id}#{k + 1}"
        taken.add(cell_id)
        cells.append((k, cell_id, extra_result))
    return cells


def _serving_setup(args):
    """Shared serve/loadtest bring-up.

    Returns ``(cell, result, model, target, corpora)`` where ``target``
    is a single :class:`~repro.serve.ClassificationService`, or a
    :class:`~repro.serve.CellRouter` (with a ``corpora`` mapping) when
    ``--cells`` adds extra profile-synthesized cells.
    """

    from .datasets import build_step_datasets
    from .serve import (CellConfig, CellRouter, ClassificationService,
                        RolloutPolicy)
    from .sim import RetrainPolicy
    from .trace import CellArchive

    cell = CellArchive(args.archive).load()
    result = build_step_datasets(cell)
    if not result.tasks:
        raise SystemExit("archive has no constrained tasks to serve")
    model = _train_initial_model(result, args.train_steps, args.seed + 1)
    if model is None:
        raise SystemExit("no growth window had enough samples to train on")

    def policy():
        return RetrainPolicy(growth_threshold=args.growth_threshold,
                             min_observations=args.min_observations,
                             drift_threshold=args.drift_threshold)

    rollout = None
    if args.canary_fraction is not None:
        try:
            rollout = RolloutPolicy(
                canary_fraction=args.canary_fraction,
                shadow_window=args.shadow_window,
                rollback_on=RolloutPolicy.parse_rollback_on(
                    args.rollback_on))
        except ValueError as exc:
            raise SystemExit(f"bad rollout flags: {exc}") from None
    # loadtest has no durability/supervision flags; getattr keeps the
    # shared bring-up working for both subcommands.
    config = CellConfig(max_batch=args.max_batch,
                        max_wait_us=args.max_wait_us,
                        n_workers=args.workers,
                        latency_budget_ms=args.latency_budget_ms,
                        max_queue=args.max_queue,
                        shed_policy=args.shed_policy,
                        autotune=args.autotune, rollout=rollout,
                        supervise=getattr(args, "supervise", False))
    state_dir = getattr(args, "state_dir", None)
    state_dir = None if state_dir is None else str(state_dir)
    extra_cells = _extra_cells(args, cell.name)
    if not extra_cells:
        service = ClassificationService(
            model, result.registry, config, trainer=not args.no_trainer,
            policy=policy(), state_dir=state_dir,
            rng=np.random.default_rng(args.seed + 2))
        return cell, result, model, service, None

    router = CellRouter(config, state_dir=state_dir)
    router.add_cell(cell.name, model, result.registry,
                    trainer=not args.no_trainer, policy=policy(),
                    rng=np.random.default_rng(args.seed + 2))
    corpora = {cell.name: (result.tasks, result.labels)}
    for k, cell_id, extra_result in extra_cells:
        extra_model = _train_initial_model(extra_result, args.train_steps,
                                           args.seed + 20 + k)
        if extra_model is None:
            raise SystemExit(f"cell {cell_id}: no trainable growth window")
        router.add_cell(cell_id, extra_model, extra_result.registry,
                        trainer=not args.no_trainer, policy=policy(),
                        rng=np.random.default_rng(args.seed + 30 + k))
        corpora[cell_id] = (extra_result.tasks, extra_result.labels)
    return cell, result, model, router, corpora


def _corpora_setup(args):
    """Task corpora for ``loadtest --url`` — no local models, no serving.

    Cells are named by :func:`_extra_cells`, as in :func:`_serving_setup`.
    """

    from .datasets import build_step_datasets
    from .trace import CellArchive

    cell = CellArchive(args.archive).load()
    result = build_step_datasets(cell)
    if not result.tasks:
        raise SystemExit("archive has no constrained tasks to replay")
    extra_cells = _extra_cells(args, cell.name)
    if not extra_cells:
        return result, None
    corpora = {cell.name: (result.tasks, result.labels)}
    for _k, cell_id, extra_result in extra_cells:
        corpora[cell_id] = (extra_result.tasks, extra_result.labels)
    return result, corpora


def _run_load(args, target, result, corpora):
    from .serve import LoadGenerator

    observe = 0 if args.no_trainer else args.observe_every
    if corpora is None:
        generator = LoadGenerator(
            target, result.tasks, result.labels, rate=args.rate,
            duration_s=args.duration, pattern=args.pattern,
            observe_every=observe, rng=np.random.default_rng(args.seed + 3))
    else:
        generator = LoadGenerator(
            target, corpora=corpora, rate=args.rate,
            duration_s=args.duration, pattern=args.pattern,
            observe_every=observe, swap_midstream=True,
            rng=np.random.default_rng(args.seed + 3))
    return generator.run()


def _run_load_http(args, result, corpora):
    from .serve import LoadGenerator

    observe = 0 if args.no_trainer else args.observe_every
    kwargs = dict(rate=args.rate, duration_s=args.duration,
                  pattern=args.pattern, observe_every=observe,
                  url=args.url, http_connections=args.http_connections,
                  http_batch=args.http_batch,
                  rng=np.random.default_rng(args.seed + 3))
    if corpora is None:
        generator = LoadGenerator(tasks=result.tasks, labels=result.labels,
                                  **kwargs)
    else:
        generator = LoadGenerator(corpora=corpora, **kwargs)
    return generator.run()


def _print_trainer_summary(service, prefix: str = "  ") -> None:
    if service.trainer is None:
        return
    for update in service.trainer.updates:
        print(f"{prefix}hot-swap -> v{update.version}: "
              f"{update.features_before} -> {update.features_after} "
              f"features, {update.epochs} epochs, "
              f"acc {update.accuracy:.3f}, "
              f"{update.train_seconds:.2f}s trigger->publish "
              f"({'fused' if update.fused else 'eager'}; closed a "
              f"{update.staleness_closed_s:.2f}s staleness window)")
    if service.trainer.failed_updates:
        print(f"{prefix}({service.trainer.failed_updates} retrain "
              f"attempt(s) did not reach the acceptance thresholds)")
    if not service.trainer.updates:
        print(f"{prefix}(no retrain published during the run)")


def _serve_http(args, target, corpora) -> int:
    """Expose the stack over an HTTP ingress until interrupted."""

    import signal
    import threading

    from .serve import DEFAULT_CELL, HttpIngress

    ingress = HttpIngress(target, host=args.http_host, port=args.http_port,
                          staleness_budget_s=args.staleness_budget,
                          n_listeners=args.http_listeners)
    stop = threading.Event()

    def _request_stop(_signum, _frame):
        stop.set()

    # Signal handlers only install from the main thread (tests drive
    # main() from workers); Ctrl-C still lands as KeyboardInterrupt.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, _request_stop)
        signal.signal(signal.SIGTERM, _request_stop)
    with target, ingress:
        cells = (sorted(corpora) if corpora is not None else [DEFAULT_CELL])
        print(f"HTTP ingress on {ingress.url} "
              f"(cells: {', '.join(cells)})")
        print(f"  POST {ingress.url}/classify  |  GET {ingress.url}/metrics"
              f"  |  GET {ingress.url}/healthz", flush=True)
        try:
            while not stop.wait(0.2):
                pass
        except KeyboardInterrupt:
            pass
        print("shutting down", flush=True)
    return 0


def _cmd_serve(args) -> int:
    cell, result, model, target, corpora = _serving_setup(args)
    if args.http_port is not None:
        return _serve_http(args, target, corpora)
    if corpora is None:
        print(f"{cell.name}: serving {model.features_count}-feature model "
              f"(registry spans {result.registry.features_count}); corpus "
              f"of {len(result.tasks):,} constrained tasks "
              f"({args.workers} worker(s))")
        with target:
            report = _run_load(args, target, result, corpora)
        print(report)
        _print_trainer_summary(target)
        return 0

    print(f"routing {len(corpora)} cells ({args.workers} worker(s) each):")
    for cell_id, (tasks, _labels) in corpora.items():
        width = target.service(cell_id).handle.snapshot().features_count
        print(f"  {cell_id}: {width}-feature model, corpus of "
              f"{len(tasks):,} constrained tasks")
    with target:
        report = _run_load(args, target, result, corpora)
    print(report)
    for cell_id in corpora:
        print(f"  {cell_id}:")
        _print_trainer_summary(target.service(cell_id), prefix="    ")
    return 0


def _cmd_loadtest(args) -> int:
    import json as _json

    if args.url is not None:
        result, corpora = _corpora_setup(args)
        report = _run_load_http(args, result, corpora)
    else:
        _cell, result, _model, target, corpora = _serving_setup(args)
        with target:
            report = _run_load(args, target, result, corpora)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report)
        lat = report.latency
        print(f"  latency: mean {lat.mean_us:.0f}µs  p50 {lat.p50_us:.0f}µs "
              f"p95 {lat.p95_us:.0f}µs  p99 {lat.p99_us:.0f}µs  "
              f"max {lat.max_us:.0f}µs")
        print(f"  batches: {report.batches} (largest {report.largest_batch})"
              f"; versions served: {report.versions_served}")
        if report.trainer_updates:
            print(f"  freshness: model {report.model_staleness_s:.2f}s old "
                  f"at run end; last retrain->publish "
                  f"{report.last_train_seconds:.2f}s")
        if report.n_shed or report.n_evicted or report.n_expired:
            print(f"  overload: accepted {report.n_accepted:,} of "
                  f"{report.n_requests:,} ({report.accept_rate:.0%}), shed "
                  f"{report.n_shed:,} at the gate + {report.n_evicted:,} "
                  f"evicted + {report.n_expired:,} expired; "
                  f"goodput {report.goodput_rps:,.0f}/s")
        if report.per_cell:
            print(f"  per-cell completions: {report.per_cell}; "
                  f"misroutes: {report.n_misrouted} of {report.n_audited} "
                  f"audited")
            if any(report.per_cell_shed.values()):
                print(f"  per-cell shed: {report.per_cell_shed}")
    # Lost requests (accepted but never classified) and misroutes are
    # hard failures; shed work under an explicit budget is not.
    return 1 if (report.n_dropped or report.n_misrouted) else 0


def _cmd_lint(args) -> int:
    import json as _json

    from .analysis.concur import run_lint

    report = run_lint([str(p) for p in args.paths],
                      dot_path=None if args.dot is None else str(args.dot))
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
        if args.dot is not None:
            print(f"lock-order graph -> {args.dot}")
    return 0 if report.ok else 1


def _cmd_info(_args) -> int:
    from . import __version__

    print(f"repro {__version__} — reproduction of Sliwko & "
          f"Mizera-Pietraszko, IPDPSW 2025")
    print("subsystems: nn (autograd), learn (baselines), constraints, "
          "trace, datasets, core (CTLM), sim, serve (real-time service), "
          "analysis")
    print("experiments: Tables V-XI, Figures 1-3, §V timing, §VI "
          "ablations — see benchmarks/ and EXPERIMENTS.md")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "loadtest": _cmd_loadtest,
    "lint": _cmd_lint,
    "info": _cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
