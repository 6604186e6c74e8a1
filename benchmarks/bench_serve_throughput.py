"""Serving throughput — the real-time Task CO Analyzer under open load.

The paper's deployment claim is *near real-time* classification of every
arriving constrained task.  This bench deploys the CTLM model behind the
``repro.serve`` stack (microbatching + hot-swappable model slot), offers
an open-loop Poisson stream replayed from the standard bench cell, and
measures delivered throughput and tail latency.

Floors, tightened as the stack got faster:

* eager single worker (a plan-less model, the fallback path): ≥ 5,000
  classifications/second with nothing dropped — the original PR-1 floor;
* **compiled** single worker (the fused ``InferencePlan`` fast path):
  ≥ 10,000/s, i.e. 2× the eager floor, with every batch served through
  the plan and predictions bit-identical to the eager oracle;
* compiled 4-worker sharded: ≥ 2× the 5k/s single-worker floor (the
  PR-2 floor was 1.5×).

The HTTP variant puts the same compiled stack behind the
:class:`~repro.serve.HttpIngress` and replays load over real sockets —
the floor is deliberately conservative (the wire path is bounded by the
HTTP round-trip, not the classifier) and the recorded section tracks the
wire-overhead p50 delta against the in-process fast path.  The batched
HTTP variant amortizes that round-trip: senders coalesce their backlog
into ``{"tasks": [...]}`` bodies against a 2-listener SO_REUSEPORT
ingress and must clear a floor several multiples of the single-task
wire ceiling, with a clean wire-level misroute audit.

The overload variant offers a bursty stream at ≥ 3× the measured
sustainable rate behind admission control: the service must shed rather
than queue unboundedly (p99 of *accepted* requests under the configured
latency budget, ``accepted + shed == submitted`` exactly), and the
arrival-rate autotuner must deliver goodput at least matching the
fixed-batch baseline.

Every test also records a machine-readable section into
``BENCH_serve.json`` (see ``_common.record_serve_bench``) so the perf
trajectory — including the fast-path-vs-eager speedup — is tracked
across PRs; CI uploads the file as an artifact.

Run:  python -m pytest benchmarks/bench_serve_throughput.py -q -s \\
          --benchmark-json=serve_throughput.json
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import render_table
from repro.core import BENCH_CONFIG, GrowingModel
from repro.datasets import COVVEncoder, DatasetData
from repro.serve import (CellConfig, ClassificationService, LoadGenerator,
                         ModelHandle)

from _common import (SEED, PlanlessModel, bench_pipeline,
                     record_serve_bench)

EAGER_OFFERED_RATE = 12_000.0
FASTPATH_OFFERED_RATE = 24_000.0
DURATION_S = 2.0
THROUGHPUT_FLOOR = 5_000.0
FASTPATH_THROUGHPUT_FLOOR = 2 * THROUGHPUT_FLOOR
SHARDED_WORKERS = 4
SHARDED_OFFERED_RATE = 24_000.0
SHARDED_THROUGHPUT_FLOOR = 2 * THROUGHPUT_FLOOR
# Bursty overload: ≥3× the single-worker delivered rate, compressed 4×
# into burst windows — instantaneous arrivals far outrun any drain rate
# the stack can reach.
OVERLOAD_RATE = 48_000.0
OVERLOAD_BUDGET_MS = 50.0
# HTTP ingress: the wire path is bounded by the per-request HTTP
# round-trip (threaded WSGI servers + a small keep-alive sender pool),
# not by the classification stack — single-task bodies saturate this
# host near ~1k/s with the pre-Flask fast path (was ~850/s through
# Flask routing), so the bench offers well under that and floors
# conservatively.  The point of the section is the wire-overhead delta
# against the in-process fast path, not a throughput race.
HTTP_OFFERED_RATE = 600.0
HTTP_CONNECTIONS = 8
HTTP_THROUGHPUT_FLOOR = 300.0
# Batched wire path: senders coalesce their backlog into {"tasks": []}
# bodies (one round trip per batch) against a 2-listener SO_REUSEPORT
# ingress — the per-request round-trip amortizes away and the wire
# clears multiples of the single-task ceiling.
HTTP_BATCHED_OFFERED_RATE = 8_000.0
HTTP_BATCH = 32
HTTP_LISTENERS = 2
HTTP_BATCHED_THROUGHPUT_FLOOR = 2_000.0

_throughput: dict[str, float] = {}
_latency_p50: dict[str, float] = {}


@pytest.fixture(scope="module")
def deployment():
    """Pipeline output + a model trained on the early growth windows."""

    result = bench_pipeline("clusterdata-2019c")
    model = GrowingModel(BENCH_CONFIG, rng=np.random.default_rng(SEED + 5))
    for step in result.steps[:3]:
        if step.n_samples < 8 or len(np.unique(step.y)) < 2:
            continue
        model.fit_step(DatasetData(step.X, step.y,
                                   batch_size=BENCH_CONFIG.batch_size,
                                   rng=np.random.default_rng(step.step_index)))
    assert model.features_count is not None
    return model, result


def _report_payload(report, **extra) -> dict:
    lat = report.latency
    payload = {
        "offered_rps": report.offered_rate,
        "throughput_rps": report.throughput_rps,
        "n_completed": report.n_completed,
        "p50_us": lat.p50_us, "p95_us": lat.p95_us, "p99_us": lat.p99_us,
        "max_us": lat.max_us, "dropped": report.n_dropped,
    }
    payload.update(extra)
    return payload


def test_serve_throughput(deployment, benchmark):
    """Eager single worker (the model behind a plan-less wrapper): the
    fallback path must still clear the original 5k/s floor."""

    model, result = deployment
    eager = PlanlessModel(model)
    service = ClassificationService(eager, result.registry,
                                    CellConfig(max_batch=64, max_wait_us=500),
                                    trainer=False)
    with service:
        report = LoadGenerator(
            service, result.tasks, result.labels, rate=EAGER_OFFERED_RATE,
            duration_s=DURATION_S,
            rng=np.random.default_rng(SEED + 6)).run()
    stats = service.stats()

    lat = report.latency
    print()
    print(render_table(
        ["Offered /s", "Delivered /s", "n", "p50 µs", "p95 µs", "p99 µs",
         "max µs", "dropped", "batches", "largest"],
        [[f"{report.offered_rate:,.0f}", f"{report.throughput_rps:,.0f}",
          f"{report.n_completed:,}", f"{lat.p50_us:.0f}",
          f"{lat.p95_us:.0f}", f"{lat.p99_us:.0f}", f"{lat.max_us:.0f}",
          report.n_dropped, report.batches, report.largest_batch]],
        title="SERVE — EAGER OPEN-LOOP THROUGHPUT (clusterdata-2019c)"))

    # Shape claims.
    assert report.n_dropped == 0
    assert report.throughput_rps >= THROUGHPUT_FLOOR
    assert lat.p99_us > 0
    # A plan-less model must keep every batch on the eager path.
    assert stats.compiled_batches == 0
    _throughput["eager"] = report.throughput_rps
    record_serve_bench("eager_single_worker", _report_payload(report))

    # Results ride along in the benchmark JSON (perf trajectory).
    benchmark.extra_info.update(report.to_dict())

    # Benchmark unit: one full 64-task microbatch through the service.
    batch = result.tasks[:64]

    def classify_batch():
        requests = [service_bench.submit(task) for task in batch]
        for request in requests:
            request.wait(5)
        return requests

    service_bench = ClassificationService(eager, result.registry,
                                          CellConfig(max_batch=64,
                                                     max_wait_us=200),
                                          trainer=False)
    with service_bench:
        benchmark(classify_batch)


def _model_level_batch_us(fn, n_iter: int = 200, repeats: int = 5) -> float:
    """Best-of-``repeats`` mean microseconds per call of ``fn``."""

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n_iter):
            fn()
        best = min(best, (time.perf_counter() - start) / n_iter)
    return best * 1e6


def test_serve_throughput_fastpath(deployment, benchmark):
    """Compiled single worker: ≥ 2× the eager floor, every batch on the
    plan, and predictions bit-identical to the eager oracle."""

    model, result = deployment
    service = ClassificationService(model, result.registry,
                                    CellConfig(max_batch=64, max_wait_us=500),
                                    trainer=False)
    with service:
        report = LoadGenerator(
            service, result.tasks, result.labels,
            rate=FASTPATH_OFFERED_RATE, duration_s=DURATION_S,
            rng=np.random.default_rng(SEED + 6)).run()
    stats = service.stats()

    # Equivalence suite: the compiled plan must agree with the eager
    # model bit-for-bit on the whole replay corpus, encoded at the full
    # registry width (wider than the model — the align/slice case).
    handle = ModelHandle()
    snapshot = handle.publish(model)
    plan = snapshot.plan
    assert plan is not None and plan.model_version == snapshot.version
    encoder = COVVEncoder(result.registry)
    scratch = plan.scratch(512)
    for start in range(0, len(result.tasks), 512):
        chunk = result.tasks[start:start + 512]
        X = encoder.encode_rows(chunk)
        fast = plan.predict(X, scratch)
        eager = snapshot.predict(snapshot.align(X.toarray()))
        assert np.array_equal(fast, eager), \
            f"fast path diverged from eager oracle in chunk @{start}"

    # Model-level speedup (encode + classify one 64-task microbatch):
    # the open-loop numbers above are producer-bound on small hosts, so
    # the per-batch cost is what tracks the fast path's win.
    batch = result.tasks[:64]
    plan_us = _model_level_batch_us(
        lambda: plan.predict(encoder.encode_rows(batch), scratch))

    def eager_batch():
        X = encoder.encode_rows(batch)
        return snapshot.predict(snapshot.align(X.toarray()))

    eager_us = _model_level_batch_us(eager_batch)
    speedup = eager_us / plan_us

    lat = report.latency
    eager_rps = _throughput.get("eager")
    print()
    print(render_table(
        ["Offered /s", "Delivered /s", "vs eager", "p50 µs", "p99 µs",
         "dropped", "compiled batches", "batch µs (plan/eager)"],
        [[f"{report.offered_rate:,.0f}", f"{report.throughput_rps:,.0f}",
          "—" if eager_rps is None
          else f"{report.throughput_rps / eager_rps:.2f}x",
          f"{lat.p50_us:.0f}", f"{lat.p99_us:.0f}", report.n_dropped,
          f"{stats.compiled_batches}/{stats.batches}",
          f"{plan_us:.0f}/{eager_us:.0f} ({speedup:.1f}x)"]],
        title="SERVE — COMPILED FAST-PATH THROUGHPUT (clusterdata-2019c)"))

    assert report.n_dropped == 0
    assert report.throughput_rps >= FASTPATH_THROUGHPUT_FLOOR
    # Every served batch went through the compiled plan…
    assert stats.compiled_batches == stats.batches > 0
    # …and the fused forward beats the eager Module path per batch.
    assert speedup >= 1.0

    _throughput["fastpath"] = report.throughput_rps
    _latency_p50["fastpath"] = lat.p50_us
    record_serve_bench("fastpath_single_worker", _report_payload(
        report,
        compiled_batches=stats.compiled_batches,
        model_level_batch_us={"plan": plan_us, "eager": eager_us},
        fastpath_vs_eager_speedup=speedup))

    benchmark.extra_info.update(report.to_dict())
    benchmark.extra_info["fastpath_vs_eager_speedup"] = speedup

    # Benchmark unit: one full 64-task microbatch through the compiled
    # service.
    def classify_batch():
        requests = [service_bench.submit(task) for task in batch]
        for request in requests:
            request.wait(5)
        return requests

    service_bench = ClassificationService(model, result.registry,
                                          CellConfig(max_batch=64,
                                                     max_wait_us=200),
                                          trainer=False)
    with service_bench:
        benchmark(classify_batch)


def test_serve_throughput_sharded(deployment, benchmark):
    """4 compiled batcher shards over the shared queue: the sharded
    floor is 2× the single-worker floor, with zero drops and every
    shard's counters adding up."""

    model, result = deployment
    service = ClassificationService(model, result.registry,
                                    CellConfig(max_batch=64, max_wait_us=500,
                                               n_workers=SHARDED_WORKERS),
                                    trainer=False)
    with service:
        report = LoadGenerator(
            service, result.tasks, result.labels,
            rate=SHARDED_OFFERED_RATE, duration_s=DURATION_S,
            rng=np.random.default_rng(SEED + 7)).run()
    stats = service.stats()

    lat = report.latency
    single = _throughput.get("fastpath")
    print()
    print(render_table(
        ["Workers", "Offered /s", "Delivered /s", "vs 1-worker",
         "p50 µs", "p99 µs", "dropped", "shard completions"],
        [[SHARDED_WORKERS, f"{report.offered_rate:,.0f}",
          f"{report.throughput_rps:,.0f}",
          "—" if single is None
          else f"{report.throughput_rps / single:.2f}x",
          f"{lat.p50_us:.0f}", f"{lat.p99_us:.0f}", report.n_dropped,
          "/".join(f"{n:,}" for n in stats.shard_completed)]],
        title="SERVE — SHARDED OPEN-LOOP THROUGHPUT (clusterdata-2019c)"))

    assert report.n_dropped == 0
    assert report.throughput_rps >= SHARDED_THROUGHPUT_FLOOR
    # Shard bookkeeping: every completion is attributed to exactly one
    # shard, the work actually spread beyond a single worker, and the
    # shards served compiled.
    assert stats.workers == SHARDED_WORKERS
    assert sum(stats.shard_completed) == report.n_completed
    assert np.count_nonzero(stats.shard_completed) >= 2
    assert stats.compiled_batches == stats.batches > 0

    record_serve_bench("compiled_sharded", _report_payload(
        report, workers=SHARDED_WORKERS,
        shard_completed=list(stats.shard_completed)))

    benchmark.extra_info.update(report.to_dict())
    benchmark.extra_info["workers"] = SHARDED_WORKERS
    benchmark.extra_info["shard_completed"] = list(stats.shard_completed)

    # Benchmark unit: one full 64-task microbatch through the sharded
    # service.
    batch = result.tasks[:64]

    def classify_batch():
        requests = [service_bench.submit(task) for task in batch]
        for request in requests:
            request.wait(5)
        return requests

    service_bench = ClassificationService(
        model, result.registry,
        CellConfig(max_batch=64, max_wait_us=200, n_workers=SHARDED_WORKERS),
        trainer=False)
    with service_bench:
        benchmark(classify_batch)


def test_serve_throughput_http(deployment, benchmark):
    """The same compiled stack behind the HTTP ingress: what a scheduler
    calling over the network sees.

    The wire path must lose nothing and clear its (deliberately
    conservative) floor; the recorded section carries the p50 delta
    against the in-process fast path so the wire overhead is tracked
    across PRs rather than argued about.  The in-process floors above
    are untouched — this section is additive.
    """

    from repro.serve import HttpIngress

    model, result = deployment
    service = ClassificationService(model, result.registry,
                                    CellConfig(max_batch=64, max_wait_us=500),
                                    trainer=False)
    with service:
        with HttpIngress(service, port=0) as ingress:
            report = LoadGenerator(
                tasks=result.tasks, labels=result.labels,
                rate=HTTP_OFFERED_RATE, duration_s=DURATION_S,
                url=ingress.url, http_connections=HTTP_CONNECTIONS,
                rng=np.random.default_rng(SEED + 10)).run()
    stats = service.stats()

    lat = report.latency
    fastpath_p50 = _latency_p50.get("fastpath")
    overhead_us = (None if fastpath_p50 is None
                   else lat.p50_us - fastpath_p50)
    print()
    print(render_table(
        ["Offered /s", "Delivered /s", "n", "p50 µs", "p99 µs", "dropped",
         "wire overhead p50"],
        [[f"{report.offered_rate:,.0f}", f"{report.throughput_rps:,.0f}",
          f"{report.n_completed:,}", f"{lat.p50_us:.0f}",
          f"{lat.p99_us:.0f}", report.n_dropped,
          "—" if overhead_us is None else f"+{overhead_us:,.0f}µs"]],
        title="SERVE — HTTP INGRESS THROUGHPUT (clusterdata-2019c)"))

    assert report.n_dropped == 0
    assert report.n_completed == report.n_requests
    assert report.throughput_rps >= HTTP_THROUGHPUT_FLOOR
    # The wire run really went through the serving stack (not a stub).
    assert stats.completed == report.n_completed
    assert stats.compiled_batches == stats.batches > 0

    _throughput["http"] = report.throughput_rps
    record_serve_bench("http_single_worker", _report_payload(
        report, http_connections=HTTP_CONNECTIONS,
        wire_overhead_p50_us=overhead_us,
        in_process_fastpath_p50_us=fastpath_p50))

    benchmark.extra_info.update(report.to_dict())

    # Benchmark unit: one classify round-trip over a warm keep-alive
    # connection (body pre-encoded — the wire cost itself).
    import json as _json
    from http.client import HTTPConnection

    service_bench = ClassificationService(model, result.registry,
                                          CellConfig(max_batch=64,
                                                     max_wait_us=200),
                                          trainer=False)
    body = _json.dumps({"task": result.tasks[0].to_dict()}).encode()

    with service_bench:
        with HttpIngress(service_bench, port=0) as ingress:
            conn = HTTPConnection("127.0.0.1", ingress.port, timeout=10)

            def classify_over_wire():
                conn.request("POST", "/classify", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = response.read()
                assert response.status == 200, payload
                return payload

            try:
                benchmark(classify_over_wire)
            finally:
                conn.close()


def test_serve_throughput_http_batched(deployment, benchmark):
    """Batched ``/classify`` bodies over a multi-listener ingress: the
    wire path with the round-trip amortized away.

    Senders coalesce their backlog into ``{"tasks": [...]}`` bodies of
    up to ``HTTP_BATCH`` tasks; the ingress runs ``HTTP_LISTENERS``
    SO_REUSEPORT servers over one serving stack.  Acceptance: zero
    drops, every task resolved exactly once, the batched floor (a
    multiple of the single-task wire ceiling), and a clean wire-level
    misroute audit through ``POST /audit``.
    """

    from repro.serve import HttpIngress

    model, result = deployment
    service = ClassificationService(model, result.registry,
                                    CellConfig(max_batch=256, max_wait_us=500),
                                    trainer=False)
    with service:
        with HttpIngress(service, port=0,
                         n_listeners=HTTP_LISTENERS) as ingress:
            report = LoadGenerator(
                tasks=result.tasks, labels=result.labels,
                rate=HTTP_BATCHED_OFFERED_RATE, duration_s=DURATION_S,
                url=ingress.url, http_connections=HTTP_CONNECTIONS,
                http_batch=HTTP_BATCH,
                rng=np.random.default_rng(SEED + 11)).run()
    stats = service.stats()

    lat = report.latency
    single_wire = _throughput.get("http")
    print()
    print(render_table(
        ["Offered /s", "Delivered /s", "vs single-task wire", "n",
         "p50 µs", "p99 µs", "dropped", "audited", "misrouted"],
        [[f"{report.offered_rate:,.0f}", f"{report.throughput_rps:,.0f}",
          "—" if single_wire is None
          else f"{report.throughput_rps / single_wire:.1f}x",
          f"{report.n_completed:,}", f"{lat.p50_us:.0f}",
          f"{lat.p99_us:.0f}", report.n_dropped, report.n_audited,
          report.n_misrouted]],
        title="SERVE — BATCHED HTTP INGRESS THROUGHPUT "
              "(clusterdata-2019c)"))

    assert report.n_dropped == 0
    assert report.n_completed == report.n_requests
    assert report.throughput_rps >= HTTP_BATCHED_THROUGHPUT_FLOOR
    # The wire-level misroute audit ran and found nothing misrouted.
    assert report.n_audited > 0
    assert report.n_misrouted == 0
    # The wire run really went through the serving stack (not a stub).
    assert stats.completed == report.n_completed
    assert stats.compiled_batches == stats.batches > 0

    record_serve_bench("http_batched", _report_payload(
        report, http_connections=HTTP_CONNECTIONS,
        http_batch=HTTP_BATCH, n_listeners=HTTP_LISTENERS,
        n_audited=report.n_audited, n_misrouted=report.n_misrouted,
        single_task_wire_rps=single_wire))

    benchmark.extra_info.update(report.to_dict())

    # Benchmark unit: one 32-task batched round trip over a warm
    # keep-alive connection (body pre-encoded — the amortized wire cost).
    import json as _json
    from http.client import HTTPConnection

    service_bench = ClassificationService(model, result.registry,
                                          CellConfig(max_batch=256,
                                                     max_wait_us=200),
                                          trainer=False)
    body = _json.dumps(
        {"tasks": [task.to_dict()
                   for task in result.tasks[:HTTP_BATCH]]}).encode()

    with service_bench:
        with HttpIngress(service_bench, port=0) as ingress:
            conn = HTTPConnection("127.0.0.1", ingress.port, timeout=10)

            def classify_batch_over_wire():
                conn.request("POST", "/classify", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = response.read()
                assert response.status == 200, payload
                return payload

            try:
                benchmark(classify_batch_over_wire)
            finally:
                conn.close()


def _overload_run(model, result, *, autotune: bool, max_batch: int):
    """One bursty overload run behind a 50 ms admission budget."""

    service = ClassificationService(
        model, result.registry,
        CellConfig(max_batch=max_batch, max_wait_us=1000,
                   latency_budget_ms=OVERLOAD_BUDGET_MS, shed_policy="reject",
                   autotune=autotune),
        trainer=False)
    with service:
        report = LoadGenerator(
            service, result.tasks, rate=OVERLOAD_RATE,
            duration_s=DURATION_S, pattern="bursty",
            rng=np.random.default_rng(SEED + 8)).run()
    return report


def test_serve_overload_autotune_goodput(deployment, benchmark):
    """Bursty overload at ≥3× sustainable: shed, don't queue unboundedly.

    Acceptance: p99 latency of *accepted* requests stays under the
    50 ms budget, ``accepted + shed == submitted`` exactly (and nothing
    accepted is lost), and the arrival-rate autotuner's goodput is ≥
    the fixed-batch baseline on the identical arrival schedule.
    """

    model, result = deployment
    fixed = _overload_run(model, result, autotune=False, max_batch=64)
    tuned = _overload_run(model, result, autotune=True, max_batch=256)

    print()
    rows = []
    for name, report in (("fixed-64", fixed), ("autotune-256", tuned)):
        lat = report.latency
        rows.append([name, f"{report.offered_rate:,.0f}",
                     f"{report.n_requests:,}", f"{report.n_accepted:,}",
                     f"{report.n_shed:,}", f"{report.accept_rate:.0%}",
                     f"{report.goodput_rps:,.0f}", f"{lat.p50_us:.0f}",
                     f"{lat.p99_us:.0f}", report.n_dropped])
    print(render_table(
        ["Batcher", "Offered /s", "Submitted", "Accepted", "Shed",
         "Accept %", "Goodput /s", "p50 µs", "p99 µs", "lost"],
        rows, title="SERVE — BURSTY OVERLOAD, ADMISSION-CONTROLLED "
                    "(clusterdata-2019c)"))

    for report in (fixed, tuned):
        # Exactly-once accounting: the gate partitions submissions,
        # terminal outcomes partition admissions; nothing is lost.
        assert report.n_requests == report.n_accepted + report.n_shed
        assert report.n_accepted == (report.n_completed + report.n_evicted
                                     + report.n_expired + report.n_dropped)
        assert report.n_dropped == 0
        # The stream genuinely overloads the cell, and the controller
        # sheds instead of letting accepted latency blow the budget.
        assert report.n_shed > 0
        assert report.latency.p99_us < OVERLOAD_BUDGET_MS * 1000.0

    # Acceptance floor: autotuned goodput at least matches the
    # fixed-batch baseline (delivered margin on a quiet host is ~25%),
    # and the tuner actually exploited its larger batch cap.
    assert tuned.goodput_rps >= fixed.goodput_rps
    assert tuned.largest_batch >= fixed.largest_batch

    record_serve_bench("bursty_overload", {
        "fixed": fixed.to_dict(), "autotuned": tuned.to_dict(),
        "budget_ms": OVERLOAD_BUDGET_MS})

    benchmark.extra_info["fixed"] = fixed.to_dict()
    benchmark.extra_info["autotuned"] = tuned.to_dict()

    # Benchmark unit: one bursty overload second through the autotuned,
    # admission-controlled service.
    service_bench = ClassificationService(
        model, result.registry,
        CellConfig(max_batch=256, max_wait_us=1000,
                   latency_budget_ms=OVERLOAD_BUDGET_MS, autotune=True),
        trainer=False)

    def overload_second():
        return LoadGenerator(
            service_bench, result.tasks, rate=OVERLOAD_RATE, duration_s=0.25,
            pattern="bursty", rng=np.random.default_rng(SEED + 9)).run()

    with service_bench:
        benchmark.pedantic(overload_second, rounds=3, iterations=1)
