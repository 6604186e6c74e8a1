"""``wire-single``: open-loop single-task ``POST /classify`` against the
production server.

The server is booted the way a deployment runs it —
``repro serve <archive> --http-port 0 --no-trainer`` in its own process
— so its heap and threads are exactly the shipped ones.  This process
sends an open-loop Poisson stream over 2 keep-alive connections and
times each request from when it was *due*.  Two phases: a fixed rate of
250 req/s, then a capacity search: an up-down staircase of short probes
that tracks the offered rate at which the p99 stays within 50 ms (the
repository's overload budget) — a growing backlog fails a probe,
because requests that fall behind their schedule miss the limit.

The HTTP layer, task decode and the 500 µs batching window dominate
here; encoding and inference are a few percent, so this workload is the
control for encoder and plan changes.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from common import (CELL_SEED, ROOT, SRC, WORK_DIR, Oracle, gc_summary,
                    median, pct, proc_cpu_s, proc_status_kib, serve_model)
from result import Result

FIXED_RATE = 250.0
LIMIT_MS = 50.0
CONNECTIONS = 2
#: Share of the run spent at the fixed rate; the rest is the search.
#: The fixed phase is cut into equal segments, one before each probe,
#: so both phases sample the whole run rather than one stretch of it.
FIXED_SHARE = 0.2
#: Capacity staircase: probes of PROBE_S seconds, the first at the
#: closed-loop ceiling of the connections at the first fixed segment's
#: mean round trip.  The rate goes up by a step after a probe that meets
#: the limit and down by it after one that misses, so it tracks the
#: rate at which a probe meets the limit half the time: COARSE_STEP
#: until the first probe on the other side of the limit, FINE_STEP
#: after.  The step stays fixed from then on, so the search follows a
#: shift in the host's speed within a few probes.  The capacity is the
#: geometric mean of the rates probed from the first crossing on, so it
#: averages over most of the search rather than hanging on its last
#: probe.
PROBE_S = 2.0
MIN_PROBES = 4
COARSE_STEP = 1.1
FINE_STEP = 1.05
#: A probe's p99 is the median over this many equal slices (in due
#: order), so one stall of the shared host does not decide a probe.
PROBE_WINDOWS = 4
#: Server boots per run; ``setup_s`` is their median.
BOOTS = 3
BOOT_TIMEOUT_S = 120.0
#: The load generator's interpreter switch interval while it sends.
SENDER_SWITCH_S = 0.0005
IO_TIMEOUT_S = 10.0

_HEAD = (b"POST /classify HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         b"Content-Type: application/json\r\nX-Request-Id: %d\r\n"
         b"Content-Length: %d\r\n\r\n")


class _Conn:
    """One HTTP/1.1 client connection with a minimal reply parser.

    The connection is kept alive while the server allows it and
    re-opened (inside the timed round trip) after a ``Connection:
    close`` reply — which the werkzeug server behind ``repro serve``
    sends on every response.
    """

    def __init__(self, port: int):
        self.port = port
        self.sock: socket.socket | None = None
        self.buf = b""

    def post(self, body: bytes, rid: int) -> tuple[int, bytes]:
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                 timeout=IO_TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.buf = b""
        self.sock.sendall(_HEAD % (rid, len(body)) + body)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length, close = 0, False
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            key = key.strip().lower()
            if key == b"content-length":
                length = int(value)
            elif key == b"connection":
                close = value.strip().lower() == b"close"
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        if close:
            self.close()
        return status, body

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def _die_with_parent() -> None:
    """In the child: SIGTERM it if the benchmark process dies first."""

    import ctypes

    ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


class _Server:
    """One ``repro serve`` process, from launch to its first 200."""

    def __init__(self, archive, first_body: bytes, spans_path=None):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        serve_args = ["serve", str(archive), "--http-port", "0",
                      "--no-trainer", "--seed", str(CELL_SEED)]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            argv = [sys.executable,
                    str(ROOT / "perfbench" / "serve_traced.py"),
                    str(spans_path), *serve_args]
        self.log = open(WORK_DIR / f"serve-{os.getpid()}.log", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.log, env=env, cwd=ROOT,
                                     preexec_fn=_die_with_parent)
        try:
            self.port = self._await_port()
            self.setup_s = self._await_first_200(first_body) - start
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace")
            if line.startswith("HTTP ingress on http://"):
                return int(line.split()[3].rsplit(":", 1)[1])
            if time.monotonic() > deadline:
                break
        raise RuntimeError("repro serve did not report its port "
                           f"(exit code {self.proc.poll()})")

    def _await_first_200(self, body: bytes) -> float:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                conn = _Conn(self.port)
                try:
                    status, _ = conn.post(body, 0)
                finally:
                    conn.close()
                if status == 200:
                    return time.perf_counter()
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve never answered 200")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (the CLI's graceful path), then wait for the exit."""

        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.proc.returncode == 0:
            os.unlink(self.log.name)  # kept only when the server failed


class _Phase:
    """Samples of one open-loop phase (preallocated; no request kept)."""

    def __init__(self, n: int, rate: float, rid_base: int):
        self.rate = rate
        #: Request ``i`` carries ``X-Request-Id: rid_base + i``.
        self.rid_base = rid_base
        self.lat_ms = np.full(n, np.inf)
        self.rtt_us = np.full(n, np.nan)
        self.lag_ms = np.full(n, np.nan)
        self.status = np.zeros(n, dtype=np.int64)
        self.group = np.full(n, -1, dtype=np.int64)
        self.version = np.full(n, -1, dtype=np.int64)
        self.sent = np.zeros(n, dtype=bool)


def _open_loop(port: int, bodies, picks, offsets_ns, duration_s: float,
               rate: float, rid_base: int) -> _Phase:
    """Send request ``i`` at ``offsets_ns[i]`` over CONNECTIONS senders.

    A request still unsent a limit past the phase's end is dropped and
    keeps an infinite latency (it missed the limit); one whose reply is
    not a 200 keeps its status for the error count.
    """

    n = len(offsets_ns)
    phase = _Phase(n, rate, rid_base)
    order = itertools.count()
    t0 = time.perf_counter_ns() + 5_000_000
    end = t0 + int((duration_s + LIMIT_MS / 1e3) * 1e9)
    errors: list[BaseException] = []

    def sender():
        conn = _Conn(port)
        try:
            while True:
                i = next(order)
                if i >= n:
                    return
                due = t0 + int(offsets_ns[i])
                delay = due - time.perf_counter_ns()
                if delay > 0:
                    time.sleep(delay / 1e9)
                sent = time.perf_counter_ns()
                if sent > end:
                    continue
                phase.lag_ms[i] = (sent - due) / 1e6
                phase.sent[i] = True
                try:
                    status, body = conn.post(bodies[picks[i]], rid_base + i)
                except OSError:
                    conn.close()
                    continue
                done = time.perf_counter_ns()
                phase.lat_ms[i] = (done - due) / 1e6
                phase.rtt_us[i] = (done - sent) / 1e3
                phase.status[i] = status
                if status == 200:
                    reply = json.loads(body)
                    phase.group[i] = reply["group"]
                    phase.version[i] = reply["model_version"]
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return phase


def _schedule(rng, rate: float, duration_s: float, n_tasks: int):
    n = int(rate * duration_s * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1e9 / rate, size=n))
    offsets = offsets[offsets < duration_s * 1e9]
    return offsets, rng.integers(0, n_tasks, size=offsets.size)


def _slice_pcts(phase: _Phase, n_slices: int, q: float) -> list[float]:
    # Dropped requests carry an infinite latency; cap it so the
    # percentile interpolation stays finite (they miss the limit anyway).
    lat = np.minimum(phase.lat_ms, 1e9)
    return [pct(part, q) for part in np.array_split(lat, n_slices)]


def _probe_score(phase: _Phase) -> float:
    """Median of the slices' p99, or the last slice's median latency
    when that is worse — a backlog that keeps growing to the end."""

    last = np.array_split(np.minimum(phase.lat_ms, 1e9), PROBE_WINDOWS)[-1]
    return max(median(_slice_pcts(phase, PROBE_WINDOWS, 99)),
               pct(last, 50))


def _measure(port, bodies, n_tasks, rng, seconds: float) -> tuple:
    """Alternate fixed-rate segments with staircase probes for
    ``seconds``; return the fixed segments and the probes (each a list
    of ``(picks, phase)``), the capacity and how many probes it
    averages."""

    n = max(MIN_PROBES, round(seconds * (1 - FIXED_SHARE) / PROBE_S))
    segment_s = seconds * FIXED_SHARE / n
    fixed, probes = [], []
    rate, rates, passed = None, [], []
    for k in range(n):
        offsets, picks = _schedule(rng, FIXED_RATE, segment_s, n_tasks)
        fixed.append((picks, _open_loop(port, bodies, picks, offsets,
                                        segment_s, FIXED_RATE,
                                        1 + k * 1_000_000)))
        if rate is None:
            rate = CONNECTIONS * 1e6 / float(np.nanmean(fixed[0][1].rtt_us))
        offsets, picks = _schedule(rng, rate, PROBE_S, n_tasks)
        phase = _open_loop(port, bodies, picks, offsets, PROBE_S, rate,
                           100_000_000 + k * 1_000_000)
        probes.append((picks, phase))
        rates.append(rate)
        passed.append(_probe_score(phase) <= LIMIT_MS)
        step = FINE_STEP if len(set(passed)) == 2 else COARSE_STEP
        rate = rate * step if passed[-1] else rate / step
    crossed = len(set(passed)) == 2
    tracked = rates[passed.index(not passed[0]) if crossed else n // 2:]
    return (fixed, probes, float(np.exp(np.mean(np.log(tracked)))),
            len(tracked))


def run(cell, seed: int, seconds: float, tracer=None,
        boots: int = BOOTS) -> Result:
    from repro.datasets import build_step_datasets
    from repro.trace import CellArchive

    archive = WORK_DIR / f"archive-{seed}-{os.getpid()}"
    shutil.rmtree(archive, ignore_errors=True)
    CellArchive(archive).save(cell)
    result = build_step_datasets(cell)
    oracle = Oracle(serve_model(result), result.registry, result.tasks,
                    version=1)
    bodies = [json.dumps({"task": task.to_dict()}).encode()
              for task in result.tasks]
    labels = np.asarray(result.labels)
    spans_path = (None if tracer is None
                  else WORK_DIR / f"spans-wire-{seed}-{os.getpid()}.json")
    setups = []
    server = None
    switch_s = sys.getswitchinterval()
    try:
        for _ in range(boots):
            if server is not None:
                server.stop()
            server = _Server(archive, bodies[0], spans_path)
            setups.append(server.setup_s)
        # The load generator's own heap (the trace and corpus it was
        # built from) is frozen out of garbage collection while it
        # sends, so its pauses cannot pose as server latency.  The
        # server, a separate process, is left as shipped.
        gc.collect()
        gc.freeze()
        # Likewise, the two sender threads hand the interpreter lock to
        # each other quickly, so one parsing a reply does not hold the
        # other's reply for a whole default 5 ms switch interval.
        sys.setswitchinterval(SENDER_SWITCH_S)
        cpu0 = proc_cpu_s(server.pid)
        measure_start = time.perf_counter_ns()
        fixed, probes, capacity, tracked = _measure(
            server.port, bodies, len(result.tasks),
            np.random.default_rng(seed), seconds)
        measure_end = time.perf_counter_ns()
        cpu = proc_cpu_s(server.pid) - cpu0
        peak_kib = proc_status_kib(server.pid, "VmHWM")
    finally:
        sys.setswitchinterval(switch_s)
        gc.unfreeze()
        if server is not None:
            server.stop()
        shutil.rmtree(archive, ignore_errors=True)

    phases = fixed + probes

    def sent(field, group=phases):
        return np.concatenate([getattr(p, field)[p.sent] for _i, p in group])

    sent_idx = np.concatenate([i[p.sent] for i, p in phases])
    wrong = oracle.wrong(sent_idx, sent("group"), sent("version"))
    fixed_idx = np.concatenate([i[p.sent] for i, p in fixed])
    fixed_group = sent("group", fixed)
    ok_fixed = sent("status", fixed) == 200
    lat = sent("lat_ms", fixed)
    res = Result(attempted=int(sent_idx.size), failed=int(wrong.sum()))
    res.metric("setup_s", median(setups), "s", len(setups))
    res.metric("classify_ms", pct(lat, 50), "ms", lat.size)
    res.metric("tasks_per_s", capacity, "tasks/s", tracked)
    res.metric("accuracy",
               float(np.mean(fixed_group[ok_fixed]
                             == labels[fixed_idx][ok_fixed])),
               "fraction", int(ok_fixed.sum()))
    res.metric("peak_rss_mb", peak_kib / 1024, "MiB", 1)
    scores = ", ".join(f"{phase.rate:.0f}/s: {_probe_score(phase):.1f} ms"
                       for _picks, phase in probes)
    res.note(f"classify latency is the p50 per request from due time at "
             f"{FIXED_RATE:.0f}/s over {len(fixed)} segments; {lat.size} of "
             f"{sum(p.sent.size for _i, p in fixed)} sent")
    res.note(f"capacity_rps = {capacity:.1f} (p99 <= {LIMIT_MS:g} ms, no "
             f"growing backlog; geometric mean of the last {tracked} of "
             f"{len(probes)} probes); probe scores: {scores}")
    lag = sent("lag_ms")
    res.layer["http.non200"] = int((sent("status") != 200).sum())
    res.layer["runtime.cpu_s"] = cpu
    res.layer["loadgen.sent"] = int(sent_idx.size)
    res.layer["loadgen.lag_p99_ms"] = pct(lag, 99)
    res.tail(lat)
    if spans_path is not None:
        _server_layers(res, spans_path, phases, measure_start, measure_end)
    return res


def _server_layers(res: Result, spans_path, phases, start_ns: int,
                   end_ns: int) -> None:
    """Fold the traced server's spans (measured window only) into ``res``:
    wire time is the client round trip minus the server's span for the
    same request id."""

    import tracing

    spans, extra = tracing.load(spans_path)
    os.unlink(spans_path)
    res.spans = [s for s in spans if start_ns <= s["start_ns"] <= end_ns]
    res.encode_tasks = extra["encode_tasks"]
    res.encode_repeats = extra["encode_repeats"]
    for key, value in gc_summary(extra["gc"], start_ns, end_ns).items():
        res.layer[f"runtime.{key}"] = value
    server_us = {s["rid"]: (s["end_ns"] - s["start_ns"]) / 1e3
                 for s in res.spans if s["name"] == "http.request"
                 and s["rid"] is not None}
    wire = []
    for _picks, phase in phases:
        for i in np.flatnonzero(phase.sent & (phase.status == 200)):
            own = server_us.get(str(phase.rid_base + i))
            if own is not None:
                wire.append(phase.rtt_us[i] - own)
    res.layer["http.wire_us_p50"] = pct(wire, 50) if wire else 0.0
