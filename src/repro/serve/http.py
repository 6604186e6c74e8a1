"""HTTP ingress for the serving stack: classification + telemetry plane.

The Task CO Analyzer is pitched as a component on the scheduler's
task-arrival path; this module gives the in-process serving stack a real
network boundary so something that is *not* a Python caller can submit
tasks and observe the service.  :func:`create_app` builds one WSGI app
over either a single :class:`~repro.serve.ClassificationService` or a
multi-cell :class:`~repro.serve.CellRouter`.  Every request is looked
up in one ``(method, path)`` dispatch table (unknown path → JSON 404,
known path under another method → JSON 405):

========  ============  ====================================================
method    path          purpose
========  ============  ====================================================
POST      /classify     classify one JSON task — or a whole ``tasks``
                        batch in one round trip (429 + ``Retry-After``
                        on overload, 404 for unknown cells)
POST      /observe      feed one labelled observation to the training loop
POST      /audit        re-classify a task under the exact past model
                        version that served it (410 once evicted)
GET       /metrics      Prometheus text exposition (0.0.4)
GET       /stats        full JSON stats + admission snapshots + stage
                        histograms + event-log tail
GET       /healthz      liveness/readiness: trainer thread, staleness
                        budget, queue saturation — 200 or 503
GET       /cells        registered cell ids
========  ============  ====================================================

Tasks travel as the :meth:`~repro.constraints.CompactedTask.to_dict`
wire format (``{"specs": [{"attribute": ..., "lo": ..., ...}]}``).

Batched bodies amortize the wire: ``{"tasks": [...], "cell": ...}``
submits the whole list through one batcher round trip and returns
``{"results": [...]}`` with one entry per task **in task order** —
successes carry the single-task response shape, per-task failures are
``{"error": ..., "status": ...}`` entries (an unparsable task is a
per-item 400; a shed batch is a whole-body 429 — admission prices the
batch as a unit and never partially admits a wire body).

:class:`HttpIngress` serves the app from stdlib
:class:`~http.server.ThreadingHTTPServer` with an HTTP/1.1 keep-alive
handler, one server per pre-bound listener socket.  The server threads
share the process with the serving stack — the ingress is a boundary,
not an isolation layer.
"""

from __future__ import annotations

import io
import json
import logging
import math
import socket
import threading
import time
from http.client import responses as _HTTP_REASONS
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from socketserver import BaseServer
from typing import TYPE_CHECKING

from ..constraints.compaction import CompactedTask
from ..errors import (
    CircuitOpenError,
    NotServingError,
    OverloadedError,
    ServiceClosedError,
    UnknownCellError,
)
from .supervise import BREAKER_OPEN
from .telemetry import render_prometheus

if TYPE_CHECKING:  # pragma: no cover
    from .service import ClassificationService

__all__ = ["DEFAULT_CELL", "create_app", "HttpIngress"]

logger = logging.getLogger(__name__)

#: Cell id a bare (router-less) service is exported under.
DEFAULT_CELL = "default"

_CLASSIFY_TIMEOUT_S = 5.0
#: Upper bound a client may set via ``timeout_s`` — a handler thread is
#: parked for the duration, so the wire contract caps it.
_MAX_TIMEOUT_S = 60.0
#: Upper bound on ``tasks`` entries per batched body: bounds the memory
#: one request can pin and keeps a single body within one admission
#: decision's meaningful range.
_MAX_BATCH_TASKS = 4096
#: Largest request body the ingress reads; a batch of ``_MAX_BATCH_TASKS``
#: tasks is a few MiB.
_MAX_BODY_BYTES = 64 << 20
_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


class _Target:
    """Uniform view over a service or a router (the app's one backend)."""

    def __init__(self, target):
        # Duck-typed on the router's ``cells`` tuple: avoids importing
        # the concrete classes here and keeps test doubles workable.
        self.router = target if hasattr(target, "cells") else None
        self.service_single = None if self.router is not None else target

    def services(self) -> dict[str, "ClassificationService"]:
        if self.router is None:
            return {DEFAULT_CELL: self.service_single}
        return {cell: self.router.service(cell)
                for cell in self.router.cells}

    def service(self, cell: str | None) -> "ClassificationService":
        if self.router is None:
            if cell not in (None, DEFAULT_CELL):
                raise UnknownCellError(
                    f"single-service ingress only serves cell "
                    f"{DEFAULT_CELL!r}, not {cell!r}")
            return self.service_single
        if cell is None:
            cells = self.router.cells
            if len(cells) == 1:
                return self.router.service(cells[0])
            raise UnknownCellError(
                f"multi-cell ingress needs an explicit 'cell' "
                f"(cells: {sorted(cells)})")
        return self.router.service(cell)

    def submit(self, cell: str | None, task: CompactedTask):
        service = self.service(cell)
        request = service.submit(task)
        if request.cell is None and cell is not None:
            request.cell = cell
        return request

    def submit_many(self, cell: str | None, tasks: list[CompactedTask]):
        service = self.service(cell)
        requests = service.submit_many(tasks)
        if cell is not None:
            for request in requests:
                if request.cell is None:
                    request.cell = cell
        return requests


def _parse_task(payload) -> CompactedTask:
    try:
        return CompactedTask.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise _BadRequest(f"invalid task: {exc}") from exc


class _BadRequest(ValueError):
    """Maps to a 400 with the message as the error body."""


def _parse_cell(payload) -> str | None:
    cell = payload.get("cell")
    if cell is not None and not isinstance(cell, str):
        raise _BadRequest("'cell' must be a string")
    return cell


def _parse_timeout(payload) -> float:
    """Validated client wait budget — a malformed value is the client's
    400, never the server's unhandled ``TypeError`` 500."""

    timeout = payload.get("timeout_s", _CLASSIFY_TIMEOUT_S)
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise _BadRequest("'timeout_s' must be a number (seconds)")
    timeout = float(timeout)
    if not math.isfinite(timeout) or timeout <= 0.0 \
            or timeout > _MAX_TIMEOUT_S:
        raise _BadRequest(f"'timeout_s' must be in "
                          f"(0, {_MAX_TIMEOUT_S:g}] seconds")
    return timeout


def _typed_error(exc) -> tuple[int, dict, dict]:
    """``(status, body, extra_headers)`` for one typed serving error."""

    if isinstance(exc, _BadRequest):
        return 400, {"error": str(exc)}, {}
    if isinstance(exc, UnknownCellError):
        return 404, {"error": str(exc)}, {}
    if isinstance(exc, (OverloadedError, CircuitOpenError)):
        # A tripped cell is *unavailable*, not overloaded: 503 so
        # balancers and retry policies treat it as a sick backend.
        status = 429 if isinstance(exc, OverloadedError) else 503
        headers = {}
        if exc.retry_after_s is not None:
            # RFC 9110 Retry-After is delta-seconds (an integer); keep
            # the precise value in the JSON body.
            headers["Retry-After"] = str(
                max(1, int(round(exc.retry_after_s))))
        return status, {"error": str(exc), "reason": exc.reason,
                        "cell": exc.cell,
                        "retry_after_s": exc.retry_after_s}, headers
    if isinstance(exc, (ServiceClosedError, NotServingError)):
        return 503, {"error": str(exc)}, {}
    raise exc


_TYPED_ERRORS = (_BadRequest, UnknownCellError, OverloadedError,
                 CircuitOpenError, ServiceClosedError, NotServingError)


def _abandon(backend: _Target, cell: str | None, request) -> str:
    """Cancel-or-account a request whose client timed out waiting.

    A 504 must not leave a zombie in the queue: if the request is still
    queued it is withdrawn (counted ``cancelled``, waiter failed); if a
    worker already took it, its batch is in flight and it completes
    normally moments later.
    """

    cancelled = backend.service(cell).batcher.cancel(request)
    return "cancelled" if cancelled else "in-flight"


def _request_entry(request) -> tuple[int, dict, dict]:
    """Map one *finished* request onto its wire result."""

    if request.error is not None:
        error = request.error
        if isinstance(error, (OverloadedError, ServiceClosedError)):
            return _typed_error(error)
        logger.error("classification failed over HTTP: %s", error)
        return 500, {"error": "classification failed"}, {}
    return 200, {
        "group": request.group,
        "model_version": request.version,
        "cell": request.cell or DEFAULT_CELL,
        "latency_us": request.latency_us,
    }, {}


def _classify_single(backend: _Target, payload: dict
                     ) -> tuple[int, dict, dict]:
    task = _parse_task(payload.get("task"))
    cell = _parse_cell(payload)
    timeout = _parse_timeout(payload)
    request = backend.submit(cell, task)
    if not request.wait(timeout):
        state = _abandon(backend, cell, request)
        return 504, {"error": f"classification did not complete within "
                              f"{timeout}s", "state": state}, {}
    return _request_entry(request)


def _classify_batch(backend: _Target, payload: dict
                    ) -> tuple[int, dict, dict]:
    """One batched body → one batcher round trip → in-order results.

    Per-item semantics: an unparsable task yields a 400 *entry* while
    the valid tasks are still served; whole-body semantics: an
    admission shed (the gate prices the batch as a unit) or an unknown
    cell rejects the entire body with 429 / 404.
    """

    items = payload.get("tasks")
    if not isinstance(items, list) or not items:
        raise _BadRequest("'tasks' must be a non-empty list")
    if len(items) > _MAX_BATCH_TASKS:
        raise _BadRequest(f"'tasks' exceeds the per-body limit of "
                          f"{_MAX_BATCH_TASKS}")
    cell = _parse_cell(payload)
    timeout = _parse_timeout(payload)
    entries: list[dict | None] = [None] * len(items)
    parsed: list[tuple[int, CompactedTask]] = []
    for i, item in enumerate(items):
        try:
            parsed.append((i, CompactedTask.from_dict(item)))
        except (TypeError, ValueError) as exc:
            entries[i] = {"error": f"invalid task: {exc}", "status": 400}
    requests = (backend.submit_many(cell, [task for _, task in parsed])
                if parsed else [])
    deadline = time.monotonic() + timeout
    for (i, _task), request in zip(parsed, requests):
        if not request.wait(max(0.0, deadline - time.monotonic())):
            state = _abandon(backend, cell, request)
            entries[i] = {"error": "classification did not complete "
                                   "within the body timeout",
                          "status": 504, "state": state}
            continue
        status, body, _headers = _request_entry(request)
        if status != 200:
            body["status"] = status
        entries[i] = body
    return 200, {"results": entries}, {}


def _json_body(environ) -> dict:
    try:
        length = int(environ.get("CONTENT_LENGTH", ""))
    except ValueError:
        length = -1
    if length < 0:
        raise _BadRequest("request needs a valid Content-Length")
    try:
        payload = json.loads(environ["wsgi.input"].read(length))
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    return payload


class _App:
    """The WSGI app: one ``(method, path)`` table of handlers.

    A handler takes the WSGI environ and returns ``(status, body,
    extra_headers)``: a dict body goes out as JSON, bytes as they are
    (the handler names their Content-Type), ``None`` as no body.
    """

    def __init__(self, target, staleness_budget_s: float | None):
        self.backend = _Target(target)
        self.staleness_budget_s = staleness_budget_s
        self.routes = {
            ("POST", "/classify"): self._classify,
            ("POST", "/observe"): self._observe,
            ("POST", "/audit"): self._audit,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/stats"): self._stats,
            ("GET", "/healthz"): self._healthz,
            ("GET", "/cells"): self._cells,
        }
        self._allowed: dict[str, list[str]] = {}
        for method, path in self.routes:
            self._allowed.setdefault(path, []).append(method)

    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "")
        path = environ.get("PATH_INFO", "")
        handler = self.routes.get((method, path))
        try:
            if handler is not None:
                status, body, headers = handler(environ)
            elif path in self._allowed:
                status, body, headers = (
                    405, {"error": f"{method} not allowed on {path}"},
                    {"Allow": ", ".join(self._allowed[path])})
            else:
                status, body, headers = 404, {"error": f"no route for "
                                                       f"{path}"}, {}
        except _TYPED_ERRORS as exc:
            status, body, headers = _typed_error(exc)
        except Exception:  # noqa: BLE001 — the wire must answer, not raise
            logger.exception("unhandled error on %s %s", method, path)
            status, body, headers = 500, {"error": "internal error"}, {}
        response_headers = []
        if isinstance(body, dict):
            body = json.dumps(body).encode()
            response_headers.append(("Content-Type", _JSON))
        if body is not None:
            response_headers.append(("Content-Length", str(len(body))))
        response_headers.extend(headers.items())
        start_response(f"{status} {_HTTP_REASONS.get(status, '')}",
                       response_headers)
        return [] if body is None else [body]

    # ------------------------------------------------------------------
    # serving path
    # ------------------------------------------------------------------
    def _classify(self, environ):
        payload = _json_body(environ)
        if "tasks" in payload:
            if "task" in payload:
                raise _BadRequest("give either 'task' or 'tasks', not both")
            return _classify_batch(self.backend, payload)
        return _classify_single(self.backend, payload)

    def _observe(self, environ):
        payload = _json_body(environ)
        task = _parse_task(payload.get("task"))
        group = payload.get("group")
        if isinstance(group, bool) or not isinstance(group, int):
            raise _BadRequest("'group' must be an integer label")
        self.backend.service(_parse_cell(payload)).observe(task, group)
        return 204, None, {}

    def _audit(self, environ):
        """Re-classify under the exact model version that served a
        request — the load generator's wire-level misroute audit."""

        payload = _json_body(environ)
        task = _parse_task(payload.get("task"))
        version = payload.get("version")
        if isinstance(version, bool) or not isinstance(version, int):
            raise _BadRequest("'version' must be an integer")
        cell = _parse_cell(payload)
        try:
            group = self.backend.service(cell).audit_classify(task, version)
        except KeyError as exc:
            return 410, {"error": f"model version unavailable: {exc}"}, {}
        return 200, {"group": group, "model_version": version,
                     "cell": cell or DEFAULT_CELL}, {}

    # ------------------------------------------------------------------
    # telemetry plane
    # ------------------------------------------------------------------
    def _per_cell(self):
        services = self.backend.services()
        stats = {cell: service.stats().to_dict()
                 for cell, service in services.items()}
        admission = {cell: service.admission.snapshot()
                     for cell, service in services.items()
                     if service.admission is not None}
        return services, stats, admission

    def _metrics(self, environ):
        services, stats, admission = self._per_cell()
        text = render_prometheus(
            stats, admission=admission,
            stages={cell: service.telemetry.stage_snapshots()
                    for cell, service in services.items()},
            events={cell: service.telemetry.events
                    for cell, service in services.items()})
        return 200, text.encode(), {"Content-Type": _PROMETHEUS}

    def _stats(self, environ):
        services, stats, admission = self._per_cell()
        return 200, {
            "cells": {
                cell: {
                    "stats": stats[cell],
                    "admission": admission.get(cell),
                    "telemetry": service.telemetry.to_dict(),
                }
                for cell, service in services.items()
            },
        }, {}

    def _healthz(self, environ):
        budget = self.staleness_budget_s
        checks = []

        def check(cell, name, ok, **detail):
            checks.append({"cell": cell, "check": name, "ok": bool(ok),
                           **detail})

        restored = 0
        for cell, service in self.backend.services().items():
            cell_stats = service.stats()
            restored = max(restored, cell_stats.restored_version)
            check(cell, "published", cell_stats.has_published,
                  model_version=cell_stats.model_version,
                  restored_version=cell_stats.restored_version)
            breaker = getattr(service, "breaker", None)
            if breaker is not None:
                # An open breaker pulls the cell from rotation; a
                # half-open one is probing and may serve.
                check(cell, "breaker", breaker.state_code != BREAKER_OPEN,
                      state=breaker.state)
            supervisor = getattr(service, "supervisor", None)
            if supervisor is not None and supervisor.degraded:
                check(cell, "degraded", False,
                      reasons=list(supervisor.degraded_reasons))
            if service.trainer is not None and service.started:
                check(cell, "trainer_alive", service.trainer.alive)
                # Alive but wedged: past the threshold of consecutive
                # crashed retrain attempts the cell can no longer close
                # staleness, and the probe should pull it from rotation.
                failures = service.trainer.consecutive_failures
                threshold = service.trainer.max_consecutive_failures
                check(cell, "trainer_failures", failures < threshold,
                      consecutive_failures=failures, threshold=threshold)
            if budget is not None and cell_stats.has_published:
                check(cell, "staleness",
                      cell_stats.model_staleness_s <= budget,
                      staleness_s=cell_stats.model_staleness_s,
                      budget_s=budget)
            admission = service.admission
            if admission is not None and admission.max_queue is not None:
                check(cell, "queue_saturation",
                      cell_stats.pending < admission.max_queue,
                      pending=cell_stats.pending,
                      max_queue=admission.max_queue)
        healthy = all(c["ok"] for c in checks)
        return (200 if healthy else 503), {
            "status": "ok" if healthy else "unhealthy",
            "restored_version": restored, "checks": checks}, {}

    def _cells(self, environ):
        return 200, {"cells": sorted(self.backend.services())}, {}


def create_app(target, staleness_budget_s: float | None = None):
    """Build the WSGI app over ``target`` (service or router).

    ``staleness_budget_s`` arms the ``/healthz`` freshness check: a cell
    whose served model is older than the budget flips the probe to 503
    (the continuous-retraining loop has stalled even if its thread is
    technically alive).  ``None`` disables the check.
    """

    return _App(target, staleness_budget_s)


class _Handler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive bridge from one connection to the WSGI app.

    Nagle's algorithm is off and the reply's head and body leave in one
    write, so a small reply never waits on the client's delayed ACK.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` when it cannot be framed."""

        if "Transfer-Encoding" in self.headers:
            return None
        length = self.headers.get("Content-Length")
        if length is None:
            return b""
        try:
            n = int(length)
        except ValueError:
            return None
        return self.rfile.read(n) if 0 <= n <= _MAX_BODY_BYTES else None

    def _serve(self) -> None:
        body = self._read_body()
        if body is None:
            # The app answers 400; drop the connection rather than read
            # the unframed body's bytes as the next request.
            self.close_connection = True
        # The environ keys the app (and a wrapping tracer) read.
        environ = {
            "REQUEST_METHOD": self.command,
            "PATH_INFO": self.path.partition("?")[0],
            "CONTENT_LENGTH": "" if body is None else str(len(body)),
            "wsgi.input": io.BytesIO(body or b""),
        }
        for key, value in self.headers.items():
            environ.setdefault(f"HTTP_{key.upper().replace('-', '_')}", value)
        reply = []

        def start_response(status, headers, exc_info=None):
            reply[:] = [status, headers]

        data = b"".join(self.server.app(environ, start_response))
        status, headers = reply
        head = [f"{self.protocol_version} {status}"]
        head.extend(f"{key}: {value}" for key, value in headers)
        if self.close_connection:
            head.append("Connection: close")
        head.append("\r\n")
        self.wfile.write("\r\n".join(head).encode("latin-1") + data)

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _serve

    def log_message(self, format, *args):  # quiet access/error log
        logger.debug("%s - %s", self.address_string(), format % args)


class _Server(ThreadingHTTPServer):
    """A threaded server over a listener socket the ingress bound.

    Each connection runs on a daemon thread, so closing the server never
    waits for an idle keep-alive client.
    """

    daemon_threads = True

    def __init__(self, sock: socket.socket, app):
        BaseServer.__init__(self, sock.getsockname(), _Handler)
        self.socket = sock
        self.app = app

    def handle_error(self, request, client_address):
        logger.debug("HTTP connection from %s failed", client_address,
                     exc_info=True)


class HttpIngress:
    """Threaded HTTP/1.1 keep-alive server(s) hosting :attr:`wsgi_app`.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.  Each connection stays open between requests on its
    own daemon handler thread, so a keep-alive load-generator connection
    cannot starve the health probe and :meth:`stop` never waits for an
    idle client.

    The ingress binds ``n_listeners`` sockets and runs one server per
    socket; with more than one, they share the port through
    ``SO_REUSEPORT`` and the kernel load-balances accepted connections
    across listeners, all dispatching into the same serving stack (one
    host, one port, one backend).
    """

    def __init__(self, target, host: str = "127.0.0.1", port: int = 8080,
                 staleness_budget_s: float | None = None,
                 n_listeners: int = 1):
        if n_listeners < 1:
            raise ValueError("n_listeners must be >= 1")
        self.wsgi_app = create_app(target,
                                   staleness_budget_s=staleness_budget_s)
        self.host = host
        self.n_listeners = n_listeners
        self._requested_port = port
        self._bound_port: int | None = None
        self._servers: list[_Server] = []
        self._threads: list[threading.Thread] = []

    @property
    def port(self) -> int:
        if self._bound_port is None:
            return self._requested_port
        return self._bound_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpIngress":
        if self._servers:
            raise RuntimeError("ingress already started")
        if self.n_listeners > 1 and not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError("n_listeners > 1 needs SO_REUSEPORT, "
                               "which this platform lacks")
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        port = self._requested_port
        sockets: list[socket.socket] = []
        try:
            for _ in range(self.n_listeners):
                sock = socket.socket(family, socket.SOCK_STREAM)
                sockets.append(sock)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                if self.n_listeners > 1:
                    sock.setsockopt(socket.SOL_SOCKET,
                                    socket.SO_REUSEPORT, 1)
                sock.bind((self.host, port))
                sock.listen(128)
                # The first socket may pick the ephemeral port the rest
                # then share.
                port = sock.getsockname()[1]
        except BaseException:
            for sock in sockets:
                sock.close()
            raise
        self._bound_port = port
        self._servers = [_Server(sock, self.wsgi_app) for sock in sockets]
        self._threads = [
            threading.Thread(target=server.serve_forever,
                             name=f"repro-serve-http-{i}", daemon=True)
            for i, server in enumerate(self._servers)]
        for thread in self._threads:
            thread.start()
        logger.info("HTTP ingress listening on %s (%d listener(s))",
                    self.url, len(self._servers))
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        if not self._servers:
            return
        for server in self._servers:
            server.shutdown()  # waits for serve_forever to return
            server.server_close()
        for thread in self._threads:
            thread.join(timeout)
        self._servers = []
        self._threads = []
        self._bound_port = None

    def __enter__(self) -> "HttpIngress":
        return self.start() if not self._servers else self

    def __exit__(self, *exc) -> None:
        self.stop()
