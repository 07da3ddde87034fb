"""The one HTTP front door of both serving topologies.

``repro serve`` answers with an :class:`~repro.service.server.
AllocationService`; ``repro serve --worker-processes N`` answers with a
:class:`~repro.service.router.RouterService` in front of N worker
processes.  Both speak the same stdlib-only HTTP JSON API through this
module: one route table (:data:`ROUTES`), one request handler, one error
map, one access log and one threading server.  The application object
only supplies the callables the table names; a route whose callable it
lacks answers 404.

========================  ==========================================================
``POST /solve``           one request ``{"problem": ..., "method": ...,
                          "heuristic_settings"?: ..., "exact_settings"?: ...}``
``POST /solve_batch``     ``{"requests": [...]}`` -- deduped, cache-backed batch;
                          with ``"mode": "async"`` it enqueues and returns a
                          job id immediately instead of blocking
``GET /jobs``             summaries of every retained async job
``GET /jobs/<id>``        one async job (outcomes included once ``done``)
``GET /health``           liveness + uptime
``GET /stats``            cache/job/service counters, solver work counters
``GET /metrics``          Prometheus text exposition (counters/gauges/histograms)
``GET /trace/<print>``    span tree of the last traced solve of a fingerprint
``POST /fleet/allocate``  ``{"fleet": ..., "mode": "heuristic"|"exact"}`` --
                          multi-tenant fleet allocation, cached by fleet
                          fingerprint
``POST /fleet/tenants``   ``{"tenant": ...}`` -- tenant arrival; re-carves the
                          current fleet (unchanged shares answer from the
                          solve memo)
``DELETE /fleet/tenants/<id>``  tenant departure; re-carves the remainder
``POST /admin/resize``    ``{"num_groups": N}`` -- grow the worker pool online
                          (router only)
========================  ==========================================================

Every error becomes a status code in one place,
:meth:`FrontDoorHandler._send_error`:

* :class:`BackpressureError` -- its own 429 (full job queue) or 503
  (exhausted sync-solve pool, closed job queue, worker down), with a
  ``Retry-After`` header;
* :class:`HTTPError` -- its own status: 404 for an unknown endpoint, job,
  trace or tenant, 413 for a body over :data:`MAX_BODY_BYTES`;
* :class:`~repro.fleet.manager.Conflict` -- 409;
* ``ValueError`` (``SerializationError`` included) -- 400;
* anything else -- 500.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

from ..fleet import Conflict
from ..workloads.serialization import SerializationError
from .batch import loads_batch

#: Largest request body read, in bytes.  A larger ``Content-Length`` is
#: refused with 413 before any of the body is read.  The largest body the
#: benchmark sends, a 1000-request warm batch, is ~1.9 MB.
MAX_BODY_BYTES = 64 * 1024 * 1024

JSON = "application/json"
PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: ``(method, path)`` -> the application callable that answers it.  A path
#: ending in ``/`` is a prefix; the rest of the request path becomes the
#: callable's ``request.tail`` (a fingerprint, job id or tenant id).
ROUTES: dict[tuple[str, str], str] = {
    ("GET", "/health"): "http_health",
    ("GET", "/stats"): "http_stats",
    ("GET", "/metrics"): "http_metrics",
    ("GET", "/trace/"): "http_trace",
    ("GET", "/jobs"): "http_jobs",
    ("GET", "/jobs/"): "http_job",
    ("POST", "/solve"): "http_solve",
    ("POST", "/solve_batch"): "http_solve_batch",
    ("POST", "/fleet/allocate"): "http_fleet_allocate",
    ("POST", "/fleet/tenants"): "http_fleet_arrival",
    ("DELETE", "/fleet/tenants/"): "http_fleet_departure",
    ("POST", "/admin/resize"): "http_resize",
}


def resolve(method: str, path: str) -> tuple[str, str] | None:
    """The callable name and tail answering ``method path``, or ``None``."""
    name = ROUTES.get((method, path))
    if name is not None:
        return name, ""
    for (route_method, prefix), name in ROUTES.items():
        if route_method == method and prefix.endswith("/") and path.startswith(prefix):
            return name, path[len(prefix):]
    return None


class BackpressureError(RuntimeError):
    """The service refused work it could not absorb (HTTP 429/503).

    ``status`` is 429 for a full async job queue and 503 for an exhausted
    sync-solve pool, a closed queue or a down worker;
    ``retry_after_seconds`` is derived from the observed backlog (queue
    depth x average job run time), so a well-behaved client backing off by
    it returns roughly when capacity exists.
    """

    def __init__(self, status: int, retry_after_seconds: float, message: str):
        super().__init__(message)
        self.status = status
        self.retry_after_seconds = retry_after_seconds


class HTTPError(Exception):
    """An error that names its own status (404, 413)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One routed request; a POST body arrives read but not parsed."""

    method: str
    path: str
    tail: str = ""
    body: bytes = b""

    def parse(self) -> tuple[Any, list[str] | None]:
        """The JSON body plus the source texts of its ``"requests"``
        elements (see :func:`~repro.service.batch.loads_batch`).

        The raw bytes are released before the parse: a batch body runs to
        megabytes, and nothing reads them once parsed.
        """
        try:
            text = self.body.decode("utf-8")
            self.body = b""
            return loads_batch(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise SerializationError(f"request body is not valid JSON: {error}") from error


@dataclass(frozen=True)
class Reply:
    """What a route answers; ``fingerprint`` goes to the access log."""

    body: bytes
    status: int = 200
    content_type: str = JSON
    headers: Mapping[str, str] | None = None
    fingerprint: str | None = None


def json_reply(payload: Any, status: int = 200, fingerprint: str | None = None) -> Reply:
    # allow_nan=False guarantees strict RFC 8259 JSON on the wire; the
    # outcome documents already encode non-finite floats as null.
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    return Reply(body, status, fingerprint=fingerprint)


def section(payload: Any, key: str, message: str) -> Any:
    """``payload[key]``, or a 400 with ``message`` when there is none."""
    if not isinstance(payload, Mapping) or key not in payload:
        raise SerializationError(message)
    return payload[key]


class HTTPRoutes:
    """The routes both topologies answer alike, over their Python API.

    An application using this mixin provides ``health()``, ``stats()``,
    ``metrics_text()``, ``trace(fingerprint)``, ``list_jobs()``,
    ``job_json(job_id)``, ``solve_batch_text(documents, texts)``,
    ``submit_batch_documents(documents, texts)`` and
    ``observe_http(method, status)``, plus the ``http_*`` callables whose
    answers differ between the topologies.
    """

    def http_health(self, request: Request) -> Reply:
        return json_reply(self.health())

    def http_stats(self, request: Request) -> Reply:
        return json_reply(self.stats())

    def http_metrics(self, request: Request) -> Reply:
        return Reply(self.metrics_text().encode("utf-8"), content_type=PROMETHEUS)

    def http_trace(self, request: Request) -> Reply:
        document = self.trace(request.tail)
        if document is None:
            raise HTTPError(404, f"no trace for {request.tail!r}")
        return json_reply(document, fingerprint=request.tail)

    def http_jobs(self, request: Request) -> Reply:
        return json_reply({"jobs": self.list_jobs()})

    def http_job(self, request: Request) -> Reply:
        text = self.job_json(request.tail)
        if text is None:
            raise HTTPError(404, f"unknown job {request.tail!r}")
        return Reply(text.encode("utf-8"))

    def http_solve_batch(self, request: Request) -> Reply:
        payload, texts = request.parse()
        documents = section(payload, "requests", "a batch document needs a 'requests' list")
        mode = str(payload.get("mode", "sync"))
        if mode not in ("sync", "async"):
            raise SerializationError(f"unknown batch mode {mode!r}; options: sync, async")
        if not isinstance(documents, list) or not documents:
            raise SerializationError("'requests' must be a non-empty list")
        if mode == "async":
            return json_reply(self.submit_batch_documents(documents, texts), status=202)
        return Reply(self.solve_batch_text(documents, texts).encode("utf-8"))


class FrontDoorHandler(BaseHTTPRequestHandler):
    """Routes every request through :data:`ROUTES` onto ``server.app``.

    Every request is counted through ``app.observe_http`` and, unless the
    server runs quiet, logged as one structured JSON line on stderr
    (method, path, status, latency; the request fingerprint when the route
    produced one) -- replacing the stdlib's free-text access log.
    """

    server: "AllocationHTTPServer"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm the
    # second waits for the client's delayed ACK of the first.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # The stdlib access log is replaced by _dispatch's JSON line.
        pass

    def _send_body(
        self,
        body: bytes,
        status: int = 200,
        content_type: str = JSON,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Any, status: int, headers: Mapping[str, str] | None = None) -> None:
        self._send_body(json.dumps(payload, allow_nan=False).encode("utf-8"), status, JSON, headers)

    def _send_backpressure(self, error: BackpressureError) -> None:
        """429/503 + ``Retry-After`` (integral seconds, rounded up)."""
        self._send_json(
            {"error": str(error), "retry_after_seconds": error.retry_after_seconds},
            error.status,
            {"Retry-After": str(math.ceil(error.retry_after_seconds))},
        )

    def _send_error(self, error: Exception) -> None:
        """The one exception -> status map of both topologies."""
        if isinstance(error, BackpressureError):
            self._send_backpressure(error)
        elif isinstance(error, HTTPError):
            self._send_json({"error": str(error)}, error.status)
        elif isinstance(error, Conflict):
            self._send_json({"error": str(error)}, 409)
        elif isinstance(error, ValueError):
            self._send_json({"error": str(error)}, 400)
        else:
            traceback.print_exception(error, file=sys.stderr)
            self._send_json({"error": f"internal error: {error}"}, 500)

    def _read_body(self) -> bytes:
        """The request body.  A missing, non-integer, non-positive or
        oversized ``Content-Length`` is refused before a byte is read, and
        the connection is then closed, since the unread body would
        otherwise be taken for the next request."""
        close_after, self.close_connection = self.close_connection, True
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise SerializationError("request body is empty")
        if length > MAX_BODY_BYTES:
            raise HTTPError(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        body = self.rfile.read(length)
        self.close_connection = close_after
        return body

    def _route(self) -> Reply:
        request = Request(self.command, self.path)
        if self.command == "POST":
            request.body = self._read_body()
        match = resolve(self.command, self.path)
        call = getattr(self.server.app, match[0], None) if match else None
        if call is None:
            raise HTTPError(404, f"unknown endpoint {self.path!r}")
        request.tail = match[1]
        return call(request)

    def _dispatch(self) -> None:
        """Answer one request under the request counter + access log."""
        start = time.perf_counter()
        self._status = 0
        fingerprint = None
        try:
            try:
                reply = self._route()
            except Exception as error:
                self._send_error(error)
            else:
                fingerprint = reply.fingerprint
                self._send_body(reply.body, reply.status, reply.content_type, reply.headers)
        finally:
            latency_ms = (time.perf_counter() - start) * 1000.0
            self.server.app.observe_http(self.command, self._status)
            if not self.server.quiet:
                record: dict[str, Any] = {
                    "time_unix": round(time.time(), 3),
                    "method": self.command,
                    "path": self.path,
                    "status": self._status,
                    "latency_ms": round(latency_ms, 3),
                }
                if fingerprint is not None:
                    record["fingerprint"] = fingerprint
                print(json.dumps(record), file=sys.stderr, flush=True)

    do_GET = do_POST = do_DELETE = _dispatch  # noqa: N815 - http.server naming


class AllocationHTTPServer(ThreadingHTTPServer):
    """The threading HTTP server of both topologies.

    ``app`` is an :class:`~repro.service.server.AllocationService` or a
    :class:`~repro.service.router.RouterService`.  ``quiet`` silences the
    per-request structured JSON access log (requests are still counted in
    ``repro_http_requests_total``).
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], app: Any, quiet: bool = True):
        super().__init__(address, FrontDoorHandler)
        self.app = app
        self.quiet = quiet

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


def start_server(
    app: Any, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> tuple[AllocationHTTPServer, threading.Thread]:
    """Start a server on a background thread (``port=0`` picks a free port).

    The caller owns shutdown: ``server.shutdown(); server.server_close();
    app.close()``.
    """
    server = AllocationHTTPServer((host, port), app, quiet=quiet)
    thread = threading.Thread(target=server.serve_forever, name="repro-serve", daemon=True)
    thread.start()
    return server, thread


def install_shutdown_signals(server: ThreadingHTTPServer) -> Callable[[], None]:
    """Route SIGTERM/SIGINT into a graceful ``server.shutdown()``.

    ``shutdown()`` must run off the signal-handling (main) thread: it blocks
    until ``serve_forever`` -- running *on* the main thread -- notices the
    stop flag, so calling it inline would deadlock.  Returns a restorer that
    puts the previous handlers back (used by embedded/test callers).
    """
    previous = {}

    def _handle(signum: int, frame: Any) -> None:
        threading.Thread(
            target=server.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _handle)

    def _restore() -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    return _restore


def run_server(
    app: Any, host: str = "127.0.0.1", port: int = 8000, quiet: bool = False
) -> None:
    """Serve until interrupted (the blocking entry point behind ``repro serve``).

    SIGTERM and SIGINT both drain gracefully: the accept loop stops, then
    ``app.close()`` runs -- a service joins its job workers (pending jobs
    finish), final-fsyncs and closes every WAL segment and closes the
    store; a router SIGTERMs every worker, which does the same -- so a
    clean shutdown never leaves a torn WAL tail or an abandoned job.
    """
    server = AllocationHTTPServer((host, port), app, quiet=quiet)
    restore = install_shutdown_signals(server)
    print(f"allocation service listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        restore()
        server.server_close()
        app.close()
