"""Stdlib JSON-over-HTTP front end for the online inference service.

The canonical surface is versioned under ``/v1`` and declared once in
:mod:`repro.serve.routes` (dispatch below is driven by that table, so
``GET /v1/openapi.json`` can never drift from what actually answers).
Legacy unprefixed paths keep working as aliases but are stamped with
``Deprecation: true`` and a ``Link: </v1/...>; rel="successor-version"``
header.

Serving routes (all responses ``application/json``):

``GET /v1/healthz``
    Liveness: status, model count, resident models.
``GET /v1/models``
    One summary per checkpoint in the model directory (header metadata
    only; nothing is deserialised).
``POST /v1/models/{name}/predict``
    Body ``{"vectors": [[...], ...]}`` for pre-embedded rows or
    ``{"items": [{...}, ...]}`` for raw tables/records/columns, which are
    embedded with the task/embedding recorded in the checkpoint.  Response:
    ``{"model", "n_items", "labels"}``.
``POST /v1/models/{name}/neighbors``
    Similarity search against a checkpointed :mod:`repro.index` vector
    index: same ``vectors``/``items`` body plus an optional ``"k"``
    (default 10).
``POST /v1/search``
    Like ``neighbors`` with the index named in the body (``"index"``) —
    or omitted entirely when exactly one index is served.
``GET /v1/stats`` / ``GET /v1/metrics`` / ``GET /v1/openapi.json``
    Introspection: batching counters (``?verbose=1`` adds span
    breakdowns), Prometheus exposition (``?format=json`` for the raw
    snapshot), and the OpenAPI document.

Jobs routes (the async tier, :mod:`repro.serve.jobs`):

``POST /v1/jobs`` submits an experiment (201 on creation, 200 when the
content-addressed id deduplicated to an existing job); ``GET /v1/jobs``
lists, ``GET /v1/jobs/{id}`` polls status/progress, ``DELETE
/v1/jobs/{id}`` cancels cooperatively, and ``GET
/v1/jobs/{id}/result?format=...`` serialises the rows through a
:mod:`repro.export` exporter (``json`` inline by default).

Every error response uses the uniform envelope from
:mod:`repro.serve.errors`: ``{"error": {"code", "message", "trace_id"}}``
with a stable machine-readable ``code``.

Every POST opens a request trace: an incoming ``X-Repro-Trace`` header
(from the pool router) is adopted, otherwise a trace id is minted here,
and the id is echoed on the response so clients can correlate their
request with the span breakdowns under ``/v1/stats?verbose=1``.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per request,
with the :class:`~repro.serve.service.PredictService` micro-batcher
coalescing concurrent forwards — so serving needs no dependencies beyond
the standard library and numpy.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs

from ..obs.metrics import get_registry, obs_enabled, render_prometheus
from ..obs.trace import TRACE_HEADER, request_trace, valid_trace_id
from .errors import classify_exception, default_code, error_envelope
from .jobs import JobManager
from .registry import ModelRegistry
from .routes import (
    ROUTES,
    Route,
    compile_route,
    deprecation_headers,
    openapi_spec,
    split_version,
)
from .service import PredictService

__all__ = ["ReproHTTPServer", "create_server", "query_flag",
           "query_value", "read_request_body"]

#: Dispatch table: the compiled route patterns, straight from the
#: canonical table (matched against the *unversioned* path).
_ROUTE_PATTERNS: tuple[tuple[Route, object], ...] = tuple(
    (route, compile_route(route)) for route in ROUTES)

#: Upper bound on accepted request bodies: large enough for thousands of
#: embedded rows, small enough that a hostile Content-Length cannot exhaust
#: memory (one buffered body per request thread).
_MAX_BODY_BYTES = 32 * 1024 * 1024

#: Prometheus exposition content type.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def match_route(method: str, path: str) -> tuple[Route | None, dict]:
    """Resolve an unversioned path against the canonical route table."""
    for route, pattern in _ROUTE_PATTERNS:
        if route.method != method:
            continue
        found = pattern.match(path)
        if found is not None:
            return route, found.groupdict()
    return None, {}


def query_flag(query: str, name: str) -> bool:
    """True when ``name`` appears truthy in a raw query string."""
    values = parse_qs(query).get(name)
    if not values:
        return False
    return values[-1].lower() not in ("0", "false", "no", "")


def query_value(query: str, name: str) -> str | None:
    """Last value of ``name`` in a raw query string, or None."""
    values = parse_qs(query).get(name)
    return values[-1] if values else None


class ReproHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying the shared :class:`PredictService`."""

    daemon_threads = True
    #: The socketserver default backlog of 5 resets connections under a
    #: concurrent burst (the hot-reload guarantee is exercised with 100
    #: simultaneous clients); a deeper accept queue just parks them.
    request_queue_size = 128

    def __init__(self, address, handler, service: PredictService,
                 jobs: JobManager | None = None) -> None:
        super().__init__(address, handler)
        self.service = service
        self.jobs = jobs

    def server_close(self) -> None:
        """Close the socket, the hot-reload watcher and the batcher threads.

        ``TCPServer.__init__`` calls this on a failed bind, *before* our
        ``__init__`` assigned ``service`` — guard it so the caller sees the
        bind error (address in use) rather than an ``AttributeError``.
        """
        super().server_close()
        jobs = getattr(self, "jobs", None)
        if jobs is not None:
            jobs.close()
        service = getattr(self, "service", None)
        if service is not None:
            service.registry.stop_hot_reload()
            service.close()


def read_request_body(handler: BaseHTTPRequestHandler) -> bytes | None:
    """Drain and return the request body, enforcing the size limit.

    Returns ``None`` after answering the client itself (bad or hostile
    Content-Length, unreadable socket) — callers just return.  Shared by
    the single-process handler and the pool router, which must apply the
    same draining discipline before proxying: answering before consuming
    Content-Length bytes desyncs HTTP/1.1 keep-alive connections (the next
    request would be parsed starting at the leftover body).

    The handler must provide ``_send_error_json(status, message)``.
    """
    try:
        length = int(handler.headers.get("Content-Length", 0))
    except ValueError as exc:
        handler._send_error_json(400, f"bad Content-Length: {exc}")
        return None
    if length < 0:
        # rfile.read(-1) would block reading until EOF, pinning the
        # handler thread for as long as the client holds the socket.
        handler.close_connection = True
        handler._send_error_json(400, f"bad Content-Length: {length}")
        return None
    if length > _MAX_BODY_BYTES:
        # Answer without reading; the connection cannot be reused after
        # an undrained body, so close it explicitly.
        handler.close_connection = True
        handler._send_error_json(
            413, f"request body of {length} bytes exceeds the "
                 f"{_MAX_BODY_BYTES} byte limit")
        return None
    try:
        return handler.rfile.read(length) if length else b""
    except OSError as exc:
        handler._send_error_json(400, f"unreadable request body: {exc}")
        return None


class _Handler(BaseHTTPRequestHandler):
    """Table-driven dispatch; every error is an enveloped JSON body."""

    server: ReproHTTPServer
    protocol_version = "HTTP/1.1"
    #: Quiet by default; flip for debugging.
    verbose = False

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.verbose:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _send_headers(self, status: int, content_type: str,
                      length: int) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(length))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            self.send_header(TRACE_HEADER, trace_id)
        for name, value in getattr(self, "_extra_headers", ()):
            self.send_header(name, value)
        self.end_headers()
        self._status = status

    def _send_bytes(self, status: int, data: bytes,
                    content_type: str) -> None:
        self._send_headers(status, content_type, len(data))
        self.wfile.write(data)

    def _send_json(self, status: int, body: dict | list) -> None:
        self._send_bytes(status, json.dumps(body).encode("utf-8"),
                         "application/json")

    def _send_text(self, status: int, text: str,
                   content_type: str = _PROMETHEUS_CONTENT_TYPE) -> None:
        self._send_bytes(status, text.encode("utf-8"), content_type)

    def _send_error_json(self, status: int, message: str,
                         code: str | None = None) -> None:
        self._send_json(status, error_envelope(
            code or default_code(status), message,
            trace_id=getattr(self, "_trace_id", None)))

    def _observe_request(self, endpoint: str, started: float) -> None:
        if not obs_enabled():
            return
        registry = get_registry()
        registry.counter(
            "repro_http_requests_total", "HTTP requests handled",
            ("endpoint", "status")).inc(
                endpoint=endpoint, status=getattr(self, "_status", 0))
        registry.histogram(
            "repro_http_request_seconds", "HTTP request handling time",
            ("endpoint",)).observe(time.perf_counter() - started,
                                   endpoint=endpoint)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("DELETE")

    def _handle(self, method: str) -> None:
        raw_path, _, query = self.path.partition("?")
        path, versioned = split_version(raw_path)
        if not versioned:
            self._extra_headers = deprecation_headers(path)
        raw = b""
        if method == "POST":
            # Drain the body before answering anything (even a 404):
            # leaving it unread desyncs HTTP/1.1 keep-alive parsing.
            body = read_request_body(self)
            if body is None:
                return
            raw = body
        route, params = match_route(method, path)
        endpoint = route.endpoint if route is not None else "other"
        started = time.perf_counter()
        try:
            if route is None:
                self._send_error_json(404, f"no such route: {self.path}",
                                      code="not_found")
            elif method == "POST":
                self._handle_post(route, params, raw)
            else:
                self._dispatch(route, params, query, {})
        except _JobsDisabled:
            self._send_error_json(
                503, "the jobs API is not enabled on this server (pool "
                     "workers defer jobs to the router)",
                code="jobs_disabled")
        except Exception as exc:  # noqa: BLE001 - request boundary
            status, code = classify_exception(exc)
            message = (str(exc) if type(exc).__module__.startswith("repro")
                       else f"{type(exc).__name__}: {exc}")
            self._send_error_json(status, message, code=code)
        finally:
            self._observe_request(endpoint, started)

    def _handle_post(self, route: Route, params: dict, raw: bytes) -> None:
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            self._send_error_json(400, f"invalid JSON body: {exc}")
            return
        # Propagate the router's trace id (or mint one at this edge) so
        # the batcher/embed spans land on the request's trace and the
        # client can correlate via the response header.
        incoming = self.headers.get(TRACE_HEADER)
        trace_id = incoming if valid_trace_id(incoming) else None
        with request_trace(route.endpoint, trace_id=trace_id) as trace:
            if trace is not None:
                self._trace_id = trace.trace_id
            self._dispatch(route, params, "", payload)

    # ------------------------------------------------------------------
    def _jobs_manager(self) -> JobManager:
        jobs = self.server.jobs
        if jobs is None:
            raise _JobsDisabled()
        return jobs

    def _dispatch(self, route: Route, params: dict, query: str,
                  payload: dict) -> None:
        service = self.server.service
        endpoint = route.endpoint
        if endpoint == "healthz":
            self._send_json(200, service.health())
        elif endpoint == "models":
            self._send_json(200, service.models())
        elif endpoint == "stats":
            self._send_json(200, service.stats_payload(
                verbose=query_flag(query, "verbose")))
        elif endpoint == "metrics":
            if query_value(query, "format") == "json":
                self._send_json(200, get_registry().snapshot())
            else:
                self._send_text(200, render_prometheus(get_registry()))
        elif endpoint == "openapi":
            self._send_json(200, openapi_spec())
        elif endpoint == "predict":
            self._send_json(200, service.predict(params["name"], payload))
        elif endpoint == "neighbors":
            self._send_json(200, service.neighbors(params["name"], payload))
        elif endpoint == "search":
            self._send_json(200, service.search(payload))
        elif endpoint == "jobs_submit":
            description, created = self._jobs_manager().submit(payload)
            self._send_json(201 if created else 200, description)
        elif endpoint == "jobs_list":
            self._send_json(200, {"jobs": self._jobs_manager().list_jobs()})
        elif endpoint == "jobs_get":
            self._send_json(200, self._jobs_manager().get(params["id"]))
        elif endpoint == "jobs_cancel":
            self._send_json(200, self._jobs_manager().cancel(params["id"]))
        elif endpoint == "jobs_result":
            fmt = query_value(query, "format") or "json"
            data, content_type = self._jobs_manager().result_bytes(
                params["id"], fmt)
            self._send_bytes(200, data, content_type)
        else:  # pragma: no cover - table and dispatch are kept in sync
            self._send_error_json(404, f"no handler for {endpoint!r}",
                                  code="not_found")


class _JobsDisabled(Exception):
    """Raised when a jobs route is hit on a server without a manager."""


def create_server(model_dir: str | Path, *, host: str = "127.0.0.1",
                  port: int = 8000, max_loaded: int = 4,
                  max_batch_rows: int = 256, max_delay: float = 0.002,
                  micro_batching: bool = True,
                  reload_interval: float | None = None,
                  wal_dir: str | Path | None = None,
                  identity: dict | None = None,
                  jobs: bool = True,
                  jobs_dir: str | Path | None = None,
                  job_workers: int = 1) -> ReproHTTPServer:
    """Build (but do not start) the serving HTTP server.

    ``port=0`` binds an ephemeral port (``server.server_address[1]`` tells
    which), which is what the tests and the example client use.  Call
    ``serve_forever()`` to run and ``shutdown()`` + ``server_close()`` to
    stop; closing the server also stops the micro-batcher threads and the
    job workers.

    ``reload_interval`` (seconds) starts the registry's hot-reload watcher:
    checkpoints rotated in place (``repro update``, ``rotate_checkpoint``)
    are picked up within one interval with zero failed predicts — requests
    racing the swap are answered by whichever complete generation they
    resolved.  ``None`` serves each loaded checkpoint as-is.

    ``wal_dir`` runs crash recovery before anything is served: every
    checkpoint with a pending write-ahead-log suffix (journaled batches
    newer than its ``wal_applied`` watermark) is replayed and rotated via
    :func:`repro.wal.recover_model_dir`, so the served state reflects all
    durably-journaled ingestion even after a SIGKILL mid-update.

    ``identity`` is merged into the health payload so pool workers are
    distinguishable through the router.

    ``jobs=True`` (the default) attaches a :class:`JobManager` persisting
    job state under ``jobs_dir`` (default ``<model_dir>/jobs``; the
    registry only scans ``*.npz`` so the subdirectory is inert) with
    ``job_workers`` concurrent executions.  Pool workers run with
    ``jobs=False`` — the router owns the single job manager so
    content-addressed dedup is global, not per-shard.
    """
    if wal_dir is not None:
        from ..wal import recover_model_dir

        recover_model_dir(model_dir, wal_dir)
    registry = ModelRegistry(model_dir, max_loaded=max_loaded)
    service = PredictService(registry, max_batch_rows=max_batch_rows,
                             max_delay=max_delay,
                             micro_batching=micro_batching,
                             identity=identity)
    manager = None
    if jobs:
        manager = JobManager(jobs_dir or Path(model_dir) / "jobs",
                             max_workers=job_workers)
    try:
        server = ReproHTTPServer((host, port), _Handler, service, manager)
    except BaseException:
        if manager is not None:
            manager.close()
        service.close()
        raise
    # Only after the bind succeeded: a failed construction must not leak a
    # polling watcher thread nobody can stop.
    if reload_interval is not None:
        registry.start_hot_reload(reload_interval)
    return server
