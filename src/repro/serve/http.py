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

Every predict/neighbors/search POST opens a request trace: an incoming
``X-Repro-Trace`` header (from the pool router) is adopted, otherwise a
trace id is minted here, and the id is echoed on the response so clients
can correlate their request with the span breakdowns under
``/v1/stats?verbose=1``.  ``POST /v1/jobs`` echoes the job's own trace id,
the one its lifecycle logs carry.

:class:`_BaseHandler` is shared with the pool router
(:mod:`repro.serve.router`): the send path, body drain, error boundary,
request metrics and jobs routes exist once for both front ends.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per request,
with the :class:`~repro.serve.service.PredictService` micro-batcher
coalescing concurrent forwards — so serving needs no dependencies beyond
the standard library and numpy.
"""

from __future__ import annotations

import contextlib
import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs

from ..exceptions import ServingError
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
           "query_value"]

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
    """Threading HTTP server carrying the shared :class:`PredictService`.

    The pool router derives from it with ``service=None`` (it owns no
    model state), so both front ends share the accept queue, the daemon
    request threads and the job manager's shutdown.
    """

    daemon_threads = True
    #: The socketserver default backlog of 5 resets connections under a
    #: concurrent burst (the hot-reload guarantee is exercised with 100
    #: simultaneous clients); a deeper accept queue just parks them.
    request_queue_size = 128

    def __init__(self, address, handler, service: PredictService | None,
                 jobs: JobManager | None = None) -> None:
        super().__init__(address, handler)
        self.service = service
        self.jobs = jobs

    def server_close(self) -> None:
        """Close the socket, the jobs, the hot-reload watcher and batchers.

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


class _BaseHandler(BaseHTTPRequestHandler):
    """What both front ends do alike: drain, match, answer, count.

    The single server's :class:`_Handler` and the pool router's handler
    only implement :meth:`_dispatch` and name their request metrics; the
    send path, error envelope, exception boundary, request metrics and
    the jobs and OpenAPI routes live here once.
    """

    server: ReproHTTPServer
    protocol_version = "HTTP/1.1"
    #: Quiet by default; flip for debugging.
    verbose = False
    #: ``(name, help)`` of the request counter and the latency histogram.
    requests_metric: tuple[str, str]
    latency_metric: tuple[str, str]
    _trace_id: str | None = None
    _extra_headers: tuple[tuple[str, str], ...] = ()
    _status = 0

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.verbose:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _send_bytes(self, status: int, data: bytes, content_type: str,
                    retry_after: int | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.send_header("Content-Length", str(len(data)))
        if self._trace_id:
            self.send_header(TRACE_HEADER, self._trace_id)
        for name, value in self._extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self._status = status
        self.wfile.write(data)

    def _send_json(self, status: int, body: dict | list,
                   retry_after: int | None = None) -> None:
        self._send_bytes(status, json.dumps(body).encode("utf-8"),
                         "application/json", retry_after=retry_after)

    def _send_error_json(self, status: int, message: str,
                         code: str | None = None,
                         retry_after: int | None = None) -> None:
        self._send_json(status, error_envelope(
            code or default_code(status), message, trace_id=self._trace_id),
            retry_after=retry_after)

    def _observe_request(self, endpoint: str, started: float) -> None:
        if not obs_enabled():
            return
        registry = get_registry()
        registry.counter(*self.requests_metric, ("endpoint", "status")).inc(
            endpoint=endpoint, status=self._status)
        registry.histogram(*self.latency_metric, ("endpoint",)).observe(
            time.perf_counter() - started, endpoint=endpoint)

    # ------------------------------------------------------------------
    def _read_body(self) -> bytes | None:
        """Drain and return the request body, enforcing the size limit.

        Returns ``None`` after refusing the body (bad or hostile
        Content-Length, unreadable socket).  Answering before consuming
        Content-Length bytes desyncs HTTP/1.1 keep-alive: the next request
        would be parsed starting at the leftover body.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError as exc:
            return self._refuse_body(400, f"bad Content-Length: {exc}")
        if length < 0:
            # rfile.read(-1) would block reading until EOF, pinning the
            # handler thread for as long as the client holds the socket.
            return self._refuse_body(400, f"bad Content-Length: {length}")
        if length > _MAX_BODY_BYTES:
            return self._refuse_body(
                413, f"request body of {length} bytes exceeds the "
                     f"{_MAX_BODY_BYTES} byte limit")
        try:
            return self.rfile.read(length) if length else b""
        except OSError as exc:
            return self._refuse_body(400, f"unreadable request body: {exc}")

    def _refuse_body(self, status: int, message: str) -> None:
        """Answer a body left unread, then close the connection.

        Sending ``Connection: close`` also sets ``close_connection``, so
        the client learns the socket is done instead of reusing it.
        """
        self._extra_headers = (*self._extra_headers, ("Connection", "close"))
        self._send_error_json(status, message)

    @staticmethod
    def _json_body(raw: bytes):
        """Decode a JSON request body (empty means ``{}``)."""
        try:
            return json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError as exc:  # JSON and UTF-8 decode errors alike
            raise ServingError(f"invalid JSON body: {exc}") from exc

    @contextlib.contextmanager
    def _request_trace(self, endpoint: str):
        """Open the request's trace, adopting a valid ``X-Repro-Trace``.

        The id is echoed on the response, so a client can find the
        request's spans under ``/v1/stats?verbose=1``; the router forwards
        it, so a worker's spans land on the router's trace.
        """
        incoming = self.headers.get(TRACE_HEADER)
        trace_id = incoming if valid_trace_id(incoming) else None
        with request_trace(endpoint, trace_id=trace_id) as trace:
            if trace is not None:
                self._trace_id = trace.trace_id
            yield

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
        route, params = match_route(method, path)
        endpoint = route.endpoint if route is not None else "other"
        # Drain the body before answering anything (even a 404).
        raw = self._read_body() if method == "POST" else b""
        started = time.perf_counter()
        try:
            if raw is None:
                return  # refused while draining; already answered
            if route is None:
                self._send_error_json(404, f"no such route: {self.path}",
                                      code="not_found")
            elif endpoint.startswith("jobs_"):
                self._handle_jobs(endpoint, params, query, raw)
            elif endpoint == "openapi":
                self._send_json(200, openapi_spec())
            else:
                self._dispatch(endpoint, params, path, query, raw)
        except Exception as exc:  # noqa: BLE001 - request boundary
            status, code = classify_exception(exc)
            message = (str(exc) if type(exc).__module__.startswith("repro")
                       else f"{type(exc).__name__}: {exc}")
            self._send_error_json(status, message, code=code)
        finally:
            self._observe_request(endpoint, started)

    def _dispatch(self, endpoint: str, params: dict, path: str, query: str,
                  raw: bytes) -> None:
        """Answer a matched route; ``path`` is unversioned, ``raw`` drained."""
        raise NotImplementedError

    def _handle_jobs(self, endpoint: str, params: dict, query: str,
                     raw: bytes) -> None:
        """Answer jobs routes from the server's :class:`JobManager`."""
        jobs = self.server.jobs
        if jobs is None:
            self._send_error_json(
                503, "the jobs API is not enabled on this server (in a "
                     "pool, the router owns jobs)", code="jobs_disabled")
        elif endpoint == "jobs_submit":
            description, created = jobs.submit(self._json_body(raw))
            # Echo the job's own trace id: its lifecycle logs carry it.
            self._trace_id = description.get("trace_id") or None
            self._send_json(201 if created else 200, description)
        elif endpoint == "jobs_list":
            self._send_json(200, {"jobs": jobs.list_jobs()})
        elif endpoint == "jobs_get":
            self._send_json(200, jobs.get(params["id"]))
        elif endpoint == "jobs_cancel":
            self._send_json(200, jobs.cancel(params["id"]))
        else:  # jobs_result
            fmt = query_value(query, "format") or "json"
            data, content_type = jobs.result_bytes(params["id"], fmt)
            self._send_bytes(200, data, content_type)


class _Handler(_BaseHandler):
    """The single server and every pool worker: answer from the service."""

    requests_metric = ("repro_http_requests_total", "HTTP requests handled")
    latency_metric = ("repro_http_request_seconds",
                      "HTTP request handling time")

    def _dispatch(self, endpoint: str, params: dict, path: str, query: str,
                  raw: bytes) -> None:
        service = self.server.service
        if endpoint in ("predict", "neighbors", "search"):
            payload = self._json_body(raw)
            with self._request_trace(endpoint):
                if endpoint == "search":
                    self._send_json(200, service.search(payload))
                elif endpoint == "predict":
                    self._send_json(200, service.predict(params["name"],
                                                         payload))
                else:
                    self._send_json(200, service.neighbors(params["name"],
                                                           payload))
        elif endpoint == "healthz":
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
                self._send_bytes(
                    200, render_prometheus(get_registry()).encode("utf-8"),
                    _PROMETHEUS_CONTENT_TYPE)
        else:  # pragma: no cover - table and dispatch are kept in sync
            self._send_error_json(404, f"no handler for {endpoint!r}",
                                  code="not_found")


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
