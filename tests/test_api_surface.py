"""One route table, four consumers: dispatch, OpenAPI, docs, versioning.

The serving surface is declared once in ``repro.serve.routes.ROUTES`` and
consumed by the single-process server, the pool router, the OpenAPI
document and API.md.  These tests pin the invariant that none of the four
can drift: every declared route answers on both server shapes, the spec
served over the wire equals the one rendered from the table, the
committed API.md contains every canonical path, legacy unversioned paths
carry deprecation headers, and error responses use stable codes.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from pathlib import Path

import pytest

from repro.serve import http as serve_http
from repro.serve.errors import (
    ERROR_CODES,
    classify_exception,
    default_code,
    error_envelope,
)
from repro.serve.routes import (
    API_PREFIX,
    ROUTES,
    deprecation_headers,
    openapi_spec,
    render_http_api_md,
    split_version,
)
from repro.exceptions import ServingError

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Placeholder values for path parameters when sweeping the live surface.
_PARAM_FILL = {"name": "missing-model", "id": "j-missing"}


def _request(port: int, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    result = (response.status, dict(response.getheaders()), data)
    conn.close()
    return result


def _fill(path: str) -> str:
    for param, value in _PARAM_FILL.items():
        path = path.replace("{%s}" % param, value)
    return path


@pytest.fixture()
def model_dir(tmp_path):
    path = tmp_path / "models"
    path.mkdir()
    return path


class TestRouteTable:
    def test_every_route_is_versioned(self):
        for route in ROUTES:
            assert route.path.startswith(API_PREFIX + "/"), route.path

    def test_openapi_spec_mirrors_route_table(self):
        spec = openapi_spec()
        operations = {(method.upper(), path)
                      for path, methods in spec["paths"].items()
                      for method in methods}
        assert operations == {(route.method, route.path)
                              for route in ROUTES}
        for route in ROUTES:
            operation = spec["paths"][route.path][route.method.lower()]
            assert operation["operationId"] == route.endpoint
            assert operation["summary"] == route.summary

    def test_committed_api_md_contains_every_route(self):
        api_md = (REPO_ROOT / "API.md").read_text(encoding="utf-8")
        assert render_http_api_md() in api_md
        for route in ROUTES:
            assert f"`{route.method} {route.path}`" in api_md, route.path

    def test_split_version(self):
        assert split_version("/v1/jobs") == ("/jobs", True)
        assert split_version("/jobs") == ("/jobs", False)
        assert split_version("/v1/jobs/") == ("/jobs", True)
        # Legacy synonym resolves to the canonical spelling.
        assert split_version("/health") == ("/healthz", False)
        assert split_version("/v1/health") == ("/healthz", True)

    def test_deprecation_headers_point_at_successor(self):
        headers = dict(deprecation_headers("/jobs"))
        assert headers["Deprecation"] == "true"
        assert headers["Link"] == '</v1/jobs>; rel="successor-version"'


class TestErrorCodes:
    def test_status_defaults_are_stable(self):
        assert default_code(400) == "bad_request"
        assert default_code(404) == "not_found"
        assert default_code(413) == "payload_too_large"
        assert default_code(429) == "over_capacity"
        assert default_code(500) == "internal"
        assert default_code(503) == "no_workers"

    def test_envelope_shape(self):
        body = error_envelope("not_found", "no job named j-x",
                              trace_id="t" * 16)
        assert body == {"error": {"code": "not_found",
                                  "message": "no job named j-x",
                                  "trace_id": "t" * 16}}
        assert set(ERROR_CODES) >= {"bad_request", "not_found",
                                    "over_capacity", "checkpoint_corrupt",
                                    "no_workers", "jobs_disabled",
                                    "internal"}

    def test_envelope_rejects_unregistered_codes(self):
        with pytest.raises(AssertionError):
            error_envelope("made_up_code", "boom")

    def test_classify_exception(self):
        from repro.serialize import SerializationError

        assert classify_exception(ServingError("bad input")) == \
            (400, "bad_request")
        assert classify_exception(ServingError("no model named x")) == \
            (404, "not_found")
        assert classify_exception(SerializationError("truncated")) == \
            (500, "checkpoint_corrupt")
        # Unrecognised exceptions classify as client errors: the models
        # raise plain ValueError for malformed matrices.
        assert classify_exception(ValueError("bad shape")) == \
            (400, "bad_request")


class _SurfaceChecks:
    """Shared live-surface assertions and tests, run against a port.

    Each front end supplies a ``port`` fixture and ``requests_family``,
    the name of its request counter.
    """

    requests_family: str

    @staticmethod
    def assert_all_routes_answer(port: int):
        for route in ROUTES:
            body = b"{}" if route.has_body else None
            status, _, data = _request(port, route.method,
                                       _fill(route.path), body)
            # Any answer is fine except the dispatcher's own "no such
            # route" — a declared route must exist on the wire.
            if status == 404:
                message = json.loads(data)["error"]["message"]
                assert "no such route" not in message, route.path
            assert status != 501, route.path  # unsupported method

    @staticmethod
    def assert_openapi_served(port: int):
        status, headers, data = _request(port, "GET", "/v1/openapi.json")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(data) == openapi_spec()

    @staticmethod
    def assert_legacy_paths_deprecated(port: int):
        status, headers, _ = _request(port, "GET", "/healthz")
        assert status == 200
        assert headers["Deprecation"] == "true"
        assert headers["Link"] == '</v1/healthz>; rel="successor-version"'
        # The pre-/healthz spelling is doubly legacy; same stamp.
        status, headers, _ = _request(port, "GET", "/health")
        assert status == 200
        assert headers["Link"] == '</v1/healthz>; rel="successor-version"'
        # Canonical paths are not deprecated.
        status, headers, _ = _request(port, "GET", "/v1/healthz")
        assert status == 200
        assert "Deprecation" not in headers

    @staticmethod
    def assert_error_envelopes(port: int):
        # Unknown route: stable code, enveloped.  (No trace_id here — a
        # request trace is only opened once a route is matched.)
        status, _, data = _request(port, "GET", "/v1/no/such/route")
        body = json.loads(data)
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert "no such route" in body["error"]["message"]
        # Malformed JSON body.
        status, _, data = _request(port, "POST", "/v1/search", b"{nope")
        assert status == 400
        assert json.loads(data)["error"]["code"] == "bad_request"
        # Unknown model on a versioned inference route.
        status, _, data = _request(port, "POST",
                                   "/v1/models/ghost/predict",
                                   b'{"vectors": [[0.0]]}')
        assert status == 404
        assert json.loads(data)["error"]["code"] == "not_found"


    # -- body drain: refused bodies and keep-alive ------------------------
    def test_oversized_body_rejected_with_413(self, port, monkeypatch):
        monkeypatch.setattr(serve_http, "_MAX_BODY_BYTES", 1024)
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=10)
        connection.request(
            "POST", "/models/webtables/predict", body=b"x" * 4096,
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 413
        assert b"limit" in response.read()
        connection.close()

    def test_negative_content_length_rejected(self, port):
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /models/webtables/predict HTTP/1.1\r\n"
                         b"Host: localhost\r\n"
                         b"Content-Length: -1\r\n\r\n")
            sock.settimeout(10)
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_keep_alive_survives_a_404_post(self, port):
        """The 404 branch must drain the body or break keep-alive clients."""
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=10)
        body = json.dumps({"items": [{"headers": ["a", "b"]}]})
        connection.request("POST", "/no/such/route", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 404
        response.read()
        # Same connection: the next request must parse cleanly.
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
        connection.close()

    def test_refused_body_closes_cleanly_and_is_counted(self, port,
                                                        monkeypatch):
        """A 413 says ``Connection: close`` (so the client's next request
        reconnects instead of hitting a dead socket) and is counted
        under the matched route."""
        monkeypatch.setattr(serve_http, "_MAX_BODY_BYTES", 1024)
        before = self._refused_count(port)
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=10)
        connection.request(
            "POST", "/v1/models/webtables/predict", body=b"x" * 4096,
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 413
        assert response.getheader("Connection") == "close"
        response.read()
        # Same client connection: it must answer the next request.
        connection.request("GET", "/v1/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
        connection.close()
        # The count lands as the handler thread finishes; poll briefly.
        deadline = time.monotonic() + 10
        while self._refused_count(port) == before:
            assert time.monotonic() < deadline, "413 was never counted"
            time.sleep(0.05)
        assert self._refused_count(port) == before + 1

    def _refused_count(self, port: int) -> float:
        _, _, data = _request(port, "GET", "/v1/metrics?format=json")
        family = json.loads(data).get(self.requests_family, {})
        return sum(series["value"] for series in family.get("series", [])
                   if series["labels"].get("endpoint") == "predict"
                   and str(series["labels"].get("status")) == "413")


class TestSingleServerSurface(_SurfaceChecks):
    requests_family = "repro_http_requests_total"

    @pytest.fixture()
    def port(self, http_server, model_dir):
        return http_server(model_dir)[1]

    def test_surface(self, http_server, model_dir):
        _, port = http_server(model_dir)
        self.assert_all_routes_answer(port)
        self.assert_openapi_served(port)
        self.assert_legacy_paths_deprecated(port)
        self.assert_error_envelopes(port)


class TestPoolRouterSurface(_SurfaceChecks):
    requests_family = "repro_router_requests_total"

    @pytest.fixture()
    def port(self, pool_server, model_dir):
        return pool_server(model_dir, workers=2)[1]

    def test_surface(self, pool_server, model_dir):
        _, port = pool_server(model_dir, workers=2)
        self.assert_all_routes_answer(port)
        self.assert_openapi_served(port)
        self.assert_legacy_paths_deprecated(port)
        self.assert_error_envelopes(port)
