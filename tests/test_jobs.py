"""Async jobs API: lifecycle, dedup, cancel, exporters, persistence, pool.

Exercises the tentpole of the jobs tier end to end over HTTP:

* submit -> poll -> result for a real (small) experiment;
* content-addressed dedup — resubmitting an identical spec returns the
  same job id without a second execution;
* cooperative cancellation mid-run (slow cells injected via monkeypatch
  so the DELETE deterministically lands between cells);
* result-format negotiation through all three pluggable exporters, with
  the CSV identical to foreground ``repro run --format csv`` in every
  column except wall-clock ``runtime_s``;
* crash-safe persistence — a restarted server still serves completed
  results and reports mid-flight jobs as ``interrupted``;
* jobs over the ``--workers N`` pool: the router owns the single job
  manager (global dedup), workers answer ``jobs_disabled``;
* a submission's ``X-Repro-Trace`` header is the job's own trace id on
  both front ends.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.cli import main
from repro.export import CSVExporter, JSONLExporter, NPZBundleExporter
from repro.serve.jobs import JobManager, canonical_spec, job_id_for

#: Small real experiment: one cell of table2 at test scale, capped epochs.
SPEC = {"experiment_id": "table2", "scale": "test",
        "datasets": ["webtables"], "embeddings": ["sbert"],
        "algorithms": ["kmeans"], "epochs": 2, "seed": 0}

#: The matching foreground CLI invocation (must stay in sync with SPEC).
SPEC_ARGV = ["run", "table2", "--scale", "test", "--datasets", "webtables",
             "--embeddings", "sbert", "--algorithms", "kmeans",
             "--epochs", "2", "--seed", "0"]


def _request(port: int, method: str, path: str, body: dict | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    payload = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    data = response.read()
    result = (response.status, dict(response.getheaders()), data)
    conn.close()
    return result


def _json(port: int, method: str, path: str, body: dict | None = None):
    status, _, data = _request(port, method, path, body)
    return status, json.loads(data)


def _masked_csv(text: str) -> str:
    """CSV with the wall-clock ``runtime_s`` column masked.

    Every other column is deterministic for a fixed spec/seed, so two
    runs must agree byte for byte outside this one field.
    """
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    if "runtime_s" not in header:
        return "\n".join(lines)
    index = header.index("runtime_s")
    masked = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[index] = "*"
        masked.append(",".join(fields))
    return "\n".join(masked)


def _wait_for_status(port: int, job_id: str, wanted: tuple[str, ...],
                     timeout: float = 180.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = _json(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200, body
        if body["status"] in wanted:
            return body
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} never reached {wanted}")


@pytest.fixture()
def model_dir(tmp_path):
    path = tmp_path / "models"
    path.mkdir()
    return path


class TestJobLifecycle:
    def test_submit_poll_result(self, http_server, model_dir):
        _, port = http_server(model_dir)
        status, body = _json(port, "POST", "/v1/jobs", SPEC)
        assert status == 201, body
        job_id = body["id"]
        assert body["status"] in ("queued", "running")
        assert body["progress"] == {"done": 0, "total": 1}
        assert body["trace_id"]

        done = _wait_for_status(port, job_id, ("completed",))
        assert done["progress"] == {"done": 1, "total": 1}
        assert done["result_rows"] == 1

        status, listing = _json(port, "GET", "/v1/jobs")
        assert status == 200
        assert [job["id"] for job in listing["jobs"]] == [job_id]

        status, headers, data = _request(port, "GET",
                                         f"/v1/jobs/{job_id}/result")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        rows = json.loads(data)
        assert len(rows) == 1 and 0.0 <= rows[0]["ACC"] <= 1.0

    def test_duplicate_submission_dedups(self, http_server, model_dir):
        _, port = http_server(model_dir)
        status, first = _json(port, "POST", "/v1/jobs", SPEC)
        assert status == 201
        # Immediately resubmit (job queued or running): same id, no new job.
        status, second = _json(port, "POST", "/v1/jobs", SPEC)
        assert status == 200 and second["id"] == first["id"]
        _wait_for_status(port, first["id"], ("completed",))
        # Resubmit after completion: still the same job, still executed once.
        status, third = _json(port, "POST", "/v1/jobs", SPEC)
        assert status == 200 and third["id"] == first["id"]
        assert third["status"] == "completed"
        _, listing = _json(port, "GET", "/v1/jobs")
        assert len(listing["jobs"]) == 1

    def test_submission_is_order_insensitive(self):
        reordered = dict(reversed(list(SPEC.items())))
        assert job_id_for(canonical_spec(SPEC)) == \
            job_id_for(canonical_spec(reordered))

    def test_cancellation_mid_run(self, http_server, model_dir,
                                  monkeypatch):
        class _SlowRow:
            def as_row(self):
                return {"Dataset": "webtables"}

        def slow_cell(task, cell):
            time.sleep(0.25)
            return _SlowRow()

        monkeypatch.setattr("repro.serve.jobs.execute_cell", slow_cell)
        _, port = http_server(model_dir)
        spec = {**SPEC, "algorithms": ["kmeans", "birch", "dbscan"],
                "embeddings": ["sbert", "fasttext"]}
        status, body = _json(port, "POST", "/v1/jobs", spec)
        assert status == 201 and body["progress"]["total"] == 6
        job_id = body["id"]
        running = _wait_for_status(port, job_id, ("running",))
        assert running["status"] == "running"
        status, cancelled = _json(port, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 200
        final = _wait_for_status(port, job_id, ("cancelled",))
        assert final["progress"]["done"] < final["progress"]["total"]
        # A cancelled job has no result to serve.
        status, body = _json(port, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 400 and body["error"]["code"] == "bad_request"
        # Cancelling again is idempotent; resubmitting re-enqueues (201).
        status, _ = _json(port, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 200
        status, requeued = _json(port, "POST", "/v1/jobs", spec)
        assert status == 201 and requeued["id"] == job_id

    def test_cancel_while_queued(self, http_server, model_dir, monkeypatch):
        def slow_cell(task, cell):  # keeps the single worker busy
            time.sleep(0.25)

            class _Row:
                def as_row(self):
                    return {"Dataset": "webtables"}
            return _Row()

        monkeypatch.setattr("repro.serve.jobs.execute_cell", slow_cell)
        _, port = http_server(model_dir, job_workers=1)
        blocker = {**SPEC, "algorithms": ["kmeans", "birch", "dbscan"],
                   "embeddings": ["sbert", "fasttext"]}
        _json(port, "POST", "/v1/jobs", blocker)
        status, queued = _json(port, "POST", "/v1/jobs", SPEC)
        assert status == 201
        status, body = _json(port, "DELETE", f"/v1/jobs/{queued['id']}")
        assert status == 200 and body["status"] == "cancelled"
        assert body["progress"]["done"] == 0


class TestResultFormats:
    @pytest.fixture()
    def completed(self, http_server, model_dir):
        _, port = http_server(model_dir)
        _, body = _json(port, "POST", "/v1/jobs", SPEC)
        _wait_for_status(port, body["id"], ("completed",))
        return port, body["id"]

    def test_csv_matches_foreground_run(self, completed, capsys):
        port, job_id = completed
        status, headers, payload = _request(
            port, "GET", f"/v1/jobs/{job_id}/result?format=csv")
        assert status == 200
        assert headers["Content-Type"].startswith("text/csv")
        assert main([*SPEC_ARGV, "--format", "csv"]) == 0
        foreground = capsys.readouterr().out
        assert _masked_csv(payload.decode("utf-8")) == \
            _masked_csv(foreground)

    def test_jsonl_round_trip(self, completed):
        port, job_id = completed
        _, _, json_payload = _request(port, "GET",
                                      f"/v1/jobs/{job_id}/result")
        rows = json.loads(json_payload)
        status, headers, payload = _request(
            port, "GET", f"/v1/jobs/{job_id}/result?format=jsonl")
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert JSONLExporter().load(payload) == \
            json.loads(json.dumps(rows))  # jsonl stringifies like json

    def test_npz_round_trip(self, completed):
        port, job_id = completed
        _, _, json_payload = _request(port, "GET",
                                      f"/v1/jobs/{job_id}/result")
        rows = json.loads(json_payload)
        status, headers, payload = _request(
            port, "GET", f"/v1/jobs/{job_id}/result?format=npz")
        assert status == 200
        assert headers["Content-Type"] == "application/x-npz"
        loaded = NPZBundleExporter().load(payload)
        assert len(loaded) == len(rows)
        assert list(loaded[0]) == list(rows[0])
        assert loaded[0]["Dataset"] == rows[0]["Dataset"]
        assert loaded[0]["ACC"] == pytest.approx(rows[0]["ACC"])

    def test_unknown_format_is_bad_request(self, completed):
        port, job_id = completed
        status, body = _json(port, "GET",
                             f"/v1/jobs/{job_id}/result?format=parquet")
        assert status == 400 and body["error"]["code"] == "bad_request"


class TestExporterUnits:
    ROWS = [{"name": "a", "n": 1, "score": 0.5, "flag": True},
            {"name": "b", "n": 2, "score": 1.5, "flag": False}]

    def test_csv_round_trip(self):
        exporter = CSVExporter()
        loaded = exporter.load(exporter.export(self.ROWS))
        assert [row["name"] for row in loaded] == ["a", "b"]

    def test_jsonl_round_trip(self):
        exporter = JSONLExporter()
        assert exporter.load(exporter.export(self.ROWS)) == self.ROWS

    def test_npz_round_trip_preserves_kinds(self):
        exporter = NPZBundleExporter()
        loaded = exporter.load(exporter.export(self.ROWS))
        assert loaded[0]["n"] == 1 and isinstance(loaded[0]["n"], int)
        assert loaded[1]["score"] == 1.5
        assert loaded[0]["flag"] == "True"  # bools travel as strings


class TestPersistence:
    def test_completed_job_survives_restart(self, model_dir):
        import threading

        from repro.serve import create_server

        server = create_server(model_dir, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            _, body = _json(port, "POST", "/v1/jobs", SPEC)
            job_id = body["id"]
            _wait_for_status(port, job_id, ("completed",))
        finally:
            server.shutdown()
            server.server_close()

        server = create_server(model_dir, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            status, body = _json(port, "GET", f"/v1/jobs/{job_id}")
            assert status == 200 and body["status"] == "completed"
            status, _, payload = _request(
                port, "GET", f"/v1/jobs/{job_id}/result?format=csv")
            assert status == 200 and payload.startswith(b"Dataset,")
            # And the dedup map survived too: resubmission is a no-op.
            status, again = _json(port, "POST", "/v1/jobs", SPEC)
            assert status == 200 and again["id"] == job_id
        finally:
            server.shutdown()
            server.server_close()

    def test_midflight_job_reported_interrupted(self, tmp_path,
                                                monkeypatch):
        class _Row:
            def as_row(self):
                return {"Dataset": "webtables"}

        monkeypatch.setattr("repro.serve.jobs.execute_cell",
                            lambda task, cell: _Row())
        state_dir = tmp_path / "jobs"
        manager = JobManager(state_dir)
        spec = canonical_spec(SPEC)
        job_id = job_id_for(spec)
        # Simulate a crash: a state file left in "running" by a dead
        # process (written through a scratch manager so the format is
        # exactly what a live one produces).
        from repro.serve.jobs import Job
        crashed = Job(job_id=job_id, spec=spec, status="running",
                      created_at=1.0, started_at=2.0, total_cells=1,
                      trace_id="t" * 16)
        manager._persist(crashed)
        manager.close()

        restarted = JobManager(state_dir)
        try:
            described = restarted.get(job_id)
            assert described["status"] == "interrupted"
            assert "restarted" in described["error"]
            # Resubmitting the same spec re-enqueues under the same id.
            body, created = restarted.submit(SPEC)
            assert created and body["id"] == job_id
        finally:
            restarted.close()


class TestJobsOverPool:
    def test_pool_routes_jobs_to_router_owner(self, pool_server, model_dir,
                                              capsys):
        router, port = pool_server(model_dir, workers=2)
        status, body = _json(port, "POST", "/v1/jobs", SPEC)
        assert status == 201, body
        job_id = body["id"]
        # Dedup is global: the router owns the one manager, so an
        # immediate resubmission maps to the same job whatever shard a
        # client might have hashed to.
        status, again = _json(port, "POST", "/v1/jobs", SPEC)
        assert status == 200 and again["id"] == job_id
        _wait_for_status(port, job_id, ("completed",))

        status, headers, payload = _request(
            port, "GET", f"/v1/jobs/{job_id}/result?format=csv")
        assert status == 200
        assert headers["Content-Type"].startswith("text/csv")
        assert main([*SPEC_ARGV, "--format", "csv"]) == 0
        foreground = capsys.readouterr().out
        assert _masked_csv(payload.decode("utf-8")) == \
            _masked_csv(foreground)

        # Workers have no jobs API of their own — the router is the
        # single owner; a direct worker hit answers the stable code.
        worker_port = router.pool.address_of(0)[1]
        status, body = _json(worker_port, "GET", "/v1/jobs")
        assert status == 503 and body["error"]["code"] == "jobs_disabled"


class TestJobTraceHeader:
    @pytest.mark.parametrize("shape", ["single", "pool"])
    def test_submit_echoes_the_job_trace_id(self, shape, http_server,
                                            pool_server, model_dir,
                                            monkeypatch):
        """``X-Repro-Trace`` on a submission is the job's ``trace_id``,
        the id its lifecycle logs carry, on both front ends."""
        class _Row:
            def as_row(self):
                return {"Dataset": "webtables"}

        monkeypatch.setattr("repro.serve.jobs.execute_cell",
                            lambda task, cell: _Row())
        if shape == "single":
            _, port = http_server(model_dir)
        else:
            _, port = pool_server(model_dir, workers=2)
        status, headers, data = _request(port, "POST", "/v1/jobs", SPEC)
        body = json.loads(data)
        assert status == 201, body
        assert headers["X-Repro-Trace"] == body["trace_id"]
        _wait_for_status(port, body["id"], ("completed",))
        # A deduplicated resubmission echoes the same job's id.
        status, headers, data = _request(port, "POST", "/v1/jobs", SPEC)
        assert status == 200
        assert headers["X-Repro-Trace"] == body["trace_id"] == \
            json.loads(data)["trace_id"]


class TestSubmitValidation:
    def test_unknown_field_rejected(self, http_server, model_dir):
        _, port = http_server(model_dir)
        status, body = _json(port, "POST", "/v1/jobs",
                             {**SPEC, "surprise": 1})
        assert status == 400 and body["error"]["code"] == "bad_request"

    def test_invalid_override_rejected_at_submit(self, http_server,
                                                 model_dir):
        _, port = http_server(model_dir)
        status, body = _json(port, "POST", "/v1/jobs",
                             {"experiment_id": "table1",
                              "algorithms": ["kmeans"]})
        assert status == 400 and body["error"]["code"] == "bad_request"
        _, listing = _json(port, "GET", "/v1/jobs")
        assert listing["jobs"] == []

    def test_unknown_job_is_not_found(self, http_server, model_dir):
        _, port = http_server(model_dir)
        for method, path in (("GET", "/v1/jobs/j-missing"),
                             ("DELETE", "/v1/jobs/j-missing"),
                             ("GET", "/v1/jobs/j-missing/result")):
            status, body = _json(port, method, path)
            assert status == 404, (method, path)
            assert body["error"]["code"] == "not_found"


class TestExportCommand:
    def test_cli_export_matches_run_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        argv = ["export", "table2", "--scale", "test",
                "--datasets", "webtables", "--embeddings", "sbert",
                "--algorithms", "kmeans", "--epochs", "2", "--seed", "0",
                "--export-format", "csv", "--output", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*SPEC_ARGV, "--format", "csv"]) == 0
        foreground = capsys.readouterr().out
        assert _masked_csv(out.read_bytes().decode("utf-8")) == \
            _masked_csv(foreground)

    def test_cli_export_jsonl_to_stdout(self, capsys):
        argv = ["export", "table2", "--scale", "test",
                "--datasets", "webtables", "--embeddings", "sbert",
                "--algorithms", "kmeans", "--epochs", "2", "--seed", "0",
                "--export-format", "jsonl"]
        assert main(argv) == 0
        lines = [line for line in
                 capsys.readouterr().out.splitlines() if line]
        assert len(lines) == 1
        assert json.loads(lines[0])["Dataset"] == "web tables"
