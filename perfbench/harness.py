"""Process, socket and statistics plumbing shared by the perfbench workloads.

Nothing here imports ``repro``: the server under test runs as a separate
``python -m repro serve`` process, driven over keep-alive HTTP by at most
two client threads of this one load-generating process.  The load
generator is self-contained on purpose, so that edits to the test suite's
harnesses can never silently change what the benchmark measures.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

#: Root of the checkout the benchmark runs from (the parent of perfbench/).
ROOT = Path(__file__).resolve().parents[1]
#: The program's sources; the server subprocess imports ``repro`` from here.
SRC = ROOT / "src"
#: Scratch space for artifacts and model directories, inside the checkout.
WORK_ROOT = ROOT / ".perfbench"

#: Layer probes replay at most this many requests, so their cost does not
#: grow with the server's throughput.
PROBE_REQUESTS = 64

#: The server prints ``... on http://HOST:PORT (...)`` once it listens.
_ADDRESS = re.compile(r"on http://([0-9.]+):(\d+)")

#: One request: ``(key, method, path, body)``.  ``key`` identifies the
#: input so the answer can be checked after the measured phase.
Request = tuple[object, str, str, bytes | None]


# ---------------------------------------------------------------------------
# the server under test

class ServerProcess:
    """``python -m repro serve`` in its own session, on an ephemeral port.

    The listen address is parsed from the startup line on stderr, which a
    daemon thread keeps draining for the life of the process (a full pipe
    would otherwise block the server's logging).  :meth:`close` always
    stops the whole process group, including pool workers.
    """

    def __init__(self, model_dir: Path, extra_args: tuple[str, ...] = (),
                 *, boot_timeout: float = 120.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        self.tail: deque[str] = deque(maxlen=40)
        self.address: tuple[str, int] | None = None
        self._listening = threading.Event()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model-dir",
             str(model_dir), "--port", "0", *extra_args],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env,
            start_new_session=True)
        self._drain = threading.Thread(target=self._drain_stderr,
                                       daemon=True)
        self._drain.start()
        try:
            self._wait_listening(time.monotonic() + boot_timeout)
        except BaseException:
            self.close()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _drain_stderr(self) -> None:
        for line in self.process.stderr:
            self.tail.append(line.rstrip())
            if self.address is None:
                match = _ADDRESS.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    self._listening.set()
        self._listening.set()  # EOF: wake the waiter to report the exit

    def _wait_listening(self, deadline: float) -> None:
        while not self._listening.wait(0.2):
            if time.monotonic() > deadline:
                raise TimeoutError("server never printed its listen address")
        if self.address is None:
            self.process.wait(timeout=10)
            raise RuntimeError(
                f"server exited with code {self.process.returncode} before "
                f"listening:\n" + "\n".join(self.tail))

    def close(self) -> None:
        """SIGTERM the server, escalate to SIGKILL, reap the whole group."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                _kill_group(self.process.pid)
                self.process.wait()
        # Pool workers share the session; SIGTERM lets the router stop
        # them, but nothing may outlive the benchmark.
        deadline = time.monotonic() + 10
        while _group_alive(self.process.pid):
            if time.monotonic() > deadline:
                _kill_group(self.process.pid)
                deadline = time.monotonic() + 10
            time.sleep(0.05)
        self._drain.join(timeout=5)
        if self.process.stderr is not None:
            self.process.stderr.close()

    # -- introspection --------------------------------------------------
    def get_json(self, path: str):
        connection = Connection(*self.address)
        try:
            status, body = connection.request("GET", path)
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def metrics(self) -> dict:
        """The server's metrics registry snapshot (pool: fleet-merged)."""
        return self.get_json("/v1/metrics?format=json")

    def pids(self) -> list[int]:
        """The server process plus any pool workers it reports."""
        health = self.get_json("/v1/healthz")
        workers = [row["pid"] for row in health.get("workers", [])
                   if row.get("pid")]
        return [self.pid, *workers]


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - a foreign reused pgid
        return False
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' peak resident set sizes (VmHWM), in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


# ---------------------------------------------------------------------------
# the load generator

class Connection:
    """One keep-alive HTTP/1.1 connection (``http.client`` sets NODELAY)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._http = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(self, method: str, path: str,
                body: bytes | None = None) -> tuple[int, bytes]:
        """Send one request; status 0 means a transport error."""
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._http.request(method, path, body=body, headers=headers)
            response = self._http.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._http.close()  # reconnects on the next request
            return 0, b""

    def close(self) -> None:
        self._http.close()


@dataclass
class Sample:
    """One request as the client saw it."""

    client: int
    key: object
    path: str
    request: bytes
    started: float
    finished: float
    status: int
    body: bytes

    @property
    def seconds(self) -> float:
        return self.finished - self.started


@dataclass
class Phase:
    """The samples of one closed-loop phase and its wall time."""

    samples: list[Sample]
    elapsed: float


def closed_loop(address: tuple[str, int], streams: list[Iterator[Request]],
                seconds: float,
                on_sample: Callable[[Sample], None] | None = None) -> Phase:
    """Drive one client thread per stream until ``seconds`` have passed.

    Closed loop: a client sends its next request only after the previous
    reply was read.  Request generation happens before the clock starts
    for that request.  The phase ends when the last in-flight reply is in.
    """
    per_client: list[list[Sample]] = [[] for _ in streams]
    barrier = threading.Barrier(len(streams) + 1)
    clock: dict[str, float] = {}
    errors: list[BaseException] = []

    def client(index: int) -> None:
        connection = Connection(*address)
        try:
            barrier.wait()
            deadline = clock["deadline"]
            for key, method, path, body in streams[index]:
                if time.perf_counter() >= deadline:
                    break
                started = time.perf_counter()
                status, data = connection.request(method, path, body)
                finished = time.perf_counter()
                sample = Sample(index, key, path, body or b"", started,
                                finished, status, data)
                per_client[index].append(sample)
                if on_sample is not None:
                    on_sample(sample)
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    clock["deadline"] = started + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    samples = sorted((s for series in per_client for s in series),
                     key=lambda s: s.started)
    return Phase(samples, elapsed)


def wait_first_ok(address: tuple[str, int], request: Request,
                  timeout: float = 120.0) -> None:
    """Retry ``request`` until it is answered 200 (the end of set-up)."""
    _, method, path, body = request
    deadline = time.monotonic() + timeout
    connection = Connection(*address, timeout=30.0)
    try:
        while True:
            status, data = connection.request(method, path, body)
            if status == 200:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{path} never answered 200 (last {status}: "
                    f"{data[:200]!r})")
            time.sleep(0.02)
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# statistics

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def series_sum(snapshot: dict, family: str, **labels) -> tuple[float, float]:
    """``(sum, count)`` of a histogram, or ``(value, 0)`` of a counter/gauge.

    Sums every series of ``family`` whose labels include ``labels``.
    """
    total, count = 0.0, 0.0
    for series in snapshot.get(family, {}).get("series", []):
        if any(series["labels"].get(k) != v for k, v in labels.items()):
            continue
        if "count" in series:
            total += series["sum"]
            count += series["count"]
        else:
            total += series["value"]
    return total, count


def delta_mean_ms(before: dict, after: dict, family: str, **labels) -> float:
    """Mean of a histogram's observations between two snapshots, in ms."""
    sum0, count0 = series_sum(before, family, **labels)
    sum1, count1 = series_sum(after, family, **labels)
    count = count1 - count0
    return (sum1 - sum0) / count * 1000.0 if count else 0.0


def delta_count(before: dict, after: dict, family: str, *,
                histogram: bool = False, **labels) -> float:
    """Growth of a counter (or of a histogram's count) between snapshots."""
    index = 1 if histogram else 0
    return (series_sum(after, family, **labels)[index]
            - series_sum(before, family, **labels)[index])


# ---------------------------------------------------------------------------
# tracing, from the benchmark's side of each layer boundary

class Tracer:
    """In-memory spans around calls into the program's layers.

    Each span is ``(trace, name, start, end)``; spans of one request share
    ``trace``.  Spans are kept in memory and written out once, at the end.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[object, str, float, float]] = []

    @contextmanager
    def span(self, name: str, trace: object = None):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((trace, name, started, time.perf_counter()))

    def call(self, name: str, fn: Callable, *args, trace: object = None,
             **kwargs):
        with self.span(name, trace):
            return fn(*args, **kwargs)

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) * 1000.0
                for _, span_name, start, end in self.spans
                if span_name == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((start for *_, start, _ in self.spans), default=0.0)
        path.write_text(json.dumps([
            {"trace": str(trace), "name": name,
             "start_ms": round((start - origin) * 1000.0, 4),
             "duration_ms": round((end - start) * 1000.0, 4)}
            for trace, name, start, end in self.spans]))
