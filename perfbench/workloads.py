"""The four perfbench workloads: inputs, artifacts, answer checks, probes.

Every input is generated from the run's ``--seed`` (the server only ever
sees those generated inputs), and every answer is checked against an
in-process reference computed by the program's own public functions after
the measured phase:

* ``predict_vectors`` — 1 client, 8 pre-embedded 768-d rows per request
  against an ``ae_kmeans`` checkpoint;
* ``predict_items_pool`` — a 2-worker pool, 2 clients, 8 raw MusicBrainz
  records per request (3 in 4 fresh, 1 in 4 from a hot set of 16);
* ``search_ivfpq`` — 2 clients, one 64-d query per ``/v1/search`` over a
  100k-vector IVF-PQ index served mmap-attached;
* ``ingest_while_serving`` — 1 reader client predicting single rows while
  a writer thread journals, fine-tunes and rotates the served checkpoint.

README.md in this directory records why each workload exists.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from harness import PROBE_REQUESTS, Request, Sample, Tracer, mean, percentile

from repro.cache import reset_cache
from repro.config import DeepClusteringConfig
from repro.data.musicbrainz import generate_musicbrainz
from repro.dc import AutoencoderClustering
from repro.embeddings import embed_items
from repro.index import FlatIndex, IVFPQIndex, VectorIndex
from repro.serialize import load_checkpoint, rotate_checkpoint, save_checkpoint
from repro.serve import ModelRegistry
from repro.serve.pool import shard_for
from repro.stream import incremental_update
from repro.tasks import EntityResolutionTask
from repro.tasks.base import evaluate_clustering
from repro.wal import WriteAheadLog, stamp_wal_metadata


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _seed32(seed: int) -> int:
    return int(seed) % (2 ** 31)


def _tag_seed(tag: str) -> int:
    """A stable per-phase seed component (``hash`` is salted per process)."""
    return zlib.crc32(tag.encode("utf-8"))


class Workload:
    """One traffic mix against one server shape.

    Subclasses generate their inputs in ``__init__`` (untimed), build and
    save the served artifact at :attr:`checkpoint` in :meth:`build` (timed
    as set-up), and check every answer in :meth:`expected_ok`.
    """

    name = ""
    clients = 1
    #: Server processes (``--workers``); above 1, a pool behind a router.
    workers = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3
    #: The served route family, as labelled in the server's metrics.
    endpoint = "predict"
    #: Whether requests carry raw ``items`` (memoised by the service).
    sends_items = False

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = int(seed)
        self.tiny = tiny
        self.rng = np.random.default_rng([_seed32(self.seed),
                                          _tag_seed(self.name)])
        self.model_dir: Path | None = None
        self._reference = None
        self._expected: dict[object, list[int]] = {}

    # -- set-up -----------------------------------------------------------
    @property
    def checkpoint(self) -> Path:
        """The served artifact's file."""
        raise NotImplementedError

    def build(self, workdir: Path) -> Path:
        """Fit/build and save the served artifacts; return the model dir."""
        raise NotImplementedError

    def probes(self) -> list[Request]:
        """Requests that must each answer 200 before set-up is complete."""
        raise NotImplementedError

    def load(self):
        """Deserialise the served artifact in-process."""
        return load_checkpoint(self.checkpoint)

    def reference(self):
        """The served artifact, loaded once per set-up, for answer checks."""
        if self._reference is None:
            self._reference = self.load()
        return self._reference

    def _forget_reference(self) -> None:
        self._reference = None
        self._expected.clear()

    # -- traffic ----------------------------------------------------------
    def streams(self, tag: str) -> list[Iterator[Request]]:
        """One request stream per client; ``tag`` keeps phases' keys apart."""
        raise NotImplementedError

    def start_phase(self, tag: str) -> None:
        """Hook run right before a measured phase starts."""

    def stop_phase(self) -> None:
        """Hook run right after a measured phase ended."""

    # -- checks -----------------------------------------------------------
    def expected_ok(self, sample: Sample, answer: dict) -> bool:
        raise NotImplementedError

    def _expected_labels(self, key, rows: Callable[[], np.ndarray]
                         ) -> list[int]:
        """``predict`` of the reference on ``rows()``, once per input."""
        if key not in self._expected:
            self._expected[key] = [int(label) for label in
                                   self.reference().predict(rows())]
        return self._expected[key]

    def final_problems(self, server) -> list[str]:
        """Checks on the server's state after the last phase."""
        return []

    def after_close(self, server_pid: int) -> list[str]:
        """Checks once the server has exited."""
        return []

    # -- per-layer probes and reports --------------------------------------
    def layer_metrics(self, tracer: Tracer, samples: list[Sample]) -> dict:
        """In-process timings of the layers this workload exercises."""
        return {}

    def report_lines(self) -> list[str]:
        """Workload-specific end-to-end figures for the human report."""
        return []

    def close(self) -> None:
        """Release what the workload holds open (after the server stopped)."""


# ---------------------------------------------------------------------------
# vectors against an autoencoder + k-means checkpoint

_AE_DIM = 768
_AE_CLUSTERS = 20


def _near(rng: np.random.Generator, centers: np.ndarray,
          rows: int) -> np.ndarray:
    picks = rng.integers(centers.shape[0], size=rows)
    return centers[picks] + rng.normal(size=(rows, centers.shape[1]))


class PredictVectors(Workload):
    """1 client, 8 pre-embedded 768-d rows per request (~125 KB of JSON)."""

    name = "predict_vectors"
    model_name = "ae"
    rows_per_request = 8
    pool_size = 64

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.centers = self.rng.normal(size=(_AE_CLUSTERS, _AE_DIM)) * 2.0
        self.X = np.vstack([center + self.rng.normal(
            size=(15 if tiny else 30, _AE_DIM)) for center in self.centers])
        self.matrices = [_near(self.rng, self.centers, self.rows_per_request)
                         for _ in range(self.pool_size)]
        self.bodies = [_body({"vectors": m.tolist()}) for m in self.matrices]
        self.path = f"/v1/models/{self.model_name}/predict"

    @property
    def checkpoint(self) -> Path:
        return self.model_dir / f"{self.model_name}.npz"

    def build(self, workdir: Path) -> Path:
        """The bench_serve model shape: a ~10 MB checkpoint, real forwards."""
        self.model_dir = workdir / "models"
        config = DeepClusteringConfig(pretrain_epochs=2, train_epochs=2,
                                      layer_size=512, latent_dim=64,
                                      seed=_seed32(self.seed))
        model = AutoencoderClustering(_AE_CLUSTERS, clusterer="kmeans",
                                      config=config)
        model.fit(self.X)
        save_checkpoint(self.checkpoint, model,
                        metadata={"n_features": _AE_DIM})
        self._forget_reference()
        return self.model_dir

    def probes(self) -> list[Request]:
        return [(0, "POST", self.path, self.bodies[0])]

    def streams(self, tag: str) -> list[Iterator[Request]]:
        def stream() -> Iterator[Request]:
            i = 0
            while True:
                index = i % self.pool_size
                yield index, "POST", self.path, self.bodies[index]
                i += 1
        return [stream()]

    def expected_ok(self, sample: Sample, answer: dict) -> bool:
        index = sample.key
        return answer.get("labels") == self._expected_labels(
            index, lambda: self.matrices[index])

    def layer_metrics(self, tracer: Tracer, samples: list[Sample]) -> dict:
        model = self.reference()
        for index in range(min(self.pool_size, PROBE_REQUESTS)):
            tracer.call("dc.predict", model.predict, self.matrices[index],
                        trace=index)
        return {"dc.predict_ms": mean(tracer.durations_ms("dc.predict"))}


# ---------------------------------------------------------------------------
# raw records through the 2-worker pool

class PredictItemsPool(Workload):
    """2 clients, 8 raw records per request, over two pool shards."""

    name = "predict_items_pool"
    clients = 2
    workers = 2
    #: One set-up boots two worker processes (~6.5 s), so two, not three.
    setup_repeats = 2
    sends_items = True
    records_per_request = 8
    hot_payloads = 16
    hot_share = 0.25

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        # Served names whose CRC32 shards differ, so every worker is hot:
        # copies of one checkpoint, hence one expected answer.
        self.names = _names_covering_shards(self.workers)
        base = generate_musicbrainz(1024 if tiny else 4096,
                                    256 if tiny else 1024,
                                    seed=_seed32(self.seed) + 1)
        self.base = [{"values": dict(record.values), "source": record.source}
                     for record in base.records]
        self.hot = [self._payload(f"hot-{h}", h * self.records_per_request)
                    for h in range(self.hot_payloads)]
        self._items: dict[object, list[dict]] = {}

    @property
    def checkpoint(self) -> Path:
        return self.model_dir / f"{self.names[0]}.npz"

    def _payload(self, tag: str, offset: int) -> list[dict]:
        """8 base records made unique by ``tag`` (new records to the cache)."""
        return [{**self.base[(offset + r) % len(self.base)],
                 "identifier": f"{tag}-{r}"}
                for r in range(self.records_per_request)]

    def build(self, workdir: Path) -> Path:
        """An entity-resolution sbert/k-means checkpoint, as repro train."""
        self.model_dir = workdir / "models"
        reset_cache()  # every set-up embeds its training set afresh
        dataset = generate_musicbrainz(120 if self.tiny else 600,
                                       40 if self.tiny else 200,
                                       seed=_seed32(self.seed))
        task = EntityResolutionTask(dataset)
        X = task.embed("sbert", seed=_seed32(self.seed))
        evaluate_clustering(X, dataset.labels, algorithm="kmeans",
                            dataset=dataset.name, task=task.task_name,
                            embedding="sbert", config=task.resolved_config(),
                            seed=_seed32(self.seed),
                            save_path=self.checkpoint)
        for name in self.names[1:]:
            shutil.copyfile(self.checkpoint, self.model_dir / f"{name}.npz")
        self._forget_reference()
        return self.model_dir

    def probes(self) -> list[Request]:
        return [(("hot", 0), "POST", f"/v1/models/{name}/predict",
                 _body({"items": self.hot[0]})) for name in self.names]

    def streams(self, tag: str) -> list[Iterator[Request]]:
        def stream(client: int) -> Iterator[Request]:
            rng = np.random.default_rng([_seed32(self.seed), client,
                                         _tag_seed(tag)])
            fresh = 0
            while True:
                name = self.names[int(rng.integers(len(self.names)))]
                if rng.random() < self.hot_share:
                    key = ("hot", int(rng.integers(self.hot_payloads)))
                    items = self.hot[key[1]]
                else:
                    key = ("fresh", tag, client, fresh)
                    offset = int(rng.integers(len(self.base)))
                    items = self._payload(f"{tag}-{client}-{fresh}", offset)
                    self._items[key] = items
                    fresh += 1
                yield key, "POST", f"/v1/models/{name}/predict", \
                    _body({"items": items})
        return [stream(client) for client in range(self.clients)]

    def _items_for(self, key) -> list[dict]:
        return self.hot[key[1]] if key[0] == "hot" else self._items[key]

    def expected_ok(self, sample: Sample, answer: dict) -> bool:
        return answer.get("labels") == self._expected_labels(
            sample.key, lambda: embed_items(
                "entity_resolution", "sbert", self._items_for(sample.key)))

    def after_close(self, server_pid: int) -> list[str]:
        # The pool parent names its shared-memory segments after its pid.
        try:
            entries = os.listdir("/dev/shm")
        except OSError:
            entries = []
        leaked = [entry for entry in entries
                  if entry.startswith(f"repro-pool-{server_pid}")]
        return [f"shared-memory segments left behind: {leaked}"] \
            if leaked else []

    def layer_metrics(self, tracer: Tracer, samples: list[Sample]) -> dict:
        model = self.reference()
        fresh = [s for s in samples if s.key[0] == "fresh"][:PROBE_REQUESTS]
        for sample in fresh:
            reset_cache()  # a fresh request's records are all misses
            matrix = tracer.call("embeddings.embed", embed_items,
                                 "entity_resolution", "sbert",
                                 self._items_for(sample.key),
                                 trace=sample.key)
            tracer.call("dc.predict", model.predict, matrix, trace=sample.key)
        reset_cache()
        return {
            "embeddings.embed_ms": mean(tracer.durations_ms(
                "embeddings.embed")),
            "dc.predict_ms": mean(tracer.durations_ms("dc.predict")),
        }


def _names_covering_shards(n_workers: int) -> list[str]:
    names: dict[int, str] = {}
    for letter in "abcdefghijklmnopqrstuvwxyz":
        name = f"er-{letter}"
        names.setdefault(shard_for(name, n_workers), name)
        if len(names) == n_workers:
            return [names[shard] for shard in range(n_workers)]
    raise RuntimeError("no model names cover every pool shard")


# ---------------------------------------------------------------------------
# similarity search over an mmap-attached IVF-PQ index

class SearchIVFPQ(Workload):
    """2 clients, 1 query row of 64-d, k=10, fixed nprobe/rerank."""

    name = "search_ivfpq"
    clients = 2
    #: One set-up builds the index, 13-18 s on 2 cores; a single set-up
    #: keeps the four workloads' runs within the benchmark's time budget.
    setup_repeats = 1
    endpoint = "search"
    index_name = "corpus"
    dim = 64
    n_clusters = 20
    k = 10
    #: Index and query settings: m=16 codes with a 128-row exact rerank
    #: keep recall@10 near 0.99 at 100k (m=8 tops out near 0.90);
    #: nprobe/rerank are sent with every request.
    index_params = {"m": 16, "nprobe": 16, "rerank": 128}
    query_pool = 512

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        n = 5_000 if tiny else 100_000
        centers = self.rng.normal(size=(self.n_clusters, self.dim)) * 3.0
        per = n // self.n_clusters
        self.corpus = np.vstack([center + self.rng.normal(size=(per, self.dim))
                                 for center in centers])
        picks = np.arange(self.query_pool) % self.n_clusters
        self.queries = centers[picks] + self.rng.normal(
            size=(self.query_pool, self.dim))
        self.tunables = {key: self.index_params[key]
                         for key in ("nprobe", "rerank")}
        self.bodies = [_body({"index": self.index_name, "k": self.k,
                              "vectors": [query.tolist()], **self.tunables})
                       for query in self.queries]
        self.build_seconds: list[float] = []

    @property
    def checkpoint(self) -> Path:
        return self.model_dir / f"{self.index_name}.npz"

    def build(self, workdir: Path) -> Path:
        self.model_dir = workdir / "models"
        started = time.perf_counter()
        index = IVFPQIndex(seed=_seed32(self.seed),
                           **self.index_params).build(self.corpus)
        self.build_seconds.append(time.perf_counter() - started)
        index.save(self.checkpoint)
        self._forget_reference()
        return self.model_dir

    def load(self):
        return VectorIndex.load(self.checkpoint)

    def probes(self) -> list[Request]:
        return [(0, "POST", "/v1/search", self.bodies[0])]

    def streams(self, tag: str) -> list[Iterator[Request]]:
        def stream(client: int) -> Iterator[Request]:
            i = client
            while True:
                index = i % self.query_pool
                yield index, "POST", "/v1/search", self.bodies[index]
                i += self.clients
        return [stream(client) for client in range(self.clients)]

    def _positions(self, index: int) -> list[int]:
        """In-process top-k positions for pool query ``index`` (memoised)."""
        if index not in self._expected:
            self._expected[index] = self.reference().query(
                self.queries[index:index + 1], self.k,
                **self.tunables)[0][0].tolist()
        return self._expected[index]

    def expected_ok(self, sample: Sample, answer: dict) -> bool:
        expected = self.reference().ids[self._positions(sample.key)]
        return answer.get("ids") == [expected.tolist()]

    def report_lines(self) -> list[str]:
        """Recall@10 of the served settings against an exact scan.

        Computed over the whole query pool, so it repeats exactly for a
        given seed whatever the number of requests a run managed to send.
        """
        exact, _ = FlatIndex(metric=self.reference().metric).build(
            self.corpus).query(self.queries, self.k)
        hits = sum(len(set(self._positions(i)) & set(exact[i].tolist()))
                   for i in range(self.query_pool))
        return [f"recall_at_10 = {hits / exact.size:.4f} ratio "
                f"(n={self.query_pool} queries vs exact FlatIndex)"]

    def layer_metrics(self, tracer: Tracer, samples: list[Sample]) -> dict:
        index = self.reference()
        for i in range(self.query_pool):
            tracer.call("index.query", index.query,
                        self.queries[i:i + 1], self.k, trace=i,
                        **self.tunables)
        queries = tracer.durations_ms("index.query")
        return {
            "index.query_ms": mean(queries),
            "index.query_p90_ms": percentile(queries, 90),
            "index.build_s": float(np.median(self.build_seconds)),
            "index.resident_mb": index.memory_bytes() / 2 ** 20,
        }


# ---------------------------------------------------------------------------
# journaled incremental updates rotating under a reading client

class IngestWhileServing(PredictVectors):
    """1 reader client (1-row predicts) beside 1 writer thread.

    The writer loops ``WriteAheadLog.append`` -> ``incremental_update``
    (80-row batches, warm start) -> ``rotate_checkpoint`` into the served
    directory; the server hot-reloads the newest generation it sees.
    """

    name = "ingest_while_serving"
    model_name = "live"
    rows_per_request = 1
    batch_rows = 80
    wal_stream = "perfbench"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.reader_rows = np.vstack(self.matrices)
        self.writes: list[dict] = []
        self.wal_dir: Path | None = None
        self._wal: WriteAheadLog | None = None
        self._writer_model = None
        self._writer: threading.Thread | None = None
        self._writer_error: BaseException | None = None
        self._stop = threading.Event()
        self._phase_tag = ""
        #: ``(published_at, reader labels)`` per generation, oldest first.
        self._generations: list[tuple[float, list[int]]] = []

    def build(self, workdir: Path) -> Path:
        model_dir = super().build(workdir)
        self.close()
        self.wal_dir = workdir / "wal"
        self._writer_model = None
        self.writes = []
        self._generations = []
        return model_dir

    def _reader_labels(self, model) -> list[int]:
        # Row by row, exactly as the lone reader's requests are served.
        return [int(model.predict(self.reader_rows[i:i + 1])[0])
                for i in range(self.reader_rows.shape[0])]

    def start_phase(self, tag: str) -> None:
        if self._writer_model is None:
            self._writer_model = self.load()
            self._generations = [(0.0, self._reader_labels(
                self._writer_model))]
            self._wal = WriteAheadLog(self.wal_dir)
        self._phase_tag = tag
        self._stop.clear()
        self._writer = threading.Thread(target=self._write_loop,
                                        name="perfbench-writer", daemon=True)
        self._writer.start()

    def stop_phase(self) -> None:
        self._stop.set()
        if self._writer is not None:
            self._writer.join()
            self._writer = None
        if self._writer_error is not None:
            raise self._writer_error

    def _write_loop(self) -> None:
        rng = np.random.default_rng([_seed32(self.seed),
                                     _tag_seed(self._phase_tag)])
        model = self._writer_model
        metadata = dict(model.checkpoint_header_.get("metadata", {}))
        try:
            while not self._stop.is_set():
                batch = _near(rng, self.centers, self.batch_rows)
                t0 = time.perf_counter()
                batch_id = self._wal.append({"X": batch})
                t1 = time.perf_counter()
                incremental_update(model, batch, seed=batch_id)
                t2 = time.perf_counter()
                labels = self._reader_labels(model)
                stamp_wal_metadata(metadata, stream=self.wal_stream,
                                   batch_id=batch_id)
                # Published before the rotation starts: from this moment a
                # reader may legitimately be answered by this generation.
                t3 = time.perf_counter()
                self._generations.append((t3, labels))
                rotate_checkpoint(self.checkpoint, model, metadata=metadata)
                t4 = time.perf_counter()
                self.writes.append({
                    "tag": self._phase_tag, "rows": self.batch_rows,
                    "append_s": t1 - t0, "update_s": t2 - t1,
                    "rotate_s": t4 - t3})
        except BaseException as exc:  # surfaced by stop_phase
            self._writer_error = exc

    def _phase_writes(self, tag: str) -> list[dict]:
        return [write for write in self.writes if write["tag"] == tag]

    def _write_rows_per_s(self, tag: str) -> float:
        """Rows per second of the writer's busy time (bookkeeping excluded)."""
        writes = self._phase_writes(tag)
        busy = sum(w["append_s"] + w["update_s"] + w["rotate_s"]
                   for w in writes)
        return sum(w["rows"] for w in writes) / busy if busy else 0.0

    def expected_ok(self, sample: Sample, answer: dict) -> bool:
        labels = answer.get("labels")
        if not isinstance(labels, list) or len(labels) != 1:
            return False
        return any(labels[0] == generation[sample.key]
                   for published, generation in self._generations
                   if published <= sample.finished)

    def final_problems(self, server) -> list[str]:
        """The server must reach the last rotated generation."""
        last = len(self._generations) - 1
        deadline = time.monotonic() + 15.0
        seen = None
        while time.monotonic() < deadline:
            for series in server.metrics().get(
                    "repro_reload_generation", {}).get("series", []):
                if series["labels"].get("model") == self.model_name:
                    seen = int(series["value"])
            if seen == last:
                return []
            time.sleep(0.1)
        return [f"server stayed at generation {seen}, last written {last}"]

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def report_lines(self) -> list[str]:
        return [f"write_rows_per_s = {self._write_rows_per_s('main'):.6g} "
                f"rows/s (n={len(self._phase_writes('main'))} batches of "
                f"{self.batch_rows} rows)"]

    def layer_metrics(self, tracer: Tracer, samples: list[Sample]) -> dict:
        metrics = super().layer_metrics(tracer, samples)
        writes = self._phase_writes("traced")
        for name, field in (("wal.append", "append_s"),
                            ("stream.update", "update_s"),
                            ("serialize.rotate", "rotate_s")):
            metrics[f"{name}_ms"] = mean([w[field] * 1000.0 for w in writes])
        metrics["stream.batches"] = float(len(writes))
        metrics["stream.write_rows_per_s"] = self._write_rows_per_s("traced")
        metrics["serve.registry.reload_ms"] = self._reload_ms(tracer)
        return metrics

    def _reload_ms(self, tracer: Tracer) -> float:
        """``ModelRegistry.reload_stale`` swapping in a fresh rotation."""
        registry = ModelRegistry(self.model_dir)
        registry.get(self.model_name)
        metadata = dict(self._writer_model.checkpoint_header_["metadata"])
        for attempt in range(3):
            rotate_checkpoint(self.checkpoint, self._writer_model,
                              metadata=metadata)
            reloaded = tracer.call("serve.registry.reload",
                                   registry.reload_stale, trace=attempt)
            if reloaded != [self.model_name]:
                raise RuntimeError(f"reload_stale swapped {reloaded}")
        return float(np.median(tracer.durations_ms("serve.registry.reload")))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PredictVectors, PredictItemsPool, SearchIVFPQ,
                              IngestWhileServing)}
