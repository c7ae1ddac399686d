"""Checkpoint round-trips: every algorithm x one embedding per task.

The serving acceptance contract is that a model saved, reloaded (in what
could be a fresh process) and asked to ``predict`` produces *bit-identical*
assignments — both on held-out points and on its own training set.  NPZ
stores raw float64 buffers, so the only way to break this is to forget a
piece of fitted state; these tests would catch that for each algorithm.
"""

from __future__ import annotations

import struct
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.cache import reset_cache
from repro.config import DeepClusteringConfig
from repro.data import generate_camera, generate_musicbrainz, generate_webtables
from repro.exceptions import NotFittedError, SerializationError
from repro.serialize import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    read_checkpoint_header,
    rotate_checkpoint,
    save_checkpoint,
)
from repro.clustering import KMeans
from repro.serve import ModelRegistry
from repro.tasks import embed_columns, embed_records, embed_tables
from repro.tasks.base import CLUSTERER_NAMES, make_clusterer

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tiny but structured embedding per task (one matrix per module run).
_FAST = DeepClusteringConfig(pretrain_epochs=4, train_epochs=4,
                             layer_size=32, latent_dim=8, seed=0)


@pytest.fixture(scope="module")
def task_matrices():
    """(task, X, n_clusters) per pipeline, embedded once for the module."""
    reset_cache()
    webtables = generate_webtables(30, 6, seed=1)
    musicbrainz = generate_musicbrainz(60, 20, seed=1)
    camera = generate_camera(60, 10, seed=1)
    matrices = {
        "schema_inference": (embed_tables(webtables, "sbert"),
                             webtables.n_clusters),
        "entity_resolution": (embed_records(musicbrainz, "sbert"),
                              musicbrainz.n_clusters),
        "domain_discovery": (embed_columns(camera, "sbert"),
                             camera.n_clusters),
    }
    yield matrices
    reset_cache()


def _compress_types(path) -> set[int]:
    with zipfile.ZipFile(path) as archive:
        return {info.compress_type for info in archive.infolist()}


def _flip_member_byte(path, member: str) -> None:
    """Invert the last data byte of one NPZ member (inside its array)."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    with open(path, "r+b") as handle:
        # Local file header: 30 fixed bytes, then the name and extra field.
        handle.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", handle.read(4))
        offset = (info.header_offset + 30 + name_len + extra_len
                  + info.compress_size - 1)
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0xFF]))


@pytest.mark.parametrize("algorithm", CLUSTERER_NAMES)
@pytest.mark.parametrize("task", ["schema_inference", "entity_resolution",
                                  "domain_discovery"])
def test_roundtrip_bit_identical_predict(task, algorithm, task_matrices,
                                         tmp_path):
    X, n_clusters = task_matrices[task]
    train, held_out = X[:-6], X[-6:]
    model = make_clusterer(algorithm, min(n_clusters, train.shape[0] // 2),
                           config=_FAST, seed=0)
    model.fit_predict(train)

    train_before = model.predict(train)
    held_before = model.predict(held_out)

    path = tmp_path / f"{task}_{algorithm}.npz"
    save_checkpoint(path, model, metadata={"task": task, "embedding": "sbert"})
    # Every member is stored, never deflated.
    assert _compress_types(path) == {zipfile.ZIP_STORED}
    reloaded = load_checkpoint(path)

    assert type(reloaded) is type(model)
    assert np.array_equal(reloaded.predict(train), train_before)
    assert np.array_equal(reloaded.predict(held_out), held_before)
    # The persisted training labels round-trip exactly too.
    assert np.array_equal(reloaded.labels_, model.labels_)


class TestFormat:
    def _fitted_kmeans(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 6))
        return KMeans(4, seed=0).fit(X), X

    def test_arrays_round_trip_exactly(self, tmp_path):
        model, _ = self._fitted_kmeans()
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        reloaded = load_checkpoint(path)
        assert reloaded.cluster_centers_.dtype == model.cluster_centers_.dtype
        assert np.array_equal(reloaded.cluster_centers_,
                              model.cluster_centers_)
        assert reloaded.inertia_ == model.inertia_

    def test_header_records_format_and_metadata(self, tmp_path):
        model, _ = self._fitted_kmeans()
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, metadata={"task": "schema_inference",
                                               "embedding": "sbert"})
        header = read_checkpoint_header(path)
        assert header["version"] == CHECKPOINT_VERSION
        assert header["class"] == "KMeans"
        assert header["metadata"]["embedding"] == "sbert"
        loaded = load_checkpoint(path)
        assert loaded.checkpoint_header_["metadata"]["task"] == \
            "schema_inference"

    def test_deflated_checkpoint_from_earlier_releases_loads(self, tmp_path):
        """Checkpoints written with deflate (as earlier releases did) load."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        model = make_clusterer("ae_kmeans", 4, config=_FAST, seed=0)
        model.fit_predict(X)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, metadata={"task": "schema_inference"})
        with np.load(path, allow_pickle=False) as payload:
            entries = {name: payload[name] for name in payload.files}
        np.savez_compressed(path, **entries)
        assert _compress_types(path) == {zipfile.ZIP_DEFLATED}

        reloaded = load_checkpoint(path)
        assert np.array_equal(reloaded.predict(X), model.predict(X))
        assert reloaded.checkpoint_header_["metadata"]["task"] == \
            "schema_inference"

    def test_unfitted_model_cannot_be_saved(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_checkpoint(tmp_path / "model.npz", KMeans(3))

    def test_unregistered_object_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot checkpoint"):
            save_checkpoint(tmp_path / "model.npz", object())


class TestCorruption:
    def _saved(self, tmp_path):
        rng = np.random.default_rng(0)
        model = KMeans(3, seed=0).fit(rng.normal(size=(30, 4)))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError, match="not found"):
            load_checkpoint(tmp_path / "nope.npz")
        with pytest.raises(SerializationError, match="not found"):
            read_checkpoint_header(tmp_path / "nope.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz file at all")
        with pytest.raises(SerializationError, match="cannot read"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(SerializationError):
            load_checkpoint(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, values=np.arange(4))
        with pytest.raises(SerializationError, match="missing header"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        import json

        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            entries = {name: payload[name] for name in payload.files}
        header = json.loads(str(entries["__header__"][()]))
        header["version"] = CHECKPOINT_VERSION + 1
        entries["__header__"] = np.asarray(json.dumps(header))
        np.savez(path, **entries)
        with pytest.raises(SerializationError, match="format version"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        import json

        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            entries = {name: payload[name] for name in payload.files}
        header = json.loads(str(entries["__header__"][()]))
        header["magic"] = "other-format"
        entries["__header__"] = np.asarray(json.dumps(header))
        np.savez(path, **entries)
        with pytest.raises(SerializationError, match="bad magic"):
            load_checkpoint(path)

    def test_unknown_class_rejected(self, tmp_path):
        import json

        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            entries = {name: payload[name] for name in payload.files}
        header = json.loads(str(entries["__header__"][()]))
        header["class"] = "FutureClusterer"
        entries["__header__"] = np.asarray(json.dumps(header))
        np.savez(path, **entries)
        with pytest.raises(SerializationError, match="FutureClusterer"):
            load_checkpoint(path)

    def test_flipped_byte_in_a_member_is_refused(self, tmp_path):
        path = self._saved(tmp_path)
        _flip_member_byte(path, "array.cluster_centers.npy")
        with pytest.raises(SerializationError, match="Bad CRC-32"):
            load_checkpoint(path)

    def test_reload_keeps_old_weights_over_a_flipped_byte(self, tmp_path):
        path = self._saved(tmp_path)
        registry = ModelRegistry(tmp_path)
        first = registry.get("model")
        centers = first.model.cluster_centers_.copy()
        time.sleep(0.01)
        rng = np.random.default_rng(1)
        rotated = KMeans(3, seed=1).fit(rng.normal(size=(30, 4)))
        rotate_checkpoint(path, rotated)
        _flip_member_byte(path, "array.cluster_centers.npy")
        assert registry.reload_stale() == []
        assert registry.get("model") is first
        assert np.array_equal(first.model.cluster_centers_, centers)

    def test_missing_arrays_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            entries = {name: payload[name] for name in payload.files}
        entries.pop("array.cluster_centers")
        np.savez(path, **entries)
        with pytest.raises(SerializationError, match="inconsistent"):
            load_checkpoint(path)


class TestFreshProcess:
    def test_reload_in_fresh_process_is_bit_identical(self, tmp_path):
        """The acceptance contract: save here, predict identically elsewhere."""
        import os
        import subprocess
        import sys

        dataset = generate_webtables(30, 6, seed=1)
        from repro.tasks import embed_tables as _embed

        X = _embed(dataset, "sbert")
        model = KMeans(6, seed=0).fit(X)
        train_labels = model.predict(X)
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)

        script = (
            "import numpy as np\n"
            "from repro.serialize import load_checkpoint\n"
            "from repro.data import generate_webtables\n"
            "from repro.tasks import embed_tables\n"
            "model = load_checkpoint(%r)\n"
            "X = embed_tables(generate_webtables(30, 6, seed=1), 'sbert')\n"
            "print(','.join(str(v) for v in model.predict(X)))\n"
        ) % str(path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, check=True)
        fresh_labels = np.array(
            [int(v) for v in completed.stdout.strip().split(",")])
        assert np.array_equal(fresh_labels, train_labels)


class TestSaveDirIntegration:
    def test_run_plan_save_dir_writes_servable_checkpoints(self, tmp_path):
        from repro.config import TEST_SCALE
        from repro.experiments import run_experiment

        results = run_experiment(
            "table2", scale=TEST_SCALE, datasets=("webtables",),
            embeddings=("sbert",), algorithms=("kmeans", "birch"),
            config=_FAST, save_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.glob("*.npz"))
        # Dataset names are sanitised ("web tables" -> "web-tables") so the
        # stem is a valid serving model name.
        assert files == [
            "schema_inference__web-tables__sbert__birch.npz",
            "schema_inference__web-tables__sbert__kmeans.npz",
        ]
        assert len(results) == 2
        for name in files:
            header = read_checkpoint_header(tmp_path / name)
            assert header["metadata"]["algorithm"] in ("kmeans", "birch")
            assert header["metadata"]["task"] == "schema_inference"
        model = load_checkpoint(
            tmp_path / "schema_inference__web-tables__sbert__kmeans.npz")
        assert model.predict(model.cluster_centers_).shape[0] == \
            model.cluster_centers_.shape[0]

        from repro.serve import ModelRegistry

        # Every persisted stem is servable by name through the registry.
        registry = ModelRegistry(tmp_path)
        for name in registry.names():
            assert registry.get(name).model is not None

    def test_save_dir_rejected_for_non_matrix_experiments(self, tmp_path):
        from repro.config import TEST_SCALE
        from repro.exceptions import ExperimentError
        from repro.experiments import run_experiment

        with pytest.raises(ExperimentError, match="save_dir"):
            run_experiment("table1", scale=TEST_SCALE, save_dir=tmp_path)
