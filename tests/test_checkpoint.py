import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeup import checkpoint as cp
from moeup import upcycle
from moeup.accounting import count_params

from conftest import REFERENCE_ROWS, make_config, random_checkpoint, tiny_dense_config, tiny_moe_config


def _assert_same_tensors(a: cp.Checkpoint, b: cp.Checkpoint):
    assert set(a.tensors) == set(b.tensors)
    for name in a.tensors:
        assert a.tensors[name].dtype == b.tensors[name].dtype
        assert np.array_equal(a.tensors[name], b.tensors[name]), name


class TestRoundTrip:
    def test_round_trip_bitwise(self, tmp_path):
        ck = random_checkpoint(tiny_moe_config(), seed=3)
        cp.save(ck, tmp_path / "ck")
        loaded = cp.load(tmp_path / "ck")
        _assert_same_tensors(ck, loaded)
        assert loaded.config == ck.config
        assert loaded.metadata == ck.metadata

    def test_round_trip_preserves_f64(self, tmp_path):
        ck = random_checkpoint(tiny_dense_config(), seed=4, dtype=np.float64)
        cp.save(ck, tmp_path / "ck")
        loaded = cp.load(tmp_path / "ck")
        _assert_same_tensors(ck, loaded)

    @given(seed=st.integers(0, 10_000), moe=st.booleans(), f64=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_round_trip_random_configs(self, tmp_path_factory, seed, moe, f64):
        config = tiny_moe_config() if moe else tiny_dense_config()
        ck = random_checkpoint(config, seed=seed, dtype=np.float64 if f64 else np.float32)
        path = tmp_path_factory.mktemp("ck")
        cp.save(ck, path / "out")
        _assert_same_tensors(ck, cp.load(path / "out"))

    def test_save_is_deterministic(self, tmp_path):
        ck = random_checkpoint(tiny_dense_config(), seed=9)
        cp.save(ck, tmp_path / "a")
        cp.save(ck, tmp_path / "b")
        assert (tmp_path / "a" / "tensors.bin").read_bytes() == \
            (tmp_path / "b" / "tensors.bin").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
            (tmp_path / "b" / "manifest.json").read_bytes()


class TestValidation:
    def test_corruption_detected(self, tmp_path):
        ck = random_checkpoint(tiny_dense_config(), seed=5)
        cp.save(ck, tmp_path / "ck")
        blob_path = tmp_path / "ck" / "tensors.bin"
        blob = bytearray(blob_path.read_bytes())
        blob[100] ^= 0xFF
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(cp.CheckpointError, match="corrupt tensor"):
            cp.load(tmp_path / "ck")

    def test_missing_expert_tensor(self, tmp_path):
        ck = random_checkpoint(tiny_moe_config(n=8, k=2), seed=6)
        del ck.tensors["layers.0.experts.7.up"]
        with pytest.raises(cp.CheckpointError, match="missing tensor"):
            ck.validate()

    def test_dense_with_router_rejected(self):
        ck = random_checkpoint(tiny_dense_config(), seed=7)
        ck.tensors["layers.0.router"] = np.zeros((16, 4), dtype=np.float32)
        with pytest.raises(cp.CheckpointError, match="dense checkpoint contains router"):
            ck.validate()

    def test_shape_mismatch_rejected(self, tmp_path):
        ck = random_checkpoint(tiny_dense_config(), seed=8)
        ck.tensors["head.out"] = ck.tensors["head.out"][:, :-1]
        with pytest.raises(cp.CheckpointError, match="shape"):
            ck.validate()

    def test_non_finite_rejected_on_save(self, tmp_path):
        ck = random_checkpoint(tiny_dense_config(), seed=9)
        ck.tensors["final_norm"] = ck.tensors["final_norm"].copy()
        ck.tensors["final_norm"][0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            cp.save(ck, tmp_path / "ck")

    def test_missing_tensor_on_load(self, tmp_path):
        ck = random_checkpoint(tiny_dense_config(), seed=10)
        cp.save(ck, tmp_path / "ck")
        manifest_path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["tensors"] = [t for t in manifest["tensors"] if t["name"] != "final_norm"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(cp.CheckpointError, match="missing tensor 'final_norm'"):
            cp.load(tmp_path / "ck")

    @pytest.mark.parametrize("path", [
        ("blob",), ("blob", "file"), ("blob", "size"), ("tensors",),
        *(("tensors", 0, key) for key in ("name", "dtype", "shape", "offset", "nbytes",
                                          "crc32")),
    ], ids=lambda path: ".".join(map(str, path)))
    def test_missing_manifest_key(self, tmp_path, path):
        cp.save(random_checkpoint(tiny_dense_config(), seed=10), tmp_path / "ck")
        manifest_path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        node = manifest
        for step in path[:-1]:
            node = node[step]
        del node[path[-1]]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(cp.CheckpointError, match="malformed manifest"):
            cp.load(tmp_path / "ck")

    def test_not_a_checkpoint(self, tmp_path):
        with pytest.raises(cp.CheckpointError, match="not a checkpoint"):
            cp.load(tmp_path)

    def test_position_slot_is_optional_but_checked(self):
        ck = random_checkpoint(tiny_dense_config(), seed=11)
        ck.tensors[cp.POSITION_SLOT] = np.zeros((8, 16), dtype=np.float32)
        ck.validate()
        ck.tensors[cp.POSITION_SLOT] = np.zeros((8, 17), dtype=np.float32)
        with pytest.raises(cp.CheckpointError):
            ck.validate()


class TestSlots:
    def test_slot_total_matches_param_accounting(self):
        # Naming is a bijection with the structural slots: summed slot sizes
        # equal the accounting total for every config shape.
        for name, (config, *_rest) in REFERENCE_ROWS.items():
            slots = cp.expected_slots(config)
            total = sum(int(np.prod(shape)) for shape in slots.values())
            assert total == count_params(config).total, name

    def test_dense_slot_census(self):
        config = make_config(512, 2048, 12, 8, 8, 99_574)
        slots = cp.expected_slots(config)
        assert sum(1 for n in slots if n.startswith("embedding.")) == 1
        assert sum(1 for n in slots if n.startswith("head.")) == 1
        for i in range(12):
            layer = [n for n in slots if n.startswith(f"layers.{i}.")]
            assert sum(1 for n in layer if ".attn." in n) == 4
            assert sum(1 for n in layer if ".ffn." in n) == 3
            assert sum(1 for n in layer if n.endswith("_norm")) == 2
        assert not any(".router" in n or ".experts." in n for n in slots)

    def test_moe_slot_census(self):
        config = tiny_moe_config(n=8, k=2)
        slots = cp.expected_slots(config)
        for i in range(config.num_layers):
            assert f"layers.{i}.router" in slots
            experts = {n for n in slots if n.startswith(f"layers.{i}.experts.")}
            assert len(experts) == 8 * 3

    def test_manifest_fields(self, tmp_path):
        ck = random_checkpoint(tiny_moe_config(), seed=12)
        ck.metadata = {"method": "drop", "ratio": 0.5, "seed": 1, "parent_hash": "x"}
        cp.save(ck, tmp_path / "ck")
        manifest = cp.read_manifest(tmp_path / "ck")
        assert manifest["format"] == "moeup.checkpoint"
        assert manifest["metadata"]["ratio"] == 0.5
        names = [t["name"] for t in manifest["tensors"]]
        assert names == sorted(names)
        for entry in manifest["tensors"]:
            assert entry["offset"] % 64 == 0
            assert set(entry) == {"name", "dtype", "shape", "offset", "nbytes", "crc32"}


def test_checkpoint_hash_tracks_content():
    a = random_checkpoint(tiny_dense_config(), seed=13)
    b = random_checkpoint(tiny_dense_config(), seed=13)
    assert cp.checkpoint_hash(a) == cp.checkpoint_hash(b)
    b.tensors["final_norm"] = b.tensors["final_norm"].copy()
    b.tensors["final_norm"][0] += 1.0
    assert cp.checkpoint_hash(a) != cp.checkpoint_hash(b)


def test_from_scratch_checkpoint_loads(tmp_path):
    ck = upcycle.from_scratch(tiny_moe_config(), seed=1)
    cp.save(ck, tmp_path / "ck")
    loaded = cp.load(tmp_path / "ck")
    assert loaded.metadata["method"] == "scratch"
