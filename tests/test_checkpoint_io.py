"""Streaming save and load: memory bounds, crash safety and load-time integrity checks."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from moeup import checkpoint as cp
from moeup.cli import main

from conftest import make_config, random_checkpoint, tiny_dense_config, tiny_moe_config

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"


def _payload_bytes(ck: cp.Checkpoint) -> int:
    return sum(a.nbytes for a in ck.tensors.values())


def _same(a: cp.Checkpoint, b: cp.Checkpoint) -> bool:
    return (a.config == b.config and a.metadata == b.metadata
            and set(a.tensors) == set(b.tensors)
            and all(a.tensors[n].dtype == b.tensors[n].dtype
                    and a.tensors[n].tobytes() == b.tensors[n].tobytes() for n in a.tensors))


def _edit_manifest(path: Path, edit) -> None:
    manifest_path = path / cp.MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))


@pytest.fixture(scope="module")
def big_checkpoint():
    # Vocabulary 16384 at hidden 64: about 9.4 MB of f32 payload over 39 tensors.
    ck = random_checkpoint(make_config(64, 256, 4, 4, 4, 16_384, s=64), seed=21)
    assert _payload_bytes(ck) >= 8 << 20
    return ck


class TestMemory:
    def test_save_holds_no_payload_copy(self, tmp_path, big_checkpoint):
        tracemalloc.start()
        try:
            cp.save(big_checkpoint, tmp_path / "ck")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < _payload_bytes(big_checkpoint) / 2

    def test_load_reads_into_one_buffer(self, tmp_path, big_checkpoint):
        cp.save(big_checkpoint, tmp_path / "ck")
        tracemalloc.start()
        try:
            loaded = cp.load(tmp_path / "ck")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * _payload_bytes(big_checkpoint)
        assert _same(loaded, big_checkpoint)


class TestLoadedTensors:
    def test_writable_views_of_one_buffer(self, tmp_path):
        ck = random_checkpoint(tiny_moe_config(), seed=1)
        cp.save(ck, tmp_path / "ck")
        loaded = cp.load(tmp_path / "ck")
        arrays = list(loaded.tensors.values())
        assert all(a.flags.writeable for a in arrays)

        def owner(array):
            while isinstance(array.base, np.ndarray):
                array = array.base
            return array

        owners = {id(owner(a)) for a in arrays}
        assert len(owners) == 1
        assert owner(arrays[0]).nbytes == cp.read_manifest(tmp_path / "ck")["blob"]["size"]
        # Disjoint views: writing one tensor leaves every other tensor intact,
        # and a second load is independent of the first.
        loaded.tensors["final_norm"][...] = 7.0
        for name, array in loaded.tensors.items():
            if name != "final_norm":
                assert array.tobytes() == ck.tensors[name].tobytes(), name
        assert _same(cp.load(tmp_path / "ck"), ck)

    def test_checkpoint_hash_matches_byte_copy_form(self):
        # The digest of the tobytes() formulation, for f32, f64, a
        # non-contiguous and a big-endian tensor.
        ck = random_checkpoint(tiny_dense_config(), seed=2)
        ck.tensors["final_norm"] = ck.tensors["final_norm"].astype(np.float64)
        ck.tensors["head.out"] = np.asfortranarray(ck.tensors["head.out"])
        ck.tensors["layers.0.ffn_norm"] = ck.tensors["layers.0.ffn_norm"].astype(">f4")
        h = hashlib.sha256()
        for name in sorted(ck.tensors):
            array = np.ascontiguousarray(ck.tensors[name])
            le = array.astype(array.dtype.newbyteorder("<"), copy=False)
            h.update(name.encode("utf-8"))
            h.update(repr(tuple(array.shape)).encode("ascii"))
            h.update({4: b"f32", 8: b"f64"}[le.dtype.itemsize])
            h.update(le.tobytes())
        assert cp.checkpoint_hash(ck) == h.hexdigest()


class TestSaveInPlace:
    def test_other_files_kept_and_no_temporaries_left(self, tmp_path):
        out = tmp_path / "ck"
        cp.save(random_checkpoint(tiny_dense_config(), seed=3), out)
        (out / "reinit_plan.json").write_text("{}\n")
        (out / "notes.txt").write_text("keep me\n")
        new = random_checkpoint(tiny_dense_config(), seed=4)
        cp.save(new, out)
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "notes.txt", "reinit_plan.json", "tensors.bin"]
        assert (out / "notes.txt").read_text() == "keep me\n"
        assert _same(cp.load(out), new)
        cp.save(new, tmp_path / "fresh")
        for name in (cp.MANIFEST_FILE, cp.BLOB_FILE):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


class _FailingFile:
    """File wrapper whose writes fail with ENOSPC once ``limit`` units are written."""

    def __init__(self, fh, limit: int):
        self._fh, self._room = fh, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        size = len(data)
        if size > self._room:
            self._fh.write(data[:self._room])
            self._fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= size
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _assert_old_or_refused(path: Path, old: cp.Checkpoint) -> None:
    """The directory loads the old checkpoint bit for bit, or is refused."""
    try:
        loaded = cp.load(path)
    except cp.CheckpointError:
        return
    assert _same(loaded, old)


class TestCrashSafety:
    @pytest.fixture
    def old(self, tmp_path):
        ck = random_checkpoint(tiny_moe_config(), seed=5)
        cp.save(ck, tmp_path / "ck")
        return ck

    @pytest.fixture
    def new(self):
        # Same tensor names, shapes and blob size as ``old``: only the
        # checksums can tell the two blobs apart.
        return random_checkpoint(tiny_moe_config(), seed=6)

    @pytest.mark.parametrize("target, limit", [
        (cp.BLOB_FILE, 0), (cp.BLOB_FILE, 1000), (cp.BLOB_FILE, 20_000),
        (cp.MANIFEST_FILE, 0), (cp.MANIFEST_FILE, 500),
    ])
    def test_write_fails_partway(self, tmp_path, monkeypatch, old, new, target, limit):
        def failing_open(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            return _FailingFile(fh, limit) if Path(file).name.startswith(f".{target}.") else fh

        monkeypatch.setattr(cp, "open", failing_open, raising=False)
        with pytest.raises(cp.CheckpointError, match="No space left"):
            cp.save(new, tmp_path / "ck")
        monkeypatch.undo()
        assert _same(cp.load(tmp_path / "ck"), old)
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == [
            "manifest.json", "tensors.bin"]

    def test_fsync_fails(self, tmp_path, monkeypatch, old, new):
        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(cp.os, "fsync", failing_fsync)
        with pytest.raises(cp.CheckpointError, match="Input/output error"):
            cp.save(new, tmp_path / "ck")
        monkeypatch.undo()
        assert _same(cp.load(tmp_path / "ck"), old)

    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_rename_fails(self, tmp_path, monkeypatch, old, new, fail_at):
        real_replace, calls = os.replace, []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == fail_at:
                raise OSError(errno.EIO, "Input/output error")
            real_replace(src, dst)

        monkeypatch.setattr(cp.os, "replace", failing_replace)
        with pytest.raises(cp.CheckpointError):
            cp.save(new, tmp_path / "ck")
        monkeypatch.undo()
        _assert_old_or_refused(tmp_path / "ck", old)
        if fail_at == 2:  # new blob, old manifest
            with pytest.raises(cp.CheckpointError, match="corrupt tensor"):
                cp.load(tmp_path / "ck")
        cp.save(new, tmp_path / "ck")
        assert _same(cp.load(tmp_path / "ck"), new)

    @pytest.mark.parametrize("kill_at", [1, 2])
    def test_killed_before_each_rename(self, tmp_path, old, new, kill_at):
        # A process killed between two steps runs no clean-up at all.
        child = textwrap.dedent(f"""
            import os, sys
            sys.path[:0] = [{str(SRC_DIR)!r}, {str(TESTS_DIR)!r}]
            from moeup import checkpoint as cp
            from conftest import random_checkpoint, tiny_moe_config
            real_replace, calls = os.replace, []
            def replace(src, dst):
                calls.append(dst)
                if len(calls) == {kill_at}:
                    os._exit(3)
                real_replace(src, dst)
            os.replace = replace
            cp.save(random_checkpoint(tiny_moe_config(), seed=6), {str(tmp_path / "ck")!r})
        """)
        done = subprocess.run([sys.executable, "-c", child], timeout=120)
        assert done.returncode == 3
        _assert_old_or_refused(tmp_path / "ck", old)
        if kill_at == 1:
            assert _same(cp.load(tmp_path / "ck"), old)
        cp.save(new, tmp_path / "ck")
        assert _same(cp.load(tmp_path / "ck"), new)


class TestLoadChecks:
    @pytest.fixture
    def saved(self, tmp_path):
        cp.save(random_checkpoint(tiny_dense_config(), seed=7), tmp_path / "ck")
        return tmp_path / "ck"

    def test_duplicate_tensor_entry(self, saved):
        _edit_manifest(saved, lambda m: m["tensors"].append(dict(m["tensors"][0])))
        with pytest.raises(cp.CheckpointError, match="duplicate tensor"):
            cp.load(saved)

    def test_overlapping_ranges(self, saved):
        def edit(manifest):
            first, second = manifest["tensors"][:2]
            assert first["nbytes"] > 64
            second["offset"] = first["offset"] + 64

        _edit_manifest(saved, edit)
        with pytest.raises(cp.CheckpointError, match="overlap"):
            cp.load(saved)

    def test_range_outside_blob(self, saved):
        _edit_manifest(saved, lambda m: m["tensors"][-1].update(offset=m["blob"]["size"]))
        with pytest.raises(cp.CheckpointError, match="payload truncated"):
            cp.load(saved)

    def test_zeroed_blob_sha256(self, saved):
        _edit_manifest(saved, lambda m: m["blob"].update(sha256="0" * 64))
        with pytest.raises(cp.CheckpointError, match="SHA-256 mismatch"):
            cp.load(saved)

    def test_corrupt_padding_detected(self, tmp_path):
        # Alignment padding is covered by no tensor CRC, only by the blob SHA-256.
        # Hidden size 12 gives 48-byte norm tensors, so the blob has gaps.
        saved = tmp_path / "odd"
        cp.save(random_checkpoint(make_config(12, 24, 1, 2, 2, 23, s=16), seed=8), saved)
        manifest = cp.read_manifest(saved)
        entries = sorted(manifest["tensors"], key=lambda e: e["offset"])
        gap = next(a["offset"] + a["nbytes"] for a, b in zip(entries, entries[1:])
                   if b["offset"] > a["offset"] + a["nbytes"])
        blob = bytearray((saved / cp.BLOB_FILE).read_bytes())
        blob[gap] ^= 0xFF
        (saved / cp.BLOB_FILE).write_bytes(bytes(blob))
        with pytest.raises(cp.CheckpointError, match="SHA-256 mismatch"):
            cp.load(saved)

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_blob_file_outside_directory(self, saved, where):
        # The named file holds the right bytes, so only the path check refuses it.
        outside = saved.parent / "outside.bin"
        outside.write_bytes((saved / cp.BLOB_FILE).read_bytes())
        name = "../outside.bin" if where == "parent" else str(outside)
        _edit_manifest(saved, lambda m: m["blob"].update(file=name))
        with pytest.raises(cp.CheckpointError, match="outside the checkpoint directory"):
            cp.load(saved)

    @pytest.mark.parametrize("edit", [
        lambda m: m["blob"].update(size="big"),
        lambda m: m["blob"].update(size=True),
        lambda m: m["blob"].update(file=7),
        lambda m: m["tensors"][0].update(offset="0"),
        lambda m: m["tensors"][0].update(offset=-64),
        lambda m: m["tensors"][0].update(nbytes=1.5),
        lambda m: m["tensors"][0].update(shape=["x"]),
        lambda m: m["tensors"][0].update(shape=7),
        lambda m: m["tensors"][0].update(dtype=["f32"]),
        lambda m: m["tensors"][0].update(name=None),
        lambda m: m.update(config=7),
        lambda m: m.update(tensors={"a": 1}),
    ], ids=["size-str", "size-bool", "file-int", "offset-str", "offset-negative",
            "nbytes-float", "shape-str", "shape-int", "dtype-list", "name-null",
            "config-int", "tensors-dict"])
    def test_wrong_typed_manifest_fields(self, saved, edit):
        _edit_manifest(saved, edit)
        with pytest.raises(cp.CheckpointError):
            cp.load(saved)

    def test_manifest_not_an_object(self, saved):
        (saved / cp.MANIFEST_FILE).write_text("[]\n")
        with pytest.raises(cp.CheckpointError, match="not a JSON object"):
            cp.load(saved)

    @pytest.mark.parametrize("edit", [
        lambda m: m["tensors"].append(dict(m["tensors"][0])),
        lambda m: m["blob"].update(sha256="0" * 64),
        lambda m: m["blob"].update(file="../outside.bin"),
        lambda m: m["tensors"][0].update(offset="0"),
    ], ids=["duplicate", "sha256", "escape", "offset-str"])
    def test_cli_reports_one_error_line(self, capsys, saved, edit):
        _edit_manifest(saved, edit)
        code = main(["inspect", "--in", str(saved)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
