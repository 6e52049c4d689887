"""Streaming save and load: memory bounds, crash safety and load-time integrity checks."""

import builtins
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
from moeup import upcycle
from moeup.cli import main
from moeup.config import ValidationError

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

    def test_open_holds_no_tensor(self, tmp_path, big_checkpoint):
        """Open's pass, and the checks and counts a handle answers from its
        manifest, hold about two chunks of the blob (the one read and the one
        before it), not its 4 MiB embedding."""
        cp.save(big_checkpoint, tmp_path / "ck")
        tracemalloc.start()
        try:
            with cp.open(tmp_path / "ck") as handle:
                handle.validate()
                assert handle.num_parameters() == big_checkpoint.num_parameters()
                assert cp.checkpoint_hash(handle) == cp.checkpoint_hash(big_checkpoint)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * cp.CHUNK_BYTES


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
        real_open = builtins.open

        def failing_open(file, mode="r", **kwargs):
            fh = real_open(file, mode, **kwargs)
            return _FailingFile(fh, limit) if Path(file).name.startswith(f".{target}.") else fh

        # checkpoint.open is the handle opener; the module writes files with builtins.open.
        monkeypatch.setattr(builtins, "open", failing_open)
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
        lambda m: m.update(metadata=7),
    ], ids=["size-str", "size-bool", "file-int", "offset-str", "offset-negative",
            "nbytes-float", "shape-str", "shape-int", "dtype-list", "name-null",
            "config-int", "tensors-dict", "metadata-int"])
    def test_wrong_typed_manifest_fields(self, saved, edit):
        _edit_manifest(saved, edit)
        with pytest.raises(cp.CheckpointError):
            cp.load(saved)
        with pytest.raises(cp.CheckpointError):
            cp.open(saved)

    def test_manifest_not_an_object(self, saved):
        (saved / cp.MANIFEST_FILE).write_text("[]\n")
        with pytest.raises(cp.CheckpointError, match="not a JSON object"):
            cp.load(saved)

    @pytest.mark.parametrize("edit", [
        lambda m: m["tensors"].append(dict(m["tensors"][0])),
        lambda m: m["blob"].update(sha256="0" * 64),
        lambda m: m["blob"].update(file="../outside.bin"),
        lambda m: m["tensors"][0].update(offset="0"),
        lambda m: m.update(metadata=[1]),
    ], ids=["duplicate", "sha256", "escape", "offset-str", "metadata-list"])
    def test_cli_reports_one_error_line(self, capsys, saved, edit):
        _edit_manifest(saved, edit)
        code = main(["inspect", "--in", str(saved)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _flip(path: Path, offset: int) -> None:
    blob = bytearray((path / cp.BLOB_FILE).read_bytes())
    blob[offset] ^= 0xFF
    (path / cp.BLOB_FILE).write_bytes(bytes(blob))


def _padding_offset(path: Path) -> int:
    """The first byte of alignment padding in the blob, which no tensor CRC covers."""
    entries = sorted(cp.read_manifest(path)["tensors"], key=lambda e: e["offset"])
    return next(a["offset"] + a["nbytes"] for a, b in zip(entries, entries[1:])
                if b["offset"] > a["offset"] + a["nbytes"])


class TestOpen:
    """``checkpoint.open``: a verified handle that reads a tensor or a piece at a time."""

    @pytest.mark.parametrize("case", ["dense", "moe-f64-positions", "big"])
    def test_handle_answers_as_load(self, tmp_path, big_checkpoint, case):
        if case == "big":  # its embedding and head are four pieces each
            ck = big_checkpoint
        elif case == "dense":
            ck = random_checkpoint(tiny_dense_config(), seed=10)
        else:
            ck = random_checkpoint(tiny_moe_config(), seed=10, dtype=np.float64)
            ck.tensors[cp.POSITION_SLOT] = np.ones((16, 16), dtype=np.float32)
        cp.save(ck, tmp_path / "ck")
        loaded = cp.load(tmp_path / "ck")
        with cp.open(tmp_path / "ck") as handle:
            assert handle.manifest == cp.read_manifest(tmp_path / "ck")
            assert handle.config == loaded.config and handle.metadata == loaded.metadata
            assert handle.specs() == loaded.specs()
            assert handle.num_parameters() == loaded.num_parameters()
            assert cp.checkpoint_hash(handle) == cp.checkpoint_hash(loaded)
            for name, array in loaded.tensors.items():
                read = handle.read(name)
                assert read.flags.writeable and read.dtype == array.dtype
                assert read.shape == array.shape and read.tobytes() == array.tobytes()
                pieces = list(handle.pieces(name))
                assert all(p.size <= cp.CHUNK_ELEMENTS for p in pieces)
                assert b"".join(p.tobytes() for p in pieces) == array.tobytes()

    def test_blob_out_of_name_order(self, tmp_path):
        """A blob holding its tensors in reverse name order, which ``save`` never
        writes, loads and opens; open's hash then takes a second, name-order pass."""
        ck = random_checkpoint(make_config(12, 24, 1, 2, 2, 23, s=16), seed=11)
        cp.save(ck, tmp_path / "ck")
        manifest = cp.read_manifest(tmp_path / "ck")
        old = (tmp_path / "ck" / cp.BLOB_FILE).read_bytes()
        blob = bytearray()
        for entry in reversed(manifest["tensors"]):
            blob += bytes(-len(blob) % cp.TENSOR_ALIGNMENT)
            payload = old[entry["offset"]:entry["offset"] + entry["nbytes"]]
            entry["offset"] = len(blob)
            blob += payload
        manifest["blob"].update(size=len(blob), sha256=hashlib.sha256(blob).hexdigest())
        (tmp_path / "ck" / cp.BLOB_FILE).write_bytes(bytes(blob))
        (tmp_path / "ck" / cp.MANIFEST_FILE).write_text(json.dumps(manifest))
        assert _same(cp.load(tmp_path / "ck"), ck)
        with cp.open(tmp_path / "ck") as handle:
            assert cp.checkpoint_hash(handle) == cp.checkpoint_hash(ck)
            assert handle.read("head.out").tobytes() == ck.tensors["head.out"].tobytes()

    @pytest.mark.parametrize("change", ["truncate", "flip"])
    def test_blob_changed_after_open(self, tmp_path, change):
        """Every read checks its tensor's CRC32 again: a blob truncated or changed
        after open is refused at the next read of what changed."""
        ck = random_checkpoint(tiny_dense_config(), seed=12)
        cp.save(ck, tmp_path / "ck")
        entries = sorted(cp.read_manifest(tmp_path / "ck")["tensors"], key=lambda e: e["offset"])
        first, last = entries[0]["name"], entries[-1]["name"]
        with cp.open(tmp_path / "ck") as handle:
            size = (tmp_path / "ck" / cp.BLOB_FILE).stat().st_size
            if change == "truncate":
                os.truncate(tmp_path / "ck" / cp.BLOB_FILE, size - 1)
            else:
                _flip(tmp_path / "ck", size - 1)
            match = "truncated" if change == "truncate" else "checksum mismatch"
            with pytest.raises(cp.CheckpointError, match=match):
                handle.read(last)
            with pytest.raises(cp.CheckpointError, match=match):
                list(handle.pieces(last))
            assert handle.read(first).tobytes() == ck.tensors[first].tobytes()

    CORRUPTIONS = {
        "tensor-byte": (lambda path: _flip(path, cp.read_manifest(path)["tensors"][2]["offset"]
                                           + 5), "checksum mismatch"),
        "padding": (lambda path: _flip(path, _padding_offset(path)), "SHA-256 mismatch"),
        "last-byte": (lambda path: _flip(path, cp.read_manifest(path)["blob"]["size"] - 1),
                      "checksum mismatch"),
        "manifest-sha256": (lambda path: _edit_manifest(
            path, lambda m: m["blob"].update(sha256="0" * 64)), "SHA-256 mismatch"),
        "manifest-crc32": (lambda path: _edit_manifest(
            path, lambda m: m["tensors"][3].update(crc32=m["tensors"][3]["crc32"] ^ 1)),
            "checksum mismatch"),
    }

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_corrupt_parent_refused_before_any_output(self, capsys, tmp_path, case):
        # Hidden size 12 gives 48-byte norm tensors, so the blob has padding.
        parent = tmp_path / "parent"
        cp.save(random_checkpoint(make_config(12, 24, 1, 2, 2, 23, s=16), seed=13), parent)
        corrupt, match = self.CORRUPTIONS[case]
        corrupt(parent)
        with pytest.raises(cp.CheckpointError, match=match):
            cp.open(parent)
        code = main(["upcycle", "--method", "drop", "--experts", "4", "--topk", "2",
                     "--in", str(parent), "--out", str(tmp_path / "new" / "moe")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert match in captured.err
        assert not (tmp_path / "new").exists()


def _pairs(ck: cp.Checkpoint) -> list:
    return [(name, ck.tensors[name]) for name in sorted(ck.tensors)]


def _swap_first_two(pairs):
    return [pairs[1], pairs[0], *pairs[2:]]


def _replace_last_layer_tensor(pairs, make):
    """``pairs`` with the last tensor of the last layer, in name order, replaced."""
    last = max(i for i, (name, _) in enumerate(pairs) if name.startswith("layers.1."))
    name, array = pairs[last]
    return [*pairs[:last], (name, make(array)), *pairs[last + 1:]]


def _poisoned(array):
    array = array.copy()
    array.flat[-1] = np.inf
    return array


class TestStreamingWriter:
    """``save`` checks each tensor of a stream as it arrives; a refused stream
    leaves nothing new behind."""

    STREAMS = {
        "out-of-order": (_swap_first_two, cp.CheckpointError, "out of name order"),
        "duplicate": (lambda p: [p[0], *p], cp.CheckpointError, "duplicate tensor"),
        "unexpected": (lambda p: [*p, ("layers.1.zzz", p[-1][1])], cp.CheckpointError,
                       "unexpected tensor 'layers.1.zzz'"),
        "missing": (lambda p: p[:-1], cp.CheckpointError, "missing tensor"),
        "shape": (lambda p: _replace_last_layer_tensor(p, lambda a: a[:-1]),
                  cp.CheckpointError, "has shape"),
        "dtype": (lambda p: _replace_last_layer_tensor(p, lambda a: a.astype(np.float16)),
                  cp.CheckpointError, "unsupported dtype"),
        "non-finite": (lambda p: _replace_last_layer_tensor(p, _poisoned), ValidationError,
                       "non-finite"),
        "chunked-short": (lambda p: _replace_last_layer_tensor(
            p, lambda a: cp.Chunked(a.shape, a.dtype, [a.reshape(-1)[:-1]])),
            cp.CheckpointError, "arrived as"),
        "chunked-dtype": (lambda p: _replace_last_layer_tensor(
            p, lambda a: cp.Chunked(a.shape, a.dtype, [a.reshape(-1).astype(np.float64)])),
            cp.CheckpointError, "piece of dtype"),
        "chunked-non-finite": (lambda p: _replace_last_layer_tensor(
            p, lambda a: cp.Chunked(a.shape, a.dtype, np.array_split(
                _poisoned(a).reshape(-1), 3))), ValidationError, "non-finite"),
    }

    @pytest.mark.parametrize("case", STREAMS)
    def test_bad_stream_leaves_old_checkpoint(self, tmp_path, case):
        old = random_checkpoint(tiny_moe_config(), seed=5)
        cp.save(old, tmp_path / "ck")
        before = sorted(p.name for p in (tmp_path / "ck").iterdir())
        edit, error, match = self.STREAMS[case]
        new = random_checkpoint(tiny_moe_config(), seed=6)
        stream = cp.TensorStream(new.config, iter(edit(_pairs(new))), new.metadata)
        with pytest.raises(error, match=match):
            cp.save(stream, tmp_path / "ck")
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == before
        assert _same(cp.load(tmp_path / "ck"), old)

    @pytest.mark.parametrize("case", STREAMS)
    def test_bad_stream_creates_no_directory(self, tmp_path, case):
        edit, error, match = self.STREAMS[case]
        new = random_checkpoint(tiny_moe_config(), seed=6)
        stream = cp.TensorStream(new.config, iter(edit(_pairs(new))), new.metadata)
        with pytest.raises(error, match=match):
            cp.save(stream, tmp_path / "new" / "ck")
        assert not (tmp_path / "new").exists()

    def test_stream_and_checkpoint_write_the_same_bytes(self, tmp_path):
        ck = random_checkpoint(tiny_moe_config(), seed=7)
        ck.tensors[cp.POSITION_SLOT] = np.zeros((16, 16), dtype=np.float32)
        written = cp.save(cp.TensorStream(ck.config, iter(_pairs(ck)), ck.metadata),
                          tmp_path / "stream")
        assert written == cp.read_manifest(tmp_path / "stream")
        cp.save(ck, tmp_path / "dict")
        # Each tensor as a Chunked one, in uneven pieces.
        chunked = [(name, cp.Chunked(a.shape, a.dtype, np.array_split(a.reshape(-1), 3)))
                   for name, a in _pairs(ck)]
        cp.save(cp.TensorStream(ck.config, iter(chunked), ck.metadata), tmp_path / "chunked")
        for out in ("stream", "chunked"):
            for name in (cp.MANIFEST_FILE, cp.BLOB_FILE):
                assert (tmp_path / out / name).read_bytes() == (
                    tmp_path / "dict" / name).read_bytes()


# The upcycle flags of each method, and the spec that upcycle.build takes for them.
_UPCYCLES = {
    "naive": (["--method", "naive", "--experts", "4", "--topk", "2"],
              upcycle.UpcycleSpec("naive", seed=3)),
    "drop": (["--method", "drop", "--experts", "4", "--topk", "2", "--ratio", "0.5"],
             upcycle.UpcycleSpec("drop", ratio=0.5, seed=3)),
    "fg-drop": (["--method", "fg-drop", "--experts", "4", "--topk", "3", "--granularity", "2",
                 "--shared", "1", "--shared-init", "drop", "--scale-factor", "2"],
                upcycle.UpcycleSpec("fg-drop", seed=3, granularity=2, shared_experts=1,
                                    shared_init="drop", scale_factor=2.0)),
    "rnu": (["--method", "rnu", "--experts", "4", "--topk", "2"],
            upcycle.UpcycleSpec("rnu", seed=3)),
    "btx": (["--method", "btx", "--experts", "4", "--topk", "2"],
            upcycle.UpcycleSpec("btx", seed=3)),
}


@pytest.mark.parametrize("method", _UPCYCLES)
def test_cli_upcycle_writes_the_bytes_of_the_in_memory_build(capsys, monkeypatch, tmp_path,
                                                              method):
    """``moeup upcycle`` streams the MoE to disk; the bytes are those of
    ``save`` of :func:`upcycle.build`'s in-memory result, on a 12-layer parent,
    whose layers stream in string order, on 1 and 2 threads."""
    config = make_config(16, 32, 12, 2, 2, 23, s=16)
    cp.save(random_checkpoint(config, seed=1), tmp_path / "parent")
    cp.save(random_checkpoint(config, seed=2), tmp_path / "branch")
    flags, spec = _UPCYCLES[method]
    btx = method == "btx"
    extra = ["--branches", str(tmp_path / "branch")] if btx else []
    for threads in ("1", "2"):
        monkeypatch.setenv("MOEUP_THREADS", threads)
        assert main(["upcycle", *flags, *extra, "--seed", "3", "--in", str(tmp_path / "parent"),
                     "--out", str(tmp_path / f"cli{threads}")]) == 0
    capsys.readouterr()
    built = cp.load(tmp_path / "cli1")
    branches = [cp.load(tmp_path / "branch")] if btx else []
    moe, _ = upcycle.build(spec, cp.load(tmp_path / "parent"), built.config, branches)
    cp.save(moe, tmp_path / "memory")
    for out in ("cli1", "cli2"):
        for name in (cp.MANIFEST_FILE, cp.BLOB_FILE):
            assert (tmp_path / out / name).read_bytes() == (
                tmp_path / "memory" / name).read_bytes(), (out, name)
