"""Named-tensor checkpoint archive: JSON manifest + one raw binary blob.

On-disk layout of a checkpoint directory::

    manifest.json   metadata and the tensor index
    tensors.bin     all tensor payloads, concatenated

Manifest schema (all fields required unless noted):

- ``format``: literal ``"moeup.checkpoint"``
- ``version``: integer format version (currently 1)
- ``config``: the :class:`~moeup.config.ModelConfig` fields
- ``metadata``: free-form provenance object (construction method, ratio,
  seed, ``parent_hash``, ...); may be empty
- ``blob``: ``{"file", "size", "sha256"}`` describing ``tensors.bin``
- ``tensors``: list sorted by name, each entry
  ``{"name", "dtype", "shape", "offset", "nbytes", "crc32"}``

Blob layout: little-endian IEEE-754 floats (``f32`` or ``f64`` per tensor),
row-major, each tensor starting at a 64-byte-aligned offset, gaps zero-filled.

:func:`save` consumes ``(name, tensor)`` pairs in name order, the blob order:
a :class:`TensorStream`, or an in-memory :class:`Checkpoint` as its sorted
items. A tensor is an array, or a :class:`Chunked` tensor whose pieces arrive
one at a time; both are written by one path, a piece of at most
``CHUNK_ELEMENTS`` elements at a time. It checks each tensor as it arrives (an
expected slot, named after the previous one, of the expected shape and a
float dtype) and each piece (the tensor's dtype and finite values), and
streams the bytes straight into the blob file, hashing them as they go, so it
holds no copy of the payload and a stream's producer may drop each tensor once
it is written. After the last tensor it checks that no slot is missing. Both
files are written and fsynced under temporary names in the target directory
and then renamed into place, the manifest last; other files in the directory
are left alone. A tensor refused mid-stream, like any failure, leaves no
temporaries, and no directory that the call created. A crash therefore leaves
either the old checkpoint, the new one, or the new blob next to the old
manifest, which :func:`load` and :func:`open` reject.

:func:`load` and :func:`open` check the manifest alike: unique tensor names,
byte lengths that match the shapes, byte ranges that lie inside the blob and
do not overlap, a ``blob.file`` inside the checkpoint directory and the blob
size. One verifier then walks the blob in file order, ``CHUNK_BYTES`` at a
time, and checks each tensor's CRC32 and the blob SHA-256, and last the slots
against the config. Any failure raises :class:`CheckpointError`.

- :func:`load` reads the blob once into one buffer before it verifies; the
  loaded tensors are writable views of that buffer.
- :func:`open` holds no tensor. Its pass streams the blob from the file and
  also computes :func:`checkpoint_hash`, which is a name-order stream, as the
  tensors pass when the blob holds them in name order (as :func:`save` writes
  them), and in a second pass otherwise. The :class:`CheckpointHandle` it
  returns answers names, shapes, dtypes and parameter counts from the
  manifest, and reads a tensor, whole or a piece at a time, with
  ``os.pread``, checking its CRC32 again, so a blob changed after ``open`` is
  refused too.

Canonical tensor names form a bijection with the structural slots implied by
the config:

- ``embedding.token``                 (vocab, hidden)
- ``head.out``                        (hidden, vocab)
- ``final_norm``                      (hidden,)
- ``layers.{i}.attn.wq``              (hidden, num_heads * head_dim)
- ``layers.{i}.attn.wk`` / ``wv``     (hidden, num_query_groups * head_dim)
- ``layers.{i}.attn.wo``              (num_heads * head_dim, hidden)
- ``layers.{i}.attn_norm`` / ``ffn_norm``   (hidden,)
- dense FFN: ``layers.{i}.ffn.gate`` / ``up``   (hidden, intermediate)
  and ``layers.{i}.ffn.down``                   (intermediate, hidden)
- MoE:   ``layers.{i}.router``                  (hidden, routed_experts)
  plus ``layers.{i}.experts.{e}.gate|up|down`` for each routed expert and
  ``layers.{i}.shared.{j}.gate|up|down`` for each shared expert, expert
  matrices using the per-expert intermediate width

One optional slot exists: ``embedding.position`` with shape (rows, hidden)
for any positive number of rows. It is attached when a toy model is
instantiated for training and is absent from freshly constructed checkpoints,
whose stored parameters therefore match the accounting module exactly.
"""

from __future__ import annotations

import builtins
import contextlib
import hashlib
import json
import math
import os
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ModelConfig, ValidationError

FORMAT_NAME = "moeup.checkpoint"
FORMAT_VERSION = 1
MANIFEST_FILE = "manifest.json"
BLOB_FILE = "tensors.bin"
TENSOR_ALIGNMENT = 64

POSITION_SLOT = "embedding.position"

# A piece of a tensor holds at most CHUNK_ELEMENTS elements (1 MiB of f32), so
# the pieces of an f32 and an f64 tensor of one shape line up. The verifier
# reads the blob CHUNK_BYTES at a time.
CHUNK_ELEMENTS = 1 << 18
CHUNK_BYTES = 1 << 20

_DTYPE_TO_NAME = {np.dtype("<f4"): "f32", np.dtype("<f8"): "f64"}
_NAME_TO_DTYPE = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}

Specs = dict[str, tuple[tuple[int, ...], np.dtype]]


class CheckpointError(Exception):
    """Raised for structural or I/O failures while reading/writing archives."""


def ffn_slot_names(prefix: str) -> tuple[str, str, str]:
    return (f"{prefix}.gate", f"{prefix}.up", f"{prefix}.down")


def expected_slots(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Required tensor name -> shape map implied by the config."""
    d_h = config.hidden_size
    slots: dict[str, tuple[int, ...]] = {
        "embedding.token": (config.vocab_size, d_h),
        "head.out": (d_h, config.vocab_size),
        "final_norm": (d_h,),
    }
    q_width = config.num_heads * config.head_dim
    kv_width = config.num_query_groups * config.head_dim

    def add_ffn(prefix: str, width: int) -> None:
        gate, up, down = ffn_slot_names(prefix)
        slots[gate] = (d_h, width)
        slots[up] = (d_h, width)
        slots[down] = (width, d_h)

    for i in range(config.num_layers):
        slots[f"layers.{i}.attn.wq"] = (d_h, q_width)
        slots[f"layers.{i}.attn.wk"] = (d_h, kv_width)
        slots[f"layers.{i}.attn.wv"] = (d_h, kv_width)
        slots[f"layers.{i}.attn.wo"] = (q_width, d_h)
        slots[f"layers.{i}.attn_norm"] = (d_h,)
        slots[f"layers.{i}.ffn_norm"] = (d_h,)
        if config.is_moe:
            slots[f"layers.{i}.router"] = (d_h, config.routed_experts)
            for e in range(config.routed_experts):
                add_ffn(f"layers.{i}.experts.{e}", config.expert_intermediate)
            for j in range(config.shared_experts):
                add_ffn(f"layers.{i}.shared.{j}", config.expert_intermediate)
        else:
            add_ffn(f"layers.{i}.ffn", config.intermediate_size)
    return slots


def _check_tensor(config: ModelConfig, slots: dict[str, tuple[int, ...]], name: str,
                  shape: tuple[int, ...], dtype: np.dtype) -> None:
    """``name`` is one of ``slots`` (or the optional position slot), with its shape
    and a float dtype."""
    shape = tuple(shape)
    if name == POSITION_SLOT:
        if len(shape) != 2 or shape[1] != config.hidden_size:
            raise CheckpointError(
                f"tensor '{name}' has shape {shape}, expected (rows, {config.hidden_size})")
    elif name not in slots:
        if not config.is_moe and (".router" in name or ".experts." in name):
            raise CheckpointError(f"dense checkpoint contains router/expert tensor '{name}'")
        raise CheckpointError(f"unexpected tensor '{name}' for this config")
    elif shape != slots[name]:
        raise CheckpointError(f"tensor '{name}' has shape {shape}, expected {slots[name]}")
    if dtype not in (np.float32, np.float64):
        raise CheckpointError(f"tensor '{name}' has unsupported dtype {dtype}")


class _Tensors:
    """What an in-memory :class:`Checkpoint` and an on-disk
    :class:`CheckpointHandle` share: checks and counts from ``specs()`` alone,
    so a handle reads no payload for them."""

    config: ModelConfig

    def specs(self) -> Specs:
        """Tensor name -> (shape, dtype)."""
        raise NotImplementedError

    def validate(self) -> None:
        specs = self.specs()
        slots = expected_slots(self.config)
        for name in slots:
            if name not in specs:
                raise CheckpointError(f"missing tensor '{name}'")
        for name, (shape, dtype) in specs.items():
            _check_tensor(self.config, slots, name, shape, dtype)

    def num_parameters(self) -> int:
        return sum(math.prod(shape) for shape, _ in self.specs().values())


@dataclass
class Checkpoint(_Tensors):
    """A config plus named tensors plus provenance metadata.

    Tensor arrays keep their storage dtype (float32 or float64); compute
    paths upcast to float64 on use. Instances are treated as immutable after
    construction and are safe to share across threads.
    """

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def specs(self) -> Specs:
        return {name: (array.shape, array.dtype) for name, array in self.tensors.items()}

    def _tensor(self, name: str) -> np.ndarray:
        if name not in self.tensors:
            raise CheckpointError(f"missing tensor '{name}'")
        return self.tensors[name]

    def tensor_f64(self, name: str) -> np.ndarray:
        """Tensor upcast to float64 for compute paths."""
        return np.asarray(self._tensor(name), dtype=np.float64)

    def read(self, name: str) -> np.ndarray:
        """A copy of tensor ``name`` that the caller owns, as a handle's read is."""
        return self._tensor(name).copy()

    def pieces(self, name: str) -> Iterator[np.ndarray]:
        """Tensor ``name`` flat, little-endian and row-major, as views of at most
        ``CHUNK_ELEMENTS`` elements."""
        return _array_pieces(self._tensor(name))


@dataclass
class Chunked:
    """A tensor that arrives in pieces: flat arrays of ``dtype`` whose
    concatenation is the tensor in row-major order. :func:`save` writes each
    piece as it arrives. The pieces can be consumed once."""

    shape: tuple[int, ...]
    dtype: np.dtype
    pieces: Iterable[np.ndarray]

    def array(self) -> np.ndarray:
        """The pieces gathered into one new array."""
        out = np.empty(math.prod(self.shape), dtype=self.dtype)
        filled = 0
        for piece in self.pieces:
            out[filled:filled + piece.size] = piece
            filled += piece.size
        return out.reshape(self.shape)


@dataclass
class TensorStream:
    """A checkpoint whose tensors arrive as ``(name, tensor)`` pairs in name
    order, each tensor an array or a :class:`Chunked` one.

    :func:`save` writes each pair as it arrives, so a producer that builds
    its tensors lazily holds only those not yet written. The pairs can be
    consumed once.
    """

    config: ModelConfig
    tensors: Iterable[tuple[str, np.ndarray | Chunked]]
    metadata: dict = field(default_factory=dict)


def _little_endian(array: np.ndarray) -> np.ndarray:
    """C-contiguous little-endian form of ``array``; no copy when it already is one."""
    array = np.ascontiguousarray(array)
    return array.astype(array.dtype.newbyteorder("<"), copy=False)


def _byte_view(array: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, without copying them."""
    return memoryview(array.reshape(-1).view(np.uint8))


def _array_pieces(array: np.ndarray) -> Iterator[np.ndarray]:
    flat = _little_endian(array).reshape(-1)
    for start in range(0, flat.size, CHUNK_ELEMENTS):
        yield flat[start:start + CHUNK_ELEMENTS]


def _hash_header(h, name: str, shape, dtype_name: str) -> None:
    h.update(name.encode("utf-8"))
    h.update(repr(tuple(shape)).encode("ascii"))
    h.update(dtype_name.encode("ascii"))


def _name_order_hash(source: _Tensors) -> str:
    h = hashlib.sha256()
    for name, (shape, dtype) in sorted(source.specs().items()):
        _hash_header(h, name, shape, _DTYPE_TO_NAME[np.dtype(dtype).newbyteorder("<")])
        for piece in source.pieces(name):
            h.update(_byte_view(piece))
    return h.hexdigest()


def checkpoint_hash(source: Checkpoint | CheckpointHandle) -> str:
    """SHA-256 over tensor names, shapes, dtypes, and payload bytes, in name
    order; a handle's was computed when :func:`open` verified its blob."""
    if isinstance(source, CheckpointHandle):
        return source.hash
    return _name_order_hash(source)


def _aligned(offset: int) -> int:
    rem = offset % TENSOR_ALIGNMENT
    return offset if rem == 0 else offset + (TENSOR_ALIGNMENT - rem)


def _write_blob(source: TensorStream, fh) -> tuple[list[dict], int, str]:
    """Check and write the source's tensors into ``fh`` as they arrive, a piece
    at a time; return the tensor index, the blob size and the blob SHA-256."""
    slots = expected_slots(source.config)
    index = []
    sha256 = hashlib.sha256()
    size = 0
    for name, tensor in source.tensors:
        previous = index[-1]["name"] if index else None
        if name == previous:
            raise CheckpointError(f"duplicate tensor '{name}'")
        if previous is not None and name < previous:
            raise CheckpointError(f"tensor '{name}' arrives after '{previous}', out of name order")
        _check_tensor(source.config, slots, name, tensor.shape, tensor.dtype)
        dtype = np.dtype(tensor.dtype).newbyteorder("<")
        pieces = tensor.pieces if isinstance(tensor, Chunked) else _array_pieces(tensor)
        offset = _aligned(size)
        padding = b"\x00" * (offset - size)
        fh.write(padding)
        sha256.update(padding)
        crc32 = nbytes = 0
        for piece in pieces:
            if piece.dtype != dtype:
                raise CheckpointError(f"tensor '{name}' has a piece of dtype {piece.dtype}, "
                                      f"expected {dtype}")
            if not np.isfinite(piece).all():
                raise ValidationError(
                    f"tensor '{name}' contains non-finite values; refusing to serialize")
            data = _byte_view(piece)
            fh.write(data)
            sha256.update(data)
            crc32 = zlib.crc32(data, crc32)
            nbytes += data.nbytes
        expected = math.prod(tensor.shape) * dtype.itemsize
        if nbytes != expected:
            raise CheckpointError(f"tensor '{name}' arrived as {nbytes} bytes, expected {expected}")
        size = offset + nbytes
        index.append({
            "name": name,
            "dtype": _DTYPE_TO_NAME[dtype],
            "shape": list(tensor.shape),
            "offset": offset,
            "nbytes": nbytes,
            "crc32": crc32,
        })
    written = {entry["name"] for entry in index}
    for name in slots:
        if name not in written:
            raise CheckpointError(f"missing tensor '{name}'")
    return index, size, sha256.hexdigest()


def _sync(fh) -> None:
    fh.flush()
    os.fsync(fh.fileno())


def _sync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save(source: Checkpoint | TensorStream, path: str | Path) -> dict:
    """Write the checkpoint to ``path`` (a directory, created if needed); return
    the manifest written.

    A :class:`Checkpoint` is written as its items sorted by name. Both files
    are written and fsynced under temporary names, then renamed into place,
    the manifest last. Other files in the directory are kept. On any failure,
    including a tensor refused mid-stream, the temporaries and the
    directories this call created are removed.
    """
    if isinstance(source, Checkpoint):
        tensors = source.tensors
        source = TensorStream(source.config, ((name, tensors[name]) for name in sorted(tensors)),
                              source.metadata)
    out = Path(path)
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    token = f"{os.getpid()}.{os.urandom(4).hex()}.tmp"
    blob_tmp, manifest_tmp = out / f".{BLOB_FILE}.{token}", out / f".{MANIFEST_FILE}.{token}"
    done = False
    try:
        out.mkdir(parents=True, exist_ok=True)
        with builtins.open(blob_tmp, "xb") as fh:
            index, size, sha256 = _write_blob(source, fh)
            _sync(fh)
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "config": source.config.to_dict(),
            "metadata": source.metadata,
            "blob": {"file": BLOB_FILE, "size": size, "sha256": sha256},
            "tensors": index,
        }
        with builtins.open(manifest_tmp, "x", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
            _sync(fh)
        # Between the two renames the old manifest sits next to the new blob;
        # load rejects that pair, because the blob no longer matches its
        # size, checksums and SHA-256.
        os.replace(blob_tmp, out / BLOB_FILE)
        os.replace(manifest_tmp, out / MANIFEST_FILE)
        _sync_dir(out)
        done = True
    except OSError as exc:
        raise CheckpointError(f"failed to write checkpoint at {out}: {exc}") from exc
    finally:
        for tmp in (blob_tmp, manifest_tmp):
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        if not done:
            for directory in created:
                with contextlib.suppress(OSError):
                    directory.rmdir()
    return manifest


def read_manifest(path: str | Path) -> dict:
    manifest_path = Path(path) / MANIFEST_FILE
    if not manifest_path.exists():
        raise CheckpointError(f"not a checkpoint directory (no {MANIFEST_FILE}): {path}")
    try:
        with builtins.open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest at {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"malformed manifest at {manifest_path}: not a JSON object")
    if manifest.get("format") != FORMAT_NAME:
        raise CheckpointError(f"unrecognized checkpoint format: {manifest.get('format')!r}")
    if manifest.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version: {manifest.get('version')!r}")
    return manifest


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _blob_path(root: Path, blob_file) -> Path:
    if not isinstance(blob_file, str) or not blob_file:
        raise CheckpointError(
            f"malformed manifest: blob.file must be a file name, got {blob_file!r}")
    relative = Path(blob_file)
    if relative.is_absolute() or ".." in relative.parts:
        raise CheckpointError(
            f"blob.file {blob_file!r} points outside the checkpoint directory {root}")
    return root / relative


def _check_entries(entries: list[tuple], blob_size: int) -> None:
    """Field types, byte lengths, unique names, and disjoint in-blob byte ranges."""
    names = set()
    for name, dtype_name, shape, start, nbytes, _crc32 in entries:
        if not (isinstance(name, str) and isinstance(dtype_name, str) and isinstance(shape, list)
                and all(map(_is_count, shape)) and _is_count(start) and _is_count(nbytes)):
            raise CheckpointError(f"malformed manifest: bad index entry for tensor {name!r}")
        if dtype_name not in _NAME_TO_DTYPE:
            raise CheckpointError(f"tensor '{name}' has unknown dtype '{dtype_name}'")
        if name in names:
            raise CheckpointError(f"duplicate tensor '{name}' in manifest")
        names.add(name)
        expected_bytes = math.prod(shape) * _NAME_TO_DTYPE[dtype_name].itemsize
        if nbytes != expected_bytes:
            raise CheckpointError(
                f"tensor '{name}' byte length {nbytes} disagrees with shape {tuple(shape)}")
        if start + nbytes > blob_size:
            raise CheckpointError(
                f"corrupt tensor '{name}': payload truncated (bytes [{start}, {start + nbytes}) "
                f"of a {blob_size}-byte blob)")
    end, previous = 0, None
    for name, _, _, start, nbytes, _ in sorted(entries, key=lambda e: e[3]):
        if nbytes == 0:
            continue
        if start < end:
            raise CheckpointError(f"tensors '{previous}' and '{name}' overlap in the blob")
        end, previous = start + nbytes, name


@dataclass
class _Index:
    """A manifest that passed the checks shared by :func:`load` and :func:`open`."""

    manifest: dict
    config: ModelConfig
    metadata: dict
    entries: list[tuple]  # (name, dtype name, shape, offset, nbytes, crc32)
    blob_path: Path
    blob_size: int
    blob_sha256: str


def _read_index(path: str | Path) -> _Index:
    manifest = read_manifest(path)
    try:
        config = ModelConfig.from_dict(manifest["config"])
    except (KeyError, TypeError, ValidationError) as exc:
        raise CheckpointError(f"invalid config in manifest: {exc}") from exc

    try:
        blob = manifest["blob"]
        blob_file, blob_size, blob_sha256 = blob["file"], blob["size"], blob["sha256"]
        entries = [(entry["name"], entry["dtype"], entry["shape"], entry["offset"],
                    entry["nbytes"], entry["crc32"]) for entry in manifest["tensors"]]
    except KeyError as exc:
        raise CheckpointError(f"malformed manifest: missing key {exc}") from None
    except TypeError as exc:
        raise CheckpointError(f"malformed manifest: {exc}") from None
    if not _is_count(blob_size):
        raise CheckpointError(f"malformed manifest: bad blob size {blob_size!r}")
    metadata = manifest.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CheckpointError(f"malformed manifest: metadata must be an object, got {metadata!r}")
    _check_entries(entries, blob_size)
    return _Index(manifest, config, dict(metadata), entries, _blob_path(Path(path), blob_file),
                  blob_size, blob_sha256)


def _verify(read, index: _Index, digest=None) -> None:
    """Walk the blob once, in file order and ``CHUNK_BYTES`` at a time, through
    ``read(offset, size)``: check each tensor's CRC32 as its range ends, and the
    blob SHA-256 at the end. ``digest`` is fed each tensor's
    :func:`checkpoint_hash` stream as it passes: that hash, when the blob holds
    the tensors in name order."""
    sha256 = hashlib.sha256()

    def walk(start: int, stop: int):
        for offset in range(start, stop, CHUNK_BYTES):
            data = read(offset, min(CHUNK_BYTES, stop - offset))
            sha256.update(data)
            yield data

    position = 0
    for name, dtype_name, shape, start, nbytes, crc32 in sorted(index.entries,
                                                                key=lambda e: e[3]):
        for _ in walk(position, start):  # alignment padding
            pass
        if digest is not None:
            _hash_header(digest, name, shape, dtype_name)
        crc = 0
        for data in walk(start, start + nbytes):
            crc = zlib.crc32(data, crc)
            if digest is not None:
                digest.update(data)
        if crc != crc32:
            raise CheckpointError(f"corrupt tensor '{name}': checksum mismatch")
        position = max(position, start + nbytes)
    for _ in walk(position, index.blob_size):
        pass
    if sha256.hexdigest() != index.blob_sha256:
        raise CheckpointError(f"corrupt tensor blob {index.blob_path}: SHA-256 mismatch")


def _read_blob(blob_path: Path, blob_size: int) -> np.ndarray:
    """The whole blob, read once into one uint8 buffer."""
    try:
        with builtins.open(blob_path, "rb") as fh:
            actual = os.fstat(fh.fileno()).st_size
            if actual != blob_size:
                raise CheckpointError(
                    f"tensor blob size mismatch: expected {blob_size}, got {actual}")
            buffer = np.empty(blob_size, dtype=np.uint8)
            view, filled = memoryview(buffer), 0
            while filled < blob_size:
                count = fh.readinto(view[filled:])
                if not count:
                    raise CheckpointError(
                        f"tensor blob size mismatch: expected {blob_size}, got {filled}")
                filled += count
    except OSError as exc:
        raise CheckpointError(f"failed to read tensor blob {blob_path}: {exc}") from exc
    return buffer


def load(path: str | Path) -> Checkpoint:
    """Read, checksum-validate, and structurally validate a checkpoint.

    The returned tensors are writable views of one buffer holding the blob.
    """
    index = _read_index(path)
    buffer = _read_blob(index.blob_path, index.blob_size)
    view = memoryview(buffer)
    _verify(lambda offset, size: view[offset:offset + size], index)

    tensors: dict[str, np.ndarray] = {}
    for name, dtype_name, shape, start, nbytes, _ in index.entries:
        dtype = _NAME_TO_DTYPE[dtype_name]
        tensors[name] = np.frombuffer(buffer, dtype=dtype, count=nbytes // dtype.itemsize,
                                      offset=start).reshape(shape)

    ckpt = Checkpoint(config=index.config, tensors=tensors, metadata=index.metadata)
    ckpt.validate()
    return ckpt


class CheckpointHandle(_Tensors):
    """A checkpoint on disk whose blob :func:`open` verified, read a tensor or a
    piece at a time.

    ``manifest`` is the manifest as read, ``hash`` the :func:`checkpoint_hash`.
    Names, shapes, dtypes and parameter counts come from the manifest. Each
    read goes to the blob with ``os.pread`` and checks the tensor's CRC32
    again: a whole-tensor read before it returns, a piece stream after its last
    piece. Reads are safe from several threads. Close the handle, or use it as
    a context manager.
    """

    def __init__(self, index: _Index, fd: int):
        self.manifest = index.manifest
        self.config = index.config
        self.metadata = index.metadata
        self.blob_path = index.blob_path
        self.hash: str | None = None
        self._entries = {name: (_NAME_TO_DTYPE[dtype_name], tuple(shape), start, nbytes, crc32)
                         for name, dtype_name, shape, start, nbytes, crc32 in index.entries}
        self._fd = fd

    def specs(self) -> Specs:
        return {name: (shape, dtype) for name, (dtype, shape, *_) in self._entries.items()}

    def _pread(self, offset: int, size: int) -> bytes:
        try:
            data = os.pread(self._fd, size, offset)
        except OSError as exc:
            raise CheckpointError(f"failed to read tensor blob {self.blob_path}: {exc}") from exc
        if len(data) != size:
            raise CheckpointError(f"tensor blob {self.blob_path} was truncated: bytes "
                                  f"[{offset}, {offset + size}) are past its end")
        return data

    def pieces(self, name: str) -> Iterator[np.ndarray]:
        """Tensor ``name`` flat and row-major, in pieces of at most
        ``CHUNK_ELEMENTS`` elements, read as they are taken; its CRC32 is
        checked after the last piece."""
        if name not in self._entries:
            raise CheckpointError(f"missing tensor '{name}'")
        dtype, _, start, nbytes, crc32 = self._entries[name]
        step = CHUNK_ELEMENTS * dtype.itemsize

        def pieces():
            crc = 0
            for offset in range(start, start + nbytes, step):
                data = self._pread(offset, min(step, start + nbytes - offset))
                crc = zlib.crc32(data, crc)
                yield np.frombuffer(data, dtype=dtype)
            if crc != crc32:
                raise CheckpointError(f"corrupt tensor '{name}': checksum mismatch "
                                      f"(the blob changed after it was opened)")

        return pieces()

    def read(self, name: str) -> np.ndarray:
        """Tensor ``name``, whole, in a new writable array."""
        pieces = self.pieces(name)
        dtype, shape, *_ = self._entries[name]
        return Chunked(shape, dtype, pieces).array()

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> CheckpointHandle:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open(path: str | Path) -> CheckpointHandle:
    """A handle to the checkpoint at ``path``, holding no tensor.

    The manifest gets :func:`load`'s checks, and one pass streams the blob from
    the file, checking each CRC32 and the SHA-256 and computing the
    :func:`checkpoint_hash`; then the slots are checked against the config.
    Any failure raises :class:`CheckpointError` before a handle is returned.
    As with ``gzip.open``, the name shadows the builtin in this module, which
    opens its files with ``builtins.open``.
    """
    index = _read_index(path)
    try:
        fd = os.open(index.blob_path, os.O_RDONLY)
    except OSError as exc:
        raise CheckpointError(f"failed to read tensor blob {index.blob_path}: {exc}") from exc
    handle = CheckpointHandle(index, fd)
    try:
        actual = os.fstat(fd).st_size
        if actual != index.blob_size:
            raise CheckpointError(
                f"tensor blob size mismatch: expected {index.blob_size}, got {actual}")
        names = [entry[0] for entry in sorted(index.entries, key=lambda e: e[3])]
        digest = hashlib.sha256() if names == sorted(names) else None
        _verify(handle._pread, index, digest)
        handle.validate()
        handle.hash = _name_order_hash(handle) if digest is None else digest.hexdigest()
    except BaseException:
        handle.close()
        raise
    return handle
