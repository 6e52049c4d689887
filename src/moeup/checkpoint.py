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

:func:`save` streams each tensor's bytes straight into the blob file, hashing
them as they go, so it holds no copy of the payload. Both files are written
and fsynced under temporary names in the target directory and then renamed
into place, the manifest last; other files in the directory are left alone.
A crash therefore leaves either the old checkpoint, the new one, or the new
blob next to the old manifest, which :func:`load` rejects.

:func:`load` reads the blob once into one buffer and checks, before building
any tensor: unique tensor names, byte lengths that match the shapes, byte
ranges that lie inside the blob and do not overlap, a ``blob.file`` inside the
checkpoint directory, the blob size, each tensor's CRC32 and the blob
SHA-256. Any failure raises :class:`CheckpointError`. The loaded tensors are
writable views of that one buffer.

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

import contextlib
import hashlib
import json
import math
import os
import zlib
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

_DTYPE_TO_NAME = {np.dtype("<f4"): "f32", np.dtype("<f8"): "f64"}
_NAME_TO_DTYPE = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


class CheckpointError(Exception):
    """Raised for structural or I/O failures while reading/writing archives."""


def ffn_slot_names(prefix: str) -> tuple[str, str, str]:
    return (f"{prefix}.gate", f"{prefix}.up", f"{prefix}.down")


def expected_slots(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Required tensor name -> shape map implied by the config."""
    d_h = config.hidden_size
    d_f = config.intermediate_size
    slots: dict[str, tuple[int, ...]] = {
        "embedding.token": (config.vocab_size, d_h),
        "head.out": (d_h, config.vocab_size),
        "final_norm": (d_h,),
    }
    q_width = config.num_heads * config.head_dim
    kv_width = config.num_query_groups * config.head_dim
    for i in range(config.num_layers):
        slots[f"layers.{i}.attn.wq"] = (d_h, q_width)
        slots[f"layers.{i}.attn.wk"] = (d_h, kv_width)
        slots[f"layers.{i}.attn.wv"] = (d_h, kv_width)
        slots[f"layers.{i}.attn.wo"] = (q_width, d_h)
        slots[f"layers.{i}.attn_norm"] = (d_h,)
        slots[f"layers.{i}.ffn_norm"] = (d_h,)
        if config.is_moe:
            width = config.expert_intermediate
            slots[f"layers.{i}.router"] = (d_h, config.routed_experts)
            for e in range(config.routed_experts):
                gate, up, down = ffn_slot_names(f"layers.{i}.experts.{e}")
                slots[gate] = (d_h, width)
                slots[up] = (d_h, width)
                slots[down] = (width, d_h)
            for j in range(config.shared_experts):
                gate, up, down = ffn_slot_names(f"layers.{i}.shared.{j}")
                slots[gate] = (d_h, width)
                slots[up] = (d_h, width)
                slots[down] = (width, d_h)
        else:
            gate, up, down = ffn_slot_names(f"layers.{i}.ffn")
            slots[gate] = (d_h, d_f)
            slots[up] = (d_h, d_f)
            slots[down] = (d_f, d_h)
    return slots


@dataclass
class Checkpoint:
    """A config plus named tensors plus provenance metadata.

    Tensor arrays keep their storage dtype (float32 or float64); compute
    paths upcast to float64 on use. Instances are treated as immutable after
    construction and are safe to share across threads.
    """

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        slots = expected_slots(self.config)
        for name in slots:
            if name not in self.tensors:
                raise CheckpointError(f"missing tensor '{name}'")
        for name, array in self.tensors.items():
            if name == POSITION_SLOT:
                if array.ndim != 2 or array.shape[1] != self.config.hidden_size:
                    raise CheckpointError(
                        f"tensor '{name}' has shape {array.shape}, expected "
                        f"(rows, {self.config.hidden_size})")
                continue
            if name not in slots:
                if not self.config.is_moe and (".router" in name or ".experts." in name):
                    raise CheckpointError(f"dense checkpoint contains router/expert tensor '{name}'")
                raise CheckpointError(f"unexpected tensor '{name}' for this config")
            if tuple(array.shape) != slots[name]:
                raise CheckpointError(
                    f"tensor '{name}' has shape {tuple(array.shape)}, expected {slots[name]}")
            if array.dtype not in (np.float32, np.float64):
                raise CheckpointError(f"tensor '{name}' has unsupported dtype {array.dtype}")

    def tensor_f64(self, name: str) -> np.ndarray:
        """Tensor upcast to float64 for compute paths."""
        if name not in self.tensors:
            raise CheckpointError(f"missing tensor '{name}'")
        return np.asarray(self.tensors[name], dtype=np.float64)

    def num_parameters(self) -> int:
        return int(sum(a.size for a in self.tensors.values()))


def _little_endian(array: np.ndarray) -> np.ndarray:
    """C-contiguous little-endian form of ``array``; no copy when it already is one."""
    array = np.ascontiguousarray(array)
    return array.astype(array.dtype.newbyteorder("<"), copy=False)


def _byte_view(array: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, without copying them."""
    return memoryview(array.reshape(-1).view(np.uint8))


def checkpoint_hash(ckpt: Checkpoint) -> str:
    """SHA-256 over tensor names, shapes, dtypes, and payload bytes."""
    h = hashlib.sha256()
    for name in sorted(ckpt.tensors):
        le = _little_endian(ckpt.tensors[name])
        h.update(name.encode("utf-8"))
        h.update(repr(tuple(le.shape)).encode("ascii"))
        h.update(_DTYPE_TO_NAME[np.dtype(le.dtype)].encode("ascii"))
        h.update(_byte_view(le))
    return h.hexdigest()


def _aligned(offset: int) -> int:
    rem = offset % TENSOR_ALIGNMENT
    return offset if rem == 0 else offset + (TENSOR_ALIGNMENT - rem)


def _write_blob(tensors: dict[str, np.ndarray], fh) -> tuple[list[dict], int, str]:
    """Stream the tensors sorted by name into ``fh``; return the tensor index,
    the blob size and the blob SHA-256."""
    index = []
    sha256 = hashlib.sha256()
    size = 0
    for name in sorted(tensors):
        le = _little_endian(tensors[name])
        payload = _byte_view(le)
        offset = _aligned(size)
        for chunk in (b"\x00" * (offset - size), payload):
            fh.write(chunk)
            sha256.update(chunk)
        size = offset + payload.nbytes
        index.append({
            "name": name,
            "dtype": _DTYPE_TO_NAME[np.dtype(le.dtype)],
            "shape": list(le.shape),
            "offset": offset,
            "nbytes": payload.nbytes,
            "crc32": zlib.crc32(payload),
        })
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


def save(ckpt: Checkpoint, path: str | Path) -> None:
    """Write the checkpoint to ``path`` (a directory, created if needed).

    Both files are written and fsynced under temporary names, then renamed
    into place, the manifest last. Other files in the directory are kept.
    """
    ckpt.validate()
    for name, array in ckpt.tensors.items():
        if not np.all(np.isfinite(array)):
            raise ValidationError(
                f"tensor '{name}' contains non-finite values; refusing to serialize")

    out = Path(path)
    token = f"{os.getpid()}.{os.urandom(4).hex()}.tmp"
    blob_tmp, manifest_tmp = out / f".{BLOB_FILE}.{token}", out / f".{MANIFEST_FILE}.{token}"
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(blob_tmp, "xb") as fh:
            index, size, sha256 = _write_blob(ckpt.tensors, fh)
            _sync(fh)
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "config": ckpt.config.to_dict(),
            "metadata": ckpt.metadata,
            "blob": {"file": BLOB_FILE, "size": size, "sha256": sha256},
            "tensors": index,
        }
        with open(manifest_tmp, "x", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
            _sync(fh)
        # Between the two renames the old manifest sits next to the new blob;
        # load rejects that pair, because the blob no longer matches its
        # size, checksums and SHA-256.
        os.replace(blob_tmp, out / BLOB_FILE)
        os.replace(manifest_tmp, out / MANIFEST_FILE)
        _sync_dir(out)
    except OSError as exc:
        raise CheckpointError(f"failed to write checkpoint at {out}: {exc}") from exc
    finally:
        for tmp in (blob_tmp, manifest_tmp):
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)


def read_manifest(path: str | Path) -> dict:
    manifest_path = Path(path) / MANIFEST_FILE
    if not manifest_path.exists():
        raise CheckpointError(f"not a checkpoint directory (no {MANIFEST_FILE}): {path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
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


def _read_blob(blob_path: Path, blob_size: int) -> np.ndarray:
    """The whole blob, read once into one uint8 buffer."""
    try:
        with open(blob_path, "rb") as fh:
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
    _check_entries(entries, blob_size)

    blob_path = _blob_path(Path(path), blob_file)
    buffer = _read_blob(blob_path, blob_size)
    view = memoryview(buffer)
    for name, _, _, start, nbytes, crc32 in entries:
        if zlib.crc32(view[start:start + nbytes]) != crc32:
            raise CheckpointError(f"corrupt tensor '{name}': checksum mismatch")
    if hashlib.sha256(view).hexdigest() != blob_sha256:
        raise CheckpointError(f"corrupt tensor blob {blob_path}: SHA-256 mismatch")

    tensors: dict[str, np.ndarray] = {}
    for name, dtype_name, shape, start, nbytes, _ in entries:
        dtype = _NAME_TO_DTYPE[dtype_name]
        tensors[name] = np.frombuffer(buffer, dtype=dtype, count=nbytes // dtype.itemsize,
                                      offset=start).reshape(shape)

    ckpt = Checkpoint(config=config, tensors=tensors, metadata=dict(manifest.get("metadata", {})))
    ckpt.validate()
    return ckpt
