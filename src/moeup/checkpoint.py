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

import hashlib
import json
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


def checkpoint_hash(ckpt: Checkpoint) -> str:
    """SHA-256 over tensor names, shapes, dtypes, and payload bytes."""
    h = hashlib.sha256()
    for name in sorted(ckpt.tensors):
        array = np.ascontiguousarray(ckpt.tensors[name])
        le = array.astype(array.dtype.newbyteorder("<"), copy=False)
        h.update(name.encode("utf-8"))
        h.update(repr(tuple(array.shape)).encode("ascii"))
        h.update(_DTYPE_TO_NAME[np.dtype(le.dtype)].encode("ascii"))
        h.update(le.tobytes())
    return h.hexdigest()


def _aligned(offset: int) -> int:
    rem = offset % TENSOR_ALIGNMENT
    return offset if rem == 0 else offset + (TENSOR_ALIGNMENT - rem)


def save(ckpt: Checkpoint, path: str | Path) -> None:
    """Write the checkpoint to ``path`` (a directory, created if needed)."""
    ckpt.validate()
    for name, array in ckpt.tensors.items():
        if not np.all(np.isfinite(array)):
            raise ValidationError(
                f"tensor '{name}' contains non-finite values; refusing to serialize")

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)

    index = []
    blob = bytearray()
    for name in sorted(ckpt.tensors):
        array = np.ascontiguousarray(ckpt.tensors[name])
        le = array.astype(array.dtype.newbyteorder("<"), copy=False)
        payload = le.tobytes()
        offset = _aligned(len(blob))
        blob.extend(b"\x00" * (offset - len(blob)))
        blob.extend(payload)
        index.append({
            "name": name,
            "dtype": _DTYPE_TO_NAME[np.dtype(le.dtype)],
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": len(payload),
            "crc32": zlib.crc32(payload),
        })

    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": ckpt.config.to_dict(),
        "metadata": ckpt.metadata,
        "blob": {
            "file": BLOB_FILE,
            "size": len(blob),
            "sha256": hashlib.sha256(bytes(blob)).hexdigest(),
        },
        "tensors": index,
    }

    try:
        (out / BLOB_FILE).write_bytes(bytes(blob))
        with open(out / MANIFEST_FILE, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise CheckpointError(f"failed to write checkpoint at {out}: {exc}") from exc


def read_manifest(path: str | Path) -> dict:
    manifest_path = Path(path) / MANIFEST_FILE
    if not manifest_path.exists():
        raise CheckpointError(f"not a checkpoint directory (no {MANIFEST_FILE}): {path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest at {manifest_path}: {exc}") from exc
    if manifest.get("format") != FORMAT_NAME:
        raise CheckpointError(f"unrecognized checkpoint format: {manifest.get('format')!r}")
    if manifest.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version: {manifest.get('version')!r}")
    return manifest


def load(path: str | Path) -> Checkpoint:
    """Read, checksum-validate, and structurally validate a checkpoint."""
    manifest = read_manifest(path)
    try:
        config = ModelConfig.from_dict(manifest["config"])
    except (KeyError, ValidationError) as exc:
        raise CheckpointError(f"invalid config in manifest: {exc}") from exc

    try:
        blob_file, blob_size = manifest["blob"]["file"], manifest["blob"]["size"]
        entries = [(entry["name"], entry["dtype"], entry["shape"], entry["offset"],
                    entry["nbytes"], entry["crc32"]) for entry in manifest["tensors"]]
    except KeyError as exc:
        raise CheckpointError(f"malformed manifest: missing key {exc}") from None
    except TypeError as exc:
        raise CheckpointError(f"malformed manifest: {exc}") from None

    blob_path = Path(path) / blob_file
    try:
        blob = blob_path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"failed to read tensor blob {blob_path}: {exc}") from exc
    if len(blob) != blob_size:
        raise CheckpointError(
            f"tensor blob size mismatch: expected {blob_size}, got {len(blob)}")

    tensors: dict[str, np.ndarray] = {}
    for name, dtype_name, shape, start, nbytes, crc32 in entries:
        if dtype_name not in _NAME_TO_DTYPE:
            raise CheckpointError(f"tensor '{name}' has unknown dtype '{dtype_name}'")
        payload = blob[start:start + nbytes]
        if len(payload) != nbytes:
            raise CheckpointError(f"corrupt tensor '{name}': payload truncated")
        if zlib.crc32(payload) != crc32:
            raise CheckpointError(f"corrupt tensor '{name}': checksum mismatch")
        dtype = _NAME_TO_DTYPE[dtype_name]
        shape = tuple(shape)
        expected_bytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if shape else dtype.itemsize
        if nbytes != expected_bytes:
            raise CheckpointError(f"tensor '{name}' byte length {nbytes} disagrees with shape {shape}")
        # copy() detaches from the read-only buffer so tensors are writable
        tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()

    ckpt = Checkpoint(config=config, tensors=tensors, metadata=dict(manifest.get("metadata", {})))
    ckpt.validate()
    return ckpt
