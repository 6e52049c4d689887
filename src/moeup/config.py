"""Architectural hyperparameters shared by every module.

``ModelConfig`` is the single source of truth for tensor shapes, parameter
counts, and FLOPs accounting. A config with ``num_experts == 0`` describes a
dense model; otherwise every FFN slot is an MoE layer.

Fine-grained experts split each of the ``num_experts`` base experts into
``granularity`` segments of width ``intermediate_size // granularity``;
``shared_experts`` of those segments are always active and are not routed.
The number of routed experts is therefore
``granularity * num_experts - shared_experts``.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path


class ValidationError(ValueError):
    """Raised when a config, spec, or CLI argument fails validation."""


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


# The load-balancing modes of ``moeup.trainer``; here, so that the CLI's parser
# and error handling need no trainer import.
BALANCE_MODES = ("global", "layerwise", "off")


def require_ints(obj, names) -> None:
    """Raise ``ValidationError`` unless each named field of ``obj`` holds an
    integer; ``bool`` and integral floats such as ``2.0`` are rejected."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    hidden_size: int
    intermediate_size: int
    num_layers: int
    num_heads: int
    num_query_groups: int
    head_dim: int
    vocab_size: int
    num_experts: int = 0
    top_k: int = 0
    granularity: int = 1
    shared_experts: int = 0
    seq_len: int = 4096

    def __post_init__(self):
        require_ints(self, (f.name for f in fields(self)))
        for name in ("hidden_size", "intermediate_size", "num_heads", "num_query_groups",
                     "head_dim", "vocab_size", "seq_len"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.num_layers < 0:
            raise ValidationError(f"num_layers must be >= 0, got {self.num_layers}")
        if self.hidden_size != self.num_heads * self.head_dim:
            raise ValidationError(
                f"hidden_size ({self.hidden_size}) must equal num_heads * head_dim "
                f"({self.num_heads} * {self.head_dim})")
        if self.num_heads % self.num_query_groups != 0:
            raise ValidationError(
                f"num_query_groups ({self.num_query_groups}) must divide num_heads ({self.num_heads})")
        if self.num_experts < 0:
            raise ValidationError(f"num_experts must be >= 0, got {self.num_experts}")
        if self.num_experts == 0:
            if self.top_k != 0:
                raise ValidationError("top_k must be 0 for a dense config")
            if self.granularity != 1 or self.shared_experts != 0:
                raise ValidationError("granularity/shared_experts require num_experts > 0")
        else:
            if self.granularity < 1:
                raise ValidationError(f"granularity must be >= 1, got {self.granularity}")
            if self.granularity > 1 and self.intermediate_size % self.granularity != 0:
                raise ValidationError(
                    f"intermediate_size ({self.intermediate_size}) must be divisible by "
                    f"granularity ({self.granularity})")
            if self.shared_experts < 0:
                raise ValidationError(f"shared_experts must be >= 0, got {self.shared_experts}")
            if self.shared_experts >= self.granularity * self.num_experts:
                raise ValidationError(
                    f"shared_experts ({self.shared_experts}) must be < granularity * num_experts "
                    f"({self.granularity * self.num_experts})")
            routed = self.granularity * self.num_experts - self.shared_experts
            if not (1 <= self.top_k <= routed):
                raise ValidationError(
                    f"top_k ({self.top_k}) must be in [1, {routed}] "
                    f"(granularity * num_experts - shared_experts)")

    @property
    def is_moe(self) -> bool:
        return self.num_experts > 0

    @property
    def routed_experts(self) -> int:
        """Number of routed (gated) experts per MoE layer."""
        if not self.is_moe:
            return 0
        return self.granularity * self.num_experts - self.shared_experts

    @property
    def expert_intermediate(self) -> int:
        """Intermediate width of a single (possibly fine-grained) expert."""
        return self.intermediate_size // self.granularity

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown model config fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(str(exc)) from exc


def text_lines(path):
    """``(line number, line)`` of each line of a UTF-8 text file, from 1.

    A file that is not UTF-8 raises ``ValidationError`` naming it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def load_config_file(path: str | Path) -> dict:
    """Load a JSON config file and return its raw dict.

    The file either holds flat ``ModelConfig`` fields or sections named
    ``model``, ``train``, and ``upcycle`` mirroring the respective dataclass
    field names.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # invalid JSON, or a file that is not UTF-8
            raise ValidationError(f"invalid JSON in config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return data


def model_config_from_file(path: str | Path) -> ModelConfig:
    return model_config_from_dict(load_config_file(path))


def model_config_from_dict(data: dict) -> ModelConfig:
    """The ``ModelConfig`` of a loaded config file: its ``model`` section or flat fields."""
    section = data.get("model", data)
    if not isinstance(section, dict):
        raise ValidationError("'model' section must be a JSON object")
    return ModelConfig.from_dict(section)
