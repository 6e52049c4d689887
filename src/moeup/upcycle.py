"""Dense-to-MoE construction methods.

Supported methods (CLI tokens in parentheses):

- from scratch (``scratch``): every tensor i.i.d. N(0, 0.02^2), router excepted
- naive upcycling (``naive``): copy the dense FFN into every expert bitwise
- random-noise upcycling (``rnu``): naive copy, then add N(0, sigma^2) noise to
  a Bernoulli(fraction) element subset of each expert matrix
- drop upcycling (``drop``): naive copy, then per expert re-initialize a
  shared set of ``floor(r * d_f)`` intermediate dimensions with
  statistics-matched Gaussian samples (columns of gate/up, rows of down)
- branch merge (``btx``): experts taken from independently trained dense
  branches (each duplicated twice), non-FFN tensors averaged elementwise
- fine-grained drop upcycling (``fg-drop``): each expert first samples
  ``d_f / m`` parent dimensions, then applies drop upcycling within them;
  optionally with always-active shared experts (copied or dropped)

One scaffold, :func:`_build_moe`, builds every upcycled method: it copies a
base's non-FFN tensors bitwise (``btx`` averages its inputs'), draws fresh
routers Uniform(-0.0346, 0.0346), whose standard deviation matches 0.02, and
applies ``scale_factor`` to up and down. Each method supplies only its
per-expert transform: drop's re-initialization, rnu's noise or btx's branch
copy. Naive upcycling is drop at ``r = 0``, and drop is the fine-grained
method at granularity 1 without shared experts, so one transform makes the
experts of all three. ``btx`` and ``scratch`` take no ``scale_factor``;
:data:`SPEC_FIELDS` names the spec fields each method reads.

The scaffold yields the MoE layer by layer, as ``(name, array)`` pairs in
name order, with layers in string order (``layers.0``, ``layers.1``,
``layers.10``, ..., ``layers.2``). :func:`upcycle_stream` hands that stream
to :func:`moeup.checkpoint.save`, which writes each tensor as it arrives, so
``moeup upcycle`` holds the parent and only the experts in flight, never the
whole MoE. The public builders drain the same stream into an in-memory
:class:`~moeup.checkpoint.Checkpoint`, copying once each parent array that it
keeps, so the result keeps no parent load buffer alive. From scratch works the
same way: ``moeup init`` writes :func:`scratch_stream`, which draws each
tensor as it is written, and :func:`from_scratch` drains it.

Randomness is derived from substream paths so that per-(layer, expert)
transforms are independent: expert work uses path (layer, expert, purpose
[, matrix kind]), routers use (layer, ROUTER), shared experts
(layer, shared index, purpose [, kind]). Adding experts therefore never
perturbs earlier experts' draws, and per-expert transforms may run in
parallel, and in any order, without affecting results.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import (Checkpoint, TensorStream, checkpoint_hash, expected_slots,
                         ffn_slot_names)
from .config import ModelConfig, ValidationError, require_ints
from .numerics import NormalParams, RngStream, sample_indices_without_replacement, sample_normal
from .util import ordered_map

GAUSSIAN_INIT_STD = 0.02
ROUTER_UNIFORM_BOUND = 0.0346

METHODS = ("scratch", "naive", "rnu", "drop", "btx", "fg-drop")
SHARED_INITS = ("copy", "drop")

_KINDS = ("gate", "up", "down")

# Substream purpose codes (see module docstring for path layout).
_P_INDICES = 0
_P_REINIT = 1       # + kind code
_P_NOISE_MASK = 2   # + kind code
_P_NOISE = 3        # + kind code
_P_DIMS = 4
_P_ROUTER = 5
_P_SHARED_DIMS = 6
_P_SHARED_INDICES = 7
_P_SHARED_REINIT = 8  # + kind code
_P_INIT = 9           # from-scratch slot init, path (_P_INIT, *slot code)

_REINIT_PLAN_FILE = "reinit_plan.json"

# The UpcycleSpec fields each method reads, besides ``method``; a setting of
# any other field would be ignored. Every method that upcycles a parent reads
# granularity and shared experts to shape the target, which the coarse methods
# then require to have neither.
_UPCYCLED = {"seed", "granularity", "shared_experts"}
SPEC_FIELDS = {
    "scratch": {"seed"},
    "naive": _UPCYCLED | {"scale_factor"},
    "drop": _UPCYCLED | {"scale_factor", "ratio"},
    "fg-drop": _UPCYCLED | {"scale_factor", "ratio", "shared_init"},
    "rnu": _UPCYCLED | {"scale_factor", "noise_sigma", "noise_fraction"},
    "btx": _UPCYCLED,
}


@dataclass(frozen=True)
class UpcycleSpec:
    """Method selector plus every construction knob."""

    method: str
    ratio: float = 0.5
    seed: int = 0
    noise_sigma: float = 0.02
    noise_fraction: float = 0.5
    granularity: int = 1
    shared_experts: int = 0
    shared_init: str = "copy"
    scale_factor: float | None = None

    def __post_init__(self):
        require_ints(self, ("seed", "granularity", "shared_experts"))
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (0.0 <= self.ratio <= 1.0):
            raise ValidationError(f"ratio must be in [0, 1], got {self.ratio}")
        if not (0.0 <= self.noise_fraction <= 1.0):
            raise ValidationError(f"noise_fraction must be in [0, 1], got {self.noise_fraction}")
        if not (0 <= self.noise_sigma < math.inf):
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not (0 <= self.seed < 2**64):
            raise ValidationError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.granularity < 1:
            raise ValidationError(f"granularity must be >= 1, got {self.granularity}")
        if self.shared_experts < 0:
            raise ValidationError(f"shared_experts must be >= 0, got {self.shared_experts}")
        if self.shared_init not in SHARED_INITS:
            raise ValidationError(f"shared_init must be one of {SHARED_INITS}, got {self.shared_init!r}")
        if self.scale_factor is not None and not (0 < self.scale_factor < math.inf):
            raise ValidationError(
                f"scale_factor must be finite and positive, got {self.scale_factor}")


@dataclass
class ExpertReinit:
    """Re-initialization record for one expert: what was dropped, with what stats."""

    dropped: np.ndarray                         # sorted local indices into the expert width
    stats: dict[str, NormalParams | None]       # per matrix kind; None when nothing dropped
    dims: np.ndarray | None = None              # sampled parent dims (fine-grained only)

    def retained_mask(self, width: int) -> np.ndarray:
        mask = np.ones(width, dtype=bool)
        mask[self.dropped] = False
        return mask

    def retained_parent_dims(self, width: int) -> np.ndarray:
        dims = self.dims if self.dims is not None else np.arange(width, dtype=np.int64)
        return dims[self.retained_mask(width)]


@dataclass
class LayerReinit:
    experts: list[ExpertReinit] = field(default_factory=list)
    shared: list[ExpertReinit] = field(default_factory=list)


@dataclass
class ReinitPlan:
    """Per-(layer, expert) dropped index sets and sampling statistics."""

    method: str
    ratio: float
    seed: int
    intermediate_size: int
    expert_width: int
    granularity: int
    layers: list[LayerReinit] = field(default_factory=list)

    def __post_init__(self):
        require_ints(self, ("seed", "intermediate_size", "expert_width", "granularity"))
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if (isinstance(self.ratio, bool) or not isinstance(self.ratio, numbers.Real)
                or not 0.0 <= self.ratio <= 1.0):
            raise ValidationError(f"ratio must be a number in [0, 1], got {self.ratio!r}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.granularity < 1 or self.intermediate_size < self.granularity:
            raise ValidationError(
                f"need 1 <= granularity <= intermediate_size, got {self.granularity} and "
                f"{self.intermediate_size}")
        if self.expert_width != self.intermediate_size // self.granularity:
            raise ValidationError(
                f"expert_width must be intermediate_size // granularity "
                f"({self.intermediate_size // self.granularity}), got {self.expert_width}")

    def retained_masks(self, layer: int) -> list[np.ndarray]:
        """Boolean retained mask per routed expert, over local expert dims."""
        return [e.retained_mask(self.expert_width) for e in self.layers[layer].experts]

    def retained_parent_dims(self, layer: int) -> list[np.ndarray]:
        """Retained dimensions per routed expert, in parent index space."""
        return [e.retained_parent_dims(self.expert_width) for e in self.layers[layer].experts]

    def to_json_dict(self) -> dict:
        def entry(e: ExpertReinit) -> dict:
            return {
                "dropped": [int(i) for i in e.dropped],
                "dims": None if e.dims is None else [int(i) for i in e.dims],
                "stats": {
                    kind: (None if p is None else {"mu": p.mu, "sigma": p.sigma})
                    for kind, p in e.stats.items()
                },
            }

        return {
            "format": "moeup.reinit_plan",
            "version": 1,
            "method": self.method,
            "ratio": self.ratio,
            "seed": self.seed,
            "intermediate_size": self.intermediate_size,
            "expert_width": self.expert_width,
            "granularity": self.granularity,
            "layers": [
                {
                    "layer": i,
                    "experts": [entry(e) for e in layer.experts],
                    "shared": [entry(e) for e in layer.shared],
                }
                for i, layer in enumerate(self.layers)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReinitPlan":
        if not isinstance(data, dict) or data.get("format") != "moeup.reinit_plan":
            raise ValidationError("not a reinit plan: no 'format': 'moeup.reinit_plan'")

        def entry(raw: dict, counts: set[int]) -> ExpertReinit:
            dropped = np.asarray(raw["dropped"], dtype=np.int64)
            if dropped.ndim != 1 or np.any((dropped < 0) | (dropped >= plan.expert_width)):
                raise ValueError("dropped indices must lie in [0, expert_width)")
            if np.any(np.diff(dropped) <= 0):
                raise ValueError("dropped indices must be strictly increasing")
            if dropped.size not in counts:
                expected = " or ".join(map(str, sorted(counts)))
                raise ValueError(f"expected {expected} dropped indices "
                                 f"(floor(ratio * expert_width)), got {dropped.size}")
            dims = None if raw.get("dims") is None else np.asarray(raw["dims"], dtype=np.int64)
            if dims is not None and (dims.shape != (plan.expert_width,) or np.any(
                    (dims < 0) | (dims >= plan.intermediate_size))):
                raise ValueError("dims must be expert_width indices in [0, intermediate_size)")
            if sorted(raw["stats"]) != sorted(_KINDS):
                raise ValueError(f"stats keys must be {sorted(_KINDS)}, "
                                 f"got {sorted(raw['stats'])}")
            return ExpertReinit(
                dropped=dropped,
                dims=dims,
                stats={
                    kind: (None if p is None else NormalParams(p["mu"], p["sigma"]))
                    for kind, p in raw["stats"].items()
                },
            )

        try:
            plan = cls(
                method=data["method"], ratio=data["ratio"], seed=data["seed"],
                intermediate_size=data["intermediate_size"], expert_width=data["expert_width"],
                granularity=data["granularity"],
            )
            # As fine_grained_drop_upcycle writes them: a routed expert drops
            # floor(ratio * width) dims, a shared one that many or none.
            count = math.floor(plan.ratio * plan.expert_width)
            for layer in data["layers"]:
                plan.layers.append(LayerReinit(
                    experts=[entry(e, {count}) for e in layer["experts"]],
                    shared=[entry(e, {count, 0}) for e in layer["shared"]],
                ))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValidationError(f"malformed reinit plan ({type(exc).__name__}: {exc})") from exc
        return plan


def save_plan(plan: ReinitPlan, directory: str | Path) -> Path:
    path = Path(directory) / _REINIT_PLAN_FILE
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_plan(path: str | Path) -> ReinitPlan:
    path = Path(path)
    if path.is_dir():
        path = path / _REINIT_PLAN_FILE
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return ReinitPlan.from_json_dict(json.load(fh))
        except ValueError as exc:  # not UTF-8, invalid JSON, or a ValidationError
            raise ValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Slot-path codes for from-scratch initialization
# ---------------------------------------------------------------------------

def _slot_path(name: str) -> tuple[int, ...]:
    if name == "embedding.token":
        return (0,)
    if name == "embedding.position":
        return (1,)
    if name == "final_norm":
        return (2,)
    if name == "head.out":
        return (3,)
    parts = name.split(".")
    layer = int(parts[1])
    if parts[2] == "attn":
        return (4, layer, ("wq", "wk", "wv", "wo").index(parts[3]))
    if parts[2] == "attn_norm":
        return (5, layer, 0)
    if parts[2] == "ffn_norm":
        return (5, layer, 1)
    if parts[2] == "ffn":
        return (6, layer, _KINDS.index(parts[3]))
    if parts[2] == "router":
        return (7, layer)
    if parts[2] == "experts":
        return (8, layer, int(parts[3]), _KINDS.index(parts[4]))
    if parts[2] == "shared":
        return (9, layer, int(parts[3]), _KINDS.index(parts[4]))
    raise ValidationError(f"unknown tensor slot '{name}'")


# ---------------------------------------------------------------------------
# Construction methods
# ---------------------------------------------------------------------------

def router_init(config: ModelConfig, stream: RngStream) -> np.ndarray:
    """One router matrix (hidden x routed experts), i.i.d. Uniform(-b, b).

    The bound b = 0.0346 makes the standard deviation match the 0.02 used for
    Gaussian weight init (std of U(-b, b) is b / sqrt(3)).
    """
    if config.routed_experts < 1:
        raise ValidationError("router_init requires an MoE config")
    g = stream.generator()
    u = g.random((config.hidden_size, config.routed_experts))
    return ROUTER_UNIFORM_BOUND * (2.0 * u - 1.0)


def scratch_stream(config: ModelConfig, seed: int) -> TensorStream:
    """A fresh float32 checkpoint as a :class:`~moeup.checkpoint.TensorStream`
    in name order: every tensor i.i.d. N(0, 0.02^2) except routers, each drawn
    from its own substream when :func:`moeup.checkpoint.save` asks for it."""
    root = RngStream(seed)
    params = NormalParams(0.0, GAUSSIAN_INIT_STD)
    slots = sorted(expected_slots(config).items())

    def tensors():
        for name, shape in slots:
            if name.endswith(".router"):
                layer = int(name.split(".")[1])
                tensor = router_init(config, root.child(layer, _P_ROUTER))
            else:
                stream = root.child(_P_INIT, *_slot_path(name))
                tensor = sample_normal(stream, params, math.prod(shape),
                                       dtype=np.float32).reshape(shape)
            yield name, tensor.astype(np.float32, copy=False)

    return TensorStream(config, tensors(), {"method": "scratch", "seed": int(seed)})


def from_scratch(config: ModelConfig, seed: int) -> Checkpoint:
    """Fresh checkpoint: :func:`scratch_stream` drained into memory."""
    return _collect(scratch_stream(config, seed), [])


def _require_compatible(dense: Checkpoint, config: ModelConfig) -> None:
    if dense.config.is_moe:
        raise ValidationError("source checkpoint must be dense (num_experts == 0)")
    if not config.is_moe:
        raise ValidationError("target config must be MoE (num_experts > 0)")
    for name in ("hidden_size", "intermediate_size", "num_layers", "num_heads",
                 "num_query_groups", "head_dim", "vocab_size"):
        a, b = getattr(dense.config, name), getattr(config, name)
        if a != b:
            raise ValidationError(f"config mismatch on {name}: parent {a} vs target {b}")


def _require_coarse(config: ModelConfig, method: str) -> None:
    if config.granularity != 1 or config.shared_experts != 0:
        raise ValidationError(
            f"{method} does not support fine-grained or shared experts (see fg-drop)")


def _provenance(spec: UpcycleSpec, parent: Checkpoint) -> dict:
    return asdict(spec) | {"seed": int(spec.seed), "parent_hash": checkpoint_hash(parent)}


def _dense_ffn(dense: Checkpoint, layer: int) -> dict[str, np.ndarray]:
    """The dense FFN matrices of one layer, by kind."""
    return dict(zip(_KINDS, (dense.tensors[n] for n in ffn_slot_names(f"layers.{layer}.ffn"))))


def _job_key(job: tuple[int, str, int]) -> str:
    """The prefix that the names of a ``(layer, group, index)`` job's matrices, and
    no other tensor names, start with."""
    return "layers.{}.{}.{}.".format(*job)


def _build_moe(config: ModelConfig, base: dict[str, np.ndarray], expert, seed: int,
               scale_factor: float | None = None, layers: list[LayerReinit] | None = None):
    """Yield the MoE's tensors as ``(name, array)`` pairs in name order, the order
    :func:`moeup.checkpoint.save` writes them in: the non-FFN tensors of
    ``base``, routers from path (layer, ROUTER) of ``seed``, and the matrices
    of one ``expert(layer, group, index)`` job per expert, which returns them
    by kind with its :class:`ExpertReinit` or None, its up and down scaled by
    ``scale_factor`` when set. The entry is stored at ``layers[layer]``'s
    ``group`` list, at ``index``, when ``layers`` is given.

    Layers come in string order (``layers.0``, ``layers.1``, ``layers.10``,
    ..., ``layers.2``), and so do the routed ``"experts"`` and then the
    ``"shared"`` group within a layer. Jobs run through ``ordered_map`` in
    that same order; each expert's matrices are yielded as its job's result
    is taken, and dropped once written, so at most ``thread_cap()`` jobs in
    flight and the expert being written are held, never a whole layer.
    """
    jobs = sorted(((i, group, index) for i in range(config.num_layers)
                   for group, count in (("experts", config.routed_experts),
                                        ("shared", config.shared_experts))
                   for index in range(count)), key=_job_key)

    def build(job):
        mats, entry = expert(*job)
        if scale_factor is not None:
            # An overflow to inf is reported by the finite check in checkpoint.save.
            with np.errstate(over="ignore"):
                for kind in ("up", "down"):
                    scaled = np.asarray(mats[kind], dtype=np.float64) * scale_factor
                    mats[kind] = scaled.astype(mats[kind].dtype)
        return mats, entry

    kept = {name: t for name, t in base.items() if ".ffn." not in name}
    routers = {f"layers.{i}.router": i for i in range(config.num_layers)}
    root = RngStream(seed)
    dtype = base["embedding.token"].dtype
    built = zip(jobs, ordered_map(build, jobs))
    # An expert's three names sort where its job key does, as no other name
    # starts with that key.
    for key in sorted([*kept, *routers, *map(_job_key, jobs)]):
        if key in kept:
            yield key, kept[key]
        elif key in routers:
            yield key, router_init(config, root.child(routers[key], _P_ROUTER)).astype(dtype)
        else:
            (i, group, index), (mats, entry) = next(built)
            if layers is not None:
                getattr(layers[i], group)[index] = entry
            yield from sorted(zip(ffn_slot_names(key[:-1]), (mats[kind] for kind in _KINDS)))
            del mats


def _collect(moe: TensorStream, inputs: list[Checkpoint]) -> Checkpoint:
    """The stream drained into one in-memory checkpoint. A tensor of ``inputs``
    that the MoE retains as it is, such as a loaded parent's view of its load
    buffer, is copied once, so that the MoE keeps no input alive; experts that
    share one input matrix share its copy."""
    owned = {id(t) for ckpt in inputs for t in ckpt.tensors.values()}
    copies: dict[int, np.ndarray] = {}
    tensors = {}
    for name, tensor in moe.tensors:
        if id(tensor) in owned:
            if id(tensor) not in copies:
                copies[id(tensor)] = tensor.copy()
            tensor = copies[id(tensor)]
        tensors[name] = tensor
    ckpt = Checkpoint(config=moe.config, tensors=tensors, metadata=moe.metadata)
    ckpt.validate()
    return ckpt


def upcycle_stream(spec: UpcycleSpec, parent: Checkpoint, config: ModelConfig,
                   branches: Sequence[Checkpoint] = ()) -> tuple[TensorStream, ReinitPlan | None]:
    """The MoE that ``spec.method`` builds from ``parent`` (and, for btx, the
    ``branches``), as a :class:`~moeup.checkpoint.TensorStream` that
    :func:`moeup.checkpoint.save` writes as it is built, with its reinit plan
    for the drop methods (None otherwise), which is complete once the stream
    is used up. The public builders drain the same streams, so this is the one
    check that the spec's expert shape, which the metadata records, is the
    target's."""
    for name in ("granularity", "shared_experts"):
        if getattr(spec, name) != getattr(config, name):
            raise ValidationError(f"spec {name} ({getattr(spec, name)}) disagrees with the "
                                  f"target config ({getattr(config, name)})")
    if spec.method == "rnu":
        return _random_noise_moe(parent, config, spec), None
    if spec.method == "btx":
        return _btx_moe(parent, branches, config, spec.seed), None
    if spec.method in ("naive", "drop"):
        _require_coarse(config, f"{spec.method} upcycling")
    elif spec.method != "fg-drop":
        raise ValidationError(f"method {spec.method!r} builds no MoE from a parent")
    return _drop_moe(parent, config, spec)


def naive_upcycle(dense: Checkpoint, config: ModelConfig, seed: int = 0) -> Checkpoint:
    """Replicate the dense FFN into every expert bitwise; fresh routers.

    This is drop upcycling at ratio 0, and is built by the same code.
    """
    _require_coarse(config, "naive upcycling")
    spec = UpcycleSpec(method="naive", ratio=0.0, seed=seed)
    return fine_grained_drop_upcycle(dense, config, spec)[0]


def random_noise_upcycle(dense: Checkpoint, config: ModelConfig, spec: UpcycleSpec) -> Checkpoint:
    """Naive copy plus Gaussian noise on a Bernoulli(fraction) element subset.

    The mask is drawn independently per element of each expert matrix; noise
    is N(0, noise_sigma^2) added to masked entries only. The metadata records
    ``spec`` as method ``rnu``.
    """
    return _collect(upcycle_stream(replace(spec, method="rnu"), dense, config)[0], [dense])


def _random_noise_moe(dense: Checkpoint, config: ModelConfig, spec: UpcycleSpec) -> TensorStream:
    _require_compatible(dense, config)
    _require_coarse(config, "random-noise upcycling")
    root = RngStream(spec.seed)
    noise_params = NormalParams(0.0, spec.noise_sigma)

    def noisy_copy(i, group, e):
        out = {}
        for kind_code, (kind, parent) in enumerate(_dense_ffn(dense, i).items()):
            mask_stream = root.child(i, e, _P_NOISE_MASK, kind_code)
            mask = mask_stream.generator().random(parent.shape) < spec.noise_fraction
            noise = sample_normal(root.child(i, e, _P_NOISE, kind_code),
                                  noise_params, parent.size).reshape(parent.shape)
            perturbed = np.asarray(parent, dtype=np.float64) + np.where(mask, noise, 0.0)
            out[kind] = perturbed.astype(parent.dtype)
        return out, None

    return TensorStream(config, _build_moe(config, dense.tensors, noisy_copy, spec.seed,
                                           spec.scale_factor), _provenance(spec, dense))


def _reinit_matrices(parent_mats: dict[str, np.ndarray], dropped: np.ndarray,
                     reinit_streams: dict[str, RngStream]):
    """Apply the partial re-initialization to one expert's three matrices.

    ``parent_mats`` holds the expert's starting matrices (gate/up: columns are
    intermediate dims; down: rows are intermediate dims). The dropped index
    set is shared across the three; each matrix gets its own (mu, sigma)
    computed over exactly its dropped columns/rows, and the replacement block
    is drawn N(mu, sigma^2). Retained columns/rows are kept bitwise. With
    nothing dropped the parent arrays are returned as they are, not copied.
    """
    if dropped.size == 0:
        return dict(parent_mats), dict.fromkeys(_KINDS)
    out: dict[str, np.ndarray] = {}
    stats: dict[str, NormalParams | None] = {}
    for kind in _KINDS:
        parent = parent_mats[kind]
        values = np.asarray(parent[:, dropped] if kind != "down" else parent[dropped, :],
                            dtype=np.float64)
        params, shape = NormalParams(float(values.mean()), float(values.std())), values.shape
        del values  # the block dies before the draw; the draw is rounded as it is stored
        draw = sample_normal(reinit_streams[kind], params, math.prod(shape),
                             dtype=parent.dtype).reshape(shape)
        new = parent.copy()
        if kind != "down":
            new[:, dropped] = draw
        else:
            new[dropped, :] = draw
        out[kind] = new
        stats[kind] = params
    return out, stats


def drop_upcycle(dense: Checkpoint, config: ModelConfig,
                 spec: UpcycleSpec) -> tuple[Checkpoint, ReinitPlan]:
    """Statistics-matched partial re-initialization of every expert.

    Per (layer, expert): sample a set S of floor(ratio * d_f) intermediate
    dimensions, shared across the expert's three matrices; replace the
    corresponding columns of gate/up and rows of down with draws from
    N(mu, sigma^2), where (mu, sigma) are computed per matrix over exactly the
    selected entries; keep everything else bitwise. Non-FFN tensors are
    copied; routers are freshly initialized. This is fine-grained drop
    upcycling at granularity 1 without shared experts, and is built by it.
    """
    _require_coarse(config, f"{spec.method} upcycling")
    return fine_grained_drop_upcycle(dense, config, spec)


# Substream purposes (dims, indices, reinit) of each expert group.
_GROUP_PURPOSES = {
    "experts": (_P_DIMS, _P_INDICES, _P_REINIT),
    "shared": (_P_SHARED_DIMS, _P_SHARED_INDICES, _P_SHARED_REINIT),
}


def fine_grained_drop_upcycle(dense: Checkpoint, config: ModelConfig,
                              spec: UpcycleSpec) -> tuple[Checkpoint, ReinitPlan]:
    """Drop upcycling for fine-grained (and optionally shared) experts.

    Per routed expert: sample d_f / m parent dimensions, then within that
    slice drop floor(ratio * d_f / m) dimensions and re-initialize them from
    their statistics (:func:`_reinit_matrices`). Shared experts sample their slice and
    are either copied verbatim (``shared_init="copy"``, i.e. nothing dropped)
    or dropped the same way (``"drop"``). With ``scale_factor`` set, the up
    and down matrices of all experts are scaled uniformly. At granularity 1
    the experts start from the parent matrices themselves. ``spec.method`` is
    one of the drop family (naive, drop or fg-drop), and the plan and the
    metadata carry it.
    """
    if spec.method not in ("naive", "drop", "fg-drop"):
        raise ValidationError(f"method {spec.method!r} is not a drop method")
    moe, plan = upcycle_stream(spec, dense, config)
    return _collect(moe, [dense]), plan


def _drop_moe(dense: Checkpoint, config: ModelConfig,
              spec: UpcycleSpec) -> tuple[TensorStream, ReinitPlan]:
    _require_compatible(dense, config)
    root = RngStream(spec.seed)
    d_f = config.intermediate_size
    width = config.expert_intermediate
    drop_counts = {"experts": math.floor(spec.ratio * width)}
    drop_counts["shared"] = drop_counts["experts"] if spec.shared_init == "drop" else 0

    def reinit(i, group, index):
        p_dims, p_indices, p_reinit = _GROUP_PURPOSES[group]
        parents = _dense_ffn(dense, i)
        dims = None
        if width != d_f:
            dims = sample_indices_without_replacement(root.child(i, index, p_dims), d_f, width)
            parents = {kind: m[dims, :] if kind == "down" else m[:, dims]
                       for kind, m in parents.items()}
        dropped = sample_indices_without_replacement(
            root.child(i, index, p_indices), width, drop_counts[group])
        streams = {kind: root.child(i, index, p_reinit, kc) for kc, kind in enumerate(_KINDS)}
        mats, stats = _reinit_matrices(parents, dropped, streams)
        return mats, ExpertReinit(dropped=dropped, stats=stats, dims=dims)

    layers = [LayerReinit([None] * config.routed_experts, [None] * config.shared_experts)
              for _ in range(config.num_layers)]
    plan = ReinitPlan(method=spec.method, ratio=spec.ratio, seed=int(spec.seed),
                      intermediate_size=d_f, expert_width=width,
                      granularity=config.granularity, layers=layers)
    tensors = _build_moe(config, dense.tensors, reinit, spec.seed, spec.scale_factor, layers)
    return TensorStream(config, tensors, _provenance(spec, dense)), plan


def btx_merge(seed_dense: Checkpoint, expert_denses: list[Checkpoint],
              config: ModelConfig, seed: int = 0) -> Checkpoint:
    """Merge dense branches into an MoE model.

    Experts are the input models' FFNs, each duplicated twice in input order
    ([model0, model0, model1, model1, ...]); every non-FFN tensor is the
    elementwise average over all inputs; routers are freshly initialized.
    Requires num_experts == 2 * (number of input models).
    """
    return _collect(_btx_moe(seed_dense, expert_denses, config, seed),
                    [seed_dense, *expert_denses])


def _btx_moe(seed_dense: Checkpoint, expert_denses: Sequence[Checkpoint],
             config: ModelConfig, seed: int) -> TensorStream:
    models = [seed_dense, *expert_denses]
    _require_coarse(config, "branch merging")
    for m in models:
        _require_compatible(m, config)
        if m.config != models[0].config:
            raise ValidationError("input checkpoints disagree on architecture")
        if set(m.tensors) != set(models[0].tensors):
            raise ValidationError("input checkpoints disagree on tensor slots")
    if config.num_experts != 2 * len(models):
        raise ValidationError(
            f"num_experts ({config.num_experts}) must equal 2 x number of input models "
            f"({2 * len(models)})")

    averaged = {name: np.stack([np.asarray(m.tensors[name], dtype=np.float64) for m in models])
                .mean(axis=0).astype(t.dtype)
                for name, t in models[0].tensors.items() if ".ffn." not in name}
    metadata = {
        "method": "btx", "seed": int(seed),
        "parent_hash": checkpoint_hash(seed_dense),
        "branch_hashes": [checkpoint_hash(m) for m in expert_denses],
    }
    tensors = _build_moe(config, averaged,
                         lambda i, group, e: (_dense_ffn(models[e // 2], i), None), seed)
    return TensorStream(config, tensors, metadata)
