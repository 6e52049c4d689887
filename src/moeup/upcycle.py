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

Naive upcycling is drop upcycling at ``r = 0``, and drop upcycling is the
fine-grained method at granularity 1 without shared experts: one expert
builder, in :func:`fine_grained_drop_upcycle`, makes the experts of all three.

Every method except ``scratch`` copies non-FFN tensors bitwise (``btx``
averages them). Routers are always freshly initialized
Uniform(-0.0346, 0.0346), whose standard deviation matches 0.02.

Randomness is derived from substream paths so that per-(layer, expert)
transforms are independent: expert work uses path (layer, expert, purpose
[, matrix kind]), routers use (layer, ROUTER), shared experts
(layer, shared index, purpose [, kind]). Adding experts therefore never
perturbs earlier experts' draws, and per-expert transforms may run in
parallel without affecting results.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, checkpoint_hash, expected_slots, ffn_slot_names
from .config import ModelConfig, ValidationError, require_ints
from .numerics import NormalParams, RngStream, sample_indices_without_replacement, sample_normal
from .util import parallel_map

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
        if data.get("format") != "moeup.reinit_plan":
            raise ValidationError(f"not a reinit plan: format={data.get('format')!r}")

        def entry(raw: dict) -> ExpertReinit:
            return ExpertReinit(
                dropped=np.asarray(raw["dropped"], dtype=np.int64),
                dims=None if raw.get("dims") is None else np.asarray(raw["dims"], dtype=np.int64),
                stats={
                    kind: (None if p is None else NormalParams(p["mu"], p["sigma"]))
                    for kind, p in raw["stats"].items()
                },
            )

        plan = cls(
            method=data["method"], ratio=data["ratio"], seed=data["seed"],
            intermediate_size=data["intermediate_size"], expert_width=data["expert_width"],
            granularity=data["granularity"],
        )
        for layer in data["layers"]:
            plan.layers.append(LayerReinit(
                experts=[entry(e) for e in layer["experts"]],
                shared=[entry(e) for e in layer["shared"]],
            ))
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
        return ReinitPlan.from_json_dict(json.load(fh))


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


def from_scratch(config: ModelConfig, seed: int, dtype: str = "f32") -> Checkpoint:
    """Fresh checkpoint: every tensor i.i.d. N(0, 0.02^2) except routers."""
    root = RngStream(seed)
    np_dtype = {"f32": np.float32, "f64": np.float64}[dtype]
    params = NormalParams(0.0, GAUSSIAN_INIT_STD)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_slots(config).items():
        if name.endswith(".router"):
            layer = int(name.split(".")[1])
            tensor = router_init(config, root.child(layer, _P_ROUTER))
        else:
            stream = root.child(_P_INIT, *_slot_path(name))
            tensor = sample_normal(stream, params, int(np.prod(shape))).reshape(shape)
        tensors[name] = tensor.astype(np_dtype)
    metadata = {"method": "scratch", "seed": int(seed)}
    ckpt = Checkpoint(config=config, tensors=tensors, metadata=metadata)
    ckpt.validate()
    return ckpt


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


def _assemble(config: ModelConfig, base_tensors: dict[str, np.ndarray],
              expert_tensors: dict[str, np.ndarray], seed: int, metadata: dict) -> Checkpoint:
    """MoE checkpoint from the non-FFN tensors of ``base_tensors``, the expert
    tensors and fresh routers drawn from path (layer, ROUTER)."""
    tensors = {name: t for name, t in base_tensors.items() if ".ffn." not in name}
    tensors.update(expert_tensors)
    root = RngStream(seed)
    dtype = base_tensors["embedding.token"].dtype
    for i in range(config.num_layers):
        tensors[f"layers.{i}.router"] = router_init(config, root.child(i, _P_ROUTER)).astype(dtype)
    ckpt = Checkpoint(config=config, tensors=tensors, metadata=metadata)
    ckpt.validate()
    return ckpt


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
    is N(0, noise_sigma^2) added to masked entries only.
    """
    _require_compatible(dense, config)
    _require_coarse(config, "random-noise upcycling")
    root = RngStream(spec.seed)
    noise_params = NormalParams(0.0, spec.noise_sigma)

    def build(job):
        i, e = job
        out = {}
        parent_names = ffn_slot_names(f"layers.{i}.ffn")
        expert_names = ffn_slot_names(f"layers.{i}.experts.{e}")
        for kind_code, (src, dst) in enumerate(zip(parent_names, expert_names)):
            parent = dense.tensors[src]
            mask_stream = root.child(i, e, _P_NOISE_MASK, kind_code)
            mask = mask_stream.generator().random(parent.shape) < spec.noise_fraction
            noise = sample_normal(root.child(i, e, _P_NOISE, kind_code),
                                  noise_params, parent.size).reshape(parent.shape)
            perturbed = np.asarray(parent, dtype=np.float64) + np.where(mask, noise, 0.0)
            out[dst] = perturbed.astype(parent.dtype)
        return out

    jobs = [(i, e) for i in range(config.num_layers) for e in range(config.routed_experts)]
    experts: dict[str, np.ndarray] = {}
    for built in parallel_map(build, jobs):
        experts.update(built)
    return _assemble(config, dense.tensors, experts, spec.seed, _provenance(spec, dense))


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
        new = parent.copy()
        block = parent[:, dropped] if kind != "down" else parent[dropped, :]
        values = np.asarray(block, dtype=np.float64)
        params = NormalParams(float(values.mean()), float(values.std()))
        draw = sample_normal(reinit_streams[kind], params, values.size).reshape(values.shape)
        if kind != "down":
            new[:, dropped] = draw.astype(parent.dtype)
        else:
            new[dropped, :] = draw.astype(parent.dtype)
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
    _require_coarse(config, "drop upcycling")
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
    the experts start from the parent matrices themselves. The plan and the
    metadata carry ``spec.method``.
    """
    _require_compatible(dense, config)
    if spec.granularity != config.granularity:
        raise ValidationError(
            f"spec granularity ({spec.granularity}) disagrees with config ({config.granularity})")
    if spec.shared_experts != config.shared_experts:
        raise ValidationError(
            f"spec shared_experts ({spec.shared_experts}) disagrees with config "
            f"({config.shared_experts})")
    root = RngStream(spec.seed)
    d_f = config.intermediate_size
    width = config.expert_intermediate
    drop_counts = {"experts": math.floor(spec.ratio * width)}
    drop_counts["shared"] = drop_counts["experts"] if spec.shared_init == "drop" else 0

    def build(job):
        i, group, index = job
        p_dims, p_indices, p_reinit = _GROUP_PURPOSES[group]
        parents = dict(zip(_KINDS, (dense.tensors[n] for n in ffn_slot_names(f"layers.{i}.ffn"))))
        dims = None
        if width != d_f:
            dims = sample_indices_without_replacement(root.child(i, index, p_dims), d_f, width)
            parents = {kind: m[dims, :] if kind == "down" else m[:, dims]
                       for kind, m in parents.items()}
        dropped = sample_indices_without_replacement(
            root.child(i, index, p_indices), width, drop_counts[group])
        streams = {kind: root.child(i, index, p_reinit, kc) for kc, kind in enumerate(_KINDS)}
        mats, stats = _reinit_matrices(parents, dropped, streams)
        if spec.scale_factor is not None:
            # An overflow to inf is reported by the finite check in checkpoint.save.
            with np.errstate(over="ignore"):
                for kind in ("up", "down"):
                    scaled = np.asarray(mats[kind], dtype=np.float64) * spec.scale_factor
                    mats[kind] = scaled.astype(mats[kind].dtype)
        names = ffn_slot_names(f"layers.{i}.{group}.{index}")
        entry = ExpertReinit(dropped=dropped, stats=stats, dims=dims)
        return dict(zip(names, (mats[kind] for kind in _KINDS))), entry

    jobs = [(i, group, index) for i in range(config.num_layers)
            for group, count in (("experts", config.routed_experts),
                                 ("shared", config.shared_experts))
            for index in range(count)]
    plan = ReinitPlan(method=spec.method, ratio=spec.ratio, seed=int(spec.seed),
                      intermediate_size=d_f, expert_width=width,
                      granularity=config.granularity,
                      layers=[LayerReinit() for _ in range(config.num_layers)])
    experts: dict[str, np.ndarray] = {}
    for (i, group, _), (built, entry) in zip(jobs, parallel_map(build, jobs)):
        experts.update(built)
        getattr(plan.layers[i], group).append(entry)
    return _assemble(config, dense.tensors, experts, spec.seed, _provenance(spec, dense)), plan


def btx_merge(seed_dense: Checkpoint, expert_denses: list[Checkpoint],
              config: ModelConfig, seed: int = 0) -> Checkpoint:
    """Merge dense branches into an MoE model.

    Experts are the input models' FFNs, each duplicated twice in input order
    ([model0, model0, model1, model1, ...]); every non-FFN tensor is the
    elementwise average over all inputs; routers are freshly initialized.
    Requires num_experts == 2 * (number of input models).
    """
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

    averaged: dict[str, np.ndarray] = {}
    for name in models[0].tensors:
        if ".ffn." in name:
            continue
        stacked = np.stack([np.asarray(m.tensors[name], dtype=np.float64) for m in models])
        averaged[name] = stacked.mean(axis=0).astype(models[0].tensors[name].dtype)
    experts: dict[str, np.ndarray] = {}
    for i in range(config.num_layers):
        parent_names = ffn_slot_names(f"layers.{i}.ffn")
        for e in range(config.num_experts):
            experts.update(zip(ffn_slot_names(f"layers.{i}.experts.{e}"),
                               (models[e // 2].tensors[n] for n in parent_names)))

    metadata = {
        "method": "btx", "seed": int(seed),
        "parent_hash": checkpoint_hash(seed_dense),
        "branch_hashes": [checkpoint_hash(m) for m in expert_denses],
    }
    return _assemble(config, averaged, experts, seed, metadata)
