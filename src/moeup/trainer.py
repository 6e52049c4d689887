"""Toy-scale continued training: AdamW, cosine schedule, balancing loss.

The total training loss is ``lm_loss + balance_coeff * balance_loss``. The
balancing term is the standard assignment-fraction / router-probability
product: per layer, with f_i the fraction of top-k assignments routed to
expert i and P_i the mean full-softmax router probability of expert i over
all tokens,

    L_layer = n * sum_i f_i * P_i

``layerwise`` mode averages L_layer over layers; ``global`` mode pools the
assignment counts and probabilities over all layers before taking the
product. Uniform routing with uniform probabilities gives exactly 1; fully
collapsed routing gives exactly n. Gradients flow through P only (the
assignment fractions are piecewise constant).

Loss curves are recorded every step and serialize as JSONL with keys
``tokens_processed``, ``train_loss``, ``lm_loss``, ``balance_loss``, ``lr``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import ValidationError, require_ints
from .corpus import Corpus
from .model import (
    RoutingTrace,
    ToyLm,
    backward_from_cache,
    forward_cache,
    trace_from_cache,
)
from .numerics import RngStream

BALANCE_MODES = ("global", "layerwise", "off")
# Most tokens one evaluation forward pass holds (see :func:`evaluate_loss`).
EVAL_TILE_TOKENS = 512


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    max_lr: float
    min_lr: float
    total_steps: int
    warmup_steps: int = 0
    tail_steps: int = 0
    batch_size: int = 16
    seq_len: int = 64
    weight_decay: float = 0.1
    grad_clip: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    balance_coeff: float = 0.02
    balance_mode: str = "global"
    seed: int = 0

    def __post_init__(self):
        require_ints(self, ("total_steps", "warmup_steps", "tail_steps", "batch_size",
                            "seq_len", "seed"))
        if self.min_lr > self.max_lr:
            raise ValidationError(f"min_lr ({self.min_lr}) must be <= max_lr ({self.max_lr})")
        if self.min_lr < 0:
            raise ValidationError("learning rates must be >= 0")
        if self.total_steps < 0 or self.warmup_steps < 0 or self.tail_steps < 0:
            raise ValidationError("step counts must be >= 0")
        if self.warmup_steps + self.tail_steps > self.total_steps:
            raise ValidationError("warmup_steps + tail_steps must not exceed total_steps")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seq_len < 2:
            raise ValidationError(f"seq_len must be >= 2, got {self.seq_len}")
        for name in ("weight_decay", "grad_clip", "balance_coeff"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValidationError("adam betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ValidationError("eps must be positive")
        if self.balance_mode not in BALANCE_MODES:
            raise ValidationError(f"balance_mode must be one of {BALANCE_MODES}")


@dataclass(frozen=True)
class LossPoint:
    tokens_processed: int
    train_loss: float
    lm_loss: float
    balance_loss: float
    lr: float


@dataclass
class LossCurve:
    points: list[LossPoint] = field(default_factory=list)

    def tokens(self) -> np.ndarray:
        return np.array([p.tokens_processed for p in self.points], dtype=np.int64)

    def losses(self, which: str = "train_loss") -> np.ndarray:
        return np.array([getattr(p, which) for p in self.points], dtype=np.float64)

    def append(self, point: LossPoint) -> None:
        if self.points and point.tokens_processed <= self.points[-1].tokens_processed:
            raise ValidationError("tokens_processed must be strictly increasing")
        self.points.append(point)

    def save_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for point in self.points:
                fh.write(json.dumps(asdict(point), sort_keys=True) + "\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "LossCurve":
        curve = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    curve.append(LossPoint(**json.loads(line)))
        return curve


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------

def cosine_lr(step: int, config: TrainConfig) -> float:
    """Learning rate at ``step``: linear warmup, cosine decay, constant tail."""
    if not (0 <= step <= config.total_steps):
        raise ValidationError(f"step must be in [0, {config.total_steps}], got {step}")
    if step < config.warmup_steps:
        return config.max_lr * (step + 1) / config.warmup_steps
    tail_start = config.total_steps - config.tail_steps
    if step >= tail_start:
        return config.min_lr
    span = tail_start - config.warmup_steps
    if span <= 0:
        return config.min_lr
    frac = (step - config.warmup_steps) / span
    return config.min_lr + 0.5 * (config.max_lr - config.min_lr) * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# Load-balancing loss
# ---------------------------------------------------------------------------

def _assignment_pools(trace: RoutingTrace, mode: str):
    """Pooling groups of the balancing loss: one per layer (``layerwise``) or
    one over all layers (``global``).

    Returns ``(fractions, tokens, layers)`` per group: the top-k assignment
    fractions f, the number of routed tokens and the group's layers.
    """
    n = trace.num_experts
    groups = [[layer] for layer in trace.layers] if mode == "layerwise" else [trace.layers]
    pools = []
    for layers in groups:
        counts = np.zeros(n, dtype=np.float64)
        assignments = tokens = 0
        for layer in layers:
            counts += np.bincount(layer.selected.reshape(-1), minlength=n).astype(np.float64)
            assignments += layer.selected.size
            tokens += layer.probs.shape[0] * layer.probs.shape[1]
        pools.append((counts / assignments, tokens, layers))
    return pools


def load_balance_loss(trace: RoutingTrace, mode: str) -> float:
    """Balancing loss of a routing trace under ``global`` or ``layerwise`` pooling."""
    if mode not in BALANCE_MODES:
        raise ValidationError(f"mode must be one of {BALANCE_MODES}")
    if mode == "off":
        return 0.0
    if not trace.layers:
        raise ValidationError("empty routing trace")
    n = trace.num_experts
    products = []
    for fractions, _, layers in _assignment_pools(trace, mode):
        probs = np.concatenate([layer.probs.reshape(-1, n) for layer in layers], axis=0)
        products.append(float(n * (fractions @ probs.mean(axis=0))))
    return float(np.mean(products))


def _balance_loss_and_grads(trace: RoutingTrace, mode: str, coeff: float):
    """Balance loss plus d(coeff * loss)/d(probs) per layer, for injection.

    The loss is the mean over pooling groups, so each group's gradient is
    divided by the number of groups as well as by its token count.
    """
    loss = load_balance_loss(trace, mode)
    if mode == "off" or coeff == 0.0:
        return loss, None
    n = trace.num_experts
    pools = _assignment_pools(trace, mode)
    grads = []
    for fractions, tokens, layers in pools:
        vec = coeff * n * fractions / (len(pools) * tokens)
        grads.extend(np.broadcast_to(vec, layer.probs.shape).copy() for layer in layers)
    return loss, grads


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamWState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamWState":
        return cls(step=0,
                   m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale gradients in place to global L2 norm <= max_norm; returns pre-clip norm."""
    total = 0.0
    for name in sorted(grads):
        total += float(np.sum(grads[name] ** 2))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for grad in grads.values():
            grad *= scale
    return norm


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: AdamWState, lr: float, config: TrainConfig) -> None:
    """One AdamW update with decoupled weight decay.

    Decay multiplies parameters by exactly (1 - lr * weight_decay) before the
    Adam term, so zero gradients shrink parameters by that factor per step.

    Parameters and both moments are updated in place. The arithmetic is that of
    ``m = b1 * m + (1 - b1) * g``, ``v = b2 * v + (1 - b2) * g * g`` and
    ``p = p * decay - lr * (m / bc1) / (sqrt(v / bc2) + eps)``, operation by
    operation, so the results are bitwise those of the out-of-place form.
    """
    state.step += 1
    bc1 = 1.0 - config.beta1 ** state.step
    bc2 = 1.0 - config.beta2 ** state.step
    decay = 1.0 - lr * config.weight_decay
    for name, param in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        tmp = np.multiply(g, 1.0 - config.beta1)
        m *= config.beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - config.beta2
        v *= config.beta2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += config.eps
        update = np.divide(m, bc1)
        update *= lr
        update /= tmp
        param *= decay
        param -= update


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------

def _sample_batch(corpus: Corpus, config: TrainConfig, stream: RngStream, step: int):
    g = stream.child(0, step).generator()
    rows = g.integers(0, corpus.num_sequences, size=config.batch_size)
    tokens = corpus.sequences[rows][:, :config.seq_len]
    domains = [corpus.domains[int(r)] for r in rows]
    return tokens, domains


def train(model: ToyLm, corpus: Corpus, config: TrainConfig) -> tuple[ToyLm, LossCurve]:
    """Train in place for ``total_steps`` steps; returns the model and its curve."""
    if corpus.seq_len < config.seq_len:
        raise ValidationError(
            f"corpus sequences ({corpus.seq_len} tokens) are shorter than train seq_len "
            f"({config.seq_len})")
    if config.seq_len > model.max_positions:
        raise ValidationError(
            f"train seq_len ({config.seq_len}) exceeds the model's position table "
            f"({model.max_positions})")
    use_balance = config.balance_mode != "off" and model.config.is_moe
    stream = RngStream(config.seed)
    state = AdamWState.for_params(model.params)
    curve = LossCurve()

    for step in range(config.total_steps):
        tokens, _ = _sample_batch(corpus, config, stream, step)
        cache = forward_cache(model, tokens)
        lm_loss = cache["loss"]
        if use_balance:
            trace = trace_from_cache(model, cache)
            balance_loss, prob_grads = _balance_loss_and_grads(
                trace, config.balance_mode, config.balance_coeff)
        else:
            balance_loss, prob_grads = 0.0, None
        total_loss = lm_loss + config.balance_coeff * balance_loss
        if not math.isfinite(total_loss):
            raise TrainingDiverged(
                f"non-finite loss at step {step}: lm={lm_loss} balance={balance_loss}")
        grads = backward_from_cache(model, cache, prob_grads)
        clip_gradients(grads, config.grad_clip)
        lr = cosine_lr(step, config)
        adamw_step(model.params, grads, state, lr, config)
        curve.append(LossPoint(
            tokens_processed=(step + 1) * config.batch_size * config.seq_len,
            train_loss=float(total_loss), lm_loss=float(lm_loss),
            balance_loss=float(balance_loss), lr=float(lr),
        ))
    return model, curve


def evaluate_loss(model: ToyLm, corpus: Corpus, batch_size: int = 32,
                  seq_len: int | None = None, max_sequences: int | None = None) -> float:
    """Mean next-token loss over the corpus, in deterministic order.

    ``batch_size`` is an upper bound on the sequences per forward pass. Each
    pass also holds at most ``EVAL_TILE_TOKENS`` tokens (one sequence at
    least), so that its temporaries are reused from the heap rather than
    faulted in fresh from the operating system on every pass. The tile size
    changes only how per-sequence losses are grouped before summation.
    """
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    seq_len = corpus.seq_len if seq_len is None else seq_len
    if seq_len > corpus.seq_len:
        raise ValidationError("eval seq_len exceeds corpus sequence length")
    limit = corpus.num_sequences if max_sequences is None else min(max_sequences,
                                                                   corpus.num_sequences)
    rows = max(1, min(batch_size, EVAL_TILE_TOKENS // seq_len))
    total, count = 0.0, 0
    for start in range(0, limit, rows):
        batch = corpus.sequences[start:min(start + rows, limit), :seq_len]
        cache = forward_cache(model, batch)
        total += cache["loss"] * batch.shape[0]
        count += batch.shape[0]
    return total / count
