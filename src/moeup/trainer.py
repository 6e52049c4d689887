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
assignment fractions are piecewise constant), and d(coeff * loss)/dP is the
same for every token, so the backward pass gets it as one (n,) vector per MoE
layer: ``router_prob_grads[i]``.

Loss curves are recorded every step and serialize as JSONL with keys
``tokens_processed``, ``train_loss``, ``lm_loss``, ``balance_loss``, ``lr``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from .config import ValidationError, require_ints, text_lines
from .corpus import Corpus
from .model import (
    EVAL_FORWARD_TOKENS,
    LayerRouting,
    RoutingTrace,
    ToyLm,
    backward_from_cache,
    forward_cache,
    next_token_loss,
    sequence_tiles,
    trace_from_cache,
)
from .numerics import RngStream
from .util import ordered_map

BALANCE_MODES = ("global", "layerwise", "off")


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
        if not (0 <= self.min_lr and self.max_lr < math.inf):  # NaN fails too
            raise ValidationError("learning rates must be finite and >= 0")
        if self.total_steps < 0 or self.warmup_steps < 0 or self.tail_steps < 0:
            raise ValidationError("step counts must be >= 0")
        if self.warmup_steps + self.tail_steps > self.total_steps:
            raise ValidationError("warmup_steps + tail_steps must not exceed total_steps")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seq_len < 2:
            raise ValidationError(f"seq_len must be >= 2, got {self.seq_len}")
        for name in ("weight_decay", "grad_clip", "balance_coeff"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValidationError("adam betas must lie in [0, 1)")
        if not 0 < self.eps < math.inf:
            raise ValidationError(f"eps must be finite and positive, got {self.eps}")
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
        """Read :meth:`save_jsonl` output; a bad line raises ``ValidationError``."""
        curve = cls()
        for lineno, line in text_lines(path):
            if line.strip():
                try:
                    point = LossPoint(**json.loads(line))
                    values = astuple(point)
                    if type(values[0]) is not int or any(type(v) not in (int, float)
                                                         for v in values):
                        raise ValidationError("tokens_processed must be an integer and "
                                              "the other fields numbers")
                    if not all(map(math.isfinite, values)):
                        raise ValidationError("values must be finite")
                    curve.append(point)
                except (TypeError, ValueError) as exc:  # bad JSON, fields or values
                    raise ValidationError(f"{path}:{lineno}: {exc}") from exc
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

def _balance_terms(trace: RoutingTrace, mode: str, coeff: float):
    """Balancing loss and, per layer, d(coeff * loss)/d(probs), from one pooling.

    Each pooling group is one layer (``layerwise``) or all layers (``global``).
    The gradient is the same for every token, so each layer gets one (n,)
    vector: the loss is the mean over groups, hence each group's vector is
    divided by the number of groups as well as by its token count.

    Returns ``(0.0, None)`` under ``off`` and for a trace without MoE layers,
    and ``(loss, None)`` when ``coeff`` is 0.
    """
    if mode not in BALANCE_MODES:
        raise ValidationError(f"mode must be one of {BALANCE_MODES}")
    if mode == "off" or not trace.layers:
        return 0.0, None
    n = trace.num_experts
    groups = [[layer] for layer in trace.layers] if mode == "layerwise" else [trace.layers]
    products, grads = [], []
    for layers in groups:
        counts = np.zeros(n, dtype=np.float64)
        for layer in layers:
            counts += np.bincount(layer.selected.reshape(-1), minlength=n).astype(np.float64)
        fractions = counts / sum(layer.selected.size for layer in layers)
        probs = np.concatenate([layer.probs.reshape(-1, n) for layer in layers], axis=0)
        products.append(float(n * (fractions @ probs.mean(axis=0))))
        vec = coeff * n * fractions / (len(groups) * probs.shape[0])
        grads.extend(vec for _ in layers)
    return float(np.mean(products)), (grads if coeff != 0.0 else None)


def load_balance_loss(trace: RoutingTrace, mode: str) -> float:
    """Balancing loss of a routing trace under ``global`` or ``layerwise`` pooling."""
    if mode in ("global", "layerwise") and not trace.layers:
        raise ValidationError("empty routing trace")
    return _balance_terms(trace, mode, 0.0)[0]


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


def check_train_inputs(model: ToyLm, corpus: Corpus, config: TrainConfig) -> None:
    """Raise ``ValidationError`` unless the corpus sequences and the model's
    position table both hold ``config.seq_len`` tokens."""
    if corpus.seq_len < config.seq_len:
        raise ValidationError(
            f"corpus sequences ({corpus.seq_len} tokens) are shorter than train seq_len "
            f"({config.seq_len})")
    if config.seq_len > model.max_positions:
        raise ValidationError(
            f"train seq_len ({config.seq_len}) exceeds the model's position table "
            f"({model.max_positions})")


# A diverging run overflows on its way to a non-finite loss; the
# TrainingDiverged it ends with is the one report of that.
@np.errstate(all="ignore")
def train(model: ToyLm, corpus: Corpus, config: TrainConfig) -> tuple[ToyLm, LossCurve]:
    """Train in place for ``total_steps`` steps; returns the model and its curve."""
    check_train_inputs(model, corpus, config)
    stream = RngStream(config.seed)
    state = AdamWState.for_params(model.params)
    curve = LossCurve()

    for step in range(config.total_steps):
        tokens, _ = _sample_batch(corpus, config, stream, step)
        lr = cosine_lr(step, config)
        total_loss, lm_loss, balance_loss = _train_step(
            model, tokens, config, state, lr, step)
        curve.append(LossPoint(
            tokens_processed=(step + 1) * config.batch_size * config.seq_len,
            train_loss=float(total_loss), lm_loss=float(lm_loss),
            balance_loss=float(balance_loss), lr=float(lr),
        ))
    return model, curve


def _train_step(model: ToyLm, tokens: np.ndarray, config: TrainConfig, state: AdamWState,
                lr: float, step: int) -> tuple[float, float, float]:
    """One update; returns ``(total_loss, lm_loss, balance_loss)``.

    A function of its own so that the step's cache, trace, balance gradients
    and parameter gradients all die when it returns, before the next step's
    forward pass allocates new ones.
    """
    cache = forward_cache(model, tokens)
    lm_loss = cache["loss"]
    balance_loss, prob_grads = _balance_terms(
        trace_from_cache(model, cache), config.balance_mode, config.balance_coeff)
    total_loss = lm_loss + config.balance_coeff * balance_loss
    if not math.isfinite(total_loss):
        raise TrainingDiverged(
            f"non-finite loss at step {step}: lm={lm_loss} balance={balance_loss}")
    grads = backward_from_cache(model, cache, prob_grads)
    clip_gradients(grads, config.grad_clip)
    adamw_step(model.params, grads, state, lr, config)
    return total_loss, lm_loss, balance_loss


def _forward_runs(sequences: int, seq_len: int, max_rows: int | None) -> list[list[slice]]:
    """The tiles of :func:`moeup.model.sequence_tiles`, in runs of consecutive
    whole tiles: each run holds at most ``EVAL_FORWARD_TOKENS`` tokens and
    ``max_rows`` sequences, and one tile at least."""
    cap = min(EVAL_FORWARD_TOKENS // seq_len, max_rows or sequences)
    runs: list[list[slice]] = []
    for tile in sequence_tiles(sequences, seq_len, max_rows):
        if runs and tile.stop - runs[-1][0].start <= cap:
            runs[-1].append(tile)
        else:
            runs.append([tile])
    return runs


def _tile_result(result: dict, rows: slice) -> dict:
    """The part of an activation-free forward result that belongs to its
    sequences ``rows``: views of their tokens, logits and routing rows."""
    tokens, logits = result["tokens"][rows], result["logits"][rows]
    t = tokens.shape[1]
    flat = slice(rows.start * t, rows.stop * t)
    routing = [LayerRouting(r.selected[flat], r.gates[flat], r.probs[flat])
               for r in result["routing"]]
    return {"tokens": tokens, "routing": routing, "logits": logits}


def forward_tiles(model: ToyLm, corpus: Corpus, per_tile, *, seq_len: int | None = None,
                  max_sequences: int | None = None, max_rows: int | None = None) -> list:
    """``per_tile(rows, result)`` for each tile of the corpus: the one walk
    behind :func:`evaluate_loss` and routing traces. Returns their values in
    tile order.

    A tile is a slice ``rows`` of the first ``max_sequences`` sequences, cut to
    ``seq_len`` tokens (by default all of both), from
    :func:`moeup.model.sequence_tiles`: it holds at most ``max_rows``
    sequences and ``EVAL_TILE_TOKENS`` tokens, one sequence at least. Tiles
    are the groups whose losses and traces the callers report.

    The unit of work is larger: one ``forward_cache(...,
    keep_activations=False)`` over a run of consecutive whole tiles, of at
    most ``EVAL_FORWARD_TOKENS`` tokens and ``max_rows`` sequences. ``result``
    holds the tile's own rows of that forward (views of its tokens, logits
    and routing), and no loss: a caller that needs one takes it from these
    rows, so the vocabulary softmax runs once per token. The rows are
    bitwise those of a forward over the tile alone, by the GEMM
    premise of :mod:`moeup.model`; its one exception, a one-row product,
    would arise only if an expert got exactly one token of a tile and more
    of its forward. The forward dies when its last tile's ``per_tile``
    returns, and a later forward reuses its memory. Forwards run on the
    thread pool, at most ``thread_cap()`` at a time, so ``per_tile`` must not
    depend on the order of calls.
    """
    if max_sequences is not None and max_sequences < 1:
        raise ValidationError(f"max_sequences must be >= 1, got {max_sequences}")
    if corpus.num_sequences == 0:
        raise ValidationError("cannot evaluate on an empty corpus")
    seq_len = corpus.seq_len if seq_len is None else seq_len
    if not 1 <= seq_len <= corpus.seq_len:
        raise ValidationError(f"seq_len must be in [1, {corpus.seq_len}], got {seq_len}")
    limit = min(max_sequences or corpus.num_sequences, corpus.num_sequences)

    def run_tiles(tiles: list[slice]) -> list:
        start = tiles[0].start
        result = forward_cache(model, corpus.sequences[start:tiles[-1].stop, :seq_len],
                               keep_activations=False)
        return [per_tile(rows, _tile_result(result, slice(rows.start - start, rows.stop - start)))
                for rows in tiles]

    return [value for values in ordered_map(run_tiles, _forward_runs(limit, seq_len, max_rows))
            for value in values]


def evaluate_loss(model: ToyLm, corpus: Corpus, batch_size: int = 32,
                  seq_len: int | None = None, max_sequences: int | None = None) -> float:
    """Mean next-token loss over the corpus, in deterministic order.

    The corpus is walked by :func:`forward_tiles`, with ``batch_size`` as an
    upper bound on the sequences per tile and per forward pass. The tile size
    changes how per-sequence losses are grouped before summation; the forward
    size changes no bits, as each tile's loss is that of a forward over the
    tile alone. The loss is bitwise that of passes that keep their
    activations.
    """
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    seq_len = corpus.seq_len if seq_len is None else seq_len
    # One token has no next-token target, so its loss would be an empty mean.
    if seq_len < 2:
        raise ValidationError(f"eval seq_len must be >= 2, got {seq_len}")
    def tile_loss(rows: slice, out: dict) -> tuple[int, float]:
        return rows.stop - rows.start, next_token_loss(out["logits"], out["tokens"])

    tiles = forward_tiles(model, corpus, tile_loss, seq_len=seq_len,
                          max_sequences=max_sequences, max_rows=batch_size)
    total, count = 0.0, 0
    for rows, loss in tiles:
        total += loss * rows
        count += rows
    return total / count
