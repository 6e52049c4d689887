"""Routing statistics, retained-overlap reports, and catch-up curves.

Outputs are plain dataclasses plus CSV writers (no plotting in-process).

CSV column contracts:

- routing fractions: ``layer,domain,expert,fraction`` where ``fraction`` is
  assignments of that domain's tokens to the expert divided by
  (top_k x tokens of that domain), so each (layer, domain) row group sums
  to 1
- layer entropy: ``layer,entropy`` with entropy = -sum p ln p over the
  domain-pooled assignment distribution of the layer
- catch-up: ``base_tokens,deficit`` with ``deficit`` empty when the other
  curve never reaches the base loss (no extrapolation)
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .config import ValidationError
from .corpus import Corpus
from .model import RoutingTrace, ToyLm, trace_from_cache
from .numerics import RngStream
from .trainer import LossCurve, forward_tiles
from .upcycle import ReinitPlan


# ---------------------------------------------------------------------------
# Routing summaries
# ---------------------------------------------------------------------------

@dataclass
class RoutingSummary:
    num_experts: int
    top_k: int
    # (layer, domain) -> length-n assignment-fraction vector (sums to 1)
    fractions: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    # layer -> entropy of the domain-pooled assignment distribution
    entropy: dict[int, float] = field(default_factory=dict)
    tokens_per_domain: dict[str, int] = field(default_factory=dict)


def collect_traces(model: ToyLm, corpus: Corpus, *,
                   seq_len: int | None = None) -> list[RoutingTrace]:
    """Routing traces of the model over the corpus in order, one per tile of
    :func:`moeup.trainer.forward_tiles`.

    Each trace holds only its tile's routing arrays. Routing is per token, so
    the traces' arrays are bitwise those of one forward per sequence.
    """
    if not model.config.is_moe:
        raise ValidationError("routing traces require an MoE model")
    def trace(rows: slice, result: dict) -> RoutingTrace:
        return trace_from_cache(model, result, corpus.domains[rows])

    return forward_tiles(model, corpus, trace, seq_len=seq_len)


def summarize_routing(trace: RoutingTrace | list[RoutingTrace]) -> RoutingSummary:
    """Per-(layer, domain) expert assignment fractions and per-layer entropy.

    Fractions are normalized by assignments (top_k per token). Traces without
    domain labels are pooled under the single domain ``"all"``.
    """
    traces = trace if isinstance(trace, list) else [trace]
    if not traces or not traces[0].layers:
        raise ValidationError("empty routing trace")
    n, k, num_layers = traces[0].num_experts, traces[0].top_k, len(traces[0].layers)
    for t in traces:
        if t.num_experts != n or t.top_k != k or len(t.layers) != num_layers:
            raise ValidationError("traces disagree on routing shape")

    counts: dict[tuple[int, str], np.ndarray] = {}  # (layer, domain) -> assignments
    tokens_per_domain: dict[str, int] = {}
    for t in traces:
        batch, seq_len = t.layers[0].selected.shape[:2]
        labels = np.asarray(t.domains if t.domains is not None else ["all"] * batch)
        for d in np.unique(labels).tolist():
            rows = np.nonzero(labels == d)[0]
            tokens_per_domain[d] = tokens_per_domain.get(d, 0) + rows.size * seq_len
            for i, layer in enumerate(t.layers):
                assigned = np.bincount(layer.selected[rows].reshape(-1), minlength=n)
                counts[(i, d)] = counts.get((i, d), 0) + assigned

    summary = RoutingSummary(num_experts=n, top_k=k,
                             tokens_per_domain=dict(sorted(tokens_per_domain.items())))
    for (i, d), c in sorted(counts.items()):
        summary.fractions[(i, d)] = c / (k * tokens_per_domain[d])
    for i in range(num_layers):
        pooled = sum((c for (layer, _), c in counts.items() if layer == i),
                     np.zeros(n, dtype=np.int64))
        p = pooled / pooled.sum()
        nonzero = p[p > 0]
        summary.entropy[i] = float(-(nonzero * np.log(nonzero)).sum())
    return summary


def routing_fractions_csv(summary: RoutingSummary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "domain", "expert", "fraction"])
        for (layer, domain) in sorted(summary.fractions):
            for expert, fraction in enumerate(summary.fractions[(layer, domain)]):
                writer.writerow([layer, domain, expert, repr(float(fraction))])


def layer_entropy_csv(summary: RoutingSummary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "entropy"])
        for layer in sorted(summary.entropy):
            writer.writerow([layer, repr(summary.entropy[layer])])


# ---------------------------------------------------------------------------
# Retained-overlap reports
# ---------------------------------------------------------------------------

@dataclass
class LayerOverlap:
    layer: int
    num_pairs: int
    mean_pairwise_fraction: float
    theoretical_pairwise_fraction: float
    pairwise_std_error: float
    subset_size: int
    num_subsets: int
    mean_all_common_fraction: float
    theoretical_all_common_fraction: float
    all_common_std_error: float


@dataclass
class OverlapReport:
    ratio: float
    dimension: int
    layers: list[LayerOverlap] = field(default_factory=list)


def _hypergeom_pair_variance(dim: int, size_a: int, size_b: int) -> float:
    """Variance of |A n B| for independent uniform subsets of the given sizes."""
    if dim <= 1:
        return 0.0
    p = size_a / dim
    return size_b * p * (1.0 - p) * (dim - size_b) / (dim - 1)


def overlap_report(plan: ReinitPlan, k: int = 2, max_subsets: int = 1000,
                   subset_seed: int = 0) -> OverlapReport:
    """Observed vs theoretical retained-set overlap between experts.

    Retained sets are taken per expert in parent dimension space. Pairwise
    overlap fractions are compared against the product of the experts'
    retained fractions, which for plain drop plans equals (1 - r)^2 up to the
    floor in |S| = floor(r * d_f); the all-common fraction over k-subsets is
    compared against (1 - r)^k the same way. Standard errors treat the
    per-pair hypergeometric variances as independent; when C(n, k) exceeds
    ``max_subsets`` the k-subsets are Monte Carlo sampled.
    """
    if plan is None or not plan.layers:
        raise ValidationError("reinit plan is missing or empty")
    if max_subsets < 1:
        raise ValidationError(f"max_subsets must be >= 1, got {max_subsets}")
    dim = plan.intermediate_size
    report = OverlapReport(ratio=plan.ratio, dimension=dim)
    stream = RngStream(subset_seed)
    for layer_idx in range(len(plan.layers)):
        retained = plan.retained_parent_dims(layer_idx)
        num_experts = len(retained)
        if not (2 <= k <= num_experts):
            raise ValidationError(f"k must be in [2, {num_experts}], got {k}")
        masks = np.zeros((num_experts, dim), dtype=bool)
        for e, dims in enumerate(retained):
            masks[e, dims] = True
        sizes = masks.sum(axis=1)

        pair_fracs, pair_theory, pair_vars = [], [], []
        for a, b in combinations(range(num_experts), 2):
            pair_fracs.append(np.count_nonzero(masks[a] & masks[b]) / dim)
            pair_theory.append((sizes[a] / dim) * (sizes[b] / dim))
            pair_vars.append(_hypergeom_pair_variance(dim, sizes[a], sizes[b]))
        num_pairs = len(pair_fracs)
        pair_se = math.sqrt(float(np.mean(pair_vars)) / num_pairs) / dim

        all_subsets = math.comb(num_experts, k)
        if all_subsets <= max_subsets:
            subsets = list(combinations(range(num_experts), k))
        else:
            g = stream.child(layer_idx).generator()
            subsets = [tuple(np.sort(g.choice(num_experts, size=k, replace=False)))
                       for _ in range(max_subsets)]
        common_fracs, common_theory = [], []
        for subset in subsets:
            common = np.logical_and.reduce(masks[list(subset)])
            common_fracs.append(np.count_nonzero(common) / dim)
            common_theory.append(float(np.prod([sizes[e] / dim for e in subset])))
        spread = float(np.std(common_fracs))
        common_se = spread / math.sqrt(len(subsets)) if len(subsets) > 1 else 0.0

        report.layers.append(LayerOverlap(
            layer=layer_idx,
            num_pairs=num_pairs,
            mean_pairwise_fraction=float(np.mean(pair_fracs)),
            theoretical_pairwise_fraction=float(np.mean(pair_theory)),
            pairwise_std_error=pair_se,
            subset_size=k,
            num_subsets=len(subsets),
            mean_all_common_fraction=float(np.mean(common_fracs)),
            theoretical_all_common_fraction=float(np.mean(common_theory)),
            all_common_std_error=common_se,
        ))
    return report


# ---------------------------------------------------------------------------
# Catch-up analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatchUpPoint:
    base_tokens: int
    deficit: float | None  # None: the other curve never reaches this loss


def _smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average; edges shrink to the available points."""
    if window <= 1:
        return values.astype(np.float64)
    half = window // 2
    out = np.empty(values.shape[0], dtype=np.float64)
    for i in range(values.shape[0]):
        lo = max(0, i - half)
        hi = min(values.shape[0], i + half + 1)
        out[i] = values[lo:hi].mean()
    return out


def catch_up(base: LossCurve, other: LossCurve, smooth_window: int = 5,
             which: str = "train_loss") -> list[CatchUpPoint]:
    """Token deficit of ``other`` behind ``base`` at equal loss levels.

    For each base point (t, L) after smoothing, the deficit is
    t - min{tokens at which the other curve first reaches loss <= L}, with
    linear interpolation between curve points. Base points whose loss the
    other curve never reaches are reported with ``deficit=None`` rather than
    extrapolated. Positive deficits mean the other curve needed fewer tokens.
    """
    if not base.points or not other.points:
        raise ValidationError("catch-up requires two non-empty curves")
    if smooth_window < 1:
        raise ValidationError(f"smoothing window must be >= 1, got {smooth_window}")
    base_tokens = base.tokens()
    base_loss = _smooth(base.losses(which), smooth_window)
    other_tokens = other.tokens().astype(np.float64)
    other_loss = _smooth(other.losses(which), smooth_window)
    # Running minimum makes "first time loss <= L" well defined even if the
    # smoothed curve is not perfectly monotone.
    reach = np.minimum.accumulate(other_loss)

    points: list[CatchUpPoint] = []
    for t, level in zip(base_tokens, base_loss):
        if reach[-1] > level:
            points.append(CatchUpPoint(int(t), None))
            continue
        idx = int(np.argmax(reach <= level))
        if idx == 0:
            reached_at = other_tokens[0]
        else:
            prev_loss, cur_loss = other_loss[idx - 1], other_loss[idx]
            span = prev_loss - cur_loss
            frac = 1.0 if span <= 0 else (prev_loss - level) / span
            reached_at = other_tokens[idx - 1] + frac * (other_tokens[idx] - other_tokens[idx - 1])
        points.append(CatchUpPoint(int(t), float(t - reached_at)))
    return points


def catch_up_csv(points: list[CatchUpPoint], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["base_tokens", "deficit"])
        for point in points:
            writer.writerow([point.base_tokens,
                             "" if point.deficit is None else repr(point.deficit)])
