"""Executable model definitions: gated FFN, sparse MoE layer, and a toy LM.

The FFN uses the gated-linear form

    ffn(x) = (swish(x @ W_gate) * (x @ W_up)) @ W_down,   swish(z) = z * sigmoid(z)

with no bias terms. An MoE layer holds a router matrix (hidden x n_routed),
``n_routed`` expert FFNs, and optionally always-active shared experts. Routing
is dropless token-choice top-k: every token is processed by exactly its k
highest-logit experts, the gate weights being a softmax over the selected
logits (so they sum to 1; non-selected experts get an exact 0). This equals
renormalizing the full softmax over the selected entries.

The toy LM is a decoder-only transformer: token embedding + learned position
embedding, then per layer [pre-norm causal attention, pre-norm FFN-or-MoE]
with residual connections, a final norm, and an untied output head. Norms are
scale-only layer norms. Query-group attention is not implemented by the toy
model (it requires num_query_groups == num_heads); the accounting module
still honors grouped-query configs.

Gradients are reverse-mode via per-layer hand-written backward functions at
64-bit precision; there is no general tape. A forward pass that a backward
pass will follow keeps a ``LayerCache`` per layer, whose FFN part is an
``MoeCache`` in an MoE model, and the backward pass reads them by name,
freeing each part at its last use. The caches keep only what backward cannot
rebuild cheaply. An FFN keeps its input, its two GEMM outputs and the
sigmoid; backward recomputes ``act`` and ``prod`` with the forward's
operations, so they are bitwise the same. A routed expert keeps no copy of
its input rows; backward regathers them from the layer input. A forward pass
for evaluation or routing traces (``keep_activations=False``) keeps none of
them: inside an MoE layer each expert's input rows, intermediates and output
die before the next expert runs, and only the tokens, logits and routing
outlive the pass; it computes no loss, which its callers take from the
logits (:func:`token_losses`).

All parallel work goes through :func:`moeup.util.ordered_map`, whose
``pool`` flag says whether the work is big enough to gain from a second
thread; where it is false, and on one thread or inside a pool task, the same
items run inline, so the bits do not depend on the thread count. When
activations are kept, an MoE layer's experts, routed then shared, run on the
pool, forward and backward, in at most ``thread_cap()`` contiguous groups
balanced by rows x width (:func:`_expert_plan`), one task per group, if the
average group holds ``_POOL_MIN_ELEMENTS``. The plan follows from the
routing counts alone, and backward reuses the forward's. A group's experts
run one after another on its thread, each computing exactly what it would
in a serial loop; the calling thread weights and combines their outputs in
expert order while later groups run. Otherwise, as in evaluation and at
``MOEUP_THREADS=1``, each expert is its own item, run inline, and its
tensors die before the next expert starts.

Work whose rows are whole sequences runs in tiles on the same pool:
attention's per-sequence core (projections, scores, mask, softmax, context
and their gradients), the dense FFN and shared experts, forward and
backward. :func:`_tiles` is the one tile plan, and it depends only on
shapes: at most ``_TILE_TOKENS`` tokens of whole sequences per tile, used
only if even the last tile holds ``_POOL_MIN_ELEMENTS``; otherwise the work
runs whole. Evaluation's pool task is a whole forward pass of at most
``EVAL_FORWARD_TOKENS`` tokens (:func:`moeup.trainer.forward_tiles`).
Each tile writes its rows of preallocated outputs; every sum over rows (the
weight gradients, the norm gains, the loss and the embedding scatter) stays
one whole-array call, and a layer's independent weight gradients run as
whole tasks on the pool when its rows were tiled. Routed experts stay whole;
their groups are the pool's unit. A shared expert inside a group runs its
tiles inline, with the same bits.

The tiled results equal those of an untiled pass because numpy's bundled
OpenBLAS gives each row of a GEMM the same bits whatever the number of rows
it is called with, if that number is not too small. Pieces of 64 or more
rows matched the whole GEMM bitwise (K from 32 to 256, plain and transposed
right operand, up to 1,536 rows); 17-row pieces against a transposed
operand, single rows and a 17-column split of ``x.T @ P`` did not.
``tests/test_kernels_bitwise.py`` checks the premise where it runs. A shape
whose last tile has fewer rows is still bitwise the same at any thread
count, but may differ in the last bits from an untiled pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checkpoint import POSITION_SLOT, Checkpoint, ffn_slot_names
from .config import ModelConfig, ValidationError
from .numerics import NormalParams, RngStream, sample_normal, softmax, top_k_batch
from .util import ordered_map, setup_process, thread_cap

_LN_EPS = 1e-6
# Work goes to the thread pool only in pieces whose arrays hold at least this
# many elements: smaller numpy calls are so short that handing the GIL between
# threads costs more than it frees. On 2 cores, 8 experts of 512 rows, one
# task each, gained nothing at width 32 and 1.4-1.7x at width 64. A task that
# runs a group of experts pays one hand-off for the group: 31 experts of
# about 495 rows at width 32 and a shared one, in two groups of about 260k
# elements, raised the toy fine-grained MoE training throughput by about 16%
# on 2 cores.
_POOL_MIN_ELEMENTS = 1 << 15
# Most tokens one tile of a train step's attention or FFN holds on the thread
# pool (see :func:`_tiles`).
_TILE_TOKENS = 512
# Most tokens one evaluation forward pass holds, one pool task. A 512-token
# forward's 31 experts of the toy fine-grained MoE are too
# small to gain from a second thread: on 2 cores its evaluation took 0.76 s
# at two threads in forwards of 512 tokens and 0.70 s at one thread. Forwards
# of 1,024 tokens took 0.57 s at two threads, and 2,048 tokens 0.54 s; at one
# thread they cost 3% and 6% (medians of 10, in-process after 20 steps).
EVAL_FORWARD_TOKENS = 1024


# ---------------------------------------------------------------------------
# Tiles
# ---------------------------------------------------------------------------

def _tiles(rows: int, seq_len: int | None, per_row: int) -> list[slice]:
    """The row tiles of a train step's per-sequence work, whose ``rows`` rows
    (tokens) are whole sequences of ``seq_len`` tokens and hold ``per_row``
    elements each: consecutive runs of at most ``_TILE_TOKENS`` tokens of whole
    sequences, one sequence at least, if even the last, smallest one holds
    ``_POOL_MIN_ELEMENTS``; else one whole slice, as also when ``seq_len`` is
    None. The plan depends on nothing but these numbers."""
    if seq_len is not None:
        step = max(1, _TILE_TOKENS // seq_len) * seq_len
        tiles = [slice(start, min(start + step, rows)) for start in range(0, rows, step)]
        if len(tiles) > 1 and (tiles[-1].stop - tiles[-1].start) * per_row >= _POOL_MIN_ELEMENTS:
            return tiles
    return [slice(0, rows)]


class ExpertPlan(NamedTuple):
    """An MoE layer's experts as units of work, the arguments of its
    :func:`~moeup.util.ordered_map` calls: routed experts first, then shared."""

    groups: list[range]  # contiguous, in expert order, each expert in exactly one
    pooled: bool         # whether the groups run on the thread pool


def _expert_plan(rows: list[int], widths: list[int], cap: int) -> ExpertPlan:
    """The units of work of experts with ``rows`` rows and ``widths`` widths,
    in expert order.

    At most ``cap`` contiguous groups, cut where the running total of rows x
    width comes nearest each ``1 / cap`` of the whole, go to the thread pool if
    the average group holds ``_POOL_MIN_ELEMENTS``. Otherwise, and at a cap of
    1, each expert is its own group, run inline. The plan depends only on
    these numbers, never on scheduling.
    """
    singles = ExpertPlan([range(e, e + 1) for e in range(len(rows))], False)
    if cap <= 1:
        return singles
    work = list(itertools.accumulate(r * w for r, w in zip(rows, widths, strict=True)))
    total = work[-1] if work else 0
    starts = [0]
    for j in range(1, min(cap, len(work))):
        cuts = range(starts[-1] + 1, len(work))
        if not cuts:
            break
        # In integers: the cut whose work before it is nearest total * j / cap.
        starts.append(min(cuts, key=lambda s: abs(work[s - 1] * cap - total * j)))
    if total < len(starts) * _POOL_MIN_ELEMENTS:
        return singles
    return ExpertPlan([range(a, b) for a, b in zip(starts, [*starts[1:], len(work)])], True)


def _expert_outputs(run, plan: ExpertPlan):
    """Yield ``(e, run(e))`` for every expert of ``plan``, in expert order.

    Each group is one :func:`~moeup.util.ordered_map` item, whose experts
    run one after another on one thread. Each output is handed on once and
    dropped here, so a caller that drops it too before taking the next holds
    only the outputs of groups in flight; when each expert is its own group,
    run inline, one output at a time.
    """
    outputs = ordered_map(lambda group: [run(e) for e in group], *plan)
    for group in plan.groups:
        results = next(outputs)
        results.reverse()
        for e in group:
            yield e, results.pop()
        del results


# ---------------------------------------------------------------------------
# Weight containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FfnWeights:
    gate: np.ndarray  # (d_h, width)
    up: np.ndarray    # (d_h, width)
    down: np.ndarray  # (width, d_h)

    def __post_init__(self):
        d_h, width = self.gate.shape
        if self.up.shape != (d_h, width) or self.down.shape != (width, d_h):
            raise ValidationError(
                f"inconsistent FFN shapes: gate {self.gate.shape}, up {self.up.shape}, "
                f"down {self.down.shape}")

    @property
    def width(self) -> int:
        return self.gate.shape[1]


@dataclass(frozen=True)
class MoeLayerWeights:
    router: np.ndarray            # (d_h, n_routed)
    experts: tuple[FfnWeights, ...]
    shared: tuple[FfnWeights, ...] = ()

    def __post_init__(self):
        if self.router.ndim != 2:
            raise ValidationError(f"router must be 2D, got shape {self.router.shape}")
        if self.router.shape[1] != len(self.experts):
            raise ValidationError(
                f"router has {self.router.shape[1]} columns but {len(self.experts)} experts")
        object.__setattr__(self, "experts", tuple(self.experts))
        object.__setattr__(self, "shared", tuple(self.shared))

    @property
    def num_experts(self) -> int:
        return len(self.experts)


# ---------------------------------------------------------------------------
# Elementwise pieces
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, branch-free and bitwise equal to the two-branch form.

    With ``e = exp(-|z|)`` (never overflows) the value is ``1 / (1 + e)`` for
    ``z >= 0`` and ``e / (1 + e)`` otherwise. The numerator is picked as
    ``max(e, z >= 0)``: ``e <= 1`` for z >= 0 and ``e >= 0`` otherwise, and a
    NaN ``e`` propagates. This avoids a data-dependent select, which costs a
    branch mispredict per element when signs are random. ``out``, if given,
    receives the result.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, z >= 0, out=out)
    e += 1.0
    num /= e
    return num


def _ffn_fwd(w: FfnWeights, x: np.ndarray, seq_len: int | None = None):
    """Gated FFN over rows of ``x``; returns ``(y, (x, gate_pre, up_out, sig))``.

    The cache keeps what :func:`_ffn_bwd` cannot rebuild cheaply: the input,
    the two GEMM outputs and the sigmoid. ``act = gate_pre * sig`` and
    ``prod = act * up_out`` die here, in one buffer; backward recomputes them.
    With ``seq_len``, the rows are whole sequences of that many tokens, and
    they run in tiles (:func:`_tiles`), each writing its rows of the
    outputs; a routed expert's rows run whole.
    """
    tiles = _tiles(len(x), seq_len, w.width)
    if len(tiles) == 1:
        return _ffn_rows(w, x)
    outs = [np.empty((len(x), w.down.shape[1]))] + [np.empty((len(x), w.width)) for _ in range(3)]

    def rows(r: slice):
        _ffn_rows(w, x[r], [a[r] for a in outs])

    list(ordered_map(rows, tiles))
    y, gate_pre, up_out, sig = outs
    return y, (x, gate_pre, up_out, sig)


def _ffn_rows(w: FfnWeights, x: np.ndarray, out=(None,) * 4):
    """:func:`_ffn_fwd` on rows ``x``, its results written into ``out``
    (``y``, ``gate_pre``, ``up_out``, ``sig``) where given, else new arrays."""
    y, gate_pre, up_out, sig = out
    gate_pre = np.matmul(x, w.gate, out=gate_pre)
    up_out = np.matmul(x, w.up, out=up_out)
    sig = _sigmoid(gate_pre, out=sig)
    prod = gate_pre * sig  # act
    prod *= up_out
    return np.matmul(prod, w.down, out=y), (x, gate_pre, up_out, sig)


def _ffn_bwd(w: FfnWeights, cache, dy: np.ndarray, seq_len: int | None = None):
    """Backward for :func:`_ffn_fwd`; returns ``(dx, d_gate, d_up, d_down)``.

    ``act`` and ``prod`` are rebuilt by the forward's operations in the
    forward's order, so they are bitwise the forward's. The cache is used up:
    swish' is built in ``gate_pre``'s buffer and ``d_prod`` written into
    ``sig``'s, ``act``'s buffer becomes ``d_up_out``, and ``prod``'s, once it
    has given ``d_down``, holds ``1 - sig``. Backward allocates two (K, width)
    temporaries in all, ``act`` and ``prod``. With ``seq_len`` the rows run in
    the forward's tiles, after ``act`` and ``prod`` are rebuilt whole; the
    weight gradients, sums over all rows, are whole GEMMs.
    """
    x, gate_pre, up_out, sig = cache
    tiles = _tiles(len(x), seq_len, w.width)
    act = gate_pre * sig
    prod = act * up_out
    d_down = prod.T @ dy
    dx = np.empty_like(dy)

    def rows(r: slice):
        # swish'(z) = sig * (1 + z * (1 - sig)), evaluated in place in that
        # order, with 1 - sig in prod's spent rows; a product is the same bits
        # either way round.
        d_swish = gate_pre[r]
        d_swish *= np.subtract(1.0, sig[r], out=prod[r])
        d_swish += 1.0
        d_swish *= sig[r]
        d_prod = np.matmul(dy[r], w.down.T, out=sig[r])
        d_up_out = act[r]
        d_up_out *= d_prod
        d_gate_pre = d_prod
        d_gate_pre *= up_out[r]
        d_gate_pre *= d_swish
        dx_rows = np.matmul(d_gate_pre, w.gate.T, out=dx[r])
        dx_rows += d_up_out @ w.up.T

    list(ordered_map(rows, tiles))
    del prod
    # sig holds d_gate_pre and act d_up_out; as whole tasks, on the pool if the rows were tiled.
    d_gate, d_up = ordered_map(lambda grad: x.T @ grad, (sig, act), len(tiles) > 1)
    return dx, d_gate, d_up, d_down


def ffn_forward(w: FfnWeights, x: np.ndarray) -> np.ndarray:
    """Gated FFN applied to a single hidden vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (w.gate.shape[0],):
        raise ValidationError(f"input has shape {x.shape}, expected ({w.gate.shape[0]},)")
    y, _ = _ffn_fwd(w, x[None, :])
    return y[0]


def _partial_ffn(w: FfnWeights, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """FFN restricted to a subset of intermediate dimensions (empty -> 0)."""
    return ffn_forward(FfnWeights(w.gate[:, cols], w.up[:, cols], w.down[cols, :]), x)


# ---------------------------------------------------------------------------
# MoE layer
# ---------------------------------------------------------------------------

@dataclass
class LayerRouting:
    """Routing record for one MoE layer: who went where, and how confidently.

    Shapes are (B, T, ·) in a :class:`RoutingTrace` and (N, ·) in an :class:`MoeCache`.
    """

    selected: np.ndarray  # (B, T, k) int64, ascending per token
    gates: np.ndarray     # (B, T, k) gate weights over the selected experts
    probs: np.ndarray     # (B, T, n) full router softmax (for balance stats)


@dataclass(slots=True)
class MoeCache:
    """What :func:`_moe_fwd` keeps for :func:`_moe_bwd`."""

    x: np.ndarray           # (N, d_h) layer input
    gates_full: np.ndarray  # (N, n) gates, exact zeros off the selection
    routing: LayerRouting
    # Per routed expert, (rows, (gate_pre, up_out, sig), output), or None if no
    # row chose it. The FFN cache without its input: backward regathers x[rows].
    experts: list[tuple | None]
    shared: list[tuple]     # per shared expert, its FFN cache (its input is x)
    plan: ExpertPlan        # the forward's expert plan, which backward follows


def moe_forward(w: MoeLayerWeights, x: np.ndarray, k: int):
    """Sparse MoE layer on a single hidden vector: row 0 of :func:`_moe_fwd`.

    Returns ``(y, gates, selected)`` where ``gates`` is the full-length gate
    vector (softmax over the k selected logits, exact zeros elsewhere) and
    ``selected`` holds the k chosen expert indices, ascending.
    """
    x = np.asarray(x, dtype=np.float64)
    d_h, n = w.router.shape
    if x.shape != (d_h,):
        raise ValidationError(f"input has shape {x.shape}, expected ({d_h},)")
    if not (1 <= k <= n):
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    y, routing, cache = _moe_fwd(w, x[None, :], k)
    return y[0], cache.gates_full[0], routing.selected[0]


def decompose_moe_output(w: MoeLayerWeights, x: np.ndarray, k: int, retained_masks):
    """Evaluate both sides of the retained/diverse output decomposition.

    For experts built from one dense parent by re-initializing a subset of
    intermediate dimensions, the layer output equals

        common(x) + sum_i g_i * [retained_i(x) - common(x) + diverse_i(x)]

    where ``common`` runs over the dimensions retained by *all* selected
    experts (parent weights, identical across them), ``retained_i`` over
    expert i's retained dimensions, and ``diverse_i`` over its re-initialized
    dimensions. The identity holds because the selected gates sum to 1.

    ``retained_masks`` gives one boolean mask per expert over its
    intermediate dimensions. Returns ``(lhs, rhs)`` with ``lhs`` the plain
    layer output; shared experts are not supported here.
    """
    if w.shared:
        raise ValidationError("decomposition is defined for layers without shared experts")
    masks = [np.asarray(mask) for mask in retained_masks]
    if len(masks) != w.num_experts:
        raise ValidationError(f"got {len(masks)} masks for {w.num_experts} experts")
    for e, mask in enumerate(masks):
        width = w.experts[e].width
        if mask.dtype != bool or mask.shape != (width,):
            raise ValidationError(f"mask for expert {e} must be a boolean array of shape "
                                  f"({width},), got {mask.dtype} {mask.shape}")

    x = np.asarray(x, dtype=np.float64)
    lhs, gates, selected = moe_forward(w, x, k)

    common_mask = np.ones(w.experts[0].width, dtype=bool)
    for e in selected:
        common_mask &= masks[e]
    common_cols = np.nonzero(common_mask)[0]
    common_out = _partial_ffn(w.experts[selected[0]], x, common_cols)

    rhs = common_out.copy()
    for e in range(w.num_experts):
        if gates[e] == 0.0:
            continue
        retained_out = _partial_ffn(w.experts[e], x, np.nonzero(masks[e])[0])
        diverse_out = _partial_ffn(w.experts[e], x, np.nonzero(~masks[e])[0])
        rhs += gates[e] * (retained_out - common_out + diverse_out)
    return lhs, rhs


def _moe_fwd(w: MoeLayerWeights, x: np.ndarray, k: int, keep: bool = True,
             seq_len: int | None = None):
    """Batched MoE forward over rows of ``x`` (N, d_h); returns ``(y, routing, cache)``.

    ``cache`` is the :class:`MoeCache` for :func:`_moe_bwd`, or None when
    ``keep`` is false: then each expert's input rows, FFN intermediates and
    output die as soon as its output is combined, before the next expert runs.
    When kept, a routed expert's entry holds its rows, the FFN cache without
    the gathered input ``x[rows]`` (backward regathers it from ``x``, which
    the router gradient needs anyway) and its output, which gives the gate
    gradient. ``seq_len`` tiles the shared experts as in :func:`_ffn_fwd`.
    """
    n = w.num_experts
    logits = x @ w.router                                   # (N, n)
    probs = softmax(logits, axis=-1)
    sel = top_k_batch(logits, k)                            # (N, k)
    gate_logits = np.take_along_axis(logits, sel, axis=-1)
    gates_sel = softmax(gate_logits, axis=-1)               # (N, k)
    selmask = np.zeros_like(logits, dtype=bool)
    np.put_along_axis(selmask, sel, True, axis=-1)
    gates_full = np.zeros_like(logits)
    np.put_along_axis(gates_full, sel, gates_sel, axis=-1)

    def run(e: int):
        """Expert ``e``'s output, or shared expert ``e - n``'s; None if unused."""
        if e >= n:
            return _ffn_fwd(w.shared[e - n], x, seq_len)
        idx = np.nonzero(selmask[:, e])[0]
        if not idx.size:
            return None
        # BLAS gives a one-row product other bits than the same row of a taller
        # one, so a lone row runs twice and keeps its first copy: its bits then
        # do not depend on how many rows share the expert (evaluation's batch size).
        lone = idx.size == 1
        fe, cache_e = _ffn_fwd(w.experts[e], x[np.repeat(idx, 2) if lone else idx])
        # The input rows die here, even when the rest is kept.
        kept = cache_e[1:]
        if lone:
            fe, kept = fe[:1], tuple(a[:1] for a in kept)
        return idx, kept, fe

    # Experts run in groups on the thread pool when activations are kept and
    # the groups are big enough (_expert_plan); an activation-free pass runs
    # them one at a time, so that each expert's tensors die before the next
    # starts (evaluation parallelizes over forwards). Either way each output is
    # weighted and added here, in expert order, bitwise as in a loop; the
    # weighted copy lives only for its own addition.
    y = np.zeros_like(x)
    expert_caches: list[tuple | None] = [None] * n
    shared_caches = []
    plan = _expert_plan([*np.count_nonzero(selmask, axis=0).tolist(), *[len(x)] * len(w.shared)],
                        [f.width for f in (*w.experts, *w.shared)], thread_cap() if keep else 1)
    for e, out in _expert_outputs(run, plan):
        if e >= n:
            fs, cache_s = out
            y += fs
            if keep:
                shared_caches.append(cache_s)
            del fs, cache_s
        elif out is not None:
            idx, kept, fe = out
            y[idx] += gates_full[idx, e:e + 1] * fe
            if keep:
                expert_caches[e] = out
            del idx, kept, fe
        del out  # before the next expert runs
    routing = LayerRouting(sel, gates_sel, probs)
    if not keep:
        return y, routing, None
    return y, routing, MoeCache(x, gates_full, routing, expert_caches, shared_caches, plan)


def _moe_bwd(w: MoeLayerWeights, cache: MoeCache, dy: np.ndarray, d_probs: np.ndarray | None,
             seq_len: int | None = None):
    """Backward for :func:`_moe_fwd`.

    ``d_probs`` optionally injects an upstream gradient on the full router
    softmax (used by the load-balancing loss): one (n,) vector, the same for
    every row, broadcast against the (N, n) probabilities. Top-k selection
    itself is piecewise constant and carries no gradient.

    A routed expert's input rows are regathered from ``cache.x``, and its
    ``act`` and ``prod`` are rebuilt by :func:`_ffn_bwd`; its kept output
    gives the gate gradient. ``seq_len`` is the forward's.
    """
    routing = cache.routing
    n = w.num_experts

    def run(e: int):
        """Expert ``e``'s (or shared expert ``e - n``'s) backward, from its
        cache entry, which it takes out of the layer cache and uses up."""
        if e >= n:
            entry, cache.shared[e - n] = cache.shared[e - n], None
            return _ffn_bwd(w.shared[e - n], entry, dy, seq_len)
        entry, cache.experts[e] = cache.experts[e], None
        ew = w.experts[e]
        if entry is None:
            return None, None, None, tuple(map(np.zeros_like, (ew.gate, ew.up, ew.down)))
        idx, kept, fe = entry
        del entry
        dye = dy[idx]
        d_gates = np.einsum("nd,nd->n", dye, fe)
        del fe
        dye *= cache.gates_full[idx, e:e + 1]
        dxe, *grads = _ffn_bwd(ew, (cache.x[idx], *kept), dye)
        return idx, d_gates, dxe, tuple(grads)

    # Experts run in the forward's groups; their input gradients are added and
    # their gate gradients written here, in expert order, bitwise as in a loop.
    dx = np.zeros_like(cache.x)
    d_gates_full = np.zeros_like(cache.gates_full)
    expert_grads, shared_grads = [], []
    for e, out in _expert_outputs(run, cache.plan):  # as in _moe_fwd
        if e >= n:
            dxs, *grads = out
            dx += dxs
            shared_grads.append(tuple(grads))
            del dxs
        else:
            idx, d_gates, dxe, grads = out
            if idx is not None:
                d_gates_full[idx, e] = d_gates
                dx[idx] += dxe
            expert_grads.append(grads)
            del idx, d_gates, dxe
        del out

    d_gates_sel = np.take_along_axis(d_gates_full, routing.selected, axis=-1)
    inner = np.sum(routing.gates * d_gates_sel, axis=-1, keepdims=True)
    d_gate_logits = routing.gates * (d_gates_sel - inner)
    d_logits = np.zeros_like(cache.gates_full)
    np.put_along_axis(d_logits, routing.selected, d_gate_logits, axis=-1)
    if d_probs is not None:
        inner_p = np.sum(routing.probs * d_probs, axis=-1, keepdims=True)
        d_logits += routing.probs * (d_probs - inner_p)
    d_router = cache.x.T @ d_logits
    dx += d_logits @ w.router.T
    return dx, d_router, expert_grads, shared_grads


# ---------------------------------------------------------------------------
# Norm / attention pieces
# ---------------------------------------------------------------------------

def _layernorm_fwd(x: np.ndarray, g: np.ndarray):
    mu = np.mean(x, axis=-1, keepdims=True)
    xhat = x - mu
    var = np.mean(xhat ** 2, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv_std
    return g * xhat, (xhat, inv_std, g)


def _layernorm_bwd(cache, dy: np.ndarray):
    xhat, inv_std, g = cache
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    m1 = np.mean(dxhat, axis=-1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    return dx, dg


@functools.lru_cache(maxsize=8)
def _causal_mask(t: int) -> np.ndarray:
    """Read-only (t, t) mask, True strictly above the diagonal (future keys)."""
    mask = np.triu(np.ones((t, t), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def _split_heads(x: np.ndarray, n_heads: int, head_dim: int) -> np.ndarray:
    b, t, _ = x.shape
    return x.reshape(b, t, n_heads, head_dim).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)


def _attn_fwd(h: np.ndarray, wq, wk, wv, wo, n_heads: int, head_dim: int):
    """Causal attention over ``h`` (B, T, d_h); returns ``(out, cache)``.

    The sequences run in the tiles of :func:`_tiles`, each writing its
    sequences of the preallocated outputs; a tile's row slice of the
    flattened (B * T) tokens gives its sequences.
    """
    b, t, _ = h.shape
    proj = [np.empty((b, t, n_heads * head_dim)) for _ in range(3)]
    q, k, v = (_split_heads(a, n_heads, head_dim) for a in proj)
    attn = np.empty((b, n_heads, t, t))
    merged = np.empty((b, t, n_heads * head_dim))
    out = np.empty((b, t, wo.shape[1]))
    scale = 1.0 / np.sqrt(head_dim)

    def seqs(s: slice):
        for w, a in zip((wq, wk, wv), proj):
            np.matmul(h[s], w, out=a[s])
        scores = np.matmul(q[s], k[s].transpose(0, 1, 3, 2), out=attn[s])
        scores *= scale
        # A masked copy rather than an added -inf bias: inf + -inf would be NaN.
        np.copyto(scores, -np.inf, where=_causal_mask(t))
        softmax(scores, axis=-1, out=scores)
        np.matmul(scores, v[s], out=_split_heads(merged[s], n_heads, head_dim))
        np.matmul(merged[s], wo, out=out[s])

    list(ordered_map(seqs, [slice(r.start // t, r.stop // t)
                            for r in _tiles(b * t, t, n_heads * t)]))
    return out, (h, q, k, v, attn, merged, scale)


def _attn_bwd(cache, wq, wk, wv, wo, dy: np.ndarray):
    """Backward for :func:`_attn_fwd`; returns ``(dh, d_wq, d_wk, d_wv, d_wo)``.

    The sequences run in the forward's tiles; the weight gradients, sums over
    all tokens, are whole GEMMs.
    """
    h, q, k, v, attn, merged, scale = cache
    b, t, d_h = h.shape
    n_heads, head_dim = q.shape[1], q.shape[3]
    tiles = [slice(r.start // t, r.stop // t) for r in _tiles(b * t, t, n_heads * t)]
    # d(q), d(k) and d(v) with heads merged; C order, so that rows reshape to views.
    d_proj = [np.empty((b, t, n_heads * head_dim)) for _ in range(3)]
    dh = np.empty((b, t, d_h))

    def seqs(s: slice):
        dq, dk, dv = (_split_heads(a[s], n_heads, head_dim) for a in d_proj)
        d_ctx = _split_heads(dy[s] @ wo.T, n_heads, head_dim)
        d_attn = d_ctx @ v[s].transpose(0, 1, 3, 2)
        np.matmul(attn[s].transpose(0, 1, 3, 2), d_ctx, out=dv)
        # attn * (d_attn - inner), built in the buffer of attn * d_attn.
        d_scores = attn[s] * d_attn
        inner = np.sum(d_scores, axis=-1, keepdims=True)
        np.subtract(d_attn, inner, out=d_scores)
        del d_attn
        d_scores *= attn[s]
        np.multiply(d_scores @ k[s], scale, out=dq)
        np.multiply(d_scores.transpose(0, 1, 3, 2) @ q[s], scale, out=dk)
        dq2, dk2, dv2 = (a[s].reshape(-1, a.shape[2]) for a in d_proj)
        dh2 = np.matmul(dq2, wq.T, out=dh[s].reshape(-1, d_h))
        dh2 += dk2 @ wk.T
        dh2 += dv2 @ wv.T

    list(ordered_map(seqs, tiles))
    h2, dy2 = h.reshape(b * t, -1), dy.reshape(b * t, -1)
    pairs = [(h2, a.reshape(b * t, -1)) for a in d_proj] + [(merged.reshape(b * t, -1), dy2)]
    d_wq, d_wk, d_wv, d_wo = ordered_map(lambda pair: pair[0].T @ pair[1], pairs, len(tiles) > 1)
    return dh, d_wq, d_wk, d_wv, d_wo


# ---------------------------------------------------------------------------
# Toy language model
# ---------------------------------------------------------------------------

@dataclass
class RoutingTrace:
    num_experts: int
    top_k: int
    layers: list[LayerRouting] = field(default_factory=list)
    domains: list[str] | None = None  # one label per batch row


@dataclass
class LmOutput:
    logits: np.ndarray  # (B, T, vocab)
    trace: RoutingTrace
    loss: float


@dataclass(slots=True)
class LayerCache:
    """What one layer's forward keeps for its backward."""

    attn_norm: tuple         # _layernorm_fwd cache before attention
    attn: tuple              # _attn_fwd cache
    ffn_norm: tuple          # _layernorm_fwd cache before the FFN
    ffn: MoeCache | tuple    # _moe_fwd cache in an MoE model, else _ffn_fwd cache
    weights: MoeLayerWeights | FfnWeights


@dataclass
class ToyLm:
    """Toy decoder-only LM; ``params`` maps canonical tensor names to float64 arrays."""

    config: ModelConfig
    params: dict[str, np.ndarray]

    @property
    def max_positions(self) -> int:
        return self.params[POSITION_SLOT].shape[0]

    def _ffn_weights(self, prefix: str) -> FfnWeights:
        return FfnWeights(*(self.params[name] for name in ffn_slot_names(prefix)))

    def layer_ffn(self, i: int) -> FfnWeights:
        return self._ffn_weights(f"layers.{i}.ffn")

    def layer_moe(self, i: int) -> MoeLayerWeights:
        cfg = self.config
        experts = [self._ffn_weights(f"layers.{i}.experts.{e}") for e in range(cfg.routed_experts)]
        shared = [self._ffn_weights(f"layers.{i}.shared.{j}") for j in range(cfg.shared_experts)]
        return MoeLayerWeights(self.params[f"layers.{i}.router"], experts, shared)


DEFAULT_POSITION_STD = 0.02
_POSITION_PURPOSE = 97  # stream path tag for position-embedding init


def build_model(ckpt: Checkpoint, max_positions: int | None = None,
                stream: RngStream | None = None) -> ToyLm:
    """Instantiate a toy LM from a checkpoint, upcast to float64.

    If the checkpoint lacks a position embedding, one of ``max_positions``
    rows is drawn N(0, 0.02^2) from ``stream`` (both then required).
    """
    cfg = ckpt.config
    if cfg.num_query_groups != cfg.num_heads:
        raise ValidationError("toy model requires num_query_groups == num_heads")
    # A copy even for float64 storage: training updates parameters in place and
    # must not write through to the checkpoint.
    params = {name: np.array(arr, dtype=np.float64) for name, arr in ckpt.tensors.items()}
    if POSITION_SLOT not in params:
        if max_positions is None or stream is None:
            raise ValidationError(
                "checkpoint has no position embedding; pass max_positions and stream")
        flat = sample_normal(stream.child(_POSITION_PURPOSE),
                             NormalParams(0.0, DEFAULT_POSITION_STD),
                             max_positions * cfg.hidden_size)
        params[POSITION_SLOT] = flat.reshape(max_positions, cfg.hidden_size)
    return ToyLm(config=cfg, params=params)


def model_to_checkpoint(model: ToyLm, dtype: str = "f32",
                        metadata: dict | None = None) -> Checkpoint:
    np_dtype = {"f32": np.float32, "f64": np.float64}[dtype]
    # Copied, so that further in-place training leaves the checkpoint as it is.
    tensors = {name: np.array(arr, dtype=np_dtype, order="C")
               for name, arr in model.params.items()}
    ckpt = Checkpoint(config=model.config, tensors=tensors, metadata=dict(metadata or {}))
    ckpt.validate()
    return ckpt


def _attn_slots(i: int) -> list[str]:
    """Layer i's attention weight names, in :func:`_attn_fwd` argument order."""
    return [f"layers.{i}.attn.{name}" for name in ("wq", "wk", "wv", "wo")]


def _check_tokens(model: ToyLm, tokens) -> np.ndarray:
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValidationError(f"tokens must be a 1D or 2D index array, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() >= model.config.vocab_size:
        raise ValidationError(
            f"token id out of range [0, {model.config.vocab_size})")
    if arr.shape[1] > model.max_positions:
        raise ValidationError(
            f"sequence length {arr.shape[1]} exceeds position table ({model.max_positions})")
    return arr


def forward_cache(model: ToyLm, tokens, *, keep_activations: bool = True) -> dict:
    """Forward pass; keeps every activation the backward pass needs, unless told not to.

    Returns a dict with ``tokens`` (the (B, T) ids), ``routing`` (each MoE
    layer's (B*T, ·) :class:`LayerRouting`; empty for a dense model) and
    ``logits``. With ``keep_activations`` (the default) it also has ``loss``,
    ``layer_caches`` (one :class:`LayerCache` per layer, whose ``ffn`` is an
    :class:`MoeCache` in an MoE model), ``ln_final`` and ``h_final``.
    :func:`backward_from_cache` uses such a cache up: it frees each activation
    at its last use. Take the routing trace with :func:`trace_from_cache`
    before running backward, and run this again for another backward pass.

    With ``keep_activations=False`` no backward can follow, so nothing else is
    kept: each layer's activations die as the pass moves on, and inside an MoE
    layer each expert's tensors die before the next expert runs. Logits and
    routing are bitwise those of the default pass. No loss is computed: a
    caller that needs one takes it from the logits with :func:`token_losses`
    or :func:`next_token_loss`, which gives the default pass's loss bitwise.
    Evaluation and routing traces use this form.
    """
    setup_process()  # passes reuse the memory earlier passes freed
    cfg = model.config
    p = model.params
    tok = _check_tokens(model, tokens)
    b, t = tok.shape

    x = p["embedding.token"][tok] + p[POSITION_SLOT][None, :t, :]
    layer_caches, routings = [], []
    for i in range(cfg.num_layers):
        h, ln1 = _layernorm_fwd(x, p[f"layers.{i}.attn_norm"])
        attn_out, attn_cache = _attn_fwd(h, *(p[name] for name in _attn_slots(i)),
                                         cfg.num_heads, cfg.head_dim)
        x = x + attn_out
        h2, ln2 = _layernorm_fwd(x, p[f"layers.{i}.ffn_norm"])
        flat = h2.reshape(b * t, -1)
        if cfg.is_moe:
            weights = model.layer_moe(i)
            y, routing, ffn_cache = _moe_fwd(weights, flat, cfg.top_k, keep_activations, t)
            routings.append(routing)
        else:
            weights = model.layer_ffn(i)
            y, ffn_cache = _ffn_fwd(weights, flat, t)
        x = x + y.reshape(b, t, -1)
        if keep_activations:
            layer_caches.append(LayerCache(ln1, attn_cache, ln2, ffn_cache, weights))
        # Unless kept, this layer's activations die before the next layer runs.
        del h, ln1, attn_out, attn_cache, h2, ln2, flat, y, ffn_cache

    h_final, ln_final = _layernorm_fwd(x, p["final_norm"])
    logits = h_final @ p["head.out"]

    result = {"tokens": tok, "routing": routings, "logits": logits}
    if keep_activations:
        result |= {"loss": next_token_loss(logits, tok), "layer_caches": layer_caches,
                   "ln_final": ln_final, "h_final": h_final}
    return result


def token_losses(logits: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Next-token cross entropy of (B, T) ``tokens`` under their (B, T, vocab)
    ``logits``: the (B, T - 1) losses of the first T - 1 positions of each
    sequence, as one C-contiguous array.

    Each token's loss depends on its own row of logits alone, so the losses of
    sequences ``a:b`` are bitwise the same whether their logits come from a
    pass over them alone or are rows of a longer pass.
    """
    pred = logits[:, :-1, :]
    shifted = pred - np.max(pred, axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1))
    picked = np.take_along_axis(shifted, tokens[:, 1:, None], axis=-1)[..., 0]
    return logz - picked


def next_token_loss(logits: np.ndarray, tokens: np.ndarray) -> float:
    """Mean of :func:`token_losses`, in order; a single-position sequence has
    no targets and its loss is defined as 0. The mean over sequences stacked
    from several passes' losses is bitwise that of one pass over them all."""
    if tokens.shape[1] < 2:
        return 0.0
    return float(np.mean(token_losses(logits, tokens)))


def _require_unused(cache: dict) -> None:
    """Reject a cache that :func:`backward_from_cache` has used up."""
    if cache["logits"] is None or any(layer is None for layer in cache.get("layer_caches", ())):
        raise ValidationError("forward cache already used up by backward_from_cache; "
                              "run forward_cache again; call trace_from_cache first")


def trace_from_cache(model: ToyLm, cache: dict, domains=None) -> RoutingTrace:
    """Routing trace of a :func:`forward_cache` result that backward has not used up.

    Works on either kind of result, with or without kept activations.
    """
    _require_unused(cache)
    cfg = model.config
    b, t = cache["tokens"].shape
    trace = RoutingTrace(num_experts=cfg.routed_experts, top_k=cfg.top_k,
                         domains=list(domains) if domains is not None else None)
    if trace.domains is not None and len(trace.domains) != b:
        raise ValidationError(f"got {len(trace.domains)} domain labels for batch of {b}")
    for routing in cache["routing"]:
        trace.layers.append(LayerRouting(
            selected=routing.selected.reshape(b, t, -1),
            gates=routing.gates.reshape(b, t, -1),
            probs=routing.probs.reshape(b, t, -1),
        ))
    return trace


def lm_forward(model: ToyLm, tokens, domains=None) -> LmOutput:
    """Run the toy LM; returns logits, the routing trace, and the LM loss."""
    cache = forward_cache(model, tokens, keep_activations=False)
    return LmOutput(logits=cache["logits"],
                    trace=trace_from_cache(model, cache, domains),
                    loss=next_token_loss(cache["logits"], cache["tokens"]))


def _head_bwd(p: dict[str, np.ndarray], cache: dict, grads: dict[str, np.ndarray]):
    """Backward through the loss, output head and final norm; returns d(x).

    Takes the head's activations out of ``cache``, so they die on return.
    """
    tok = cache["tokens"]
    b, t = tok.shape
    logits, h_final, ln_final = cache["logits"], cache["h_final"], cache["ln_final"]
    cache["logits"] = cache["h_final"] = cache["ln_final"] = None
    d_logits = np.zeros_like(logits)
    if t > 1:
        pred = logits[:, :-1, :]
        probs = softmax(pred, axis=-1)
        onehot = np.zeros_like(pred)
        np.put_along_axis(onehot, tok[:, 1:, None], 1.0, axis=-1)
        d_logits[:, :-1, :] = (probs - onehot) / (b * (t - 1))

    grads["head.out"] = h_final.reshape(b * t, -1).T @ d_logits.reshape(b * t, -1)
    d_h_final = d_logits @ p["head.out"].T
    dx, grads["final_norm"] = _layernorm_bwd(ln_final, d_h_final)
    return dx


def backward_from_cache(model: ToyLm, cache: dict,
                         router_prob_grads: list[np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Gradients of the LM loss from a :func:`forward_cache` result.

    Backward uses the cache up, so that activations die at their last use:
    the head's ``logits`` and ``h_final`` go once the head gradient is taken,
    each layer's :class:`LayerCache` (top layer first) once that layer's
    backward has run, and within an MoE layer each expert's entry of the
    :class:`MoeCache` once that expert's backward has run. A used-up cache
    raises ``ValidationError``, as does a cache made with
    ``keep_activations=False``; run :func:`forward_cache` again, and take any
    routing trace before this.
    ``router_prob_grads`` is as for :func:`lm_backward`: one (n,) vector per
    layer, applied to every token.
    """
    if "layer_caches" not in cache:
        raise ValidationError("forward cache keeps no activations (keep_activations=False); "
                              "backward needs a forward_cache(model, tokens) result")
    _require_unused(cache)
    cfg = model.config
    p = model.params
    tok = cache["tokens"]
    b, t = tok.shape
    # Every tensor's gradient comes from exactly one place below, so each is
    # assigned rather than accumulated into a zero-filled buffer. The two
    # embeddings are the exception: they scatter-add into zeros.
    grads: dict[str, np.ndarray] = {}
    dx = _head_bwd(p, cache, grads)

    for i in reversed(range(cfg.num_layers)):
        # Taken out of the cache: this layer's activations die when the loop
        # moves on to the layer below.
        layer = cache["layer_caches"][i]
        cache["layer_caches"][i] = None
        dsub = dx.reshape(b * t, -1)
        if cfg.is_moe:
            cache["routing"][i] = None  # the MoeCache holds the only other reference
            d_probs = None if router_prob_grads is None else router_prob_grads[i]
            dh2_flat, d_router, expert_grads, shared_grads = _moe_bwd(
                layer.weights, layer.ffn, dsub, d_probs, t)
            grads[f"layers.{i}.router"] = d_router
            for e, expert_grad in enumerate(expert_grads):
                grads.update(zip(ffn_slot_names(f"layers.{i}.experts.{e}"), expert_grad))
            for j, shared_grad in enumerate(shared_grads):
                grads.update(zip(ffn_slot_names(f"layers.{i}.shared.{j}"), shared_grad))
        else:
            dh2_flat, *ffn_grad = _ffn_bwd(layer.weights, layer.ffn, dsub, t)
            grads.update(zip(ffn_slot_names(f"layers.{i}.ffn"), ffn_grad))
        dh2 = dh2_flat.reshape(b, t, -1)
        dx_ffn, grads[f"layers.{i}.ffn_norm"] = _layernorm_bwd(layer.ffn_norm, dh2)
        dx = dx + dx_ffn

        attn_slots = _attn_slots(i)
        dh_attn, *attn_grads = _attn_bwd(layer.attn, *(p[name] for name in attn_slots), dx)
        grads.update(zip(attn_slots, attn_grads))
        dx_attn, grads[f"layers.{i}.attn_norm"] = _layernorm_bwd(layer.attn_norm, dh_attn)
        dx = dx + dx_attn

    grads["embedding.token"] = np.zeros_like(p["embedding.token"])
    np.add.at(grads["embedding.token"], tok.reshape(-1), dx.reshape(b * t, -1))
    grads[POSITION_SLOT] = np.zeros_like(p[POSITION_SLOT])
    grads[POSITION_SLOT][:t] += dx.sum(axis=0)
    return grads


def lm_backward(model: ToyLm, tokens,
                router_prob_grads: list[np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Gradients of the LM loss for every parameter tensor.

    ``router_prob_grads`` optionally adds, per layer of an MoE model, an
    upstream gradient on the full router softmax: one (n,) vector per layer,
    the same for every token. The trainer uses this to inject the
    load-balancing term. The forward cache is used up by the backward pass,
    which frees each activation at its last use.
    """
    cache = forward_cache(model, tokens)
    return backward_from_cache(model, cache, router_prob_grads)
