"""The fast kernels against their plain out-of-place forms, bit for bit.

The forward and optimizer kernels work in place and avoid data-dependent
selects, but keep every floating-point operation of the straightforward form
in ``reference_impl``. Training must therefore reproduce exactly.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from moeup import model as model_mod
from moeup import trainer as trainer_mod
from moeup.corpus import VOCAB_SIZE, default_corpus
from moeup.model import (
    FfnWeights,
    MoeLayerWeights,
    _attn_bwd,
    _attn_fwd,
    _ffn_bwd,
    _ffn_fwd,
    _layernorm_fwd,
    _moe_bwd,
    _moe_fwd,
    _sigmoid,
    backward_from_cache,
    build_model,
    forward_cache,
    trace_from_cache,
)
from moeup.numerics import RngStream, softmax
from moeup.trainer import AdamWState, TrainConfig, adamw_step, clip_gradients, cosine_lr, train

from conftest import random_checkpoint, tiny_dense_config, tiny_moe_config
from reference_impl import (
    ref_adamw_step,
    ref_attn_bwd,
    ref_attn_fwd,
    ref_balance_loss_and_grads,
    ref_clip_gradients,
    ref_ffn_bwd,
    ref_ffn_fwd,
    ref_layernorm_fwd,
    ref_sigmoid_array,
    ref_softmax_array,
)

_TINY = 5e-324  # smallest subnormal
EDGE_VALUES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 36.7, -36.7,
    709.0, -709.0, 745.0, -745.0, -745.2, -746.0, -1000.0, 1e-300, -1e-300,
    _TINY, -_TINY, np.finfo(np.float64).max, -np.finfo(np.float64).max,
])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sigmoid_edge_values_bitwise():
    assert _same_bits(_sigmoid(EDGE_VALUES), ref_sigmoid_array(EDGE_VALUES))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigmoid_random_bitwise(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=10.0, size=(96, 65))
    z[rng.random(z.shape) < 0.05] = 0.0
    assert _same_bits(_sigmoid(z), ref_sigmoid_array(z))
    assert _same_bits(_sigmoid(z[0]), ref_sigmoid_array(z[0]))


@pytest.mark.parametrize("axis", [-1, 0])
def test_softmax_bitwise(axis):
    rng = np.random.default_rng(3)
    values = rng.normal(scale=30.0, size=(40, 17))
    values[rng.random(values.shape) < 0.3] = -np.inf
    values[:, 0] = 1.5  # keep at least one finite entry per row and column
    values[0, :] = 1.5
    values[5] = 2.0  # a row of equal entries
    assert _same_bits(softmax(values, axis=axis), ref_softmax_array(values, axis=axis))


@pytest.mark.parametrize("t", [1, 2, 7, 16])
@pytest.mark.parametrize("overflow", [False, True])
def test_masked_attention_bitwise(t, overflow):
    rng = np.random.default_rng(t)
    n_heads, head_dim = 2, 8
    d_h = n_heads * head_dim
    h = rng.normal(size=(3, t, d_h))
    if overflow:  # infinite scores against the last key, which earlier queries must not see
        h[:, -1, :] = 1e200
    weights = [rng.normal(scale=0.5, size=(d_h, d_h)) for _ in range(4)]
    with np.errstate(over="ignore", invalid="ignore"):
        out, cache = _attn_fwd(h, *weights, n_heads, head_dim)
        ref_out, ref_cache = ref_attn_fwd(h, *weights, n_heads, head_dim)
    assert _same_bits(out, ref_out)
    for got, want in zip(cache[:-1], ref_cache[:-1]):
        assert _same_bits(got, want)
    assert cache[-1] == ref_cache[-1]
    assert np.all(np.isfinite(cache[4][:, :, :-1]))


def test_layernorm_bitwise():
    rng = np.random.default_rng(4)
    x = rng.normal(scale=3.0, size=(2, 9, 16))
    g = rng.normal(size=16)
    y, (xhat, inv_std, _) = _layernorm_fwd(x, g)
    ref_y, (ref_xhat, ref_inv_std, _) = ref_layernorm_fwd(x, g)
    assert _same_bits(y, ref_y)
    assert _same_bits(xhat, ref_xhat)
    assert _same_bits(inv_std, ref_inv_std)


def test_ffn_backward_bitwise():
    rng = np.random.default_rng(5)
    w = FfnWeights(*(rng.normal(scale=0.4, size=s) for s in ((16, 32), (16, 32), (32, 16))))
    x = rng.normal(size=(24, 16))
    dy = rng.normal(size=(24, 16))
    _, cache = _ffn_fwd(w, x)
    # _ffn_bwd uses its cache up, so it gets copies and the reference the original.
    want = ref_ffn_bwd(w, cache, dy)
    # A cache that ends with sig, act and prod rebuilt, as a routed expert's
    # backward passes it, gives the same bits.
    rebuilt = model_mod._act_prod(*cache[1:])
    assert len(cache) == len(rebuilt) == 3
    for extra in ((), rebuilt):
        copies = [a.copy() for a in (*cache, *extra)]
        got = _ffn_bwd(w, copies, dy)
        assert len(copies) == (0 if extra else 3)  # a 6-array list is emptied
        assert len(got) == len(want) == 4
        for g, r in zip(got, want):
            assert _same_bits(g, r)


def _tiled_ffn_case():
    """An FFN of width 512 over 9 sequences of 64 tokens, which run in two
    tiles of 8 sequences and of 1."""
    b, t, d_h, width = 9, 64, 64, 512
    assert model_mod._tiles(b * t, t, width) == [slice(0, 512), slice(512, 576)]
    rng = np.random.default_rng(9)
    w = FfnWeights(*(rng.normal(scale=0.2, size=s) for s in ((d_h, width), (d_h, width),
                                                             (width, d_h))))
    x, dy = rng.normal(size=(2, b * t, d_h))
    return w, x, dy, t


@pytest.mark.parametrize("tiled", [False, True], ids=["whole", "tiled"])
def test_rebuilt_sig_act_prod_are_the_forwards(tiled, monkeypatch):
    """The forward computes ``sig`` in the buffer that then becomes ``act``
    and ``prod``, and keeps none of them; :func:`_act_prod` rebuilds all
    three from the kept ``(gate_pre, up_out)`` with the bits the forward had.
    The forward's ``sig`` is captured as its ``_sigmoid`` call returns, and
    its ``prod`` as that buffer's final contents."""
    monkeypatch.setenv("MOEUP_THREADS", "2")
    w, x, _, t = _tiled_ffn_case()
    calls = []
    real = model_mod._sigmoid

    def sigmoid(z, out=None):
        result = real(z, out)
        calls.append((z.ctypes.data, result, result.copy()))
        return result

    monkeypatch.setattr(model_mod, "_sigmoid", sigmoid)
    y, cache = _ffn_fwd(w, x, t if tiled else None)
    assert len(cache) == 3
    _, gate_pre, up_out = cache
    calls.sort(key=lambda call: call[0])  # tiles in row order
    assert len(calls) == (2 if tiled else 1) and calls[0][0] == gate_pre.ctypes.data
    fwd_sig = np.concatenate([sig for _, _, sig in calls])
    fwd_prod = np.concatenate([buffer for _, buffer, _ in calls])
    calls.clear()
    sig, act, prod = model_mod._act_prod(gate_pre, up_out)
    assert len(calls) == 1  # the forward's own _sigmoid
    assert _same_bits(sig, fwd_sig) and _same_bits(prod, fwd_prod)
    assert _same_bits(act, gate_pre * fwd_sig)
    assert _same_bits(prod @ w.down, y)


def test_tiled_ffn_backward_on_the_pool_matches_one_thread(monkeypatch):
    """A dense FFN backward over two tiles rebuilds ``sig``, ``act`` and
    ``prod`` tile by tile, on the pool at two threads, and its gradients
    have the bits of the one-thread run and of the whole-batch reference."""
    w, x, dy, t = _tiled_ffn_case()
    want = ref_ffn_bwd(w, ref_ffn_fwd(w, x)[1], dy)
    real = model_mod._act_prod
    threads = []

    def act_prod(*args):
        threads.append(threading.current_thread() is threading.main_thread())
        return real(*args)

    monkeypatch.setattr(model_mod, "_act_prod", act_prod)
    got = {}
    for count in ("1", "2"):
        monkeypatch.setenv("MOEUP_THREADS", count)
        threads.clear()
        got[count] = _ffn_bwd(w, _ffn_fwd(w, x, t)[1], dy, t)
        assert threads == [count == "1"] * 2  # one rebuild per tile
    for one, two, ref in zip(got["1"], got["2"], want, strict=True):
        assert _same_bits(one, ref) and _same_bits(two, ref)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_tiled_attention_and_ffn_match_whole_batch(threads, monkeypatch):
    """Attention and the FFN over 9 sequences of 64 tokens run in two tiles,
    of 8 sequences and of 1 (a 64-row tail), and give the bits of the
    whole-batch forms, forward and backward, on one thread or two. At 8 heads
    and FFN width 512 even the tail tile is big enough for the pool. Equality
    rests on OpenBLAS giving a GEMM's rows the same bits whatever the row
    count, which held for pieces of 64 rows or more."""
    monkeypatch.setenv("MOEUP_THREADS", threads)
    b, t, n_heads, head_dim, width = 9, 64, 8, 8, 512
    d_h = n_heads * head_dim
    assert model_mod._tiles(b * t, t, n_heads * t) == [slice(0, 512), slice(512, 576)]
    assert model_mod._tiles(b * t, t, width) == [slice(0, 512), slice(512, 576)]
    rng = np.random.default_rng(8)
    h, dy = rng.normal(size=(2, b, t, d_h))
    weights = [rng.normal(scale=0.3, size=(d_h, d_h)) for _ in range(4)]

    out, cache = _attn_fwd(h, *weights, n_heads, head_dim)
    ref_out, ref_cache = ref_attn_fwd(h, *weights, n_heads, head_dim)
    assert _same_bits(out, ref_out)
    for got, want in zip(cache[:-1], ref_cache[:-1], strict=True):
        assert _same_bits(got, want)
    for got, want in zip(_attn_bwd(cache, *weights, dy), ref_attn_bwd(ref_cache, *weights, dy),
                         strict=True):
        assert _same_bits(got, want)

    w = FfnWeights(*(rng.normal(scale=0.2, size=s) for s in ((d_h, width), (d_h, width),
                                                             (width, d_h))))
    x, dy = h.reshape(b * t, d_h), dy.reshape(b * t, d_h)
    y, cache = _ffn_fwd(w, x, t)
    ref_y, ref_cache = ref_ffn_fwd(w, x)
    assert _same_bits(y, ref_y)
    for got, want in zip(cache, ref_cache, strict=True):
        assert _same_bits(got, want)
    for got, want in zip(_ffn_bwd(w, cache, dy, t), ref_ffn_bwd(w, ref_cache, dy), strict=True):
        assert _same_bits(got, want)


def _lone_row_layer():
    """Four experts of width 256 over 20 rows of width 64. Expert 3 takes
    exactly the rows whose feature 0 is positive: row 0, and rows 17-19."""
    rng = np.random.default_rng(5)
    d_h, width = 64, 256
    experts = [FfnWeights(*(0.1 * rng.standard_normal(shape)
                            for shape in ((d_h, width), (d_h, width), (width, d_h))))
               for _ in range(4)]
    router = 0.1 * rng.standard_normal((d_h, 4))
    router[:, 3] = 0.0
    router[0, 3] = 100.0
    x = rng.standard_normal((20, d_h))
    x[:, 0] = -1.0
    x[[0, 17, 18, 19], 0] = 1.0
    return MoeLayerWeights(router, experts), x


@pytest.mark.parametrize("keep", [False, True])
def test_one_row_expert_bits_do_not_depend_on_the_tile(keep):
    """Expert 3 is routed only the first token of a 16-token tile, and three
    more tokens in a longer forward. That token's output has the same bits in
    both: a one-row product would take BLAS's one-row kernel instead."""
    weights, x = _lone_row_layer()
    tile, _, _ = _moe_fwd(weights, x[:16], 2, keep=keep)
    longer, routing, _ = _moe_fwd(weights, x, 2, keep=keep)
    assert np.count_nonzero(routing.selected[:16] == 3) == 1
    assert np.count_nonzero(routing.selected == 3) == 4
    assert _same_bits(tile, longer[:16])


def test_lone_row_gradients_match_its_forward_output(monkeypatch):
    """Expert 3 is chosen by one row of 16. Backward rebuilds its output from
    ``prod``, the lone row run as two as in the forward, with the bits of the
    forward's own output; the gate gradient is a function of that output and
    ``dy``. The input, router and weight gradients have the bits of a
    backward that reads the forward's own outputs. (Rebuilt as one row, the
    output differs in its last bits.)"""
    weights, x = _lone_row_layer()
    x = x[:16]
    dy = np.random.default_rng(6).standard_normal(x.shape)
    outputs = {}
    real = model_mod._ffn_fwd

    def ffn_fwd(w, rows, *seq_len):
        y, cache = real(w, rows, *seq_len)
        outputs[id(w.gate)] = y.copy()  # before the expert weights it in place
        return y, cache

    monkeypatch.setattr(model_mod, "_ffn_fwd", ffn_fwd)
    _, routing, cache = _moe_fwd(weights, x, 2)
    assert np.count_nonzero(routing.selected == 3) == 1
    assert len(outputs[id(weights.experts[3].gate)]) == 2  # the lone row, run as two
    idx, kept = cache.experts[3]
    lone = model_mod._expert_output(weights.experts[3], model_mod._act_prod(*kept)[2])
    assert idx.size == 1 and _same_bits(lone, outputs[id(weights.experts[3].gate)][:1])
    got = _moe_bwd(weights, cache, dy, None)

    used = []

    def forward_output(w, prod):
        used.append(id(w.gate))
        return outputs[id(w.gate)][:len(prod)]

    monkeypatch.setattr(model_mod, "_expert_output", forward_output)
    want = _moe_bwd(weights, _moe_fwd(weights, x, 2)[2], dy, None)
    assert sorted(used) == sorted(id(w.gate) for w in weights.experts)
    (dx, d_router, expert_grads, _), (ref_dx, ref_router, ref_grads, _) = got, want
    assert _same_bits(dx, ref_dx) and _same_bits(d_router, ref_router)
    for grads, ref in zip(expert_grads, ref_grads, strict=True):
        assert all(_same_bits(g, r) for g, r in zip(grads, ref, strict=True))


def test_clip_and_adamw_bitwise():
    rng = np.random.default_rng(6)
    cfg = TrainConfig(max_lr=1e-2, min_lr=1e-3, total_steps=4, weight_decay=0.1)
    shapes = {"a": (5, 3), "b": (7,), "c": (2, 2, 2)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    ref_params = {k: p.copy() for k, p in params.items()}
    state = AdamWState.for_params(params)
    ref_m = {k: np.zeros_like(p) for k, p in params.items()}
    ref_v = {k: np.zeros_like(p) for k, p in params.items()}
    for step in range(4):
        grads = {k: rng.normal(scale=2.0, size=s) for k, s in shapes.items()}
        grads["b"][:3] = 0.0
        ref_grads = {k: g.copy() for k, g in grads.items()}
        assert clip_gradients(grads, 0.5) == ref_clip_gradients(ref_grads, 0.5)
        lr = cosine_lr(step, cfg)
        adamw_step(params, grads, state, lr, cfg)
        ref_adamw_step(ref_params, ref_grads, ref_m, ref_v, step + 1, lr, cfg)
        for k in shapes:
            assert _same_bits(grads[k], ref_grads[k]), k
            assert _same_bits(params[k], ref_params[k]), k
            assert _same_bits(state.m[k], ref_m[k]), k
            assert _same_bits(state.v[k], ref_v[k]), k


def _reference_train(model, corpus, config: TrainConfig) -> list[float]:
    """``train`` spelled out with the reference kernels and out-of-place updates.

    Gradients are rebuilt as ``zeros + grad``, the zero-filled accumulation
    that ``backward_from_cache`` once used. The balancing term comes from the
    two-pass reference and reaches backward as a full (B * T, n) array per
    layer, where the trainer passes one (n,) vector. Returns the balance
    loss of each step.
    """
    use_balance = config.balance_mode != "off" and model.config.is_moe
    balance_losses = []
    stream = RngStream(config.seed)
    params = model.params
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for step in range(config.total_steps):
        tokens = trainer_mod._sample_batch(corpus, config, stream, step)
        cache = forward_cache(model, tokens)
        balance_loss, prob_grads = 0.0, None
        if use_balance:
            balance_loss, prob_grads = ref_balance_loss_and_grads(
                trace_from_cache(model, cache), config.balance_mode, config.balance_coeff)
            b, t = tokens.shape
            prob_grads = [g.reshape(b * t, -1) for g in prob_grads]
        balance_losses.append(balance_loss)
        grads = backward_from_cache(model, cache, prob_grads)
        assert set(grads) == set(params)
        grads = {k: np.zeros_like(g) + g for k, g in grads.items()}
        ref_clip_gradients(grads, config.grad_clip)
        ref_adamw_step(params, grads, m, v, step + 1, cosine_lr(step, config), config)
    return balance_losses


@pytest.mark.parametrize("config, balance_mode", [
    (tiny_dense_config(vocab=VOCAB_SIZE), "global"),
    (tiny_moe_config(vocab=VOCAB_SIZE), "global"),
    (tiny_moe_config(vocab=VOCAB_SIZE, n=4, k=3, m=2, k_s=1), "global"),
    (tiny_moe_config(vocab=VOCAB_SIZE), "layerwise"),
    (tiny_moe_config(vocab=VOCAB_SIZE, n=4, k=3, m=2, k_s=1), "layerwise"),
], ids=["dense", "moe", "fine-grained-shared", "moe-layerwise",
        "fine-grained-shared-layerwise"])
def test_three_step_train_matches_reference_update(config, balance_mode, monkeypatch):
    corpus = default_corpus(seq_len=16, num_sequences=32)
    ckpt = random_checkpoint(config, seed=12)
    cfg = TrainConfig(max_lr=3e-3, min_lr=3e-4, total_steps=3, warmup_steps=1,
                      batch_size=4, seq_len=16, grad_clip=0.05, balance_mode=balance_mode,
                      seed=13)
    trained, curve = train(build_model(ckpt, max_positions=16, stream=RngStream(14)),
                           corpus, cfg)

    reference = build_model(ckpt, max_positions=16, stream=RngStream(14))
    monkeypatch.setattr(model_mod, "_sigmoid", ref_sigmoid_array)
    monkeypatch.setattr(model_mod, "softmax", ref_softmax_array)
    monkeypatch.setattr(model_mod, "_layernorm_fwd", ref_layernorm_fwd)
    monkeypatch.setattr(model_mod, "_attn_fwd", ref_attn_fwd)
    monkeypatch.setattr(model_mod, "_ffn_bwd", ref_ffn_bwd)
    balance_losses = _reference_train(reference, corpus, cfg)

    assert curve.losses("balance_loss").tolist() == balance_losses
    assert set(trained.params) == set(reference.params)
    for name, value in trained.params.items():
        assert _same_bits(value, reference.params[name]), name
        assert math.isfinite(float(np.sum(value)))
