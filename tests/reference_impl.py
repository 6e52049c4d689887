"""Straight-line oracle implementations, independent of the package's kernels.

Everything here is written as plain loops from the documented architecture
contract and is only used to cross-check the production code paths.
"""

from __future__ import annotations

import math

import numpy as np

from moeup.numerics import RngStream


def ref_sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def ref_swish(z: float) -> float:
    return z * ref_sigmoid(z)


def ref_ffn(gate: np.ndarray, up: np.ndarray, down: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gated FFN on one vector, scalar loops only."""
    d_h, width = gate.shape
    hidden = np.zeros(width)
    for j in range(width):
        g = sum(x[i] * gate[i, j] for i in range(d_h))
        u = sum(x[i] * up[i, j] for i in range(d_h))
        hidden[j] = ref_swish(g) * u
    out = np.zeros(d_h)
    for i in range(d_h):
        out[i] = sum(hidden[j] * down[j, i] for j in range(width))
    return out


def ref_softmax(v):
    m = max(v)
    e = [math.exp(x - m) for x in v]
    s = sum(e)
    return [x / s for x in e]


def ref_moe(router: np.ndarray, experts, x: np.ndarray, k: int):
    """Brute-force MoE: evaluate all experts, zero non-top-k gates, renormalize."""
    n = router.shape[1]
    logits = [sum(x[i] * router[i, e] for i in range(router.shape[0])) for e in range(n)]
    full = ref_softmax(logits)
    order = sorted(range(n), key=lambda e: (-logits[e], e))
    keep = set(order[:k])
    gates = [full[e] if e in keep else 0.0 for e in range(n)]
    total = sum(gates)
    gates = [g / total for g in gates]
    y = np.zeros(x.shape[0])
    for e in range(n):
        if gates[e] > 0.0:
            y += gates[e] * ref_ffn(*experts[e], x)
    return y, gates, sorted(keep)


def _ref_layernorm(v: np.ndarray, g: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    mu = float(np.mean(v))
    var = float(np.mean((v - mu) ** 2))
    return g * (v - mu) / math.sqrt(var + eps)


def ref_dense_lm_loss(params: dict, config, tokens: np.ndarray) -> float:
    """Next-token loss of the dense toy LM, one position at a time.

    Pre-norm blocks: x += attn(ln(x)); x += ffn(ln(x)); final norm; untied
    head; causal attention with 1/sqrt(head_dim) scaling; loss is the mean
    over the first T-1 positions.
    """
    t = tokens.shape[0]
    d_h = config.hidden_size
    n_h, d_k = config.num_heads, config.head_dim

    x = [params["embedding.token"][tokens[p]] + params["embedding.position"][p]
         for p in range(t)]
    for layer in range(config.num_layers):
        h = [_ref_layernorm(x[p], params[f"layers.{layer}.attn_norm"]) for p in range(t)]
        wq, wk = params[f"layers.{layer}.attn.wq"], params[f"layers.{layer}.attn.wk"]
        wv, wo = params[f"layers.{layer}.attn.wv"], params[f"layers.{layer}.attn.wo"]
        attn_out = []
        for p in range(t):
            merged = np.zeros(n_h * d_k)
            for head in range(n_h):
                sl = slice(head * d_k, (head + 1) * d_k)
                q = (h[p] @ wq)[sl]
                scores = []
                for src in range(p + 1):
                    key = (h[src] @ wk)[sl]
                    scores.append(float(q @ key) / math.sqrt(d_k))
                weights = ref_softmax(scores)
                ctx = np.zeros(d_k)
                for src in range(p + 1):
                    ctx += weights[src] * (h[src] @ wv)[sl]
                merged[sl] = ctx
            attn_out.append(merged @ wo)
        x = [x[p] + attn_out[p] for p in range(t)]

        h2 = [_ref_layernorm(x[p], params[f"layers.{layer}.ffn_norm"]) for p in range(t)]
        gate = params[f"layers.{layer}.ffn.gate"]
        up = params[f"layers.{layer}.ffn.up"]
        down = params[f"layers.{layer}.ffn.down"]
        x = [x[p] + ref_ffn(gate, up, down, h2[p]) for p in range(t)]

    losses = []
    for p in range(t - 1):
        final = _ref_layernorm(x[p], params["final_norm"])
        logits = final @ params["head.out"]
        probs = ref_softmax(list(logits))
        losses.append(-math.log(probs[tokens[p + 1]]))
    return sum(losses) / len(losses)


# ---------------------------------------------------------------------------
# Array kernels in their plain out-of-place form
#
# The package's kernels reorder memory traffic (in-place steps, a cached
# additive mask, a branch-free select) but must keep every floating-point
# operation. These are the straightforward forms they are checked against,
# bit for bit.
# ---------------------------------------------------------------------------

def ref_sigmoid_array(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    e = np.exp(-np.abs(z))
    result = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out is None:
        return result
    out[...] = result
    return out


def ref_softmax_array(values: np.ndarray, axis: int = -1) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def ref_layernorm_fwd(x: np.ndarray, g: np.ndarray, eps: float = 1e-6):
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return g * xhat, (xhat, inv_std, g)


def ref_split_heads(x: np.ndarray, n_heads: int, head_dim: int) -> np.ndarray:
    """(B, T, n_heads * head_dim) -> (B, n_heads, T, head_dim): head j takes the
    columns [j * head_dim, (j + 1) * head_dim)."""
    return np.stack([x[..., j * head_dim:(j + 1) * head_dim] for j in range(n_heads)], axis=1)


def ref_merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, n_heads, T, head_dim) -> (B, T, n_heads * head_dim), the inverse of
    :func:`ref_split_heads`."""
    return np.concatenate([x[:, j] for j in range(x.shape[1])], axis=-1)


def ref_attn_fwd(h, wq, wk, wv, wo, n_heads: int, head_dim: int):
    """Causal attention with an explicit boolean mask (same signature and cache)."""
    t = h.shape[1]
    q = ref_split_heads(h @ wq, n_heads, head_dim)
    k = ref_split_heads(h @ wk, n_heads, head_dim)
    v = ref_split_heads(h @ wv, n_heads, head_dim)
    scale = 1.0 / np.sqrt(head_dim)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    causal = np.triu(np.ones((t, t), dtype=bool), k=1)
    scores = np.where(causal, -np.inf, scores)
    attn = ref_softmax_array(scores, axis=-1)
    merged = ref_merge_heads(attn @ v)
    return merged @ wo, (h, q, k, v, attn, merged, scale)


def ref_attn_bwd(cache, wq, wk, wv, wo, dy: np.ndarray):
    """Attention backward over the whole batch at once, every step out of place."""
    h, q, k, v, attn, merged, scale = cache
    b, t, _ = h.shape
    n_heads, head_dim = q.shape[1], q.shape[3]
    h2 = h.reshape(b * t, -1)
    d_wo = merged.reshape(b * t, -1).T @ dy.reshape(b * t, -1)
    d_ctx = ref_split_heads(dy @ wo.T, n_heads, head_dim)
    d_attn = d_ctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ d_ctx
    inner = np.sum(attn * d_attn, axis=-1, keepdims=True)
    d_scores = attn * (d_attn - inner)
    dq = (d_scores @ k) * scale
    dk = (d_scores.transpose(0, 1, 3, 2) @ q) * scale
    dq2, dk2, dv2 = (ref_merge_heads(d).reshape(b * t, -1) for d in (dq, dk, dv))
    dh = (dq2 @ wq.T + dk2 @ wk.T + dv2 @ wv.T).reshape(b, t, -1)
    return dh, h2.T @ dq2, h2.T @ dk2, h2.T @ dv2, d_wo


def ref_ffn_fwd(w, x: np.ndarray):
    """Gated FFN over all rows at once, every step out of place; returns
    ``(y, (x, gate_pre, up_out))``."""
    gate_pre = x @ w.gate
    up_out = x @ w.up
    sig = ref_sigmoid_array(gate_pre)
    return (gate_pre * sig * up_out) @ w.down, (x, gate_pre, up_out)


def ref_ffn_bwd(w, cache, dy: np.ndarray, seq_len: int | None = None):
    """FFN backward from the ``(x, gate_pre, up_out)`` cache, every step out
    of place and over all rows at once: ``seq_len``, which tiles the
    package's kernel, is ignored. A cache that also carries the rebuilt
    ``sig``, ``act`` and ``prod``, as a routed expert's backward passes it,
    is read for its first three arrays only: the reference rebuilds the rest
    itself."""
    x, gate_pre, up_out = cache[:3]
    sig = ref_sigmoid_array(gate_pre)
    act = gate_pre * sig
    prod = act * up_out
    d_prod = dy @ w.down.T
    d_down = prod.T @ dy
    d_up_out = d_prod * act
    d_act = d_prod * up_out
    d_gate_pre = d_act * (sig * (1.0 + gate_pre * (1.0 - sig)))
    d_gate = x.T @ d_gate_pre
    d_up = x.T @ d_up_out
    dx = d_gate_pre @ w.gate.T + d_up_out @ w.up.T
    return dx, d_gate, d_up, d_down


def ref_clip_gradients(grads: dict, max_norm: float) -> float:
    """Global-norm clipping that replaces each gradient with a scaled copy."""
    total = 0.0
    for name in sorted(grads):
        total += float(np.sum(grads[name] ** 2))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for name in sorted(grads):
            grads[name] = grads[name] * scale
    return norm


def ref_adamw_step(params: dict, grads: dict, m: dict, v: dict, step: int,
                   lr: float, config) -> None:
    """AdamW with decoupled decay; ``step`` counts from 1. Replaces dict entries."""
    bc1 = 1.0 - config.beta1 ** step
    bc2 = 1.0 - config.beta2 ** step
    for name in sorted(params):
        g = grads[name]
        m[name] = config.beta1 * m[name] + (1.0 - config.beta1) * g
        v[name] = config.beta2 * v[name] + (1.0 - config.beta2) * (g * g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        params[name] = (params[name] * (1.0 - lr * config.weight_decay)
                        - lr * m_hat / (np.sqrt(v_hat) + config.eps))


def _ref_assignment_pools(trace, mode: str):
    """``(fractions, tokens, layers)`` per pooling group of the balancing loss."""
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


def ref_balance_loss_and_grads(trace, mode: str, coeff: float):
    """Balancing loss and d(coeff * loss)/d(probs) per layer, in two passes.

    The pools are built once for the loss and again for the gradients, and
    each layer's gradient is a full (B, T, n) array: the same row repeated
    for every token. ``mode`` is ``global`` or ``layerwise``.
    """
    n = trace.num_experts
    products = []
    for fractions, _, layers in _ref_assignment_pools(trace, mode):
        probs = np.concatenate([layer.probs.reshape(-1, n) for layer in layers], axis=0)
        products.append(float(n * (fractions @ probs.mean(axis=0))))
    loss = float(np.mean(products))
    if coeff == 0.0:
        return loss, None
    pools = _ref_assignment_pools(trace, mode)
    grads = []
    for fractions, tokens, layers in pools:
        vec = coeff * n * fractions / (len(pools) * tokens)
        grads.extend(np.broadcast_to(vec, layer.probs.shape).copy() for layer in layers)
    return loss, grads


def ref_bigram_table(stream: RngStream, lo: int) -> np.ndarray:
    """The 32 tokens from ``lo`` on, each with 4 distinct successors (absolute
    ids) from one draw without replacement per token."""
    g = stream.generator()
    return np.array([[lo + int(j) for j in g.choice(32, size=4, replace=False)]
                     for _ in range(32)], dtype=np.int64)


def ref_bigram_walk(g: np.random.Generator, table: np.ndarray, lo: int,
                    length: int) -> np.ndarray:
    """Bigram walk with one scalar draw per token."""
    seq = np.empty(length, dtype=np.int64)
    cur = lo + int(g.integers(table.shape[0]))
    seq[0] = cur
    for i in range(1, length):
        cur = int(table[cur - lo][g.integers(4)])
        seq[i] = cur
    return seq


def ref_code_walk(g: np.random.Generator, ident_tables: np.ndarray, length: int) -> np.ndarray:
    """Bracket stream with a nesting stack of depth at most 5, one scalar draw
    per value."""
    opens, closes = (64, 65, 66), (67, 68, 69)
    seq = np.empty(length, dtype=np.int64)
    stack: list[int] = []
    for i in range(length):
        u = g.random()
        if stack and u < 0.30:
            seq[i] = closes[stack.pop()]
        elif len(stack) < 5 and u < 0.55:
            kind = int(g.integers(len(opens)))
            stack.append(kind)
            seq[i] = opens[kind]
        else:
            row = ident_tables[stack[-1] if stack else 0]
            seq[i] = int(row[g.integers(row.shape[0])])
    return seq


def ref_synthetic_corpus(seed: int, num_sequences: int, seq_len: int,
                         domain_mix=(1.0, 1.0, 1.0), draw_seed: int | None = None):
    """``(sequences, domains)`` of the corpus format, from the scalar walks.

    The format: bigram tables from substreams (0,) and (1,) of ``seed``; the
    domain of every row from substream (2,) of ``draw_seed``; row r's walk
    from substream (3, r) of ``draw_seed``.
    """
    tables = [ref_bigram_table(RngStream(seed).child(0), 0),
              ref_bigram_table(RngStream(seed).child(1), 32)]
    ident_tables = np.arange(70, 94, dtype=np.int64).reshape(3, 8)
    weights = np.asarray(domain_mix, dtype=np.float64)
    draw_root = RngStream(seed if draw_seed is None else draw_seed)
    choices = draw_root.child(2).generator().choice(3, size=num_sequences,
                                                    p=weights / weights.sum())
    sequences = np.empty((num_sequences, seq_len), dtype=np.int64)
    for row, choice in enumerate(choices):
        g = draw_root.child(3, row).generator()
        if choice < 2:
            sequences[row] = ref_bigram_walk(g, tables[choice], 32 * choice, seq_len)
        else:
            sequences[row] = ref_code_walk(g, ident_tables, seq_len)
    return sequences, [("alpha", "beta", "code")[c] for c in choices]
