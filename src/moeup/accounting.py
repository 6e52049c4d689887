"""Parameter and forward-FLOPs accounting.

Counting follows the architecture the configs describe (rotary positions, so
no positional parameters; untied embedding and output head; two norm scale
vectors per layer plus a final one; bias-free projections). The toy model's
learned position table is a training-time extra and is deliberately excluded.

FLOPs use the 2*m*k*n matmul convention (multiply + add) and count, per
sequence of length s:

    embeddings            2 s v d_h
    key/value projections 4 s d_h d_k n_q        (per layer)
    query projections     2 s d_h d_k n_h        (per layer)
    query-key logits      2 s^2 d_k n_h          (per layer)
    attention matrix      2 s^2 d_k n_h          (per layer)
    softmax-value reduce  2 s d_k n_h d_h        (per layer)
    ffn                   6 s d_h d_f            (per layer, dense)
                          n_e * 6 s d_h d_f      (per layer, MoE; n_e experts
                                                  of width d_f run per token)
    final logits          2 s d_h v

Elementwise work (gating nonlinearity, Hadamard products, router softmax,
norms) is omitted, embeddings are charged as a full matmul, and the attention
s^2 terms use the full square matrix with no causal discount: this models a
standard accounting convention, not hardware truth. Backward is approximated
as twice the forward cost, so training charges 3x forward per token.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .config import ModelConfig, ValidationError

TRAINING_FLOPS_FACTOR = 3  # forward + ~2x forward for backward


@dataclass(frozen=True)
class ParamBreakdown:
    """Exact integer parameter counts; ``active`` counts what one token touches."""

    embeddings: int
    attention: int
    ffn_or_experts: int
    router: int
    norms: int
    output_head: int
    total: int
    active: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FlopsBreakdown:
    """Forward FLOPs for one sequence of ``seq_len`` tokens.

    Attention and FFN fields are per layer; ``total_forward`` multiplies them
    by the layer count and adds embeddings and final logits.
    ``training_per_token`` is 3x the forward cost of a single token.
    """

    seq_len: int
    embeddings: int
    kv_proj: int
    q_proj: int
    qk_logits: int
    attn_matrix: int
    softmax_value: int
    ffn: int
    final_logits: int
    total_forward: int
    training_per_token: int

    def to_dict(self) -> dict:
        return asdict(self)


def count_params(config: ModelConfig) -> ParamBreakdown:
    """Exact parameter counts implied by the config."""
    d_h = config.hidden_size
    embeddings = config.vocab_size * d_h
    output_head = d_h * config.vocab_size
    attn_per_layer = 2 * d_h * config.head_dim * (config.num_heads + config.num_query_groups)
    attention = config.num_layers * attn_per_layer
    norms = (2 * config.num_layers + 1) * d_h

    if config.is_moe:
        expert_params = 3 * d_h * config.expert_intermediate
        experts_per_layer = config.routed_experts + config.shared_experts
        ffn_or_experts = config.num_layers * experts_per_layer * expert_params
        router = config.num_layers * d_h * config.routed_experts
        active_ffn = config.num_layers * (config.top_k + config.shared_experts) * expert_params
    else:
        ffn_or_experts = config.num_layers * 3 * d_h * config.intermediate_size
        router = 0
        active_ffn = ffn_or_experts

    total = embeddings + attention + ffn_or_experts + router + norms + output_head
    active = embeddings + attention + active_ffn + router + norms + output_head
    return ParamBreakdown(
        embeddings=embeddings, attention=attention, ffn_or_experts=ffn_or_experts,
        router=router, norms=norms, output_head=output_head, total=total, active=active,
    )


def flops_forward(config: ModelConfig, seq_len: int | None = None) -> FlopsBreakdown:
    """Forward FLOPs for one sequence (defaults to the config's seq_len)."""
    s = config.seq_len if seq_len is None else int(seq_len)
    if s < 0:
        raise ValidationError(f"seq_len must be >= 0, got {seq_len}")
    d_h, d_k = config.hidden_size, config.head_dim
    n_h, n_q = config.num_heads, config.num_query_groups

    embeddings = 2 * s * config.vocab_size * d_h
    kv_proj = 4 * s * d_h * d_k * n_q
    q_proj = 2 * s * d_h * d_k * n_h
    qk_logits = 2 * s * s * d_k * n_h
    attn_matrix = 2 * s * s * d_k * n_h
    softmax_value = 2 * s * d_k * n_h * d_h
    if config.is_moe:
        active_width = (config.top_k + config.shared_experts) * config.expert_intermediate
    else:
        active_width = config.intermediate_size
    ffn = 6 * s * d_h * active_width
    final_logits = 2 * s * d_h * config.vocab_size

    attention = kv_proj + q_proj + qk_logits + attn_matrix + softmax_value
    total_forward = embeddings + config.num_layers * (attention + ffn) + final_logits
    training_per_token = 0 if s == 0 else TRAINING_FLOPS_FACTOR * (total_forward // s)
    return FlopsBreakdown(
        seq_len=s, embeddings=embeddings, kv_proj=kv_proj, q_proj=q_proj,
        qk_logits=qk_logits, attn_matrix=attn_matrix, softmax_value=softmax_value,
        ffn=ffn, final_logits=final_logits, total_forward=total_forward,
        training_per_token=training_per_token,
    )


def training_flops(config: ModelConfig, total_tokens: int | float) -> float:
    """Total training FLOPs: 3x forward per token times the token budget."""
    if not 0 <= total_tokens < float("inf"):  # NaN fails too
        raise ValidationError(f"total_tokens must be finite and >= 0, got {total_tokens}")
    breakdown = flops_forward(config)
    return float(breakdown.training_per_token) * float(total_tokens)


def format_flops_table(breakdown: FlopsBreakdown, num_layers: int) -> str:
    """Aligned text rendering of a FLOPs breakdown (per-layer rows noted)."""
    rows = [
        ("embeddings", breakdown.embeddings, ""),
        ("kv projections", breakdown.kv_proj, "per layer"),
        ("q projections", breakdown.q_proj, "per layer"),
        ("qk logits", breakdown.qk_logits, "per layer"),
        ("attention matrix", breakdown.attn_matrix, "per layer"),
        ("softmax-value", breakdown.softmax_value, "per layer"),
        ("ffn", breakdown.ffn, "per layer"),
        ("final logits", breakdown.final_logits, ""),
        (f"total forward (x{num_layers} layers)", breakdown.total_forward, ""),
        ("training per token", breakdown.training_per_token, ""),
    ]
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{name:<{width}}  {value:>22,}  {note}".rstrip() for name, value, note in rows]
    return "\n".join(lines)
