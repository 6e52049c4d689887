import math

import numpy as np
import pytest

from moeup import analysis, upcycle
from moeup import model as model_mod
from moeup import trainer as trainer_mod
from moeup.config import ValidationError
from moeup.corpus import VOCAB_SIZE, Corpus, default_corpus
from moeup.model import (
    EVAL_FORWARD_TOKENS,
    LayerRouting,
    RoutingTrace,
    backward_from_cache,
    build_model,
    forward_cache,
    lm_forward,
    sequence_tiles,
    trace_from_cache,
)
from moeup.numerics import RngStream
from moeup.trainer import (
    AdamWState,
    LossCurve,
    LossPoint,
    TrainConfig,
    TrainingDiverged,
    adamw_step,
    clip_gradients,
    cosine_lr,
    evaluate_loss,
    load_balance_loss,
    train,
)

from conftest import (
    make_config,
    random_checkpoint,
    tiny_moe_config,
    toy_dense_config,
    toy_moe_config,
)


def _cfg(**kw):
    base = dict(max_lr=1e-3, min_lr=1e-4, total_steps=10, batch_size=4, seq_len=16,
                balance_mode="off", seed=0)
    base.update(kw)
    return TrainConfig(**base)


def _toy_model(config, seed):
    ckpt = upcycle.from_scratch(config, seed=seed)
    return build_model(ckpt, max_positions=64, stream=RngStream(seed))


class TestCosineLr:
    def test_step_zero_is_max(self):
        cfg = _cfg(total_steps=100)
        assert cosine_lr(0, cfg) == cfg.max_lr

    def test_mid_decay_is_average(self):
        cfg = _cfg(total_steps=100)
        assert cosine_lr(50, cfg) == pytest.approx((cfg.max_lr + cfg.min_lr) / 2, abs=1e-12)

    def test_tail_is_constant_min(self):
        cfg = _cfg(total_steps=100, tail_steps=20)
        for step in (80, 90, 100):
            assert cosine_lr(step, cfg) == cfg.min_lr

    def test_warmup_ramps_to_max(self):
        cfg = _cfg(total_steps=100, warmup_steps=10)
        values = [cosine_lr(s, cfg) for s in range(10)]
        assert values == sorted(values)
        assert values[-1] == cfg.max_lr
        assert cosine_lr(10, cfg) == cfg.max_lr

    def test_out_of_range_step(self):
        with pytest.raises(ValidationError):
            cosine_lr(11, _cfg(total_steps=10))


def _make_trace(selected, probs, k, n):
    layers = [LayerRouting(selected=s, gates=np.take_along_axis(p, s, axis=-1), probs=p)
              for s, p in zip(selected, probs)]
    return RoutingTrace(num_experts=n, top_k=k, layers=layers)


class TestBalanceLoss:
    def test_uniform_routing_gives_one(self):
        # n tokens, each routed to a distinct pair; probabilities uniform.
        n, k, tokens = 4, 2, 8
        sel = np.array([[i % n, (i + 1) % n] for i in range(tokens)]).reshape(1, tokens, k)
        probs = np.full((1, tokens, n), 1.0 / n)
        trace = _make_trace([sel], [probs], k, n)
        assert load_balance_loss(trace, "layerwise") == pytest.approx(1.0, abs=1e-9)
        assert load_balance_loss(trace, "global") == pytest.approx(1.0, abs=1e-9)

    def test_collapsed_routing_gives_n(self):
        n, tokens = 6, 10
        sel = np.zeros((1, tokens, 1), dtype=np.int64)
        probs = np.zeros((1, tokens, n))
        probs[..., 0] = 1.0
        trace = _make_trace([sel], [probs], 1, n)
        assert load_balance_loss(trace, "global") == pytest.approx(float(n), abs=1e-9)

    def test_single_layer_global_equals_layerwise_bitwise(self):
        rng = np.random.default_rng(0)
        n, k, tokens = 5, 2, 64
        logits = rng.normal(size=(1, tokens, n))
        probs = np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)
        sel = np.sort(np.argsort(-logits, axis=-1)[..., :k], axis=-1)
        trace = _make_trace([sel], [probs], k, n)
        assert load_balance_loss(trace, "global") == load_balance_loss(trace, "layerwise")

    def test_off_mode_and_empty_trace(self):
        trace = RoutingTrace(num_experts=4, top_k=2, layers=[])
        assert load_balance_loss(trace, "off") == 0.0
        with pytest.raises(ValidationError, match="empty"):
            load_balance_loss(trace, "global")


@pytest.mark.parametrize("mode", ["global", "layerwise"])
def test_balance_gradient_matches_central_differences(mode):
    """Router gradients with the injected balancing term against central
    differences of ``lm_loss + coeff * load_balance_loss``."""
    coeff, h = 0.5, 1e-5
    ckpt = random_checkpoint(tiny_moe_config(n=4, k=2), seed=31, dtype=np.float64)
    model = build_model(ckpt, max_positions=16, stream=RngStream(32))
    rng = np.random.default_rng(33)
    tokens = rng.integers(0, 23, size=(2, 10))

    def objective():
        out = lm_forward(model, tokens)
        selected = [layer.selected for layer in out.trace.layers]
        return out.loss + coeff * load_balance_loss(out.trace, mode), selected

    cache = forward_cache(model, tokens)
    _, prob_grads = trainer_mod._balance_terms(trace_from_cache(model, cache), mode, coeff)
    assert [g.shape for g in prob_grads] == [(4,), (4,)]
    grads = backward_from_cache(model, cache, prob_grads)
    lm_only = backward_from_cache(model, forward_cache(model, tokens))
    _, base_selected = objective()

    checked, shift = 0, 0.0
    for _ in range(40):
        name = f"layers.{int(rng.integers(2))}.router"
        flat = model.params[name].reshape(-1)
        i = int(rng.integers(flat.size))
        old = flat[i]
        flat[i] = old + h
        up, up_selected = objective()
        flat[i] = old - h
        down, down_selected = objective()
        flat[i] = old
        if not all(np.array_equal(a, b) and np.array_equal(a, c)
                   for a, b, c in zip(base_selected, up_selected, down_selected)):
            continue  # the top-k choice moved: the loss is not smooth here
        numeric = (up - down) / (2 * h)
        analytic = grads[name].reshape(-1)[i]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
        assert rel < 1e-6, (name, i, numeric, analytic, rel)
        checked += 1
        shift = max(shift, abs(analytic - lm_only[name].reshape(-1)[i]))
    assert checked >= 30
    assert shift > 1e-3  # the balancing term moves these gradients measurably


class TestOptimizer:
    def test_clip_bounds_global_norm(self):
        rng = np.random.default_rng(1)
        grads = {f"p{i}": rng.normal(size=(7, 3)) for i in range(4)}
        clip_gradients(grads, 1.0)
        norm = math.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
        assert norm <= 1.0 + 1e-9

    def test_clip_leaves_small_gradients_alone(self):
        grads = {"p": np.full((2, 2), 1e-4)}
        before = grads["p"].copy()
        clip_gradients(grads, 1.0)
        assert np.array_equal(grads["p"], before)

    def test_decoupled_weight_decay_exact(self):
        cfg = _cfg(weight_decay=0.1)
        params = {"w": np.array([1.0, -2.0, 0.5])}
        state = AdamWState.for_params(params)
        lr = 0.01
        for step in range(3):
            adamw_step(params, {"w": np.zeros(3)}, state, lr, cfg)
        expected = np.array([1.0, -2.0, 0.5]) * (1 - lr * 0.1) ** 3
        assert np.array_equal(params["w"], expected)

    def test_zero_lr_keeps_parameters(self):
        cfg = _cfg()
        params = {"w": np.array([1.0, -2.0])}
        state = AdamWState.for_params(params)
        adamw_step(params, {"w": np.array([3.0, -1.0])}, state, 0.0, cfg)
        assert np.array_equal(params["w"], np.array([1.0, -2.0]))


class TestTrain:
    def test_zero_lr_training_keeps_model(self):
        corpus = default_corpus(seq_len=16, num_sequences=32)
        model = _toy_model(toy_dense_config(), seed=1)
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = _cfg(max_lr=0.0, min_lr=0.0, total_steps=3)
        train(model, corpus, cfg)
        for name in before:
            assert np.array_equal(model.params[name], before[name]), name

    def test_same_seed_identical_curves(self):
        corpus = default_corpus(seq_len=16, num_sequences=32)
        cfg = _cfg(total_steps=8, balance_mode="global", seed=3)
        _, curve_a = train(_toy_model(toy_moe_config(), seed=2), corpus, cfg)
        _, curve_b = train(_toy_model(toy_moe_config(), seed=2), corpus, cfg)
        assert curve_a == curve_b

    def test_balance_off_contributes_nothing(self):
        corpus = default_corpus(seq_len=16, num_sequences=32)
        cfg_off = _cfg(total_steps=4, balance_mode="off", seed=4)
        cfg_zero = _cfg(total_steps=4, balance_mode="global", balance_coeff=0.0, seed=4)
        model_off, curve_off = train(_toy_model(toy_moe_config(), seed=5), corpus, cfg_off)
        model_zero, _ = train(_toy_model(toy_moe_config(), seed=5), corpus, cfg_zero)
        for name in model_off.params:
            assert np.array_equal(model_off.params[name], model_zero.params[name]), name
        assert all(p.balance_loss == 0.0 for p in curve_off.points)

    def test_balance_loss_logged_and_total_consistent(self):
        corpus = default_corpus(seq_len=16, num_sequences=32)
        cfg = _cfg(total_steps=4, balance_mode="layerwise", balance_coeff=0.02, seed=6)
        _, curve = train(_toy_model(toy_moe_config(), seed=6), corpus, cfg)
        for p in curve.points:
            assert p.train_loss == pytest.approx(p.lm_loss + 0.02 * p.balance_loss, rel=1e-12)
            assert p.balance_loss > 0

    def test_progress_on_bundled_corpus(self):
        # 300 training steps must reduce the LM loss on the toy MoE config.
        corpus = default_corpus()
        model = _toy_model(toy_moe_config(n=4, k=2), seed=7)
        cfg = TrainConfig(max_lr=3e-3, min_lr=3e-4, total_steps=300, batch_size=16,
                          seq_len=64, balance_mode="global", seed=8)
        _, curve = train(model, corpus, cfg)
        assert curve.points[-1].lm_loss < curve.points[0].lm_loss

    def test_float64_checkpoint_unchanged_by_training(self):
        corpus = default_corpus(seq_len=16, num_sequences=32)
        ckpt = upcycle.from_scratch(toy_dense_config(), seed=12)
        ckpt.tensors.update({k: v.astype(np.float64) for k, v in ckpt.tensors.items()})
        before = {k: v.copy() for k, v in ckpt.tensors.items()}
        model = build_model(ckpt, max_positions=64, stream=RngStream(12))
        train(model, corpus, _cfg(total_steps=2))
        assert not np.array_equal(model.params["head.out"], before["head.out"])
        for name, value in before.items():
            assert np.array_equal(ckpt.tensors[name], value), name

    def test_divergence_raises(self):
        corpus = default_corpus(seq_len=16, num_sequences=32)
        model = _toy_model(toy_dense_config(), seed=9)
        # Overflow the gated product so the residual stream becomes non-finite.
        model.params["layers.0.ffn.gate"][:] = 1e200
        model.params["layers.0.ffn.up"][:] = 1e200
        with pytest.raises(TrainingDiverged):
            train(model, corpus, _cfg(total_steps=2))

    def test_tokens_strictly_increasing_and_counted(self):
        corpus = default_corpus(seq_len=16, num_sequences=32)
        cfg = _cfg(total_steps=5)
        _, curve = train(_toy_model(toy_dense_config(), seed=10), corpus, cfg)
        tokens = curve.tokens()
        assert np.all(np.diff(tokens) > 0)
        assert tokens[0] == cfg.batch_size * cfg.seq_len


class TestLossCurve:
    def test_jsonl_round_trip(self, tmp_path):
        curve = LossCurve()
        curve.append(LossPoint(64, 3.5, 3.4, 1.02, 1e-3))
        curve.append(LossPoint(128, 3.2, 3.1, 1.01, 9e-4))
        path = tmp_path / "curve.jsonl"
        curve.save_jsonl(path)
        assert LossCurve.load_jsonl(path) == curve

    def test_non_increasing_tokens_rejected(self):
        curve = LossCurve()
        curve.append(LossPoint(64, 3.5, 3.4, 0.0, 1e-3))
        with pytest.raises(ValidationError):
            curve.append(LossPoint(64, 3.2, 3.1, 0.0, 1e-3))

    @pytest.mark.parametrize("line", [
        b"not json", b"[1, 2]", b'{"tokens_processed": 64}',
        b'{"tokens_processed": "x", "train_loss": 1, "lm_loss": 1, "balance_loss": 0, "lr": 0}',
        b'{"tokens_processed": 64, "train_loss": true, "lm_loss": 1, "balance_loss": 0, "lr": 0}',
        b'{"tokens_processed": 32, "train_loss": 1, "lm_loss": 1, "balance_loss": 0, "lr": 0}',
        b"\xff\xfe",
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "curve.jsonl"
        good = b'{"tokens_processed": 64, "train_loss": 1, "lm_loss": 1, "balance_loss": 0, "lr": 0}'
        path.write_bytes(good + b"\n" + line + b"\n")
        with pytest.raises(ValidationError, match="curve.jsonl"):
            LossCurve.load_jsonl(path)


def test_evaluate_loss_deterministic_and_finite():
    corpus = default_corpus(seq_len=16, num_sequences=40)
    model = _toy_model(toy_dense_config(), seed=11)
    a = evaluate_loss(model, corpus, batch_size=8)
    b = evaluate_loss(model, corpus, batch_size=16)
    assert math.isfinite(a)
    assert a == pytest.approx(b, rel=1e-12)


def test_evaluate_loss_forward_size_bounded(monkeypatch):
    corpus = default_corpus(seq_len=64, num_sequences=40)
    model = _toy_model(toy_dense_config(), seed=11)
    shapes = []

    def recording_forward(m, tokens, **kwargs):
        shapes.append(tokens.shape)
        return forward_cache(m, tokens, **kwargs)

    monkeypatch.setattr("moeup.trainer.forward_cache", recording_forward)
    tiled = evaluate_loss(model, corpus, batch_size=32)
    # Tiles of 8 sequences, forwarded two at a time.
    assert shapes == [(16, 64), (16, 64), (8, 64)]
    assert all(rows * seq <= EVAL_FORWARD_TOKENS and rows <= 32 for rows, seq in shapes)
    shapes.clear()
    assert evaluate_loss(model, corpus, batch_size=1) == pytest.approx(tiled, rel=1e-12)
    assert all(rows == 1 for rows, _ in shapes)
    with pytest.raises(ValidationError, match="batch_size"):
        evaluate_loss(model, corpus, batch_size=0)


def _tile_losses(model, corpus, seq_len, batch_size):
    """evaluate_loss's sum, from one plain forward per tile."""
    total, count = 0.0, 0
    for rows in sequence_tiles(corpus.num_sequences, seq_len, batch_size):
        loss = forward_cache(model, corpus.sequences[rows, :seq_len])["loss"]
        total += loss * (rows.stop - rows.start)
        count += rows.stop - rows.start
    return total / count


def _trace_bits(traces) -> list:
    return [(a.shape, a.tobytes()) for t in traces for layer in t.layers
            for a in (layer.selected, layer.gates, layer.probs)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("layout", [{}, {"n": 4, "k": 2}, {"n": 4, "k": 15, "m": 8, "k_s": 1}],
                         ids=["dense", "coarse", "fine-grained"])
def test_eval_forwards_of_several_tiles_keep_tile_bits(layout, threads, monkeypatch):
    """Forwards of up to ``EVAL_FORWARD_TOKENS`` tokens give bitwise the loss
    and traces of one plain forward per tile, and hold at most that many
    tokens and ``batch_size`` sequences."""
    monkeypatch.setenv("MOEUP_THREADS", str(threads))
    config = make_config(64, 256, 2, 4, 4, VOCAB_SIZE, s=64, **layout)
    model = build_model(random_checkpoint(config, seed=3), max_positions=64,
                        stream=RngStream(4))
    corpus = default_corpus(seq_len=64, num_sequences=40)
    shapes = []

    def recording_forward(m, tokens, **kwargs):
        shapes.append(tokens.shape)
        return forward_cache(m, tokens, **kwargs)

    # The reference forwards below call this module's forward_cache, unrecorded.
    monkeypatch.setattr(trainer_mod, "forward_cache", recording_forward)
    for seq_len in (17, 64):
        for batch_size in (1, 3, 8, 32):
            loss = evaluate_loss(model, corpus, batch_size=batch_size, seq_len=seq_len)
            assert loss.hex() == _tile_losses(model, corpus, seq_len, batch_size).hex()
            assert all(rows <= batch_size and rows * seq_len <= EVAL_FORWARD_TOKENS
                       for rows, _ in shapes)
            # Only at batch 32 does a forward span tiles: 64-token sequences
            # make tiles of 8, forwarded by 16.
            spans = batch_size == 32 and seq_len == 64
            assert (len(shapes) < len(sequence_tiles(40, seq_len, batch_size))) == spans
            shapes.clear()
        if config.is_moe:
            traces = analysis.collect_traces(model, corpus, seq_len=seq_len)
            tiles = sequence_tiles(40, seq_len)
            assert len(shapes) < len(tiles)
            assert all(rows * seq_len <= EVAL_FORWARD_TOKENS for rows, _ in shapes)
            shapes.clear()
            want = [trace_from_cache(model, forward_cache(model, corpus.sequences[rows, :seq_len]))
                    for rows in tiles]
            assert _trace_bits(traces) == _trace_bits(want)
            assert [d for t in traces for d in t.domains] == corpus.domains


@pytest.mark.parametrize("threads", [1, 2])
def test_evaluate_loss_takes_each_tile_loss_once(threads, monkeypatch):
    """The vocabulary softmax runs once per evaluated token: ``next_token_loss``
    runs once per tile, never over a whole forward, and the loss keeps its
    bits. Routing traces take no loss at all."""
    monkeypatch.setenv("MOEUP_THREADS", str(threads))
    model = build_model(random_checkpoint(toy_moe_config(), seed=3), max_positions=64,
                        stream=RngStream(4))
    corpus = default_corpus(seq_len=64, num_sequences=40)
    want = _tile_losses(model, corpus, 64, 32)
    calls, real = [], model_mod.next_token_loss

    def counting_loss(logits, tokens):
        calls.append(tokens.shape)
        return real(logits, tokens)

    monkeypatch.setattr(model_mod, "next_token_loss", counting_loss)
    monkeypatch.setattr(trainer_mod, "next_token_loss", counting_loss)
    assert evaluate_loss(model, corpus, batch_size=32).hex() == want.hex()
    # Five tiles of 8 sequences, in forwards of 16, 16 and 8 sequences.
    assert calls == [(rows.stop - rows.start, 64) for rows in sequence_tiles(40, 64, 32)]
    assert len(calls) == 5
    calls.clear()
    analysis.collect_traces(model, corpus)
    assert calls == []


@pytest.mark.parametrize("kwargs, match", [
    ({"max_sequences": 0}, "max_sequences"),
    ({"max_sequences": -2}, "max_sequences"),
    ({"seq_len": 0}, "seq_len"),
    ({"seq_len": -1}, "seq_len"),
    ({"seq_len": 1}, "seq_len"),
])
def test_evaluate_loss_rejects_empty_evaluations(kwargs, match):
    corpus = default_corpus(seq_len=16, num_sequences=4)
    model = _toy_model(toy_dense_config(), seed=11)
    with pytest.raises(ValidationError, match=match):
        evaluate_loss(model, corpus, **kwargs)


def test_evaluate_loss_rejects_one_token_corpus():
    """One-token sequences have no next-token target: no loss to report."""
    corpus = default_corpus(seq_len=16, num_sequences=4)
    short = Corpus(sequences=corpus.sequences[:, :1].copy(), domains=corpus.domains)
    with pytest.raises(ValidationError, match="seq_len must be >= 2, got 1"):
        evaluate_loss(_toy_model(toy_dense_config(), seed=11), short)


def test_evaluate_loss_rejects_empty_corpus():
    corpus = default_corpus(seq_len=16, num_sequences=4)
    empty = Corpus(sequences=corpus.sequences[:0], domains=[])
    with pytest.raises(ValidationError, match="empty corpus"):
        evaluate_loss(_toy_model(toy_dense_config(), seed=11), empty)
