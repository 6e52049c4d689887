import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeup import upcycle
from moeup.checkpoint import POSITION_SLOT, Checkpoint, expected_slots
from moeup.config import ValidationError
from moeup.model import (
    FfnWeights,
    MoeLayerWeights,
    build_model,
    decompose_moe_output,
    ffn_forward,
    forward_cache,
    lm_backward,
    lm_forward,
    model_to_checkpoint,
    moe_forward,
)
from moeup.numerics import RngStream

from conftest import random_checkpoint, tiny_dense_config, tiny_moe_config
from reference_impl import ref_dense_lm_loss, ref_ffn, ref_moe, ref_sigmoid


def _random_ffn(rng, d_h, width, scale=0.5):
    return FfnWeights(gate=scale * rng.normal(size=(d_h, width)),
                      up=scale * rng.normal(size=(d_h, width)),
                      down=scale * rng.normal(size=(width, d_h)))


def _random_moe(rng, d_h, n, width, scale=0.5):
    experts = tuple(_random_ffn(rng, d_h, width, scale) for _ in range(n))
    return MoeLayerWeights(router=rng.normal(size=(d_h, n)), experts=experts)


class TestFfnForward:
    def test_zero_input_gives_zero(self):
        rng = np.random.default_rng(0)
        w = _random_ffn(rng, 6, 10)
        assert np.array_equal(ffn_forward(w, np.zeros(6)), np.zeros(6))

    def test_zero_up_projection_annihilates(self):
        rng = np.random.default_rng(1)
        w = _random_ffn(rng, 6, 10)
        w = FfnWeights(gate=w.gate, up=np.zeros_like(w.up), down=w.down)
        x = rng.normal(size=6)
        assert np.array_equal(ffn_forward(w, x), np.zeros(6))

    def test_hand_arithmetic_oracle(self):
        # 2x2 case evaluated with scalar arithmetic.
        gate = np.array([[1.0, -1.0], [0.5, 2.0]])
        up = np.array([[1.0, 0.0], [1.0, 1.0]])
        down = np.array([[1.0, 2.0], [-1.0, 0.0]])
        x = np.array([1.0, 2.0])
        # pre-activations: x @ gate = [2, 3]; x @ up = [3, 2]
        h0 = 2.0 * ref_sigmoid(2.0) * 3.0
        h1 = 3.0 * ref_sigmoid(3.0) * 2.0
        expected = np.array([h0 * 1.0 + h1 * (-1.0), h0 * 2.0 + h1 * 0.0])
        got = ffn_forward(FfnWeights(gate, up, down), x)
        assert np.allclose(got, expected, rtol=1e-14, atol=0)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(2)
        w = _random_ffn(rng, 5, 9)
        x = rng.normal(size=5)
        assert np.allclose(ffn_forward(w, x), ref_ffn(w.gate, w.up, w.down, x),
                           rtol=1e-12, atol=1e-14)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        w = _random_ffn(rng, 5, 9)
        with pytest.raises(ValidationError):
            ffn_forward(w, np.zeros(6))


class TestMoeForward:
    def test_identical_experts_reduce_to_single_ffn(self):
        rng = np.random.default_rng(4)
        expert = _random_ffn(rng, 8, 12)
        w = MoeLayerWeights(router=rng.normal(size=(8, 2)), experts=(expert, expert))
        x = rng.normal(size=8)
        y, gates, selected = moe_forward(w, x, 2)
        assert abs(gates.sum() - 1.0) < 1e-12
        assert np.allclose(y, ffn_forward(expert, x), rtol=0, atol=1e-12)

    def test_k1_selects_argmax_expert(self):
        rng = np.random.default_rng(5)
        w = _random_moe(rng, 8, 4, 12)
        x = rng.normal(size=8)
        y, gates, selected = moe_forward(w, x, 1)
        best = int(np.argmax(x @ w.router))
        assert selected.tolist() == [best]
        assert gates[best] == 1.0
        assert np.allclose(y, ffn_forward(w.experts[best], x), rtol=1e-14, atol=0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            w = _random_moe(rng, 8, 4, 12)
            x = rng.normal(size=8)
            y, gates, selected = moe_forward(w, x, 2)
            ref_y, ref_gates, ref_sel = ref_moe(
                w.router, [(e.gate, e.up, e.down) for e in w.experts], x, 2)
            assert selected.tolist() == ref_sel
            assert np.allclose(gates, ref_gates, rtol=1e-12, atol=1e-15)
            assert np.allclose(y, ref_y, rtol=1e-10, atol=1e-13)

    def test_gates_sum_to_one_and_zero_elsewhere(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = _random_moe(rng, 8, 6, 4)
            _, gates, selected = moe_forward(w, rng.normal(size=8), 3)
            assert abs(gates.sum() - 1.0) < 1e-12
            unselected = np.setdiff1d(np.arange(6), selected)
            assert np.all(gates[unselected] == 0.0)


class TestDecomposition:
    def _dropped_layer(self, rng, d_h, n, width, ratio):
        """Experts sharing a parent with per-expert retained masks."""
        parent = _random_ffn(rng, d_h, width)
        drop = math.floor(ratio * width)
        experts, masks = [], []
        for _ in range(n):
            dropped = rng.choice(width, size=drop, replace=False)
            mask = np.ones(width, dtype=bool)
            mask[dropped] = False
            gate, up, down = parent.gate.copy(), parent.up.copy(), parent.down.copy()
            gate[:, dropped] = rng.normal(size=(d_h, drop))
            up[:, dropped] = rng.normal(size=(d_h, drop))
            down[dropped, :] = rng.normal(size=(drop, d_h))
            experts.append(FfnWeights(gate, up, down))
            masks.append(mask)
        w = MoeLayerWeights(router=rng.normal(size=(d_h, n)), experts=tuple(experts))
        return w, masks, parent

    def test_all_retained_reduces_to_parent(self):
        rng = np.random.default_rng(8)
        w, masks, parent = self._dropped_layer(rng, 6, 3, 16, 0.0)
        x = rng.normal(size=6)
        lhs, rhs = decompose_moe_output(w, x, 2, masks)
        parent_out = ffn_forward(parent, x)
        assert np.allclose(lhs, parent_out, rtol=0, atol=1e-12)
        assert np.allclose(rhs, parent_out, rtol=0, atol=1e-12)

    def test_all_dropped_leaves_diverse_terms_only(self):
        rng = np.random.default_rng(9)
        w, masks, _ = self._dropped_layer(rng, 6, 3, 16, 1.0)
        x = rng.normal(size=6)
        lhs, rhs = decompose_moe_output(w, x, 2, masks)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_half_dropped_identity(self):
        rng = np.random.default_rng(10)
        w, masks, _ = self._dropped_layer(rng, 8, 4, 64, 0.5)
        x = rng.normal(size=8)
        lhs, rhs = decompose_moe_output(w, x, 2, masks)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-9

    @given(ratio=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_identity_for_any_ratio(self, ratio, seed):
        rng = np.random.default_rng(seed)
        w, masks, _ = self._dropped_layer(rng, 6, 4, 24, ratio)
        x = rng.normal(size=6)
        lhs, rhs = decompose_moe_output(w, x, 2, masks)
        scale = max(float(np.linalg.norm(lhs)), 1e-12)
        assert np.linalg.norm(lhs - rhs) / scale < 1e-9

    def test_inconsistent_masks_rejected(self):
        rng = np.random.default_rng(11)
        w, masks, _ = self._dropped_layer(rng, 6, 3, 16, 0.5)
        masks[0] = np.ones(15, dtype=bool)
        with pytest.raises(ValidationError, match="mask"):
            decompose_moe_output(w, rng.normal(size=6), 2, masks)

    def test_index_array_mask_rejected(self):
        rng = np.random.default_rng(12)
        w, masks, _ = self._dropped_layer(rng, 6, 3, 16, 0.5)
        masks[1] = np.nonzero(masks[1])[0]
        with pytest.raises(ValidationError, match="boolean"):
            decompose_moe_output(w, rng.normal(size=6), 2, masks)


class TestToyLm:
    def test_uniform_logits_give_log_vocab_loss(self):
        config = tiny_dense_config(vocab=2)
        ck = random_checkpoint(config, seed=12, dtype=np.float64)
        ck.tensors["head.out"] = np.zeros_like(ck.tensors["head.out"])
        model = build_model(ck, max_positions=16, stream=RngStream(0))
        out = lm_forward(model, np.array([0, 1, 1, 0, 1]))
        assert abs(out.loss - math.log(2)) < 1e-6

    def test_single_position_loss_is_zero(self):
        ck = random_checkpoint(tiny_dense_config(), seed=13)
        model = build_model(ck, max_positions=16, stream=RngStream(0))
        out = lm_forward(model, np.array([3]))
        assert out.loss == 0.0

    def test_matches_straight_line_reference(self):
        # Independent loop-based re-implementation, fixed seed, 16 tokens.
        config = tiny_dense_config(vocab=19)
        ck = random_checkpoint(config, seed=14, dtype=np.float64)
        model = build_model(ck, max_positions=16, stream=RngStream(3))
        rng = np.random.default_rng(99)
        tokens = rng.integers(0, 19, size=16)
        out = lm_forward(model, tokens)
        expected = ref_dense_lm_loss(model.params, config, tokens)
        assert abs(out.loss - expected) < 1e-6

    def test_token_id_out_of_range(self):
        ck = random_checkpoint(tiny_dense_config(vocab=7), seed=15)
        model = build_model(ck, max_positions=16, stream=RngStream(0))
        with pytest.raises(ValidationError, match="token id out of range"):
            lm_forward(model, np.array([0, 7]))

    def test_trace_records_routing(self):
        ck = random_checkpoint(tiny_moe_config(n=4, k=2), seed=16)
        model = build_model(ck, max_positions=16, stream=RngStream(0))
        tokens = np.arange(10) % 7
        out = lm_forward(model, tokens, domains=["alpha"])
        assert len(out.trace.layers) == 2
        layer = out.trace.layers[0]
        assert layer.selected.shape == (1, 10, 2)
        assert np.allclose(layer.gates.sum(axis=-1), 1.0, atol=1e-12)
        assert np.allclose(layer.probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_moe_layer_output_matches_single_vector_path(self):
        # Batched layer execution must agree with the one-vector reference op.
        ck = random_checkpoint(tiny_moe_config(n=4, k=2), seed=17)
        model = build_model(ck, max_positions=16, stream=RngStream(0))
        weights = model.layer_moe(0)
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(9, 16))
        from moeup.model import _moe_fwd

        batched, _, _ = _moe_fwd(weights, xs, 2)
        for row in range(9):
            single, _, _ = moe_forward(weights, xs[row], 2)
            assert np.allclose(batched[row], single, rtol=1e-12, atol=1e-14)


class TestLmBackward:
    def test_zero_loss_gives_zero_gradients(self):
        # A single-position sequence has no targets: loss 0, all gradients 0.
        ck = random_checkpoint(tiny_moe_config(), seed=18)
        model = build_model(ck, max_positions=16, stream=RngStream(0))
        grads = lm_backward(model, np.array([5]))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_unselected_expert_gets_zero_gradient(self):
        ck = random_checkpoint(tiny_moe_config(n=4, k=2), seed=19)
        model = build_model(ck, max_positions=16, stream=RngStream(0))
        tokens = np.array([1, 2])
        cache = forward_cache(model, tokens)
        used = set()
        for layer in cache["layer_caches"]:
            sel = layer.ffn.routing.selected
            used |= set(sel.reshape(-1).tolist())
        grads = lm_backward(model, tokens)
        unused = set(range(4)) - used
        assert unused, "test needs at least one unused expert"
        for e in unused:
            for layer in range(2):
                for kind in ("gate", "up", "down"):
                    g = grads[f"layers.{layer}.experts.{e}.{kind}"]
                    assert np.all(g == 0.0)

    def test_finite_difference_check(self):
        ck = random_checkpoint(tiny_moe_config(n=4, k=2), seed=20, dtype=np.float64)
        model = build_model(ck, max_positions=16, stream=RngStream(0))
        rng = np.random.default_rng(21)
        tokens = rng.integers(0, 23, size=(2, 8))
        grads = lm_backward(model, tokens)
        h = 1e-4
        names = sorted(model.params)
        for _ in range(12):
            name = names[rng.integers(len(names))]
            flat = model.params[name].reshape(-1)
            i = int(rng.integers(flat.size))
            old = flat[i]
            flat[i] = old + h
            up = forward_cache(model, tokens)["loss"]
            flat[i] = old - h
            down = forward_cache(model, tokens)["loss"]
            flat[i] = old
            numeric = (up - down) / (2 * h)
            analytic = grads[name].reshape(-1)[i]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
            assert rel < 1e-4, (name, i, numeric, analytic)


class TestModelCheckpointing:
    def test_round_trip_with_position_table(self, tmp_path):
        ck = random_checkpoint(tiny_dense_config(), seed=22)
        model = build_model(ck, max_positions=12, stream=RngStream(4))
        saved = model_to_checkpoint(model, dtype="f64")
        assert POSITION_SLOT in saved.tensors
        rebuilt = build_model(saved)
        for name in model.params:
            assert np.array_equal(model.params[name], rebuilt.params[name])

    def test_position_table_requires_stream(self):
        ck = random_checkpoint(tiny_dense_config(), seed=23)
        with pytest.raises(ValidationError, match="position"):
            build_model(ck)

    def test_grouped_query_config_rejected_by_toy_model(self):
        from conftest import make_config

        config = make_config(16, 32, 1, 4, 2, 11)
        ck = random_checkpoint(config, seed=24)
        with pytest.raises(ValidationError, match="num_query_groups"):
            build_model(ck, max_positions=8, stream=RngStream(0))


def test_shared_experts_add_to_output():
    rng = np.random.default_rng(25)
    routed = tuple(_random_ffn(rng, 8, 6) for _ in range(3))
    shared = (_random_ffn(rng, 8, 6),)
    router = rng.normal(size=(8, 3))
    with_shared = MoeLayerWeights(router=router, experts=routed, shared=shared)
    without = MoeLayerWeights(router=router, experts=routed)
    x = rng.normal(size=8)
    y1, _, _ = moe_forward(with_shared, x, 2)
    y0, _, _ = moe_forward(without, x, 2)
    assert np.allclose(y1 - y0, ffn_forward(shared[0], x), rtol=1e-12, atol=1e-14)
