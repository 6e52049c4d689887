"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute. Tolerances are pinned here, not calibrated elsewhere.
"""

import hashlib
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from moeup import checkpoint as cp
from moeup import upcycle
from moeup.accounting import count_params, flops_forward, training_flops
from moeup.analysis import catch_up, overlap_report
from moeup.cli import main as cli_main
from moeup.config import ModelConfig
from moeup.corpus import default_corpus, default_eval_corpus, save_corpus
from moeup.model import (
    build_model,
    decompose_moe_output,
    ffn_forward,
    forward_cache,
    lm_backward,
    moe_forward,
)
from moeup.numerics import RngStream
from moeup.trainer import LossCurve, LossPoint, load_balance_loss
from moeup.model import LayerRouting, RoutingTrace

from conftest import (
    REFERENCE_ROWS,
    REFERENCE_TRAINING_FLOPS,
    make_config,
    random_checkpoint,
    tiny_moe_config,
    toy_moe_config,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number:02d} PASS - {description}")


# ---------------------------------------------------------------------------
# 1. Parameter accounting
# ---------------------------------------------------------------------------

def test_criterion_01_parameter_accounting():
    with criterion(1, "parameter accounting reproduces the published config rows"):
        start = time.time()
        for name, (config, pub_total, pub_active, ulp) in REFERENCE_ROWS.items():
            got = count_params(config)
            for kind, computed, published in (("total", got.total, pub_total),
                                              ("active", got.active, pub_active)):
                # Published values are rounded (family-style, sometimes
                # truncated), so the check allows 0.5% or one unit in the
                # published figure's last digit, whichever is larger.
                tolerance = max(0.005 * published, ulp)
                diff = abs(computed - published)
                print(f"  {name:11s} {kind:6s} computed={computed:>15,} "
                      f"published={published:.4g} diff={diff / published:+.3%}")
                assert diff <= tolerance, (name, kind, computed, published)
        assert time.time() - start < 1.0


# ---------------------------------------------------------------------------
# 2. FLOPs accounting
# ---------------------------------------------------------------------------

def _hand_flops(cfg: ModelConfig, s: int) -> int:
    d_h, d_k, n_h, n_q, v = (cfg.hidden_size, cfg.head_dim, cfg.num_heads,
                             cfg.num_query_groups, cfg.vocab_size)
    width = ((cfg.top_k + cfg.shared_experts) * cfg.expert_intermediate
             if cfg.is_moe else cfg.intermediate_size)
    attn = (4 * s * d_h * d_k * n_q + 2 * s * d_h * d_k * n_h
            + 2 * s * s * d_k * n_h + 2 * s * s * d_k * n_h + 2 * s * d_k * n_h * d_h)
    return 2 * s * v * d_h + cfg.num_layers * (attn + 6 * s * d_h * width) + 2 * s * d_h * v


def test_criterion_02_flops_accounting():
    with criterion(2, "FLOPs exact per component; training FLOPs within factor 1.5"):
        unit_cases = [
            (REFERENCE_ROWS["dense_152m"][0], 4096),
            (REFERENCE_ROWS["dense_1.5b"][0], 4096),
            (REFERENCE_ROWS["moe_8x152m"][0], 4096),
            (REFERENCE_ROWS["moe_8x3.7b"][0], 2048),
            (make_config(64, 256, 2, 4, 4, 100, n=4, k=2, m=2, k_s=1), 128),
        ]
        for cfg, s in unit_cases:
            assert flops_forward(cfg, seq_len=s).total_forward == _hand_flops(cfg, s)
        for name, tokens, published in REFERENCE_TRAINING_FLOPS:
            computed = training_flops(REFERENCE_ROWS[name][0], tokens)
            ratio = published / computed
            print(f"  {name:11s} computed={computed:.4e} published={published:.3g} "
                  f"published/computed={ratio:.3f}")
            assert 1 / 1.5 <= ratio <= 1.5, (name, computed, published)


# ---------------------------------------------------------------------------
# 3. Degenerate-ratio equivalence
# ---------------------------------------------------------------------------

def test_criterion_03_degenerate_ratio_equivalence():
    with criterion(3, "drop at ratio 0 copies experts bitwise and preserves the function"):
        dense = random_checkpoint(make_config(32, 128, 2, 2, 2, 50), seed=100)
        config = make_config(32, 128, 2, 2, 2, 50, n=8, k=2)
        moe, _ = upcycle.build(
            upcycle.UpcycleSpec(method="drop", ratio=0.0, seed=101), dense, config)
        for layer in range(2):
            parent_names = cp.ffn_slot_names(f"layers.{layer}.ffn")
            for e in range(8):
                for src, dst in zip(parent_names,
                                    cp.ffn_slot_names(f"layers.{layer}.experts.{e}")):
                    assert np.array_equal(dense.tensors[src], moe.tensors[dst])
        from moeup.model import FfnWeights, MoeLayerWeights

        rng = np.random.default_rng(102)
        for layer in range(2):
            gate, up, down = (dense.tensor_f64(n)
                              for n in cp.ffn_slot_names(f"layers.{layer}.ffn"))
            parent = FfnWeights(gate, up, down)
            experts = tuple(
                FfnWeights(*(moe.tensor_f64(n)
                             for n in cp.ffn_slot_names(f"layers.{layer}.experts.{e}")))
                for e in range(8))
            weights = MoeLayerWeights(
                router=moe.tensor_f64(f"layers.{layer}.router"), experts=experts)
            for _ in range(50):  # 50 inputs per layer, 100 total
                x = rng.normal(size=32)
                y, _, _ = moe_forward(weights, x, 2)
                assert np.max(np.abs(y - ffn_forward(parent, x))) < 1e-12


# ---------------------------------------------------------------------------
# 4. Retention exactness
# ---------------------------------------------------------------------------

def test_criterion_04_retention_exactness():
    with criterion(4, "exact retained-column counts across the ratio sweep"):
        d_f = 2048
        dense = random_checkpoint(make_config(128, d_f, 1, 2, 2, 50), seed=103)
        config = make_config(128, d_f, 1, 2, 2, 50, n=2, k=1)
        parent_gate, parent_up, parent_down = (
            dense.tensors[n] for n in cp.ffn_slot_names("layers.0.ffn"))
        for ratio in (0.1, 0.25, 0.5, 0.75, 1.0):
            moe, plan = upcycle.build(
                upcycle.UpcycleSpec(method="drop", ratio=ratio, seed=104), dense, config)
            expected_retained = d_f - math.floor(ratio * d_f)
            for e in range(2):
                gate, up, down = (moe.tensors[n]
                                  for n in cp.ffn_slot_names(f"layers.0.experts.{e}"))
                gate_cols = np.all(gate == parent_gate, axis=0)
                up_cols = np.all(up == parent_up, axis=0)
                down_rows = np.all(down == parent_down, axis=1)
                assert int(gate_cols.sum()) == expected_retained, ratio
                # One shared index set across the three matrices.
                assert np.array_equal(gate_cols, up_cols)
                assert np.array_equal(gate_cols, down_rows)
                assert np.array_equal(np.nonzero(~gate_cols)[0],
                                      plan.layers[0].experts[e].dropped)


# ---------------------------------------------------------------------------
# 5. Statistics matching
# ---------------------------------------------------------------------------

def test_criterion_05_statistics_matching():
    with criterion(5, "re-initialized blocks match their per-matrix statistics"):
        d_h, d_f = 256, 1024
        dense_cfg = make_config(d_h, d_f, 1, 2, 2, 8)
        moe_cfg = make_config(d_h, d_f, 1, 2, 2, 8, n=2, k=1)
        for trial in range(200):
            dense = random_checkpoint(dense_cfg, seed=11_000 + trial)
            moe, plan = upcycle.build(
                upcycle.UpcycleSpec(method="drop", ratio=0.5, seed=21_000 + trial),
                dense, moe_cfg)
            for e in range(2):
                entry = plan.layers[0].experts[e]
                dropped = entry.dropped
                for kind, dst in zip(("gate", "up", "down"),
                                     cp.ffn_slot_names(f"layers.0.experts.{e}")):
                    stats = entry.stats[kind]
                    child = moe.tensors[dst].astype(np.float64)
                    block = child[:, dropped] if kind != "down" else child[dropped, :]
                    n = block.size
                    assert n >= 10_000
                    assert abs(block.mean() - stats.mu) <= 4 * stats.sigma / math.sqrt(n)
                    assert abs(block.std() - stats.sigma) / stats.sigma <= 0.05


# ---------------------------------------------------------------------------
# 6. Overlap theory
# ---------------------------------------------------------------------------

def test_criterion_06_overlap_theory():
    with criterion(6, "retained-set overlap matches the hypergeometric prediction"):
        d_f, ratio, trials, n_experts = 2048, 0.5, 200, 4
        retained_size = d_f - math.floor(ratio * d_f)
        dense = random_checkpoint(make_config(8, d_f, 1, 2, 2, 8), seed=105)
        config = make_config(8, d_f, 1, 2, 2, 8, n=n_experts, k=2)
        pair_counts = []
        report_fracs = []
        for trial in range(trials):
            _, plan = upcycle.build(
                upcycle.UpcycleSpec(method="drop", ratio=ratio, seed=30_000 + trial),
                dense, config)
            retained = plan.retained_parent_dims(0)
            masks = np.zeros((n_experts, d_f), dtype=bool)
            for e, dims in enumerate(retained):
                masks[e, dims] = True
            for a in range(n_experts):
                for b in range(a + 1, n_experts):
                    pair_counts.append(int(np.count_nonzero(masks[a] & masks[b])))
            report = overlap_report(plan, k=2)
            report_fracs.append(report.layers[0].mean_all_common_fraction)

        # Independent oracle: |A n B| ~ Hypergeometric(d_f, R, R).
        oracle = scipy.stats.hypergeom(M=d_f, n=retained_size, N=retained_size)
        expected_count = (1 - ratio) ** 2 * d_f
        assert oracle.mean() == pytest.approx(expected_count, rel=1e-12)
        se_counts = oracle.std() / math.sqrt(len(pair_counts))
        observed = float(np.mean(pair_counts))
        print(f"  pairwise mean={observed:.2f} expected={expected_count:.2f} "
              f"se={se_counts:.3f} sd={oracle.std():.2f}")
        assert abs(observed - expected_count) <= 4 * se_counts

        se_frac = oracle.std() / d_f / math.sqrt(len(report_fracs) * 6)
        observed_frac = float(np.mean(report_fracs))
        assert abs(observed_frac - (1 - ratio) ** 2) <= 4 * se_frac


# ---------------------------------------------------------------------------
# 7. Decomposition identity
# ---------------------------------------------------------------------------

def test_criterion_07_decomposition_identity():
    with criterion(7, "output decomposition identity holds to 1e-9 relative"):
        rng = np.random.default_rng(106)
        ratios = [0.0] * 10 + [0.5] * 10 + [1.0] * 10 + list(rng.uniform(0, 1, size=20))
        dense_cfg = make_config(16, 64, 1, 2, 2, 8)
        moe_cfg = make_config(16, 64, 1, 2, 2, 8, n=4, k=2)
        from moeup.model import FfnWeights, MoeLayerWeights

        for i, ratio in enumerate(ratios):
            dense = random_checkpoint(dense_cfg, seed=40_000 + i)
            moe, plan = upcycle.build(
                upcycle.UpcycleSpec(method="drop", ratio=float(ratio), seed=50_000 + i),
                dense, moe_cfg)
            experts = tuple(
                FfnWeights(*(moe.tensor_f64(n)
                             for n in cp.ffn_slot_names(f"layers.0.experts.{e}")))
                for e in range(4))
            weights = MoeLayerWeights(router=moe.tensor_f64("layers.0.router"),
                                      experts=experts)
            x = rng.normal(size=16)
            lhs, rhs = decompose_moe_output(weights, x, 2, plan.retained_masks(0))
            scale = max(float(np.linalg.norm(lhs)), 1e-30)
            assert float(np.linalg.norm(lhs - rhs)) / scale < 1e-9, ratio


# ---------------------------------------------------------------------------
# 8. Gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_08_gradient_correctness():
    with criterion(8, "analytic gradients match central differences to 1e-4"):
        ckpt = random_checkpoint(tiny_moe_config(n=4, k=2), seed=107, dtype=np.float64)
        model = build_model(ckpt, max_positions=16, stream=RngStream(108))
        rng = np.random.default_rng(109)
        tokens = rng.integers(0, 23, size=(2, 10))
        grads = lm_backward(model, tokens)
        names = sorted(model.params)
        h = 1e-4
        for _ in range(20):
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
            assert rel < 1e-4, (name, i, numeric, analytic, rel)


# ---------------------------------------------------------------------------
# 9. Balancing-loss closed forms
# ---------------------------------------------------------------------------

def test_criterion_09_balancing_loss_closed_forms():
    with criterion(9, "balancing loss closed forms and pooling equivalence"):
        n, k, tokens = 4, 2, 16
        uniform_sel = np.array([[i % n, (i + 1) % n] for i in range(tokens)])
        uniform_sel = np.sort(uniform_sel, axis=-1)[None, ...]
        uniform_probs = np.full((1, tokens, n), 1.0 / n)
        trace = RoutingTrace(num_experts=n, top_k=k, layers=[LayerRouting(
            selected=uniform_sel,
            gates=np.full((1, tokens, k), 0.5),
            probs=uniform_probs)])
        assert abs(load_balance_loss(trace, "global") - 1.0) <= 1e-9
        assert abs(load_balance_loss(trace, "layerwise") - 1.0) <= 1e-9

        collapsed_probs = np.zeros((1, tokens, n))
        collapsed_probs[..., 0] = 1.0
        collapsed = RoutingTrace(num_experts=n, top_k=1, layers=[LayerRouting(
            selected=np.zeros((1, tokens, 1), dtype=np.int64),
            gates=np.ones((1, tokens, 1)),
            probs=collapsed_probs)])
        assert abs(load_balance_loss(collapsed, "global") - n) <= 1e-9

        rng = np.random.default_rng(110)
        logits = rng.normal(size=(1, tokens, n))
        probs = np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)
        sel = np.sort(np.argsort(-logits, axis=-1)[..., :k], axis=-1)
        one_layer = RoutingTrace(num_experts=n, top_k=k, layers=[LayerRouting(
            selected=sel, gates=np.take_along_axis(probs, sel, axis=-1), probs=probs)])
        assert load_balance_loss(one_layer, "global") == load_balance_loss(one_layer, "layerwise")


# ---------------------------------------------------------------------------
# 10. Toy knowledge-transfer ordering
# ---------------------------------------------------------------------------

def test_criterion_10_knowledge_transfer_ordering(pretrained_parent, toy_corpora):
    with criterion(10, "step-0 loss: from-scratch > drop(0.5) >= naive"):
        from moeup.trainer import evaluate_loss

        parent, pretrain_seconds = pretrained_parent
        bundled_corpus, _ = toy_corpora
        start = time.time()
        moe_cfg = toy_moe_config(n=4, k=2)

        scratch = upcycle.from_scratch(moe_cfg, seed=300)
        dropped, _ = upcycle.build(
            upcycle.UpcycleSpec(method="drop", ratio=0.5, seed=301), parent, moe_cfg)
        naive = upcycle.build(upcycle.UpcycleSpec("naive", seed=302), parent, moe_cfg)[0]

        # Step-0 loss is measured on the bundled corpus itself: the point is
        # knowledge retention of the trained parent, and held-out data mixes
        # in a generalization effect (partial re-init can regularize).
        losses = {}
        for name, ckpt in (("scratch", scratch), ("drop", dropped), ("naive", naive)):
            model = build_model(ckpt, max_positions=64, stream=RngStream(303))
            losses[name] = evaluate_loss(model, bundled_corpus, batch_size=32,
                                         max_sequences=128)
        elapsed = pretrain_seconds + (time.time() - start)
        print(f"  step-0 eval losses: scratch={losses['scratch']:.4f} "
              f"drop={losses['drop']:.4f} naive={losses['naive']:.4f} "
              f"(pipeline {elapsed:.0f}s)")
        assert losses["scratch"] > losses["drop"]   # strict
        assert losses["drop"] >= losses["naive"]    # non-strict
        assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 11. Catch-up analysis
# ---------------------------------------------------------------------------

def test_criterion_11_catch_up_shifted_curves():
    with criterion(11, "catch-up recovers a constructed token shift"):
        delta = 10_000
        tokens = np.arange(1, 61) * 1_000 + delta
        losses = 6.0 - 0.05 * np.arange(60)

        def curve(token_values):
            out = LossCurve()
            for t, loss in zip(token_values, losses):
                out.append(LossPoint(int(t), float(loss), float(loss), 0.0, 1e-3))
            return out

        points = catch_up(curve(tokens), curve(tokens - delta))
        assert points, "no overlapping points"
        for p in points:
            assert p.deficit is not None
            assert abs(p.deficit - delta) <= 1.0


# ---------------------------------------------------------------------------
# 12. CLI determinism
# ---------------------------------------------------------------------------

def _digest_dir(path: Path) -> dict:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def test_criterion_12_cli_determinism(tmp_path, capsys):
    with criterion(12, "every CLI command is bitwise reproducible"):
        cfg = make_config(16, 32, 2, 2, 2, 96, s=16)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"model": cfg.to_dict()}))
        corpus_file = tmp_path / "corpus.txt"
        save_corpus(default_corpus(seq_len=16, num_sequences=48), corpus_file)

        def run(argv):
            assert cli_main(argv) == 0
            return capsys.readouterr().out

        base = tmp_path / "artifacts"

        def run_all():
            # Re-running with bitwise-identical flags (and output locations)
            # must reproduce every artifact byte for byte.
            stdout = {}
            stdout["init"] = run(["init", "--config", str(cfg_file), "--seed", "9",
                                  "--out", str(base / "dense")])
            stdout["upcycle"] = run(["upcycle", "--method", "drop", "--ratio", "0.5",
                                     "--seed", "1", "--experts", "4", "--topk", "2",
                                     "--in", str(base / "dense"), "--out", str(base / "moe")])
            stdout["rnu"] = run(["upcycle", "--method", "rnu", "--seed", "2",
                                 "--experts", "4", "--topk", "2",
                                 "--in", str(base / "dense"), "--out", str(base / "rnu")])
            stdout["train"] = run(["train", "--in", str(base / "moe"),
                                   "--corpus", str(corpus_file), "--out", str(base / "run"),
                                   "--steps", "5", "--batch-size", "4", "--seq-len", "16",
                                   "--max-lr", "1e-3", "--min-lr", "1e-4",
                                   "--balance", "global", "--seed", "3"])
            stdout["routing"] = run(["analyze-routing", "--in", str(base / "run" / "model"),
                                     "--corpus", str(corpus_file),
                                     "--out", str(base / "routing")])
            stdout["overlap"] = run(["analyze-overlap", "--plan", str(base / "moe")])
            stdout["catchup"] = run(["catch-up", "--base", str(base / "run" / "curve.jsonl"),
                                     "--other", str(base / "run" / "curve.jsonl"),
                                     "--out", str(base / "catch.csv")])
            stdout["params"] = run(["params", "--config", str(cfg_file)])
            stdout["flops"] = run(["flops", "--config", str(cfg_file), "--tokens", "1e6"])
            stdout["inspect"] = run(["inspect", "--in", str(base / "moe")])
            return _digest_dir(base), stdout

        digests_a, stdout_a = run_all()
        digests_b, stdout_b = run_all()
        assert digests_a == digests_b
        assert stdout_a == stdout_b
