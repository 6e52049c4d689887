import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moeup import upcycle
from moeup.analysis import (
    CatchUpPoint,
    catch_up,
    catch_up_csv,
    collect_traces,
    layer_entropy_csv,
    overlap_report,
    routing_fractions_csv,
    summarize_routing,
)
from moeup.config import ValidationError
from moeup.corpus import default_corpus
from moeup.model import LayerRouting, RoutingTrace, build_model
from moeup.numerics import RngStream
from moeup.trainer import LossCurve, LossPoint

from conftest import make_config, random_checkpoint, tiny_moe_config


def _trace(selected, probs, domains, k, n):
    layers = [LayerRouting(selected=s, gates=np.take_along_axis(p, s, axis=-1), probs=p)
              for s, p in zip(selected, probs)]
    return RoutingTrace(num_experts=n, top_k=k, layers=layers, domains=domains)


class TestSummarizeRouting:
    def test_constant_pair_selection(self):
        n, k, tokens = 6, 2, 50
        sel = np.tile(np.array([0, 1]), (1, tokens, 1))
        probs = np.full((1, tokens, n), 1.0 / n)
        trace = _trace([sel], [probs], ["alpha"], k, n)
        summary = summarize_routing(trace)
        frac = summary.fractions[(0, "alpha")]
        assert np.allclose(frac[:2], 0.5, atol=0)
        assert np.all(frac[2:] == 0.0)
        assert summary.entropy[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_random_routing(self):
        n, k, tokens = 8, 2, 20_000
        rng = np.random.default_rng(0)
        sel = np.stack([rng.choice(n, size=k, replace=False) for _ in range(tokens)])
        sel = np.sort(sel, axis=-1)[None, ...]
        probs = np.full((1, tokens, n), 1.0 / n)
        trace = _trace([sel], [probs], None, k, n)
        summary = summarize_routing(trace)
        frac = summary.fractions[(0, "all")]
        assert np.all(np.abs(frac - 1.0 / n) < 0.02)

    def test_domain_partitioned_routing(self):
        n, k = 4, 2
        sel_a = np.tile(np.array([0, 1]), (1, 30, 1))
        sel_b = np.tile(np.array([2, 3]), (1, 30, 1))
        probs = np.full((1, 30, n), 1.0 / n)
        trace_a = _trace([sel_a], [probs], ["alpha"], k, n)
        trace_b = _trace([sel_b], [probs], ["beta"], k, n)
        summary = summarize_routing([trace_a, trace_b])
        assert np.allclose(summary.fractions[(0, "alpha")], [0.5, 0.5, 0, 0], atol=0)
        assert np.allclose(summary.fractions[(0, "beta")], [0, 0, 0.5, 0.5], atol=0)

    def test_fractions_sum_to_one(self):
        ckpt = random_checkpoint(make_config(16, 32, 2, 2, 2, 96, n=4, k=2), seed=1)
        model = build_model(ckpt, max_positions=16, stream=RngStream(0))
        corpus = default_corpus(seq_len=16, num_sequences=48)
        summary = summarize_routing(collect_traces(model, corpus))
        for vec in summary.fractions.values():
            assert abs(vec.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("seq_len", [0, -1, 17, 500])
    def test_seq_len_out_of_corpus_range_rejected(self, seq_len):
        ckpt = random_checkpoint(make_config(16, 32, 2, 2, 2, 96, n=4, k=2), seed=1)
        model = build_model(ckpt, max_positions=16, stream=RngStream(0))
        corpus = default_corpus(seq_len=16, num_sequences=8)
        with pytest.raises(ValidationError, match=r"seq_len must be in \[1, 16\]"):
            collect_traces(model, corpus, seq_len=seq_len)

    @pytest.mark.parametrize("seq_len", [1, 16])
    def test_seq_len_bounds_accepted(self, seq_len):
        ckpt = random_checkpoint(make_config(16, 32, 2, 2, 2, 96, n=4, k=2), seed=1)
        model = build_model(ckpt, max_positions=16, stream=RngStream(0))
        corpus = default_corpus(seq_len=16, num_sequences=8)
        traces = collect_traces(model, corpus, seq_len=seq_len)
        assert traces[0].layers[0].selected.shape == (8, seq_len, 2)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            summarize_routing(RoutingTrace(num_experts=4, top_k=2, layers=[]))

    def test_csv_outputs(self, tmp_path):
        ckpt = random_checkpoint(make_config(16, 32, 2, 2, 2, 96, n=4, k=2), seed=2)
        model = build_model(ckpt, max_positions=16, stream=RngStream(0))
        corpus = default_corpus(seq_len=16, num_sequences=32)
        summary = summarize_routing(collect_traces(model, corpus))
        routing_fractions_csv(summary, tmp_path / "fractions.csv")
        layer_entropy_csv(summary, tmp_path / "entropy.csv")
        header = (tmp_path / "fractions.csv").read_text().splitlines()[0]
        assert header == "layer,domain,expert,fraction"
        header = (tmp_path / "entropy.csv").read_text().splitlines()[0]
        assert header == "layer,entropy"


class TestOverlapReport:
    def _plan(self, ratio, seed, d_f=256, n=4):
        dense = random_checkpoint(make_config(16, d_f, 1, 2, 2, 23), seed=seed)
        config = make_config(16, d_f, 1, 2, 2, 23, n=n, k=2)
        _, plan = upcycle.build(
            upcycle.UpcycleSpec(method="drop", ratio=ratio, seed=seed), dense, config)
        return plan

    def test_ratio_zero_full_overlap(self):
        report = overlap_report(self._plan(0.0, 1), k=2)
        layer = report.layers[0]
        assert layer.mean_pairwise_fraction == 1.0
        assert layer.mean_all_common_fraction == 1.0

    def test_ratio_one_zero_overlap(self):
        report = overlap_report(self._plan(1.0, 2), k=2)
        layer = report.layers[0]
        assert layer.mean_pairwise_fraction == 0.0
        assert layer.mean_all_common_fraction == 0.0

    def test_half_ratio_near_quarter(self):
        # E[overlap fraction] = (1-r)^2; a single plan should sit within a
        # loose multiple of the hypergeometric sd.
        report = overlap_report(self._plan(0.5, 3, d_f=2048, n=4), k=2)
        layer = report.layers[0]
        assert layer.theoretical_pairwise_fraction == pytest.approx(0.25, abs=1e-12)
        assert abs(layer.mean_pairwise_fraction - 0.25) < 0.02
        assert layer.subset_size == 2
        assert layer.mean_all_common_fraction == layer.mean_pairwise_fraction

    def test_k_subsets_of_three(self):
        report = overlap_report(self._plan(0.5, 4, d_f=2048, n=6), k=3)
        layer = report.layers[0]
        assert layer.num_subsets == math.comb(6, 3)
        assert layer.theoretical_all_common_fraction == pytest.approx(0.125, abs=1e-12)
        assert abs(layer.mean_all_common_fraction - 0.125) < 0.03

    def test_missing_plan_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            overlap_report(None, k=2)


def _curve(tokens, losses):
    curve = LossCurve()
    for t, loss in zip(tokens, losses):
        curve.append(LossPoint(int(t), float(loss), float(loss), 0.0, 1e-3))
    return curve


class TestCatchUp:
    def test_identical_curves_zero_deficit(self):
        tokens = np.arange(1, 21) * 1000
        losses = 5.0 - 0.1 * np.arange(20)
        points = catch_up(_curve(tokens, losses), _curve(tokens, losses))
        assert all(p.deficit == pytest.approx(0.0, abs=1e-9) for p in points)

    def test_shifted_curve_constant_deficit(self):
        delta = 10_000
        tokens = np.arange(1, 31) * 1000 + delta
        losses = 5.0 - 0.1 * np.arange(30)
        base = _curve(tokens, losses)
        other = _curve(tokens - delta, losses)
        points = catch_up(base, other)
        assert all(p.deficit is not None for p in points)
        assert all(abs(p.deficit - delta) <= 1.0 for p in points)

    def test_unreached_levels_reported_missing(self):
        base = _curve([1000, 2000, 3000], [5.0, 3.0, 1.0])
        other = _curve([1000, 2000, 3000], [5.0, 4.5, 4.0])
        points = catch_up(base, other, smooth_window=1)
        assert points[0].deficit is not None
        assert points[-1].deficit is None

    def test_antisymmetry_on_monotone_curves(self):
        # deficit(base, other) at matched loss levels negates under swapping.
        tokens_a = np.arange(1, 41) * 500
        tokens_b = np.arange(1, 41) * 500 + 3000
        losses = np.linspace(6.0, 2.0, 40)
        a, b = _curve(tokens_a, losses), _curve(tokens_b, losses)
        fwd = catch_up(a, b, smooth_window=1)
        back = catch_up(b, a, smooth_window=1)
        for p, q in zip(fwd, back):
            if p.deficit is not None and q.deficit is not None:
                assert p.deficit == pytest.approx(-q.deficit, abs=1e-6)

    @given(st.integers(2, 60), st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_deficit_zero_against_self(self, n_points, window_extra):
        window = 1 + 2 * window_extra
        assume(n_points > window)  # shorter curves smooth to a plateau
        tokens = np.cumsum(np.full(n_points, 700))
        losses = np.linspace(4.0, 1.0, n_points)
        curve = _curve(tokens, losses)
        points = catch_up(curve, curve, smooth_window=window)
        assert all(p.deficit is not None and abs(p.deficit) < 1e-6 for p in points)

    def test_csv(self, tmp_path):
        points = [CatchUpPoint(1000, 42.0), CatchUpPoint(2000, None)]
        catch_up_csv(points, tmp_path / "c.csv")
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "base_tokens,deficit"
        assert lines[1] == "1000,42.0"
        assert lines[2] == "2000,"

    def test_empty_curve_rejected(self):
        with pytest.raises(ValidationError):
            catch_up(LossCurve(), _curve([1], [1.0]))
