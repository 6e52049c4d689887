import math
from dataclasses import replace

import numpy as np
import pytest

from moeup import upcycle
from moeup.checkpoint import ffn_slot_names
from moeup.config import ValidationError
from moeup.model import FfnWeights, ffn_forward, moe_forward
from moeup.numerics import RngStream

from conftest import make_config, random_checkpoint, tiny_dense_config, tiny_moe_config


def _layer_ffn(ckpt, layer):
    gate, up, down = ffn_slot_names(f"layers.{layer}.ffn")
    return FfnWeights(*(np.asarray(ckpt.tensors[n], dtype=np.float64)
                        for n in (gate, up, down)))


def _layer_moe_weights(ckpt, layer):
    from moeup.model import MoeLayerWeights

    config = ckpt.config
    experts = []
    for e in range(config.routed_experts):
        names = ffn_slot_names(f"layers.{layer}.experts.{e}")
        experts.append(FfnWeights(*(np.asarray(ckpt.tensors[n], dtype=np.float64)
                                    for n in names)))
    return MoeLayerWeights(
        router=np.asarray(ckpt.tensors[f"layers.{layer}.router"], dtype=np.float64),
        experts=tuple(experts))


def _non_ffn_names(ckpt):
    return [n for n in ckpt.tensors
            if ".ffn." not in n and ".experts." not in n
            and ".shared." not in n and not n.endswith(".router")]


class TestFromScratch:
    def test_large_tensor_std_matches_init(self):
        config = make_config(64, 512, 2, 4, 4, 500)
        ck = upcycle.from_scratch(config, seed=0)
        for name in ("embedding.token", "head.out", "layers.0.ffn.gate"):
            std = float(np.asarray(ck.tensors[name], dtype=np.float64).std())
            assert abs(std - 0.02) / 0.02 < 0.05, name

    def test_same_seed_reproduces(self):
        config = tiny_moe_config()
        a = upcycle.from_scratch(config, seed=5)
        b = upcycle.from_scratch(config, seed=5)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_different_seeds_differ_everywhere(self):
        config = tiny_moe_config()
        a = upcycle.from_scratch(config, seed=5)
        b = upcycle.from_scratch(config, seed=6)
        for name in a.tensors:
            assert np.max(np.abs(a.tensors[name].astype(np.float64)
                                 - b.tensors[name].astype(np.float64))) > 0, name


class TestRouterInit:
    def test_bounds(self):
        config = tiny_moe_config(n=8, k=2)
        r = upcycle.router_init(config, RngStream(1))
        assert np.all(np.abs(r) <= 0.0346)

    def test_std_matches_gaussian_counterpart(self):
        config = make_config(512, 1024, 1, 8, 8, 50, n=8, k=2)
        r = upcycle.router_init(config, RngStream(2))
        assert abs(r.std() - 0.02) / 0.02 < 0.05

    def test_deterministic(self):
        config = tiny_moe_config()
        a = upcycle.router_init(config, RngStream(3, (1,)))
        b = upcycle.router_init(config, RngStream(3, (1,)))
        assert np.array_equal(a, b)


class TestNaive:
    def test_experts_are_bitwise_copies(self):
        dense = random_checkpoint(tiny_dense_config(), seed=1)
        moe, _ = upcycle.build(upcycle.UpcycleSpec("naive", seed=2), dense, tiny_moe_config())
        for layer in range(2):
            parent = ffn_slot_names(f"layers.{layer}.ffn")
            for e in range(4):
                child = ffn_slot_names(f"layers.{layer}.experts.{e}")
                for src, dst in zip(parent, child):
                    assert np.array_equal(dense.tensors[src], moe.tensors[dst])

    def test_function_preserved(self):
        dense = random_checkpoint(tiny_dense_config(), seed=2)
        moe, _ = upcycle.build(upcycle.UpcycleSpec("naive", seed=3), dense, tiny_moe_config())
        rng = np.random.default_rng(0)
        for layer in range(2):
            weights = _layer_moe_weights(moe, layer)
            parent = _layer_ffn(dense, layer)
            for _ in range(10):
                x = rng.normal(size=16)
                y, _, _ = moe_forward(weights, x, 2)
                assert np.max(np.abs(y - ffn_forward(parent, x))) < 1e-12

    def test_equals_drop_at_ratio_zero_outside_router(self):
        dense = random_checkpoint(tiny_dense_config(), seed=3)
        config = tiny_moe_config()
        naive, _ = upcycle.build(upcycle.UpcycleSpec("naive", seed=4), dense, config)
        dropped, _ = upcycle.build(
            upcycle.UpcycleSpec(method="drop", ratio=0.0, seed=4), dense, config)
        for name in naive.tensors:
            if name.endswith(".router"):
                continue
            assert np.array_equal(naive.tensors[name], dropped.tensors[name]), name

    def test_non_ffn_tensors_bitwise(self):
        dense = random_checkpoint(tiny_dense_config(), seed=4)
        moe, _ = upcycle.build(upcycle.UpcycleSpec("naive", seed=5), dense, tiny_moe_config())
        for name in _non_ffn_names(dense):
            assert np.array_equal(dense.tensors[name], moe.tensors[name])


class TestRandomNoise:
    def test_zero_fraction_equals_naive(self):
        dense = random_checkpoint(tiny_dense_config(), seed=5)
        config = tiny_moe_config()
        spec = upcycle.UpcycleSpec(method="rnu", seed=6, noise_fraction=0.0)
        rnu, _ = upcycle.build(spec, dense, config)
        naive, _ = upcycle.build(upcycle.UpcycleSpec("naive", seed=6), dense, config)
        for name in rnu.tensors:
            assert np.array_equal(rnu.tensors[name], naive.tensors[name]), name

    def test_perturbed_fraction_and_noise_std(self):
        config_d = make_config(64, 512, 1, 4, 4, 50)
        dense = random_checkpoint(config_d, seed=6)
        config = make_config(64, 512, 1, 4, 4, 50, n=2, k=1)
        spec = upcycle.UpcycleSpec(method="rnu", seed=7, noise_fraction=0.5,
                                   noise_sigma=0.02)
        rnu, _ = upcycle.build(spec, dense, config)
        for e in range(2):
            for src, dst in zip(ffn_slot_names("layers.0.ffn"),
                                ffn_slot_names(f"layers.0.experts.{e}")):
                parent = dense.tensors[src].astype(np.float64)
                child = rnu.tensors[dst].astype(np.float64)
                delta = child - parent
                changed = delta != 0.0
                n = parent.size
                # Binomial bound on the Bernoulli(0.5) mask density.
                assert abs(changed.mean() - 0.5) < 4 * math.sqrt(0.25 / n)
                assert abs(delta[changed].std() - 0.02) / 0.02 < 0.05


class TestDrop:
    def test_ratio_zero_is_pure_copy(self):
        dense = random_checkpoint(tiny_dense_config(), seed=7)
        moe, plan = upcycle.build(
            upcycle.UpcycleSpec(method="drop", ratio=0.0, seed=8), dense, tiny_moe_config())
        for layer in range(2):
            for e in range(4):
                for src, dst in zip(ffn_slot_names(f"layers.{layer}.ffn"),
                                    ffn_slot_names(f"layers.{layer}.experts.{e}")):
                    assert np.array_equal(dense.tensors[src], moe.tensors[dst])
                assert plan.layers[layer].experts[e].dropped.size == 0

    def test_retention_counts_and_shared_index_set(self):
        d_f = 2048
        config_d = make_config(32, d_f, 1, 2, 2, 50)
        dense = random_checkpoint(config_d, seed=8)
        config = make_config(32, d_f, 1, 2, 2, 50, n=2, k=1)
        spec = upcycle.UpcycleSpec(method="drop", ratio=0.5, seed=9)
        moe, plan = upcycle.build(spec, dense, config)
        gate_p, up_p, down_p = (dense.tensors[n] for n in ffn_slot_names("layers.0.ffn"))
        for e in range(2):
            entry = plan.layers[0].experts[e]
            assert entry.dropped.size == math.floor(0.5 * d_f)
            retained = entry.retained_mask(d_f)
            gate_c, up_c, down_c = (moe.tensors[n]
                                    for n in ffn_slot_names(f"layers.0.experts.{e}"))
            # One shared index set across the three matrices: retained columns
            # of gate/up and rows of down are bitwise-original.
            assert np.array_equal(gate_c[:, retained], gate_p[:, retained])
            assert np.array_equal(up_c[:, retained], up_p[:, retained])
            assert np.array_equal(down_c[retained, :], down_p[retained, :])
            # Dropped columns were actually replaced.
            assert not np.array_equal(gate_c[:, ~retained], gate_p[:, ~retained])
            exact_cols = int(np.sum(np.all(gate_c == gate_p, axis=0)))
            assert exact_cols == d_f - math.floor(0.5 * d_f)

    def test_constant_columns_reproduce_constant(self):
        config_d = tiny_dense_config()
        dense = random_checkpoint(config_d, seed=9)
        c = np.float32(0.125)
        dense.tensors["layers.0.ffn.up"] = np.full_like(dense.tensors["layers.0.ffn.up"], c)
        moe, plan = upcycle.build(
            upcycle.UpcycleSpec(method="drop", ratio=0.5, seed=10), dense, tiny_moe_config())
        for e in range(4):
            up_c = moe.tensors[f"layers.0.experts.{e}.up"]
            assert np.all(up_c == c)
            assert plan.layers[0].experts[e].stats["up"].sigma == 0.0

    def test_statistics_match_sampled_block(self):
        config_d = make_config(128, 1024, 1, 4, 4, 50)
        dense = random_checkpoint(config_d, seed=10)
        config = make_config(128, 1024, 1, 4, 4, 50, n=2, k=1)
        moe, plan = upcycle.build(
            upcycle.UpcycleSpec(method="drop", ratio=0.5, seed=11), dense, config)
        for e in range(2):
            entry = plan.layers[0].experts[e]
            dropped = entry.dropped
            for kind, src in zip(("gate", "up", "down"), ffn_slot_names("layers.0.ffn")):
                parent = dense.tensors[src].astype(np.float64)
                block = parent[:, dropped] if kind != "down" else parent[dropped, :]
                stats = entry.stats[kind]
                assert stats.mu == pytest.approx(float(block.mean()), abs=0)
                assert stats.sigma == pytest.approx(float(block.std()), abs=0)
                child = moe.tensors[f"layers.0.experts.{e}.{kind}"].astype(np.float64)
                new_block = child[:, dropped] if kind != "down" else child[dropped, :]
                n = new_block.size
                assert abs(new_block.mean() - stats.mu) < 4 * stats.sigma / math.sqrt(n)
                assert abs(new_block.std() - stats.sigma) / stats.sigma < 0.05

    def test_deterministic(self):
        dense = random_checkpoint(tiny_dense_config(), seed=11)
        spec = upcycle.UpcycleSpec(method="drop", ratio=0.5, seed=12)
        a, plan_a = upcycle.build(spec, dense, tiny_moe_config())
        b, plan_b = upcycle.build(spec, dense, tiny_moe_config())
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])
        assert plan_a.to_json_dict() == plan_b.to_json_dict()

    def test_plan_round_trip(self, tmp_path):
        dense = random_checkpoint(tiny_dense_config(), seed=12)
        _, plan = upcycle.build(
            upcycle.UpcycleSpec(method="drop", ratio=0.3, seed=13), dense, tiny_moe_config())
        upcycle.save_plan(plan, tmp_path)
        loaded = upcycle.load_plan(tmp_path)
        assert loaded.to_json_dict() == plan.to_json_dict()

    @pytest.mark.parametrize("ratio, granularity, shared, shared_init", [
        (0.0, 1, 0, "copy"), (0.3, 2, 1, "copy"), (0.3, 2, 1, "drop"), (1.0, 2, 1, "drop")])
    def test_every_written_plan_loads(self, tmp_path, ratio, granularity, shared, shared_init):
        """Plans as the drop family writes them pass the loader's checks."""
        dense = random_checkpoint(tiny_dense_config(), seed=12)
        config = tiny_moe_config(n=4, k=2, m=granularity, k_s=shared)
        spec = upcycle.UpcycleSpec(method="fg-drop", ratio=ratio, seed=13,
                                   granularity=granularity, shared_experts=shared,
                                   shared_init=shared_init)
        _, plan = upcycle.build(spec, dense, config)
        upcycle.save_plan(plan, tmp_path)
        assert upcycle.load_plan(tmp_path).to_json_dict() == plan.to_json_dict()

    @pytest.mark.parametrize("spec, method, match", [
        ({"ratio": 0.5}, "btx", "plan method"),
        ({"ratio": 0.5}, "rnu", "plan method"),
        ({"ratio": 0.5}, "scratch", "plan method"),
        ({"ratio": 0.5}, "naive", "naive plan has ratio 0"),
        ({"ratio": 0.5, "granularity": 2}, "drop", "granularity 1"),
        ({"ratio": 0.5, "shared_experts": 1}, "drop", "no shared experts"),
    ], ids=["btx", "rnu", "scratch", "naive-at-ratio-0.5", "fine-drop", "shared-drop"])
    def test_plan_loader_refuses_what_no_builder_writes(self, spec, method, match):
        """A plan that fg-drop wrote loads as fg-drop, and is refused under a
        method that would not have written it."""
        dense = random_checkpoint(tiny_dense_config(), seed=37)
        config = tiny_moe_config(m=spec.get("granularity", 1), k_s=spec.get("shared_experts", 0))
        _, plan = upcycle.build(upcycle.UpcycleSpec("fg-drop", seed=38, **spec), dense, config)
        data = plan.to_json_dict()
        assert upcycle.ReinitPlan.from_json_dict(data).to_json_dict() == data
        with pytest.raises(ValidationError, match=match):
            upcycle.ReinitPlan.from_json_dict(data | {"method": method})

    @pytest.mark.parametrize("granularity, dims, match", [
        (1, list(range(32)), "exactly when granularity > 1"),
        (2, None, "exactly when granularity > 1"),
        (2, [0], "distinct indices"),
        (2, [0] * 16, "distinct indices"),
        (2, list(range(15)) + [32], "distinct indices"),
    ], ids=["dims-at-granularity-1", "no-dims", "short", "repeated", "out-of-range"])
    def test_plan_loader_checks_sampled_dims(self, granularity, dims, match):
        """A fine-grained expert's sampled parent dims are expert_width distinct
        dims of the parent, and a coarse expert has none."""
        dense = random_checkpoint(tiny_dense_config(), seed=39)
        spec = upcycle.UpcycleSpec("fg-drop", seed=40, granularity=granularity)
        _, plan = upcycle.build(spec, dense, tiny_moe_config(m=granularity))
        data = plan.to_json_dict()
        assert upcycle.ReinitPlan.from_json_dict(data).to_json_dict() == data
        data["layers"][0]["experts"][0]["dims"] = dims
        with pytest.raises(ValidationError, match=match):
            upcycle.ReinitPlan.from_json_dict(data)

    def test_ratio_out_of_range_names_field(self):
        with pytest.raises(ValidationError, match="ratio"):
            upcycle.UpcycleSpec(method="drop", ratio=1.5)

    def test_metadata_provenance(self):
        dense = random_checkpoint(tiny_dense_config(), seed=13)
        moe, _ = upcycle.build(
            upcycle.UpcycleSpec(method="drop", ratio=0.5, seed=14), dense, tiny_moe_config())
        from moeup.checkpoint import checkpoint_hash

        assert moe.metadata["method"] == "drop"
        assert moe.metadata["ratio"] == 0.5
        assert moe.metadata["seed"] == 14
        assert moe.metadata["parent_hash"] == checkpoint_hash(dense)


class TestBtx:
    def test_identical_inputs_average_to_same(self):
        dense = random_checkpoint(tiny_dense_config(), seed=14)
        config = tiny_moe_config(n=8, k=2)
        merged, _ = upcycle.build(upcycle.UpcycleSpec("btx", seed=15), dense, config,
                                  [dense, dense, dense])
        for name in _non_ffn_names(dense):
            assert np.allclose(merged.tensors[name], dense.tensors[name], rtol=0, atol=0)
        first = [merged.tensors[f"layers.0.experts.0.{k}"] for k in ("gate", "up", "down")]
        for e in range(1, 8):
            for kind, ref in zip(("gate", "up", "down"), first):
                assert np.array_equal(merged.tensors[f"layers.0.experts.{e}.{kind}"], ref)

    def test_non_ffn_average(self):
        a = random_checkpoint(tiny_dense_config(), seed=15)
        b = random_checkpoint(tiny_dense_config(), seed=16)
        a.tensors["layers.0.attn.wq"] = np.zeros_like(a.tensors["layers.0.attn.wq"])
        b.tensors["layers.0.attn.wq"] = np.full_like(b.tensors["layers.0.attn.wq"], 2.0)
        merged, _ = upcycle.build(upcycle.UpcycleSpec("btx", seed=17), a,
                                  tiny_moe_config(n=4, k=2), [b])
        assert np.all(merged.tensors["layers.0.attn.wq"] == 1.0)

    def test_expert_duplication_order(self):
        models = [random_checkpoint(tiny_dense_config(), seed=17 + i) for i in range(4)]
        merged, _ = upcycle.build(upcycle.UpcycleSpec("btx", seed=18), models[0],
                                  tiny_moe_config(n=8, k=2), models[1:])
        for e in range(8):
            src = models[e // 2]
            for kind, parent_name in zip(("gate", "up", "down"),
                                         ffn_slot_names("layers.1.ffn")):
                assert np.array_equal(merged.tensors[f"layers.1.experts.{e}.{kind}"],
                                      src.tensors[parent_name])

    def test_wrong_expert_count_rejected(self):
        models = [random_checkpoint(tiny_dense_config(), seed=21 + i) for i in range(2)]
        with pytest.raises(ValidationError, match="num_experts"):
            upcycle.build(upcycle.UpcycleSpec("btx", seed=19), models[0],
                          tiny_moe_config(n=8, k=2), models[1:])

    def test_architecture_mismatch_rejected(self):
        a = random_checkpoint(tiny_dense_config(), seed=23)
        b = random_checkpoint(tiny_dense_config(vocab=29), seed=24)
        with pytest.raises(ValidationError):
            upcycle.build(upcycle.UpcycleSpec("btx", seed=20), a, tiny_moe_config(n=4, k=2), [b])


class TestFineGrained:
    def test_degenerate_matches_drop_bitwise(self):
        dense = random_checkpoint(tiny_dense_config(), seed=25)
        config = tiny_moe_config(n=4, k=2)
        spec = upcycle.UpcycleSpec(method="fg-drop", ratio=0.5, seed=26)
        fg, fg_plan = upcycle.build(spec, dense, config)
        plain, plain_plan = upcycle.build(
            upcycle.UpcycleSpec(method="drop", ratio=0.5, seed=26), dense, config)
        for name in fg.tensors:
            assert np.array_equal(fg.tensors[name], plain.tensors[name]), name
        for layer in range(2):
            for e in range(4):
                assert np.array_equal(fg_plan.layers[layer].experts[e].dropped,
                                      plain_plan.layers[layer].experts[e].dropped)

    def test_fine_expert_widths_and_retention(self):
        d_f = 2048
        config_d = make_config(32, d_f, 1, 2, 2, 50)
        dense = random_checkpoint(config_d, seed=26)
        config = make_config(32, d_f, 1, 2, 2, 50, n=2, k=2, m=2)
        spec = upcycle.UpcycleSpec(method="fg-drop", ratio=0.5, seed=27, granularity=2)
        fg, plan = upcycle.build(spec, dense, config)
        width = d_f // 2
        assert plan.expert_width == width
        for e in range(config.routed_experts):
            gate = fg.tensors[f"layers.0.experts.{e}.gate"]
            assert gate.shape == (32, width)
            entry = plan.layers[0].experts[e]
            assert entry.dims is not None and entry.dims.size == width
            assert entry.dropped.size == math.floor(0.5 * width)
            # Retained positions are bitwise slices of the sampled parent dims.
            retained_local = entry.retained_mask(width)
            parent_gate = dense.tensors["layers.0.ffn.gate"]
            sampled = parent_gate[:, entry.dims]
            assert np.array_equal(gate[:, retained_local], sampled[:, retained_local])

    def test_pure_subsampling_with_shared_copy(self):
        config_d = make_config(16, 32, 1, 2, 2, 23)
        dense = random_checkpoint(config_d, seed=27)
        config = make_config(16, 32, 1, 2, 2, 23, n=2, k=2, m=2, k_s=1)
        spec = upcycle.UpcycleSpec(method="fg-drop", ratio=0.0, seed=28,
                                   granularity=2, shared_experts=1, shared_init="copy")
        fg, plan = upcycle.build(spec, dense, config)
        parent = {k: dense.tensors[n]
                  for k, n in zip(("gate", "up", "down"), ffn_slot_names("layers.0.ffn"))}
        for group, entries in (("experts", plan.layers[0].experts),
                               ("shared", plan.layers[0].shared)):
            for idx, entry in enumerate(entries):
                dims = entry.dims
                for kind in ("gate", "up", "down"):
                    child = fg.tensors[f"layers.0.{group}.{idx}.{kind}"]
                    want = parent[kind][:, dims] if kind != "down" else parent[kind][dims, :]
                    assert np.array_equal(child, want)

    @pytest.mark.parametrize("method, m", [("fg-drop", 2), ("rnu", 1)])
    def test_scale_factor_applies_to_up_and_down_only(self, method, m):
        config_d = make_config(16, 32, 1, 2, 2, 23)
        dense = random_checkpoint(config_d, seed=28)
        config = make_config(16, 32, 1, 2, 2, 23, n=2, k=2, m=m)
        base = upcycle.UpcycleSpec(method=method, ratio=0.0, seed=29, granularity=m)
        plain, _ = upcycle.build(base, dense, config)
        scaled, _ = upcycle.build(replace(base, scale_factor=0.5), dense, config)
        for e in range(config.routed_experts):
            prefix = f"layers.0.experts.{e}"
            assert np.array_equal(scaled.tensors[f"{prefix}.gate"],
                                  plain.tensors[f"{prefix}.gate"])
            for kind in ("up", "down"):
                assert np.allclose(scaled.tensors[f"{prefix}.{kind}"],
                                   0.5 * plain.tensors[f"{prefix}.{kind}"].astype(np.float64),
                                   rtol=1e-7, atol=0), (e, kind)

    def test_divisibility_violation_rejected(self):
        with pytest.raises(ValidationError, match="divisible"):
            make_config(16, 30, 1, 2, 2, 23, n=2, k=2, m=4)

    def test_too_many_shared_rejected(self):
        with pytest.raises(ValidationError, match="shared_experts"):
            make_config(16, 32, 1, 2, 2, 23, n=2, k=2, m=2, k_s=4)


@pytest.mark.parametrize("method", ["naive", "rnu", "drop", "fg-drop", "btx"])
def test_non_ffn_invariance_all_methods(method):
    dense = random_checkpoint(tiny_dense_config(), seed=90)
    if method == "btx":
        # Identical seed and branch make the non-FFN average an exact copy.
        config, branches = tiny_moe_config(n=4, k=2), [dense]
    else:
        config, branches = tiny_moe_config(), []
    spec = upcycle.UpcycleSpec(method=method, ratio=0.5, seed=91)
    out, _ = upcycle.build(spec, dense, config, branches)
    for name in _non_ffn_names(dense):
        assert np.array_equal(dense.tensors[name], out.tensors[name]), (method, name)


def test_build_refuses_scratch():
    dense = random_checkpoint(tiny_dense_config(), seed=33)
    with pytest.raises(ValidationError, match="builds no MoE from a parent"):
        upcycle.build(upcycle.UpcycleSpec("scratch"), dense, tiny_moe_config())


@pytest.mark.parametrize("method", ["naive", "rnu", "drop", "fg-drop"])
def test_only_btx_takes_branches(method):
    dense = random_checkpoint(tiny_dense_config(), seed=34)
    with pytest.raises(ValidationError, match="takes no branches"):
        upcycle.build(upcycle.UpcycleSpec(method), dense, tiny_moe_config(n=4, k=2), [dense])


def test_naive_spec_at_its_default_ratio_builds_naive():
    """A naive spec's ratio is 0 whatever it is given, so the stream that
    ``moeup upcycle`` writes copies every expert bitwise, and the metadata and
    the plan record ratio 0 and drop nothing."""
    dense = random_checkpoint(tiny_dense_config(), seed=35)
    config = tiny_moe_config()
    for spec in (upcycle.UpcycleSpec("naive", seed=36),
                 upcycle.UpcycleSpec("naive", ratio=0.5, seed=36)):
        assert spec.ratio == 0.0
        moe, plan = upcycle.upcycle_stream(spec, dense, config)
        tensors = dict(moe.tensors)
        assert moe.metadata["ratio"] == plan.ratio == 0.0
        for layer in range(config.num_layers):
            for e in range(config.routed_experts):
                assert plan.layers[layer].experts[e].dropped.size == 0
                for src, dst in zip(ffn_slot_names(f"layers.{layer}.ffn"),
                                    ffn_slot_names(f"layers.{layer}.experts.{e}")):
                    assert np.array_equal(tensors[dst], dense.tensors[src]), dst


def test_compatibility_checks():
    dense = random_checkpoint(tiny_dense_config(), seed=30)
    bad = tiny_moe_config(vocab=29)
    with pytest.raises(ValidationError, match="vocab_size"):
        upcycle.build(upcycle.UpcycleSpec("naive"), dense, bad)
    moe_parent = random_checkpoint(tiny_moe_config(), seed=31)
    with pytest.raises(ValidationError, match="dense"):
        upcycle.build(upcycle.UpcycleSpec("naive"), moe_parent, tiny_moe_config())


@pytest.mark.parametrize("method", ["rnu", "drop", "fg-drop", "btx"])
def test_spec_expert_shape_must_match_target(method):
    """Every build that takes a spec refuses a target whose granularity or
    shared experts the spec contradicts, as the metadata records the spec:
    here a coarse 4-expert target and a spec of granularity 2 with one shared
    expert, and the reverse."""
    dense = random_checkpoint(tiny_dense_config(), seed=32)
    spec = upcycle.UpcycleSpec(method, granularity=2, shared_experts=1)
    coarse, fine = tiny_moe_config(n=4, k=2), tiny_moe_config(n=4, k=2, m=2, k_s=1)
    branches = [dense] if method == "btx" else []
    for s, c in ((spec, coarse), (replace(spec, granularity=1, shared_experts=0), fine)):
        with pytest.raises(ValidationError, match="disagrees with the target config"):
            upcycle.upcycle_stream(s, dense, c, branches)
        with pytest.raises(ValidationError, match="disagrees with the target config"):
            upcycle.build(s, dense, c, branches)
