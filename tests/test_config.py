import json

import pytest

from moeup.config import ModelConfig, ValidationError, model_config_from_file

from conftest import make_config, tiny_dense_config, tiny_moe_config


def test_dense_and_moe_flags():
    dense = tiny_dense_config()
    assert not dense.is_moe and dense.routed_experts == 0
    moe = tiny_moe_config(n=4, k=2)
    assert moe.is_moe and moe.routed_experts == 4
    assert moe.expert_intermediate == moe.intermediate_size


def test_fine_grained_routing_counts():
    cfg = tiny_moe_config(n=4, k=3, m=2, k_s=1)
    assert cfg.routed_experts == 2 * 4 - 1
    assert cfg.expert_intermediate == cfg.intermediate_size // 2


@pytest.mark.parametrize("kwargs,needle", [
    (dict(hidden_size=17), "hidden_size"),
    (dict(num_query_groups=3), "num_query_groups"),
    (dict(num_experts=4, top_k=5), "top_k"),
    (dict(num_experts=4, top_k=0), "top_k"),
    (dict(num_experts=0, top_k=2), "top_k"),
    (dict(num_experts=4, top_k=2, granularity=3), "divisible"),
    (dict(num_experts=4, top_k=2, granularity=2, shared_experts=8), "shared_experts"),
    (dict(num_experts=0, granularity=2), "granularity"),
])
def test_invariant_violations(kwargs, needle):
    base = dict(hidden_size=16, intermediate_size=32, num_layers=2, num_heads=2,
                num_query_groups=2, head_dim=8, vocab_size=11)
    base.update(kwargs)
    with pytest.raises(ValidationError, match=needle):
        ModelConfig(**base)


def test_from_dict_rejects_unknown_fields():
    data = tiny_dense_config().to_dict()
    data["bogus"] = 1
    with pytest.raises(ValidationError, match="bogus"):
        ModelConfig.from_dict(data)


def test_round_trip_dict():
    cfg = tiny_moe_config(n=4, k=2)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_file_sections(tmp_path):
    cfg = make_config(16, 32, 1, 2, 2, 11)
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(cfg.to_dict()))
    sectioned = tmp_path / "sectioned.json"
    sectioned.write_text(json.dumps({"model": cfg.to_dict(), "train": {"seed": 1}}))
    assert model_config_from_file(flat) == cfg
    assert model_config_from_file(sectioned) == cfg


@pytest.mark.parametrize("value", [2.0, 2.5, True, "2"], ids=repr)
def test_integer_fields_reject_other_types(value):
    from moeup.trainer import TrainConfig
    from moeup.upcycle import UpcycleSpec

    model = tiny_moe_config(n=4, k=2).to_dict()
    for name in ("hidden_size", "num_layers", "top_k", "granularity", "seq_len"):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            ModelConfig(**(model | {name: value}))
    for name in ("seed", "granularity", "shared_experts"):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            UpcycleSpec(method="fg-drop", **{name: value})
    train = dict(max_lr=1e-3, min_lr=1e-4, total_steps=4)
    for name in ("total_steps", "warmup_steps", "tail_steps", "batch_size", "seq_len", "seed"):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            TrainConfig(**(train | {name: value}))


def test_integer_fields_accept_numpy_integers():
    import numpy as np

    data = {k: np.int64(v) for k, v in tiny_moe_config(n=4, k=2).to_dict().items()}
    assert ModelConfig(**data) == tiny_moe_config(n=4, k=2)
