import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from moeup import checkpoint as cp
from moeup import upcycle
from moeup.cli import main
from moeup.corpus import default_corpus, save_corpus

from conftest import make_config, random_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"


# A well-formed plan as the drop upcycle writes one: at ratio 0.5 and width 8,
# each expert drops 4 dims, with stats for every matrix kind.
_STATS = {kind: {"mu": 0.0, "sigma": 0.02} for kind in ("gate", "up", "down")}
_EXPERT = {"dims": None, "stats": _STATS}
_PLAN = {"format": "moeup.reinit_plan", "method": "drop", "ratio": 0.5, "seed": 0,
         "intermediate_size": 8, "expert_width": 8, "granularity": 1,
         "layers": [{"experts": [_EXPERT | {"dropped": [0, 1, 4, 6]},
                                 _EXPERT | {"dropped": [1, 2, 3, 7]}], "shared": []}]}
_POINT = {"tokens_processed": 64, "train_loss": 1.0, "lm_loss": 1.0, "balance_loss": 0.0,
          "lr": 1e-3}


# A short MoE train run on the 16-token corpus; a table row appends its flags.
_TRAIN = "train --in {moe} --corpus {corpus} --out {out} --batch-size 4 --seq-len 16"


def _plan_with(experts=None, shared=()) -> dict:
    """``_PLAN`` with its layer's expert entries replaced (None keeps them)."""
    layer = _PLAN["layers"][0]
    return _PLAN | {"layers": [{"experts": layer["experts"] if experts is None else experts,
                                "shared": list(shared)}]}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def _dir_digest(path: Path) -> dict:
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(path))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture
def config_file(tmp_path):
    cfg = make_config(16, 32, 2, 2, 2, 96, s=16)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": cfg.to_dict()}))
    return path


@pytest.fixture
def dense_dir(tmp_path):
    dense = random_checkpoint(make_config(16, 32, 2, 2, 2, 96, s=16), seed=1)
    cp.save(dense, tmp_path / "dense")
    return tmp_path / "dense"


@pytest.fixture
def moe_dir(tmp_path):
    moe = random_checkpoint(make_config(16, 32, 2, 2, 2, 96, n=4, k=2, s=16), seed=1)
    cp.save(moe, tmp_path / "moe")
    return tmp_path / "moe"


@pytest.fixture
def trained_dir(tmp_path):
    """A dense checkpoint with a 16-row position table, as training leaves one."""
    dense = random_checkpoint(make_config(16, 32, 2, 2, 2, 96, s=16), seed=1)
    dense.tensors[cp.POSITION_SLOT] = np.zeros((16, 16), dtype=np.float32)
    cp.save(dense, tmp_path / "trained")
    return tmp_path / "trained"


@pytest.fixture
def corpus_file(tmp_path):
    corpus = default_corpus(seq_len=16, num_sequences=48)
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    return path


class TestValidationAndExitCodes:
    def test_unknown_flag_rejected(self, capsys, config_file):
        code, _, err = _run(capsys, ["params", "--config", str(config_file), "--bogus"])
        assert code == 1
        assert "bogus" in err

    def test_invalid_ratio_names_field(self, capsys, dense_dir, tmp_path):
        code, _, err = _run(capsys, [
            "upcycle", "--method", "drop", "--ratio", "1.5",
            "--in", str(dense_dir), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ratio" in err

    def test_missing_checkpoint_is_io_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["inspect", "--in", str(tmp_path / "nope")])
        assert code == 2
        assert "not a checkpoint" in err

    def test_manifest_missing_key_is_io_error(self, capsys, dense_dir):
        manifest_path = dense_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["tensors"][0]["crc32"]
        manifest_path.write_text(json.dumps(manifest))
        code, payload, err = _run(capsys, ["inspect", "--in", str(dense_dir)])
        assert code == 2 and payload is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "crc32" in err

    def test_non_integer_thread_cap_is_validation_error(self, capsys, monkeypatch, dense_dir,
                                                        tmp_path):
        monkeypatch.setenv("MOEUP_THREADS", "abc")
        code, payload, err = _run(capsys, [
            "upcycle", "--method", "drop", "--in", str(dense_dir),
            "--out", str(tmp_path / "out")])
        assert code == 1 and payload is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "MOEUP_THREADS" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv, config", [
        ("init --config {model} --seed -1 --out {out}", None),
        ("upcycle --method drop --seed -1 --in {dense} --out {out}", None),
        ("upcycle --method rnu --noise-sigma inf --in {dense} --out {out}", None),
        ("upcycle --method drop --scale-factor inf --in {dense} --out {out}", None),
        ("upcycle --method drop --scale-factor 1e308 --in {dense} --out {out}", None),
        # btx and scratch take no scale factor.
        ("upcycle --method btx --scale-factor 2 --experts 4 --in {dense} --branches {dense} "
         "--out {out}", None),
        ("upcycle --method scratch --scale-factor 2 --config {model} --out {out}", None),
        # Every other setting that a method does not read is refused too,
        # rather than ignored or recorded in the metadata.
        ("upcycle --method rnu --ratio 0.9 --in {dense} --out {out}", None),
        ("upcycle --method rnu --shared-init drop --in {dense} --out {out}", None),
        ("upcycle --method rnu --config {config} --in {dense} --out {out}",
         {"upcycle": {"ratio": 0.9}}),
        ("upcycle --method drop --noise-sigma 0.5 --in {dense} --out {out}", None),
        ("upcycle --method drop --noise-fraction 0.1 --in {dense} --out {out}", None),
        ("upcycle --method drop --config {config} --in {dense} --out {out}",
         {"upcycle": {"noise_sigma": 0.5}}),
        ("upcycle --method fg-drop --noise-sigma 0.3 --experts 4 --granularity 2 --in {dense} "
         "--out {out}", None),
        ("upcycle --method drop --branches {dense} --in {dense} --out {out}", None),
        ("upcycle --method naive --ratio 0.7 --in {dense} --out {out}", None),
        ("upcycle --method btx --ratio 0.5 --experts 4 --in {dense} --branches {dense} "
         "--out {out}", None),
        ("upcycle --method scratch --seed 1 --ratio 0.5 --config {model} --out {out}", None),
        ("upcycle --method scratch --config {model} --in {dense} --out {out}", None),
        ("upcycle --method scratch --config {model} --experts 4 --out {out}", None),
        # A model section in the config file sets the target's shape, which
        # the spec must not contradict.
        ("upcycle --method drop --experts 2 --config {config} --in {dense} --out {out}",
         {"model": make_config(16, 32, 2, 2, 2, 96, n=4, k=2, s=16).to_dict()}),
        ("upcycle --method rnu --granularity 2 --config {config} --in {dense} --out {out}",
         {"model": make_config(16, 32, 2, 2, 2, 96, n=4, k=2, s=16).to_dict()}),
        ("upcycle --method btx --shared 1 --branches {dense} --config {config} --in {dense} "
         "--out {out}", {"model": make_config(16, 32, 2, 2, 2, 96, n=4, k=2, s=16).to_dict()}),
        ("flops --config {model} --seq-len -1", None),
        ("flops --config {model} --tokens -5", None),
        ("upcycle --method drop --config {config} --in {dense} --out {out}",
         {"upcycle": {"ratio": "abc"}}),
        ("upcycle --method drop --config {config} --in {dense} --out {out}",
         {"upcycle": {"ratioo": 0.5}}),
        ("train --config {config} --in {dense} --corpus {corpus} --out {out}",
         {"train": {"batch_size": "x"}}),
        # Malformed artifacts: the file's raw bytes, or a JSON value.
        ("analyze-overlap --plan {config}", b"{not json"),
        ("analyze-overlap --plan {config}", [_PLAN]),
        ("analyze-overlap --plan {config}", {k: v for k, v in _PLAN.items() if k != "method"}),
        ("analyze-overlap --plan {config}", _plan_with([_EXPERT | {"dropped": "abc"}] * 2)),
        ("analyze-overlap --plan {config}", _plan_with([_EXPERT | {"dropped": [0, 1, 4, 8]}] * 2)),
        ("analyze-overlap --plan {config}",
         _plan_with([_EXPERT | {"dropped": [0, 1, 4, 6], "dims": [0]}] * 2)),
        # Dropped lists must be strictly increasing and floor(ratio * width)
        # long (a shared expert's may be empty); stats cover the three kinds.
        ("analyze-overlap --plan {config}",
         _plan_with([_EXPERT | {"dropped": [1, 1, 1, 1]}, _EXPERT | {"dropped": [5, 2]}])),
        ("analyze-overlap --plan {config}", _plan_with([_EXPERT | {"dropped": [6, 4, 1, 0]}] * 2)),
        ("analyze-overlap --plan {config}", _plan_with([_EXPERT | {"dropped": [2, 5]}] * 2)),
        ("analyze-overlap --plan {config}",
         _plan_with([_EXPERT | {"dropped": [0, 1, 2, 3, 4]}] * 2)),
        ("analyze-overlap --plan {config}",
         _plan_with(shared=[_EXPERT | {"dropped": [3]}])),
        ("analyze-overlap --plan {config}",
         _plan_with([_EXPERT | {"dropped": [0, 1, 4, 6], "stats": _STATS | {"bogus": None}}] * 2)),
        ("analyze-overlap --plan {config}",
         _plan_with([_EXPERT | {"dropped": [0, 1, 4, 6], "stats": {"gate": None}}] * 2)),
        ("analyze-overlap --plan {config}", _PLAN | {"ratio": "abc"}),
        ("analyze-overlap --plan {config}", _PLAN | {"ratio": 7.0}),
        ("analyze-overlap --plan {config}", _PLAN | {"seed": "x"}),
        ("analyze-overlap --plan {config}", _PLAN | {"granularity": "x"}),
        ("analyze-overlap --plan {config}", _PLAN | {"granularity": 0}),
        # Only naive, drop and fg-drop write plans; a naive plan has ratio 0,
        # and a naive or drop plan is coarse.
        ("analyze-overlap --plan {config}", _PLAN | {"method": "btx"}),
        ("analyze-overlap --plan {config}", _PLAN | {"method": "rnu"}),
        ("analyze-overlap --plan {config}", _PLAN | {"method": "scratch"}),
        ("analyze-overlap --plan {config}", _PLAN | {"method": "naive"}),
        ("analyze-overlap --plan {config}",
         _plan_with([_EXPERT | {"dropped": [0, 2], "dims": [1, 3, 5, 7]}] * 2)
         | {"granularity": 2, "expert_width": 4}),
        ("analyze-overlap --plan {config}", _plan_with(shared=[_EXPERT | {"dropped": []}])),
        ("catch-up --base {config} --other {config}", b"{not json\n"),
        ("catch-up --base {config} --other {config}", b"[64, 1.0]\n"),
        ("catch-up --base {config} --other {config}", b'{"tokens_processed": 64}\n'),
        ("catch-up --base {config} --other {config}",
         json.dumps(_POINT | {"tokens_processed": "x"}).encode()),
        # Non-finite curve values, and smoothing windows under one point.
        ("catch-up --base {config} --other {config}", b'{"tokens_processed": 64, '
         b'"train_loss": NaN, "lm_loss": 1.0, "balance_loss": 0.0, "lr": 0.001}\n'),
        ("catch-up --base {config} --other {config}",
         json.dumps(_POINT | {"lr": float("inf")}).encode()),
        ("catch-up --base {config} --other {config} --window 0", _POINT),
        ("catch-up --base {config} --other {config} --window -3", _POINT),
        ("train --in {dense} --corpus {config} --out {out}", b"alpha\t1 2 \xff\n"),
        ("analyze-routing --in {dense} --corpus {config} --out {out}", b"\xfe\xff\n"),
        ("params --config {config}", b"\xff{}"),
        # Routing traces walk the corpus in forwards of their own: no batch size.
        ("analyze-routing --in {moe} --corpus {corpus} --batch-size 8 --out {out}", None),
        # A run of no steps has no curve; --tokens must ask for at least one.
        (f"{_TRAIN} --steps 0", None),
        (f"{_TRAIN} --tokens -5", None),
        (f"{_TRAIN} --tokens 0", None),
        # Sequences longer than the corpus's, or than the model's position
        # table, fail before the progress line.
        (f"{_TRAIN} --seq-len 32", None),
        ("train --in {trained} --corpus {config} --out {out} --seq-len 32",
         b"alpha\t" + b" 1" * 32 + b"\n"),
        # Non-finite learning rates and balance coefficient.
        (f"{_TRAIN} --max-lr nan --min-lr nan", None),
        (f"{_TRAIN} --balance-coeff nan", None),
        (f"{_TRAIN} --max-lr inf --min-lr 0", None),
        # Values that would print NaN or Infinity, which is not JSON.
        ("flops --config {model} --tokens nan", None),
        ("flops --config {model} --tokens inf", None),
        ("analyze-overlap --plan {config} --max-subsets 0", _PLAN),
        ("analyze-overlap --plan {config} --max-subsets -1", _PLAN),
        # A bad thread cap fails every command before any work: a leading
        # NAME=value word sets an environment variable.
        ("MOEUP_THREADS=abc train --in {dense} --corpus {corpus} --out {out}", None),
        (f"MOEUP_THREADS=abc {_TRAIN}", None),
        ("MOEUP_THREADS=abc upcycle --method drop --in {dense} --out {out}", None),
        ("MOEUP_THREADS=abc init --config {model} --out {out}", None),
        ("MOEUP_THREADS=abc analyze-routing --in {moe} --corpus {corpus} --out {out}", None),
        ("MOEUP_THREADS=abc params --config {model}", None),
    ])
    def test_bad_input_prints_one_error_line(self, capsys, monkeypatch, tmp_path, config_file,
                                             dense_dir, moe_dir, trained_dir, corpus_file,
                                             argv, config):
        words = argv.split()
        while "=" in words[0]:
            monkeypatch.setenv(*words.pop(0).split("=", 1))
        config_path = tmp_path / "bad.json"
        if isinstance(config, bytes):
            config_path.write_bytes(config)
        else:
            config_path.write_text(json.dumps(config))
        paths = {"model": config_file, "dense": dense_dir, "moe": moe_dir,
                 "trained": trained_dir, "corpus": corpus_file, "config": config_path,
                 "out": tmp_path / "out"}
        code, payload, err = _run(capsys, [arg.format(**paths) for arg in words])
        assert code == 1 and payload is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not paths["out"].exists()

    @pytest.mark.parametrize("argv", [
        "init --config {model} --out {out}",
        f"{_TRAIN} --steps 2",
        # A missing --in: the --out check comes before any load.
        "upcycle --method drop --in {missing} --out {out}",
        "analyze-routing --in {missing} --corpus {corpus} --out {out}",
    ], ids=["init", "train", "upcycle", "analyze-routing"])
    def test_train_out_that_is_a_file_fails_before_training(self, capsys, tmp_path, argv,
                                                            config_file, moe_dir, corpus_file):
        out = tmp_path / "out"
        out.write_text("keep")
        code, payload, err = _run(capsys, argv.format(
            model=config_file, moe=moe_dir, corpus=corpus_file, missing=tmp_path / "missing",
            out=out).split())
        assert code == 2 and payload is None
        # One error line and no progress line: no work ran.
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not a directory" in err
        assert out.read_text() == "keep"

    def test_diverging_run_ends_with_one_error_line(self, capsys, tmp_path, moe_dir,
                                                     corpus_file):
        argv = _TRAIN.format(moe=moe_dir, corpus=corpus_file, out=tmp_path / "out").split()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, payload, err = _run(capsys, argv + ["--steps", "6", "--max-lr", "1e30",
                                                      "--min-lr", "0"])
        assert code == 1 and payload is None and "Traceback" not in err
        # No numpy RuntimeWarning, from this thread or a pool thread: stderr is
        # the progress line and one error line.
        assert [str(w.message) for w in caught] == []
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("training for 6 steps")
        assert lines[1].startswith("error: non-finite loss at step ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        "upcycle --method drop --config {config} --in {dense} --out {out}",
        "upcycle --method scratch --config {config} --out {out}",
        "train --config {config} --in {dense} --corpus {corpus} --tokens 128 --out {out}",
    ])
    def test_config_file_is_read_once(self, capsys, monkeypatch, tmp_path, dense_dir,
                                      corpus_file, argv):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "model": make_config(16, 32, 2, 2, 2, 96, n=4, k=2, s=16).to_dict(),
            "upcycle": {"seed": 5},  # a field that drop and scratch both read
            "train": {"batch_size": 4, "seq_len": 16}}))
        opened, real_open = [], open

        def counting_open(file, *args, **kwargs):
            opened.extend([file] if str(file) == str(config_path) else [])
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        paths = {"config": config_path, "dense": dense_dir, "corpus": corpus_file,
                 "out": tmp_path / "out"}
        code, _, err = _run(capsys, [arg.format(**paths) for arg in argv.split()])
        assert code == 0, err
        assert len(opened) == 1

    def test_well_formed_plan_is_analyzed(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(_PLAN))
        code, payload, _ = _run(capsys, ["analyze-overlap", "--plan", str(path)])
        assert code == 0 and payload["ratio"] == 0.5

    @pytest.mark.parametrize("argv, config, field", [
        ("upcycle --method fg-drop --experts 2 --topk 1 --config {config} --in {dense} "
         "--out {out}", {"upcycle": {"granularity": 2.0}}, "granularity"),
        ("train --config {config} --in {dense} --corpus {corpus} --out {out}",
         {"train": {"total_steps": 2.5}}, "total_steps"),
    ])
    def test_non_integer_config_value_is_validation_error(self, capsys, tmp_path, dense_dir,
                                                          corpus_file, argv, config, field):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(config))
        paths = {"dense": dense_dir, "corpus": corpus_file, "config": config_path,
                 "out": tmp_path / "out"}
        code, payload, err = _run(capsys, [arg.format(**paths) for arg in argv.split()])
        assert code == 1 and payload is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{field} must be an integer" in err


class TestParamsAndFlops:
    def test_params_reference_value(self, capsys, tmp_path):
        cfg = make_config(512, 2048, 12, 8, 8, 99_574, n=8, k=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code, payload, _ = _run(capsys, ["params", "--config", str(path)])
        assert code == 0
        total = payload["params"]["total"]
        assert total == 416_598_528
        assert abs(total - 417e6) <= 1e6
        assert payload["config"]["vocab_size"] == 99_574

    def test_flops_table_and_training(self, capsys, config_file):
        code, payload, err = _run(capsys, [
            "flops", "--config", str(config_file), "--tokens", "1e6"])
        assert code == 0
        assert payload["forward"]["total_forward"] > 0
        assert payload["training_flops"] == pytest.approx(
            3 * payload["forward"]["total_forward"] / 16 * 1e6)
        assert "ffn" in err


class TestArtifactPipeline:
    def test_init_upcycle_train_inspect(self, capsys, tmp_path, config_file, corpus_file):
        code, payload, _ = _run(capsys, [
            "init", "--config", str(config_file), "--seed", "3",
            "--out", str(tmp_path / "dense")])
        assert code == 0

        code, payload, _ = _run(capsys, [
            "upcycle", "--method", "drop", "--ratio", "0.5", "--seed", "1",
            "--experts", "4", "--topk", "2",
            "--in", str(tmp_path / "dense"), "--out", str(tmp_path / "moe")])
        assert code == 0
        assert payload["metadata"]["method"] == "drop"
        assert (tmp_path / "moe" / "reinit_plan.json").exists()

        code, payload, _ = _run(capsys, [
            "train", "--in", str(tmp_path / "moe"), "--corpus", str(corpus_file),
            "--out", str(tmp_path / "run"), "--steps", "4", "--batch-size", "4",
            "--seq-len", "16", "--max-lr", "1e-3", "--min-lr", "1e-4",
            "--balance", "global", "--seed", "5"])
        assert code == 0
        assert (tmp_path / "run" / "curve.jsonl").exists()
        assert payload["final_loss"] > 0

        code, payload, _ = _run(capsys, [
            "analyze-overlap", "--plan", str(tmp_path / "moe"), "--topk", "2"])
        assert code == 0
        assert payload["layers"][0]["theoretical_pairwise_fraction"] == pytest.approx(0.25)

        code, payload, _ = _run(capsys, [
            "analyze-routing", "--in", str(tmp_path / "run" / "model"),
            "--corpus", str(corpus_file), "--out", str(tmp_path / "routing")])
        assert code == 0
        assert Path(payload["fractions_csv"]).exists()

        code, payload, _ = _run(capsys, [
            "catch-up", "--base", str(tmp_path / "run" / "curve.jsonl"),
            "--other", str(tmp_path / "run" / "curve.jsonl"),
            "--window", "1", "--out", str(tmp_path / "catch.csv")])
        assert code == 0
        # Self catch-up can be positive where the raw curve is non-monotone,
        # but never negative.
        assert all(p["deficit"] is not None and p["deficit"] >= 0.0
                   for p in payload["points"])
        assert (tmp_path / "catch.csv").exists()

        code, payload, _ = _run(capsys, ["inspect", "--in", str(tmp_path / "moe")])
        assert code == 0
        manifest = cp.read_manifest(tmp_path / "moe")
        assert payload["manifest"] == manifest  # lossless round trip

    def test_upcycle_rerun_bitwise_identical(self, capsys, tmp_path, dense_dir):
        argv = ["upcycle", "--method", "drop", "--ratio", "0.5", "--seed", "1",
                "--experts", "4", "--topk", "2", "--in", str(dense_dir)]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")

    def test_inputs_never_mutated(self, capsys, tmp_path, dense_dir):
        before = _dir_digest(dense_dir)
        assert main(["upcycle", "--method", "naive", "--experts", "4", "--topk", "2",
                     "--in", str(dense_dir), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert _dir_digest(dense_dir) == before

    def test_naive_echoes_the_spec_it_builds(self, capsys, tmp_path, dense_dir):
        """Naive upcycling is drop upcycling at ratio 0: the echoed spec agrees
        with the metadata, and the plan drops nothing. (A --ratio is refused.)"""
        code, payload, _ = _run(capsys, [
            "upcycle", "--method", "naive", "--seed", "3", "--experts", "4",
            "--topk", "2", "--in", str(dense_dir), "--out", str(tmp_path / "naive")])
        assert code == 0
        assert payload["spec"]["ratio"] == payload["metadata"]["ratio"] == 0.0
        built = cp.load(tmp_path / "naive")
        want, _ = upcycle.build(upcycle.UpcycleSpec("naive", seed=3), cp.load(dense_dir),
                                built.config)
        assert built.tensors.keys() == want.tensors.keys()
        assert all(np.array_equal(built.tensors[name], want.tensors[name])
                   for name in want.tensors)
        plan = upcycle.load_plan(tmp_path / "naive")
        assert all(e.dropped.size == 0 for layer in plan.layers for e in layer.experts)

    def test_btx_via_cli(self, capsys, tmp_path):
        for i in range(4):
            cp.save(random_checkpoint(make_config(16, 32, 1, 2, 2, 96, s=16), seed=40 + i),
                    tmp_path / f"m{i}")
        branches = ",".join(str(tmp_path / f"m{i}") for i in range(1, 4))
        code, payload, _ = _run(capsys, [
            "upcycle", "--method", "btx", "--in", str(tmp_path / "m0"),
            "--branches", branches, "--experts", "8", "--topk", "2",
            "--out", str(tmp_path / "btx")])
        assert code == 0
        assert payload["config"]["num_experts"] == 8

    def test_scratch_requires_config(self, capsys, tmp_path):
        code, _, err = _run(capsys, [
            "upcycle", "--method", "scratch", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config" in err


# moeup modules that a command must not import, by command.
_NOT_IMPORTED = {
    "init": {"trainer", "model", "corpus", "analysis", "accounting"},
    "upcycle": {"trainer", "model", "corpus", "analysis", "accounting"},
    "inspect": {"trainer", "model", "corpus", "analysis"},
}


@pytest.mark.parametrize("command", _NOT_IMPORTED)
def test_command_imports_only_the_modules_it_runs(tmp_path, command):
    """``python3 -m moeup.cli init|upcycle|inspect`` does not import (and, without
    bytecode, compile) the training, model, corpus, analysis or accounting code
    that it does not run."""
    config = make_config(16, 32, 2, 2, 2, 23, s=16)
    (tmp_path / "config.json").write_text(json.dumps(config.to_dict()))
    cp.save(random_checkpoint(config, seed=1), tmp_path / "parent")
    argv = {
        "init": ["init", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")],
        "upcycle": ["upcycle", "--method", "drop", "--experts", "4", "--topk", "2",
                    "--in", str(tmp_path / "parent"), "--out", str(tmp_path / "o")],
        "inspect": ["inspect", "--in", str(tmp_path / "parent")],
    }[command]
    child = ("import runpy, sys\n"
             "sys.argv = ['moeup', *sys.argv[1:]]\n"
             "try:\n"
             "    runpy.run_module('moeup.cli', run_name='__main__')\n"
             "except SystemExit as exc:\n"
             "    assert not exc.code, exc.code\n"
             "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.strip().splitlines()[-1].split())
    assert {"moeup.checkpoint", "moeup.upcycle"} <= loaded
    assert not {f"moeup.{name}" for name in _NOT_IMPORTED[command]} & loaded
