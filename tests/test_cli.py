import hashlib
import json
from pathlib import Path

import pytest

from moeup import checkpoint as cp
from moeup.cli import main
from moeup.corpus import default_corpus, save_corpus

from conftest import make_config, random_checkpoint, toy_dense_config


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
        ("flops --config {model} --seq-len -1", None),
        ("flops --config {model} --tokens -5", None),
        ("upcycle --method drop --config {config} --in {dense} --out {out}",
         {"upcycle": {"ratio": "abc"}}),
        ("upcycle --method drop --config {config} --in {dense} --out {out}",
         {"upcycle": {"ratioo": 0.5}}),
        ("train --config {config} --in {dense} --corpus {corpus} --out {out}",
         {"train": {"batch_size": "x"}}),
    ])
    def test_bad_input_prints_one_error_line(self, capsys, tmp_path, config_file, dense_dir,
                                             corpus_file, argv, config):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(config))
        paths = {"model": config_file, "dense": dense_dir, "corpus": corpus_file,
                 "config": config_path, "out": tmp_path / "out"}
        code, payload, err = _run(capsys, [arg.format(**paths) for arg in argv.split()])
        assert code == 1 and payload is None
        assert err.startswith("error: ") and err.count("\n") == 1

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
