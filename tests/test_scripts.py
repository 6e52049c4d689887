import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_toy_pipeline_short_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_toy_pipeline.py"), "--out", str(tmp_path),
         "--pretrain-steps", "2", "--branch-steps", "1", "--moe-steps", "2"],
        env=_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "summary.json").exists()


def test_artifact_hashes_reproduce_across_processes(tmp_path):
    maps = []
    for run in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "artifact_hashes.py"),
             "--out", str(tmp_path / run)],
            env=_env(), capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 1
        maps.append(json.loads(lines[0]))
    assert maps[0] == maps[1]
    names = set(maps[0])
    assert {"train_fg_drop/curve.jsonl", "train_btx/model/tensors.bin",
            "routing/routing_fractions.csv", "fg_drop/reinit_plan.json",
            "catchup_drop_vs_parent.csv", "corpora/train.txt", "corpora_17/train.txt",
            "corpora_17/eval.txt", "pipeline/summary.json",
            "pipeline/routing_drop.csv", "train_parent_64/model/tensors.bin",
            "train_drop_64/model/tensors.bin", "train_drop_64/curve.jsonl",
            "train_fg_drop_64/model/tensors.bin", "train_fg_drop_64/curve.jsonl",
            "routing_fg_drop_64/routing_fractions.csv"} <= names


@pytest.mark.parametrize("flag, value", [("--seq-len", "0"), ("--train-sequences", "-1"),
                                         ("--eval-sequences", "-3"), ("--train-sequences", "0")])
def test_make_corpus_rejects_bad_sizes(tmp_path, flag, value):
    out = tmp_path / "corpora"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_corpus.py"), "--out", str(out), flag, value],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert flag in proc.stderr and proc.stdout == ""
    assert not out.exists()


def test_peak_rss_inspect_job_on_toy_parent(tmp_path):
    runs = []
    for args in (["init", "--scale", "toy", "--out", str(tmp_path / "parent")],
                 ["inspect", "--in", str(tmp_path / "parent")]):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "peak_rss.py"), *args],
                              env=_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 1
        runs.append(json.loads(lines[0]))
    inspect = runs[1]
    assert inspect["command"] == "inspect" and inspect["exit_code"] == 0
    assert inspect["maxrss_mib"] > 0 and inspect["wall_s"] > 0
    assert inspect["payload_mib"] is None
    assert "stored parameters" in proc.stderr
