#!/usr/bin/env python3
"""SHA-256 of every artifact a fixed set of ``moeup`` commands writes.

    python3 scripts/artifact_hashes.py --out DIR

Writes toy model configs into DIR and small corpora of three shapes (16, 17
and 64 tokens per sequence) with ``scripts/make_corpus.py``, then runs, each
as ``python3 -m moeup.cli`` in a child process: ``init`` of a dense parent and
of a btx branch; ``upcycle`` with naive, drop, rnu, fg-drop (shared expert and
scale factor), btx and scratch; a 3-step ``train`` of the dense parent and of
three MoE checkpoints, under both balance modes; a 2-step ``train`` of a
second dense parent, of its drop upcycle and of its fg-drop upcycle (7
routed experts of width 32, top-3, and one shared expert) on batches of
16 x 64 tokens, which on two threads run attention and the dense FFN in two
tiles of 8 sequences each and the experts in two contiguous groups, all on
the thread pool; ``analyze-routing`` of a
trained MoE, and of the trained fg-drop upcycle over the 32 x 64-token
training corpus, whose evaluation forwards each span two tiles of 8
sequences; and ``catch-up`` of the trained parent's curve against the
trained drop's. Last, a short ``scripts/run_toy_pipeline.py`` run writes into
DIR/pipeline: its ``summary.json`` holds ``evaluate_loss`` values, which no
CLI command computes, and its routing CSVs come from ``collect_traces``. It
prints one JSON line mapping each file under DIR (a relative path) to its
SHA-256, so two code versions can be checked for byte-identical artifacts by
comparing two lines. The map does not depend on the core count or on
``MOEUP_THREADS``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DENSE = {"hidden_size": 32, "intermediate_size": 64, "num_layers": 2, "num_heads": 2,
         "num_query_groups": 2, "head_dim": 16, "vocab_size": 96, "seq_len": 16}
MOE = DENSE | {"num_experts": 4, "top_k": 2}
MOE_FLAGS = ["--experts", "4", "--topk", "2"]
TRAIN_FLAGS = ["--steps", "3", "--batch-size", "4", "--seq-len", "16", "--warmup", "1",
               "--seed", "7"]
# Two tiles of 8 x 64 tokens: per tile 512 x 2 x 64 attention scores and
# 512 x 64 FFN activations, each at least the pool's 2^15 elements.
TILED_DENSE = DENSE | {"seq_len": 64}
TILED_TRAIN_FLAGS = ["--steps", "2", "--batch-size", "16", "--seq-len", "64", "--warmup", "1",
                     "--seed", "8"]
CLI = [sys.executable, "-m", "moeup.cli"]


def _commands(out: Path) -> list[list[str]]:
    """Command lines in run order."""
    corpus, train_txt = out / "corpora", str(out / "corpora" / "train.txt")
    dense, moe = str(out / "dense.json"), str(out / "moe.json")
    up = [*CLI, "upcycle", "--in", str(out / "parent")]
    commands = [
        [sys.executable, str(ROOT / "scripts" / "make_corpus.py"), "--out", str(corpus),
         "--seq-len", "16", "--train-sequences", "32", "--eval-sequences", "8"],
        [sys.executable, str(ROOT / "scripts" / "make_corpus.py"),
         "--out", str(out / "corpora_17"),
         "--seq-len", "17", "--train-sequences", "40", "--eval-sequences", "8"],
        [*CLI, "init", "--config", dense, "--seed", "1", "--out", str(out / "parent")],
        [*CLI, "init", "--config", dense, "--seed", "2", "--out", str(out / "branch")],
        [*up, "--method", "naive", *MOE_FLAGS, "--out", str(out / "naive")],
        [*up, "--method", "drop", *MOE_FLAGS, "--ratio", "0.5", "--seed", "3",
         "--out", str(out / "drop")],
        [*up, "--method", "rnu", *MOE_FLAGS, "--seed", "3", "--out", str(out / "rnu")],
        [*up, "--method", "fg-drop", "--experts", "4", "--topk", "3", "--granularity", "2",
         "--shared", "1", "--scale-factor", "2", "--seed", "3", "--out", str(out / "fg_drop")],
        [*up, "--method", "btx", *MOE_FLAGS, "--branches", str(out / "branch"), "--seed", "3",
         "--out", str(out / "btx")],
        [*CLI, "upcycle", "--method", "scratch", "--config", moe, "--seed", "3",
         "--out", str(out / "scratch")],
        [sys.executable, str(ROOT / "scripts" / "make_corpus.py"),
         "--out", str(out / "corpora_64"),
         "--seq-len", "64", "--train-sequences", "32", "--eval-sequences", "8"],
        [*CLI, "init", "--config", str(out / "dense_64.json"), "--seed", "4",
         "--out", str(out / "parent_64")],
        [*CLI, "upcycle", "--in", str(out / "parent_64"), "--method", "drop", *MOE_FLAGS,
         "--ratio", "0.5", "--seed", "5", "--out", str(out / "drop_64")],
        [*CLI, "upcycle", "--in", str(out / "parent_64"), "--method", "fg-drop",
         "--experts", "4", "--topk", "3", "--granularity", "2", "--shared", "1",
         "--ratio", "0.5", "--seed", "6", "--out", str(out / "fg_drop_64")],
    ]
    for name in ("parent_64", "drop_64", "fg_drop_64"):
        commands.append([*CLI, "train", "--in", str(out / name),
                         "--corpus", str(out / "corpora_64" / "train.txt"), *TILED_TRAIN_FLAGS,
                         "--out", str(out / f"train_{name}")])
    for name, balance in [("parent", "global"), ("drop", "global"), ("fg_drop", "layerwise"),
                          ("btx", "layerwise")]:
        commands.append([*CLI, "train", "--in", str(out / name), "--corpus", train_txt,
                         *TRAIN_FLAGS, "--balance", balance, "--out", str(out / f"train_{name}")])
    commands.append([*CLI, "analyze-routing", "--in", str(out / "train_drop" / "model"),
                     "--corpus", str(corpus / "eval.txt"), "--out", str(out / "routing")])
    commands.append([*CLI, "analyze-routing", "--in", str(out / "train_fg_drop_64" / "model"),
                     "--corpus", str(out / "corpora_64" / "train.txt"),
                     "--out", str(out / "routing_fg_drop_64")])
    commands.append([*CLI, "catch-up", "--base", str(out / "train_drop" / "curve.jsonl"),
                     "--other", str(out / "train_parent" / "curve.jsonl"), "--window", "1",
                     "--out", str(out / "catchup_drop_vs_parent.csv")])
    commands.append([sys.executable, str(ROOT / "scripts" / "run_toy_pipeline.py"),
                     "--out", str(out / "pipeline"), "--pretrain-steps", "2",
                     "--branch-steps", "1", "--moe-steps", "2"])
    return commands


def run_all(out: Path) -> dict[str, str]:
    out.mkdir(parents=True, exist_ok=True)
    (out / "dense.json").write_text(json.dumps(DENSE, sort_keys=True), encoding="utf-8")
    (out / "moe.json").write_text(json.dumps({"model": MOE}, sort_keys=True), encoding="utf-8")
    (out / "dense_64.json").write_text(json.dumps(TILED_DENSE, sort_keys=True), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for command in _commands(out):
        proc = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}: {proc.stderr}")
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for the artifacts (created; should be empty)")
    args = parser.parse_args(argv)
    print(json.dumps(run_all(args.out), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
