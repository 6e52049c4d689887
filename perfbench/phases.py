"""One phase of a benchmark round, run as a fresh child process by ``run.py``.

    python3 perfbench/phases.py PHASE --work DIR --workload NAME --seed N
        --result FILE [--spans FILE] [--round R] [-- CLI ARGS]

Phases: ``setup`` (corpora and dense parent, repeated), ``dense`` (train the
parent), ``load`` (reload the upcycled checkpoint and check it), ``moe``
(train the MoE and evaluate it) and ``cli`` (``moeup.cli.main`` in-process,
used only by the traced run; the untraced run calls ``python3 -m moeup.cli``).
Each phase writes its measurements as JSON to ``--result``. With ``--spans``
the program's public functions are wrapped and their spans written there.
The program is reached only through the public API that
``scripts/run_toy_pipeline.py`` and ``moeup.cli`` call, always by module
attribute so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads as wl
from moeup import checkpoint, cli, corpus, numerics, trainer, upcycle
from moeup import model as model_mod
from moeup.config import ModelConfig


def dense_config() -> ModelConfig:
    return ModelConfig(hidden_size=64, intermediate_size=256, num_layers=2, num_heads=4,
                       num_query_groups=4, head_dim=16, vocab_size=corpus.VOCAB_SIZE,
                       seq_len=wl.SEQ_LEN)


def train_config(kind: str, seed: int) -> trainer.TrainConfig:
    s = wl.seeds(seed)
    if kind == "dense":
        return trainer.TrainConfig(max_lr=3e-3, min_lr=3e-4, total_steps=wl.DENSE_STEPS,
                                   warmup_steps=2, batch_size=wl.TRAIN_BATCH,
                                   seq_len=wl.SEQ_LEN, balance_mode="off",
                                   seed=s["dense_train"])
    return trainer.TrainConfig(max_lr=2e-3, min_lr=2e-4, total_steps=wl.MOE_STEPS,
                               warmup_steps=4, batch_size=wl.TRAIN_BATCH, seq_len=wl.SEQ_LEN,
                               balance_mode="global", balance_coeff=0.02,
                               seed=s["moe_train"])


def _environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "moeup_threads": os.environ.get("MOEUP_THREADS", "unset (program default)"),
    }


def phase_setup(args) -> dict:
    work = Path(args.work)
    times = []
    for _ in range(wl.SETUP_REPEATS):
        start = time.perf_counter()
        bundled = corpus.default_corpus(seq_len=wl.SEQ_LEN)
        held_out = corpus.default_eval_corpus(seq_len=wl.SEQ_LEN)
        parent = upcycle.from_scratch(dense_config(), seed=wl.seeds(args.seed)["parent"])
        checkpoint.save(parent, work / "parent")
        corpus.save_corpus(bundled, work / "train.txt")
        corpus.save_corpus(held_out, work / "eval.txt")
        times.append(time.perf_counter() - start)
    return {"setup_s": times, "moeup_file": checkpoint.__file__, "env": _environment()}


def _finite_curve(curve) -> bool:
    return all(math.isfinite(p.train_loss) and math.isfinite(p.lm_loss) for p in curve.points)


def phase_dense(args) -> dict:
    work = Path(args.work)
    bundled = corpus.load_corpus(work / "train.txt")
    parent = checkpoint.load(work / "parent")
    model = model_mod.build_model(parent, max_positions=wl.SEQ_LEN,
                                  stream=numerics.RngStream(wl.seeds(args.seed)["dense_positions"]))
    cfg = train_config("dense", args.seed)
    start = time.perf_counter()
    model, curve = trainer.train(model, bundled, cfg)
    elapsed = time.perf_counter() - start
    rss = tracing.maxrss_mb()
    trained = model_mod.model_to_checkpoint(model, metadata={"role": "benchmark-parent"})
    checkpoint.save(trained, work / "trained")
    return {"train_s": elapsed, "tokens": cfg.total_steps * cfg.batch_size * cfg.seq_len,
            "rss_mb": rss, "finite": _finite_curve(curve),
            "final_loss": curve.points[-1].lm_loss}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _construction_ok(moe, parent, plan: dict, workload: wl.Workload, seed: int) -> dict:
    """Dropped-dimension counts, and retained weights bitwise equal to the parent's."""
    expected = math.floor(wl.UPCYCLE_RATIO * workload.expert_width)
    counts_ok = all(len(entry["dropped"]) == expected
                    for layer in plan["layers"] for entry in layer["experts"])
    pairs = [(i, e) for i in range(len(plan["layers"])) for e in range(workload.routed_experts)]
    chosen = random.Random(wl.seeds(seed)["sample"]).sample(pairs, wl.CONSTRUCTION_SAMPLES)
    retained_ok = True
    for i, e in chosen:
        entry = plan["layers"][i]["experts"][e]
        dropped = set(entry["dropped"])
        keep = [j for j in range(workload.expert_width) if j not in dropped]
        source = keep if entry.get("dims") is None else [entry["dims"][j] for j in keep]
        for kind in ("gate", "up", "down"):
            child = moe.tensors[f"layers.{i}.experts.{e}.{kind}"]
            ref = parent.tensors[f"layers.{i}.ffn.{kind}"]
            if kind == "down":
                same = child[keep, :].tobytes() == ref[source, :].tobytes()
            else:
                same = child[:, keep].tobytes() == ref[:, source].tobytes()
            retained_ok = retained_ok and same and child.dtype == ref.dtype
    return {"dropped_counts": counts_ok, "retained_bitwise": retained_ok}


def phase_load(args) -> dict:
    work = Path(args.work)
    target = work / "up0"
    start = time.perf_counter()
    moe = checkpoint.load(target)
    times = [time.perf_counter() - start]
    rss = tracing.maxrss_mb()
    for _ in range(wl.LOAD_REPEATS - 1):
        start = time.perf_counter()
        checkpoint.load(target)
        times.append(time.perf_counter() - start)

    manifest = json.loads((target / "manifest.json").read_text(encoding="utf-8"))
    blob = target / manifest["blob"]["file"]
    with open(target / "reinit_plan.json", "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    checks = {"blob_sha256": _sha256(blob) == manifest["blob"]["sha256"]}
    with args.recorder.paused() if args.recorder else contextlib.nullcontext():
        parent = checkpoint.load(work / "trained")
    checks.update(_construction_ok(moe, parent, plan, wl.WORKLOADS[args.workload], args.seed))
    return {"load_s": times, "rss_mb": rss, "checks": checks}


def phase_moe(args) -> dict:
    work = Path(args.work)
    bundled = corpus.load_corpus(work / "train.txt")
    held_out = corpus.load_corpus(work / "eval.txt")
    ckpt = checkpoint.load(work / "up0")
    model = model_mod.build_model(ckpt, max_positions=wl.SEQ_LEN,
                                  stream=numerics.RngStream(wl.seeds(args.seed)["moe_positions"]))
    cfg = train_config("moe", args.seed)
    start = time.perf_counter()
    model, curve = trainer.train(model, bundled, cfg)
    train_s = time.perf_counter() - start
    rss = tracing.maxrss_mb()
    start = time.perf_counter()
    held_loss = trainer.evaluate_loss(model, held_out, batch_size=wl.EVAL_BATCH)
    bundled_loss = trainer.evaluate_loss(model, bundled, batch_size=wl.EVAL_BATCH,
                                         max_sequences=wl.EVAL_BUNDLED_SEQUENCES)
    eval_s = time.perf_counter() - start
    eval_sequences = held_out.num_sequences + min(wl.EVAL_BUNDLED_SEQUENCES,
                                                  bundled.num_sequences)
    return {"train_s": train_s, "tokens": cfg.total_steps * cfg.batch_size * cfg.seq_len,
            "rss_mb": rss, "finite": _finite_curve(curve),
            "eval_s": eval_s, "eval_tokens": eval_sequences * wl.SEQ_LEN,
            "eval_loss": held_loss, "eval_loss_bundled": bundled_loss}


def phase_cli(args) -> dict:
    code = cli.main(args.cli_args)
    if code != 0:
        raise SystemExit(code)
    return {}


PHASES = {"setup": phase_setup, "dense": phase_dense, "load": phase_load,
          "moe": phase_moe, "cli": phase_cli}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cli_args = []
    if "--" in argv:
        split = argv.index("--")
        argv, cli_args = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=sorted(PHASES))
    parser.add_argument("--work")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--round", type=int, default=-1)
    args = parser.parse_args(argv)
    args.cli_args = cli_args
    args.recorder = tracing.Recorder(args.phase, args.round).install() if args.spans else None
    try:
        result = PHASES[args.phase](args)
    finally:
        if args.recorder is not None:
            args.recorder.dump(args.spans)
    if args.result:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
