#!/usr/bin/env python3
"""End-to-end toy experiment: pretrain a dense parent, build MoE variants,
train them side by side, and emit every analysis artifact.

Steps:

1. pretrain a dense toy model on the bundled corpus
2. construct MoE checkpoints from it: from-scratch, naive, random-noise,
   drop (r=0.5), and branch-merge from lightly specialized branches
3. report step-0 losses on the bundled and held-out corpora
4. continue training each MoE variant, writing loss curves (JSONL)
5. emit routing-fraction CSVs, the retained-overlap report, and catch-up
   curves of every variant against from-scratch

Outputs land under --out (default toy_run/). Everything is seeded; rerunning
reproduces the artifacts bit for bit. The wall time goes to stderr only.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from moeup import checkpoint, upcycle
from moeup.analysis import (
    catch_up,
    catch_up_csv,
    collect_traces,
    layer_entropy_csv,
    overlap_report,
    routing_fractions_csv,
    summarize_routing,
)
from moeup.config import ModelConfig
from moeup.corpus import VOCAB_SIZE, default_corpus, default_eval_corpus, save_corpus
from moeup.model import build_model, model_to_checkpoint
from moeup.numerics import RngStream
from moeup.trainer import TrainConfig, evaluate_loss, train


def dense_config() -> ModelConfig:
    return ModelConfig(hidden_size=64, intermediate_size=256, num_layers=2,
                       num_heads=4, num_query_groups=4, head_dim=16,
                       vocab_size=VOCAB_SIZE, seq_len=64)


def moe_config() -> ModelConfig:
    return ModelConfig(hidden_size=64, intermediate_size=256, num_layers=2,
                       num_heads=4, num_query_groups=4, head_dim=16,
                       vocab_size=VOCAB_SIZE, num_experts=4, top_k=2, seq_len=64)


def pretrain_parent(corpus, steps, seed, out_dir):
    ckpt = upcycle.from_scratch(dense_config(), seed=seed)
    model = build_model(ckpt, max_positions=64, stream=RngStream(seed))
    cfg = TrainConfig(max_lr=3e-3, min_lr=3e-4, total_steps=steps,
                      warmup_steps=min(20, steps), batch_size=16, seq_len=64,
                      balance_mode="off", seed=seed)
    model, curve = train(model, corpus, cfg)
    parent = model_to_checkpoint(model, metadata={"role": "toy-parent", "seed": seed})
    checkpoint.save(parent, out_dir / "parent")
    curve.save_jsonl(out_dir / "parent_curve.jsonl")
    return parent, curve


def specialize_branch(parent, corpus, domain, steps, seed, out_dir):
    """Continue the parent briefly on one domain to get a branch model."""
    rows = [i for i, d in enumerate(corpus.domains) if d == domain]
    from moeup.corpus import Corpus

    sub = Corpus(sequences=corpus.sequences[rows], domains=[domain] * len(rows))
    model = build_model(parent, max_positions=64, stream=RngStream(seed))
    cfg = TrainConfig(max_lr=1e-3, min_lr=1e-4, total_steps=steps, batch_size=16,
                      seq_len=64, balance_mode="off", seed=seed)
    model, _ = train(model, sub, cfg)
    branch = model_to_checkpoint(model, metadata={"role": f"branch-{domain}"})
    checkpoint.save(branch, out_dir / f"branch_{domain}")
    return branch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("toy_run"))
    parser.add_argument("--pretrain-steps", type=int, default=2000)
    parser.add_argument("--branch-steps", type=int, default=150)
    parser.add_argument("--moe-steps", type=int, default=600)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    started = time.time()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    bundled = default_corpus()
    held_out = default_eval_corpus()
    save_corpus(bundled, out / "train.txt")
    save_corpus(held_out, out / "eval.txt")

    print(f"[1/5] pretraining dense parent for {args.pretrain_steps} steps")
    parent, parent_curve = pretrain_parent(bundled, args.pretrain_steps, args.seed, out)
    print(f"      parent loss {parent_curve.points[0].lm_loss:.3f} -> "
          f"{parent_curve.points[-1].lm_loss:.3f}")

    print("[2/5] constructing MoE variants")
    cfg = moe_config()
    variants = {}
    variants["scratch"] = upcycle.from_scratch(cfg, seed=args.seed + 1)
    variants["naive"] = upcycle.build(upcycle.UpcycleSpec("naive", seed=args.seed + 2),
                                      parent, cfg)[0]
    variants["rnu"] = upcycle.build(upcycle.UpcycleSpec("rnu", seed=args.seed + 3),
                                    parent, cfg)[0]
    drop_ckpt, plan = upcycle.build(
        upcycle.UpcycleSpec("drop", ratio=0.5, seed=args.seed + 4), parent, cfg)
    variants["drop"] = drop_ckpt
    branches = [specialize_branch(parent, bundled, d, args.branch_steps,
                                  args.seed + 10 + i, out)
                for i, d in enumerate(("alpha", "beta", "code"))]
    btx_cfg = ModelConfig(**{**cfg.to_dict(), "num_experts": 8})
    variants["btx"] = upcycle.build(upcycle.UpcycleSpec("btx", seed=args.seed + 5),
                                    parent, btx_cfg, branches)[0]
    for name, ckpt in variants.items():
        checkpoint.save(ckpt, out / f"init_{name}")
    upcycle.save_plan(plan, out / "init_drop")

    print("[3/5] step-0 losses")
    step0 = {}
    for name, ckpt in variants.items():
        model = build_model(ckpt, max_positions=64, stream=RngStream(args.seed + 6))
        step0[name] = {
            "bundled": evaluate_loss(model, bundled, batch_size=32, max_sequences=128),
            "held_out": evaluate_loss(model, held_out, batch_size=32),
        }
        print(f"      {name:8s} bundled={step0[name]['bundled']:.4f} "
              f"held-out={step0[name]['held_out']:.4f}")

    print(f"[4/5] continued training, {args.moe_steps} steps per variant")
    curves = {}
    train_cfg = TrainConfig(max_lr=2e-3, min_lr=2e-4, total_steps=args.moe_steps,
                            warmup_steps=min(20, args.moe_steps), batch_size=16,
                            seq_len=64, balance_mode="global", balance_coeff=0.02,
                            seed=args.seed + 7)
    trained_models = {}
    for name, ckpt in variants.items():
        model = build_model(ckpt, max_positions=64, stream=RngStream(args.seed + 8))
        model, curve = train(model, bundled, train_cfg)
        curve.save_jsonl(out / f"curve_{name}.jsonl")
        curves[name] = curve
        trained_models[name] = model
        checkpoint.save(model_to_checkpoint(model, metadata={"variant": name}),
                        out / f"trained_{name}")
        print(f"      {name:8s} lm loss {curve.points[0].lm_loss:.4f} -> "
              f"{curve.points[-1].lm_loss:.4f}")

    print("[5/5] analysis artifacts")
    report = overlap_report(plan, k=2)
    with open(out / "overlap_report.json", "w", encoding="utf-8") as fh:
        json.dump({"ratio": report.ratio, "dimension": report.dimension,
                   "layers": [asdict(layer) for layer in report.layers]},
                  fh, indent=2, sort_keys=True)
    for name, model in trained_models.items():
        summary = summarize_routing(collect_traces(model, held_out))
        routing_fractions_csv(summary, out / f"routing_{name}.csv")
        layer_entropy_csv(summary, out / f"entropy_{name}.csv")
    for name, curve in curves.items():
        if name == "scratch":
            continue
        catch_up_csv(catch_up(curves["scratch"], curve), out / f"catchup_scratch_vs_{name}.csv")

    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump({"step0_losses": step0,
                   "train_config": asdict(train_cfg),
                   "pretrain_steps": args.pretrain_steps},
                  fh, indent=2, sort_keys=True)
    print(f"done; artifacts in {out}/")
    print(f"elapsed_seconds {time.time() - started:.1f}", file=sys.stderr)


if __name__ == "__main__":
    main()
