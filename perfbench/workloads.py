"""The benchmark's workloads.

Both run the paper's path at desk scale, with the toy shapes of
``scripts/run_toy_pipeline.py``: a dense parent is trained, drop-upcycled by
the ``moeup upcycle`` CLI, reloaded, trained as an MoE and evaluated. They
differ only in the MoE layout, the input property that MoE dispatch cost
depends on. ``toy-transfer`` has 4 coarse experts with top-2 routing.
``toy-finegrained`` has 31 routed experts of width 32 with top-15 routing
plus one shared expert. Both activate an FFN width of 512 per token, so the
computed FLOPs per token match and a dispatch change shows as a difference
between them.
"""

from __future__ import annotations

from dataclasses import dataclass

SEQ_LEN = 64
TRAIN_BATCH = 16
EVAL_BATCH = 32
EVAL_BUNDLED_SEQUENCES = 128
# Rounds are kept short so that each metric is sampled at many points of a
# run: the speed of a shared machine drifts by tens of percent over tens of
# seconds. More MoE than dense steps: the MoE phase is the paper's main cost,
# and it puts the median of the traced per-step timings in the MoE mode.
DENSE_STEPS = 10
MOE_STEPS = 20
UPCYCLE_RATIO = 0.5
# CLI upcycle runs per round; their outputs must be bitwise identical.
UPCYCLE_REPEATS = 2
# Timed checkpoint loads per round (the first also gives the peak RSS).
LOAD_REPEATS = 20
# Set-ups per round, each timed; ``setup_s`` is the median over the run.
SETUP_REPEATS = 2
# (layer, expert) pairs whose retained weights are compared bitwise.
CONSTRUCTION_SAMPLES = 4
MAX_SEED = 2**32 - 1


@dataclass(frozen=True)
class Workload:
    name: str
    upcycle_flags: tuple[str, ...]
    expert_width: int  # intermediate width of one routed expert
    routed_experts: int


WORKLOADS = {w.name: w for w in (
    Workload("toy-transfer",
             ("--method", "drop", "--experts", "4", "--topk", "2"),
             expert_width=256, routed_experts=4),
    Workload("toy-finegrained",
             ("--method", "fg-drop", "--experts", "4", "--granularity", "8",
              "--shared", "1", "--topk", "15"),
             expert_width=32, routed_experts=31),
)}


def seeds(seed: int) -> dict[str, int]:
    """Independent program seeds derived from the workload seed."""
    names = ("parent", "dense_train", "dense_positions", "upcycle", "moe_train",
             "moe_positions", "sample")
    return {name: seed * len(names) + k for k, name in enumerate(names)}


def upcycle_argv(workload: Workload, seed: int, parent_dir, out_dir) -> list[str]:
    return ["upcycle", *workload.upcycle_flags, "--ratio", str(UPCYCLE_RATIO),
            "--seed", str(seeds(seed)["upcycle"]), "--in", str(parent_dir),
            "--out", str(out_dir)]
