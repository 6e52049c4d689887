#!/usr/bin/env python3
"""Record the reference ``eval_loss`` of each workload for a range of seeds.

    python3 perfbench/record_reference.py --first 0 --last 31

Runs the same phases as a benchmark round, in one process, and writes
``perfbench/reference.json``. Re-record only when a change is meant to alter
the arithmetic of training or evaluation; ``run.py`` checks each run's loss
against this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
os.environ.pop("MOEUP_THREADS", None)
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import phases  # noqa: E402
import workloads as wl  # noqa: E402


def reference_loss(workload: str, seed: int, work: Path) -> float:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    args = SimpleNamespace(work=str(work), workload=workload, seed=seed, recorder=None)
    phases.phase_setup(args)
    phases.phase_dense(args)
    argv = wl.upcycle_argv(wl.WORKLOADS[workload], seed, work / "trained", work / "up0")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if phases.cli.main(argv) != 0:
            raise RuntimeError(f"upcycle failed for {workload} seed {seed}")
    return phases.phase_moe(args)["eval_loss"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=31)
    args = parser.parse_args()
    work = ROOT / ".bench_work" / "reference"
    out = {}
    try:
        for workload in wl.WORKLOADS:
            out[workload] = {}
            for seed in range(args.first, args.last + 1):
                out[workload][str(seed)] = reference_loss(workload, seed, work)
                print(workload, seed, out[workload][str(seed)], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
