#!/usr/bin/env python3
"""Peak memory of one ``moeup init``, ``moeup upcycle --method drop``,
``moeup train`` or ``moeup analyze-routing`` run.

    python3 scripts/peak_rss.py init --scale toy|152m --out DIR [--seed N]
    python3 scripts/peak_rss.py upcycle --in PARENT --out DIR [--seed N]
    python3 scripts/peak_rss.py train --in CKPT --corpus FILE --out DIR [--steps N]
    python3 scripts/peak_rss.py analyze-routing --in CKPT --corpus FILE --out DIR

``init`` writes a from-scratch dense checkpoint of the toy config or of the
152M config (``from_scratch`` and then ``save``). ``upcycle`` turns a dense
parent into 8 experts, top-2, drop ratio 0.5. ``train`` trains a checkpoint
for N steps (default 20) with ``moeup train``'s other defaults: batches of
16 x 64 tokens and global load balancing, the settings of the benchmark's MoE
training phase. ``analyze-routing`` walks the corpus as evaluation does and
writes its routing CSVs to DIR. The command runs as ``python3 -m moeup.cli``
in a child process, so its peak is its own; the script prints one JSON line
with the child's exit code, wall time, peak RSS (``ru_maxrss`` from
``wait4``) and the size of the checkpoint it wrote, in MiB (null for
``analyze-routing``, which writes none). The 152M run needs about 0.3 GiB for
``init`` and 0.65-0.75 GiB for ``upcycle``, each writing its tensors as it
draws or builds them (0.7 and 1.8 GiB when they built the whole checkpoint
first), plus 0.6 and 1.6 GiB of disk.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIB = 1 << 20

# Model configs by scale: the toy shape of the benchmark and of
# ``scripts/run_toy_pipeline.py``, and the paper's 152M dense model.
SCALES = {
    "toy": {"hidden_size": 64, "intermediate_size": 256, "num_layers": 2, "num_heads": 4,
            "num_query_groups": 4, "head_dim": 16, "vocab_size": 96, "seq_len": 64},
    "152m": {"hidden_size": 512, "intermediate_size": 2048, "num_layers": 12, "num_heads": 8,
             "num_query_groups": 8, "head_dim": 64, "vocab_size": 99_574, "seq_len": 4096},
}
UPCYCLE_FLAGS = ["--method", "drop", "--experts", "8", "--topk", "2", "--ratio", "0.5"]


def measure(cli_args: list[str]) -> dict:
    """Run ``moeup.cli`` with ``cli_args`` in a child; return its exit code, wall
    time and peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "moeup.cli", *cli_args], env=env,
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return {"exit_code": child.returncode, "wall_s": round(wall, 3),
            "maxrss_mib": round(usage.ru_maxrss * 1024 / MIB, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("init", help="time moeup init")
    p.add_argument("--scale", choices=sorted(SCALES), required=True)
    p.add_argument("--out", required=True, help="output checkpoint directory")
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("upcycle", help="time moeup upcycle --method drop")
    p.add_argument("--in", dest="input", required=True, help="dense parent checkpoint")
    p.add_argument("--out", required=True, help="output checkpoint directory")
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("train", help="time moeup train")
    p.add_argument("--in", dest="input", required=True, help="checkpoint to train")
    p.add_argument("--corpus", required=True, help="corpus file (domain TAB ids)")
    p.add_argument("--out", required=True, help="output directory (model + curve.jsonl)")
    p.add_argument("--steps", type=int, default=20)
    p = sub.add_parser("analyze-routing", help="time moeup analyze-routing")
    p.add_argument("--in", dest="input", required=True, help="MoE checkpoint")
    p.add_argument("--corpus", required=True, help="corpus file (domain TAB ids)")
    p.add_argument("--out", required=True, help="output directory for the CSV files")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        if args.command == "init":
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(SCALES[args.scale]), encoding="utf-8")
            cli_args = ["init", "--config", str(config), "--seed", str(args.seed),
                        "--out", args.out]
            result = {"command": "init", "scale": args.scale}
        elif args.command == "upcycle":
            cli_args = ["upcycle", *UPCYCLE_FLAGS, "--seed", str(args.seed),
                        "--in", args.input, "--out", args.out]
            result = {"command": "upcycle"}
        elif args.command == "train":
            cli_args = ["train", "--steps", str(args.steps), "--in", args.input,
                        "--corpus", args.corpus, "--out", args.out]
            result = {"command": "train", "steps": args.steps}
        else:
            cli_args = ["analyze-routing", "--in", args.input, "--corpus", args.corpus,
                        "--out", args.out]
            result = {"command": "analyze-routing"}
        result.update(measure(cli_args))
    written = Path(args.out) / "model" if args.command == "train" else Path(args.out)
    blob = written / "tensors.bin"
    result["payload_mib"] = round(blob.stat().st_size / MIB, 1) if blob.exists() else None
    print(json.dumps(result, sort_keys=True))
    return 0 if result["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
