#!/usr/bin/env python3
"""moeup benchmark: the drop-upcycling transfer loop, coarse and fine-grained.

Run from the repository root:

    python3 perfbench/run.py --workload toy-transfer --seed 1 --seconds 45 --trace 0

A run repeats rounds until ``--seconds`` have passed, at least one. A round
sets up the workload (corpora and dense parent, timed ``SETUP_REPEATS``
times) and then follows the paper's path: train the dense parent,
drop-upcycle it with ``python3 -m moeup.cli upcycle`` (several times; the
outputs must be bitwise identical), reload the result, train the MoE and
evaluate it. Every phase runs in a fresh child process with BLAS pinned to
one thread, so each peak RSS belongs to one phase. Each end-to-end metric is
the median of the run's samples of it. Every phase's outputs are checked,
and a failed check counts as a failed operation.

With ``--trace 1`` rounds alternate traced and untraced (at least two traced
and one untraced). Traced rounds wrap the program's public functions (see
``tracing.py``) and give the per-layer metrics; the difference between the
two kinds of round is the tracing overhead. The spans are written to
``.bench_trace/`` when the run ends.

Stdout ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``. The metric names and units are read from ``BENCHMARK.json``.
Scratch files live in ``.bench_work/`` and are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

import perlayer
import stats
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120
MIN_FREE_BYTES = 256 * stats.MB
# A recorded eval loss matches "to rounding" within this relative difference.
ROUNDING = 1e-9


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def spawn(argv, stdout_path: Path, stderr_path: Path, env: dict,
          timeout: float = CHILD_TIMEOUT_S) -> tuple[int, float, float]:
    """Run one child to completion; return (exit code, wall s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "ab") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def child_env(root: Path) -> dict:
    """Children import the checkout's ``src/`` without writing bytecode into
    it, and run BLAS on one thread; ``MOEUP_THREADS`` keeps its default."""
    env = {k: v for k, v in os.environ.items() if k not in ("MOEUP_THREADS", "PYTHONPATH")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def source_digest(root: Path) -> str:
    """SHA-256 of the program's sources: the checkout carries no commit id."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def load_references() -> dict:
    with open(HERE / "reference.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_check(references: dict, workload: str, seed: int, loss: float):
    """Compare ``eval_loss`` with the recorded one of this seed.

    The tolerance is the spread across seeds (interquartile range of the
    recorded values): equal to rounding when the arithmetic is unchanged,
    within the seed spread when precision or reduction order changed. A seed
    without a record must fall within the recorded range widened by twice it.
    """
    recorded = references[workload]
    values = sorted(recorded.values())
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = q3 - q1
    ref = recorded.get(str(seed))
    if ref is None:
        ok = values[0] - 2 * spread <= loss <= values[-1] + 2 * spread
        return ok, (f"unrecorded seed, range [{values[0]:.4f}, {values[-1]:.4f}] "
                    f"+- 2 x {spread:.2e}")
    diff = abs(loss - ref)
    if diff <= ROUNDING * abs(ref):
        return True, "equal to the recorded value to rounding"
    return diff <= spread, f"|diff| {diff:.2e} vs seed spread {spread:.2e}"


class Run:
    def __init__(self, root: Path, workload: wl.Workload, seed: int, seconds: float,
                 trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = child_env(root)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[dict] = []
        self.span_files: list[Path] = []
        self.references = load_references()
        self.env_info: dict = {"source_sha256": source_digest(root)}

    # -- bookkeeping -------------------------------------------------------

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}" if detail else name)
        return ok

    def _stderr_tail(self) -> str:
        log = self.work / "stderr.log"
        lines = log.read_text(errors="replace").strip().splitlines() if log.exists() else []
        return lines[-1] if lines else ""

    # -- children ----------------------------------------------------------

    def _span_file(self, name: str, round_id: int) -> Path:
        path = self.work / f"spans-{name}-{round_id}-{len(self.span_files)}.json"
        self.span_files.append(path)
        return path

    def phase(self, name: str, round_id: int, traced: bool) -> dict | None:
        result = self.work / f"{name}-{round_id}.json"
        argv = [sys.executable, str(HERE / "phases.py"), name, "--work", str(self.work),
                "--workload", self.workload.name, "--seed", str(self.seed),
                "--result", str(result), "--round", str(round_id)]
        if traced:
            argv += ["--spans", str(self._span_file(name, round_id))]
        code, _, _ = spawn(argv, self.work / f"{name}.out", self.work / "stderr.log", self.env)
        if code != 0:
            self.problems.append(f"{name} exited {code}: {self._stderr_tail()}")
            return None
        with open(result, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def upcycle(self, round_id: int, repeat: int, traced: bool) -> dict:
        out = self.work / f"up{repeat}"
        shutil.rmtree(out, ignore_errors=True)
        cli_args = wl.upcycle_argv(self.workload, self.seed, self.work / "trained", out)
        stdout = self.work / "upcycle.out"
        if traced:
            argv = [sys.executable, str(HERE / "phases.py"), "cli",
                    "--spans", str(self._span_file("cli", round_id)),
                    "--round", str(round_id), "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "moeup.cli", *cli_args]
        code, wall, rss = spawn(argv, stdout, self.work / "stderr.log", self.env)
        checks = {"exit 0": code == 0}
        try:
            doc = json.loads(stdout.read_text(encoding="utf-8"))
            checks["one JSON document"] = (isinstance(doc, dict)
                                           and doc.get("command") == "upcycle"
                                           and "reinit_plan" in doc)
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            digest = manifest["blob"]["sha256"]
        except (OSError, ValueError, KeyError):
            checks["one JSON document"] = False
            digest = None
        return {"wall": wall, "rss_mb": rss, "checks": checks, "digest": digest}

    # -- one round -----------------------------------------------------------

    def round(self, round_id: int, traced: bool) -> bool:
        start = time.perf_counter()
        ops = ["setup", "dense train", *[f"upcycle {k}" for k in range(wl.UPCYCLE_REPEATS)],
               "load", "moe train", "eval"]
        done = 0

        def skip_rest(reason: str) -> bool:
            for name in ops[done:]:
                self.op(name, False, f"not run: {reason}")
            return False

        setup = self.phase("setup", round_id, traced)
        done += 1
        ok = setup is not None and Path(setup["moeup_file"]).resolve().is_relative_to(
            (self.root / "src").resolve())
        if not self.op("setup", ok, "failed or imported moeup from outside src/"):
            return skip_rest("setup failed")
        self.env_info.update(setup["env"])

        dense = self.phase("dense", round_id, traced)
        done += 1
        if not self.op("dense train", dense is not None and dense["finite"],
                       "failed or non-finite loss"):
            return skip_rest("dense train failed")

        upcycles = []
        for k in range(wl.UPCYCLE_REPEATS):
            up = self.upcycle(round_id, k, traced)
            done += 1
            first = upcycles[0]["digest"] if upcycles else up["digest"]
            up["checks"]["bitwise equal to the first run"] = (up["digest"] is not None
                                                              and up["digest"] == first)
            bad = [name for name, ok in up["checks"].items() if not ok]
            upcycles.append(up)
            if not self.op(f"upcycle {k}", not bad, ", ".join(bad)):
                return skip_rest("upcycle failed")

        load = self.phase("load", round_id, traced)
        done += 1
        bad = ["load failed"] if load is None else [n for n, ok in load["checks"].items() if not ok]
        if not self.op("load", not bad, ", ".join(bad)):
            return skip_rest("load failed")

        moe = self.phase("moe", round_id, traced)
        done += 1
        if not self.op("moe train", moe is not None and moe["finite"],
                       "failed or non-finite loss"):
            return skip_rest("moe train failed")

        losses = (moe["eval_loss"], moe["eval_loss_bundled"])
        ok = all(math.isfinite(x) for x in losses)
        ref_ok, ref_detail = reference_check(self.references, self.workload.name, self.seed,
                                             moe["eval_loss"])
        first = self.rounds[0]["eval_loss"] if self.rounds else moe["eval_loss"]
        repeat_ok = moe["eval_loss"] == first
        done += 1
        self.op("eval", ok and ref_ok and repeat_ok,
                f"finite={ok} reference={ref_ok} ({ref_detail}) same_as_round_0={repeat_ok}")
        self.rounds.append({
            "traced": traced, "wall": time.perf_counter() - start,
            "setup_s": setup["setup_s"],
            "dense_tps": stats.tokens_per_s(dense["tokens"], dense["train_s"]),
            "moe_tps": stats.tokens_per_s(moe["tokens"], moe["train_s"]),
            "eval_tps": stats.tokens_per_s(moe["eval_tokens"], moe["eval_s"]),
            "eval_loss": moe["eval_loss"], "eval_loss_bundled": moe["eval_loss_bundled"],
            "reference": ref_detail,
            "train_rss_mb": max(dense["rss_mb"], moe["rss_mb"]),
            "upcycle_s": [u["wall"] for u in upcycles],
            "upcycle_rss_mb": [u["rss_mb"] for u in upcycles],
            "load_s": load["load_s"], "load_rss_mb": load["rss_mb"],
        })
        return ok and ref_ok and repeat_ok

    # -- the run -------------------------------------------------------------

    def execute(self) -> float:
        start = time.perf_counter()
        round_id = 0
        while True:
            traced = self.trace and round_id % 2 == 0
            if not self.round(round_id, traced):
                break
            round_id += 1
            kinds = [r["traced"] for r in self.rounds]
            enough = not self.trace or (kinds.count(True) >= 2 and kinds.count(False) >= 1)
            if enough and time.perf_counter() - start >= self.seconds:
                break
        return time.perf_counter() - start


def end_to_end(run: Run) -> tuple[dict, dict]:
    rounds = [r for r in run.rounds if not r["traced"]]
    flat = lambda key: [x for r in rounds for x in r[key]]  # noqa: E731
    per_round = lambda key: [r[key] for r in rounds]  # noqa: E731
    samples = {
        "setup_s": flat("setup_s"),
        "dense_train_tokens_per_s": per_round("dense_tps"),
        "moe_train_tokens_per_s": per_round("moe_tps"),
        "eval_tokens_per_s": per_round("eval_tps"),
        "eval_loss": per_round("eval_loss"),
        "train_peak_rss_mb": per_round("train_rss_mb"),
        "upcycle_s": flat("upcycle_s"),
        "upcycle_peak_rss_mb": flat("upcycle_rss_mb"),
        "load_s": flat("load_s"),
        "load_peak_rss_mb": per_round("load_rss_mb"),
    }
    return {k: stats.median(v) for k, v in samples.items() if v}, samples


def layer_metrics(run: Run) -> tuple[dict, dict, list[str]]:
    spans, absent = tracing.merge(run.span_files)
    traced = [r for r in run.rounds if r["traced"]]
    untraced = [r for r in run.rounds if not r["traced"]]
    metrics, counts = perlayer.compute(spans, len(traced))
    if traced and untraced:
        base = stats.median([r["wall"] for r in untraced])
        metrics["trace.overhead_pct"] = (
            100.0 * (stats.median([r["wall"] for r in traced]) - base) / base)
        counts["trace.overhead_pct"] = len(run.rounds)
    out = run.root / ".bench_trace"
    out.mkdir(exist_ok=True)
    with open(out / f"{run.workload.name}-seed{run.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": run.workload.name, "seed": run.seed, "absent": absent,
                   "spans": spans}, fh)
    return metrics, counts, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "moeup" / "__init__.py").is_file():
            raise BenchError(f"no program source at {root / 'src' / 'moeup'}; "
                             "run from the repository root")
        if not 0 <= args.seed <= wl.MAX_SEED:
            raise BenchError(f"--seed must be in [0, {wl.MAX_SEED}]")
        with open(root / "BENCHMARK.json", "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        free = shutil.disk_usage(root).free
        if free < MIN_FREE_BYTES:
            raise BenchError(f"only {free / stats.MB:.0f} MB free disk")
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run = Run(root, wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        elapsed = run.execute()
        if args.trace:
            values, counts, absent = layer_metrics(run) if run.rounds else ({}, {}, [])
            wanted = spec["per_layer"]
        else:
            values, counts = end_to_end(run)
            counts = {k: len(v) for k, v in counts.items()}
            absent = []
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.rounds)} rounds in {elapsed:.1f} s")
    print(f"environment: {json.dumps(run.env_info, sort_keys=True)}")
    for r in run.rounds:
        print(f"  round traced={r['traced']} wall={r['wall']:.2f}s "
              f"eval_loss={r['eval_loss']!r} bundled={r['eval_loss_bundled']!r} "
              f"({r['reference']})")
    if absent:
        print(f"absent spans: {', '.join(absent)}")
    for problem in run.problems:
        print(f"problem: {problem}")
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            continue
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"  {name:48s} {values[name]:>14.6g} {entry['unit']:9s} (n={counts.get(name, 0)})")
    for name in sorted(set(values) - {e["name"] for e in wanted}):
        print(f"  {name:48s} {values[name]:>14.6g} (no bound; n={counts.get(name, 0)})")
    missing = [e["name"] for e in wanted if e["name"] not in metrics]
    if missing and run.failed == 0:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
