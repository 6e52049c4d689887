"""Per-layer metrics of the traced run, computed from the merged spans.

Layer names are the program's modules. A metric whose function was not
called in this workload (``upcycle.drop_upcycle`` on ``toy-finegrained``,
say) or is absent reads 0. Timings of repeated calls are reported as the
median and the tail percentile of ``stats.summary``.
"""

from __future__ import annotations

from collections import defaultdict

import stats

CONSTRUCTIONS = ("upcycle.drop_upcycle", "upcycle.fine_grained_drop_upcycle")


def _dur(span) -> float:
    return span["end"] - span["start"]


def _median(values) -> float:
    return stats.median(values) if values else 0.0


def compute(spans, traced_rounds: int) -> tuple[dict, dict]:
    """Return ``(metrics, sample_counts)`` keyed by per-layer metric name.

    The count of a tail metric also names the percentile reported.
    """
    index = stats.children_index(spans)
    by_id = {s["id"]: s for s in spans}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def under(span, names) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] in names:
                return True
            parent = by_id.get(parent["parent"])
        return False

    metrics: dict[str, float] = {}
    counts: dict[str, int | str] = {}

    def timing(prefix: str, values_ms, tail=False) -> None:
        summary = stats.summary(values_ms)
        metrics[f"{prefix}.ms_p50"] = summary["p50"] or 0.0
        counts[f"{prefix}.ms_p50"] = summary["n"]
        if tail:
            metrics[f"{prefix}.ms_p90"] = summary["tail"] or 0.0
            counts[f"{prefix}.ms_p90"] = f"{summary['n']}, p{summary['tail_pct']}"

    def seconds(name: str, selected=None, key="s") -> None:
        chosen = by_name[name] if selected is None else selected
        metrics[f"{name}.{key}"] = _median([_dur(s) for s in chosen])
        counts[f"{name}.{key}"] = len(chosen)

    def rss_rise(name: str, selected=None) -> None:
        # ru_maxrss only grows, so the first call in a process shows the rise;
        # report the largest rise of any call.
        chosen = by_name[name] if selected is None else selected
        metrics[f"{name}.peak_rss_rise_mb"] = max((s["rss_rise_mb"] for s in chosen),
                                                  default=0.0)
        counts[f"{name}.peak_rss_rise_mb"] = len(chosen)

    forwards = by_name["model.forward_cache"]
    timing("model.forward_cache", [_dur(s) * 1e3 for s in forwards], tail=True)
    metrics["model.forward_cache.calls"] = len(forwards) / max(1, traced_rounds)
    counts["model.forward_cache.calls"] = traced_rounds
    forward_time = sum(_dur(s) for s in forwards)
    metrics["model.forward.gflops_per_s"] = (
        sum(s["flops"] for s in forwards) / forward_time / 1e9 if forward_time else 0.0)
    counts["model.forward.gflops_per_s"] = len(forwards)
    timing("model.backward_from_cache",
           [_dur(s) * 1e3 for s in by_name["model.backward_from_cache"]], tail=True)
    timing("model.trace_from_cache", [_dur(s) * 1e3 for s in by_name["model.trace_from_cache"]])

    steps = [step for train in by_name["trainer.train"]
             for step in stats.train_steps(train, index, "model.forward_cache")]
    timing("trainer.step", [(hi - lo) * 1e3 for lo, hi, _ in steps], tail=True)
    self_ms = [stats.self_time(lo, hi, [(k["start"], k["end"]) for k in kids]) * 1e3
               for lo, hi, kids in steps]
    metrics["trainer.step.self_ms_p50"] = _median(self_ms)
    counts["trainer.step.self_ms_p50"] = len(self_ms)
    for name in ("numerics.softmax", "numerics.top_k_batch"):
        inside = [s for s in by_name[name] if under(s, {"trainer.train"})]
        metrics[f"{name}.ms_per_step"] = (
            sum(_dur(s) for s in inside) * 1e3 / len(steps) if steps else 0.0)
        counts[f"{name}.ms_per_step"] = len(inside)
    for name in ("trainer.adamw_step", "trainer.clip_gradients", "trainer.load_balance_loss"):
        timing(name, [_dur(s) * 1e3 for s in by_name[name]])

    seconds("trainer.evaluate_loss")
    seconds("corpus.default_corpus")
    seconds("upcycle.from_scratch")
    rss_rise("upcycle.from_scratch")
    seconds("upcycle.drop_upcycle")
    drops = by_name["upcycle.drop_upcycle"]
    metrics["upcycle.drop_upcycle.self_s"] = _median(
        [stats.span_self_time(s, index) for s in drops])
    counts["upcycle.drop_upcycle.self_s"] = len(drops)
    rss_rise("upcycle.drop_upcycle")
    seconds("upcycle.fine_grained_drop_upcycle")
    seconds("upcycle.save_plan")

    # Sampling and the thread map, summed per construction call.
    constructions = sum(len(by_name[name]) for name in CONSTRUCTIONS)
    for name in ("numerics.sample_normal", "numerics.sample_indices_without_replacement",
                 "util.parallel_map"):
        inside = [s for s in by_name[name] if under(s, CONSTRUCTIONS)]
        metrics[f"{name}.s"] = (
            sum(_dur(s) for s in inside) / constructions if constructions else 0.0)
        counts[f"{name}.s"] = len(inside)
        if name == "numerics.sample_normal":
            metrics[f"{name}.samples"] = (
                sum(s["samples"] for s in inside) / constructions if constructions else 0.0)
            counts[f"{name}.samples"] = len(inside)
    seconds("checkpoint.checkpoint_hash")

    # Saves of the upcycled checkpoint by the CLI; loads timed by the load phase.
    io = {"checkpoint.save": [s for s in by_name["checkpoint.save"] if under(s, {"cli.main"})],
          "checkpoint.load": [s for s in by_name["checkpoint.load"] if s["phase"] == "load"]}
    for name, chosen in io.items():
        seconds(name, chosen)
        total = sum(_dur(s) for s in chosen)
        metrics[f"{name}.mb_per_s"] = (
            stats.mb_per_s(sum(s["bytes"] for s in chosen), total) if total else 0.0)
        metrics[f"{name}.bytes"] = _median([s["bytes"] for s in chosen])
        rss_rise(name, chosen)
        counts[f"{name}.mb_per_s"] = counts[f"{name}.bytes"] = len(chosen)

    seconds("cli.main")
    mains = by_name["cli.main"]
    metrics["cli.main.self_s"] = _median([stats.span_self_time(s, index) for s in mains])
    counts["cli.main.self_s"] = len(mains)
    return metrics, counts
