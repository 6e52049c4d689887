"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: each public function of the
program is replaced, at the name the calling module looks it up by, with a
wrapper that records its name, start, end and parent span. Spans stay in
memory and are written as one JSON file when the child process ends.

A function that no longer exists under its name is reported as absent
rather than failing the run, so a later refactor that inlines one (say
``clip_gradients``) only removes that span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import resource
import threading
import time
from pathlib import Path


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MB (2**20 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blob_bytes(directory) -> int:
    blob = Path(directory) / "tensors.bin"
    return blob.stat().st_size if blob.exists() else 0


def _forward_flops(args, kwargs, result) -> dict:
    # Imported here: run.py imports this module without the program on its path.
    from moeup import accounting

    batch, seq = result["tokens"].shape
    flops = accounting.flops_forward(args[0].config, seq_len=seq).total_forward
    return {"flops": flops * batch}


# (module the caller looks the name up in, attribute, span name, extras, rss)
# ``extras(args, kwargs, result)`` adds counts measured at the call.
HOOKS = (
    ("moeup.trainer", "train", "trainer.train", None, False),
    ("moeup.trainer", "evaluate_loss", "trainer.evaluate_loss", None, False),
    ("moeup.trainer", "forward_cache", "model.forward_cache", _forward_flops, False),
    ("moeup.trainer", "backward_from_cache", "model.backward_from_cache", None, False),
    ("moeup.trainer", "trace_from_cache", "model.trace_from_cache", None, False),
    ("moeup.trainer", "load_balance_loss", "trainer.load_balance_loss", None, False),
    ("moeup.trainer", "clip_gradients", "trainer.clip_gradients", None, False),
    ("moeup.trainer", "adamw_step", "trainer.adamw_step", None, False),
    ("moeup.model", "softmax", "numerics.softmax", None, False),
    ("moeup.model", "top_k_batch", "numerics.top_k_batch", None, False),
    ("moeup.corpus", "default_corpus", "corpus.default_corpus", None, False),
    ("moeup.upcycle", "from_scratch", "upcycle.from_scratch", None, True),
    ("moeup.upcycle", "drop_upcycle", "upcycle.drop_upcycle", None, True),
    ("moeup.upcycle", "fine_grained_drop_upcycle", "upcycle.fine_grained_drop_upcycle",
     None, True),
    ("moeup.upcycle", "save_plan", "upcycle.save_plan", None, False),
    ("moeup.upcycle", "sample_normal", "numerics.sample_normal",
     lambda a, k, r: {"samples": int(r.size)}, False),
    ("moeup.upcycle", "sample_indices_without_replacement",
     "numerics.sample_indices_without_replacement", None, False),
    ("moeup.upcycle", "parallel_map", "util.parallel_map", None, False),
    ("moeup.upcycle", "checkpoint_hash", "checkpoint.checkpoint_hash", None, False),
    ("moeup.checkpoint", "save", "checkpoint.save",
     lambda a, k, r: {"bytes": _blob_bytes(a[1] if len(a) > 1 else k["path"])}, True),
    ("moeup.checkpoint", "load", "checkpoint.load",
     lambda a, k, r: {"bytes": _blob_bytes(a[0] if a else k["path"])}, True),
    ("moeup.cli", "main", "cli.main", None, False),
)


class Recorder:
    """In-memory span list for one child process."""

    def __init__(self, phase: str, round_id: int):
        self.phase = phase
        self.round_id = round_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.recording = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module_name: str, attr: str, name: str, extras=None, rss=False) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(name)
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.recording:
                return original(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            with recorder._lock:
                span_id = len(recorder.spans)
                recorder.spans.append({})
            stack.append(span_id)
            rss_before = maxrss_mb() if rss else 0.0
            start = time.perf_counter()
            result, ok = None, False
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "parent": parent, "name": name, "start": start,
                        "end": end, "ok": ok}
                if rss:
                    span["rss_rise_mb"] = maxrss_mb() - rss_before
                if ok and extras is not None:
                    span.update(extras(args, kwargs, result))
                recorder.spans[span_id] = span

        setattr(module, attr, traced)

    @contextlib.contextmanager
    def paused(self):
        """Leave calls made for the benchmark's own checks out of the trace."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def install(self) -> "Recorder":
        for module_name, attr, name, extras, rss in HOOKS:
            self.wrap(module_name, attr, name, extras, rss)
        return self

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"phase": self.phase, "round": self.round_id, "absent": self.absent,
                       "spans": [s for s in self.spans if s]}, fh)


def merge(files) -> tuple[list[dict], list[str]]:
    """Concatenate span files, making ids unique and tagging phase/round."""
    spans, absent = [], set()
    for index, path in enumerate(files):
        if not Path(path).exists():  # the child was killed before writing
            continue
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        absent.update(data["absent"])
        for span in data["spans"]:
            tagged = dict(span, id=f"{index}:{span['id']}",
                          parent=None if span["parent"] is None else f"{index}:{span['parent']}",
                          phase=data["phase"], round=data["round"])
            spans.append(tagged)
    return spans, sorted(absent)
