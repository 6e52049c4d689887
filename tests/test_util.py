import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeup import analysis, checkpoint, upcycle
from moeup.corpus import VOCAB_SIZE, default_corpus, save_corpus
from moeup import model as model_mod
from moeup.model import build_model
from moeup.numerics import RngStream
from moeup.trainer import TrainConfig, evaluate_loss, train
from moeup.util import ordered_map, thread_cap

from conftest import (
    make_config,
    random_checkpoint,
    tiny_dense_config,
    tiny_moe_config,
    toy_dense_config,
    toy_moe_config,
)


def test_thread_cap_default_and_env(monkeypatch):
    monkeypatch.delenv("MOEUP_THREADS", raising=False)
    assert thread_cap() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("MOEUP_THREADS", "4")
    assert thread_cap() == 4
    monkeypatch.setenv("MOEUP_THREADS", "0")
    assert thread_cap() == 1
    monkeypatch.setenv("MOEUP_THREADS", "junk")
    with pytest.raises(ValueError, match="MOEUP_THREADS"):
        thread_cap()


def test_ordered_map_preserves_order(monkeypatch):
    monkeypatch.setenv("MOEUP_THREADS", "8")
    items = list(range(50))
    assert list(ordered_map(lambda x: x * x, items)) == [x * x for x in items]


def test_nested_map_runs_inline(monkeypatch):
    """A map inside a pool task runs on that task's thread, so tasks never
    wait on the pool they occupy."""
    monkeypatch.setenv("MOEUP_THREADS", "2")

    def task(i):
        outer = threading.get_ident()
        inner = list(ordered_map(lambda j: (threading.get_ident(), i * 10 + j), range(3)))
        assert all(ident == outer for ident, _ in inner)
        return [value for _, value in inner], outer != main

    main = threading.get_ident()
    results = list(ordered_map(task, range(4)))
    assert [values for values, _ in results] == [[10 * i + j for j in range(3)]
                                                 for i in range(4)]
    assert all(on_worker for _, on_worker in results)


@pytest.mark.parametrize("threads", [2, 3])
def test_window_holds_at_most_thread_cap_tasks(threads, monkeypatch):
    """A task starts only when fewer than ``thread_cap()`` items are submitted
    and not yet taken. Each task waits until the window is full, which it
    can only be if the map keeps ``thread_cap()`` items in flight."""
    monkeypatch.setenv("MOEUP_THREADS", str(threads))
    items = 12
    state = threading.Condition()
    taken, started, in_window = [0], [0], []

    def task(i):
        with state:
            started[0] += 1
            in_window.append(started[0] - taken[0])
            state.notify_all()
            assert state.wait_for(lambda: started[0] >= min(taken[0] + threads, items),
                                  timeout=30), "the window never filled"
        return i

    for i, value in enumerate(ordered_map(task, range(items))):
        assert value == i
        with state:
            taken[0] += 1
    assert len(in_window) == items
    assert max(in_window) == threads


def test_map_off_the_pool_runs_inline_when_taken(monkeypatch):
    """With ``pool=False`` every item runs on the calling thread, even at a
    cap of 8, and, as with ``map``, each only when its result is taken."""
    monkeypatch.setenv("MOEUP_THREADS", "8")
    main = threading.get_ident()
    ran = []

    def task(i):
        ran.append((i, threading.get_ident()))
        return i * i

    results = ordered_map(task, range(6), pool=False)
    assert ran == []
    for i, value in enumerate(results):
        assert value == i * i
        assert ran == [(j, main) for j in range(i + 1)]
    assert len(ran) == 6


def test_abandoned_map_leaves_no_task_running(monkeypatch):
    monkeypatch.setenv("MOEUP_THREADS", "2")
    running = []

    def task(i):
        running.append(i)
        time.sleep(0.01)
        running.remove(i)
        if i == 1:
            raise KeyError(i)
        return i

    with pytest.raises(KeyError):
        list(ordered_map(task, range(6)))
    assert running == []


def test_tasks_see_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setenv("MOEUP_THREADS", "2")
    with np.errstate(over="raise"):
        states = list(ordered_map(lambda _: np.geterr()["over"], range(4)))
    assert states == ["raise"] * 4


def _upcycle(method: str, dense):
    """(checkpoint, plan or None) of one construction method from ``dense``."""
    if method == "naive":
        return upcycle.build(upcycle.UpcycleSpec("naive", seed=78), dense, tiny_moe_config())
    if method == "rnu":
        spec = upcycle.UpcycleSpec(method="rnu", seed=78, scale_factor=2.0)
        return upcycle.build(spec, dense, tiny_moe_config())
    if method == "btx":
        branch = random_checkpoint(tiny_dense_config(), seed=79)
        return upcycle.build(upcycle.UpcycleSpec("btx", seed=78), dense, tiny_moe_config(n=4),
                             [branch])
    if method == "drop":
        spec = upcycle.UpcycleSpec(method="drop", ratio=0.5, seed=78)
        return upcycle.build(spec, dense, tiny_moe_config())
    spec = upcycle.UpcycleSpec(method="fg-drop", ratio=0.5, seed=78, granularity=2,
                               shared_experts=1, scale_factor=2.0)
    return upcycle.build(spec, dense, tiny_moe_config(m=2, k_s=1))


@pytest.mark.parametrize("method", ["naive", "drop", "rnu", "btx", "fg-drop"])
def test_upcycle_results_independent_of_thread_cap(method, monkeypatch):
    dense = random_checkpoint(tiny_dense_config(), seed=77)
    monkeypatch.setenv("MOEUP_THREADS", "1")
    serial, serial_plan = _upcycle(method, dense)
    monkeypatch.setenv("MOEUP_THREADS", "4")
    threaded, threaded_plan = _upcycle(method, dense)
    assert serial.tensors.keys() == threaded.tensors.keys()
    for name in serial.tensors:
        assert np.array_equal(serial.tensors[name], threaded.tensors[name]), name
    if serial_plan is not None:
        assert serial_plan.to_json_dict() == threaded_plan.to_json_dict()


def _experts_pooled(monkeypatch, layer, rows: int, k: int, threads: str = "2") -> bool:
    """Whether an MoE layer's experts run on the thread pool for ``rows``
    rows at ``threads`` threads: the ``pool`` flag of the expert map in
    ``_moe_fwd`` with activations kept, which ``_moe_bwd`` repeats over the
    same groups. The expert map is the one whose items are groups of experts
    (ranges); the tile and weight-gradient maps take slices and arrays. An
    activation-free forward never pools them."""
    real, calls = model_mod.ordered_map, []

    def spy(fn, items, pool=True):
        items = list(items)
        if items and all(isinstance(item, range) for item in items):
            calls.append((items, pool))
        return real(fn, items, pool)

    monkeypatch.setattr(model_mod, "ordered_map", spy)
    monkeypatch.setenv("MOEUP_THREADS", threads)
    x = np.random.default_rng(1).normal(size=(rows, layer.router.shape[0]))
    model_mod._moe_fwd(layer, x, k, keep=False)
    _, _, cache = model_mod._moe_fwd(layer, x, k)
    model_mod._moe_bwd(layer, cache, x, None)
    monkeypatch.setattr(model_mod, "ordered_map", real)
    monkeypatch.delenv("MOEUP_THREADS")
    assert len(calls) == 3 and calls[0][1] is False and calls[1] == calls[2], calls
    assert calls[1] == tuple(cache.plan)
    return calls[1][1]


# The layers of the stress test, with their top-k and sequence length: 8
# coarse experts, top-4; and a fine-grained layer of 31 routed experts and one
# shared expert of width 64, top-15, whose shared expert runs in two tiles of
# 512 rows (2^15 elements each) inside its group.
STRESS_LAYERS = [
    (toy_moe_config(n=8, k=4), 4, None),
    (make_config(64, 512, 2, 4, 4, VOCAB_SIZE, n=4, k=15, m=8, k_s=1, s=64), 15, 64),
]


def test_moe_layer_bitwise_under_thread_stress(monkeypatch):
    """Eight threads on fewer cores, switching as often as the interpreter
    allows: an MoE layer's forward and backward still give the serial bits,
    so no result is lost or combined out of order."""
    rng = np.random.default_rng(0)
    x, dy = rng.normal(size=(2, 1024, 64))

    def run(layer, k, seq_len, threads: str):
        monkeypatch.setenv("MOEUP_THREADS", threads)
        y, _, cache = model_mod._moe_fwd(layer, x, k, seq_len=seq_len)
        groups = cache.plan.groups
        dx, d_router, experts, shared = model_mod._moe_bwd(layer, cache, dy, None, seq_len)
        grads = [g for grads in (*experts, *shared) for g in grads]
        return groups, [y, dx, d_router, *grads]

    for config, k, seq_len in STRESS_LAYERS:
        layer = build_model(random_checkpoint(config, seed=3), max_positions=64,
                            stream=RngStream(4)).layer_moe(0)
        assert _experts_pooled(monkeypatch, layer, len(x), k, threads="8")
        if seq_len is not None:
            assert len(model_mod._tiles(len(x), seq_len, layer.shared[0].width)) == 2
        serial, want = run(layer, k, seq_len, "1")
        assert len(serial) == layer.num_experts + len(layer.shared)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                groups, got = run(layer, k, seq_len, "8")
                assert 1 < len(groups) <= 8
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))
        finally:
            sys.setswitchinterval(interval)


@given(rows=st.lists(st.integers(0, 4096), min_size=1, max_size=40),
       widths=st.data(), cap=st.integers(1, 12))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_expert_plan_covers_each_expert_once_in_order(rows, widths, cap):
    """For any routing counts, widths and cap, the plan's groups are
    contiguous, in expert order, cover every expert exactly once, and number
    at most ``cap`` on the pool; off the pool, and at a cap of 1, each expert
    is its own group."""
    widths = widths.draw(st.lists(st.integers(1, 512), min_size=len(rows), max_size=len(rows)))
    plan = model_mod._expert_plan(rows, widths, cap)
    assert [e for group in plan.groups for e in group] == list(range(len(rows)))
    assert all(group.step == 1 and len(group) > 0 for group in plan.groups)
    if plan.pooled:
        assert cap > 1 and len(plan.groups) <= cap
        work = sum(r * w for r, w in zip(rows, widths))
        assert work >= len(plan.groups) * model_mod._POOL_MIN_ELEMENTS
    else:
        assert all(len(group) == 1 for group in plan.groups)
    if cap == 1:
        assert not plan.pooled


def test_expert_plan_balances_work():
    """The groups are cut where the running work comes nearest each share:
    four equal experts make two groups of two, and a fine-grained layer's
    31 routed experts and its shared expert (the work of two) split at the
    expert nearest half the work."""
    assert model_mod._expert_plan([512] * 4, [256] * 4, 2) == ([range(0, 2), range(2, 4)], True)
    plan = model_mod._expert_plan([495] * 31 + [1024], [32] * 32, 2)
    assert plan == ([range(0, 17), range(17, 32)], True)
    # Too little work for two groups: each expert alone, inline.
    assert model_mod._expert_plan([8] * 4, [32] * 4, 2) == ([range(e, e + 1) for e in range(4)],
                                                           False)


def test_tiled_step_bitwise_under_thread_stress(monkeypatch):
    """Eight threads on fewer cores, switching as often as the interpreter
    allows: the tiles of a dense step (64 sequences, so 8 tiles of 8 per
    layer) write disjoint rows of shared buffers, and the step's loss and
    gradients are the serial bits."""
    model = build_model(random_checkpoint(toy_dense_config(), seed=3), max_positions=64,
                        stream=RngStream(4))
    tokens = default_corpus(seq_len=64, num_sequences=64).sequences
    assert len(model_mod._tiles(64 * 64, 64, model.config.num_heads * 64)) == 8

    def run(threads: str):
        monkeypatch.setenv("MOEUP_THREADS", threads)
        cache = model_mod.forward_cache(model, tokens)
        return cache["loss"], model_mod.backward_from_cache(model, cache)

    want_loss, want = run("1")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            loss, got = run("8")
            assert loss == want_loss and got.keys() == want.keys()
            assert all(got[name].tobytes() == want[name].tobytes() for name in want)
    finally:
        sys.setswitchinterval(interval)


# The three models of the benchmark: the dense parent, 4 coarse experts
# top-2, and 31 routed experts of width 32 top-15 plus one shared expert.
LAYOUTS = {
    "dense": toy_dense_config(),
    "coarse": toy_moe_config(),
    "finegrained": make_config(64, 256, 2, 4, 4, VOCAB_SIZE, n=4, k=15, m=8, k_s=1, s=64),
}


@pytest.mark.parametrize("layout, batch", [("dense", 16), ("coarse", 16), ("finegrained", 16),
                                           ("finegrained", 48)])
def test_results_bitwise_at_any_thread_count(layout, batch, monkeypatch):
    """Evaluation, routing traces and a 3-step train give the same bits on one
    thread and on two. Evaluation runs its forwards on the pool. Training runs
    attention and the dense FFN in two tiles of 8 sequences there, and the
    experts, coarse or fine-grained, in two contiguous groups."""
    config = LAYOUTS[layout]
    ckpt = random_checkpoint(config, seed=3)
    corpus = default_corpus(seq_len=64, num_sequences=batch + 8)
    cfg = TrainConfig(max_lr=3e-3, min_lr=3e-4, total_steps=3, warmup_steps=1,
                      batch_size=batch, seq_len=64, seed=5)
    assert len(model_mod._tiles(batch * 64, 64, config.num_heads * 64)) == batch // 8
    if config.is_moe:
        layer = build_model(ckpt, max_positions=64, stream=RngStream(4)).layer_moe(0)
        assert _experts_pooled(monkeypatch, layer, batch * 64, config.top_k)
    else:
        assert len(model_mod._tiles(batch * 64, 64, config.intermediate_size)) == 2

    def run(threads: str):
        monkeypatch.setenv("MOEUP_THREADS", threads)
        model = build_model(ckpt, max_positions=64, stream=RngStream(4))
        loss = evaluate_loss(model, corpus, batch_size=8)
        traces = analysis.collect_traces(model, corpus) if config.is_moe else []
        routing = [a for t in traces for layer in t.layers
                   for a in (layer.selected, layer.gates, layer.probs)]
        model, curve = train(model, corpus, cfg)
        return loss, routing, curve.points, model.params

    want = run("1")
    got = run("2")
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1]) and (len(want[1]) > 0) == config.is_moe
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got[1], want[1]))
    assert got[2] == want[2]
    assert got[3].keys() == want[3].keys()
    assert all(got[3][name].tobytes() == want[3][name].tobytes() for name in want[3])


ROOT = Path(__file__).resolve().parents[1]
TRAIN_STEPS = 12  # the shortest run whose parameters differed across BLAS thread counts
UPCYCLES = {
    "coarse": ["--method", "drop", "--experts", "4", "--topk", "2"],
    "finegrained": ["--method", "fg-drop", "--experts", "4", "--granularity", "8",
                    "--shared", "1", "--topk", "15"],
}


def _cli(args, threads=None) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "MOEUP_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if threads is not None:
        env |= {"OPENBLAS_NUM_THREADS": threads, "MOEUP_THREADS": threads}
    return subprocess.Popen([sys.executable, "-m", "moeup.cli", *map(str, args)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def _finish(procs) -> None:
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err


def _files(path: Path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("layout", sorted(UPCYCLES))
def test_train_bitwise_across_blas_and_pool_threads(layout, tmp_path):
    """``moeup train`` of an upcycled MoE writes the same bytes with BLAS and
    the pool on one thread each and on two each: the program pins BLAS to one
    thread, so neither count reaches the arithmetic."""
    checkpoint.save(upcycle.from_scratch(toy_dense_config(), seed=1), tmp_path / "parent")
    save_corpus(default_corpus(seq_len=64), tmp_path / "train.txt")
    _finish([_cli(["upcycle", *UPCYCLES[layout], "--ratio", "0.5", "--seed", "2",
                   "--in", tmp_path / "parent", "--out", tmp_path / "moe"])])
    runs = {threads: tmp_path / f"train_{threads}" for threads in ("1", "2")}
    _finish([_cli(["train", "--in", tmp_path / "moe", "--corpus", tmp_path / "train.txt",
                   "--steps", TRAIN_STEPS, "--batch-size", "16", "--seq-len", "64",
                   "--seed", "3", "--out", out], threads) for threads, out in runs.items()])
    one, two = (_files(out) for out in runs.values())
    assert "curve.jsonl" in one and any(name.startswith("model/") for name in one)
    assert one == two
