"""Memory: activations die at their last use, evaluation keeps none, and sampling
needs one chunk.

Liveness is checked with weak references to the arrays a forward cache holds
(the model's parameters excluded): an array whose last strong reference is
dropped dies at once, so a live weak reference is an activation still held.
Peaks are measured with ``tracemalloc``, which numpy reports its buffers to.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from moeup import analysis, checkpoint, cli, upcycle
from moeup import model as model_mod
from moeup import trainer as trainer_mod
from moeup.config import ValidationError
from moeup.corpus import VOCAB_SIZE, default_corpus, save_corpus
from moeup.model import (
    backward_from_cache,
    build_model,
    forward_cache,
    lm_forward,
    next_token_loss,
    trace_from_cache,
)
from moeup.numerics import NORMAL_CHUNK_PAIRS, NormalParams, RngStream, sample_normal
from moeup.trainer import TrainConfig, evaluate_loss, train
from moeup.upcycle import from_scratch
from moeup.util import keep_freed_memory

from conftest import (
    make_config,
    random_checkpoint,
    tiny_dense_config,
    tiny_moe_config,
    toy_dense_config,
    toy_moe_config,
)

ROOT = Path(__file__).resolve().parents[1]

CONFIGS = [
    tiny_dense_config(vocab=VOCAB_SIZE),
    tiny_moe_config(vocab=VOCAB_SIZE),
    tiny_moe_config(vocab=VOCAB_SIZE, n=4, k=3, m=2, k_s=1),
]
CONFIG_IDS = ["dense", "moe", "fine-grained-shared"]


def _model(config):
    return build_model(random_checkpoint(config, seed=3), max_positions=16, stream=RngStream(4))


def _train_config(**overrides) -> TrainConfig:
    settings = dict(max_lr=3e-3, min_lr=3e-4, total_steps=3, warmup_steps=1, batch_size=4,
                    seq_len=16, seed=5)
    return TrainConfig(**(settings | overrides))


def _tokens(batch=4):
    return default_corpus(seq_len=16, num_sequences=batch).sequences


def _arrays(obj, skip: set[int]) -> list[np.ndarray]:
    """Every array in a nest of dicts, tuples, lists and dataclasses, except
    ids in ``skip``."""
    if isinstance(obj, np.ndarray):
        return [] if id(obj) in skip else [obj]
    if is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in fields(obj)]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item, skip)]
    return []


def _refs(obj, model, skip=()) -> list[weakref.ref]:
    params = {id(a) for a in model.params.values()}
    return [weakref.ref(a) for a in _arrays(obj, params | set(skip))]


def _alive(refs) -> int:
    return sum(ref() is not None for ref in refs)


def _recording_forward(previous: list, alive_at_start: list, skip_routing: bool = False):
    """A ``forward_cache`` that first counts the live arrays of the last cache."""

    def forward(model, tokens, **kwargs):
        alive_at_start.append(_alive(previous))
        cache = forward_cache(model, tokens, **kwargs)
        # A routing trace keeps the router probabilities, selections and gates.
        skip = [id(a) for a in _arrays(cache["routing"], set())] if skip_routing else []
        assert skip or not skip_routing
        previous[:] = _refs(cache, model, skip)
        assert previous
        return cache

    return forward


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_step_cache_dead_when_next_forward_starts(config, monkeypatch):
    previous, alive = [], []
    monkeypatch.setattr(trainer_mod, "forward_cache", _recording_forward(previous, alive))
    train(_model(config), default_corpus(seq_len=16, num_sequences=32), _train_config())
    assert alive == [0, 0, 0]


def test_eval_tile_cache_dead_when_next_forward_starts(monkeypatch):
    monkeypatch.setenv("MOEUP_THREADS", "1")  # forwards one at a time, in order
    corpus = default_corpus(seq_len=16, num_sequences=12)
    previous, alive = [], []
    monkeypatch.setattr(trainer_mod, "forward_cache", _recording_forward(previous, alive))
    evaluate_loss(_model(CONFIGS[1]), corpus, batch_size=4)
    assert alive == [0, 0, 0]


def test_eval_tiles_in_flight_bounded_by_threads(monkeypatch):
    """On the thread pool, a forward starts while at most ``threads - 1``
    earlier forwards still hold their activation-free caches."""
    threads = 2
    monkeypatch.setenv("MOEUP_THREADS", str(threads))
    corpus = default_corpus(seq_len=16, num_sequences=40)
    lock = threading.Lock()
    finished, alive_at_start = [], []

    def forward(model, tokens, **kwargs):
        with lock:
            alive_at_start.append(sum(_alive(refs) > 0 for refs in finished))
        cache = forward_cache(model, tokens, **kwargs)
        with lock:
            finished.append(_refs(cache, model))
        return cache

    monkeypatch.setattr(trainer_mod, "forward_cache", forward)
    evaluate_loss(_model(CONFIGS[1]), corpus, batch_size=4)
    assert len(alive_at_start) == 10 and max(alive_at_start) <= threads - 1
    assert sum(_alive(refs) for refs in finished) == 0


def test_collect_traces_keeps_only_routing(monkeypatch):
    monkeypatch.setenv("MOEUP_THREADS", "1")
    # 144 sequences of 16 tokens make forwards of 64, 64 and 16 sequences.
    corpus = default_corpus(seq_len=16, num_sequences=144)
    previous, alive = [], []
    monkeypatch.setattr(trainer_mod, "forward_cache",
                        _recording_forward(previous, alive, skip_routing=True))
    traces = analysis.collect_traces(_model(CONFIGS[2]), corpus)
    assert [t.layers[0].selected.shape[0] for t in traces] == [64, 64, 16]
    assert alive == [0, 0, 0]


def test_collect_traces_routing_matches_one_sequence_per_forward(monkeypatch):
    """At the ``toy-finegrained`` shape (31 routed experts top-15, one shared),
    the traces, one per forward of at most ``EVAL_FORWARD_TOKENS`` tokens,
    hold bitwise the routing of one forward per sequence."""
    monkeypatch.setenv("MOEUP_THREADS", "1")  # forwards recorded in corpus order
    config = make_config(64, 256, 2, 4, 4, VOCAB_SIZE, n=4, k=15, m=8, k_s=1, s=64)
    model = build_model(random_checkpoint(config, seed=3), max_positions=64,
                        stream=RngStream(4))
    corpus = default_corpus(seq_len=64, num_sequences=20)
    shapes = []

    def forward(model, tokens, **kwargs):
        shapes.append(tokens.shape)
        return forward_cache(model, tokens, **kwargs)

    monkeypatch.setattr(trainer_mod, "forward_cache", forward)
    traces = analysis.collect_traces(model, corpus)
    assert shapes == [(16, 64), (4, 64)]
    assert all(rows * seq <= model_mod.EVAL_FORWARD_TOKENS for rows, seq in shapes)
    assert [t.layers[0].selected.shape[:2] for t in traces] == shapes
    assert [d for t in traces for d in t.domains] == corpus.domains
    singles = [trace_from_cache(model, forward_cache(model, corpus.sequences[i:i + 1],
                                                     keep_activations=False))
               for i in range(corpus.num_sequences)]

    def stacked(trace_list):
        return [np.concatenate([_trace_arrays(t)[i] for t in trace_list])
                for i in range(3 * config.num_layers)]

    assert _same_bits(stacked(traces), stacked(singles))
    assert [d for t in traces for d in t.domains] == corpus.domains


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_layer_cache_dead_when_layer_below_starts_backward(config, monkeypatch):
    model = _model(config)
    cache = forward_cache(model, _tokens())
    head = _refs([cache["logits"], cache["h_final"], cache["ln_final"]], model)
    layers = [_refs(entry, model) for entry in cache["layer_caches"]]
    assert all(layers)
    seen = []
    name = "_moe_bwd" if config.is_moe else "_ffn_bwd"
    real = getattr(model_mod, name)

    def layer_bwd(*args):
        layer = len(layers) - 1 - len(seen)
        seen.append((_alive(head), [_alive(refs) for refs in layers[layer + 1:]]))
        return real(*args)

    monkeypatch.setattr(model_mod, name, layer_bwd)
    backward_from_cache(model, cache)
    assert seen == [(0, [0] * k) for k in range(len(layers))]
    assert sum(_alive(refs) for refs in layers) == 0


def _expert_refs(cache, model) -> list[list[weakref.ref]]:
    """Per expert, in backward order, the arrays only that expert's cache holds."""
    refs = []
    for layer in reversed(cache["layer_caches"]):
        # A routed entry is (rows, (gate_pre, up_out)): all its own.
        refs.extend(_refs(e_cache, model) for e_cache in layer.ffn.experts
                    if e_cache is not None)
        # A shared expert's input is the layer input, which the router also uses.
        refs.extend(_refs(s_cache[1:], model) for s_cache in layer.ffn.shared)
    assert refs and all(refs)
    return refs


def test_expert_cache_dead_when_next_expert_starts_backward(monkeypatch):
    monkeypatch.setenv("MOEUP_THREADS", "1")  # experts one at a time, in order
    model = _model(CONFIGS[2])
    cache = forward_cache(model, _tokens())
    experts = _expert_refs(cache, model)
    seen = []
    real = model_mod._ffn_bwd

    def ffn_bwd(w, ffn_cache, dy, *seq_len):
        seen.append(sum(_alive(refs) for refs in experts[:len(seen)]))
        return real(w, ffn_cache, dy, *seq_len)

    monkeypatch.setattr(model_mod, "_ffn_bwd", ffn_bwd)
    backward_from_cache(model, cache)
    assert len(seen) == len(experts) and seen == [0] * len(experts)


def test_expert_caches_in_flight_bounded_by_threads(monkeypatch):
    """On the thread pool, experts run in contiguous groups, one group per
    task, and an expert's backward starts while at most the experts of
    ``threads - 1`` earlier groups (in backward order) still hold a cache.
    The earlier experts of its own group have used up their activations;
    only their row indices, which their results carry back to the calling
    thread, may still be live. The toy coarse MoE on 512 tokens has experts
    big enough for the pool."""
    threads = 2
    monkeypatch.setenv("MOEUP_THREADS", str(threads))
    model = build_model(random_checkpoint(toy_moe_config(), seed=3), max_positions=64,
                        stream=RngStream(4))
    cache = forward_cache(model, default_corpus(seq_len=64, num_sequences=8).sequences)
    experts = _expert_refs(cache, model)
    # Per used expert, in backward order: its gate weight, its group and the
    # activations its cache entry holds (the entry without its rows or input).
    order, group_of, activations = [], [], []
    for i, layer in enumerate(reversed(cache["layer_caches"])):
        weights = (*layer.weights.experts, *layer.weights.shared)
        entries = (*layer.ffn.experts, *layer.ffn.shared)
        assert layer.ffn.plan.pooled and 1 < len(layer.ffn.plan.groups) <= threads
        for g, group in enumerate(layer.ffn.plan.groups):
            for e in group:
                if entries[e] is not None:
                    order.append(id(weights[e].gate))
                    group_of.append((i, g))
                    activations.append(_refs(entries[e][1:], model))
    del entries  # the cache's own references must be the last
    assert len(order) == len(experts) and all(activations)
    lock = threading.Lock()
    seen, on_pool = [], []
    real = model_mod._ffn_bwd

    def ffn_bwd(w, ffn_cache, dy, *seq_len):
        with lock:
            me = order.index(id(w.gate))
            live = {group_of[j] for j in range(me) if _alive(activations[j]) > 0}
            seen.append((group_of[me] in live, len(live)))
            on_pool.append(threading.current_thread() is not threading.main_thread())
        return real(w, ffn_cache, dy, *seq_len)

    monkeypatch.setattr(model_mod, "_ffn_bwd", ffn_bwd)
    backward_from_cache(model, cache)
    assert all(on_pool)
    assert len(seen) == len(experts)
    assert not any(own for own, _ in seen)
    assert max(groups for _, groups in seen) <= threads - 1
    assert sum(_alive(refs) for refs in experts) == 0


@pytest.mark.parametrize("config", [*CONFIGS, toy_dense_config()],
                         ids=[*CONFIG_IDS, "tiled-dense"])
def test_rebuilt_prod_dead_before_weight_gradients(config, monkeypatch):
    """Every FFN backward frees its rebuilt (K, width) ``prod`` before its two
    weight-gradient GEMMs run. A routed expert's backward rebuilds ``sig``,
    ``act`` and ``prod`` itself and hands them to ``_ffn_bwd`` in a list that
    ``_ffn_bwd`` empties, so no caller keeps them either. The toy dense FFN
    on 16 x 64 tokens rebuilds them in two tiles, each into its rows of one
    ``prod``."""
    monkeypatch.setenv("MOEUP_THREADS", "1")  # one FFN backward at a time
    tiled = config.seq_len == 64
    model = build_model(random_checkpoint(config, seed=3), max_positions=64,
                        stream=RngStream(4)) if tiled else _model(config)
    cache = forward_cache(model, default_corpus(seq_len=64, num_sequences=16).sequences
                          if tiled else _tokens())
    ffns = sum(len(layer.ffn.experts) + len(layer.ffn.shared) if config.is_moe else 1
               for layer in cache["layer_caches"])
    prods, dead = [], []
    real_act_prod, real_map = model_mod._act_prod, model_mod.ordered_map

    def act_prod(*kept):
        sig, act, prod = real_act_prod(*kept)
        whole = prod if prod.base is None else prod.base  # a tile writes its rows of one prod
        if not prods or prods[-1]() is not whole:
            prods.append(weakref.ref(whole))
        return sig, act, prod

    def ordered_map(fn, items, *args):
        if fn.__code__.co_qualname == "_ffn_bwd.<locals>.<lambda>":  # x.T @ grad
            dead.append(prods[-1]() is None)
        return real_map(fn, items, *args)

    monkeypatch.setattr(model_mod, "_act_prod", act_prod)
    monkeypatch.setattr(model_mod, "ordered_map", ordered_map)
    backward_from_cache(model, cache)
    assert len(prods) == len(dead) and 0 < len(dead) <= ffns
    assert all(dead), dead


def test_train_tiles_in_flight_bounded_by_threads(monkeypatch):
    """A dense train step of 16 x 64 tokens runs attention and the FFN in
    tiles of 8 sequences on the thread pool, forward and backward. A tile
    writes its rows of preallocated outputs and returns nothing, so its
    temporaries live only while it runs. At most ``thread_cap()`` tiles run
    at once, so each thread past the first adds at most one tile's
    temporaries to the peak: a few of its (8, 4, 64, 64) score-sized arrays,
    measured at 2.3 MiB."""
    threads = 2
    model = build_model(random_checkpoint(toy_dense_config(), seed=3), max_positions=64,
                        stream=RngStream(4))
    tokens = default_corpus(seq_len=64, num_sequences=16).sequences
    lock = threading.Lock()
    running, most, tiles = [0], [0], []
    real = model_mod.ordered_map

    def counting_map(fn, items, pool=True):
        def task(item):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                result = fn(item)
            finally:
                with lock:
                    running[0] -= 1
            if isinstance(item, slice):
                tiles.append((threading.current_thread() is threading.main_thread(), result))
            return result

        return real(task, items, pool)

    monkeypatch.setattr(model_mod, "ordered_map", counting_map)
    peaks = {}
    for count in ("1", str(threads)):
        monkeypatch.setenv("MOEUP_THREADS", count)
        tiles.clear()
        peaks[count] = _peak(lambda: backward_from_cache(model, forward_cache(model, tokens)))
        # Per layer: attention and FFN forward, the FFN's rebuild of sig, act
        # and prod, and FFN and attention backward.
        assert len(tiles) == 2 * 5 * model.config.num_layers
        assert all(result is None for _, result in tiles)
        assert all(on_main for on_main, _ in tiles) == (count == "1")
    assert most[0] <= threads
    tile_scores = 8 * model.config.num_heads * 64 * 64 * 8
    assert peaks[str(threads)] <= peaks["1"] + (threads - 1) * 3 * tile_scores, peaks


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("keep", [False, True], ids=["activation-free", "kept"])
def test_expert_tensors_dead_when_next_expert_starts_forward(keep, threads, monkeypatch):
    """Hooks ``_ffn_fwd``: at each expert's start, count the live arrays of every
    earlier expert's input rows, intermediates and output. A shared expert's
    input is the layer input, which outlives it, so it is not counted. A
    routed expert's input rows die even when activations are kept. An
    activation-free pass runs its experts one at a time on any thread count."""
    monkeypatch.setenv("MOEUP_THREADS", threads)
    model = _model(CONFIGS[2])
    shared = {id(a) for name, a in model.params.items() if ".shared." in name}
    earlier, routed_inputs, seen = [], [], []
    real = model_mod._ffn_fwd

    def ffn_fwd(w, x, *seq_len):
        seen.append(_alive(earlier))
        y, cache = real(w, x, *seq_len)
        assert cache[0] is x
        layer_input = x if id(w.gate) in shared else None
        if layer_input is None:
            routed_inputs.append(weakref.ref(x))
        earlier.extend(weakref.ref(a) for a in (y, *cache) if a is not layer_input)
        return y, cache

    monkeypatch.setattr(model_mod, "_ffn_fwd", ffn_fwd)
    cache = forward_cache(model, _tokens(), keep_activations=keep)
    assert len(seen) > 2 * len(cache["routing"]) > 0  # several experts per layer
    assert routed_inputs and _alive(routed_inputs) == 0
    if keep:
        assert all(alive > 0 for alive in seen[1:])
    else:
        assert seen == [0] * len(seen) and _alive(earlier) == 0


def test_kept_expert_entry_holds_no_input_rows(monkeypatch):
    """A routed expert keeps its rows and exactly ``(gate_pre, up_out)`` as
    (K, width) arrays: no copy of its input rows, no ``sig``, ``act`` or
    ``prod``, and no output. Backward rebuilds ``sig``, ``act`` and ``prod``,
    and the output from ``prod``, bitwise as the forward made them. A shared
    expert keeps ``(x, gate_pre, up_out)``, its ``x`` the layer input."""
    config = make_config(16, 64, 2, 2, 2, VOCAB_SIZE, n=4, k=3, m=2, k_s=1, s=16)
    model = _model(config)
    d_h, width = config.hidden_size, config.intermediate_size // config.granularity
    assert width != d_h
    outputs = {}
    real = model_mod._ffn_fwd

    def ffn_fwd(w, x, *seq_len):
        y, cache = real(w, x, *seq_len)
        outputs[id(w.gate)] = y.copy()  # before the expert weights it in place
        return y, cache

    monkeypatch.setattr(model_mod, "_ffn_fwd", ffn_fwd)
    cache = forward_cache(model, _tokens())
    entries = 0
    for layer in cache["layer_caches"]:
        moe = layer.ffn
        for e, entry in enumerate(moe.experts):
            if entry is None:
                continue
            entries += 1
            idx, kept = entry
            rows = idx.size
            assert idx.dtype == np.int64 and idx.shape == (rows,)
            assert len(_arrays(entry, set())) == 3
            assert len(kept) == 2 and all(a.shape == (rows, width) for a in kept)
            w = layer.weights.experts[e]
            # The kept arrays are those of the forward on the regathered rows.
            y, fresh = real(w, moe.x[idx])
            assert _same_bits([*kept], [*fresh[1:]])
            rebuilt = model_mod._expert_output(w, model_mod._act_prod(*kept)[2])
            assert rebuilt.shape == (rows, d_h)
            assert _same_bits([rebuilt, y], [outputs[id(w.gate)][:rows]] * 2)
        for s_cache in moe.shared:
            assert len(s_cache) == 3 and s_cache[0] is moe.x
    assert entries > len(cache["layer_caches"])


def test_backward_rejects_activation_free_cache():
    model = _model(CONFIGS[1])
    cache = forward_cache(model, _tokens(), keep_activations=False)
    assert set(cache) == {"tokens", "routing", "logits"}
    with pytest.raises(ValidationError, match="keeps no activations"):
        backward_from_cache(model, cache)


def test_used_up_cache_is_rejected():
    model = _model(CONFIGS[1])
    cache = forward_cache(model, _tokens())
    trace = trace_from_cache(model, cache)
    first = backward_from_cache(model, cache)
    assert trace.layers and first
    for again in (backward_from_cache, trace_from_cache):
        with pytest.raises(ValidationError, match="run forward_cache again"):
            again(model, cache)
    fresh = backward_from_cache(model, forward_cache(model, _tokens()))
    assert all(np.array_equal(fresh[k], first[k]) for k in first)


# ---------------------------------------------------------------------------
# Activation-free forward
# ---------------------------------------------------------------------------

def _trace_arrays(trace) -> list[np.ndarray]:
    return [a for layer in trace.layers for a in (layer.selected, layer.gates, layer.probs)]


def _same_bits(got: list[np.ndarray], want: list[np.ndarray]) -> bool:
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want))


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_activation_free_forward_is_bitwise_equal(config):
    model = _model(config)
    tokens = _tokens()
    kept = forward_cache(model, tokens)
    free = forward_cache(model, tokens, keep_activations=False)
    assert "loss" not in free  # callers take it from the logits, as lm_forward does
    assert next_token_loss(free["logits"], free["tokens"]) == kept["loss"]
    assert _same_bits([free["tokens"], free["logits"]], [kept["tokens"], kept["logits"]])
    want = _trace_arrays(trace_from_cache(model, kept))
    assert len(want) == (3 * config.num_layers if config.is_moe else 0)
    assert _same_bits(_trace_arrays(trace_from_cache(model, free)), want)
    out = lm_forward(model, tokens)
    assert out.loss == kept["loss"] and _same_bits([out.logits], [kept["logits"]])
    assert _same_bits(_trace_arrays(out.trace), want)


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_evaluation_results_unchanged_without_activations(config, monkeypatch):
    """``evaluate_loss`` and ``collect_traces`` forward without activations, and
    give the bits they gave when every forward kept them."""
    model = _model(config)
    corpus = default_corpus(seq_len=16, num_sequences=12)

    def run(forced: dict):
        kept = []

        def forward(model, tokens, **kwargs):
            cache = forward_cache(model, tokens, **(kwargs | forced))
            kept.append("layer_caches" in cache)
            return cache

        monkeypatch.setattr(trainer_mod, "forward_cache", forward)
        loss = evaluate_loss(model, corpus, batch_size=4)
        traces = analysis.collect_traces(model, corpus) if config.is_moe else []
        return loss, [a for trace in traces for a in _trace_arrays(trace)], kept

    want_loss, want_traces, kept = run({"keep_activations": True})
    assert kept and all(kept)
    loss, traces, kept = run({})
    assert kept and not any(kept)
    assert loss == want_loss and _same_bits(traces, want_traces)


# ---------------------------------------------------------------------------
# Peaks
# ---------------------------------------------------------------------------

def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_peak_is_one_step_of_activations():
    """Activations dominate at this shape (a 64 x 16 batch for 18k parameters),
    so a train run that held two steps' caches would peak near twice one step."""
    config = tiny_moe_config(vocab=VOCAB_SIZE)
    corpus = default_corpus(seq_len=16, num_sequences=64)
    cfg = _train_config(batch_size=64)
    model = _model(config)
    tokens = trainer_mod._sample_batch(corpus, cfg, RngStream(cfg.seed), 0)
    step = _peak(lambda: backward_from_cache(model, forward_cache(model, tokens)))
    whole = _peak(lambda: train(model, corpus, cfg))
    assert whole <= 1.3 * step, (whole, step)


def test_activation_free_tile_peaks_at_a_third():
    """One 512-token evaluation forward of the toy coarse MoE. Without kept
    activations a layer's norm and attention caches die before its FFN runs,
    and only one expert's tensors are live at a time (about 3.7 MiB; 6.7 MiB
    while those caches lived through the FFN); the kept forward holds every
    expert's (about 16.2 MiB; 20.0 MiB while each FFN kept its sigmoid)."""
    model = build_model(random_checkpoint(toy_moe_config(), seed=3), max_positions=64,
                        stream=RngStream(4))
    tile = default_corpus(seq_len=64, num_sequences=8).sequences
    kept = _peak(lambda: forward_cache(model, tile))
    free = _peak(lambda: forward_cache(model, tile, keep_activations=False))
    assert 3 * free <= kept, (free, kept)
    assert free <= 5 << 20, (free, kept)
    assert kept <= 24 << 20, (free, kept)


def _train_step_peak(config, threads, monkeypatch) -> int:
    """The ``tracemalloc`` peak of one train step (forward and backward) of
    ``config`` on a 16 x 64 batch at ``threads`` threads."""
    monkeypatch.setenv("MOEUP_THREADS", threads)
    model = build_model(random_checkpoint(config, seed=3), max_positions=64,
                        stream=RngStream(4))
    tokens = default_corpus(seq_len=64, num_sequences=16).sequences
    return _peak(lambda: backward_from_cache(model, forward_cache(model, tokens)))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fine_grained_train_step_peak(threads, monkeypatch):
    """One train step at the ``toy-finegrained`` shape: 31 routed experts of
    width 32, top-15, one shared expert, a 16 x 64 batch. FFN caches hold no
    ``sig``, and kept expert entries no input rows, ``act``, ``prod`` or
    output, so the step peaks near 36 MiB on one thread and 37-40 MiB on
    two. Keeping the sigmoid adds 4 MiB per MoE layer (44 MiB on one
    thread, 45-48 MiB on two), keeping each expert's output 7.5 MiB more per
    layer (59 MiB), and caching ``prod`` as well about 8 MiB more."""
    config = make_config(64, 256, 2, 4, 4, VOCAB_SIZE, n=4, k=15, m=8, k_s=1, s=64)
    assert (config.routed_experts, config.shared_experts) == (31, 1)
    peak = _train_step_peak(config, threads, monkeypatch)
    assert peak <= 42 << 20, peak / (1 << 20)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_coarse_train_step_peak(threads, monkeypatch):
    """One train step of the toy coarse MoE (4 experts of width 256, top-2)
    on a 16 x 64 batch peaks near 34.4 MiB on one thread and 38 MiB on two;
    when each FFN cache kept its sigmoid, at 42.4 and 43-44 MiB."""
    peak = _train_step_peak(toy_moe_config(), threads, monkeypatch)
    assert peak <= 41 << 20, peak / (1 << 20)


def test_from_scratch_peak_near_payload():
    # The 8 MiB token embedding and head are several chunks each.
    config = make_config(256, 512, 1, 4, 4, 8192, s=64)
    payload = sum(a.nbytes for a in from_scratch(config, seed=1).tensors.values())
    assert payload > 16 << 20
    peak = _peak(lambda: from_scratch(config, seed=1))
    assert peak <= 1.5 * payload, (peak, payload)


@pytest.mark.parametrize("method", ["init", "scratch"])
def test_cli_from_scratch_holds_about_one_tensor(tmp_path, capsys, method):
    """``moeup init`` and ``upcycle --method scratch`` write each tensor as it
    is drawn: the peak stays near the largest tensor (the 2 MiB embedding)
    plus ``sample_normal``'s two chunk buffers, far below the 12 MiB payload."""
    config = make_config(128, 512, 8, 4, 4, 4096, s=64)
    (tmp_path / "config.json").write_text(json.dumps({"model": config.to_dict()}))
    argv = (["init"] if method == "init" else ["upcycle", "--method", "scratch"]) + [
        "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    peak = _peak(lambda: cli.main(argv))
    capsys.readouterr()
    payload = checkpoint.read_manifest(tmp_path / "out")["blob"]["size"]
    saved = checkpoint.load(tmp_path / "out")
    assert checkpoint.checkpoint_hash(saved) == checkpoint.checkpoint_hash(from_scratch(config, 0))
    assert payload > 12 << 20
    assert peak < 0.5 * payload, (peak, payload)


def test_forward_passes_reuse_freed_memory():
    """Each forward's activations are freed before the next forward. The next
    one must reuse that memory rather than fault in fresh pages; with glibc's
    default thresholds about 97% of each forward's pages faulted again."""
    if not keep_freed_memory():
        pytest.skip("needs glibc malloc")
    import resource

    model = build_model(random_checkpoint(toy_moe_config(), seed=3), max_positions=64,
                        stream=RngStream(4))
    corpus = default_corpus(seq_len=64, num_sequences=96)
    tile_pages = _peak(lambda: forward_cache(model, corpus.sequences[:8])) // resource.getpagesize()

    def faults(sequences: int) -> int:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate_loss(model, corpus, batch_size=8, max_sequences=sequences)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(8)
    two_tiles = faults(16)
    ten_more = faults(96) - two_tiles
    assert ten_more < 0.05 * 10 * tile_pages, (ten_more, tile_pages)


def _one_shot_normal(stream, params, count):
    """``sample_normal`` drawing every uniform at once, as it once did."""
    if count == 0:
        return np.zeros(0, dtype=np.float64)
    pairs = (count + 1) // 2
    u = stream.generator().random(2 * pairs)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return params.mu + params.sigma * z[:count]


@pytest.mark.parametrize("count", [0, 1, 1001, 2 * NORMAL_CHUNK_PAIRS,
                                   2 * NORMAL_CHUNK_PAIRS + 1, 5 * NORMAL_CHUNK_PAIRS + 3])
def test_chunked_sample_normal_matches_one_shot(count):
    stream, params = RngStream(9, (2, 1)), NormalParams(0.25, 0.02)
    want = _one_shot_normal(stream, params, count)
    got = sample_normal(stream, params, count)
    assert got.dtype == np.float64 and got.size == count
    assert got.tobytes() == want.tobytes()
    f32 = sample_normal(stream, params, count, dtype=np.float32)
    assert f32.dtype == np.float32 and f32.tobytes() == want.astype(np.float32).tobytes()


# ---------------------------------------------------------------------------
# Upcycling: streamed to disk, and no parent kept alive in memory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("threads", [1, 2])
def test_cli_upcycle_holds_about_one_layer_of_experts(tmp_path, monkeypatch, capsys, threads):
    """``moeup upcycle`` writes the MoE as it builds it: above the loaded parent,
    its peak stays under 1.5 times one layer's experts. Building the whole
    4-layer MoE before writing it would hold four layers. Each further thread
    adds one expert's job in flight, about 0.4 of this layer's experts."""
    monkeypatch.setenv("MOEUP_THREADS", str(threads))
    config = make_config(64, 256, 4, 4, 4, VOCAB_SIZE, s=64)
    checkpoint.save(random_checkpoint(config, seed=1), tmp_path / "parent")
    parent_bytes = checkpoint.read_manifest(tmp_path / "parent")["blob"]["size"]
    layer_experts = 4 * 3 * 64 * 256 * 4  # 4 experts of three f32 matrices
    argv = ["upcycle", "--method", "drop", "--experts", "4", "--topk", "2", "--ratio", "0.5",
            "--in", str(tmp_path / "parent"), "--out", str(tmp_path / "moe")]
    peak = _peak(lambda: cli.main(argv))
    assert capsys.readouterr().err.startswith("wrote drop checkpoint")
    assert peak - parent_bytes < 1.5 * layer_experts, (peak - parent_bytes, layer_experts)


@pytest.mark.parametrize("method", ["naive", "drop", "fg-drop", "rnu", "btx"])
def test_in_memory_upcycle_keeps_no_parent_buffer_alive(tmp_path, method):
    """Each parent array that the MoE keeps as it is gets copied once, so the
    MoE outlives the parents' load buffers; naive's experts share one copy."""
    config = tiny_dense_config(vocab=VOCAB_SIZE)
    for name, seed in (("parent", 1), ("branch", 2)):
        checkpoint.save(random_checkpoint(config, seed=seed), tmp_path / name)
    parent, branch = checkpoint.load(tmp_path / "parent"), checkpoint.load(tmp_path / "branch")
    moe_config = tiny_moe_config(vocab=VOCAB_SIZE)
    moe, _ = upcycle.build(upcycle.UpcycleSpec(method, seed=3), parent, moe_config,
                           [branch] if method == "btx" else [])
    want = {name: a.copy() for name, a in moe.tensors.items()}

    def buffer(ckpt):
        array = ckpt.tensors["final_norm"]
        while isinstance(array.base, np.ndarray):
            array = array.base
        return weakref.ref(array)

    buffers = [buffer(parent), buffer(branch)]
    del parent, branch
    assert [ref() for ref in buffers] == [None, None]
    assert moe.tensors.keys() == want.keys()
    assert all(moe.tensors[name].tobytes() == want[name].tobytes() for name in want)
    if method == "naive":
        gates = [moe.tensors[f"layers.0.experts.{e}.gate"] for e in range(4)]
        assert all(gate is gates[0] for gate in gates)


# ---------------------------------------------------------------------------
# scripts/peak_rss.py
# ---------------------------------------------------------------------------

def _peak_rss(*args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "peak_rss.py"), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_peak_rss_script_on_toy_config(tmp_path):
    init = _peak_rss("init", "--scale", "toy", "--out", str(tmp_path / "parent"))
    assert init["command"] == "init" and init["exit_code"] == 0
    assert init["maxrss_mib"] > 0 and init["wall_s"] > 0 and init["payload_mib"] > 0
    up = _peak_rss("upcycle", "--in", str(tmp_path / "parent"), "--out", str(tmp_path / "moe"))
    assert up["exit_code"] == 0 and up["payload_mib"] > init["payload_mib"]
    assert (tmp_path / "moe" / "reinit_plan.json").exists()
    save_corpus(default_corpus(seq_len=64, num_sequences=32), tmp_path / "corpus.txt")
    trained = _peak_rss("train", "--in", str(tmp_path / "moe"), "--corpus",
                        str(tmp_path / "corpus.txt"), "--out", str(tmp_path / "trained"),
                        "--steps", "2")
    assert trained["command"] == "train" and trained["steps"] == 2
    assert trained["exit_code"] == 0 and trained["maxrss_mib"] > 0 and trained["wall_s"] > 0
    # The trained checkpoint adds the position embedding the upcycle lacks.
    assert trained["payload_mib"] >= up["payload_mib"]
    curve = (tmp_path / "trained" / "curve.jsonl").read_text().splitlines()
    assert len(curve) == 2
    routing = _peak_rss("analyze-routing", "--in", str(tmp_path / "trained" / "model"),
                        "--corpus", str(tmp_path / "corpus.txt"), "--out",
                        str(tmp_path / "routing"))
    assert routing["command"] == "analyze-routing" and routing["exit_code"] == 0
    assert routing["maxrss_mib"] > 0 and routing["payload_mib"] is None
    assert (tmp_path / "routing" / "routing_fractions.csv").exists()
