"""Procedurally generated multi-domain token corpus.

Three domains share one vocabulary of 96 ids but use disjoint token ranges,
so a model can both infer the domain and learn within-domain structure:

- ``alpha``: a random-bigram language over ids [0, 32); each token has four
  allowed successors, drawn once per language seed
- ``beta``: the same construction over ids [32, 64) with its own table
- ``code``: a bracket stream over ids [64, 96): three open/close bracket
  pairs plus filler identifiers whose distribution depends on the innermost
  open bracket, generated with an explicit nesting stack

File format (one sequence per line, UTF-8):

    <domain-tag> TAB <token id> SP <token id> SP ...

Token ids are decimal integers. The bundled corpus is fully deterministic:
:func:`default_corpus` and :func:`default_eval_corpus` share the same domain
languages but draw disjoint sequence sets.

Draw order is part of the corpus format, so a given ``(seed, draw_seed)``
always yields the same bytes:

- the ``alpha`` and ``beta`` successor tables come from substreams ``(0,)``
  and ``(1,)`` of ``seed``;
- every row's domain comes from one ``choice`` on substream ``(2,)`` of
  ``draw_seed``;
- row ``r`` is walked on substream ``(3, r)`` of ``draw_seed``. A bigram row
  draws its first token with ``integers(32)``, then all its successor picks
  with ``integers(4, size=seq_len - 1)``; a bounded-integer array draw
  consumes the generator as the same number of scalar draws would. A code row
  draws one ``random()`` per token, then ``integers(3)`` for a bracket kind or
  ``integers(8)`` for an identifier when its branch needs one.

The generator calls above define the format. Code rows do not make them: they
decode the substream's raw 64-bit PCG64 words as those calls would consume
them. ``random()`` takes one whole fresh word ``w`` and returns
``(w >> 11) * 2**-53``. A bounded ``integers(n)`` draws 32-bit values, by
Lemire's method (arXiv 1805.10941): the high word of ``x * n``, drawing again
while the low word is below ``(2**32 - n) % n`` (for n = 3 that rejects only
x = 0). A 32-bit value is the low half of a fresh word, whose high half is
kept for the next 32-bit value; ``random()`` leaves that kept half alone. All
bigram rows of a call walk together, one position at a time, over one table of
both languages, cached per ``seed``.

This rests on what numpy keeps stable under NEP 19: ``SeedSequence`` and the
raw ``PCG64`` stream. ``Generator``'s algorithms are not covered by that
promise, and the bigram rows, the tables and the domain choice still call
them. ``tests/test_corpus.py::test_walks_match_scalar_reference`` pins the
bytes against one-generator-call-per-token walks in
``tests/reference_impl.py``, so it catches any change in numpy's
``Generator``, including one that the decoded code rows would not follow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ValidationError, text_lines
from .numerics import RngStream

VOCAB_SIZE = 96
DOMAINS = ("alpha", "beta", "code")

_ALPHA_RANGE = (0, 32)
_BETA_RANGE = (32, 64)
_OPEN_TOKENS = (64, 65, 66)
_CLOSE_TOKENS = (67, 68, 69)
_IDENT_RANGE = (70, 96)
_SUCCESSORS = 4
_MAX_DEPTH = 5
# Each bracket kind prefers its own slice of the identifier range.
_IDENT_SPAN = (_IDENT_RANGE[1] - _IDENT_RANGE[0]) // len(_OPEN_TOKENS)
_LOW_HALF = 0xFFFFFFFF

DEFAULT_CORPUS_SEED = 20240
DEFAULT_EVAL_DRAW_SEED = 31415


@dataclass
class Corpus:
    """Fixed-length token sequences with one domain tag per sequence."""

    sequences: np.ndarray  # (num_sequences, seq_len) int64
    domains: list[str]

    def __post_init__(self):
        if self.sequences.ndim != 2:
            raise ValidationError(f"sequences must be 2D, got shape {self.sequences.shape}")
        if len(self.domains) != self.sequences.shape[0]:
            raise ValidationError(
                f"{len(self.domains)} domain tags for {self.sequences.shape[0]} sequences")

    @property
    def num_sequences(self) -> int:
        return self.sequences.shape[0]

    @property
    def seq_len(self) -> int:
        return self.sequences.shape[1]


def _bigram_table(stream: RngStream, lo: int, hi: int) -> np.ndarray:
    """Per-token successor lists (size _SUCCESSORS) over [lo, hi)."""
    g = stream.generator()
    size = hi - lo
    table = np.empty((size, _SUCCESSORS), dtype=np.int64)
    for t in range(size):
        table[t] = lo + g.choice(size, size=_SUCCESSORS, replace=False)
    return table


@functools.lru_cache(maxsize=8)
def _successors(seed: int) -> np.ndarray:
    """Both bigram languages of ``seed`` as one read-only (64, _SUCCESSORS)
    table of absolute token ids, indexed by absolute id: alpha above beta."""
    root = RngStream(seed)
    table = np.concatenate([_bigram_table(root.child(0), *_ALPHA_RANGE),
                            _bigram_table(root.child(1), *_BETA_RANGE)])
    table.flags.writeable = False
    return table


def _bigram_rows(generators: list[np.random.Generator], starts: np.ndarray,
                 table: np.ndarray, length: int) -> np.ndarray:
    """Bigram rows of ``length`` tokens, one per generator. Row i starts at
    ``starts[i]`` plus a uniform draw over its language's 32 ids; then each
    token is a uniform pick among the current token's successors, all picks
    from one array draw. The rows walk together, one position at a time."""
    size = _ALPHA_RANGE[1] - _ALPHA_RANGE[0]
    out = np.empty((length, len(generators)), dtype=np.int64)
    picks = np.empty((length - 1, len(generators)), dtype=np.int64)
    for i, g in enumerate(generators):
        out[0, i] = starts[i] + g.integers(size)
        picks[:, i] = g.integers(_SUCCESSORS, size=length - 1)
    flat = table.ravel()
    for t in range(1, length):
        out[t] = flat[out[t - 1] * _SUCCESSORS + picks[t - 1]]
    return out.T


def _uniforms(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each raw PCG64 word: its top 53 bits over 2**53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _bounded(halves: np.ndarray, n: int) -> np.ndarray:
    """``Generator.integers(n)`` of each 32-bit value ``x``, by Lemire's method
    (arXiv 1805.10941): the high word of ``x * n``, or -1 where its low word
    is below ``(2**32 - n) % n`` and the draw is rejected."""
    m = halves.astype(np.uint64) * np.uint64(n)
    out = (m >> np.uint64(32)).astype(np.int64)
    out[(m & np.uint64(_LOW_HALF)) < (2**32 - n) % n] = -1
    return out


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw words along the last axis, in the order that
    32-bit draws take them: each word's low half, then its high half."""
    halves = np.stack([words & np.uint64(_LOW_HALF), words >> np.uint64(32)], axis=-1)
    return halves.reshape(*words.shape[:-1], -1)


def _decode(words: np.ndarray) -> tuple[list, list, list]:
    """Per raw word of a code row, as lists: its branch when read as the
    token's uniform (0 below 0.30, 1 below 0.55, else 2); then per 32-bit
    half, low half first, a bracket kind and an identifier offset."""
    u = _uniforms(words)
    branch = (u >= 0.30).astype(np.int64) + (u >= 0.55)
    halves = _halves(words)
    return (branch.tolist(), _bounded(halves, len(_OPEN_TOKENS)).tolist(),
            _bounded(halves, _IDENT_SPAN).tolist())


def _code_rows(bit_generators: list[np.random.PCG64], length: int) -> np.ndarray:
    """Code rows of ``length`` tokens, one per bit generator, as a
    ``Generator`` over it would draw them (see the module docstring)."""
    out = np.empty((len(bit_generators), length), dtype=np.int64)
    if not bit_generators:
        return out
    words = np.stack([bg.random_raw(2 * length) for bg in bit_generators])
    for row, (bg, *decoded) in enumerate(zip(bit_generators, *_decode(words))):
        out[row] = _code_walk(bg, *decoded, length)
    return out


def _code_walk(bitgen: np.random.PCG64, branch: list[int], kinds: list[int],
               idents: list[int], length: int) -> list[int]:
    """One bracket stream over decoded words. Which draw comes next depends on
    each token's outcome, so the walk goes one token at a time; ``bitgen``
    supplies more words if a rejected draw uses up the row's."""
    seq: list[int] = []
    stack: list[int] = []
    p = 0        # the next fresh word
    cached = -1  # the index of the high half left for the next 32-bit draw
    for _ in range(length):
        b = branch[p]
        p += 1
        if stack and b == 0:
            seq.append(_CLOSE_TOKENS[stack.pop()])
            continue
        opening = len(stack) < _MAX_DEPTH and b <= 1
        draws = kinds if opening else idents
        while True:
            if cached < 0:
                half, cached = 2 * p, 2 * p + 1
                p += 1
            else:
                half, cached = cached, -1
            value = draws[half]
            if value >= 0:
                break
            for column, more in zip((branch, kinds, idents), _decode(bitgen.random_raw(1))):
                column += more
        if opening:
            stack.append(value)
            seq.append(_OPEN_TOKENS[value])
        else:
            seq.append(_IDENT_RANGE[0] + _IDENT_SPAN * (stack[-1] if stack else 0) + value)
    return seq


def synthetic_corpus(seed: int, num_sequences: int, seq_len: int,
                     domain_mix: tuple[float, ...] = (1.0, 1.0, 1.0),
                     draw_seed: int | None = None) -> Corpus:
    """Generate a deterministic corpus.

    ``seed`` fixes the domain languages (bigram tables); ``draw_seed`` (which
    defaults to ``seed``) fixes the sequences drawn from them. Using the same
    ``seed`` with a different ``draw_seed`` yields held-out data from the same
    languages.
    """
    if num_sequences <= 0 or seq_len <= 0:
        raise ValidationError("num_sequences and seq_len must be positive")
    if len(domain_mix) != len(DOMAINS) or any(w < 0 for w in domain_mix) or sum(domain_mix) == 0:
        raise ValidationError(f"domain_mix must be {len(DOMAINS)} non-negative weights")

    weights = np.asarray(domain_mix, dtype=np.float64)
    weights = weights / weights.sum()
    draw_root = RngStream(seed if draw_seed is None else draw_seed)
    choices = draw_root.child(2).generator().choice(len(DOMAINS), size=num_sequences, p=weights)
    bit_generators = [draw_root.child(3, row).bit_generator() for row in range(num_sequences)]

    sequences = np.empty((num_sequences, seq_len), dtype=np.int64)
    bigram, code = np.flatnonzero(choices < 2), np.flatnonzero(choices == 2)
    starts = np.array([_ALPHA_RANGE[0], _BETA_RANGE[0]])[choices[bigram]]
    sequences[bigram] = _bigram_rows([np.random.Generator(bit_generators[row]) for row in bigram],
                                     starts, _successors(seed), seq_len)
    sequences[code] = _code_rows([bit_generators[row] for row in code], seq_len)
    return Corpus(sequences=sequences, domains=[DOMAINS[choice] for choice in choices.tolist()])


def default_corpus(seq_len: int = 64, num_sequences: int = 512) -> Corpus:
    """The bundled training corpus (fixed seed, balanced domains)."""
    return synthetic_corpus(DEFAULT_CORPUS_SEED, num_sequences, seq_len)


def default_eval_corpus(seq_len: int = 64, num_sequences: int = 128) -> Corpus:
    """Held-out sequences from the bundled corpus's domain languages."""
    return synthetic_corpus(DEFAULT_CORPUS_SEED, num_sequences, seq_len,
                            draw_seed=DEFAULT_EVAL_DRAW_SEED)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for domain, row in zip(corpus.domains, corpus.sequences):
            fh.write(f"{domain}\t{' '.join(map(str, row.tolist()))}\n")


def load_corpus(path: str | Path) -> Corpus:
    sequences = []
    domains = []
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            tag, ids = line.split("\t", 1)
            row = np.array([int(tok) for tok in ids.split()], dtype=np.int64)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: malformed corpus line") from exc
        if row.size == 0 or row.min() < 0:
            raise ValidationError(f"{path}:{lineno}: token ids must be non-negative")
        sequences.append(row)
        domains.append(tag)
    if not sequences:
        raise ValidationError(f"corpus file {path} is empty")
    lengths = {len(s) for s in sequences}
    if len(lengths) != 1:
        raise ValidationError(f"corpus file {path} mixes sequence lengths {sorted(lengths)}")
    return Corpus(sequences=np.stack(sequences), domains=domains)
