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
  draws its first token, then all its successor picks, in one array draw; a
  bounded-integer array draw consumes the generator as the same number of
  scalar draws would. A code row draws one uniform per token, then a bracket
  kind or an identifier when its branch needs one.

``tests/test_corpus.py::test_walks_match_scalar_reference`` pins this order
byte for byte against one-draw-per-token walks in ``tests/reference_impl.py``.
"""

from __future__ import annotations

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


def _bigram_walk(g: np.random.Generator, successors: list[list[int]], lo: int,
                 length: int) -> list[int]:
    """A walk of ``length`` tokens: the first uniform over the language, then
    each a uniform pick among the current token's successors, all picks from
    one array draw."""
    cur = lo + int(g.integers(len(successors)))
    seq = [cur]
    for pick in g.integers(_SUCCESSORS, size=length - 1).tolist():
        cur = successors[cur - lo][pick]
        seq.append(cur)
    return seq


def _code_walk(g: np.random.Generator, ident_tables: list[list[int]], length: int) -> list[int]:
    """A bracket stream of ``length`` tokens. Which draws follow depends on
    each token's outcome, so the draws stay one call per value."""
    random, integers = g.random, g.integers
    seq: list[int] = []
    stack: list[int] = []
    for _ in range(length):
        u = random()
        if stack and u < 0.30:
            seq.append(_CLOSE_TOKENS[stack.pop()])
        elif len(stack) < _MAX_DEPTH and u < 0.55:
            kind = int(integers(len(_OPEN_TOKENS)))
            stack.append(kind)
            seq.append(_OPEN_TOKENS[kind])
        else:
            row = ident_tables[stack[-1] if stack else 0]
            seq.append(row[integers(len(row))])
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

    table_root = RngStream(seed)
    alpha = _bigram_table(table_root.child(0), *_ALPHA_RANGE).tolist()
    beta = _bigram_table(table_root.child(1), *_BETA_RANGE).tolist()
    # Each bracket kind prefers its own slice of the identifier range.
    ident_lo, ident_hi = _IDENT_RANGE
    span = (ident_hi - ident_lo) // len(_OPEN_TOKENS)
    ident_tables = [list(range(ident_lo + k * span, ident_lo + (k + 1) * span))
                    for k in range(len(_OPEN_TOKENS))]

    weights = np.asarray(domain_mix, dtype=np.float64)
    weights = weights / weights.sum()
    draw_root = RngStream(seed if draw_seed is None else draw_seed)
    choices = draw_root.child(2).generator().choice(
        len(DOMAINS), size=num_sequences, p=weights).tolist()

    rows: list[list[int]] = []
    for row, choice in enumerate(choices):
        g = draw_root.child(3, row).generator()
        if choice == 0:
            rows.append(_bigram_walk(g, alpha, _ALPHA_RANGE[0], seq_len))
        elif choice == 1:
            rows.append(_bigram_walk(g, beta, _BETA_RANGE[0], seq_len))
        else:
            rows.append(_code_walk(g, ident_tables, seq_len))
    return Corpus(sequences=np.array(rows, dtype=np.int64),
                  domains=[DOMAINS[choice] for choice in choices])


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
