import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeup.config import ValidationError
from moeup.corpus import (
    DEFAULT_CORPUS_SEED,
    DEFAULT_EVAL_DRAW_SEED,
    DOMAINS,
    VOCAB_SIZE,
    _bigram_table,
    _bounded,
    _code_rows,
    _halves,
    _successors,
    _uniforms,
    default_corpus,
    default_eval_corpus,
    load_corpus,
    save_corpus,
    synthetic_corpus,
)
from moeup.numerics import RngStream

from reference_impl import ref_code_walk, ref_synthetic_corpus

_RANGES = {"alpha": (0, 32), "beta": (32, 64), "code": (64, 96)}


def test_deterministic():
    a = synthetic_corpus(1, 32, 24)
    b = synthetic_corpus(1, 32, 24)
    assert np.array_equal(a.sequences, b.sequences)
    assert a.domains == b.domains


def test_domains_use_disjoint_token_ranges():
    corpus = default_corpus(seq_len=48, num_sequences=96)
    assert set(corpus.domains) == set(DOMAINS)
    for row in range(corpus.num_sequences):
        lo, hi = _RANGES[corpus.domains[row]]
        seq = corpus.sequences[row]
        assert seq.min() >= lo and seq.max() < hi


def test_vocab_bound():
    corpus = default_corpus(seq_len=32, num_sequences=64)
    assert corpus.sequences.max() < VOCAB_SIZE


def test_eval_corpus_shares_languages_but_not_sequences():
    train = default_corpus(seq_len=32, num_sequences=64)
    held = default_eval_corpus(seq_len=32, num_sequences=64)
    as_rows = {tuple(r) for r in train.sequences.tolist()}
    overlap = sum(tuple(r) in as_rows for r in held.sequences.tolist())
    assert overlap < 4


def test_file_round_trip(tmp_path):
    corpus = default_corpus(seq_len=16, num_sequences=20)
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert np.array_equal(loaded.sequences, corpus.sequences)
    assert loaded.domains == corpus.domains
    first = path.read_text().splitlines()[0]
    tag, ids = first.split("\t")
    assert tag in DOMAINS
    assert all(tok.isdigit() for tok in ids.split())


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("alpha\t1 2 x 4\n")
    with pytest.raises(ValidationError, match="malformed"):
        load_corpus(path)


def test_mixed_lengths_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("alpha\t1 2 3\nbeta\t1 2\n")
    with pytest.raises(ValidationError, match="lengths"):
        load_corpus(path)


def test_code_domain_brackets_nest():
    corpus = synthetic_corpus(5, 64, 128)
    rows = [i for i, d in enumerate(corpus.domains) if d == "code"]
    opens, closes = (64, 65, 66), (67, 68, 69)
    for row in rows[:16]:
        stack = []
        for tok in corpus.sequences[row]:
            if tok in opens:
                stack.append(opens.index(tok))
            elif tok in closes:
                assert stack and stack.pop() == closes.index(tok)


def test_save_corpus_bytes_match_per_token_form(tmp_path):
    corpus = default_corpus(seq_len=64, num_sequences=30)
    save_corpus(corpus, tmp_path / "corpus.txt")
    expected = "".join(
        f"{corpus.domains[row]}\t{' '.join(str(int(t)) for t in corpus.sequences[row])}\n"
        for row in range(corpus.num_sequences))
    assert (tmp_path / "corpus.txt").read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("seq_len", [1, 2, 17, 64, 128])
@pytest.mark.parametrize("domain_mix", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                         ids=["alpha", "beta", "code", "mixed"])
def test_walks_match_scalar_reference(seq_len, domain_mix):
    for seed, draw_seed in [(0, None), (7, 3), (1, 2**64 - 1),
                            (DEFAULT_CORPUS_SEED, DEFAULT_EVAL_DRAW_SEED)]:
        corpus = synthetic_corpus(seed, 12, seq_len, domain_mix, draw_seed)
        sequences, domains = ref_synthetic_corpus(seed, 12, seq_len, domain_mix, draw_seed)
        assert corpus.sequences.dtype == sequences.dtype
        assert corpus.sequences.shape == sequences.shape
        assert corpus.sequences.tobytes() == sequences.tobytes()
        assert corpus.domains == domains


@given(seed=st.integers(0, 2**64 - 1), draw_seed=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
       rows=st.integers(1, 24), seq_len=st.integers(1, 130),
       domain_mix=st.tuples(*[st.sampled_from([0.0, 0.25, 1.0, 3.0])] * 3).filter(any))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_corpus_matches_scalar_reference_for_any_shape(seed, draw_seed, rows, seq_len, domain_mix):
    """For any seeds, row count, length and domain mix, the decoded and
    lockstep walks give the scalar reference's bytes."""
    corpus = synthetic_corpus(seed, rows, seq_len, domain_mix, draw_seed)
    sequences, domains = ref_synthetic_corpus(seed, rows, seq_len, domain_mix, draw_seed)
    assert corpus.sequences.tobytes() == sequences.tobytes()
    assert corpus.domains == domains


@pytest.mark.parametrize("n", [3, 4, 8, 32])
def test_decoded_draws_match_generator(n):
    """Raw words decode to the bits of Generator.random() and, 32-bit half by
    32-bit half, to Generator.integers(n)."""
    stream = RngStream(11, (n,))
    words = stream.bit_generator().random_raw(4096)
    assert _uniforms(words).tobytes() == stream.generator().random(4096).tobytes()
    decoded = _bounded(_halves(words), n)
    assert decoded.min() >= 0  # no rejection in these draws
    assert np.array_equal(decoded, stream.generator().integers(n, size=2 * len(words)))


_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _pcg64_emitting(word: int) -> np.random.PCG64:
    """A PCG64 whose second output is ``word`` and whose first output, read as
    a uniform, is below 0.55, so that a code row opens a bracket first.

    PCG64 steps its 128-bit state ``s`` to ``s * a + inc`` and then outputs
    the state's two 64-bit halves XORed together and rotated right by the
    state's top six bits. A stepped state with those bits clear outputs
    ``high ^ low``, so ``low = high ^ word`` emits ``word``; the states before
    it follow by inverting the step."""
    bitgen = np.random.PCG64(0)
    inc = bitgen.state["state"]["inc"]
    inverse = pow(_PCG_MULTIPLIER, -1, 2**128)

    def back(state):
        return (state - inc) * inverse % 2**128

    for high in range(1, 1 << 20):
        second = (high << 64) | (high ^ word)
        first = back(second)
        first_high, first_low = first >> 64, first & (2**64 - 1)
        rotation, mixed = first >> 122, first_high ^ first_low
        output = ((mixed >> rotation) | (mixed << (64 - rotation))) & (2**64 - 1)
        if (output >> 11) * 2.0**-53 < 0.55:
            state = bitgen.state
            state["state"]["state"] = back(first)
            bitgen.state = state
            return bitgen
    raise AssertionError("no state found")


@pytest.mark.parametrize("word, first", [(0xFFFFFFFF_00000000, 66), (0, None)],
                         ids=["low-half-rejected", "both-halves-rejected"])
@pytest.mark.parametrize("length", [1, 5])
def test_code_rows_reject_like_generator(word, first, length):
    """A zero 32-bit value is the one that Generator.integers(3) rejects
    ((2**32 - 3) % 3 == 1). The code row's first bracket draw meets it: the
    decoded row draws again as the Generator does, from the cached high half
    or, when that is zero too, from a word beyond the row's 2 * length."""
    state = _pcg64_emitting(word).state
    probe = np.random.PCG64()
    probe.state = state
    assert int(probe.random_raw(2)[1]) == word
    bitgen, reference = np.random.PCG64(), np.random.PCG64()
    bitgen.state = reference.state = state
    ident_tables = np.arange(70, 94, dtype=np.int64).reshape(3, 8)
    expected = ref_code_walk(np.random.Generator(reference), ident_tables, length)
    row = _code_rows([bitgen], length)[0]
    assert row.tolist() == expected.tolist()
    if first is not None:
        assert row[0] == first  # the kind of the high half 0xFFFFFFFF


def test_successor_tables_are_cached_read_only():
    """One table per language seed, alpha above beta in absolute ids, shared
    between calls and never written."""
    table = _successors(9)
    assert _successors(9) is table and not table.flags.writeable
    alpha, beta = _bigram_table(RngStream(9, (0,)), 0, 32), _bigram_table(RngStream(9, (1,)), 32, 64)
    assert np.array_equal(table, np.concatenate([alpha, beta]))
    with pytest.raises(ValueError):
        table[0, 0] = 1
