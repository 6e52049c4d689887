import numpy as np
import pytest

from moeup.config import ValidationError
from moeup.corpus import (
    DEFAULT_CORPUS_SEED,
    DEFAULT_EVAL_DRAW_SEED,
    DOMAINS,
    VOCAB_SIZE,
    default_corpus,
    default_eval_corpus,
    load_corpus,
    save_corpus,
    synthetic_corpus,
)

from reference_impl import ref_synthetic_corpus

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
