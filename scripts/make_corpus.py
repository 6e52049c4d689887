#!/usr/bin/env python3
"""Write the bundled synthetic corpora to disk for use with the CLI.

Produces <out>/train.txt and <out>/eval.txt in the corpus file format
(domain tag, TAB, space-separated token ids). Both are deterministic. A
size below 1 exits with status 2 and one ``error:`` line, writing nothing.
"""

import argparse
import sys
from pathlib import Path

from moeup.corpus import default_corpus, default_eval_corpus, save_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("corpora"))
    parser.add_argument("--seq-len", type=int, default=64)
    parser.add_argument("--train-sequences", type=int, default=512)
    parser.add_argument("--eval-sequences", type=int, default=128)
    args = parser.parse_args()
    for flag, value in (("--seq-len", args.seq_len), ("--train-sequences", args.train_sequences),
                        ("--eval-sequences", args.eval_sequences)):
        if value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            sys.exit(2)

    args.out.mkdir(parents=True, exist_ok=True)
    train = default_corpus(seq_len=args.seq_len, num_sequences=args.train_sequences)
    held = default_eval_corpus(seq_len=args.seq_len, num_sequences=args.eval_sequences)
    save_corpus(train, args.out / "train.txt")
    save_corpus(held, args.out / "eval.txt")
    print(f"wrote {args.out / 'train.txt'} ({train.num_sequences} x {train.seq_len})")
    print(f"wrote {args.out / 'eval.txt'} ({held.num_sequences} x {held.seq_len})")


if __name__ == "__main__":
    main()
