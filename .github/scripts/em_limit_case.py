"""Time and peak memory of acceptance criterion 1's C=V aggregate EM step.

usage: python3 .github/scripts/em_limit_case.py [--max-rss-mb MB]

Runs, in a child process, only the C=V half of criterion 1: the desk
training corpus of the test suite (tests/conftest.py), counted as there,
then one EM step of `train_aggregate` from `AggregateModel.identity_init`.
Prints one JSON line with the wall time of that training call (`step_s`)
and the child's peak resident set size (`peak_rss_mb`, from `ru_maxrss`),
which covers making the corpus and counting it as well.  With
--max-rss-mb, exits 1 when the peak is above that bound.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def child() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import markovmix as mm
    from conftest import SKIPS, TRAIN_SEED, TRAIN_SENTENCES, VOCAB_SIZE
    from corpusgen import generate_lines

    lines = generate_lines(TRAIN_SEED, TRAIN_SENTENCES)
    vocab = mm.build_vocabulary(lines, VOCAB_SIZE)
    train = mm.tokenize_corpus(lines, vocab)
    counts = mm.count_ngrams(train, vocab, max_order=3, skips=SKIPS)
    del lines, train
    V = counts.vocab_size
    start = time.perf_counter()
    ident = mm.AggregateModel.identity_init(V)
    mm.train_aggregate(counts, V, iterations=1, initial=ident)
    print(json.dumps({"V": V, "step_s": round(time.perf_counter() - start, 3)}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rss-mb", type=float)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child()
        return 0
    out = subprocess.run(
        [sys.executable, __file__, "--child"], check=True, capture_output=True, text=True
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    # ru_maxrss is in kilobytes on Linux.
    result["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1
    )
    print(json.dumps(result))
    if args.max_rss_mb is not None and result["peak_rss_mb"] > args.max_rss_mb:
        print("peak RSS %.1f MB is above %.1f MB" % (result["peak_rss_mb"], args.max_rss_mb))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
