"""Shared fixtures: the synthetic desk corpus and artifacts built from it.

The desk corpus is generated once per session (deterministic seeds) and the
expensive trained models are session fixtures so the acceptance tests share
them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest

import markovmix as mm
from corpusgen import generate_lines
from markovmix.corpus import CountTable

TRAIN_SEED, VALID_SEED, TEST_SEED = 101, 202, 303
TRAIN_SENTENCES, VALID_SENTENCES, TEST_SENTENCES = 30_000, 3_000, 3_000
VOCAB_SIZE = 4_200
SKIPS = (1, 2, 3, 4)


def count_table(entries: dict) -> CountTable:
    """A count table holding `entries`, keyed by id tuples (bare ids for a
    unigram table)."""
    key = next(iter(entries))
    return CountTable.of(entries, len(key) if isinstance(key, tuple) else 1)


def mixed_model(lambdas, rows: list[dict]) -> mm.MixedOrderModel:
    """A mixed-order model from its mixing weights and, per skip distance,
    dict rows {w1: {w2: p}} of its stored pairs."""
    V = len(lambdas)
    keys, vals = [], []
    for matrix in rows:
        pairs = sorted((w1 * V + w2, p) for w1, row in matrix.items() for w2, p in row.items())
        keys.append(np.array([key for key, _ in pairs], dtype=np.int64))
        vals.append(np.array([p for _, p in pairs], dtype=np.float64))
    return mm.MixedOrderModel(lambdas, keys, vals)


@dataclass
class DeskCorpus:
    root: object
    train_path: str
    valid_path: str
    test_path: str
    vocab: mm.Vocabulary
    train: list = field(repr=False, default=None)
    valid: list = field(repr=False, default=None)
    test: list = field(repr=False, default=None)
    counts: mm.NgramCounts = None


@pytest.fixture(scope="session")
def desk(tmp_path_factory) -> DeskCorpus:
    root = tmp_path_factory.mktemp("desk")
    lines = {
        "train": generate_lines(TRAIN_SEED, TRAIN_SENTENCES),
        "valid": generate_lines(VALID_SEED, VALID_SENTENCES),
        "test": generate_lines(TEST_SEED, TEST_SENTENCES),
    }
    paths = {}
    for name, ls in lines.items():
        path = root / f"{name}.txt"
        path.write_text("\n".join(ls) + "\n", encoding="utf-8")
        paths[name] = str(path)
    vocab = mm.build_vocabulary(lines["train"], VOCAB_SIZE)
    train = mm.tokenize_corpus(lines["train"], vocab)
    valid = mm.tokenize_corpus(lines["valid"], vocab)
    test = mm.tokenize_corpus(lines["test"], vocab)
    counts = mm.count_ngrams(train, vocab, max_order=3, skips=SKIPS)
    return DeskCorpus(
        root=root,
        train_path=paths["train"],
        valid_path=paths["valid"],
        test_path=paths["test"],
        vocab=vocab,
        train=train,
        valid=valid,
        test=test,
        counts=counts,
    )


@pytest.fixture(scope="session")
def desk_base(desk) -> mm.AggregateModel:
    """The C=32 aggregate base used throughout the smoothing experiments."""
    model, _ = mm.train_aggregate(desk.counts, 32, iterations=32, seed=0)
    return model


@pytest.fixture(scope="session")
def desk_mixed2(desk) -> mm.MixedOrderModel:
    model, _ = mm.train_mixed(desk.train, 2, len(desk.vocab), iterations=4)
    return model


@pytest.fixture(scope="session")
def desk_cascade2(desk, desk_base, desk_mixed2) -> mm.SmoothedCascade:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return mm.SmoothedCascade.fit(desk.counts, desk_base, [desk_mixed2], desk.valid)
