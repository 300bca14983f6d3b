"""Vocabulary, tokenization, and n-gram counting."""

import random
from collections import Counter

import numpy as np
import pytest

import markovmix as mm
from markovmix.corpus import (
    END_ID,
    START_ID,
    UNK_ID,
    NgramCounts,
    _event_windows,
    count_ngrams,
)
from markovmix.errors import DataError, ParameterError


def make_vocab(*words):
    return mm.Vocabulary(["<s>", "</s>", "<unk>"] + list(words))


def test_every_name_in_all_is_a_package_attribute():
    # `from markovmix import *` fails on a name that no longer exists.
    assert [name for name in mm.__all__ if not hasattr(mm, name)] == []


class TestBuildVocabulary:
    def test_all_words_fit(self):
        vocab = mm.build_vocabulary(["a b a"], 5)
        assert vocab.words == ["<s>", "</s>", "<unk>", "a", "b"]
        assert len(vocab) == 5

    def test_frequency_cutoff(self):
        vocab = mm.build_vocabulary(["x y x y x z"], 4)
        assert vocab.words == ["<s>", "</s>", "<unk>", "x"]
        assert vocab.id_of("y") == UNK_ID
        assert vocab.id_of("z") == UNK_ID

    def test_empty_corpus(self):
        with pytest.raises(DataError, match="empty corpus"):
            mm.build_vocabulary(["   ", "", "\t"], 10)

    def test_max_size_too_small(self):
        with pytest.raises(ParameterError):
            mm.build_vocabulary(["a b"], 3)

    def test_ties_break_lexicographically(self):
        vocab = mm.build_vocabulary(["b a b a"], 4)
        assert vocab.words[3] == "a"

    def test_reserved_ids_fixed(self):
        vocab = mm.build_vocabulary(["a"], 4)
        assert vocab.id_of("<s>") == START_ID == 0
        assert vocab.id_of("</s>") == END_ID == 1
        assert vocab.id_of("<unk>") == UNK_ID == 2

    def test_ids_bijective(self):
        vocab = mm.build_vocabulary(["c a b a b c d"], 7)
        assert sorted(vocab.ids.values()) == list(range(len(vocab)))
        for w in vocab.words:
            assert vocab.word_of(vocab.id_of(w)) == w


class TestTokenize:
    def test_known_words(self):
        vocab = make_vocab("a", "b")
        assert mm.tokenize("a b", vocab) == [3, 4]

    def test_oov_maps_to_unknown(self):
        vocab = make_vocab("a")
        assert mm.tokenize("a qqq", vocab) == [3, UNK_ID]

    def test_empty_line(self):
        vocab = make_vocab("a")
        assert mm.tokenize("", vocab) == []

    def test_literal_boundary_markers_map_to_unknown(self):
        # Interior tokens must never carry the start/end ids.
        vocab = make_vocab("a")
        assert mm.tokenize("<s> a </s>", vocab) == [UNK_ID, 3, UNK_ID]


class TestCountNgrams:
    def test_single_word_sentence(self):
        vocab = make_vocab("a")
        counts = count_ngrams([[3]], vocab, max_order=1, skips=(1,))
        assert counts.skips[1] == Counter({(START_ID, 3): 1, (3, END_ID): 1})
        assert counts.total == 2

    def test_skip2_padding(self):
        vocab = make_vocab("a", "b", "c")
        a, b, c = 3, 4, 5
        counts = count_ngrams([[a, b, c]], vocab, max_order=1, skips=(1, 2))
        assert counts.skips[2] == Counter(
            {(START_ID, a): 1, (START_ID, b): 1, (a, c): 1, (b, END_ID): 1}
        )

    def test_additive_over_sentences(self):
        vocab = make_vocab("a", "b")
        counts = count_ngrams([[3, 4], [3, 4]], vocab, max_order=2, skips=(1,))
        assert counts.bigrams[(3, 4)] == 2

    def test_merge_matches_joint_count(self):
        rng = random.Random(0)
        vocab = make_vocab(*"abcde")
        for _ in range(20):
            s1 = [[rng.randrange(3, 8) for _ in range(rng.randrange(0, 6))] for _ in range(5)]
            s2 = [[rng.randrange(3, 8) for _ in range(rng.randrange(0, 6))] for _ in range(5)]
            joint = count_ngrams(s1 + s2, vocab, max_order=3, skips=(1, 2, 3))
            a = count_ngrams(s1, vocab, max_order=3, skips=(1, 2, 3))
            b = count_ngrams(s2, vocab, max_order=3, skips=(1, 2, 3))
            assert joint.unigrams == Counter(a.unigrams) + Counter(b.unigrams)
            assert joint.bigrams == Counter(a.bigrams) + Counter(b.bigrams)
            assert joint.trigrams == Counter(a.trigrams) + Counter(b.trigrams)
            assert joint.skips == {k: Counter(a.skips[k]) + Counter(b.skips[k]) for k in (1, 2, 3)}
            assert joint.total == a.total + b.total

    def test_skip1_equals_bigram(self):
        rng = random.Random(1)
        vocab = make_vocab(*"abcde")
        for _ in range(30):
            sents = [
                [rng.randrange(3, 8) for _ in range(rng.randrange(0, 7))]
                for _ in range(rng.randrange(1, 6))
            ]
            counts = count_ngrams(sents, vocab, max_order=2, skips=(1,))
            assert counts.skips[1] == counts.bigrams

    def test_unigram_sum_equals_total(self):
        rng = random.Random(2)
        vocab = make_vocab(*"abc")
        sents = [[rng.randrange(3, 6) for _ in range(rng.randrange(0, 5))] for _ in range(8)]
        counts = count_ngrams(sents, vocab, max_order=2, skips=(1,))
        assert sum(counts.unigrams.values()) == counts.total
        assert counts.total == sum(len(s) + 1 for s in sents)

    def test_bigram_rows_count_conditioning_events(self):
        vocab = make_vocab("a", "b", "c")
        sents = [[3, 4, 5], [4, 3]]
        counts = count_ngrams(sents, vocab, max_order=2, skips=(1,))
        # Conditioning events per word, counted by hand over the padded walk.
        conditioning = Counter()
        for s in sents:
            padded = [START_ID] + s + [END_ID]
            for w in padded[:-1]:
                conditioning[w] += 1
        rows = Counter()
        for (w1, _), n in counts.bigrams.items():
            rows[w1] += n
        assert rows == conditioning

    def test_bad_parameters(self):
        vocab = make_vocab("a")
        with pytest.raises(ParameterError):
            count_ngrams([[3]], vocab, max_order=4, skips=(1,))
        with pytest.raises(ParameterError):
            count_ngrams([[3]], vocab, max_order=2, skips=(0,))
        with pytest.raises(ParameterError, match="too large"):
            count_ngrams([[3]], range(2**21), max_order=3, skips=(1,))

    def test_out_of_range_ids_rejected(self):
        # Id V would otherwise share the bigram key (w1 + 1) * V + 0.
        vocab = make_vocab("a")
        for bad in ([[3, len(vocab)]], [[-1]]):
            with pytest.raises(ParameterError, match="must lie in"):
                count_ngrams(bad, vocab, max_order=2, skips=(1,))


class TestPaddedEvents:
    """_event_windows rows: the context padded with start ids, then the word."""

    def test_interior_plus_end(self):
        windows = _event_windows([[3, 4]], 2)
        assert windows.dtype == np.int64
        assert windows.tolist() == [
            [START_ID, START_ID, 3],
            [START_ID, 3, 4],
            [3, 4, END_ID],
        ]

    def test_empty_sentence(self):
        assert _event_windows([[]], 1).tolist() == [[START_ID, END_ID]]


class TestFiles:
    def test_vocab_round_trip(self, tmp_path):
        vocab = mm.build_vocabulary(["c a b a b c d"], 7)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:3] == ["<s>", "</s>", "<unk>"]
        assert mm.Vocabulary.load(path).words == vocab.words

    def test_counts_round_trip(self, tmp_path):
        rng = random.Random(4)
        vocab = make_vocab(*"abcd")
        sents = [[rng.randrange(3, 7) for _ in range(rng.randrange(0, 6))] for _ in range(12)]
        counts = count_ngrams(sents, vocab, max_order=3, skips=(1, 2, 3))
        path = tmp_path / "counts.txt"
        counts.save(path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "NGRAM-COUNTS v1 order=3 skips=1,2,3"
        loaded = NgramCounts.load(path)
        assert loaded.unigrams == counts.unigrams
        assert loaded.bigrams == counts.bigrams
        assert loaded.trigrams == counts.trigrams
        assert loaded.skips == counts.skips
        assert loaded.total == counts.total
        assert loaded.vocab_size == counts.vocab_size

    def test_counts_file_sorted(self, tmp_path):
        vocab = make_vocab(*"ab")
        counts = count_ngrams([[4, 3], [3, 4]], vocab, max_order=2, skips=(1,))
        path = tmp_path / "counts.txt"
        counts.save(path)
        body = [l for l in path.read_text(encoding="utf-8").splitlines() if l.startswith("B ")]
        assert body == sorted(body, key=lambda l: [int(x) for x in l.split()[1:3]])
