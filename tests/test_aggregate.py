"""Class-based bigram model: initialization, EM updates, and limit cases.

The EM oracle here re-derives the posterior and both parameter updates by
explicit summation over classes and vocabulary entries, independent of the
vectorized implementation.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest

import markovmix as mm
from markovmix import aggregate as ag
from markovmix.corpus import count_ngrams
from markovmix.errors import DataError, ParameterError

from conftest import count_table
from test_corpus import make_vocab


def random_counts(rng, n_words=5, n_sentences=6, max_len=6, max_order=2, skips=(1,)):
    vocab = make_vocab(*[f"w{i}" for i in range(n_words)])
    sents = [
        [rng.randrange(3, 3 + n_words) for _ in range(rng.randrange(0, max_len))]
        for _ in range(n_sentences)
    ]
    return count_ngrams(sents, vocab, max_order=max_order, skips=skips), sents, vocab


def brute_posteriors(cgw, wgc, bigrams):
    """Posterior over classes per observed bigram, by direct enumeration."""
    posts = {}
    for (w1, w2), _ in bigrams.items():
        joint = [cgw[w1][c] * wgc[c][w2] for c in range(len(wgc))]
        tot = sum(joint)
        posts[(w1, w2)] = [j / tot for j in joint]
    return posts


def brute_em_step(cgw, wgc, bigrams):
    """One EM update written as literal sums over the sparse count table."""
    V, C = len(cgw), len(wgc)
    posts = brute_posteriors(cgw, wgc, bigrams)
    ll = sum(
        n * math.log(sum(cgw[w1][c] * wgc[c][w2] for c in range(C)))
        for (w1, w2), n in bigrams.items()
    )
    new_cgw = [row[:] for row in cgw]
    for w1 in range(V):
        num = [0.0] * C
        den = 0.0
        for (u, w), n in bigrams.items():
            if u == w1:
                for c in range(C):
                    num[c] += n * posts[(u, w)][c]
                    den += n * posts[(u, w)][c]
        if den > 0:
            new_cgw[w1] = [x / den for x in num]
    new_wgc = [row[:] for row in wgc]
    for c in range(C):
        num = [0.0] * V
        den = 0.0
        for (u, w), n in bigrams.items():
            num[w] += n * posts[(u, w)][c]
            den += n * posts[(u, w)][c]
        if den > 0:
            new_wgc[c] = [x / den for x in num]
    return new_cgw, new_wgc, ll


class TestInit:
    def test_single_class_membership_is_certain(self):
        model = mm.AggregateModel.random_init(5, 1, seed=0)
        assert np.all(model.class_given_word == 1.0)

    def test_deterministic_for_seed(self):
        a = mm.AggregateModel.random_init(5, 3, seed=7)
        b = mm.AggregateModel.random_init(5, 3, seed=7)
        assert np.array_equal(a.class_given_word, b.class_given_word)
        assert np.array_equal(a.word_given_class, b.word_given_class)
        c = mm.AggregateModel.random_init(5, 3, seed=8)
        assert not np.array_equal(a.class_given_word, c.class_given_word)

    def test_rows_normalized(self):
        model = mm.AggregateModel.random_init(5, 5, seed=7)
        assert np.allclose(model.class_given_word.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(model.word_given_class.sum(axis=1), 1.0, atol=1e-12)

    def test_class_count_bounds(self):
        with pytest.raises(ParameterError):
            mm.AggregateModel.random_init(5, 0, seed=0)
        with pytest.raises(ParameterError):
            mm.AggregateModel.random_init(5, 6, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            mm.AggregateModel.random_init(5, 3, seed=-1)


class TestPairProb:
    def test_single_class_ignores_context(self):
        model = mm.AggregateModel.random_init(6, 1, seed=3)
        assert model.pair_prob(0, 4) == pytest.approx(model.pair_prob(5, 4), abs=0)

    def test_hand_computed_mixture(self):
        # P(c|a) = (0.5, 0.5) and P(b|c) = (0.2, 0.6) mix to 0.4.
        cgw = np.array([[0.5, 0.5], [1.0, 0.0]])
        wgc = np.array([[0.8, 0.2], [0.4, 0.6]])
        model = mm.AggregateModel(cgw, wgc)
        assert model.pair_prob(0, 1) == pytest.approx(0.4, abs=1e-15)

    def test_rows_sum_to_one(self):
        model = mm.AggregateModel.random_init(7, 3, seed=1)
        for w1 in range(7):
            total = sum(model.pair_prob(w1, w2) for w2 in range(7))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_id_out_of_range(self):
        model = mm.AggregateModel.random_init(4, 2, seed=0)
        with pytest.raises(ParameterError):
            model.pair_prob(4, 0)
        with pytest.raises(ParameterError):
            model.pair_prob(0, -1)


class TestEmStep:
    def test_matches_brute_force(self):
        rng = random.Random(11)
        for trial in range(25):
            counts, _, _ = random_counts(rng, n_words=rng.randrange(2, 6))
            V = counts.vocab_size
            C = rng.randrange(1, 5)
            model = mm.AggregateModel.random_init(V, C, seed=trial)
            stepped, ll = ag.em_step(model, counts)
            bcgw, bwgc, bll = brute_em_step(
                model.class_given_word.tolist(),
                model.word_given_class.tolist(),
                counts.bigrams,
            )
            assert ll == pytest.approx(bll, abs=1e-10)
            assert np.allclose(stepped.class_given_word, bcgw, atol=1e-10)
            assert np.allclose(stepped.word_given_class, bwgc, atol=1e-10)

    def test_posteriors_sum_to_one(self):
        rng = random.Random(12)
        counts, _, _ = random_counts(rng, n_words=5)
        model = mm.AggregateModel.random_init(counts.vocab_size, 3, seed=0)
        posts = brute_posteriors(
            model.class_given_word.tolist(),
            model.word_given_class.tolist(),
            counts.bigrams,
        )
        for p in posts.values():
            assert sum(p) == pytest.approx(1.0, abs=1e-12)

    def test_single_count_concentrates_emission(self):
        # One observed pair: every class carrying mass must emit it surely,
        # so the mixture gives it probability one.
        counts = mm.NgramCounts(5, 2, (1,))
        counts.bigrams = count_table({(3, 4): 1})
        counts.total = 1
        model = mm.AggregateModel.random_init(5, 2, seed=5)
        stepped, _ = ag.em_step(model, counts)
        assert stepped.pair_prob(3, 4) == pytest.approx(1.0, abs=1e-12)
        for c in range(2):
            if stepped.class_given_word[3, c] > 0:
                assert stepped.word_given_class[c, 4] == pytest.approx(1.0, abs=1e-12)

    def test_single_class_reaches_fixed_point_in_one_step(self):
        rng = random.Random(13)
        counts, _, _ = random_counts(rng)
        model = mm.AggregateModel.random_init(counts.vocab_size, 1, seed=2)
        once, _ = ag.em_step(model, counts)
        twice, _ = ag.em_step(once, counts)
        assert np.allclose(once.word_given_class, twice.word_given_class, atol=1e-15)
        # Emissions equal the ML distribution of successor tokens.
        succ = Counter()
        for (_, w2), n in counts.bigrams.items():
            succ[w2] += n
        total = sum(succ.values())
        for w2, n in succ.items():
            assert once.word_given_class[0, w2] == pytest.approx(n / total, abs=1e-12)

    def test_zero_outgoing_rows_keep_prior(self):
        counts = mm.NgramCounts(5, 2, (1,))
        counts.bigrams = count_table({(3, 4): 2})
        counts.total = 2
        model = mm.AggregateModel.random_init(5, 2, seed=9)
        stepped, _ = ag.em_step(model, counts)
        assert np.array_equal(stepped.class_given_word[0], model.class_given_word[0])

    def test_empty_bigrams_rejected(self):
        counts = mm.NgramCounts(5, 1, (1,))
        model = mm.AggregateModel.random_init(5, 2, seed=0)
        with pytest.raises(DataError, match="no bigram events"):
            ag.em_step(model, counts)

    @pytest.mark.parametrize("pair", [(3, 5), (-1, 2)])
    def test_ids_outside_the_vocabulary_rejected(self, pair):
        counts = mm.NgramCounts(5, 2, (1,))
        counts.bigrams = count_table({pair: 1})
        model = mm.AggregateModel.random_init(5, 2, seed=0)
        with pytest.raises(ParameterError, match=r"word ids must lie in \[0, 5\)"):
            ag.em_step(model, counts)

    def test_model_of_another_vocabulary_rejected(self):
        counts = mm.NgramCounts(5, 2, (1,))
        counts.bigrams = count_table({(3, 4): 1})
        model = mm.AggregateModel.random_init(6, 2, seed=0)
        with pytest.raises(ParameterError, match="vocabulary size"):
            ag.em_step(model, counts)

    def test_monotone_loglik(self):
        rng = random.Random(14)
        for trial in range(10):
            counts, _, _ = random_counts(rng, n_words=rng.randrange(3, 8))
            model = mm.AggregateModel.random_init(counts.vocab_size, 3, seed=trial)
            prev = None
            for _ in range(12):
                model, ll = ag.em_step(model, counts)
                if prev is not None:
                    assert ll >= prev - 1e-9
                prev = ll

    def test_rows_stay_normalized(self):
        rng = random.Random(15)
        counts, _, _ = random_counts(rng)
        model = mm.AggregateModel.random_init(counts.vocab_size, 4, seed=1)
        for _ in range(5):
            model, _ = ag.em_step(model, counts)
            assert np.allclose(model.class_given_word.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(model.word_given_class.sum(axis=1), 1.0, atol=1e-9)

    def test_chunked_accumulation_matches(self, monkeypatch):
        rng = random.Random(16)
        counts, _, _ = random_counts(rng, n_words=8, n_sentences=12)
        model = mm.AggregateModel.random_init(counts.vocab_size, 3, seed=4)
        whole, ll_whole = ag.em_step(model, counts)
        monkeypatch.setattr(ag, "_CHUNK_CELLS", 7)
        pieces, ll_pieces = ag.em_step(model, counts)
        assert ll_pieces == pytest.approx(ll_whole, abs=1e-12)
        assert np.allclose(whole.class_given_word, pieces.class_given_word, atol=1e-12)
        assert np.allclose(whole.word_given_class, pieces.word_given_class, atol=1e-12)


class TestTrain:
    def test_single_class_matches_unigram_oracle(self):
        rng = random.Random(17)
        counts, _, _ = random_counts(rng, n_words=6, n_sentences=10)
        _, trace = mm.train_aggregate(counts, 1, iterations=4, seed=0)
        ll = sum(n * math.log(n / counts.total) for n in counts.unigrams.values())
        assert trace.perplexities[-1] == pytest.approx(
            math.exp(-ll / counts.total), rel=1e-12
        )

    def test_identity_init_matches_bigram_oracle(self):
        rng = random.Random(18)
        counts, _, _ = random_counts(rng, n_words=6, n_sentences=10)
        V = counts.vocab_size
        initial = mm.AggregateModel.identity_init(V)
        _, trace = mm.train_aggregate(counts, V, iterations=2, initial=initial)
        rows = Counter()
        for (w1, _), n in counts.bigrams.items():
            rows[w1] += n
        ll = sum(n * math.log(n / rows[w1]) for (w1, w2), n in counts.bigrams.items())
        assert trace.perplexities[-1] == pytest.approx(
            math.exp(-ll / counts.total), rel=1e-12
        )

    def test_trace_shape_and_monotonicity(self):
        rng = random.Random(19)
        counts, _, _ = random_counts(rng, n_words=8, n_sentences=14)
        _, trace = mm.train_aggregate(counts, 2, iterations=9, seed=3)
        assert len(trace.log_likelihoods) == 9
        assert len(trace.perplexities) == 9
        for a, b in zip(trace.perplexities, trace.perplexities[1:]):
            assert b <= a * (1 + 1e-9)
        for ll, pp in zip(trace.log_likelihoods, trace.perplexities):
            assert pp == pytest.approx(math.exp(-ll / counts.total), rel=1e-12)

    def test_trace_csv(self, tmp_path):
        rng = random.Random(20)
        counts, _, _ = random_counts(rng)
        _, trace = mm.train_aggregate(counts, 2, iterations=3, seed=0)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,loglik,perplexity"
        assert len(lines) == 4
        assert lines[1].startswith("1,")


class TestModelProperties:
    def test_rank_bounded_by_class_count(self):
        for C in (1, 2, 3):
            model = mm.AggregateModel.random_init(8, C, seed=C)
            full = model.class_given_word @ model.word_given_class
            assert np.linalg.matrix_rank(full) <= C

    def test_positive_factors_give_positive_pairs(self):
        # Strictly positive factors imply positive probability for every
        # pair, unseen bigrams included.
        model = mm.AggregateModel.random_init(7, 3, seed=21)
        assert np.all(model.class_given_word > 0)
        assert np.all(model.word_given_class > 0)
        full = model.class_given_word @ model.word_given_class
        assert np.all(full > 0)

    def test_trained_model_covers_unseen_bigrams(self):
        # After training, any pair whose successor occurs somewhere in the
        # data keeps positive probability even if the bigram was never seen.
        rng = random.Random(21)
        counts, _, _ = random_counts(rng, n_words=6, n_sentences=8)
        model, _ = mm.train_aggregate(counts, 2, iterations=6, seed=1)
        full = model.class_given_word @ model.word_given_class
        successors = [w for w, n in counts.unigrams.items() if n > 0]
        unseen = [
            (w1, w2)
            for w1 in range(counts.vocab_size)
            for w2 in successors
            if (w1, w2) not in counts.bigrams
        ]
        assert unseen
        assert all(full[w1, w2] > 0 for w1, w2 in unseen)

    def test_class_assignments_single_class(self):
        model = mm.AggregateModel.random_init(4, 1, seed=0)
        assert model.class_assignments() == [(w, 0, 1.0) for w in range(4)]

    def test_class_assignments_tie_breaks_low(self):
        cgw = np.array([[0.5, 0.5], [0.2, 0.8]])
        wgc = np.full((2, 2), 0.5)
        model = mm.AggregateModel(cgw, wgc)
        assert model.class_assignments()[0] == (0, 0, 0.5)
        assert model.class_assignments()[1] == (1, 1, 0.8)

    def test_save_load_round_trip(self, tmp_path):
        model = mm.AggregateModel.random_init(6, 3, seed=42)
        path = tmp_path / "agg.txt"
        model.save(path)
        loaded = mm.AggregateModel.load(path)
        assert np.array_equal(loaded.class_given_word, model.class_given_word)
        assert np.array_equal(loaded.word_given_class, model.word_given_class)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "AGG-MODEL v1 V=6 C=3"
