"""Interpolation fitting, cascade algebra, Good-Turing/Katz backoff."""

import math
import os
import random
from collections import Counter

import numpy as np
import pytest

import markovmix as mm
from markovmix import evaluation as ev
from markovmix import smoothing as sm
from markovmix.corpus import END_ID, START_ID, CountTable, NgramCounts, count_ngrams
from markovmix.errors import DataError, ParameterError

from conftest import count_table, mixed_model, sigma_for
from corpusgen import generate_lines
from test_corpus import make_vocab


def random_corpus(rng, n_words, n_sentences, max_len=7):
    vocab = make_vocab(*[f"w{i}" for i in range(n_words)])
    sents = [
        [rng.randrange(3, 3 + n_words) for _ in range(rng.randrange(1, max_len))]
        for _ in range(n_sentences)
    ]
    return vocab, sents


def interp_loglik(ml, base, events, sigma_of):
    """Validation log-likelihood of the interpolated bigram, direct sum."""
    ll = 0.0
    for (w1, w2), n in events.items():
        p = (1 - sigma_of(w1)) * ml.pair_prob(w1, w2) + sigma_of(w1) * base.prob((w1,), w2)
        ll += n * math.log(p)
    return ll


def validation_events(sentences):
    events = Counter()
    for s in sentences:
        padded = [START_ID] + list(s) + [END_ID]
        for a, b in zip(padded, padded[1:]):
            events[(a, b)] += 1
    return events


class TestFitInterpolation:
    def test_all_unseen_row_delegates_fully(self):
        vocab, train = make_vocab(*"ab"), [[3, 4]]
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        base = mm.AggregateModel.random_init(5, 1, seed=0)
        # Validation uses only pairs never seen in training: (4, 3).
        params = sm.fit_interpolation(ml, base, [[4, 3]])
        assert sigma_for(params, 1, 4) == 1.0

    def test_base_equal_to_ml_keeps_init(self):
        vocab, train = make_vocab(*"ab"), [[3, 4], [4, 3]]
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)

        class MLAsBase:
            context_size = 1

            def prob(self, context, word):
                return ml.pair_prob(context[-1], word)

        params = sm.fit_interpolation(ml, MLAsBase(), train)
        for w in (0, 3, 4):
            assert sigma_for(params, 1, w) == pytest.approx(0.5, abs=1e-12)

    def test_matched_training_distribution_pushes_sigma_down(self):
        # Validation drawn to match the ML rows exactly; a uniform base can
        # only hurt, so the fitted weights approach zero.
        vocab, _ = make_vocab(*"ab"), None
        train = [[3, 4] * 20, [3, 3, 4, 4] * 10]
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        base = sm.MLUnigram(Counter({w: 1 for w in range(5)}), 5)
        params = sm.fit_interpolation(ml, base, train)
        assert sigma_for(params, 1, 3) < 0.05
        assert sigma_for(params, 1, 4) < 0.05

    def test_matches_grid_search_oracle(self):
        rng = random.Random(60)
        vocab, train = random_corpus(rng, 5, 12)
        _, valid = random_corpus(rng, 5, 6)
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        base = mm.AggregateModel.random_init(8, 2, seed=1)
        params = sm.fit_interpolation(ml, base, valid)
        events = validation_events(valid)
        for w1 in {a for (a, _) in events}:
            row_events = Counter({k: n for k, n in events.items() if k[0] == w1})
            fitted = interp_loglik(ml, base, row_events, lambda _: sigma_for(params, 1, w1))
            grid_best = max(
                interp_loglik(ml, base, row_events, lambda _: s)
                for s in np.linspace(0.0, 1.0, 501)
                if all(
                    (1 - s) * ml.pair_prob(a, b) + s * base.prob((a,), b) > 0
                    for (a, b) in row_events
                )
            )
            assert fitted >= grid_best - 1e-9

    def test_beats_both_endpoints(self):
        # Per row, the fitted weight's held-out likelihood must match or
        # beat both pure-ML (sigma 0, comparable only when every event of
        # the row is seen) and pure-base (sigma 1).
        rng = random.Random(61)
        vocab, train = random_corpus(rng, 6, 14)
        _, valid = random_corpus(rng, 6, 7)
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        base = mm.AggregateModel.random_init(9, 3, seed=2)
        params = sm.fit_interpolation(ml, base, valid)
        events = validation_events(valid)
        rows = {a for (a, _) in events}
        assert rows
        for w1 in rows:
            row_events = Counter({k: n for k, n in events.items() if k[0] == w1})
            fitted = interp_loglik(ml, base, row_events, lambda w: sigma_for(params, 1, w))
            assert fitted >= interp_loglik(ml, base, row_events, lambda _: 1.0) - 1e-9
            if all(ml.pair_prob(a, b) > 0 for (a, b) in row_events):
                assert fitted >= interp_loglik(ml, base, row_events, lambda _: 0.0) - 1e-9

    def test_deterministic(self):
        rng = random.Random(62)
        vocab, train = random_corpus(rng, 5, 10)
        _, valid = random_corpus(rng, 5, 5)
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        base = mm.AggregateModel.random_init(8, 2, seed=3)
        a = sm.fit_interpolation(ml, base, valid)
        b = sm.fit_interpolation(ml, base, valid)
        assert a.values == b.values
        assert a.fallbacks == b.fallbacks

    def test_tied_fit_shares_single_weight(self):
        rng = random.Random(59)
        vocab, train = random_corpus(rng, 5, 10)
        _, valid = random_corpus(rng, 5, 5)
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        base = mm.AggregateModel.random_init(8, 2, seed=3)
        tied = sm.fit_interpolation(ml, base, valid, tied=True)
        untied = sm.fit_interpolation(ml, base, valid)
        assert tied.values == {}
        assert tied.fallbacks == untied.fallbacks
        for w in range(8):
            assert sigma_for(tied, 1, w) == tied.fallbacks[1]


class TestInterpProb:
    def _setup(self):
        vocab = make_vocab(*"ab")
        counts = count_ngrams([[3, 4], [3, 3]], vocab, max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        base = mm.AggregateModel.random_init(5, 2, seed=4)
        return ml, base

    def test_sigma_zero_is_ml(self):
        ml, base = self._setup()
        params = sm.MixedSmoothingParams({(1, 3): 0.0}, {1: 0.5})
        assert sm.InterpolatedBigram(ml, base, params).prob((3,), 4) == ml.pair_prob(3, 4)

    def test_sigma_one_is_base(self):
        ml, base = self._setup()
        level = sm.InterpolatedBigram(ml, base, sm.MixedSmoothingParams({(1, 3): 1.0}, {1: 0.5}))
        assert level.prob((3,), 4) == base.prob((3,), 4)
        # Unseen bigram still positive through the base.
        assert level.prob((3,), 0) > 0

    def test_half_mix_arithmetic(self):
        ml, base = self._setup()

        class PointBase:
            context_size = 1

            def prob(self, context, word):
                return 0.01

        params = sm.MixedSmoothingParams({(1, 4): 0.5}, {1: 0.5})
        # P_ML(3 after 4) = 0, base 0.01: 0.5 * 0 + 0.5 * 0.01.
        assert sm.InterpolatedBigram(ml, PointBase(), params).prob((4,), 3) == pytest.approx(0.005)

    def test_ids_range_checked_over_any_base(self):
        # The base here checks nothing.  Without the level's own check, -1
        # would wrap to the last row and (3, 7) would read the pair (4, 1).
        counts = count_ngrams([[4], [3, 4]], make_vocab(*"abc"), max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        assert ml.pair_prob(4, 1) == 1.0

        class PointBase:
            context_size = 1

            def prob(self, context, word):
                return 0.01

        level = sm.InterpolatedBigram(ml, PointBase(), sm.MixedSmoothingParams({}, {1: 0.5}))
        for ctx, w, bad in [((-1,), 3, -1), ((6,), 0, 6), ((3,), 99, 99), ((3,), 7, 7)]:
            with pytest.raises(ParameterError, match=r"word id %d out of range \[0, 6\)" % bad):
                level.prob(ctx, w)

    def test_ml_pair_prob_is_zero_for_ids_out_of_range(self):
        # (3, 7) and (5, -1) have the int keys of the stored (4, 1) and (4, 5).
        counts = NgramCounts(6, 2, (1,))
        counts.bigrams = count_table({(4, 1): 1, (4, 5): 1, (3, 4): 1})
        ml = sm.MLBigram.from_counts(counts)
        assert (ml.pair_prob(4, 1), ml.pair_prob(4, 5)) == (0.5, 0.5)
        outside = [(3, 7), (5, -1), (-1, 3), (6, 0), (0, 6)]
        for w1, w2 in outside:
            assert ml.pair_prob(w1, w2) == 0.0
            assert ml.prob((w1,), w2) == 0.0
        assert ml.probs(np.array([(4, 1), *outside, (4, 5)])).tolist() == [0.5] + [0.0] * 5 + [0.5]

    def test_rows_sum_to_one(self):
        rng = random.Random(63)
        vocab, train = random_corpus(rng, 5, 10)
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        base = mm.AggregateModel.random_init(8, 2, seed=5)
        rng2 = random.Random(0)
        params = sm.MixedSmoothingParams(
            {(1, w): rng2.random() for w in range(8)}, {1: rng2.random()}
        )
        level = sm.InterpolatedBigram(ml, base, params)
        for w1 in range(8):
            total = sum(level.prob((w1,), w2) for w2 in range(8))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestSmoothedMixedLevel:
    def _random_level(self, rng, V=6, m=2, full_rows=True):
        rng_np = np.random.default_rng(rng.randrange(1 << 30))
        lambdas = rng_np.uniform(0.05, 0.95, size=(V, m))
        lambdas[:, m - 1] = 1.0
        matrices = []
        for _ in range(m):
            rows = {}
            words = range(V) if full_rows else range(V - 1)
            for w1 in words:
                support = rng_np.choice(V, size=rng_np.integers(2, V), replace=False)
                vals = rng_np.uniform(0.1, 1.0, size=len(support))
                vals /= vals.sum()
                rows[w1] = {int(w): float(v) for w, v in zip(support, vals)}
            matrices.append(rows)
        model = mixed_model(lambdas, matrices)
        values = {
            (k + 1, w): float(rng_np.uniform(0, 1)) for k in range(m) for w in range(V)
        }
        fallbacks = {k + 1: float(rng_np.uniform(0, 1)) for k in range(m)}
        params = mm.MixedSmoothingParams(values, fallbacks)
        base = mm.AggregateModel.random_init(V, 2, seed=rng.randrange(1 << 30))
        counts = NgramCounts(V, 2, (1,))
        counts.bigrams = count_table(
            {(w1, w2): rng.randrange(1, 4) for w1 in range(V) for w2 in range(3, V)}
        )
        ml = sm.MLBigram.from_counts(counts)
        iparams = sm.MixedSmoothingParams({(1, w): rng.random() for w in range(V)}, {1: 0.3})
        level1 = sm.InterpolatedBigram(ml, base, iparams)
        return sm.SmoothedMixedLevel(model, params, level1), model, params, level1

    def test_zero_discount_equals_raw_mixture(self):
        rng = random.Random(64)
        _, model, params, level1 = self._random_level(rng)
        params.values = {k: 0.0 for k in params.values}
        params.fallbacks = {k: 0.0 for k in params.fallbacks}
        level = sm.SmoothedMixedLevel(model, params, level1)  # reads the weights when built
        for ctx in [(3, 4), (0, 5), (2, 2)]:
            for w in range(6):
                assert level.prob(ctx, w) == pytest.approx(
                    model.prob(ctx, w), abs=1e-12
                )

    def test_full_discount_equals_lower_level(self):
        rng = random.Random(65)
        _, model, params, level1 = self._random_level(rng)
        params.values = {k: 1.0 for k in params.values}
        params.fallbacks = {k: 1.0 for k in params.fallbacks}
        level = sm.SmoothedMixedLevel(model, params, level1)  # reads the weights when built
        for ctx in [(3, 4), (0, 5), (2, 2)]:
            for w in range(6):
                assert level.prob(ctx, w) == pytest.approx(
                    level1.prob(ctx[1:], w), abs=1e-12
                )

    def test_normalizes_over_vocab(self):
        rng = random.Random(66)
        for _ in range(5):
            level, _, _, _ = self._random_level(rng)
            for ctx in [(u, v) for u in range(6) for v in range(6)]:
                total = sum(level.prob(ctx, w) for w in range(6))
                assert total == pytest.approx(1.0, abs=1e-8)

    def test_absent_rows_delegate(self):
        rng = random.Random(67)
        level, model, params, level1 = self._random_level(rng, full_rows=False)
        # Word V-1 = 5 has no rows at any distance: both components delegate.
        for w in range(6):
            assert level.prob((5, 5), w) == pytest.approx(
                level1.prob((5,), w), abs=1e-12
            )
        total = sum(level.prob((5, 5), w) for w in range(6))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mass_conservation_identity(self):
        # Discounted direct weights plus the leftover mass always rebuild
        # the full mixture weight, for any discounts and mixing weights.
        rng = random.Random(68)
        for _ in range(1000):
            m = rng.randrange(1, 6)
            lams = [rng.random() for _ in range(m - 1)] + [1.0]
            sigmas = [rng.random() for _ in range(m)]
            direct = 0.0
            leftover = 0.0
            declined = 1.0
            for k in range(m):
                weight = declined * lams[k]
                direct += (1.0 - sigmas[k]) * weight
                leftover += sigmas[k] * weight
                declined *= 1.0 - lams[k]
            assert direct + leftover == pytest.approx(1.0, abs=1e-12)

    def test_ids_range_checked(self):
        # Without the check a negative context id wraps to the last row and
        # one of V or more ends in an IndexError.
        level, _, _, _ = self._random_level(random.Random(70))
        with pytest.raises(ParameterError, match=r"word id -1 out of range \[0, 6\)"):
            level.prob((-1, 3), 2)
        with pytest.raises(ParameterError, match=r"word id 6 out of range \[0, 6\)"):
            level.prob((3, 6), 2)
        with pytest.raises(ParameterError, match=r"word id -1 out of range \[0, 6\)"):
            level.prob((3, 4), -1)

    def test_strict_positivity_with_positive_base(self):
        rng = random.Random(69)
        level, _, _, _ = self._random_level(rng)
        for ctx in [(u, v) for u in range(6) for v in range(6)]:
            for w in range(3, 6):
                assert level.prob(ctx, w) > 0.0


class TestFitMixedSmoothing:
    def _fit_setup(self, rng):
        vocab, train = random_corpus(rng, 5, 25)
        _, valid = random_corpus(rng, 5, 10)
        counts = count_ngrams(train, vocab, max_order=2, skips=(1, 2))
        model, _ = mm.train_mixed(train, 2, 8, iterations=2)
        base = mm.AggregateModel.random_init(8, 2, seed=7)
        ml = sm.MLBigram.from_counts(counts)
        iparams = sm.fit_interpolation(ml, base, valid)
        level1 = sm.InterpolatedBigram(ml, base, iparams)
        return model, level1, valid

    def test_deterministic(self):
        rng = random.Random(70)
        model, level1, valid = self._fit_setup(rng)
        a = sm.fit_mixed_smoothing(model, level1, valid)
        b = sm.fit_mixed_smoothing(model, level1, valid)
        assert a.values == b.values
        assert a.fallbacks == b.fallbacks

    def test_zero_level_mass_pushes_sigma_to_one(self):
        # Validation whose events the mixture cannot predict at all.
        train = [[3, 4]]
        model, _ = mm.train_mixed(train, 2, 7, iterations=1)
        base = mm.AggregateModel.random_init(7, 1, seed=8)
        counts = count_ngrams(train, make_vocab(*"abcd"), max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        level1 = sm.InterpolatedBigram(ml, base, sm.MixedSmoothingParams({}, {1: 0.5}))
        params = sm.fit_mixed_smoothing(model, level1, [[5, 6, 5]])
        assert sigma_for(params, 1, 5) == pytest.approx(1.0, abs=1e-9)
        assert sigma_for(params, 2, 5) == pytest.approx(1.0, abs=1e-9)

    def test_fitted_point_is_coordinatewise_optimal(self):
        # At the EM stopping point every interior coordinate should be at
        # its conditional optimum; boundary optima may legitimately stop
        # short of the endpoint under the iteration cap, so they are skipped.
        rng = random.Random(71)
        model, level1, valid = self._fit_setup(rng)
        params = sm.fit_mixed_smoothing(model, level1, valid)
        level = sm.SmoothedMixedLevel(model, params, level1)
        fitted_ll = ev.evaluate(level, valid).log_likelihood

        def conditional_ll(kw, s):
            # A level reads its weights when it is built.
            probe = sm.MixedSmoothingParams({**params.values, kw: float(s)}, params.fallbacks)
            return ev.evaluate(sm.SmoothedMixedLevel(model, probe, level1), valid).log_likelihood

        probed = 0
        for kw in list(params.values):
            if probed >= 6 or params.values[kw] in (0.0, 1.0):
                continue
            grid = [(conditional_ll(kw, s), s) for s in np.linspace(0.0, 1.0, 101)]
            best_ll, best_s = max(grid)
            if best_s in (0.0, 1.0):
                continue
            probed += 1
            assert fitted_ll >= best_ll - 1e-6 * abs(best_ll)
        assert probed > 0

    def test_well_predicted_rows_keep_sigma_low(self):
        # Validation identical to training: the mixture explains it well.
        rng = random.Random(72)
        vocab, train = random_corpus(rng, 4, 30, max_len=5)
        model, _ = mm.train_mixed(train, 2, 7, iterations=3)
        base = mm.AggregateModel.random_init(7, 1, seed=9)
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        ml = sm.MLBigram.from_counts(counts)
        level1 = sm.InterpolatedBigram(ml, base, sm.fit_interpolation(ml, base, train))
        params = sm.fit_mixed_smoothing(model, level1, train)
        fitted = [v for v in params.values.values() if v not in (1.0,)]
        assert sum(fitted) / len(fitted) < 0.5


class TestGoodTuring:
    def _table_with_counts_of_counts(self, spec):
        table = Counter()
        key = 0
        for r, n_r in spec.items():
            for _ in range(n_r):
                table[("t", key, 0)] = r
                key += 1
        return table

    def test_discount_formula(self):
        spec = {1: 100, 2: 50, 3: 20, 4: 10, 5: 5, 6: 2}
        table = self._table_with_counts_of_counts(spec)
        discounts = sm.good_turing_discounts(table, k_gt=5)
        big_a = 6 * spec[6] / spec[1]
        for r in range(1, 6):
            r_star = (r + 1) * spec[r + 1] / spec[r]
            expected = (r_star / r - big_a) / (1 - big_a)
            assert discounts[r] == pytest.approx(expected, abs=1e-12)
            assert 0 < discounts[r] <= 1

    def test_adjusted_count_arithmetic(self):
        # n_1 = 100, n_2 = 50 makes the adjusted count for r=1 exactly 1.0,
        # so d_1 = (1 - A) / (1 - A) = 1 at the boundary of the valid range.
        spec = {1: 100, 2: 50, 3: 25, 4: 12, 5: 6, 6: 3}
        table = self._table_with_counts_of_counts(spec)
        discounts = sm.good_turing_discounts(table, k_gt=5)
        assert discounts[1] == pytest.approx(1.0, abs=1e-12)

    def test_all_mass_above_threshold(self):
        table = Counter({("t", i, 0): 10 + i for i in range(6)})
        with pytest.warns(UserWarning):
            discounts = sm.good_turing_discounts(table, k_gt=5)
        assert all(d == 1.0 for d in discounts.values())

    def test_missing_count_of_counts_falls_back(self):
        spec = {1: 10, 3: 4, 4: 2, 5: 1, 6: 1}
        table = self._table_with_counts_of_counts(spec)
        with pytest.warns(UserWarning):
            discounts = sm.good_turing_discounts(table, k_gt=5)
        assert discounts[1] == 1.0  # n_2 = 0
        assert discounts[2] == 1.0  # n_2 = 0

    def test_empty_table(self):
        with pytest.raises(DataError):
            sm.good_turing_discounts(Counter(), k_gt=5)

    def test_file_round_trip(self, tmp_path):
        discounts = {1: 0.25, 2: 0.5, 3: 1.0}
        path = tmp_path / "gt.txt"
        sm.save_discounts(path, discounts)
        assert sm.load_discounts(path) == discounts
        assert path.read_text(encoding="utf-8").splitlines()[0] == "GT v1"


def katz_fixture(rng, n_words=5, n_sentences=40):
    vocab, train = random_corpus(rng, n_words, n_sentences, max_len=6)
    counts = count_ngrams(train, vocab, max_order=3, skips=(1, 2))
    bigram = sm.KatzBigram(counts, k_gt=3)
    trigram = sm.build_katz_trigram(counts, bigram, k_gt=3)
    return vocab, counts, bigram, trigram


def stored_rows(trigram):
    """{(u, v): [w, ...]} of a Katz trigram's stored trigrams, sorted."""
    rows = {}
    for key in trigram.level.keys.tolist():
        uv, w = divmod(key, trigram.vocab_size)
        rows.setdefault(divmod(uv, trigram.vocab_size), []).append(w)
    return rows


class TestKatzBackoff:
    def test_high_count_trigram_is_exact_ml(self):
        counts = NgramCounts(6, 3, (1,))
        counts.trigrams = count_table({(3, 4, 5): 9, (3, 4, 3): 3})
        counts.bigrams = count_table({(3, 4): 12, (4, 5): 9, (4, 3): 3})
        counts.unigrams = count_table({3: 6, 4: 6, 5: 9})
        counts.total = 21
        trigram = sm.build_katz_trigram(counts, sm.KatzBigram(counts, k_gt=2), k_gt=2)
        p, backed = trigram.prob_and_backoff((3, 4), 5)
        assert not backed
        assert p == pytest.approx(9 / 12, abs=1e-12)

    def test_unseen_context_delegates_fully(self):
        rng = random.Random(80)
        _, counts, bigram, trigram = katz_fixture(rng)
        V = counts.vocab_size
        ctx = next(
            (u, v)
            for u in range(V)
            for v in range(V)
            if (u, v) not in stored_rows(trigram)
        )
        for w in range(V):
            p, backed = trigram.prob_and_backoff(ctx, w)
            assert backed
            assert p == pytest.approx(bigram.prob((ctx[1],), w), abs=1e-15)

    def test_discounting_never_raises_seen_probability(self):
        rng = random.Random(81)
        _, counts, _, trigram = katz_fixture(rng)
        totals = Counter()
        for (u, v, _), n in counts.trigrams.items():
            totals[(u, v)] += n
        for (u, v, w), n in counts.trigrams.items():
            assert trigram.prob((u, v), w) <= n / totals[(u, v)] + 1e-12

    def test_rows_sum_to_one(self):
        rng = random.Random(82)
        vocab, counts, bigram, trigram = katz_fixture(rng, n_words=5, n_sentences=60)
        V = counts.vocab_size
        for v in range(V):
            total = sum(bigram.prob((v,), w) for w in range(V))
            assert total == pytest.approx(1.0, abs=1e-8)
        contexts = list(stored_rows(trigram))[:30] + [(5, 7), (0, 3)]
        for ctx in contexts:
            total = sum(trigram.prob(ctx, w) for w in range(V))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_mixed_variant_rows_sum_to_one_and_stay_positive(self):
        rng = random.Random(83)
        vocab, train = random_corpus(rng, 5, 60, max_len=6)
        _, valid = random_corpus(rng, 5, 15, max_len=6)
        counts = count_ngrams(train, vocab, max_order=3, skips=(1, 2))
        base = mm.AggregateModel.random_init(8, 2, seed=11)
        mixed2, _ = mm.train_mixed(train, 2, 8, iterations=2)
        cascade = mm.SmoothedCascade.fit(counts, base, [mixed2], valid)
        trigram = sm.build_katz_trigram(counts, cascade.top, k_gt=3)
        rows = stored_rows(trigram)
        for ctx in list(rows)[:20] + [(6, 7)]:
            total = sum(trigram.prob(ctx, w) for w in range(8))
            assert total == pytest.approx(1.0, abs=1e-8)
            # Unseen successors of a context with leftover mass stay positive.
            unseen = [w for w in range(3, 8) if w not in rows.get(ctx, [])]
            leftover = 1.0 - sum(trigram.prob(ctx, w) for w in rows.get(ctx, []))
            if leftover > 1e-12:
                for w in unseen:
                    assert trigram.prob(ctx, w) > 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: Katz rows of counts made in memory are summed in "
        "first-occurrence order, those of loaded counts in sorted order",
    )
    @pytest.mark.filterwarnings("ignore::UserWarning")  # sparse Good-Turing statistics
    def test_counts_from_memory_and_from_a_file_give_the_same_katz_model(self, tmp_path):
        # The smallest desk-seed corpus whose Katz bigram alphas differ.
        lines = generate_lines(101, 9)
        vocab = mm.build_vocabulary(lines, 200)
        counts = count_ngrams(mm.tokenize_corpus(lines, vocab), vocab, max_order=3, skips=(1,))
        counts.save(tmp_path / "counts.txt")
        models = []
        for source in (counts, NgramCounts.load(tmp_path / "counts.txt")):
            bigram = sm.KatzBigram(source)
            trigram = sm.build_katz_trigram(source, bigram)
            models.append([(m.level.alphas, m.level.seen) for m in (bigram, trigram)])
        assert models[0] == models[1]

    @pytest.mark.filterwarnings("ignore::UserWarning")  # sparse Good-Turing statistics
    def test_counters_give_the_levels_of_sorted_count_tables(self):
        rng = random.Random(91)
        _, counts, bigram, _ = katz_fixture(rng)
        # Counters in reverse key order, against the tables as a file holds them.
        counter = lambda table: Counter(dict(reversed(table.items())))
        as_loaded = lambda table: CountTable(table.ids, table.n)
        katz = [
            sm.KatzTrigram(trigrams, bigram, counts.vocab_size, k_gt=3)
            for trigrams in (counter(counts.trigrams), as_loaded(counts.trigrams))
        ]
        assert katz[0].level.seen == katz[1].level.seen
        assert katz[0].level.alphas == katz[1].level.alphas
        bigrams = (counter(counts.bigrams), counts.bigrams)
        ml = [sm.MLBigram(table, counts.vocab_size) for table in bigrams]
        assert ml[0].pairs == ml[1].pairs
        unigram = sm.MLUnigram(counter(counts.unigrams), counts.total)
        assert unigram.words == sm.MLUnigram.from_counts(counts).words
        tables = (counter(counts.trigrams), counts.trigrams)
        assert sm.good_turing_discounts(tables[0], 3) == sm.good_turing_discounts(tables[1], 3)

    def test_backoff_context_size_checked(self):
        rng = random.Random(84)
        _, counts, _, _ = katz_fixture(rng)

        class Wide:
            context_size = 3

            def prob(self, context, word):
                return 0.1

        with pytest.raises(ParameterError):
            sm.KatzTrigram(counts.trigrams, Wide(), counts.vocab_size)

    def test_word_id_range_checked(self):
        rng = random.Random(90)
        _, counts, _, trigram = katz_fixture(rng)
        with pytest.raises(ParameterError):
            trigram.prob((0, 3), counts.vocab_size)
        with pytest.raises(ParameterError):
            trigram.prob((0, counts.vocab_size + 5), 3)

    def test_ids_outside_the_vocabulary_rejected(self):
        # (0, 1, 12) would fold to the key of (0, 2, 2) with V = 10, and a
        # backoff that does not check ids would not catch it.
        class Uniform:
            context_size = 1

            def prob(self, context, word):
                return 0.1

        trigrams = Counter({(0, 1, 12): 3, (0, 1, 3): 1, (0, 2, 2): 1, (4, 5, 6): 2})
        with pytest.raises(ParameterError, match=r"word ids must lie in \[0, 10\)"):
            sm.KatzTrigram(trigrams, Uniform(), vocab_size=10, discounts={})

    def test_vocabulary_too_large_for_int64_keys_rejected(self):
        # The level keys trigrams by (u * V + v) * V + w, which would wrap.
        bigram = sm.KatzBigram(count_ngrams([[3, 4, 3]], range(5), 3, (1,)), discounts={})
        with pytest.raises(ParameterError, match="too large for int64 keys"):
            sm.KatzTrigram(count_table({(3, 4, 3): 1}), bigram, 2**21, discounts={})


class TestTruncation:
    def test_threshold_validated(self):
        counts = NgramCounts(4, 3, (1,))
        for threshold in (0, -3):
            with pytest.raises(ParameterError, match="truncation threshold"):
                sm.build_katz_trigram(counts, None, truncation=threshold)

    def test_truncated_katz_keeps_survivor_estimates(self):
        # Dropping rare trigrams must not inflate the survivors: their
        # probabilities keep the full-table normalizer.
        rng = random.Random(87)
        _, counts, bigram, trigram_full = katz_fixture(rng, n_sentences=60)
        trigram_cut = sm.build_katz_trigram(counts, bigram, k_gt=3, truncation=2)
        # Contexts with alpha 0 may have reverted to ML over their survivors.
        V = counts.vocab_size
        survivors = [
            ((u, v, w), n)
            for (u, v, w), n in counts.trigrams.items()
            if n >= 2 and all(t.level.alphas[u * V + v] for t in (trigram_cut, trigram_full))
        ]
        assert survivors
        for (u, v, w), n in survivors[:40]:
            assert trigram_cut.prob((u, v), w) == pytest.approx(
                trigram_full.prob((u, v), w), abs=1e-12
            )
        for ctx in list(stored_rows(trigram_cut))[:15]:
            total = sum(trigram_cut.prob(ctx, w) for w in range(V))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_survivors_with_no_backoff_mass_left_revert_to_ml(self):
        # The backoff puts all its mass on 3 and 4, the survivors of context
        # (3, 4) at t=2, so that row reverts to ML over the survivors alone.
        class TwoWords:
            context_size = 1

            def prob(self, context, word):
                return 0.5 if word in (3, 4) else 0.0

        counts = NgramCounts(6, 3, (1,))
        counts.trigrams = count_table({(3, 4, 3): 2, (3, 4, 4): 3, (3, 4, 5): 1})
        trigram = sm.build_katz_trigram(counts, TwoWords(), truncation=2, discounts={})
        assert [trigram.prob((3, 4), w) for w in (3, 4, 5)] == [2 / 5, 3 / 5, 0.0]


class TestCascadeAssembly:
    def test_fit_orders_validated(self):
        rng = random.Random(88)
        vocab, train = random_corpus(rng, 4, 15)
        counts = count_ngrams(train, vocab, max_order=2, skips=(1, 2, 3))
        base = mm.AggregateModel.random_init(7, 2, seed=12)
        m3, _ = mm.train_mixed(train, 3, 7, iterations=1)
        with pytest.raises(ParameterError):
            mm.SmoothedCascade.fit(counts, base, [m3], train)

    def test_manifest_round_trip(self, tmp_path):
        rng = random.Random(89)
        vocab, train = random_corpus(rng, 5, 40)
        _, valid = random_corpus(rng, 5, 10)
        counts = count_ngrams(train, vocab, max_order=3, skips=(1, 2))
        base, _ = mm.train_aggregate(counts, 2, iterations=4, seed=1)
        mixed2, _ = mm.train_mixed(train, 2, 8, iterations=2)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            cascade = mm.SmoothedCascade.fit(
                counts, base, [mixed2], valid, with_trigram=True, gt_threshold=3
            )

        counts_path = tmp_path / "counts.txt"
        counts.save(counts_path)
        base_path = tmp_path / "agg.txt"
        base.save(base_path)
        mixed_path = tmp_path / "mix2.txt"
        mixed2.save(mixed_path)
        manifest = tmp_path / "cascade.txt"
        cascade.save(manifest, tmp_path / "weights", counts_path, base_path, [mixed_path])
        assert sorted(os.listdir(tmp_path / "weights")) == [
            "gt_trigram.txt", "sigma_bigram.txt", "sigma_mixed2.txt"
        ]
        loaded = sm.load_cascade(manifest)
        rng2 = random.Random(1)
        for _ in range(60):
            ctx = (rng2.randrange(0, 8), rng2.randrange(0, 8))
            w = rng2.randrange(0, 8)
            assert loaded.prob(ctx, w) == pytest.approx(
                cascade.prob(ctx, w), abs=1e-12
            )

    def test_save_needs_one_model_path_per_mixed_level(self, tmp_path):
        rng = random.Random(90)
        vocab, train = random_corpus(rng, 4, 20)
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        base = mm.AggregateModel.random_init(7, 2, seed=3)
        mixed2, _ = mm.train_mixed(train, 2, 7, iterations=1)
        cascade = mm.SmoothedCascade.fit(counts, base, [mixed2], train)
        for model_paths in ([], ["mix2.txt", "mix3.txt"]):
            with pytest.raises(ParameterError, match="expected 1 mixed model paths"):
                cascade.save(tmp_path / "cascade.txt", tmp_path / "weights", "counts.txt",
                              "agg.txt", model_paths)
        assert os.listdir(tmp_path) == []

    def test_sigma_file_round_trips(self, tmp_path):
        iparams = sm.MixedSmoothingParams({(1, 3): 0.25, (1, 5): 1.0}, {1: 0.125})
        path = tmp_path / "sigma.txt"
        iparams.save(path)
        loaded = sm.MixedSmoothingParams.load(path)
        assert loaded.values == iparams.values
        assert loaded.fallbacks == iparams.fallbacks
        assert path.read_text(encoding="utf-8").splitlines()[0] == "SIGMA v1"

        mparams = mm.MixedSmoothingParams({(1, 3): 0.5, (2, 0): 0.75}, {1: 0.5, 2: 0.25})
        mpath = tmp_path / "msigma.txt"
        mparams.save(mpath)
        mloaded = mm.MixedSmoothingParams.load(mpath)
        assert mloaded.values == mparams.values
        assert mloaded.fallbacks == mparams.fallbacks
