"""Skip-k mixture model: initialization, mixture algebra, and EM updates.

The EM oracle enumerates prediction events with explicit per-component
coin-toss weights and accumulates the update sums with literal delta
functions, independent of the array implementation.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest

import markovmix as mm
from markovmix import mixedorder as mo
from markovmix.corpus import END_ID, START_ID, NgramCounts
from markovmix.errors import DataError, NumericError, ParameterError

from conftest import count_table, mixed_model, model_rows
from test_corpus import make_vocab


def random_sentences(rng, n_words=4, n_sentences=5, max_len=6):
    return [
        [rng.randrange(3, 3 + n_words) for _ in range(rng.randrange(0, max_len))]
        for _ in range(n_sentences)
    ]


def skip_counts(sentences, vocab_size, order):
    return mm.count_ngrams(sentences, range(vocab_size), 1, range(1, order + 1))


def brute_mixture_prob(model, context, word):
    """Telescoping mixture sum written out longhand."""
    m = model.order
    matrices = model_rows(model)
    total = 0.0
    for k in range(1, m + 1):
        w_ctx = context[m - k]
        weight = model.lambdas[w_ctx, k - 1]
        for j in range(1, k):
            weight *= 1.0 - model.lambdas[context[m - j], j - 1]
        total += weight * matrices[k - 1].get(w_ctx, {}).get(word, 0.0)
    return total


def brute_em_step(model, sentences):
    """One EM pass by explicit event enumeration and delta-function sums."""
    m = model.order
    V = model.vocab_size
    matrices = model_rows(model)
    lam_num = [[0.0] * m for _ in range(V)]
    lam_den = [[0.0] * m for _ in range(V)]
    mat_num = [{} for _ in range(m)]
    mat_den = [{} for _ in range(m)]
    ll = 0.0
    skipped = 0
    for s in sentences:
        padded = [START_ID] * m + list(s) + [END_ID]
        for i in range(m, len(padded)):
            w = padded[i]
            context = tuple(padded[i - m : i])
            total = brute_mixture_prob(model, context, w)
            if total == 0.0:
                skipped += 1
                continue
            ll += math.log(total)
            phis = []
            for k in range(1, m + 1):
                w_ctx = context[m - k]
                weight = model.lambdas[w_ctx, k - 1]
                for j in range(1, k):
                    weight *= 1.0 - model.lambdas[context[m - j], j - 1]
                phis.append(weight * matrices[k - 1].get(w_ctx, {}).get(w, 0.0) / total)
            for k in range(1, m + 1):
                w_ctx = context[m - k]
                lam_num[w_ctx][k - 1] += phis[k - 1]
                lam_den[w_ctx][k - 1] += sum(phis[k - 1 :])
                mat_num[k - 1][(w_ctx, w)] = mat_num[k - 1].get((w_ctx, w), 0.0) + phis[k - 1]
                mat_den[k - 1][w_ctx] = mat_den[k - 1].get(w_ctx, 0.0) + phis[k - 1]
    new_lambdas = model.lambdas.copy()
    for w in range(V):
        for k in range(m):
            if lam_den[w][k] > 0:
                new_lambdas[w, k] = lam_num[w][k] / lam_den[w][k]
    new_lambdas[:, m - 1] = 1.0
    new_matrices = []
    for k in range(m):
        rows = {}
        for w1, row in matrices[k].items():
            new_row = {}
            for w2, old in row.items():
                if mat_den[k].get(w1, 0.0) > 0:
                    new_row[w2] = mat_num[k].get((w1, w2), 0.0) / mat_den[k][w1]
                else:
                    new_row[w2] = old
            rows[w1] = new_row
        new_matrices.append(rows)
    return new_lambdas, new_matrices, ll, skipped


class TestInit:
    def test_order_one_is_ml_bigram(self):
        vocab = make_vocab("a", "b")
        sents = [[3, 4, 3], [4, 4]]
        counts = skip_counts(sents, len(vocab), 1)
        model = mm.MixedOrderModel.from_counts(counts, 1)
        row_tot = Counter()
        for (w1, _), n in counts.skips[1].items():
            row_tot[w1] += n
        for (w1, w2), n in counts.skips[1].items():
            assert model_rows(model)[0][w1][w2] == pytest.approx(n / row_tot[w1], abs=0)
        assert np.all(model.lambdas == 1.0)

    def test_rows_ml_normalized(self):
        counts = NgramCounts(6, 1, (1, 2))
        counts.skips = {1: count_table({(3, 4): 1, (3, 5): 1}), 2: count_table({(3, 4): 2})}
        model = mm.MixedOrderModel.from_counts(counts, 2)
        assert model_rows(model)[0][3] == {4: 0.5, 5: 0.5}

    def test_lambda_ladder(self):
        counts = skip_counts([[3, 4, 5]], 6, 3)
        model = mm.MixedOrderModel.from_counts(counts, 3)
        assert model.lambdas[0].tolist() == [
            pytest.approx(1 / 3),
            pytest.approx(1 / 2),
            1.0,
        ]

    def test_missing_skip_table_rejected(self):
        counts = skip_counts([[3, 4]], 5, 1)
        with pytest.raises(ParameterError, match="skip"):
            mm.MixedOrderModel.from_counts(counts, 2)

    def test_component_cap(self):
        counts = skip_counts([[3]], 4, 1)
        with pytest.raises(ParameterError):
            mm.MixedOrderModel.from_counts(counts, 9)


class TestMixtureProb:
    def test_certain_first_coin_ignores_older_context(self):
        lambdas = np.array([[1.0, 1.0]] * 5)
        mats = [{3: {4: 0.4, 0: 0.6}}, {2: {4: 0.9, 0: 0.1}}]
        model = mixed_model(lambdas, mats)
        assert model.prob((2, 3), 4) == pytest.approx(0.4, abs=0)
        assert model.prob((0, 3), 4) == pytest.approx(0.4, abs=0)

    def test_hand_computed_two_component_mixture(self):
        # lambda_1 = 0.25 at the previous word, skip-1 gives 0.4, skip-2
        # gives 0.8: 0.25 * 0.4 + 0.75 * 0.8 = 0.7.
        lambdas = np.full((6, 2), 1.0)
        lambdas[3, 0] = 0.25
        mats = [{3: {4: 0.4}}, {5: {4: 0.8}}]
        model = mixed_model(lambdas, mats)
        assert model.prob((5, 3), 4) == pytest.approx(0.7, abs=1e-15)

    def test_normalizes_when_rows_exist(self):
        rng = random.Random(31)
        sents = random_sentences(rng, n_words=4, n_sentences=8)
        model = mm.MixedOrderModel.from_counts(skip_counts(sents, 7, 2), 2)
        for ctx in [(START_ID, START_ID), (START_ID, 3)]:
            total = sum(model.prob(ctx, w) for w in range(7))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_brute_force(self):
        rng = random.Random(32)
        sents = random_sentences(rng, n_words=4, n_sentences=8)
        model = mm.MixedOrderModel.from_counts(skip_counts(sents, 7, 3), 3)
        rng2 = random.Random(1)
        for _ in range(50):
            ctx = tuple(rng2.randrange(0, 7) for _ in range(3))
            w = rng2.randrange(0, 7)
            assert model.prob(ctx, w) == pytest.approx(
                brute_mixture_prob(model, ctx, w), abs=1e-15
            )

    def test_context_length_checked(self):
        counts = skip_counts([[3, 4]], 5, 2)
        model = mm.MixedOrderModel.from_counts(counts, 2)
        with pytest.raises(ParameterError):
            model.prob((3,), 4)

    def test_ids_range_checked(self):
        model = mm.MixedOrderModel.from_counts(skip_counts([[3, 4]], 5, 2), 2)
        with pytest.raises(ParameterError, match=r"word id -1 out of range \[0, 5\)"):
            model.prob((-1, 3), 4)
        with pytest.raises(ParameterError, match=r"word id 5 out of range \[0, 5\)"):
            model.prob((3, 5), 4)
        # A bad word id would score 0.0 through row.get.
        with pytest.raises(ParameterError, match=r"word id 99 out of range \[0, 5\)"):
            model.prob((3, 4), 99)

    def test_convex_weights_sum_to_one(self):
        rng = random.Random(33)
        for _ in range(100):
            m = rng.randrange(1, 5)
            lams = [rng.random() for _ in range(m - 1)] + [1.0]
            total = 0.0
            declined = 1.0
            for k in range(m):
                total += declined * lams[k]
                declined *= 1.0 - lams[k]
            assert total == pytest.approx(1.0, abs=1e-12)


class TestEmStep:
    def test_matches_brute_force(self):
        rng = random.Random(34)
        for trial in range(15):
            m = rng.randrange(1, 5)
            sents = random_sentences(rng, n_words=rng.randrange(2, 5), n_sentences=6)
            if not any(sents):
                sents.append([3])
            counts = skip_counts(sents, 7, m)
            model = mm.MixedOrderModel.from_counts(counts, m)
            # Perturb mixing weights so the posterior is not uniform.
            rng_np = np.random.default_rng(trial)
            model.lambdas[:, : m - 1] = rng_np.uniform(0.2, 0.9, size=(7, m - 1))
            stepped, ll, skipped = mo.em_step(model, sents)
            blam, bmats, bll, bskipped = brute_em_step(model, sents)
            assert ll == pytest.approx(bll, abs=1e-10)
            assert skipped == bskipped
            assert np.allclose(stepped.lambdas, blam, atol=1e-10)
            stepped_rows = model_rows(stepped)
            for k in range(m):
                assert stepped_rows[k].keys() == bmats[k].keys()
                for w1, row in bmats[k].items():
                    for w2, val in row.items():
                        assert stepped_rows[k][w1][w2] == pytest.approx(
                            val, abs=1e-10
                        )

    def test_posteriors_sum_to_one(self):
        rng = random.Random(35)
        sents = random_sentences(rng, n_words=4, n_sentences=5)
        model = mm.MixedOrderModel.from_counts(skip_counts(sents, 7, 4), 4)
        matrices = model_rows(model)
        for s in sents:
            padded = [START_ID] * 4 + list(s) + [END_ID]
            for i in range(4, len(padded)):
                ctx, w = tuple(padded[i - 4 : i]), padded[i]
                total = brute_mixture_prob(model, ctx, w)
                if total == 0:
                    continue
                phi_sum = 0.0
                for k in range(1, 5):
                    w_ctx = ctx[4 - k]
                    weight = model.lambdas[w_ctx, k - 1]
                    for j in range(1, k):
                        weight *= 1.0 - model.lambdas[ctx[4 - j], j - 1]
                    phi_sum += weight * matrices[k - 1].get(w_ctx, {}).get(w, 0.0) / total
                assert phi_sum == pytest.approx(1.0, abs=1e-12)

    def test_order_one_fixed_point(self):
        rng = random.Random(36)
        sents = random_sentences(rng, n_words=4, n_sentences=6)
        counts = skip_counts(sents, 7, 1)
        model = mm.MixedOrderModel.from_counts(counts, 1)
        stepped, _, skipped = mo.em_step(model, sents)
        assert skipped == 0
        assert np.all(stepped.lambdas == 1.0)
        for w1, row in model_rows(model)[0].items():
            for w2, val in row.items():
                assert model_rows(stepped)[0][w1][w2] == pytest.approx(val, abs=1e-12)

    def test_monotone_loglik(self):
        rng = random.Random(37)
        for trial in range(10):
            sents = random_sentences(rng, n_words=rng.randrange(3, 6), n_sentences=8)
            if not any(sents):
                continue
            m = rng.randrange(2, 5)
            model = mm.MixedOrderModel.from_counts(skip_counts(sents, 9, m), m)
            prev = None
            for _ in range(6):
                model, ll, _ = mo.em_step(model, sents)
                if prev is not None:
                    assert ll >= prev - 1e-9
                prev = ll

    def test_zero_entries_stay_zero(self):
        # Pairs absent from the initial counts are structurally zero and can
        # never gain probability from EM.
        train = [[3, 4], [4, 5]]
        counts = skip_counts(train, 6, 2)
        model = mm.MixedOrderModel.from_counts(counts, 2)
        for _ in range(3):
            model, _, _ = mo.em_step(model, train)
        # Neither (4, 3) at skip-1 nor (3, 3) at skip-2 was ever counted.
        assert model.prob((3, 4), 3) == 0.0
        rows = model_rows(model)
        assert 3 not in rows[0].get(4, {})
        assert 3 not in rows[1].get(3, {})

    def test_sentence_order_invariance(self):
        rng = random.Random(38)
        sents = random_sentences(rng, n_words=5, n_sentences=10)
        model = mm.MixedOrderModel.from_counts(skip_counts(sents, 8, 3), 3)
        a, ll_a, _ = mo.em_step(model, sents)
        shuffled = list(sents)
        random.Random(99).shuffle(shuffled)
        b, ll_b, _ = mo.em_step(model, shuffled)
        assert ll_a == pytest.approx(ll_b, abs=1e-12)
        assert np.allclose(a.lambdas, b.lambdas, atol=1e-12)
        a_rows, b_rows = model_rows(a), model_rows(b)
        for k in range(3):
            for w1, row in a_rows[k].items():
                for w2, val in row.items():
                    assert b_rows[k][w1][w2] == pytest.approx(val, abs=1e-12)

    def test_empty_corpus_rejected(self):
        counts = skip_counts([[3]], 5, 1)
        model = mm.MixedOrderModel.from_counts(counts, 1)
        with pytest.raises(DataError):
            mo.em_step(model, [])

    def test_all_zero_mass_rejected(self):
        counts = skip_counts([[3, 4]], 6, 1)
        model = mm.MixedOrderModel.from_counts(counts, 1)
        with pytest.raises(NumericError, match="zero mass"):
            mo.em_step(model, [[5, 5]])


class TestTrain:
    def test_order_one_matches_ml_bigram_oracle(self):
        rng = random.Random(39)
        sents = random_sentences(rng, n_words=5, n_sentences=10)
        _, trace = mm.train_mixed(sents, 1, 8, iterations=1)
        counts = skip_counts(sents, 8, 1)
        row_tot = Counter()
        for (w1, _), n in counts.skips[1].items():
            row_tot[w1] += n
        ll = sum(
            n * math.log(n / row_tot[w1]) for (w1, _), n in counts.skips[1].items()
        )
        assert trace.perplexities[-1] == pytest.approx(
            math.exp(-ll / counts.total), rel=1e-9
        )

    def test_deterministic(self):
        rng = random.Random(40)
        sents = random_sentences(rng, n_words=4, n_sentences=8)
        a, ta = mm.train_mixed(sents, 2, 7, iterations=4)
        b, tb = mm.train_mixed(sents, 2, 7, iterations=4)
        assert np.array_equal(a.lambdas, b.lambdas)
        assert model_rows(a) == model_rows(b)
        assert ta.log_likelihoods == tb.log_likelihoods

    def test_training_perplexity_non_increasing(self):
        rng = random.Random(41)
        sents = random_sentences(rng, n_words=6, n_sentences=12)
        _, trace = mm.train_mixed(sents, 3, 9, iterations=4)
        for a, b in zip(trace.perplexities, trace.perplexities[1:]):
            assert b <= a * (1 + 1e-9)


class TestMissingFraction:
    def test_training_corpus_fully_covered(self):
        rng = random.Random(42)
        sents = random_sentences(rng, n_words=4, n_sentences=6)
        model, _ = mm.train_mixed(sents, 2, 7, iterations=2)
        assert mm.evaluate(model, sents).missing_fraction == 0.0

    def test_unseen_events_counted(self):
        model, _ = mm.train_mixed([[3, 4]], 1, 6, iterations=1)
        # Sentence [5, 5]: events (3->5), (5->5), (5->end) all unseen, so
        # none can be scored.
        with pytest.raises(NumericError):
            mm.evaluate(model, [[5, 5]])
        # Mixed corpus: [3, 4] contributes 3 covered events.
        assert mm.evaluate(model, [[3, 4], [5, 5]]).missing_fraction == pytest.approx(0.5)


class TestLambdaReport:
    def _model_with_lambda1(self, values):
        lambdas = np.ones((len(values), 2))
        lambdas[:, 0] = values
        mats = [{w: {w: 1.0} for w in range(len(values))} for _ in range(2)]
        return mixed_model(lambdas, mats)

    def test_low_and_high_membership(self):
        lam1 = [0.5] * 8
        lam1[3], lam1[4] = 0.1, 0.99  # "a" low, "an" high
        model = self._model_with_lambda1(lam1)
        unigrams = Counter({w: 10 for w in range(3, 8)})
        low, high = mm.lambda_report(model, 5, unigrams, list_size=2)
        assert low[0] == (3, pytest.approx(0.1))
        assert high[0] == (4, pytest.approx(0.99))

    def test_tie_break_ascending_id(self):
        model = self._model_with_lambda1([0.5] * 8)
        unigrams = Counter({w: 7 for w in range(3, 8)})
        low, high = mm.lambda_report(model, 5, unigrams, list_size=3)
        assert [w for w, _ in low] == [3, 4, 5]
        assert [w for w, _ in high] == [3, 4, 5]

    def test_top_n_zero(self):
        model = self._model_with_lambda1([0.5] * 4)
        assert mm.lambda_report(model, 0, Counter({3: 1})) == ([], [])

    def test_requires_two_components(self):
        counts = skip_counts([[3, 4]], 5, 1)
        model = mm.MixedOrderModel.from_counts(counts, 1)
        with pytest.raises(ParameterError):
            mm.lambda_report(model, 5, Counter({3: 1}))


class TestModelFile:
    def test_round_trip(self, tmp_path):
        rng = random.Random(43)
        sents = random_sentences(rng, n_words=5, n_sentences=8)
        model, _ = mm.train_mixed(sents, 3, 8, iterations=2)
        path = tmp_path / "mix.txt"
        model.save(path)
        loaded = mm.MixedOrderModel.load(path)
        assert np.array_equal(loaded.lambdas, model.lambdas)
        assert model_rows(loaded) == model_rows(model)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "MIX-MODEL v1 V=8 m=3"
