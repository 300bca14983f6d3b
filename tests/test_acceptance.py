"""Acceptance suite: limit-case equivalences, oracle checks, and desk-corpus
directional reproductions, one test per criterion.

Each test prints a single PASS line (visible with `pytest -s`); a failing
criterion fails its test.  Criteria 6-10 run against the session desk corpus
and the shared trained models from conftest.
"""

import math
import random
import time
import warnings
from collections import Counter

import numpy as np
import pytest

import markovmix as mm
from markovmix import aggregate as ag
from markovmix import evaluation as ev
from markovmix import mixedorder as mo
from markovmix import smoothing as sm
from markovmix.corpus import count_ngrams

from conftest import mixed_model, model_rows
from test_aggregate import brute_em_step as brute_agg_step
from test_aggregate import brute_posteriors, random_counts
from test_cli import run as cli_run
from test_mixedorder import brute_em_step as brute_mixed_step
from test_mixedorder import random_sentences, skip_counts
from test_smoothing import random_corpus


def ok(n, text):
    print("ACCEPT %02d %s: PASS" % (n, text))


def ml_unigram_perplexity(counts):
    ll = sum(n * math.log(n / counts.total) for n in counts.unigrams.values())
    return math.exp(-ll / counts.total)


def ml_bigram_perplexity(counts):
    rows = Counter()
    for (w1, _), n in counts.bigrams.items():
        rows[w1] += n
    ll = sum(n * math.log(n / rows[w1]) for (w1, _), n in counts.bigrams.items())
    return math.exp(-ll / sum(counts.bigrams.values()))


class TestCriterion01LimitCasesAggregate:
    def test_unigram_and_bigram_limits_within_time_budget(self, desk):
        start = time.monotonic()
        _, trace1 = mm.train_aggregate(desk.counts, 1, iterations=32, seed=0)
        ident = mm.AggregateModel.identity_init(desk.counts.vocab_size)
        _, trace_v = mm.train_aggregate(
            desk.counts, desk.counts.vocab_size, iterations=1, initial=ident
        )
        elapsed = time.monotonic() - start

        uni = ml_unigram_perplexity(desk.counts)
        assert abs(trace1.perplexities[-1] - uni) / uni < 1e-6
        bi = ml_bigram_perplexity(desk.counts)
        assert abs(trace_v.perplexities[-1] - bi) / bi < 1e-6
        assert elapsed < 60.0
        ok(1, "C=1 unigram / C=V bigram limits in %.1fs" % elapsed)


class TestCriterion02LimitCaseMixed:
    def test_order_one_equals_ml_bigram_after_one_step(self, desk):
        _, trace = mm.train_mixed(desk.train, 1, len(desk.vocab), iterations=1)
        bi = ml_bigram_perplexity(desk.counts)
        assert abs(trace.perplexities[-1] - bi) / bi < 1e-9
        ok(2, "m=1 equals ML bigram after one EM step")


class TestCriterion03EmMonotonicity:
    def test_aggregate_full_runs(self):
        rng = random.Random(1000)
        for trial in range(100):
            counts, _, _ = random_counts(
                rng, n_words=rng.randrange(2, 18), n_sentences=rng.randrange(2, 9)
            )
            n_classes = rng.randrange(1, 5)
            _, trace = mm.train_aggregate(counts, n_classes, iterations=32, seed=trial)
            lls = trace.log_likelihoods
            assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
        ok(3, "aggregate EM log-likelihood non-decreasing (100 instances, 32 iters)")

    def test_mixed_full_runs(self):
        rng = random.Random(2000)
        for trial in range(100):
            sents = random_sentences(
                rng, n_words=rng.randrange(2, 18), n_sentences=rng.randrange(2, 9)
            )
            if not any(sents):
                sents.append([3])
            order = rng.randrange(1, 5)
            _, trace = mm.train_mixed(sents, order, 21, iterations=4)
            lls = trace.log_likelihoods
            assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
        ok(3, "mixed-order EM log-likelihood non-decreasing (100 instances, 4 iters)")


class TestCriterion04OracleEquivalence:
    def test_aggregate_posteriors_and_updates(self):
        rng = random.Random(3000)
        for trial in range(20):
            counts, _, _ = random_counts(rng, n_words=rng.randrange(2, 3))
            model = mm.AggregateModel.random_init(
                counts.vocab_size, rng.randrange(1, 4), seed=trial
            )
            cgw = model.class_given_word.tolist()
            wgc = model.word_given_class.tolist()
            posts = brute_posteriors(cgw, wgc, counts.bigrams)
            for p in posts.values():
                assert abs(sum(p) - 1.0) < 1e-10
            stepped, ll = ag.em_step(model, counts)
            bcgw, bwgc, bll = brute_agg_step(cgw, wgc, counts.bigrams)
            assert abs(ll - bll) < 1e-10
            assert np.abs(stepped.class_given_word - np.array(bcgw)).max() < 1e-10
            assert np.abs(stepped.word_given_class - np.array(bwgc)).max() < 1e-10
        ok(4, "aggregate posteriors and updates match brute-force enumeration")

    def test_mixed_posteriors_and_updates(self):
        rng = random.Random(4000)
        for trial in range(20):
            m = rng.randrange(1, 5)
            sents = random_sentences(rng, n_words=2, n_sentences=5)
            if not any(sents):
                sents.append([3])
            model = mm.MixedOrderModel.from_counts(skip_counts(sents, 5, m), m)
            rng_np = np.random.default_rng(trial)
            if m > 1:
                model.lambdas[:, : m - 1] = rng_np.uniform(0.1, 0.9, size=(5, m - 1))
            stepped, ll, _ = mo.em_step(model, sents)
            blam, bmats, bll, _ = brute_mixed_step(model, sents)
            assert abs(ll - bll) < 1e-10
            assert np.abs(stepped.lambdas - blam).max() < 1e-10
            stepped_rows = model_rows(stepped)
            for k in range(m):
                for w1, row in bmats[k].items():
                    for w2, val in row.items():
                        assert abs(stepped_rows[k][w1][w2] - val) < 1e-10
        ok(4, "mixed-order posteriors and updates match coin-toss enumeration")


class TestCriterion05NormalizationSuite:
    V = 8

    def _random_mixed(self, rng_np, m):
        lambdas = rng_np.uniform(0.05, 0.95, size=(self.V, m))
        lambdas[:, m - 1] = 1.0
        matrices = []
        for _ in range(m):
            rows = {}
            for w1 in range(self.V):
                vals = rng_np.uniform(0.05, 1.0, size=self.V)
                vals /= vals.sum()
                rows[w1] = {w2: float(v) for w2, v in enumerate(vals)}
            matrices.append(rows)
        return mixed_model(lambdas, matrices)

    def test_all_exposed_distributions_normalize(self):
        rng = random.Random(5000)
        rng_np = np.random.default_rng(5000)
        V = self.V

        agg = mm.AggregateModel.random_init(V, 3, seed=1)
        for w1 in range(V):
            assert abs(sum(agg.pair_prob(w1, w2) for w2 in range(V)) - 1) < 1e-8

        mixed = self._random_mixed(rng_np, 2)
        for ctx in [(u, v) for u in range(V) for v in range(V)]:
            assert abs(sum(mixed.prob(ctx, w) for w in range(V)) - 1) < 1e-8

        vocab, train = random_corpus(rng, V - 3, 50)
        counts = count_ngrams(train, vocab, max_order=3, skips=(1, 2))
        ml = sm.MLBigram.from_counts(counts)
        params = sm.MixedSmoothingParams(
            {(1, w): rng.random() for w in range(V)}, {1: rng.random()}
        )
        interp = sm.InterpolatedBigram(ml, agg, params)
        for w1 in range(V):
            assert abs(sum(interp.prob((w1,), w2) for w2 in range(V)) - 1) < 1e-8

        sigma = mm.MixedSmoothingParams(
            {(k, w): rng.random() for k in (1, 2) for w in range(V)},
            {1: rng.random(), 2: rng.random()},
        )
        level = sm.SmoothedMixedLevel(mixed, sigma, interp)
        for ctx in [(u, v) for u in range(V) for v in range(V)]:
            assert abs(sum(level.prob(ctx, w) for w in range(V)) - 1) < 1e-8

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            baseline = sm.build_katz_trigram(counts, sm.KatzBigram(counts, k_gt=3), k_gt=3)
            variant = sm.build_katz_trigram(counts, level, k_gt=3)
        for model in (baseline, variant):
            for ctx in [(u, v) for u in range(V) for v in range(V)]:
                assert abs(sum(model.prob(ctx, w) for w in range(V)) - 1) < 1e-8
        ok(5, "all exposed conditionals sum to 1 over a V=8 vocabulary")


class TestCriterion06CoverageTrend:
    def test_missing_fraction_non_increasing_in_order(self, desk):
        fractions = []
        for m in (1, 2, 3, 4):
            model, _ = mm.train_mixed(desk.train, m, len(desk.vocab), iterations=4)
            fractions.append(mm.evaluate(model, desk.test).missing_fraction)
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))
        ok(6, "missing fraction non-increasing in m: " + ", ".join("%.4f" % f for f in fractions))


@pytest.fixture(scope="module")
def interp_levels(desk, desk_base):
    """Interpolated bigrams over the C=1 and C=32 bases, fit on validation."""
    ml = sm.MLBigram.from_counts(desk.counts)
    base1, _ = mm.train_aggregate(desk.counts, 1, iterations=8, seed=0)
    levels = {}
    for name, base in (("C1", base1), ("C32", desk_base)):
        params = sm.fit_interpolation(ml, base, desk.valid)
        levels[name] = sm.InterpolatedBigram(ml, base, params)
    return levels


class TestCriterion07AggregateBaseBenefit:
    def test_class_base_beats_unigram_base(self, desk, interp_levels):
        seen = ev.bigram_seen_predicate(desk.counts)
        r1 = ev.evaluate(interp_levels["C1"], desk.test, seen_predicate=seen)
        r32 = ev.evaluate(interp_levels["C32"], desk.test, seen_predicate=seen)
        assert r32.perplexity < r1.perplexity
        assert r32.unseen_perplexity <= 0.8 * r1.unseen_perplexity
        ok(
            7,
            "C=32 base: test ppl %.2f < %.2f, unseen ppl %.0f vs %.0f (%.0f%% lower)"
            % (
                r32.perplexity,
                r1.perplexity,
                r32.unseen_perplexity,
                r1.unseen_perplexity,
                100 * (1 - r32.unseen_perplexity / r1.unseen_perplexity),
            ),
        )


class TestCriterion08MixedCascadeBenefit:
    def test_smoothed_m2_beats_smoothed_bigram(self, desk, desk_cascade2, interp_levels):
        bigram_ppl = ev.evaluate(interp_levels["C32"], desk.test).perplexity
        cascade_ppl = ev.evaluate(desk_cascade2.top, desk.test).perplexity
        assert cascade_ppl < bigram_ppl
        ok(8, "smoothed m=2 cascade %.2f < smoothed bigram %.2f" % (cascade_ppl, bigram_ppl))


@pytest.fixture(scope="module")
def katz_pair_builder(desk, desk_cascade2):
    discounts = sm.good_turing_discounts(desk.counts.trigrams, 5)
    katz_bigram = sm.KatzBigram(desk.counts, k_gt=5)

    def build(truncation):
        baseline = sm.build_katz_trigram(
            desk.counts, katz_bigram, k_gt=5, truncation=truncation, discounts=discounts
        )
        mixed = sm.build_katz_trigram(
            desk.counts, desk_cascade2.top, k_gt=5, truncation=truncation, discounts=discounts
        )
        return baseline, mixed

    return build


class TestCriterion09BackoffComparison:
    def test_mixed_backoff_beats_baseline(self, desk, katz_pair_builder):
        baseline, mixed = katz_pair_builder(1)
        rb = ev.evaluate(baseline, desk.test, unseen_from_backoff=True)
        rm = ev.evaluate(mixed, desk.test, unseen_from_backoff=True)
        assert rm.unseen_perplexity < rb.unseen_perplexity
        assert rm.perplexity <= rb.perplexity
        ok(
            9,
            "mixed backoff unseen ppl %.0f < %.0f, overall %.2f <= %.2f (backoff rate %.2f)"
            % (
                rm.unseen_perplexity,
                rb.unseen_perplexity,
                rm.perplexity,
                rb.perplexity,
                rb.backoff_fraction,
            ),
        )


class TestCriterion10TruncationRobustness:
    def test_baseline_degrades_faster(self, desk, katz_pair_builder):
        base_ppl, mixed_ppl = [], []
        for t in range(1, 6):
            baseline, mixed = katz_pair_builder(t)
            base_ppl.append(ev.evaluate(baseline, desk.test).perplexity)
            mixed_ppl.append(ev.evaluate(mixed, desk.test).perplexity)
        assert all(b < b2 for b, b2 in zip(base_ppl, base_ppl[1:]))
        rel_base = (base_ppl[-1] - base_ppl[0]) / base_ppl[0]
        rel_mixed = abs(mixed_ppl[-1] - mixed_ppl[0]) / mixed_ppl[0]
        assert rel_mixed < rel_base
        ok(
            10,
            "truncation: baseline %.2f->%.2f (+%.1f%%), mixed %.2f->%.2f (%.1f%%)"
            % (
                base_ppl[0],
                base_ppl[-1],
                100 * rel_base,
                mixed_ppl[0],
                mixed_ppl[-1],
                100 * rel_mixed,
            ),
        )


class TestCriterion11MassConservation:
    def test_discounted_weights_plus_leftover(self):
        rng = random.Random(6000)
        for _ in range(1000):
            m = rng.randrange(1, 7)
            lams = [rng.random() for _ in range(m - 1)] + [1.0]
            sigmas = [rng.random() for _ in range(m)]
            direct = leftover = 0.0
            declined = 1.0
            for k in range(m):
                weight = declined * lams[k]
                direct += (1.0 - sigmas[k]) * weight
                leftover += sigmas[k] * weight
                declined *= 1.0 - lams[k]
            assert abs(direct + leftover - 1.0) < 1e-12
        ok(11, "discounted weights + leftover mass = 1 on 1000 random draws")


class TestCriterion12Determinism:
    def test_end_to_end_byte_identical(self, tmp_path):
        from corpusgen import generate_lines

        lines = generate_lines(77, 400)
        test_lines = generate_lines(78, 60)
        artifacts = [
            "vocab.txt",
            "counts.txt",
            "agg.txt",
            "trace.csv",
            "mix2.txt",
            "mtrace.csv",
            "cascade.txt",
            "report.json",
        ]
        snapshots = []
        for name in ("one", "two"):
            d = tmp_path / name
            d.mkdir()
            (d / "train.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            (d / "test.txt").write_text("\n".join(test_lines) + "\n", encoding="utf-8")
            steps = [
                ["prepare", "--input", "train.txt", "--vocab-size", "400",
                 "--max-order", "3", "--skips", "1,2",
                 "--vocab-out", "vocab.txt", "--counts-out", "counts.txt"],
                ["train-aggregate", "--counts", "counts.txt", "--classes", "8",
                 "--iters", "16", "--seed", "3",
                 "--model-out", "agg.txt", "--trace-out", "trace.csv"],
                ["train-mixed", "--input", "train.txt", "--vocab", "vocab.txt",
                 "--order", "2", "--model-out", "mix2.txt", "--trace-out", "mtrace.csv"],
                ["smooth", "--counts", "counts.txt", "--vocab", "vocab.txt",
                 "--agg-model", "agg.txt", "--mixed-models", "mix2.txt",
                 "--input", "train.txt", "--valid-frac", "0.1", "--with-trigram",
                 "--gt-threshold", "5", "--out-dir", "smooth",
                 "--manifest-out", "cascade.txt"],
                ["eval", "--test", "test.txt", "--vocab", "vocab.txt",
                 "--cascade", "cascade.txt", "--unseen", "backoff",
                 "--report-out", "report.json"],
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for step in steps:
                    assert cli_run(d, *step) == 0
            snapshots.append([(d / a).read_bytes() for a in artifacts])
        assert snapshots[0] == snapshots[1]
        ok(12, "end-to-end pipeline byte-identical across reruns")
