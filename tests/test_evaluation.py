"""Sentence scoring, perplexity reports, and unseen-event accounting."""

import math
import random

import pytest

import markovmix as mm
from markovmix import evaluation as ev
from markovmix.corpus import END_ID, START_ID, count_ngrams
from markovmix.errors import DataError, NumericError
from markovmix.smoothing import MLBigram, MLUnigram

from test_corpus import make_vocab


class UniformModel:
    def __init__(self, vocab_size, context_size=1):
        self.vocab_size = vocab_size
        self.context_size = context_size

    def prob(self, context, word):
        return 1.0 / self.vocab_size


class TableModel:
    """Conditional model backed by an explicit (context, word) -> p table."""

    context_size = 1

    def __init__(self, table):
        self.table = table

    def prob(self, context, word):
        return self.table.get((context[-1], word), 0.0)


class TestSentenceLogProb:
    def test_empty_sentence_scores_end_marker(self):
        table = {(START_ID, END_ID): 0.25}
        report = mm.evaluate(TableModel(table), [[]])
        assert report.log_likelihood == pytest.approx(math.log(0.25))
        assert (report.total_events, report.zero_events, report.backoff_events) == (1, 0, 0)

    def test_uniform_model_closed_form(self):
        model = UniformModel(8)
        report = mm.evaluate(model, [[3, 4, 5]])
        assert report.log_likelihood == pytest.approx(-4 * math.log(8), abs=1e-12)
        assert report.total_events == 4

    def test_hand_built_bigram_product(self):
        # Two-sentence corpus scored against explicit bigram probabilities.
        table = {
            (START_ID, 3): 0.5,
            (3, 4): 0.25,
            (4, END_ID): 0.125,
            (3, END_ID): 0.0625,
        }
        model = TableModel(table)
        lp1 = mm.evaluate(model, [[3, 4]]).log_likelihood
        assert lp1 == pytest.approx(math.log(0.5 * 0.25 * 0.125), abs=1e-12)
        lp2 = mm.evaluate(model, [[3]]).log_likelihood
        assert lp2 == pytest.approx(math.log(0.5 * 0.0625), abs=1e-12)

    def test_zero_probability_flagged_and_excluded(self):
        table = {(START_ID, 3): 0.5}
        report = mm.evaluate(TableModel(table), [[3, 4]])
        assert report.log_likelihood == pytest.approx(math.log(0.5))
        assert (report.total_events, report.scored_events, report.zero_events) == (3, 1, 2)


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self):
        rng = random.Random(50)
        sents = [[rng.randrange(3, 9) for _ in range(rng.randrange(0, 6))] for _ in range(9)]
        report = mm.evaluate(UniformModel(9), sents)
        assert report.perplexity == pytest.approx(9.0, rel=1e-12)
        assert report.zero_events == 0

    def test_ml_unigram_matches_closed_form(self):
        rng = random.Random(51)
        vocab = make_vocab(*"abcde")
        sents = [[rng.randrange(3, 8) for _ in range(rng.randrange(1, 7))] for _ in range(12)]
        counts = count_ngrams(sents, vocab, max_order=1, skips=(1,))
        model = MLUnigram.from_counts(counts)
        report = mm.evaluate(model, sents)
        ll = sum(n * math.log(n / counts.total) for n in counts.unigrams.values())
        assert report.log_likelihood == pytest.approx(ll, rel=1e-12)
        assert report.perplexity == pytest.approx(math.exp(-ll / counts.total), rel=1e-12)

    def test_report_arithmetic(self):
        rng = random.Random(52)
        sents = [[rng.randrange(3, 7) for _ in range(3)] for _ in range(5)]
        report = mm.evaluate(UniformModel(7), sents)
        assert report.perplexity == pytest.approx(
            math.exp(-report.log_likelihood / report.scored_events), rel=1e-12
        )

    def test_reordering_invariance(self):
        rng = random.Random(53)
        vocab = make_vocab(*"abcd")
        sents = [[rng.randrange(3, 7) for _ in range(rng.randrange(0, 5))] for _ in range(10)]
        counts = count_ngrams(sents, vocab, max_order=2, skips=(1,))
        model = MLBigram.from_counts(counts)
        a = mm.evaluate(model, sents)
        shuffled = list(sents)
        random.Random(9).shuffle(shuffled)
        b = mm.evaluate(model, shuffled)
        assert a.perplexity == pytest.approx(b.perplexity, rel=1e-12)

    def test_dominance(self):
        # If model A gives every event at least model B's probability, its
        # perplexity cannot be worse.
        rng = random.Random(54)
        sents = [[rng.randrange(3, 8) for _ in range(4)] for _ in range(8)]
        a = mm.evaluate(UniformModel(8), sents)
        b = mm.evaluate(UniformModel(16), sents)
        assert a.perplexity <= b.perplexity

    def test_all_zero_events_error(self):
        with pytest.raises(NumericError, match="no scorable events"):
            mm.evaluate(TableModel({}), [[3, 4]])

    def test_corpus_without_events_is_a_data_error(self):
        # No sentence, so no event; an empty sentence still has its end event.
        with pytest.raises(DataError, match="no events to score"):
            mm.evaluate(UniformModel(8), [])
        assert mm.evaluate(UniformModel(8), [[]]).total_events == 1

    def test_zero_events_excluded_but_counted(self):
        table = {(START_ID, 3): 0.5, (3, END_ID): 0.25}
        sents = [[3], [4]]
        report = mm.evaluate(TableModel(table), sents)
        assert report.total_events == 4
        assert report.scored_events == 2
        assert report.zero_events == 2
        assert report.perplexity == pytest.approx(
            math.exp(-(math.log(0.5) + math.log(0.25)) / 2), rel=1e-12
        )


class TestUnseenPerplexity:
    def test_subset_corpus_has_no_unseen(self):
        vocab = make_vocab(*"ab")
        train = [[3, 4], [4, 3]]
        counts = count_ngrams(train, vocab, max_order=2, skips=(1,))
        seen = ev.bigram_seen_predicate(counts)
        report = mm.evaluate(MLBigram.from_counts(counts), [[3, 4]], seen_predicate=seen)
        assert report.unseen_perplexity is None
        assert report.unseen_events == 0
        assert report.unseen_fraction == 0.0

    def test_single_unseen_event(self):
        table = {
            (START_ID, 3): 0.5,
            (3, 4): 0.2,
            (4, END_ID): 0.5,
        }
        seen = lambda ctx, w: not (ctx[-1] == 3 and w == 4)
        report = mm.evaluate(TableModel(table), [[3, 4]], seen_predicate=seen)
        assert report.unseen_perplexity == pytest.approx(1 / 0.2, rel=1e-12)
        assert report.unseen_fraction == pytest.approx(1 / 3)

    def test_backoff_tracking(self):
        class FlaggingModel(UniformModel):
            def prob_and_backoff(self, context, word):
                return self.prob(context, word), word == END_ID

        report = ev.evaluate(FlaggingModel(5), [[3, 4]], unseen_from_backoff=True)
        assert report.backoff_events == 1
        assert report.unseen_events == 1
        assert report.backoff_fraction == pytest.approx(1 / 3)
        assert report.unseen_perplexity == pytest.approx(5.0, rel=1e-12)


class TestReportOutput:
    def test_json_round_trip_keys(self):
        import json

        report = mm.evaluate(UniformModel(4), [[3]])
        data = json.loads(report.to_json())
        assert data["total_events"] == 2
        assert data["perplexity"] == pytest.approx(4.0)
        assert "unseen_perplexity" not in data

    def test_text_contains_fields(self):
        report = mm.evaluate(UniformModel(4), [[3]])
        text = report.to_text()
        assert "perplexity" in text
        assert "zero_events" in text
