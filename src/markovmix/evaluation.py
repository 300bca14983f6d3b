"""Perplexity reports for any conditional model; `evaluate` scores a corpus.

A conditional model exposes `context_size` and `prob(context, word)`; the
optional `prob_and_backoff` variant additionally reports whether the event
was delegated to a backoff model.  A sentence w_1..w_n is scored over n+1
events (each interior word plus the end marker), with the context padded on
the left by start markers.

Each distinct (context, word) event is scored once, by the row scorer
smoothing._score_rows, and its score is gathered back to every event; a
seen predicate is likewise called once per distinct event.  Below the top,
each cascade level scores each distinct row of its own context width once:
a mixed level's lower level each distinct truncated event, a Katz trigram's
backoff each distinct truncation of the events it has not stored.  A
SmoothedCascade is scored as its top level, so this holds for it too.
Every level still makes one scalar call per row it scores here, and the
bench counts those calls per class; the weight fits, the Katz builds and
the truncation sweep use the levels' batch scorers (`probs`) instead.
Counts and log-likelihoods (summed in event order) equal those of scoring
every event in turn.

`event_rows` gives a corpus's distinct event rows and the index of each
event's row; `EvalReport.of_rows` turns per-row scores into a report.
`evaluate` is the two with the row scorer between them, and the
truncation sweep (cli sweep-truncate) uses them around each Katz trigram's
batch scorer.  A corpus with no events is a DataError, and one whose every
event scores zero a NumericError.

Events assigned exactly zero probability are excluded from the
log-likelihood but counted, so perplexity stays finite and the coverage gap
is reported separately.  The log of each positive row score is math.log's
(numpy's SIMD log can differ in the last bit), taken once per distinct row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import NgramCounts, TokenSentence, _distinct_rows, _event_windows, _per_row
from .errors import DataError, NumericError
from .smoothing import _score_rows


@dataclass
class EvalReport:
    """Aggregated scoring results over a corpus."""

    total_events: int
    scored_events: int
    log_likelihood: float
    perplexity: float
    zero_events: int
    backoff_events: int
    unseen_events: int | None = None
    unseen_log_likelihood: float | None = None
    unseen_perplexity: float | None = None

    @property
    def backoff_fraction(self) -> float:
        return self.backoff_events / self.total_events if self.total_events else 0.0

    @property
    def missing_fraction(self) -> float:
        return self.zero_events / self.total_events if self.total_events else 0.0

    @property
    def unseen_fraction(self) -> float | None:
        if self.unseen_events is None or not self.total_events:
            return None
        return self.unseen_events / self.total_events

    @classmethod
    def of_rows(
        cls, p: np.ndarray, backed: np.ndarray, inverse: np.ndarray,
        unseen: np.ndarray | None = None,
    ) -> "EvalReport":
        """The report of events whose distinct rows (event_rows) score `p`,
        with backoff flags `backed`; `inverse` gives each event's row, in
        event order.  `unseen`, one flag per row, marks the unseen subset.
        The log-likelihoods are summed in event order."""
        positive = (p > 0.0)[inverse]
        logp = _log_probs(p)[inverse]
        scored = int(np.count_nonzero(positive))
        if scored == 0:
            raise NumericError("no scorable events")
        ll = _sequential_sum(logp)
        report = cls(
            total_events=len(inverse),
            scored_events=scored,
            log_likelihood=ll,
            perplexity=math.exp(-ll / scored),
            zero_events=len(inverse) - scored,
            backoff_events=int(np.count_nonzero(backed[inverse])),
        )
        if unseen is not None:
            unseen = unseen[inverse]
            report.unseen_events = int(np.count_nonzero(unseen))
            unseen_scored = int(np.count_nonzero(unseen & positive))
            if unseen_scored:
                # Zero events hold 0.0 in logp, so adding them changes nothing.
                unseen_ll = _sequential_sum(logp[unseen])
                report.unseen_log_likelihood = unseen_ll
                report.unseen_perplexity = math.exp(-unseen_ll / unseen_scored)
        return report

    def to_dict(self) -> dict:
        out = {
            "total_events": self.total_events,
            "scored_events": self.scored_events,
            "log_likelihood": self.log_likelihood,
            "perplexity": self.perplexity,
            "zero_events": self.zero_events,
            "missing_fraction": self.missing_fraction,
            "backoff_events": self.backoff_events,
            "backoff_fraction": self.backoff_fraction,
        }
        if self.unseen_events is not None:
            out["unseen_events"] = self.unseen_events
            out["unseen_fraction"] = self.unseen_fraction
            out["unseen_perplexity"] = self.unseen_perplexity
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for key, value in sorted(self.to_dict().items()):
            lines.append("%-20s %s" % (key, value))
        return "\n".join(lines)


def _log_probs(p: np.ndarray) -> np.ndarray:
    """math.log of each positive probability, 0.0 for the others.  Not
    np.log: its SIMD loops can differ from math.log in the last bit."""
    out = np.zeros(len(p))
    positive = p > 0.0
    x = p[positive]
    out[positive] = np.fromiter(map(math.log, x.tolist()), np.float64, len(x))
    return out


def _sequential_sum(x: np.ndarray) -> float:
    """x[0] + x[1] + ... added left to right, as a per-event loop adds them;
    np.sum adds pairwise, which can move the last bits."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


def event_rows(sentences: list[TokenSentence], context_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (context..., word) rows of a corpus's events in
    lexicographic order, and the index of each event's row in event order.
    A corpus with no events (no sentences) is a DataError."""
    rows, inverse = _distinct_rows(_event_windows(sentences, context_size))
    if not len(inverse):
        raise DataError("no events to score: the corpus has no sentences")
    return rows, inverse


def evaluate(
    model,
    sentences: list[TokenSentence],
    seen_predicate: Callable[[tuple[int, ...], int], bool] | None = None,
    unseen_from_backoff: bool = False,
) -> EvalReport:
    """Score a corpus, optionally tracking an unseen-event subset.

    Each distinct (context, word) event is scored once; the counts and the
    log-likelihoods (summed in event order) are those of scoring every event.
    The unseen subset is defined either by `seen_predicate(context, word)`
    returning False, or (with unseen_from_backoff) by events the model
    delegated to its backoff.  The predicate is called once per distinct
    event, so it must be a pure function of (context, word).
    Zero-probability events never join the unseen log-likelihood either;
    they are counted in zero_events.  A corpus with no events is a
    DataError, and one whose every event scores zero a NumericError.
    """
    rows, inverse = event_rows(sentences, model.context_size)
    # Per row the probability and backoff flag (False for a model without
    # prob_and_backoff).
    p, backed = _score_rows(model, rows)
    unseen = None
    if unseen_from_backoff:
        unseen = backed
    elif seen_predicate is not None:
        unseen = ~np.fromiter(_per_row(seen_predicate, rows), bool, len(rows))
    return EvalReport.of_rows(p, backed, inverse, unseen)


def bigram_seen_predicate(counts: NgramCounts) -> Callable[[tuple[int, ...], int], bool]:
    """Seen = the (previous word, word) pair was observed in training."""
    pairs = set(counts.bigrams)

    def seen(ctx: tuple[int, ...], word: int) -> bool:
        return (ctx[-1], word) in pairs

    return seen
