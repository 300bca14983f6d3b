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
Every level still makes one scalar call per row it scores.  Counts and
log-likelihoods (summed in event order) equal those of scoring every event
in turn.

Events assigned exactly zero probability are excluded from the
log-likelihood but counted, so perplexity stays finite and the coverage gap
is reported separately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import NgramCounts, TokenSentence, _distinct_rows, _event_windows, _per_row
from .errors import NumericError
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
    """math.log of each positive probability, 0.0 for the others."""
    return np.array([math.log(x) if x > 0.0 else 0.0 for x in p.tolist()], dtype=np.float64)


def _sequential_sum(x: np.ndarray) -> float:
    """x[0] + x[1] + ... added left to right, as a per-event loop adds them;
    np.sum adds pairwise, which can move the last bits."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


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
    they are counted in zero_events.
    """
    # The distinct (context..., word) rows in lexicographic order, the index
    # of each event's row in event order, and per row the probability and
    # backoff flag (False for a model without prob_and_backoff).
    rows, inverse = _distinct_rows(_event_windows(sentences, model.context_size))
    p, backed = _score_rows(model, rows)
    positive = (p > 0.0)[inverse]
    logp = _log_probs(p)[inverse]
    scored = int(np.count_nonzero(positive))
    if scored == 0:
        raise NumericError("no scorable events")
    ll = _sequential_sum(logp)
    report = EvalReport(
        total_events=len(inverse),
        scored_events=scored,
        log_likelihood=ll,
        perplexity=math.exp(-ll / scored),
        zero_events=len(inverse) - scored,
        backoff_events=int(np.count_nonzero(backed[inverse])),
    )
    if unseen_from_backoff or seen_predicate is not None:
        if unseen_from_backoff:
            unseen = backed
        else:
            unseen = ~np.fromiter(_per_row(seen_predicate, rows), bool, len(rows))
        unseen = unseen[inverse]
        report.unseen_events = int(np.count_nonzero(unseen))
        unseen_scored = int(np.count_nonzero(unseen & positive))
        if unseen_scored:
            # Zero events hold 0.0 in logp, so adding them changes nothing.
            unseen_ll = _sequential_sum(logp[unseen])
            report.unseen_log_likelihood = unseen_ll
            report.unseen_perplexity = math.exp(-unseen_ll / unseen_scored)
    return report


def bigram_seen_predicate(counts: NgramCounts) -> Callable[[tuple[int, ...], int], bool]:
    """Seen = the (previous word, word) pair was observed in training."""
    pairs = set(counts.bigrams)

    def seen(ctx: tuple[int, ...], word: int) -> bool:
        return (ctx[-1], word) in pairs

    return seen
