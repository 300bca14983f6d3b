"""Sentence scoring and perplexity reports for any conditional model.

A conditional model exposes `context_size` and `prob(context, word)`; the
optional `prob_and_backoff` variant additionally reports whether the event
was delegated to a backoff model.  A sentence w_1..w_n is scored over n+1
events (each interior word plus the end marker), with the context padded on
the left by start markers.

Events assigned exactly zero probability are excluded from the
log-likelihood but counted, so perplexity stays finite and the coverage gap
is reported separately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .corpus import NgramCounts, TokenSentence, _event_windows
from .errors import NumericError


class EventFlags(NamedTuple):
    zero: bool
    backoff: bool


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


def _event_scores(model, sentences: list[TokenSentence]):
    """(context, word, p, backed) for every event of the sentences, in order;
    backed is False for a model without prob_and_backoff."""
    scorer = getattr(model, "prob_and_backoff", None)
    width = model.context_size
    for row in _event_windows(sentences, width).tolist():
        ctx, w = tuple(row[:width]), row[width]
        if scorer is not None:
            p, backed = scorer(ctx, w)
        else:
            p, backed = model.prob(ctx, w), False
        yield ctx, w, p, backed


def sentence_log_prob(model, sentence: TokenSentence) -> tuple[float, list[EventFlags]]:
    """Log probability of one sentence plus per-event flags.

    Zero-probability events contribute a flag instead of -inf and are left
    out of the returned sum.
    """
    logprob = 0.0
    flags = []
    for _, _, p, backed in _event_scores(model, [sentence]):
        if p > 0.0:
            logprob += math.log(p)
        flags.append(EventFlags(not p > 0.0, backed))
    return logprob, flags


def evaluate(
    model,
    sentences: list[TokenSentence],
    seen_predicate: Callable[[tuple[int, ...], int], bool] | None = None,
    unseen_from_backoff: bool = False,
) -> EvalReport:
    """Score a corpus, optionally tracking an unseen-event subset.

    The unseen subset is defined either by `seen_predicate(context, word)`
    returning False, or (with unseen_from_backoff) by events the model
    delegated to its backoff.  Zero-probability events never join the
    unseen log-likelihood either; they are counted in zero_events.
    """
    total = scored = zeros = backoffs = 0
    ll = 0.0
    track_unseen = seen_predicate is not None or unseen_from_backoff
    unseen_n = unseen_scored = 0
    unseen_ll = 0.0
    for ctx, w, p, backed in _event_scores(model, sentences):
        total += 1
        backoffs += backed
        if unseen_from_backoff:
            unseen = backed
        else:
            unseen = seen_predicate is not None and not seen_predicate(ctx, w)
        unseen_n += unseen
        if p > 0.0:
            lp = math.log(p)
            ll += lp
            scored += 1
            if unseen:
                unseen_ll += lp
                unseen_scored += 1
        else:
            zeros += 1
    if scored == 0:
        raise NumericError("no scorable events")
    report = EvalReport(
        total_events=total,
        scored_events=scored,
        log_likelihood=ll,
        perplexity=math.exp(-ll / scored),
        zero_events=zeros,
        backoff_events=backoffs,
    )
    if track_unseen:
        report.unseen_events = unseen_n
        if unseen_scored:
            report.unseen_log_likelihood = unseen_ll
            report.unseen_perplexity = math.exp(-unseen_ll / unseen_scored)
    return report


def perplexity(model, sentences: list[TokenSentence]) -> EvalReport:
    return evaluate(model, sentences)


def unseen_perplexity(
    model,
    sentences: list[TokenSentence],
    seen_predicate: Callable[[tuple[int, ...], int], bool],
) -> tuple[float | None, float]:
    """Perplexity restricted to events failing the predicate, plus their
    fraction of all events.  Returns (None, 0.0) when every event is seen."""
    report = evaluate(model, sentences, seen_predicate=seen_predicate)
    return report.unseen_perplexity, report.unseen_fraction or 0.0


def bigram_seen_predicate(counts: NgramCounts) -> Callable[[tuple[int, ...], int], bool]:
    """Seen = the (previous word, word) pair was observed in training."""
    pairs = set(counts.bigrams)

    def seen(ctx: tuple[int, ...], word: int) -> bool:
        return (ctx[-1], word) in pairs

    return seen
