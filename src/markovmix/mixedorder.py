"""Mixed-order Markov models: convex mixtures of skip-k bigram predictions.

The prediction for word w_t combines skip-k transition tables M_k, one per
distance k = 1..m, with context-dependent mixing weights: component k fires
with probability lambda_k(w_{t-k}) times the probability that every closer
component declined, prod_{j<k} (1 - lambda_j(w_{t-j})).  The last mixing
column is pinned to one so the model never looks back further than m words.

Training is EM over prediction events with the component identity hidden.
Transition entries start from normalized skip-k counts; entries that start
at zero stay zero, so unseen word combinations keep zero probability (these
models are smoothed by the cascade layer, not here).

A model stores, per skip distance, the sorted int64 pair keys w1*V + w2 of
its stored pairs and one float64 value array: the form that training works
on (_EventTable) and that save writes.  Training also holds component-major
(m, events) event arrays, so that each component's work reads one
contiguous row.  The flat dicts {w1*V + w2: p} that scalar scoring reads
are built from the arrays on first use, once per model
(MixedOrderModel.pairs).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .aggregate import TrainingTrace, _class_sums
from .artifact import ArtifactReader, positive, write_artifact
from .corpus import (
    NgramCounts,
    TokenSentence,
    _check_ids,
    _check_key_room,
    _distinct_rows,
    _event_windows,
    _find,
    _key_dict,
    _row_keys,
    _row_normalised,
    most_frequent,
)
from .errors import DataError, NumericError, ParameterError, id_out_of_range

MAX_COMPONENTS = 8  # model size grows as m * V^2


def _initial_lambdas(vocab_size: int, order: int) -> np.ndarray:
    """lambda_k(w) = 1/(m-k+1) for every w, so the first E-step spreads
    posterior mass evenly over the remaining components; m must lie in
    1..MAX_COMPONENTS."""
    if not 1 <= order <= MAX_COMPONENTS:
        raise ParameterError("component count must be in 1..%d, got %d" % (MAX_COMPONENTS, order))
    return np.tile(1.0 / np.arange(order, 0, -1), (vocab_size, 1))


class MixedOrderModel:
    """Mixture of skip-k transition tables with per-word mixing weights.

    The attributes are read-only: `pairs` is built from `keys` and `vals`
    once and kept.

    Attributes:
        lambdas: (V, m) matrix; column k-1 holds lambda_k(w), last column 1.
        keys: per k, the sorted int64 keys w1*V + w2 of the stored skip-k
            pairs; row w1 is absent when the word was never seen k
            positions before a prediction.
        vals: per k, the transition probabilities of those pairs, each
            stored row summing to 1.
    """

    def __init__(self, lambdas: np.ndarray, keys: list[np.ndarray], vals: list[np.ndarray]):
        lambdas = np.asarray(lambdas, dtype=np.float64)
        if lambdas.ndim != 2 or not lambdas.shape[1] == len(keys) == len(vals):
            raise ParameterError("mixing matrix shape does not match component count")
        self.lambdas = lambdas
        self.keys = keys
        self.vals = vals

    @functools.cached_property
    def pairs(self) -> list[dict[int, float]]:
        """Per k, the stored pairs as one flat dict {w1*V + w2: p}, the form
        that scalar scoring reads."""
        return [_key_dict(keys, vals) for keys, vals in zip(self.keys, self.vals)]

    @property
    def vocab_size(self) -> int:
        return self.lambdas.shape[0]

    @property
    def order(self) -> int:
        return self.lambdas.shape[1]

    @property
    def context_size(self) -> int:
        return self.order

    @classmethod
    def from_counts(cls, counts: NgramCounts, order: int) -> "MixedOrderModel":
        """Initialize from raw skip-k counts: transition rows are
        ML-normalized counts and lambda_k(w) is 1/(m-k+1)."""
        lambdas = _initial_lambdas(counts.vocab_size, order)
        missing = [k for k in range(1, order + 1) if k not in counts.skips]
        if missing:
            raise ParameterError("counts lack skip tables for k=%r" % missing)
        skips = [counts.skips[k] for k in range(1, order + 1)]
        keys = [_row_keys(pairs.ids, 0, counts.vocab_size) for pairs in skips]
        return cls(lambdas, keys, [_row_normalised(pairs.ids[:, 0], pairs.n) for pairs in skips])

    def prob(self, context: tuple[int, ...], word: int) -> float:
        """Mixture probability of `word` after `context` (sentence order,
        most recent word last, exactly m entries)."""
        m = self.order
        if len(context) != m:
            raise ParameterError(
                "context must hold exactly %d ids, got %d" % (m, len(context))
            )
        V = self.vocab_size
        if not 0 <= min(context) <= max(context) < V > word >= 0:
            raise id_out_of_range((*context, word), V)
        total = 0.0
        declined = 1.0
        for k, pairs in enumerate(self.pairs, start=1):
            w_ctx = context[m - k]
            lam = self.lambdas[w_ctx, k - 1]
            total += declined * lam * pairs.get(w_ctx * V + word, 0.0)
            declined *= 1.0 - lam
        return total

    def save(self, path) -> None:
        V = self.vocab_size
        pairs = (
            (k, w1, w2, p)
            for k, (keys, vals) in enumerate(zip(self.keys, self.vals), start=1)
            for w1, w2, p in zip((keys // V).tolist(), (keys % V).tolist(), vals.tolist())
        )
        rows = itertools.chain(self.lambdas.tolist(), pairs)
        write_artifact(path, "MIX-MODEL", rows, V=self.vocab_size, m=self.order)

    @classmethod
    def load(cls, path) -> "MixedOrderModel":
        """Read the save format; pair lines may come in any order, but each
        (k, w1, w2) only once."""
        reader = ArtifactReader(path, "MIX-MODEL", V=positive, m=positive)
        V, m = reader.header["V"], reader.header["m"]
        lambdas = reader.matrix(V, m)
        reader.check_unit(lambdas, "mixing weight")
        reader.check_sums(lambdas[:, -1], "last mixing weight is not 1")
        k, w1, w2, p = reader.rows("iiif")
        reader.check((k >= 1) & (k <= m), "skip distance outside 1..%d" % m)
        in_range = (w1 >= 0) & (w1 < V) & (w2 >= 0) & (w2 < V)
        reader.check(in_range, "word id out of range [0, %d)" % V)
        reader.check_unit(p, "transition probability")
        order = reader.check_unique(k, w1, w2)
        row = _distinct_rows(np.column_stack([k, w1]))[1]
        sums = np.bincount(row, weights=p)[row]
        reader.check_sums(sums, "transition row (k, w1) does not sum to 1")
        k, w1, w2, p = (col[order] for col in (k, w1, w2, p))
        keys = w1 * V + w2
        at = [k == j for j in range(1, m + 1)]
        return cls(lambdas, [keys[i] for i in at], [p[i] for i in at])


class _EventTable:
    """Flattened prediction events against fixed stored skip-k pairs.

    Built from an (events, m + 1) array of corpus._event_windows.  keys[k-1]
    holds the sorted int64 keys w1*V + w2 of the stored skip-k pairs and
    vals[k-1] their values: those of `model`, taken as they are, or by
    default the events' own pairs with row-normalized counts (the initial
    model of training).  The event arrays are component-major, (m, events),
    so that each component is one contiguous row: ctx[k-1, t] is w_{t-k}
    and pair_idx[k-1, t] the position of (w_{t-k}, w_t) in keys[k-1], or -1
    when not stored.
    """

    def __init__(self, windows: np.ndarray, V: int, model: MixedOrderModel | None = None):
        _check_ids(windows, V)
        _check_key_room(V, 2)
        m = windows.shape[1] - 1
        # Column m holds w_t and column m-k holds w_{t-k}.
        self.ctx = np.ascontiguousarray(windows[:, m - 1 :: -1].T)
        events = self.ctx * V + windows[:, m]
        self.pair_idx = np.empty_like(self.ctx)
        if model is not None:
            self.keys, self.vals = model.keys, model.vals
            for k in range(m):
                self.pair_idx[k] = _find(self.keys[k], events[k])
        else:
            self.keys, self.vals = [], []
            for k in range(m):
                keys, self.pair_idx[k], n = np.unique(
                    events[k], return_inverse=True, return_counts=True
                )
                self.keys.append(keys)
                self.vals.append(_row_normalised(keys // V, n))
        self.n_events = len(windows)


def _components(lambdas: np.ndarray, vals: list[np.ndarray], table: _EventTable):
    """Per-event component weights lambda_k(w_{t-k}) * prod_{j<k} (1 -
    lambda_j(w_{t-j})) and the transition value each component reads from
    the stored values `vals` (zero for a pair not stored), both (m, events)
    like the table."""
    m = lambdas.shape[1]
    lam = lambdas.T[np.arange(m)[:, None], table.ctx]
    declined = np.cumprod(1.0 - lam, axis=0)
    prefix = np.vstack([np.ones((1, table.n_events)), declined[:-1]])
    mv = np.zeros_like(lam)
    for k in range(m):
        hit = table.pair_idx[k] >= 0
        mv[k, hit] = vals[k][table.pair_idx[k, hit]]
    return lam * prefix, mv


def _event_probs(lambdas: np.ndarray, vals: list[np.ndarray], table: _EventTable):
    """Per-event mixture probability and the (m, events) component
    contributions; the sum over components keeps the bits of a row-major
    `.sum(axis=1)` (aggregate._class_sums)."""
    weight, mv = _components(lambdas, vals, table)
    contrib = weight * mv
    return _class_sums(contrib), contrib


def _em_step_table(lambdas: np.ndarray, vals: list[np.ndarray], table: _EventTable):
    """em_step on arrays: (lambdas, vals, log-likelihood, events skipped)."""
    V, m = lambdas.shape
    total, contrib = _event_probs(lambdas, vals, table)
    scored = total > 0.0
    n_skipped = int(table.n_events - scored.sum())
    if not scored.any():
        raise NumericError("model assigns zero mass everywhere")
    ll = float(np.log(total[scored]).sum())

    # An unscored event has all-zero components, so its zero phi adds
    # exactly 0.0 to every sum below.
    phi = np.divide(contrib, total, out=np.zeros_like(contrib), where=scored)
    ctx, pair_idx = table.ctx, table.pair_idx
    # tail[k-1] = sum of phi over components k..m, for the mixing update.
    tail = np.cumsum(phi[::-1], axis=0)[::-1]

    new_lambdas = lambdas.copy()
    new_vals = []
    for k in range(m):
        num = np.bincount(ctx[k], weights=phi[k], minlength=V)
        den = np.bincount(ctx[k], weights=tail[k], minlength=V)
        seen = den > 0.0
        new_lambdas[seen, k] = num[seen] / den[seen]

        hit = pair_idx[k] >= 0
        pair_num = np.bincount(pair_idx[k, hit], weights=phi[k, hit], minlength=len(table.keys[k]))
        row_mass = num[table.keys[k] // V]
        touched = row_mass > 0.0
        new_vals.append(
            np.where(touched, pair_num / np.where(touched, row_mass, 1.0), vals[k])
        )
    new_lambdas[:, m - 1] = 1.0
    return new_lambdas, new_vals, ll, n_skipped


def em_step(
    model: MixedOrderModel, sentences: list[TokenSentence]
) -> tuple[MixedOrderModel, float, int]:
    """One EM pass over the corpus.

    Returns (updated model, log-likelihood of the input model over scored
    events, number of zero-probability events skipped).  Words never seen at
    some distance keep their previous mixing weight and transition row.
    """
    sentences = list(sentences)
    if not sentences:
        raise DataError("empty corpus")
    table = _EventTable(_event_windows(sentences, model.order), model.vocab_size, model)
    lambdas, vals, ll, n_skipped = _em_step_table(model.lambdas, table.vals, table)
    return MixedOrderModel(lambdas, table.keys, vals), ll, n_skipped


def train_mixed(
    sentences: list[TokenSentence],
    order: int,
    vocab_size: int,
    iterations: int = 4,
) -> tuple[MixedOrderModel, TrainingTrace]:
    """Count skip-k pairs, initialize, and run EM.

    Trace row i holds the training log-likelihood and perplexity of the
    model after i updates.
    """
    if iterations < 1:
        raise ParameterError("iterations must be >= 1")
    sentences = list(sentences)
    if not sentences:
        raise DataError("empty corpus")
    lambdas = _initial_lambdas(vocab_size, order)
    table = _EventTable(_event_windows(sentences, order), vocab_size)
    vals = table.vals
    trace = TrainingTrace()
    for i in range(iterations):
        lambdas, vals, ll_before, n_skipped = _em_step_table(lambdas, vals, table)
        if i > 0:
            trace.append(ll_before, table.n_events - n_skipped)
    total, _ = _event_probs(lambdas, vals, table)
    trace.append(float(np.log(total[total > 0.0]).sum()), int((total > 0.0).sum()))
    return MixedOrderModel(lambdas, table.keys, vals), trace


def lambda_report(
    model: MixedOrderModel,
    top_n: int,
    unigram_counts,
    list_size: int = 50,
) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """Rank the top_n most frequent words by their skip-1 mixing weight.

    Returns (lowest, highest) lists of (word id, lambda_1) pairs; boundary
    markers are excluded since they never occur as interior context.  Ties
    break toward the lower word id in both lists.
    """
    if model.order < 2:
        raise ParameterError("lambda ranking needs at least two components")
    chosen = most_frequent(unigram_counts, top_n)
    lam1 = [(w, float(model.lambdas[w, 0])) for w in chosen]
    low = sorted(lam1, key=lambda wl: (wl[1], wl[0]))[:list_size]
    high = sorted(lam1, key=lambda wl: (-wl[1], wl[0]))[:list_size]
    return low, high
