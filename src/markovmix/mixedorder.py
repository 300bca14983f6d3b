"""Mixed-order Markov models: convex mixtures of skip-k bigram predictions.

The prediction for word w_t combines skip-k transition matrices M_k, one per
distance k = 1..m, with context-dependent mixing weights: component k fires
with probability lambda_k(w_{t-k}) times the probability that every closer
component declined, prod_{j<k} (1 - lambda_j(w_{t-j})).  The last mixing
column is pinned to one so the model never looks back further than m words.

Training is EM over prediction events with the component identity hidden.
Transition entries start from normalized skip-k counts; entries that start
at zero stay zero, so unseen word combinations keep zero probability (these
models are smoothed by the cascade layer, not here).
"""

from __future__ import annotations

import itertools

import numpy as np

from .aggregate import TrainingTrace
from .artifact import ArtifactReader, positive, write_artifact
from .corpus import (
    NgramCounts,
    TokenSentence,
    _check_ids,
    _count_windows,
    _event_windows,
    most_frequent,
    normalized_rows,
)
from .errors import DataError, NumericError, ParameterError

MAX_COMPONENTS = 8  # model size grows as m * V^2

SkipMatrix = dict[int, dict[int, float]]


class MixedOrderModel:
    """Mixture of skip-k transition matrices with per-word mixing weights.

    Attributes:
        lambdas: (V, m) matrix; column k-1 holds lambda_k(w), last column 1.
        matrices: per-k sparse row-stochastic transitions, rows absent when
            the word was never seen k positions before a prediction.
    """

    def __init__(self, lambdas: np.ndarray, matrices: list[SkipMatrix]):
        lambdas = np.asarray(lambdas, dtype=np.float64)
        if lambdas.ndim != 2 or lambdas.shape[1] != len(matrices):
            raise ParameterError("mixing matrix shape does not match component count")
        self.lambdas = lambdas
        self.matrices = matrices

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
        """Initialize from raw skip-k counts.

        Transition rows are ML-normalized counts; lambda_k(w) starts at
        1/(m-k+1) so the first E-step spreads posterior mass evenly over the
        remaining components.
        """
        if not 1 <= order <= MAX_COMPONENTS:
            raise ParameterError(
                "component count must be in 1..%d, got %d" % (MAX_COMPONENTS, order)
            )
        missing = [k for k in range(1, order + 1) if k not in counts.skips]
        if missing:
            raise ParameterError("counts lack skip tables for k=%r" % missing)
        matrices = [normalized_rows(counts.skips[k])[0] for k in range(1, order + 1)]
        lambdas = np.empty((counts.vocab_size, order))
        for k in range(1, order + 1):
            lambdas[:, k - 1] = 1.0 / (order - k + 1)
        return cls(lambdas, matrices)

    def prob(self, context: tuple[int, ...], word: int) -> float:
        """Mixture probability of `word` after `context` (sentence order,
        most recent word last, exactly m entries)."""
        m = self.order
        if len(context) != m:
            raise ParameterError(
                "context must hold exactly %d ids, got %d" % (m, len(context))
            )
        total = 0.0
        declined = 1.0
        for k in range(1, m + 1):
            w_ctx = context[m - k]
            lam = self.lambdas[w_ctx, k - 1]
            row = self.matrices[k - 1].get(w_ctx)
            if row:
                total += declined * lam * row.get(word, 0.0)
            declined *= 1.0 - lam
        return total

    def save(self, path) -> None:
        pairs = (
            (k, w1, w2, p)
            for k, rows in enumerate(self.matrices, start=1)
            for w1, row in sorted(rows.items())
            for w2, p in sorted(row.items())
        )
        rows = itertools.chain(self.lambdas.tolist(), pairs)
        write_artifact(path, "MIX-MODEL", rows, V=self.vocab_size, m=self.order)

    @classmethod
    def load(cls, path) -> "MixedOrderModel":
        reader = ArtifactReader(path, "MIX-MODEL", V=positive, m=positive)
        V, m = reader.header["V"], reader.header["m"]
        lambdas = reader.matrix(V, m)
        k, w1, w2, _ = pairs = reader.rows("iiif")
        reader.check((k >= 1) & (k <= m), "skip distance outside 1..%d" % m)
        in_range = (w1 >= 0) & (w1 < V) & (w2 >= 0) & (w2 < V)
        reader.check(in_range, "word id out of range [0, %d)" % V)
        matrices: list[SkipMatrix] = [{} for _ in range(m)]
        for k, w1, w2, p in zip(*(col.tolist() for col in pairs)):
            matrices[k - 1].setdefault(w1, {})[w2] = p
        return cls(lambdas, matrices)


class _EventTable:
    """Flattened prediction events against a fixed transition sparsity.

    Built from an (events, m + 1) array of corpus._event_windows.  For event
    t and component k the table records the conditioning id w_{t-k} in
    ctx[t, k-1] and, in pair_idx[t, k-1], the position of the pair
    (w_{t-k}, w_t) among the sorted per-k pairs (-1 when the pair is not
    stored, contributing zero).  Pairs are encoded as int64 keys w1*V + w2
    and located with np.searchsorted.
    """

    def __init__(self, model: MixedOrderModel, windows: np.ndarray):
        m = model.order
        V = model.vocab_size
        self.pairs: list[list[tuple[int, int]]] = []
        self.pair_rows: list[np.ndarray] = []
        _check_ids(windows, V)
        # Column m holds w_t and column m-k holds w_{t-k}.
        self.ctx = np.ascontiguousarray(windows[:, m - 1 :: -1])
        self.pair_idx = np.empty_like(self.ctx)
        words = windows[:, m]
        for k, rows in enumerate(model.matrices):
            pairs = [(w1, w2) for w1 in sorted(rows) for w2 in sorted(rows[w1])]
            self.pairs.append(pairs)
            keyed = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            self.pair_rows.append(keyed[:, 0].copy())
            keys = keyed[:, 0] * V + keyed[:, 1]
            events = self.ctx[:, k] * V + words
            pos = np.searchsorted(keys, events)
            found = pos < len(keys)
            found[found] = keys[pos[found]] == events[found]
            self.pair_idx[:, k] = np.where(found, pos, -1)
        self.n_events = self.ctx.shape[0]

    def values_from(self, model: MixedOrderModel) -> list[np.ndarray]:
        vals = []
        for k, pairs in enumerate(self.pairs):
            rows = model.matrices[k]
            vals.append(
                np.array([rows[w1][w2] for (w1, w2) in pairs], dtype=np.float64)
            )
        return vals


def _components(model: MixedOrderModel, table: _EventTable):
    """Per-event component weights lambda_k(w_{t-k}) * prod_{j<k} (1 -
    lambda_j(w_{t-j})), the transition value each component reads (zero for
    a pair not stored), and the per-k stored values they were read from."""
    m = model.order
    lam = model.lambdas[table.ctx, np.arange(m)[None, :]]
    declined = np.cumprod(1.0 - lam, axis=1)
    prefix = np.hstack([np.ones((table.n_events, 1)), declined[:, :-1]])
    vals = table.values_from(model)
    mv = np.zeros_like(lam)
    for k in range(m):
        hit = table.pair_idx[:, k] >= 0
        mv[hit, k] = vals[k][table.pair_idx[hit, k]]
    return lam * prefix, mv, vals


def _event_probs(model: MixedOrderModel, table: _EventTable):
    """Per-event mixture probability and component contributions, and the
    per-k stored transition values."""
    weight, mv, vals = _components(model, table)
    contrib = weight * mv
    return contrib.sum(axis=1), contrib, vals


def _event_log_likelihood(model: MixedOrderModel, table: _EventTable):
    total, _, _ = _event_probs(model, table)
    scored = total > 0.0
    ll = float(np.log(total[scored]).sum())
    return ll, int(scored.sum()), int(table.n_events - scored.sum())


def _em_step_table(model: MixedOrderModel, table: _EventTable):
    m = model.order
    V = model.vocab_size
    total, contrib, old_vals = _event_probs(model, table)
    scored = total > 0.0
    n_skipped = int(table.n_events - scored.sum())
    if not scored.any():
        raise NumericError("model assigns zero mass everywhere")
    ll = float(np.log(total[scored]).sum())

    phi = contrib[scored] / total[scored, None]
    ctx = table.ctx[scored]
    pair_idx = table.pair_idx[scored]
    # tail[:, k-1] = sum of phi over components k..m, for the mixing update.
    tail = np.cumsum(phi[:, ::-1], axis=1)[:, ::-1]

    new_lambdas = model.lambdas.copy()
    new_matrices: list[SkipMatrix] = []
    for k in range(m):
        num = np.bincount(ctx[:, k], weights=phi[:, k], minlength=V)
        den = np.bincount(ctx[:, k], weights=tail[:, k], minlength=V)
        seen = den > 0.0
        new_lambdas[seen, k] = num[seen] / den[seen]

        hit = pair_idx[:, k] >= 0
        pair_num = np.bincount(
            pair_idx[hit, k], weights=phi[hit, k], minlength=len(table.pairs[k])
        )
        row_mass = num[table.pair_rows[k]]
        touched = row_mass > 0.0
        new_vals = np.where(
            touched, pair_num / np.where(touched, row_mass, 1.0), old_vals[k]
        )
        rows: SkipMatrix = {}
        for i, (w1, w2) in enumerate(table.pairs[k]):
            rows.setdefault(w1, {})[w2] = float(new_vals[i])
        new_matrices.append(rows)
    new_lambdas[:, m - 1] = 1.0

    return MixedOrderModel(new_lambdas, new_matrices), ll, n_skipped


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
    table = _EventTable(model, _event_windows(sentences, model.order))
    return _em_step_table(model, table)


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
    counts = NgramCounts(vocab_size, 1, tuple(range(1, order + 1)))
    windows = _event_windows(sentences, counts.pad)
    model = MixedOrderModel.from_counts(_count_windows(counts, windows), order)
    table = _EventTable(model, windows)
    trace = TrainingTrace()
    for i in range(iterations):
        model, ll_before, n_skipped = _em_step_table(model, table)
        if i > 0:
            trace.append(ll_before, table.n_events - n_skipped)
    ll_final, scored, _ = _event_log_likelihood(model, table)
    trace.append(ll_final, scored)
    return model, trace


def missing_fraction(
    model: MixedOrderModel, sentences: list[TokenSentence]
) -> float:
    """Fraction of prediction events assigned exactly zero probability."""
    if not sentences:
        return 0.0
    table = _EventTable(model, _event_windows(sentences, model.order))
    total, _, _ = _event_probs(model, table)
    return float((total == 0.0).sum() / table.n_events)


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
