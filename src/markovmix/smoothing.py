"""Smoothing cascades over trained models.

Three layers are provided, composable bottom-up:

  * a bigram level: ML bigram rows interpolated with an always-positive base
    model (an aggregate Markov model), one interpolation weight per row,
    fit on held-out data;
  * mixed-order levels: the order-m mixture discounted per skip-k row by
    sigma_k(w), with the discounted mass filled in by the order-(m-1) level;
  * an optional trigram level: Good-Turing discounted ML trigrams backing
    off, Katz style, either to the classic bigram/unigram chain or to a
    smoothed order-2 cascade.

A SmoothedCascade is the stack of these levels; SmoothedCascade.fit and
load_cascade are the two builders, and each builds a level on the one below
it.  The weights of every level are a MixedSmoothingParams, the bigram
level's under k = 1.  A level reads them when it is built, into one array
per k holding 1.0 for each row it does not store.

Each level scores in two ways.  The batch `probs(rows)` of every level
reads the weights and tables as arrays, and finds table entries in sorted
int64 keys (corpus._find); both weight fits and the Katz builds score
their lower levels with it (_batch_probs), and the truncation sweep scores
each Katz trigram with its `probs_and_backoff`.  The scalar
`prob(context, word)` reads the same values as lists of Python floats and
flat dicts keyed by corpus._row_keys (corpus._key_dict); evaluation
(_score_rows) calls it once per distinct row.  A level builds those lists
and dicts from its arrays on its first scalar call (functools
.cached_property), so a level that only scores in batches never holds
them.  The batch scorers repeat the scalar float operations elementwise in
the same order, so both give the same bits.

Parameter files use the "SIGMA v1" format (one "k w sigma" triple per line,
w = -1 holding the per-k fallback) and "GT v1" for discount coefficients.
A fitted cascade is its weight files plus a "CASCADE v1" manifest naming
them and its inputs; SmoothedCascade.save and load_cascade are the only
code that knows these files.
"""

from __future__ import annotations

import functools
import itertools
import os
import warnings
from collections import Counter
from collections.abc import Mapping

import numpy as np

from .aggregate import AggregateModel, _class_sums
from .artifact import ArtifactReader, positive, write_artifact
from .corpus import (
    CountTable, NgramCounts, TokenSentence, _check_ids, _check_key_room, _distinct_rows,
    _event_windows, _find, _key_dict, _per_row, _row_keys, _row_normalised,
)
from .errors import DataError, ParameterError, id_out_of_range
from .mixedorder import MixedOrderModel, _components, _EventTable

_FIT_TOL = 1e-6
_FIT_MAX_ITERS = 50
DEFAULT_GT_THRESHOLD = 5


class MLUnigram:
    """Maximum-likelihood unigram distribution over predicted tokens: the
    sorted ids `keys` with their probabilities `vals`, and the flat dict
    `words` {w: p} of both, built on first use; other ids yield zero."""

    context_size = 0

    def __init__(self, unigrams: Mapping[int, int], total: int):
        if total <= 0:
            raise DataError("no unigram events")
        table = CountTable.of(unigrams, 1)
        self.keys, self.vals = table.ids[:, 0], table.n / total

    @functools.cached_property
    def words(self) -> dict[int, float]:
        return _key_dict(self.keys, self.vals)

    @classmethod
    def from_counts(cls, counts: NgramCounts) -> "MLUnigram":
        return cls(counts.unigrams, counts.total)

    def prob(self, context: tuple[int, ...], word: int) -> float:
        return self.words.get(word, 0.0)

    def probs(self, rows: np.ndarray) -> np.ndarray:
        return _lookup(self.keys, self.vals, rows[:, -1])


class MLBigram:
    """Maximum-likelihood bigrams: the sorted keys w1*V + w2 of the stored
    pairs `keys` with their probabilities `vals`, and the flat dict `pairs`
    of both, built on first use; unseen pairs and rows, and ids outside
    [0, V), yield zero."""

    context_size = 1

    def __init__(self, bigrams: Mapping[tuple[int, int], int], vocab_size: int):
        table = CountTable.of(bigrams, 2)
        _check_ids(table.ids, vocab_size)
        _check_key_room(vocab_size, 2)
        self.vocab_size = vocab_size
        self.keys = _row_keys(table.ids, 0, vocab_size)
        self.vals = _row_normalised(table.ids[:, 0], table.n)

    @functools.cached_property
    def pairs(self) -> dict[int, float]:
        return _key_dict(self.keys, self.vals)

    @classmethod
    def from_counts(cls, counts: NgramCounts) -> "MLBigram":
        if not counts.bigrams:
            raise DataError("no bigram events")
        return cls(counts.bigrams, counts.vocab_size)

    def pair_prob(self, w1: int, w2: int) -> float:
        V = self.vocab_size
        if not 0 <= w1 < V > w2 >= 0:
            return 0.0
        return self.pairs.get(w1 * V + w2, 0.0)

    def prob(self, context: tuple[int, ...], word: int) -> float:
        return self.pair_prob(context[-1], word)

    def probs(self, rows: np.ndarray) -> np.ndarray:
        V = self.vocab_size
        inside = ((rows >= 0) & (rows < V)).all(axis=1)
        p = np.zeros(len(rows))
        p[inside] = _lookup(self.keys, self.vals, _row_keys(rows[inside], 0, V))
        return p


class MixedSmoothingParams:
    """Per-(k, w) discount weights with per-k fallbacks for unseen rows; the
    interpolated bigram reads k = 1 only, its per-row weights sigma(w)."""

    def __init__(self, values: dict[tuple[int, int], float], fallbacks: dict[int, float]):
        self.values = values
        self.fallbacks = fallbacks

    def save(self, path) -> None:
        rows = itertools.chain(
            ((k, -1, s) for k, s in sorted(self.fallbacks.items())),
            ((k, w, s) for (k, w), s in sorted(self.values.items())),
        )
        write_artifact(path, "SIGMA", rows)

    @classmethod
    def load(cls, path) -> "MixedSmoothingParams":
        """Read a SIGMA file; every k needs its fallback row (w = -1)."""
        reader = ArtifactReader(path, "SIGMA")
        k, w, s = reader.rows("iif")
        reader.check(k >= 1, "skip distance below 1")
        reader.check(w >= -1, "word id below -1")
        reader.check_unit(s, "weight")
        reader.check_unique(k, w)
        pooled = w == -1
        fallbacks = dict(zip(k[pooled].tolist(), s[pooled].tolist()))
        reader.check(np.isin(k, list(fallbacks)), "no fallback row (w = -1) for this k")
        keys = zip(k[~pooled].tolist(), w[~pooled].tolist())
        return cls(dict(zip(keys, s[~pooled].tolist())), fallbacks)


def _row_weights(params: MixedSmoothingParams, k: int, keys: np.ndarray, V: int) -> np.ndarray:
    """sigma_k(w) for w = 0..V-1: the weight of `params`, or its k fallback,
    where the level stores row w (a pair key w*V + w2 in `keys`), and 1.0
    where it does not.  Weights of ids outside [0, V) are ignored."""
    weights = np.full(V, params.fallbacks[k])
    for (j, w), sigma in params.values.items():
        if j == k and 0 <= w < V:
            weights[w] = sigma
    stored = np.zeros(V, dtype=bool)
    stored[keys // V] = True
    weights[~stored] = 1.0
    return weights


def _lookup(keys: np.ndarray, vals: np.ndarray, query: np.ndarray, default: float = 0.0):
    """vals at each query key found in the sorted int64 `keys`
    (corpus._find), and `default` where it is not stored."""
    pos = _find(keys, query)
    out = np.full(len(query), default)
    hit = pos >= 0
    out[hit] = vals[pos[hit]]
    return out


def _sigma_em(a: np.ndarray, b: np.ndarray, n: np.ndarray, groups, n_groups: int):
    """Shared 1-D mixture-weight EM, one independent weight per group.

    Maximizes sum n * log((1-s) a + s b) over s per group, from s = 0.5.
    Events with a = b = 0 must be filtered out beforehand.  EM converges
    only sublinearly when the optimum sits at an endpoint, so after the
    capped iteration the endpoints are compared exactly and win on strict
    improvement; the fitted weight therefore never loses to s = 0 or s = 1.
    Returns the per-group weights and a mask of groups that had any data.
    """
    den = np.bincount(groups, weights=n, minlength=n_groups)
    seen = den > 0.0
    s = np.full(n_groups, 0.5)
    for _ in range(_FIT_MAX_ITERS):
        se = s[groups]
        mix = (1.0 - se) * a + se * b
        r = np.zeros_like(mix)
        np.divide(se * b, mix, out=r, where=mix > 0.0)
        num = np.bincount(groups, weights=n * r, minlength=n_groups)
        new_s = np.where(seen, num / np.where(seen, den, 1.0), s)
        delta = float(np.max(np.abs(new_s - s))) if n_groups else 0.0
        s = new_s
        if delta < _FIT_TOL:
            break

    def group_loglik(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        se = values[groups]
        mix = (1.0 - se) * a + se * b
        ok = mix > 0.0
        terms = np.where(ok, n * np.log(np.where(ok, mix, 1.0)), 0.0)
        ll = np.bincount(groups, weights=terms, minlength=n_groups)
        dead = np.bincount(groups, weights=(~ok).astype(float), minlength=n_groups)
        return ll, dead == 0.0

    ll_fit, _ = group_loglik(s)
    for endpoint in (0.0, 1.0):
        ll_end, valid = group_loglik(np.full(n_groups, endpoint))
        better = seen & valid & (ll_end > ll_fit)
        s = np.where(better, endpoint, s)
        ll_fit = np.where(better, ll_end, ll_fit)
    return s, seen


def fit_interpolation(
    ml: MLBigram,
    base,
    validation: list[TokenSentence],
    tied: bool = False,
) -> MixedSmoothingParams:
    """Fit per-row weights for mixing ML bigram rows with the base model.

    Each row's weight maximizes the held-out likelihood of events
    conditioned on that row; the pooled fallback is fit on all events.
    Rows with no ML mass at all fit to 1, so queries against them reduce to
    the base model.  With `tied` a single pooled weight is shared by every
    row instead.
    """
    windows = _event_windows(validation, 1)
    if not len(windows):
        raise DataError("empty validation corpus")
    # The distinct (w1, w2) rows in sorted order, with their counts.
    pairs, inverse = _distinct_rows(windows)
    w1, n = pairs[:, 0], np.bincount(inverse, minlength=len(pairs)).astype(np.float64)
    a, b = _batch_probs(ml, pairs), _batch_probs(base, pairs)
    keep = (a > 0.0) | (b > 0.0)
    w1, n, a, b = w1[keep], n[keep], a[keep], b[keep]

    s0, _ = _sigma_em(a, b, n, np.zeros(len(w1), dtype=np.int64), 1)
    fallbacks = {1: float(s0[0])}
    if tied:
        return MixedSmoothingParams({}, fallbacks)
    n_groups = int(w1.max()) + 1 if len(w1) else 1
    s, seen = _sigma_em(a, b, n, w1, n_groups)
    return MixedSmoothingParams({(1, int(w)): float(s[w]) for w in np.nonzero(seen)[0]}, fallbacks)


class InterpolatedBigram:
    """Bigram rows mixed with a base model; the cascade's bottom level.  It
    reads the k = 1 weights of `params` when it is built (_row_weights), and
    checks ids against the ML bigram's V."""

    context_size = 1

    def __init__(self, ml: MLBigram, base, params: MixedSmoothingParams):
        self.ml = ml
        self.base = base
        self.params = params
        self._sigmas = _row_weights(params, 1, ml.keys, ml.vocab_size)

    @functools.cached_property
    def _sigma(self) -> list[float]:
        return self._sigmas.tolist()

    def prob(self, context: tuple[int, ...], word: int) -> float:
        try:
            (w1,) = context
        except ValueError:  # a longer context: the level reads its last id
            w1 = context[-1]
            context = (w1,)
        ml = self.ml
        V = ml.vocab_size
        if not 0 <= w1 < V > word >= 0:
            raise id_out_of_range((w1, word), V)
        s = self._sigma[w1]
        return (1.0 - s) * ml.pairs.get(w1 * V + word, 0.0) + s * self.base.prob(context, word)

    def probs(self, rows: np.ndarray) -> np.ndarray:
        _check_row_ids(rows, self.ml.vocab_size)
        s = self._sigmas[rows[:, 0]]
        return (1.0 - s) * self.ml.probs(rows) + s * _batch_probs(self.base, rows)


class SmoothedMixedLevel:
    """A mixed-order level with discounted skip weights over a lower level.

    Each skip-k prediction keeps (1 - sigma_k(w_{t-k})) of its mixture
    weight; the discounted mass delegates to the lower level's prediction
    for the context truncated by one word.  Words with no stored skip-k row
    delegate that component entirely.

    The level reads its model's mixing weights, the weights of `params`
    (_row_weights) and the vocabulary size that bounds its ids when it is
    built; later changes to them do not reach it.  `prob` takes the lower
    level's prediction as `lower_p` when the caller has it (the row scorer,
    _score_rows), and asks the lower level otherwise; `probs` scores the
    lower level on its rows in one batch (_batch_probs).
    """

    def __init__(self, model: MixedOrderModel, params: MixedSmoothingParams, lower):
        if getattr(lower, "context_size", None) != model.order - 1:
            raise ParameterError(
                "lower level must condition on %d words" % (model.order - 1)
            )
        self.model = model
        self.params = params
        self.lower = lower
        self.context_size = model.order
        self._vocab_size = V = model.vocab_size
        # Per k: lambda_k(w), sigma_k(w) and the skip-k pairs, as arrays for
        # probs; _skips holds them as Python floats and a flat dict for prob.
        self._columns = [
            (model.lambdas[:, k - 1].copy(), _row_weights(params, k, keys, V), keys, vals)
            for k, (keys, vals) in enumerate(zip(model.keys, model.vals), start=1)
        ]

    @functools.cached_property
    def _skips(self) -> list[tuple[list[float], list[float], dict[int, float]]]:
        return [
            (lambdas.tolist(), sigmas.tolist(), _key_dict(keys, vals))
            for lambdas, sigmas, keys, vals in self._columns
        ]

    def prob(self, context: tuple[int, ...], word: int, lower_p: float | None = None) -> float:
        m = self.context_size
        if len(context) != m:
            raise ParameterError(
                "context must hold exactly %d ids, got %d" % (m, len(context))
            )
        V = self._vocab_size
        if not 0 <= min(context) <= max(context) < V > word >= 0:
            raise id_out_of_range((*context, word), V)
        direct = 0.0
        leftover = 0.0
        declined = 1.0
        # Component k reads w_{t-k}, the k-th id from the end of the context.
        for w_ctx, (lambdas, sigmas, pairs) in zip(reversed(context), self._skips):
            lam = lambdas[w_ctx]
            weight = declined * lam
            sigma = sigmas[w_ctx]
            direct += (1.0 - sigma) * weight * pairs.get(w_ctx * V + word, 0.0)
            leftover += sigma * weight
            declined *= 1.0 - lam
        if lower_p is None:
            lower_p = self.lower.prob(context[1:], word)
        return direct + leftover * lower_p

    def probs(self, rows: np.ndarray) -> np.ndarray:
        m, V = self.context_size, self._vocab_size
        _check_row_ids(rows, V)
        words = rows[:, m]
        direct, leftover, declined = np.zeros(len(rows)), np.zeros(len(rows)), np.ones(len(rows))
        for k, (lambdas, sigmas, keys, vals) in enumerate(self._columns, start=1):
            w_ctx = rows[:, m - k]
            lam = lambdas[w_ctx]
            weight = declined * lam
            sigma = sigmas[w_ctx]
            direct += (1.0 - sigma) * weight * _lookup(keys, vals, w_ctx * V + words)
            leftover += sigma * weight
            declined *= 1.0 - lam
        return direct + leftover * _batch_probs(self.lower, rows)


def fit_mixed_smoothing(
    model: MixedOrderModel,
    lower,
    validation: list[TokenSentence],
    tied: bool = False,
) -> MixedSmoothingParams:
    """Fit the per-row discount weights of one mixed-order level.

    The hidden outcome per held-out event is which skip component fired and
    whether it predicted directly or delegated; EM runs all (k, w) weights
    jointly, with pooled per-k weights fit alongside as fallbacks for rows
    never exercised by the validation data.  With `tied` only the pooled
    per-k weights are kept.

    The weights are held as an (m, V) array and every per-event array is
    component-major, (m, events), like the event table; the per-event total
    over components keeps the bits of a row-major `.sum(axis=1)`
    (aggregate._class_sums).  The lower level scores each distinct truncated
    event once, in one batch (_batch_probs).
    """
    m = model.order
    V = model.vocab_size
    windows = _event_windows(validation, m)
    if not len(windows):
        raise DataError("empty validation corpus")
    table = _EventTable(windows, V, model)
    weight, mk = _components(model.lambdas, table.vals, table)
    plow = _batch_probs(lower, windows)
    ctx = table.ctx
    rows = np.arange(m)[:, None]

    sig = np.full((m, V), 0.5)
    sig0 = np.full(m, 0.5)
    seen = [np.bincount(ctx[k], minlength=V) > 0 for k in range(m)]

    def e_step(se: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior shares (direct, delegated) of each event's components
        under discount weights `se`, which broadcast against (m, events)."""
        direct = (1.0 - se) * weight * mk
        deleg = se * weight * plow
        tot = _class_sums(direct) + _class_sums(deleg)
        ok = tot > 0.0
        rd = np.divide(direct, tot, out=np.zeros_like(direct), where=ok)
        rl = np.divide(deleg, tot, out=np.zeros_like(deleg), where=ok)
        return rd, rl

    for _ in range(_FIT_MAX_ITERS):
        rd, rl = e_step(sig[rows, ctx])
        rd0, rl0 = e_step(sig0[:, None])
        delta = 0.0
        for k in range(m):
            num = np.bincount(ctx[k], weights=rl[k], minlength=V)
            denk = np.bincount(ctx[k], weights=rl[k] + rd[k], minlength=V)
            posk = denk > 0.0
            new_row = np.where(posk, num / np.where(posk, denk, 1.0), sig[k])
            delta = max(delta, float(np.max(np.abs(new_row - sig[k]))))
            sig[k] = new_row

            denk0 = float((rl0[k] + rd0[k]).sum())
            if denk0 > 0.0:
                new0 = float(rl0[k].sum()) / denk0
                delta = max(delta, abs(new0 - sig0[k]))
                sig0[k] = new0
        if delta < _FIT_TOL:
            break

    values: dict[tuple[int, int], float] = {}
    if not tied:
        for k in range(m):
            words = np.nonzero(seen[k])[0]
            values.update(zip(((k + 1, w) for w in words.tolist()), sig[k, words].tolist()))
    for k in range(m):
        # Rows the model never stored delegate their whole component.
        for w in np.setdiff1d(np.arange(V), table.keys[k] // V).tolist():
            values[(k + 1, w)] = 1.0
    fallbacks = dict(zip(range(1, m + 1), sig0.tolist()))
    return MixedSmoothingParams(values, fallbacks)


def good_turing_discounts(table: Mapping, k_gt: int = DEFAULT_GT_THRESHOLD) -> dict[int, float]:
    """Good-Turing discount ratios d_r for counts r = 1..k_gt.

    Uses adjusted counts r* = (r+1) n_{r+1} / n_r normalized so that counts
    above the threshold are not discounted.  Whenever a required
    count-of-counts is zero or the ratio leaves (0, 1], that r falls back to
    no discounting with a warning.
    """
    if not table:
        raise DataError("empty count table")
    if k_gt < 1:
        raise ParameterError("discount threshold must be >= 1")
    n_r = Counter(table.values())
    discounts: dict[int, float] = {}
    big_a = None
    if n_r[1] > 0 and n_r[k_gt + 1] > 0:
        big_a = (k_gt + 1) * n_r[k_gt + 1] / n_r[1]
    for r in range(1, k_gt + 1):
        d = 1.0
        if big_a is None or big_a >= 1.0 or n_r[r] == 0 or n_r[r + 1] == 0:
            warnings.warn(
                "count-of-counts too sparse for discounting at r=%d; using d=1" % r
            )
        else:
            r_star = (r + 1) * n_r[r + 1] / n_r[r]
            d = (r_star / r - big_a) / (1.0 - big_a)
            if not 0.0 < d <= 1.0:
                warnings.warn(
                    "discount ratio %.4f at r=%d outside (0, 1]; using d=1" % (d, r)
                )
                d = 1.0
        discounts[r] = d
    return discounts


def save_discounts(path, discounts: dict[int, float]) -> None:
    write_artifact(path, "GT", sorted(discounts.items()))


def load_discounts(path) -> dict[int, float]:
    reader = ArtifactReader(path, "GT")
    r, d = reader.rows("if")
    reader.check(r >= 1, "count below 1")
    reader.check((d > 0.0) & (d <= 1.0), "discount outside (0, 1]")
    reader.check_unique(r)
    return dict(zip(r.tolist(), d.tolist()))


class _KatzLevel:
    """Shared discounted-count machinery for Katz backoff levels.

    One pass over the table's entries in summation order (CountTable.ranked)
    gives each stored n-gram its probability and each context its backoff
    weight, alpha, keyed by the base-V int key of their ids
    (corpus._row_keys), as counting keys them.  Entries counted fewer than
    `truncation` times are dropped after the context totals are taken from
    the whole table, so their mass goes to the backoff model rather than to
    the survivors.

    Contexts whose backoff puts no mass at all outside the seen successors
    have nowhere to send the discounted leftover; they revert to the plain
    ML distribution over their stored successors, with alpha 0, so the row
    still sums to one.

    The backoff model scores each stored n-gram once, in one batch
    (_batch_probs), when the level is built.  `keys` are the sorted keys of
    the stored n-grams, for the searches of the row and batch scorers
    (corpus._find); `key_p` holds their probabilities in that order, and
    `context_keys` and `context_alphas` the sorted context keys and their
    alphas.  The batch scorers read these arrays.  The scalar calls read
    the flat dicts `seen` {key: p} and `alphas` {context key: alpha}
    (corpus._key_dict), built from the arrays on first use.  A table may be
    empty; an id outside [0, V) is a ParameterError, as it would alias
    another n-gram's key.
    """

    def __init__(
        self,
        table: CountTable,
        discounts: dict[int, float],
        k_gt: int,
        backoff,
        vocab_size: int,
        truncation: int = 1,
    ):
        _check_ids(table.ids, vocab_size)
        _check_key_room(vocab_size, table.ids.shape[1])
        ranked, n = table.ranked()
        starts, lengths = _runs(ranked)
        total = np.repeat(np.add.reduceat(n, starts), lengths)
        # Sorted, as the table's ids are.
        self.keys = _row_keys(table.ids, 0, vocab_size)
        if truncation > 1:
            kept = n >= truncation
            ranked, n, total = ranked[kept], n[kept], total[kept]
            starts, lengths = _runs(ranked)
            self.keys = self.keys[table.n >= truncation]
        backoff_p = _batch_probs(backoff, ranked)
        keys = _row_keys(ranked, 0, vocab_size)
        del ranked  # the rest reads counts, keys and row starts only
        # Counts above k_gt, and counts with no ratio, are not discounted.
        self.discounts = {r: d for r, d in discounts.items() if r <= k_gt}
        p = np.ones(len(n))
        for r, d in self.discounts.items():
            p[n == r] = d
        p *= n
        p /= total
        # A row's leftover and backoff mass are added in the order of its
        # stored successors, as a loop over the row adds them, and
        # 1 - p1 - p2 - ... is 1 + (-p1) + (-p2) + ..., bit for bit.
        leftover = np.maximum(_run_sums(1.0, -p, starts, lengths), 0.0)
        unseen = 1.0 - _run_sums(0.0, backoff_p, starts, lengths)
        spent, ml = leftover <= 0.0, unseen <= 0.0
        ml &= ~spent
        useful = ~(spent | ml)
        alphas = np.zeros(len(starts))
        alphas[useful] = leftover[useful] / unseen[useful]
        ml = np.repeat(ml, lengths)
        p[ml] = n[ml] / np.repeat(np.add.reduceat(n, starts), lengths)[ml]
        self.key_p = p[np.argsort(keys)]
        self.context_keys, self.context_alphas = keys[starts] // vocab_size, alphas

    @functools.cached_property
    def seen(self) -> dict[int, float]:
        return _key_dict(self.keys, self.key_p)

    @functools.cached_property
    def alphas(self) -> dict[int, float]:
        return _key_dict(self.context_keys, self.context_alphas)


def _runs(ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each context's run of ranked n-grams begins, and its length."""
    ctx = ranked[:, :-1]
    starts = np.flatnonzero(np.diff(ctx, axis=0, prepend=ctx[:1] - 1).any(axis=1))
    return starts, np.diff(starts, append=len(ranked))


def _run_sums(first: float, values: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Per run values[start : start + length]: first + v0 + v1 + ..., added
    left to right as a loop over the run adds them.  np.add.reduceat adds in
    another order, which can move the last bits; np.cumsum along a row does
    not.  Runs of one length are summed together, as the rows of one array."""
    order = np.argsort(lengths, kind="stable")
    sums = np.empty(len(starts))
    for runs in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if not len(runs):
            continue
        length = int(lengths[runs[0]])
        block = np.empty((len(runs), length + 1))
        block[:, 0] = first
        block[:, 1:] = values[starts[runs, None] + np.arange(length)]
        sums[runs] = np.cumsum(block, axis=1)[:, -1]
    return sums


class KatzBigram:
    """Good-Turing discounted bigrams backing off to ML unigrams."""

    context_size = 1

    def __init__(
        self,
        counts: NgramCounts,
        k_gt: int = DEFAULT_GT_THRESHOLD,
        discounts: dict[int, float] | None = None,
    ):
        if not counts.bigrams:
            raise DataError("no bigram events")
        if discounts is None:
            discounts = good_turing_discounts(counts.bigrams, k_gt)
        self.unigram = MLUnigram.from_counts(counts)
        self.vocab_size = counts.vocab_size
        self.level = _KatzLevel(counts.bigrams, discounts, k_gt, self.unigram, self.vocab_size)

    def prob(self, context: tuple[int, ...], word: int) -> float:
        v = context[-1]
        V = self.vocab_size
        if not 0 <= v < V > word >= 0:
            raise id_out_of_range((v, word), V)
        p = self.level.seen.get(v * V + word)
        if p is not None:
            return p
        return self.level.alphas.get(v, 1.0) * self.unigram.prob((), word)

    def probs(self, rows: np.ndarray) -> np.ndarray:
        V, level = self.vocab_size, self.level
        _check_row_ids(rows, V)
        pos = _find(level.keys, _row_keys(rows, 0, V))
        seen = pos >= 0
        p = np.empty(len(rows))
        p[seen] = level.key_p[pos[seen]]
        unseen = rows[~seen]
        alphas = _lookup(level.context_keys, level.context_alphas, unseen[:, 0], 1.0)
        p[~seen] = alphas * self.unigram.probs(unseen[:, 1:])
        return p


class KatzTrigram:
    """Discounted ML trigrams delegating unseen predictions to a backoff
    model, either the Katz bigram/unigram chain or a smoothed order-2
    cascade.

    Trigrams counted fewer than `truncation` times are not stored (see
    _KatzLevel); with no stored trigram every event backs off, with alpha 1.
    Ids are checked against `vocab_size`, the base of the level's keys.
    The level keeps `k_gt` and `truncation`, which a saved cascade writes,
    as its _KatzLevel keeps the discounts.  `prob_and_backoff` takes the
    backoff's prediction as `backoff_p` when the caller has it (the row
    scorer, _score_rows), and asks the backoff otherwise.

    `probs_and_backoff(rows, backoff_p=None)` is its batch twin: the
    probabilities and backoff flags of distinct int64 rows (u, v, w), by
    the same float operations, so with the same bits.  `backoff_p` holds
    one backoff probability per row, read only at the rows the level does
    not store (a truncation sweep scores them once for every threshold,
    sweep_backoff_probs); without it the backoff scores those rows in one
    batch (_batch_probs).  `probs` is its probabilities alone.
    """

    context_size = 2

    def __init__(
        self,
        trigrams: Mapping[tuple[int, int, int], int],
        backoff,
        vocab_size: int,
        k_gt: int = DEFAULT_GT_THRESHOLD,
        discounts: dict[int, float] | None = None,
        truncation: int = 1,
    ):
        if getattr(backoff, "context_size", 99) > 2:
            raise ParameterError("backoff model may condition on at most 2 words")
        if discounts is None:
            discounts = good_turing_discounts(trigrams, k_gt)
        self.backoff = backoff
        self.vocab_size = vocab_size
        self.k_gt = k_gt
        self.truncation = truncation
        table = CountTable.of(trigrams, 3)
        self.level = _KatzLevel(table, discounts, k_gt, backoff, vocab_size, truncation)

    def prob_and_backoff(
        self, context: tuple[int, ...], word: int, backoff_p: float | None = None
    ) -> tuple[float, bool]:
        u, v = context[-2], context[-1]
        V = self.vocab_size
        if not 0 <= u < V > v >= 0 <= word < V:  # all three in [0, V)
            raise id_out_of_range((u, v, word), V)
        key = u * V + v
        level = self.level
        p = level.seen.get(key * V + word)
        if p is not None:
            return p, False
        if backoff_p is None:
            backoff_p = self.backoff.prob((u, v)[2 - self.backoff.context_size :], word)
        return level.alphas.get(key, 1.0) * backoff_p, True

    def prob(self, context: tuple[int, ...], word: int) -> float:
        return self.prob_and_backoff(context, word)[0]

    def probs_and_backoff(
        self, rows: np.ndarray, backoff_p: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        V, level = self.vocab_size, self.level
        _check_row_ids(rows, V)
        keys = _row_keys(rows, 0, V)
        pos = _find(level.keys, keys)
        backed = pos < 0
        p = np.empty(len(rows))
        p[~backed] = level.key_p[pos[~backed]]
        lower = _batch_probs(self.backoff, rows[backed]) if backoff_p is None else backoff_p[backed]
        alphas = _lookup(level.context_keys, level.context_alphas, keys[backed] // V, 1.0)
        p[backed] = alphas * lower
        return p, backed

    def probs(self, rows: np.ndarray) -> np.ndarray:
        return self.probs_and_backoff(rows)[0]


_SCORE = np.dtype([("p", np.float64), ("backed", np.bool_)])


def _score_rows(model, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and backoff flags of int64 rows (context..., word), one
    scalar call per row and level: evaluation's scoring path.

    A SmoothedCascade is scored as its top level, which gives the values
    and flags of its prob_and_backoff.  Rows wider than the model's
    context_size + 1 keep their last columns, and their distinct
    truncations are scored once and gathered back; rows of exactly that
    width should be distinct.  A mixed level first scores its lower level
    on the rows and a Katz trigram its backoff on the rows it has not
    stored (a search of the level's sorted keys), each recursively, and
    passes each row's value into its scalar call.  Every other model makes
    one scalar prob_and_backoff (or prob) call per row.  A value passed in
    is the float that the scalar call would compute, so every result is
    that of the scalar call.
    """
    if isinstance(model, SmoothedCascade):
        return _score_rows(model.top, rows)
    width = model.context_size + 1
    if rows.shape[1] > width:
        narrow, inverse = _distinct_rows(rows[:, rows.shape[1] - width :])
        p, backed = _score_rows(model, narrow)
        return p[inverse], backed[inverse]
    n = len(rows)
    if isinstance(model, SmoothedMixedLevel):
        _check_row_ids(rows, model._vocab_size)
        lower_p, _ = _score_rows(model.lower, rows)
        return np.fromiter(_per_row(model.prob, rows, lower_p), np.float64, n), np.zeros(n, bool)
    if isinstance(model, KatzTrigram):
        _check_row_ids(rows, model.vocab_size)
        unseen = _find(model.level.keys, _row_keys(rows, 0, model.vocab_size)) < 0
        backoff_p = np.full(n, np.nan)  # only unseen rows read theirs
        backoff_p[unseen], _ = _score_rows(model.backoff, rows[unseen])
        scores = np.fromiter(_per_row(model.prob_and_backoff, rows, backoff_p), _SCORE, n)
        return scores["p"], scores["backed"]
    scorer = getattr(model, "prob_and_backoff", None)
    if scorer is None:
        return np.fromiter(_per_row(model.prob, rows), np.float64, n), np.zeros(n, bool)
    scores = np.fromiter(_per_row(scorer, rows), _SCORE, n)
    return scores["p"], scores["backed"]


def _batch_probs(model, rows: np.ndarray) -> np.ndarray:
    """The probability of each int64 row (context..., word) under `model`.

    Rows wider than the model's context_size + 1 keep their last columns,
    and their distinct truncations are scored once and gathered back, as
    _score_rows does.  A model with a batch scorer `probs` scores them in
    one call; any other model (the aggregate base, a cascade) goes through
    _score_rows, one scalar call per row.
    """
    width = model.context_size + 1
    if rows.shape[1] > width:
        narrow, inverse = _distinct_rows(rows[:, rows.shape[1] - width :])
        return _batch_probs(model, narrow)[inverse]
    scorer = getattr(model, "probs", None)
    return _score_rows(model, rows)[0] if scorer is None else scorer(rows)


def _check_row_ids(rows: np.ndarray, vocab_size: int) -> None:
    """The error of the first row with an id outside [0, V), as its scalar
    call would raise it before any lower level is asked."""
    bad = ((rows < 0) | (rows >= vocab_size)).any(axis=1)
    if bad.any():
        raise id_out_of_range(rows[int(bad.argmax())].tolist(), vocab_size)


def build_katz_trigram(
    counts: NgramCounts,
    backoff,
    k_gt: int = DEFAULT_GT_THRESHOLD,
    truncation: int = 1,
    discounts: dict[int, float] | None = None,
) -> KatzTrigram:
    """Katz trigram level from (optionally truncated) counts.

    Trigrams below the truncation threshold are not stored, but context
    totals and the discount statistics come from the full table, so the
    dropped probability mass is redistributed to the backoff model rather
    than inflating the survivors.  When no trigram reaches the threshold,
    the level stores none and every event backs off.
    """
    if truncation < 1:
        raise ParameterError("truncation threshold must be >= 1")
    if not counts.trigrams:
        raise DataError("empty trigram table")
    return KatzTrigram(counts.trigrams, backoff, counts.vocab_size, k_gt, discounts, truncation)


def sweep_backoff_probs(counts: NgramCounts, backoff, rows: np.ndarray, t_max: int) -> np.ndarray:
    """`backoff`'s probability of each distinct trigram row that a Katz
    trigram truncated at some t <= t_max does not store: the rows counted
    fewer than t_max times.  The other rows hold NaN; no such level reads
    them (KatzTrigram.probs_and_backoff), so one array serves every t."""
    V = counts.vocab_size
    _check_key_room(V, 3)
    table = counts.trigrams
    stored = _lookup(_row_keys(table.ids, 0, V), table.n, _row_keys(rows, 0, V))
    backs_off = stored < t_max
    p = np.full(len(rows), np.nan)
    p[backs_off] = _batch_probs(backoff, rows[backs_off])
    return p


class SmoothedCascade:
    """A fitted chain of smoothing levels with an aggregate base.

    `level_stack` holds the levels from the bottom: an InterpolatedBigram
    over the aggregate base, then SmoothedMixedLevels of orders 2, 3, ...,
    each over the one before it; `trigram` is an optional KatzTrigram over
    the last of them.  The cascade is those levels and the counts they were
    built from: `base`, `top`, `context_size` and `vocab_size` are read from
    them.  fit and load_cascade build the levels.
    """

    def __init__(self, counts: NgramCounts, level_stack: list, trigram: KatzTrigram | None = None):
        self.counts = counts
        self.level_stack = level_stack
        self.trigram = trigram
        self.base = level_stack[0].base
        self.vocab_size = level_stack[0].ml.vocab_size
        self.top = level_stack[-1] if trigram is None else trigram
        self.context_size = self.top.context_size

    def prob(self, context: tuple[int, ...], word: int) -> float:
        return self.top.prob(context, word)

    def prob_and_backoff(self, context: tuple[int, ...], word: int):
        if self.trigram is not None:
            return self.trigram.prob_and_backoff(context, word)
        return self.top.prob(context, word), False

    @classmethod
    def fit(
        cls,
        counts: NgramCounts,
        base: AggregateModel,
        mixed_models: list[MixedOrderModel],
        validation: list[TokenSentence],
        with_trigram: bool = False,
        gt_threshold: int = DEFAULT_GT_THRESHOLD,
        truncation: int = 1,
        tied: bool = False,
    ) -> "SmoothedCascade":
        """Fit all smoothing parameters bottom-up on the validation corpus,
        each mixed level's over the level below it.

        `mixed_models` must be trained models of consecutive orders 2..m
        (possibly empty for a bigram-only cascade).
        """
        orders = [mm.order for mm in mixed_models]
        if orders != list(range(2, 2 + len(mixed_models))):
            raise ParameterError(
                "mixed models must have consecutive orders starting at 2, got %r"
                % orders
            )
        ml = MLBigram.from_counts(counts)
        levels = [InterpolatedBigram(ml, base, fit_interpolation(ml, base, validation, tied=tied))]
        for model in mixed_models:
            params = fit_mixed_smoothing(model, levels[-1], validation, tied=tied)
            levels.append(SmoothedMixedLevel(model, params, levels[-1]))
        trigram = None
        if with_trigram:
            trigram = build_katz_trigram(counts, levels[-1], gt_threshold, truncation)
        return cls(counts, levels, trigram)

    def save(self, manifest_path, out_dir, counts_path, base_path, model_paths) -> None:
        """Write the cascade's files and its manifest, which load_cascade reads.

        The weights go into out_dir: sigma_bigram.txt, sigma_mixed<k>.txt for
        each mixed level k and, with a trigram level, the Good-Turing
        discounts in gt_trigram.txt.  The counts, the base and the mixed
        models (`model_paths`, one per mixed level) are files the caller
        wrote.  The manifest stores every path relative to its own directory;
        all are checked for whitespace before any file is written.
        """
        if len(model_paths) != len(self.level_stack) - 1:
            raise ParameterError("expected %d mixed model paths, got %d"
                                 % (len(self.level_stack) - 1, len(model_paths)))
        base_dir = os.path.dirname(os.path.abspath(manifest_path))

        def rel(p: str) -> str:
            r = os.path.relpath(os.path.abspath(p), base_dir)
            if any(ch.isspace() for ch in r):
                raise ParameterError("manifest paths must not contain whitespace: %r" % r)
            return r

        weights = [level.params for level in self.level_stack]
        names = ["sigma_bigram.txt"] + ["sigma_mixed%d.txt" % k for k in range(2, len(weights) + 1)]
        sigma_paths = [os.path.join(out_dir, name) for name in names]
        gt_path = os.path.join(out_dir, "gt_trigram.txt")
        rows = [("counts", rel(counts_path)), ("base", "aggregate", rel(base_path)),
                ("level", 1, "bigram", rel(sigma_paths[0]))]
        for k, model_path in enumerate(model_paths, start=2):
            rows.append(("level", k, "mixed", rel(model_path), rel(sigma_paths[k - 1])))
        if self.trigram is not None:
            rows.append(("trigram", rel(gt_path), "kgt=%d" % self.trigram.k_gt,
                         "truncate=%d" % self.trigram.truncation))
        os.makedirs(out_dir, exist_ok=True)
        for params, path in zip(weights, sigma_paths):
            params.save(path)
        if self.trigram is not None:
            save_discounts(gt_path, self.trigram.level.discounts)
        write_artifact(manifest_path, "CASCADE", rows)


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def _load_weights(path, m: int, V: int) -> MixedSmoothingParams:
    """The SIGMA file of a level that reads k = 1..m; a DataError names it
    unless it holds a fallback for exactly those k and word ids below V
    (the file has no V of its own)."""
    params = MixedSmoothingParams.load(path)
    if sorted(params.fallbacks) != list(range(1, m + 1)):
        raise DataError("%s: expected sigma fallbacks for k = 1..%d" % (path, m))
    bad = [w for _, w in params.values if w >= V]
    if bad:
        raise DataError("%s: word id %d out of range [0, %d)" % (path, bad[0], V))
    return params


def load_cascade(path, loaded_counts: tuple[str, NgramCounts] | None = None) -> SmoothedCascade:
    """Assemble a fitted cascade from the manifest that SmoothedCascade.save
    wrote and the files it names; these two are the only code that knows
    the cascade's files.

    Lines come in the order written: counts, base, levels 1, 2, ... and the
    optional trigram; a line out of that order is a DataError.  Each level
    is built when its line is read, on the level before it.  Level k holds a
    sigma file with a fallback for each skip distance 1..k and, from k = 2,
    an order-k mixed model; every model agrees with the counts on the
    vocabulary size, and every weight names an id below it.
    `loaded_counts` is a counts file the caller has read, as (path, table);
    when the manifest names that same file, its table is used instead of a
    second read.
    """
    reader = ArtifactReader(path, "CASCADE")
    base_dir = os.path.dirname(os.path.abspath(path))
    counts = base = trigram = None
    levels: list = []
    for lineno, fields in reader.records():
        files = [os.path.join(base_dir, f) for f in fields]
        shape = (fields[0], len(fields))
        if shape == ("counts", 2) and counts is None:
            if loaded_counts is not None and _same_file(loaded_counts[0], files[1]):
                counts = loaded_counts[1]
            else:
                counts = NgramCounts.load(files[1])
        elif shape == ("base", 3) and fields[1] == "aggregate" and counts and not base:
            base = AggregateModel.load(files[2])
            if base.vocab_size != counts.vocab_size:
                sizes = (base.vocab_size, counts.vocab_size)
                raise reader.error(lineno, "V=%d here but %d in the counts" % sizes)
        elif shape == ("level", 4) and fields[1:3] == ["1", "bigram"] and base and not levels:
            params = _load_weights(files[3], 1, counts.vocab_size)
            levels.append(InterpolatedBigram(MLBigram.from_counts(counts), base, params))
        elif shape == ("level", 5) and fields[2] == "mixed" and levels and not trigram:
            k, V = 1 + len(levels), counts.vocab_size
            model, params = MixedOrderModel.load(files[3]), _load_weights(files[4], k, V)
            if (fields[1], model.order, model.vocab_size) != (str(k), k, V):
                expected = "expected level %d: an order-%d model over V=%d" % (k, k, V)
                raise reader.error(lineno, expected)
            levels.append(SmoothedMixedLevel(model, params, levels[-1]))
        elif shape == ("trigram", 4) and levels and not trigram:
            opts = reader.key_values(fields[2:], lineno, kgt=positive, truncate=positive)
            trigram = build_katz_trigram(counts, levels[-1], opts["kgt"], opts["truncate"],
                                         load_discounts(files[1]))
        else:
            raise reader.error(lineno, "unexpected manifest line %r" % " ".join(fields))
    if not levels:
        raise reader.error(1, "the manifest needs counts, base and level 1 lines")
    return SmoothedCascade(counts, levels, trigram)
