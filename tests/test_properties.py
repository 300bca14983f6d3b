"""Property tests on random tiny corpora: ingest (vocabulary and
tokenization) against per-token loops; the artifact reader's tagged and
counted blocks against a per-line reading; the array implementations of
counting, the mixed-order event table, the aggregate E-step (two-pass and
row-major references), both smoothing-weight fits and evaluation against
plain loop references, the distinct-row helper and the artifact key check
against numpy's unique, the sorted-key search against a dict lookup and
the Katz run sums against a left-to-right loop; every level's scalar prob and
the Katz alphas against reference formulas, bit for bit, the row scorer
against the scalar calls, bit for bit, and how often it calls each level;
the messages for out-of-range ids; row normalisation of every cascade level
and Katz mass conservation; and save -> load -> save byte identity of every
artifact type."""

import math
import os
import re
import tempfile
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import markovmix as mm
from markovmix import aggregate as ag
from markovmix import evaluation as ev
from markovmix import mixedorder as mo
from markovmix import smoothing as sm
from markovmix.corpus import (
    _RESERVED,
    END_ID,
    START_ID,
    UNK_ID,
    NgramCounts,
    _distinct_rows,
    _event_windows,
    _find,
)
from markovmix.artifact import ArtifactReader, _table, read_text
from markovmix.errors import DataError, NumericError, ParameterError

from conftest import count_table, mixed_model, model_rows, sigma_for
from corpusgen import generate_lines
from test_corpus import make_vocab

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def corpora(draw, min_sentences=0):
    """(V, sentences): V in 4..12, up to 6 sentences of up to 7 ids each,
    empty sentences included."""
    V = draw(st.integers(4, 12))
    word = st.integers(0, V - 1)
    sentences = draw(
        st.lists(st.lists(word, max_size=7), min_size=min_sentences, max_size=6)
    )
    return V, sentences


def add_sentence(self, sentence):
    """The per-sentence counting loop that count_ngrams replaced, once the
    method NgramCounts.add_sentence: every event of one sentence added to
    Counter tables."""
    pad = self.pad
    padded = [START_ID] * pad + list(sentence) + [END_ID]
    for i in range(pad, len(padded)):
        w = padded[i]
        self.unigrams[w] += 1
        if self.max_order >= 2:
            self.bigrams[(padded[i - 1], w)] += 1
        if self.max_order >= 3:
            self.trigrams[(padded[i - 2], padded[i - 1], w)] += 1
        for k in self.skip_ks:
            self.skips[k][(padded[i - k], w)] += 1
        self.total += 1


def loop_counts(V, order, skips, sentences):
    """NgramCounts with Counter tables, filled by add_sentence."""
    counts = NgramCounts(V, order, tuple(skips))
    counts.unigrams, counts.bigrams, counts.trigrams = Counter(), Counter(), Counter()
    counts.skips = {k: Counter() for k in counts.skip_ks}
    for s in sentences:
        add_sentence(counts, s)
    return counts


def tables(counts):
    """Every table of the counts."""
    return [counts.unigrams, counts.bigrams, counts.trigrams] + list(counts.skips.values())


@SETTINGS
@given(
    corpora(),
    st.integers(1, 3),
    st.sets(st.integers(1, 5), min_size=1, max_size=3),
)
def test_count_ngrams_matches_add_sentence_loop(corpus, order, skips):
    V, sentences = corpus
    loop = loop_counts(V, order, skips, sentences)
    vocab = make_vocab(*("w%d" % i for i in range(V - 3)))
    counts = mm.count_ngrams(sentences, vocab, order, skips)
    assert counts.total == loop.total
    for table, reference in zip(tables(counts), tables(loop), strict=True):
        # Sorted items, and `first` ranks them in first-occurrence order,
        # the order in which the loop's Counters iterate.
        assert table.items() == sorted(reference.items())
        assert [table.items()[i] for i in np.argsort(table.first)] == list(reference.items())


def naive_event_table(model, sentences):
    """Per-event dict lookups, one event at a time."""
    m = model.order
    index = [
        {p: i for i, p in enumerate((w1, w2) for w1 in sorted(rows) for w2 in sorted(rows[w1]))}
        for rows in model_rows(model)
    ]
    ctx_rows, idx_rows = [], []
    for sentence in sentences:
        padded = [START_ID] * m + list(sentence) + [END_ID]
        for i in range(m, len(padded)):
            ctx = [padded[i - k] for k in range(1, m + 1)]
            ctx_rows.append(ctx)
            idx_rows.append([index[k].get((ctx[k], padded[i]), -1) for k in range(m)])
    shape = (len(ctx_rows), m)
    return np.array(ctx_rows, dtype=np.int64).reshape(shape), np.array(
        idx_rows, dtype=np.int64
    ).reshape(shape)


@SETTINGS
@given(st.data(), st.integers(1, 3))
def test_event_table_matches_per_event_loop(data, order):
    # The model's sparsity comes from one corpus and the events from another,
    # so some events hit pairs the model does not store.
    V, train = data.draw(corpora(min_sentences=1))
    events = data.draw(st.lists(st.lists(st.integers(0, V - 1), max_size=7), max_size=6))
    counts = mm.count_ngrams(train, range(V), 1, range(1, order + 1))
    model = mo.MixedOrderModel.from_counts(counts, order)
    table = mo._EventTable(_event_windows(events, order), V, model)
    ctx, pair_idx = naive_event_table(model, events)
    # The table is component-major: one row per skip distance.
    assert np.array_equal(table.ctx, ctx.T)
    assert np.array_equal(table.pair_idx, pair_idx.T)


def dict_normalized_rows(pairs):
    """Pair counts as dict rows of relative frequencies, keyed by the first
    id, and the count total of each row: the normaliser the mixed-order
    initialisation and MLBigram were built on before sorted pair keys."""
    rows = {}
    for (w1, w2), n in pairs.items():
        rows.setdefault(w1, {})[w2] = float(n)
    totals = {w1: sum(row.values()) for w1, row in rows.items()}
    for w1, row in rows.items():
        for w2 in row:
            row[w2] /= totals[w1]
    return rows, totals


def dict_event_probs(model, sentences):
    """Per-event mixture probability and component contributions, with the
    per-event lookup tables, the sorted stored pairs and their values read
    out of the dict rows."""
    m = model.order
    ctx, pair_idx = naive_event_table(model, sentences)
    matrices = model_rows(model)
    pairs = [[(w1, w2) for w1 in sorted(rows) for w2 in sorted(rows[w1])] for rows in matrices]
    vals = [
        np.array([rows[w1][w2] for w1, w2 in stored], dtype=np.float64)
        for rows, stored in zip(matrices, pairs)
    ]
    lam = model.lambdas[ctx, np.arange(m)[None, :]]
    declined = np.cumprod(1.0 - lam, axis=1)
    prefix = np.hstack([np.ones((len(ctx), 1)), declined[:, :-1]])
    mv = np.zeros_like(lam)
    for k in range(m):
        hit = pair_idx[:, k] >= 0
        mv[hit, k] = vals[k][pair_idx[hit, k]]
    contrib = lam * prefix * mv
    return contrib.sum(axis=1), contrib, ctx, pair_idx, pairs, vals


def dict_em_step(model, sentences):
    """Mixed-order EM step that rebuilds every dict row and a new model,
    as each training iteration did before sorted pair keys."""
    m, V = model.order, model.vocab_size
    total, contrib, ctx, pair_idx, pairs, old_vals = dict_event_probs(model, sentences)
    scored = total > 0.0
    n_skipped = int(len(total) - scored.sum())
    if not scored.any():
        raise NumericError("model assigns zero mass everywhere")
    ll = float(np.log(total[scored]).sum())
    phi = contrib[scored] / total[scored, None]
    ctx, pair_idx = ctx[scored], pair_idx[scored]
    tail = np.cumsum(phi[:, ::-1], axis=1)[:, ::-1]
    new_lambdas = model.lambdas.copy()
    new_matrices = []
    for k in range(m):
        num = np.bincount(ctx[:, k], weights=phi[:, k], minlength=V)
        den = np.bincount(ctx[:, k], weights=tail[:, k], minlength=V)
        seen = den > 0.0
        new_lambdas[seen, k] = num[seen] / den[seen]
        hit = pair_idx[:, k] >= 0
        pair_num = np.bincount(pair_idx[hit, k], weights=phi[hit, k], minlength=len(pairs[k]))
        row_mass = num[np.array([w1 for w1, _ in pairs[k]], dtype=np.int64)]
        touched = row_mass > 0.0
        new_vals = np.where(touched, pair_num / np.where(touched, row_mass, 1.0), old_vals[k])
        rows = {}
        for i, (w1, w2) in enumerate(pairs[k]):
            rows.setdefault(w1, {})[w2] = float(new_vals[i])
        new_matrices.append(rows)
    new_lambdas[:, m - 1] = 1.0
    return mixed_model(new_lambdas, new_matrices), ll, n_skipped


def dict_train_mixed(sentences, order, V, iterations):
    """train_mixed through Counters, dict_normalized_rows and dict_em_step."""
    counts = loop_counts(V, 1, range(1, order + 1), sentences)
    lambdas = np.empty((V, order))
    for k in range(1, order + 1):
        lambdas[:, k - 1] = 1.0 / (order - k + 1)
    matrices = [dict_normalized_rows(counts.skips[k])[0] for k in range(1, order + 1)]
    model = mixed_model(lambdas, matrices)
    trace = ag.TrainingTrace()
    for i in range(iterations):
        model, ll_before, n_skipped = dict_em_step(model, sentences)
        if i > 0:
            trace.append(ll_before, counts.total - n_skipped)
    total = dict_event_probs(model, sentences)[0]
    scored = total > 0.0
    trace.append(float(np.log(total[scored]).sum()), int(scored.sum()))
    return model, trace


@SETTINGS
@given(corpora(min_sentences=1), st.integers(1, 3), st.integers(1, 4))
def test_train_mixed_matches_dict_rebuilding_em(corpus, order, iterations):
    V, sentences = corpus
    model, trace = mm.train_mixed(sentences, order, V, iterations=iterations)
    ref, ref_trace = dict_train_mixed(sentences, order, V, iterations)
    assert model.lambdas.tolist() == ref.lambdas.tolist()
    assert model_rows(model) == model_rows(ref)
    assert trace == ref_trace


def corpusgen_sentences(seed, n_sentences):
    """(V, id sentences) of corpusgen text over the 300 most frequent words
    of a fixed 400-sentence draw, so that some words are out of vocabulary."""
    vocab = mm.build_vocabulary(generate_lines(101, 400), 300)
    return len(vocab), mm.tokenize_corpus(generate_lines(seed, n_sentences), vocab)


def test_train_mixed_matches_dict_rebuilding_em_at_most_components():
    # Eight components per event take the eight-accumulator branch of the
    # class sum (aggregate._class_sums).
    V, sentences = corpusgen_sentences(101, 300)
    model, trace = mm.train_mixed(sentences, mo.MAX_COMPONENTS, V, iterations=3)
    ref, ref_trace = dict_train_mixed(sentences, mo.MAX_COMPONENTS, V, 3)
    assert model.lambdas.tolist() == ref.lambdas.tolist()
    assert model_rows(model) == model_rows(ref)
    assert trace == ref_trace


@SETTINGS
@given(st.data(), st.integers(1, 3))
def test_em_step_matches_dict_rebuilding_em(data, order):
    # Events from another draw hit pairs the model does not store.
    V, train = data.draw(corpora(min_sentences=1))
    word = st.integers(0, V - 1)
    events = data.draw(st.lists(st.lists(word, max_size=7), min_size=1, max_size=6))
    counts = mm.count_ngrams(train, range(V), 1, range(1, order + 1))
    model = mo.MixedOrderModel.from_counts(counts, order)
    try:
        ref, ref_ll, ref_skipped = dict_em_step(model, events)
    except NumericError:
        with pytest.raises(NumericError):
            mo.em_step(model, events)
        return
    stepped, ll, skipped = mo.em_step(model, events)
    assert (ll, skipped) == (ref_ll, ref_skipped)
    assert stepped.lambdas.tolist() == ref.lambdas.tolist()
    assert model_rows(stepped) == model_rows(ref)


@SETTINGS
@given(corpora(), st.integers(1, 3))
def test_from_counts_and_ml_bigram_rows_match_dict_normaliser(corpus, order):
    V, sentences = corpus
    counts = mm.count_ngrams(sentences, range(V), 2, range(1, order + 1))
    model = mo.MixedOrderModel.from_counts(counts, order)
    assert model_rows(model) == [
        dict_normalized_rows(counts.skips[k])[0] for k in range(1, order + 1)
    ]
    ml = sm.MLBigram(counts.bigrams, V)
    rows = dict_normalized_rows(counts.bigrams)[0]
    assert ml.pairs == {w1 * V + w2: p for w1, row in rows.items() for w2, p in row.items()}


def two_pass_em_step(model, counts, step):
    """Aggregate EM step that computes the posterior block twice: over
    row-sorted chunks for the memberships, then over chunks of the
    column-sorted entries for the emissions."""
    items = sorted(counts.bigrams.items())
    rows = np.array([w1 for (w1, _), _ in items], dtype=np.int64)
    cols = np.array([w2 for (_, w2), _ in items], dtype=np.int64)
    vals = np.array([n for _, n in items], dtype=np.float64)
    cgw = model.class_given_word
    wgc_t = np.ascontiguousarray(model.word_given_class.T)
    V, C = cgw.shape

    def posterior(r, c, v):
        joint = cgw[r] * wgc_t[c]
        denom = joint.sum(axis=1)
        pos = denom > 0.0
        weighted = np.zeros_like(joint)
        weighted[pos] = joint[pos] * (v[pos] / denom[pos])[:, None]
        return denom, pos, weighted

    num_cgw = np.zeros((V, C))
    num_wgc = np.zeros((C, V))
    ll = 0.0
    for i in range(0, len(rows), step):
        r, c, v = rows[i : i + step], cols[i : i + step], vals[i : i + step]
        denom, pos, weighted = posterior(r, c, v)
        ll += float(v[pos] @ np.log(denom[pos]))
        uniq, starts = np.unique(r, return_index=True)
        num_cgw[uniq] += np.add.reduceat(weighted, starts, axis=0)
    order = np.argsort(cols, kind="stable")
    rows_o, cols_o, vals_o = rows[order], cols[order], vals[order]
    for i in range(0, len(rows), step):
        c = cols_o[i : i + step]
        _, _, weighted = posterior(rows_o[i : i + step], c, vals_o[i : i + step])
        uniq, starts = np.unique(c, return_index=True)
        num_wgc[:, uniq] += np.add.reduceat(weighted, starts, axis=0).T

    new_cgw = cgw.copy()
    row_mass = num_cgw.sum(axis=1)
    touched = row_mass > 0.0
    new_cgw[touched] = num_cgw[touched] / row_mass[touched, None]
    new_wgc = model.word_given_class.copy()
    class_mass = num_wgc.sum(axis=1)
    alive = class_mass > 0.0
    new_wgc[alive] = num_wgc[alive] / class_mass[alive, None]
    return new_cgw, new_wgc, ll


@SETTINGS
@given(corpora(min_sentences=1), st.data())
def test_single_pass_em_step_matches_two_pass(corpus, data):
    V, sentences = corpus
    counts = mm.count_ngrams(sentences, range(V), 2, (1,))
    C = data.draw(st.integers(1, V))
    model = mm.AggregateModel.random_init(V, C, seed=data.draw(st.integers(0, 99)))

    stepped, ll = ag.em_step(model, counts)
    cgw, wgc, ref_ll = two_pass_em_step(model, counts, len(counts.bigrams))
    assert ll == ref_ll
    assert np.array_equal(stepped.class_given_word, cgw)
    assert np.array_equal(stepped.word_given_class, wgc)

    # Several chunks: the entries of a column now straddle chunks in a
    # different grouping, so sums agree to rounding only.
    step = data.draw(st.integers(1, max(1, len(counts.bigrams) - 1)))
    with mock.patch.object(ag, "_CHUNK_CELLS", step * C):
        stepped, ll = ag.em_step(model, counts)
    cgw, wgc, ref_ll = two_pass_em_step(model, counts, step)
    assert np.isclose(ll, ref_ll, rtol=1e-12, atol=0)
    assert np.allclose(stepped.class_given_word, cgw, rtol=1e-12, atol=0)
    assert np.allclose(stepped.word_given_class, wgc, rtol=1e-12, atol=0)


def row_major_em_step(cgw, wgc, table):
    """The aggregate EM step over an (entries, C) posterior block per chunk,
    reduced along axis 0: the row-major form the class-major step replaced.
    Returns the updated pair and the log-likelihood of the input pair."""
    V, C = cgw.shape
    wgc_t = np.ascontiguousarray(wgc.T)
    num_cgw = np.zeros((V, C))
    num_wgc_t = np.zeros((V, C))
    ll = 0.0
    for chunk in table.chunks:
        block = cgw[chunk.rows] * wgc_t[chunk.cols]
        denom = block.sum(axis=1)
        pos = denom > 0.0
        ll += float(chunk.vals[pos] @ np.log(denom[pos]))
        scale = np.zeros_like(denom)
        np.divide(chunk.vals, denom, out=scale, where=pos)
        block *= scale[:, None]
        num_cgw[chunk.row_ids] += np.add.reduceat(block, chunk.row_starts, axis=0)
        num_wgc_t[chunk.col_ids] += np.add.reduceat(
            block[chunk.col_order], chunk.col_starts, axis=0
        )
    new_cgw = cgw.copy()
    row_mass = num_cgw.sum(axis=1)
    touched = row_mass > 0.0
    new_cgw[touched] = num_cgw[touched] / row_mass[touched, None]
    num_wgc = np.ascontiguousarray(num_wgc_t.T)
    new_wgc = wgc.copy()
    class_mass = num_wgc.sum(axis=1)
    alive = class_mass > 0.0
    new_wgc[alive] = num_wgc[alive] / class_mass[alive, None]
    return new_cgw, new_wgc, ll


def row_major_log_likelihood(cgw, wgc, table):
    wgc_t = np.ascontiguousarray(wgc.T)
    ll = 0.0
    for chunk in table.chunks:
        denom = (cgw[chunk.rows] * wgc_t[chunk.cols]).sum(axis=1)
        pos = denom > 0.0
        ll += float(chunk.vals[pos] @ np.log(denom[pos]))
    return ll


def assert_em_matches_row_major(counts, C, seed, iterations, entries_per_chunk):
    """em_step and train_aggregate equal the row-major reference bit for
    bit, with the table cut into chunks of `entries_per_chunk` entries."""
    V = counts.vocab_size
    with mock.patch.object(ag, "_CHUNK_CELLS", entries_per_chunk * C):
        table = ag._BigramTable(counts, V, C)
        model = mm.AggregateModel.random_init(V, C, seed)
        stepped, ll = ag.em_step(model, counts)
        cgw, wgc, ref_ll = row_major_em_step(
            model.class_given_word, model.word_given_class, table
        )
        assert ll == ref_ll
        assert stepped.class_given_word.tobytes() == cgw.tobytes()
        assert stepped.word_given_class.tobytes() == wgc.tobytes()

        trained, trace = mm.train_aggregate(counts, C, iterations, seed=seed)
        cgw, wgc = model.class_given_word, model.word_given_class
        ref_lls = []
        for _ in range(iterations):
            cgw, wgc, ll_before = row_major_em_step(cgw, wgc, table)
            ref_lls.append(ll_before)
        ref_lls = ref_lls[1:] + [row_major_log_likelihood(cgw, wgc, table)]
    assert trace.log_likelihoods == ref_lls
    assert trained.class_given_word.tobytes() == cgw.tobytes()
    assert trained.word_given_class.tobytes() == wgc.tobytes()


@SETTINGS
@given(corpora(min_sentences=1), st.data())
def test_class_major_em_matches_row_major_bitwise(corpus, data):
    V, sentences = corpus
    counts = mm.count_ngrams(sentences, range(V), 2, (1,))
    # One chunk when entries_per_chunk reaches the table size, several below.
    entries_per_chunk = data.draw(st.integers(1, len(counts.bigrams)))
    assert_em_matches_row_major(
        counts,
        C=data.draw(st.integers(1, V)),
        seed=data.draw(st.integers(0, 99)),
        iterations=data.draw(st.integers(1, 3)),
        entries_per_chunk=entries_per_chunk,
    )


@pytest.mark.parametrize("C", [129, 257, 300])
@pytest.mark.parametrize("entries_per_chunk", [10_000, 397])
def test_class_major_em_matches_row_major_at_large_class_counts(C, entries_per_chunk):
    # Class counts above 128 take the split branch of the class sum.
    V = 300
    rng = np.random.default_rng(C)
    counts = NgramCounts(V, 2, (1,))
    pairs = zip(rng.integers(0, V, 3000).tolist(), rng.integers(0, V, 3000).tolist())
    counts.bigrams = count_table(Counter(pairs))
    assert_em_matches_row_major(counts, C, seed=C, iterations=2, entries_per_chunk=entries_per_chunk)


@pytest.mark.parametrize(
    "C", [*range(1, 10), 15, 16, 17, 127, 128, 129, 255, 256, 257, 1000]
)
def test_class_sums_match_row_major_sum(C):
    rng = np.random.default_rng(C)
    rows = rng.random((37, C)) * rng.random((37, C))
    class_major = np.ascontiguousarray(rows.T)
    assert ag._class_sums(class_major).tobytes() == rows.sum(axis=1).tobytes()


def padded_walk(sentences, width):
    """(context, word) for every event: one padded loop per sentence."""
    for sentence in sentences:
        padded = [START_ID] * width + list(sentence) + [END_ID]
        for i in range(width, len(padded)):
            yield tuple(padded[i - width : i]), padded[i]


def loop_fit_interpolation(ml, base, validation, tied, rows):
    """fit_interpolation over a Counter of padded_walk pairs, with the
    no-ML-mass rows, those not among the stored bigram `rows`, pinned to 1
    after the fit; as (values, fallbacks) of the weights."""
    events = Counter()
    for ctx, w in padded_walk(validation, 1):
        events[(ctx[0], w)] += 1
    pairs = sorted(events)
    w1 = np.array([p[0] for p in pairs], dtype=np.int64)
    n = np.array([events[p] for p in pairs], dtype=np.float64)
    a = np.array([ml.pair_prob(u, v) for u, v in pairs])
    b = np.array([base.prob((u,), v) for u, v in pairs])
    keep = (a > 0.0) | (b > 0.0)
    w1, n, a, b = w1[keep], n[keep], a[keep], b[keep]
    s0, _ = sm._sigma_em(a, b, n, np.zeros(len(w1), dtype=np.int64), 1)
    if tied:
        return {}, {1: float(s0[0])}
    n_groups = int(w1.max()) + 1 if len(w1) else 1
    s, seen = sm._sigma_em(a, b, n, w1, n_groups)
    sigma = {(1, int(w)): float(s[w]) for w in np.nonzero(seen)[0]}
    for _, w in sigma:
        if w not in rows:
            sigma[(1, w)] = 1.0
    return sigma, {1: float(s0[0])}


def loop_fit_mixed_smoothing(model, lower, validation, tied):
    """fit_mixed_smoothing with per-event dict lookups of the transition
    values and its own copy of the component weights."""
    m = model.order
    V = model.vocab_size
    matrices = model_rows(model)
    ctx_rows, mk_rows, plow_rows = [], [], []
    for ctx, w in padded_walk(validation, m):
        ctx_rows.append([ctx[m - k] for k in range(1, m + 1)])
        mk_rows.append(
            [matrices[k - 1].get(ctx[m - k], {}).get(w, 0.0) for k in range(1, m + 1)]
        )
        plow_rows.append(lower.prob(ctx[1:], w))
    ctx = np.array(ctx_rows, dtype=np.int64)
    mk = np.array(mk_rows)
    plow = np.array(plow_rows)
    lam = model.lambdas[ctx, np.arange(m)[None, :]]
    declined = np.cumprod(1.0 - lam, axis=1)
    weight = lam * np.hstack([np.ones((len(ctx), 1)), declined[:, :-1]])

    sig = np.full((V, m), 0.5)
    sig0 = np.full(m, 0.5)
    seen = [np.bincount(ctx[:, k], minlength=V) > 0 for k in range(m)]

    def e_step(se):
        direct = (1.0 - se) * weight * mk
        deleg = se * weight * plow[:, None]
        tot = direct.sum(axis=1) + deleg.sum(axis=1)
        ok = tot > 0.0
        rd = np.zeros_like(direct)
        rl = np.zeros_like(deleg)
        rd[ok] = direct[ok] / tot[ok, None]
        rl[ok] = deleg[ok] / tot[ok, None]
        return rd, rl

    for _ in range(sm._FIT_MAX_ITERS):
        rd, rl = e_step(sig[ctx, np.arange(m)[None, :]])
        rd0, rl0 = e_step(sig0)
        delta = 0.0
        for k in range(m):
            num = np.bincount(ctx[:, k], weights=rl[:, k], minlength=V)
            denk = np.bincount(ctx[:, k], weights=(rl + rd)[:, k], minlength=V)
            posk = denk > 0.0
            new_col = np.where(posk, num / np.where(posk, denk, 1.0), sig[:, k])
            delta = max(delta, float(np.max(np.abs(new_col - sig[:, k]))))
            sig[:, k] = new_col
            denk0 = float((rl0[:, k] + rd0[:, k]).sum())
            if denk0 > 0.0:
                new0 = float(rl0[:, k].sum()) / denk0
                delta = max(delta, abs(new0 - sig0[k]))
                sig0[k] = new0
        if delta < sm._FIT_TOL:
            break

    values = {}
    if not tied:
        for k in range(m):
            for w in np.nonzero(seen[k])[0]:
                values[(k + 1, int(w))] = float(sig[w, k])
    for k in range(m):
        for w in range(V):
            if w not in matrices[k]:
                values[(k + 1, w)] = 1.0
    return values, {k + 1: float(sig0[k]) for k in range(m)}


@pytest.mark.parametrize(
    "order, n_valid, min_events",
    # Eight components per event; and more validation events than numpy's
    # 8192-element reduction buffer, for the pooled weights' sums.
    [(mo.MAX_COMPONENTS, 300, 0), (2, 1000, 8193)],
)
def test_fit_mixed_smoothing_matches_loop_on_corpusgen_text(order, n_valid, min_events):
    V, train = corpusgen_sentences(101, 300)
    _, valid = corpusgen_sentences(202, n_valid)
    assert sum(len(s) + 1 for s in valid) >= min_events
    counts = mm.count_ngrams(train, range(V), 2, (1,))
    base, _ = mm.train_aggregate(counts, 8, iterations=2)
    ml = sm.MLBigram.from_counts(counts)
    # The bigram level conditions on the last word of any longer context.
    lower = sm.InterpolatedBigram(ml, base, sm.fit_interpolation(ml, base, valid))
    model = mm.train_mixed(train, order, V, iterations=2)[0]
    fitted = sm.fit_mixed_smoothing(model, lower, valid)
    values, fallbacks = loop_fit_mixed_smoothing(model, lower, valid, tied=False)
    assert (fitted.values, fitted.fallbacks) == (values, fallbacks)


def loop_scores(model, sentences):
    """(context, word, p, backed) per padded_walk event."""
    scorer = getattr(model, "prob_and_backoff", None)
    for ctx, w in padded_walk(sentences, model.context_size):
        p, backed = scorer(ctx, w) if scorer is not None else (model.prob(ctx, w), False)
        yield ctx, w, p, backed


def loop_evaluate(model, sentences, seen_predicate=None, unseen_from_backoff=False):
    total = scored = zeros = backoffs = unseen_n = unseen_scored = 0
    ll = unseen_ll = 0.0
    track_unseen = seen_predicate is not None or unseen_from_backoff
    for ctx, w, p, backed in loop_scores(model, sentences):
        total += 1
        backoffs += backed
        unseen = False
        if track_unseen:
            unseen = backed if unseen_from_backoff else not seen_predicate(ctx, w)
        unseen_n += unseen
        if p > 0.0:
            ll += math.log(p)
            scored += 1
            if unseen:
                unseen_ll += math.log(p)
                unseen_scored += 1
        else:
            zeros += 1
    report = ev.EvalReport(total, scored, ll, math.exp(-ll / scored), zeros, backoffs)
    if track_unseen:
        report.unseen_events = unseen_n
        if unseen_scored:
            report.unseen_log_likelihood = unseen_ll
            report.unseen_perplexity = math.exp(-unseen_ll / unseen_scored)
    return report


class Recorder:
    """A model whose prob and prob_and_backoff calls are logged, each checked
    to take a tuple of Python ints and a Python int."""

    def __init__(self, model):
        self.context_size = model.context_size
        self.calls = []
        self.prob = self._logged(model.prob)
        if hasattr(model, "prob_and_backoff"):
            self.prob_and_backoff = self._logged(model.prob_and_backoff)

    def _logged(self, method):
        def call(ctx, w):
            assert type(ctx) is tuple and all(type(i) is int for i in (*ctx, w))
            self.calls.append((method.__name__, ctx, w))
            return method(ctx, w)

        return call


def paired_runs(model, new, loop):
    """new(Recorder) and loop(Recorder) results, asserting that new made each
    distinct scalar call of the loop exactly once, in sorted order (the
    lexicographic order of the event rows)."""
    a, b = Recorder(model), Recorder(model)
    new_result, loop_result = new(a), loop(b)
    assert a.calls == sorted(set(b.calls))
    return new_result, loop_result


def logged_predicate(predicate):
    """predicate, with its (context, word) calls appended to .calls."""

    def call(ctx, w):
        call.calls.append((ctx, w))
        return predicate(ctx, w)

    call.calls = []
    return call


@settings(max_examples=30, deadline=None)
@given(corpora(min_sentences=1), st.data(), st.booleans())
def test_fits_and_evaluate_match_per_event_loops(corpus, data, tied):
    # Validation and test text come from another draw, so they hold pairs and
    # triples the training text lacks.
    V, train = corpus
    word = st.integers(0, V - 1)
    held_out = data.draw(st.lists(st.lists(word, max_size=7), min_size=1, max_size=6))
    counts = mm.count_ngrams(train, make_vocab(*("w%d" % i for i in range(V - 3))), 3, (1, 2, 3))
    base, _ = mm.train_aggregate(counts, data.draw(st.integers(1, V)), iterations=2)
    ml = sm.MLBigram.from_counts(counts)

    rows = {w1 for w1, _ in counts.bigrams}
    params, (values, fallbacks) = paired_runs(
        base,
        lambda b: sm.fit_interpolation(ml, b, held_out, tied=tied),
        lambda b: loop_fit_interpolation(ml, b, held_out, tied, rows),
    )
    assert (params.values, params.fallbacks) == (values, fallbacks)

    lower = sm.InterpolatedBigram(ml, base, params)
    stack = [lower]
    for order in (2, 3):
        model = mm.train_mixed(train, order, V, iterations=1)[0]
        fitted, (values, fallbacks) = paired_runs(
            lower,
            lambda lo: sm.fit_mixed_smoothing(model, lo, held_out, tied=tied),
            lambda lo: loop_fit_mixed_smoothing(model, lo, held_out, tied),
        )
        assert (fitted.values, fitted.fallbacks) == (values, fallbacks)
        lower = sm.SmoothedMixedLevel(model, fitted, lower)
        stack.append(lower)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse Good-Turing statistics
        katz = sm.build_katz_trigram(counts, stack[1], k_gt=2)
    seen = ev.bigram_seen_predicate(counts)
    for model in [base, *stack, katz]:
        if any(p > 0.0 for _, _, p, _ in loop_scores(model, held_out)):
            for modes in ({}, {"unseen_from_backoff": True}):
                report, ref = paired_runs(
                    model,
                    lambda m: ev.evaluate(m, held_out, **modes),
                    lambda m: loop_evaluate(m, held_out, **modes),
                )
                assert report == ref
            new_seen, loop_seen = logged_predicate(seen), logged_predicate(seen)
            report, ref = paired_runs(
                model,
                lambda m: ev.evaluate(m, held_out, seen_predicate=new_seen),
                lambda m: loop_evaluate(m, held_out, seen_predicate=loop_seen),
            )
            assert report == ref
            assert new_seen.calls == sorted(set(loop_seen.calls))
        for sentence in held_out:
            if any(p > 0.0 for _, _, p, _ in loop_scores(model, [sentence])):
                report, ref = paired_runs(
                    model,
                    lambda m: ev.evaluate(m, [sentence]),
                    lambda m: loop_evaluate(m, [sentence]),
                )
                assert report == ref


@SETTINGS
@given(
    arrays(
        np.int64,
        st.tuples(st.integers(0, 40), st.integers(1, 4)),
        elements=st.integers(0, 3) | st.integers(-(2**63), 2**63 - 1),
    )
)
def test_distinct_rows_match_np_unique(rows):
    distinct, inverse = _distinct_rows(rows)
    assert np.array_equal(distinct[inverse], rows)
    as_tuples = [tuple(row) for row in distinct.tolist()]
    assert all(a < b for a, b in zip(as_tuples, as_tuples[1:]))
    ref, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(distinct, ref)
    assert np.array_equal(inverse, ref_inverse.reshape(-1))


def test_distinct_rows_of_no_rows():
    distinct, inverse = _distinct_rows(np.empty((0, 3), dtype=np.int64))
    assert distinct.shape == (0, 3) and inverse.shape == (0,)


int64_keys = st.integers(0, 3) | st.integers(-(2**63), 2**63 - 1)


@SETTINGS
@given(
    arrays(np.int64, st.integers(0, 30), elements=int64_keys, unique=True),
    arrays(np.int64, st.integers(0, 30), elements=int64_keys),
)
def test_find_matches_dict_lookup(stored, query):
    keys = np.sort(stored)
    position = {key: i for i, key in enumerate(keys.tolist())}
    assert _find(keys, query).tolist() == [position.get(key, -1) for key in query.tolist()]


@SETTINGS
@given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12), max_size=20), st.floats(-2, 2))
def test_run_sums_add_each_run_left_to_right(runs, first):
    values = np.array([v for run in runs for v in run], dtype=np.float64)
    lengths = np.array([len(run) for run in runs], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    expected = []
    for run in runs:
        total = first
        for v in run:
            total += v
        expected.append(total)
    sums = sm._run_sums(first, values, starts, lengths)
    assert sums.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def np_unique_check(columns):
    """What a reader's key check reports, by np.unique over the stacked key
    rows: ("repeat", row, earlier row) for the first row, in file order,
    whose key an earlier row holds, else ("order", rows sorted by key)."""
    keys = np.stack(columns, axis=1)
    _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    first_of = first[group.reshape(-1)]
    repeat = first_of != np.arange(len(keys))
    if repeat.any():
        i = int(np.argmax(repeat))
        return "repeat", i, int(first_of[i])
    return "order", first.tolist()


@SETTINGS
@given(st.integers(1, 3), st.data())
def test_check_unique_matches_np_unique(width, data):
    keys = data.draw(st.lists(st.tuples(*[st.integers(-2, 3)] * width), max_size=25))
    # Keys in any order; sorted, with or without repeats; and sorted by
    # the last column first, so that a later column often rises.
    arrange = data.draw(st.sampled_from([
        list, sorted, lambda keys: sorted(set(keys)), lambda keys: sorted(keys, key=lambda k: k[::-1])
    ]))
    keys = arrange(keys)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "keys.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("KEYS v1\n" + "".join(" ".join(map(str, key)) + "\n" for key in keys))
        reader = ArtifactReader(path, "KEYS")
        columns = reader.rows("i" * width)
        expected = np_unique_check(columns) if keys else ("order", [])
        if expected[0] == "repeat":
            _, row, earlier = expected
            message = "%s:%d: repeats the key of line %d" % (path, row + 2, earlier + 2)
            with pytest.raises(DataError, match="^%s$" % re.escape(message)):
                reader.check_unique(*columns)
        else:
            assert reader.check_unique(*columns).tolist() == expected[1]


def loop_blocks(path, steps):
    """What reading `steps`, each (kinds, count, tag) as ArtifactReader.rows
    takes them, then ending gives, line by line: each tagged run found by
    testing each line's start, each row parsed on its own.  Returns the
    blocks read, as structured arrays, and the first DataError's message,
    or None."""
    lines = read_text(path).split("\n")[:-1]
    pos, blocks = 1, []
    for kinds, count, tag in steps:
        stop = pos
        if tag:
            while stop < len(lines) and lines[stop].startswith(tag + " "):
                stop += 1
        else:
            stop = len(lines) if count is None else pos + count
        if stop > len(lines):
            return blocks, "%s:%d: file ends %d rows short" % (path, len(lines), stop - len(lines))
        dtype = np.dtype([("", {"i": np.int64, "f": np.float64}[kind]) for kind in kinds])
        rows = []
        for lineno in range(pos + 1, stop + 1):
            line = lines[lineno - 1]
            row = _table([line[len(tag) + 1 :] if tag else line], dtype)
            if row is None:
                wanted = " ".join([tag] * bool(tag) + [{"i": "int", "f": "float"}[k] for k in kinds])
                return blocks, "%s:%d: bad row %r; expected: %s" % (path, lineno, line, wanted)
            rows.append(row)
        blocks.append(np.concatenate(rows) if rows else np.empty(0, dtype))
        pos = stop
    if pos < len(lines):
        return blocks, "%s:%d: unexpected line %r" % (path, pos + 1, lines[pos])
    return blocks, None


any_fields = st.lists(st.sampled_from(["0", "-3", "2.5", "1e3", "inf", "x", "B", ""]), max_size=3)


@st.composite
def tagged_files(draw):
    """(lines, steps): runs of lines under one tag, a near-tag or none, and
    per run one step to read, as ArtifactReader.rows takes it, mostly by
    the run's own tag, and maybe a last step that counts more rows than
    are left.  Four rows in five are a good row of the step's kinds; the
    rest are fields that may be bad."""
    lines, steps = [], []
    for _ in range(draw(st.integers(0, 4))):
        tag = draw(st.sampled_from(["B", "T", "BB", "b", ""]))
        kinds = draw(st.sampled_from(["i", "if", "ii"]))
        good = st.lists(st.integers(-9, 99).map(str), min_size=len(kinds), max_size=len(kinds))
        rows = draw(st.lists(st.one_of(good, good, good, good, any_fields), min_size=1, max_size=4))
        lines += [" ".join([tag] * bool(tag) + row) for row in rows]
        step_tag = draw(st.sampled_from([tag, tag, "B", "T", "BB", ""]))
        count = draw(st.none() | st.integers(0, 5) | st.just(len(rows)))
        steps.append((kinds, count, step_tag))
    if draw(st.booleans()):  # a count that the file may fall short of
        steps.append(("i", len(lines) + draw(st.integers(0, 2)), ""))
    return lines, steps


@SETTINGS
@given(tagged_files())
def test_tagged_blocks_match_per_line_reading(file):
    lines, steps = file
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "rows.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("ROWS v1\n" + "".join(line + "\n" for line in lines))
        expected, message = loop_blocks(path, steps)
        reader = ArtifactReader(path, "ROWS")
        try:
            for block, (kinds, count, tag) in zip(expected, steps):
                columns = reader.rows(kinds, count, tag)
                assert [c.dtype for c in columns] == [block[n].dtype for n in block.dtype.names]
                assert [c.tobytes() for c in columns] == [block[n].tobytes() for n in block.dtype.names]
            if len(expected) < len(steps):
                reader.rows(*steps[len(expected)])
            else:
                reader.end()
        except DataError as exc:
            assert str(exc) == message
        else:
            assert message is None


def loop_vocabulary(lines, max_size):
    """build_vocabulary's words, counted token by token."""
    freqs = {}
    for line in lines:
        for tok in line.split():
            if tok not in _RESERVED:
                freqs[tok] = freqs.get(tok, 0) + 1
    if not freqs:
        raise DataError("empty corpus")
    ranked = sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))
    return list(_RESERVED) + [w for w, _ in ranked[: max_size - 3]]


def loop_tokenize(line, vocab):
    """tokenize, token by token."""
    out = []
    for tok in line.split():
        wid = vocab.id_of(tok)
        out.append(UNK_ID if wid in (START_ID, END_ID) else wid)
    return out


# Lines of few forms, so that counts tie, joined by any whitespace str.split
# splits on, and with the reserved forms among them.
text_lines = st.lists(
    st.tuples(
        st.sampled_from(["", " ", "\t", "  ", "\u3000", "\x85", "\r"]),
        st.sampled_from(["a", "b", "ab", "é", "<s>", "</s>", "<unk>", "<S>"]),
    ),
    max_size=8,
).map(lambda parts: "".join(sep + form for sep, form in parts))


@SETTINGS
@given(st.lists(text_lines, max_size=6), st.lists(text_lines, max_size=4), st.integers(4, 8))
def test_ingest_matches_per_token_loops(train, test, max_size):
    try:
        expected = loop_vocabulary(train, max_size)
    except DataError:
        with pytest.raises(DataError, match="^empty corpus$"):
            mm.build_vocabulary(iter(train), max_size)
        return
    vocab = mm.build_vocabulary(iter(train), max_size)
    assert vocab.words == expected
    lines = train + test
    assert mm.tokenize_corpus(iter(lines), vocab) == [loop_tokenize(line, vocab) for line in lines]
    assert [mm.tokenize(line, vocab) for line in lines] == [loop_tokenize(line, vocab) for line in lines]


def contexts_of(size, sentences, extra):
    """Every context of the sentences' events, plus the drawn ones."""
    found = {tuple(ctx) for ctx, _ in padded_walk(sentences, size)}
    return sorted(found | {tuple(c[:size]) for c in extra})


def katz_key(ids, V):
    """The int key of a tuple of ids, the ids its base-V digits, as a Katz
    level keys its dicts."""
    key = 0
    for x in ids:
        key = key * V + x
    return key


def katz_rows(table, truncation=1):
    """The rows of a Katz level, rebuilt from its count table: {context
    tuple: {word: count}} of the n-grams counted at least `truncation`
    times, each row in first-occurrence order (the order in which the level
    sums it), and the total count of each context in the whole table."""
    rows, totals = {}, Counter()
    entries = zip(map(tuple, table.ids.tolist()), table.n.tolist(), table.first.tolist())
    for ngram, r, _ in sorted(entries, key=lambda e: (e[0][:-1], e[2])):
        totals[ngram[:-1]] += r
        if r >= truncation:
            rows.setdefault(ngram[:-1], {})[ngram[-1]] = r
    return rows, totals


def katz_masses(model, ctx, row, V):
    """For the stored context ctx (a tuple) of a Katz level and the words of
    its row: the leftover mass 1 - sum of P over the seen successors, alpha
    times the backoff mass of the unseen words, and whether that backoff
    mass, summed directly, agrees with the 1 - seen backoff mass that the
    level divides by."""
    if isinstance(model, sm.KatzBigram):
        backoff = lambda w: model.unigram.prob((), w)
    else:
        backoff = lambda w: model.backoff.prob(ctx[2 - model.backoff.context_size :], w)
    leftover = 1.0 - sum(model.prob(ctx, w) for w in row)
    unseen = sum(backoff(w) for w in range(V) if w not in row)
    by_difference = 1.0 - sum(backoff(w) for w in row)
    agree = math.isclose(unseen, by_difference, rel_tol=1e-6, abs_tol=0.0) or by_difference <= 0.0
    return leftover, model.level.alphas[katz_key(ctx, V)] * unseen, agree


@settings(max_examples=20, deadline=None)
@given(corpora(min_sentences=2), st.data(), st.integers(1, 3), st.booleans())
def test_every_cascade_row_sums_to_one(corpus, data, levels, tied):
    V, sentences = corpus
    counts = mm.count_ngrams(sentences, make_vocab(*("w%d" % i for i in range(V - 3))), 3)
    base, _ = mm.train_aggregate(counts, data.draw(st.integers(1, V)), iterations=2)
    mixed = [mm.train_mixed(sentences, k, V, iterations=1)[0] for k in range(2, levels + 1)]
    extra = data.draw(st.lists(st.tuples(*[st.integers(0, V - 1)] * 3), max_size=10))
    truncation = data.draw(st.integers(1, max(counts.trigrams.values())))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse Good-Turing statistics
        cascade = mm.SmoothedCascade.fit(
            counts, base, mixed, sentences[::2], with_trigram=levels <= 2,
            gt_threshold=2, truncation=truncation, tied=tied,
        )
    rows, _ = katz_rows(counts.trigrams, truncation)
    for level in cascade.level_stack + [cascade.trigram] * (levels <= 2):
        for ctx in contexts_of(level.context_size, sentences, extra):
            if level is cascade.trigram and ctx in rows:
                if not katz_masses(level, ctx, rows[ctx], V)[2]:
                    continue  # the known defect of test_katz_rounding_residue_loses_leftover
            assert math.isclose(sum(level.prob(ctx, w) for w in range(V)), 1.0, abs_tol=1e-9)


@SETTINGS
@given(corpora(min_sentences=2), st.data())
def test_katz_leftover_is_alpha_times_unseen_backoff(corpus, data):
    V, sentences = corpus
    counts = mm.count_ngrams(sentences, make_vocab(*("w%d" % i for i in range(V - 3))), 3)
    truncation = data.draw(st.integers(1, max(counts.trigrams.values())))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse Good-Turing statistics
        bigram = sm.KatzBigram(counts, k_gt=2)
        trigram = sm.build_katz_trigram(counts, bigram, k_gt=2, truncation=truncation)
    for model, table, t in ((bigram, counts.bigrams, 1), (trigram, counts.trigrams, truncation)):
        for ctx, row in katz_rows(table, t)[0].items():
            leftover, redistributed, agree = katz_masses(model, ctx, row, V)
            if agree:  # else the known defect of test_katz_rounding_residue_loses_leftover
                assert math.isclose(leftover, redistributed, abs_tol=1e-9)


@pytest.mark.xfail(strict=True, reason="known defect: Katz alphas divide by a rounding residue")
def test_katz_rounding_residue_loses_leftover():
    # Every id follows 0, so the unseen backoff mass of row 0 is exactly 0, but
    # 1 - (sum of the five unigram probabilities) rounds to 2.2e-16.  Row 0
    # should revert to ML; instead alpha is about 4.5e15, the unseen set is
    # empty and the row sums to 0.5.
    counts = mm.count_ngrams(
        ([0, 0, 4, 0, 4, 2], [2, 3, 0, 3], [], [], [0, 2, 4]), range(5), 2, (1,)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse Good-Turing statistics
        bigram = sm.KatzBigram(counts, k_gt=2)
    assert math.isclose(sum(bigram.prob((0,), w) for w in range(5)), 1.0, abs_tol=1e-9)


# Scalar reference formulas: numpy-indexed mixing weights, the aggregate
# product as cgw[w1] @ wgc[:, w2], interpolation through sigma_for, dict rows
# built from the counts or from a mixed model's key and value arrays, and
# Katz levels with the discount rule applied per count.  Each takes the
# reference function of the level below, so a whole reference cascade is
# composed of them; every level's prob must equal it bit for bit.


def ref_aggregate(model):
    def prob(ctx, w):
        return float(model.class_given_word[ctx[-1]] @ model.word_given_class[:, w])

    return prob


def ref_interpolated(level, ref_base, bigrams):
    """The interpolated bigram `level` over the ML rows of `bigrams`."""
    params = level.params
    rows = dict_normalized_rows(bigrams)[0]

    def prob(ctx, w):
        w1 = ctx[-1]
        row = rows.get(w1)
        s = sigma_for(params, 1, w1) if row else 1.0
        p_ml = row.get(w, 0.0) if row else 0.0
        return (1.0 - s) * p_ml + s * ref_base((w1,), w)

    return prob


def ref_mixed(level, ref_lower):
    model, params = level.model, level.params
    m = model.order
    matrices = model_rows(model)

    def prob(ctx, w):
        direct = 0.0
        leftover = 0.0
        declined = 1.0
        for k in range(1, m + 1):
            w_ctx = ctx[m - k]
            lam = model.lambdas[w_ctx, k - 1]
            weight = declined * lam
            row = matrices[k - 1].get(w_ctx)
            if row:
                sigma = sigma_for(params, k, w_ctx)
                direct += (1.0 - sigma) * weight * row.get(w, 0.0)
                leftover += sigma * weight
            else:
                leftover += weight
            declined *= 1.0 - lam
        return direct + leftover * ref_lower(ctx[1:], w)

    return prob


def ref_katz(table, truncation, discounts, k_gt, backoff, V):
    """(alphas, seen, prob) of a Katz level, rebuilt from its count table
    (katz_rows): the alpha of each context and the probability of each
    stored n-gram, keyed as the level keys them (katz_key), with
    backoff(context tuple, w); prob takes a context tuple."""

    def discount(r):
        return discounts.get(r, 1.0) if r <= k_gt else 1.0

    rows, totals = katz_rows(table, truncation)
    alphas, seen = {}, {}
    for ctx, row in rows.items():
        total = totals[ctx]
        leftover = 1.0
        seen_backoff = 0.0
        for w, r in row.items():
            leftover -= discount(r) * r / total
            seen_backoff += backoff(ctx, w)
        leftover = max(leftover, 0.0)
        unseen_backoff = 1.0 - seen_backoff
        ml = False
        if leftover <= 0.0:
            alpha = 0.0
        elif unseen_backoff <= 0.0:
            alpha, ml = 0.0, True
        else:
            alpha = leftover / unseen_backoff
        alphas[katz_key(ctx, V)] = alpha
        stored = sum(row.values())
        for w, r in row.items():
            seen[katz_key(ctx + (w,), V)] = r / stored if ml else discount(r) * r / total

    def prob(ctx, w):
        p = seen.get(katz_key(ctx + (w,), V))
        if p is None:
            return alphas.get(katz_key(ctx, V), 1.0) * backoff(ctx, w)
        return p

    return alphas, seen, prob


def assert_bitwise(level, ref, contexts, V):
    for ctx in contexts:
        for w in range(V):
            assert level.prob(ctx, w) == ref(ctx, w), (ctx, w)


@settings(max_examples=25, deadline=None)
@given(corpora(min_sentences=2), st.data())
def test_scalar_prob_matches_reference_formulas_bitwise(corpus, data):
    V, sentences = corpus
    counts = mm.count_ngrams(sentences, make_vocab(*("w%d" % i for i in range(V - 3))), 3)
    base, _ = mm.train_aggregate(counts, data.draw(st.integers(1, V)), iterations=2)
    extra = data.draw(st.lists(st.tuples(*[st.integers(0, V - 1)] * 3), max_size=10))
    k_gt = data.draw(st.integers(1, 4))
    # Ratios for counts up to k_gt + 2, some missing: the level must ignore
    # those above k_gt and take 1 for the missing ones.
    ratio = st.floats(0.05, 1.0)
    discounts = data.draw(st.dictionaries(st.integers(1, k_gt + 2), ratio))
    # Drawn weights rather than fitted ones, which often sit at 0 or 1; the
    # levels must ignore those drawn for ids V to V+3.
    unit, wid = st.floats(0.0, 1.0), st.integers(0, V + 3)
    values = data.draw(st.dictionaries(st.tuples(st.just(1), wid), unit))
    params = sm.MixedSmoothingParams(values, {1: data.draw(unit)})
    level = sm.InterpolatedBigram(sm.MLBigram.from_counts(counts), base, params)
    stack, refs = [base, level], [ref_aggregate(base)]
    refs.append(ref_interpolated(level, refs[0], counts.bigrams))
    for m in (2, 3):
        model = mm.train_mixed(sentences, m, V, iterations=1)[0]
        values = data.draw(st.dictionaries(st.tuples(st.integers(1, m), wid), unit))
        params = sm.MixedSmoothingParams(values, {k: data.draw(unit) for k in range(1, m + 1)})
        stack.append(sm.SmoothedMixedLevel(model, params, stack[-1]))
        refs.append(ref_mixed(stack[-1], refs[-1]))
    for level, ref in zip(stack, refs):
        assert_bitwise(level, ref, contexts_of(level.context_size, sentences, extra), V)
    mixed2 = stack[2]

    katz_bigram = sm.KatzBigram(counts, k_gt=k_gt, discounts=discounts)
    alphas, seen, ref_bigram = ref_katz(
        counts.bigrams, 1, discounts, k_gt, lambda ctx, w: katz_bigram.unigram.prob((), w), V
    )
    assert (katz_bigram.level.alphas, katz_bigram.level.seen) == (alphas, seen)
    assert_bitwise(katz_bigram, ref_bigram, contexts_of(1, sentences, extra), V)

    truncation = data.draw(st.integers(1, max(counts.trigrams.values())))
    for backoff, ref_backoff in ((katz_bigram, ref_bigram), (mixed2, refs[2])):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sparse Good-Turing statistics
            trigram = sm.build_katz_trigram(counts, backoff, k_gt, truncation, discounts)
        size = backoff.context_size
        alphas, seen, ref_trigram = ref_katz(
            counts.trigrams, truncation, discounts, k_gt,
            lambda ctx, w: ref_backoff(ctx[2 - size :], w), V,
        )
        assert (trigram.level.alphas, trigram.level.seen) == (alphas, seen)
        assert_bitwise(trigram, ref_trigram, contexts_of(2, sentences, extra), V)


def scalar_scores(level, rows):
    """(p, backed) per row from the level's scalar call on the row's last
    context_size + 1 ids."""
    width = level.context_size + 1
    scorer = getattr(level, "prob_and_backoff", None)
    out = []
    for row in rows.tolist():
        ctx, w = tuple(row[len(row) - width : -1]), row[-1]
        out.append(scorer(ctx, w) if scorer is not None else (level.prob(ctx, w), False))
    return out


def loaded_counts(counts):
    """counts saved to a file and read back."""
    with tempfile.TemporaryDirectory() as d:
        counts.save(os.path.join(d, "counts.txt"))
        return NgramCounts.load(os.path.join(d, "counts.txt"))


@settings(max_examples=25, deadline=None)
@given(corpora(min_sentences=2), st.data(), st.booleans())
def test_row_scorer_matches_scalar_calls_bitwise(corpus, data, from_file):
    V, sentences = corpus
    counts = mm.count_ngrams(sentences, make_vocab(*("w%d" % i for i in range(V - 3))), 3)
    if from_file:
        counts = loaded_counts(counts)
    base, _ = mm.train_aggregate(counts, data.draw(st.integers(1, V)), iterations=2)
    unit, wid = st.floats(0.0, 1.0), st.integers(0, V - 1)
    values = data.draw(st.dictionaries(st.tuples(st.just(1), wid), unit))
    params = sm.MixedSmoothingParams(values, {1: data.draw(unit)})
    stack = [base, sm.InterpolatedBigram(sm.MLBigram.from_counts(counts), base, params)]
    for m in (2, 3):
        model = mm.train_mixed(sentences, m, V, iterations=1)[0]
        values = data.draw(st.dictionaries(st.tuples(st.integers(1, m), wid), unit))
        params = sm.MixedSmoothingParams(values, {k: data.draw(unit) for k in range(1, m + 1)})
        stack.append(sm.SmoothedMixedLevel(model, params, stack[-1]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse Good-Turing statistics
        katz_bigram = sm.KatzBigram(counts, k_gt=2)
        trigrams = [
            (sm.build_katz_trigram(counts, backoff, 2, truncation), backoff, truncation)
            for backoff in (katz_bigram, stack[2]) for truncation in (1, 2)
        ]
    # Distinct rows four ids wide, so that every level but the order-3 one
    # scores truncations of them.
    extra = data.draw(st.lists(st.tuples(*[wid] * 4), max_size=20))
    rows = np.concatenate([_event_windows(sentences, 3), np.array(extra, np.int64).reshape(-1, 4)])
    rows, _ = _distinct_rows(rows)
    for level in [*stack, katz_bigram, *(t for t, _, _ in trigrams)]:
        p, backed = sm._score_rows(level, rows)
        ref = scalar_scores(level, rows)
        assert p.tobytes() == np.array([r[0] for r in ref], dtype=np.float64).tobytes()
        assert backed.tolist() == [bool(r[1]) for r in ref]
        p, backed = sm._score_rows(level, rows[:0])
        assert (len(p), len(backed)) == (0, 0)

    alphas, seen, _ = ref_katz(
        counts.bigrams, 1, katz_bigram.level.discounts, 2,
        lambda ctx, w: katz_bigram.unigram.prob((), w), V,
    )
    assert (katz_bigram.level.alphas, katz_bigram.level.seen) == (alphas, seen)
    for trigram, backoff, truncation in trigrams:
        size = backoff.context_size
        alphas, seen, _ = ref_katz(
            counts.trigrams, truncation, trigram.level.discounts, 2,
            lambda ctx, w: backoff.prob(ctx[2 - size :], w), V,
        )
        assert (trigram.level.alphas, trigram.level.seen) == (alphas, seen)


def record_calls(obj, method):
    """Log obj.method's (context, word) calls in the returned list."""
    calls, original = [], getattr(obj, method)

    def call(ctx, w, *passed):
        calls.append((*ctx, w))
        return original(ctx, w, *passed)

    setattr(obj, method, call)
    return calls


def assert_once_per_distinct_row(chain, rows):
    """chain: (level, calls) pairs from the top down, where `rows` reach the
    first level and each level's calls reach the next.  Each level must be
    called exactly once per distinct row of its own width."""
    for level, calls in chain:
        width = level.context_size + 1
        rows = {row[len(row) - width :] for row in rows}
        assert sorted(calls) == sorted(rows), type(level).__name__
        rows = calls


def stored_trigrams(trigram):
    """The (u, v, w) rows a Katz trigram stores, read out of its keys."""
    ids = np.unravel_index(trigram.level.keys, (trigram.vocab_size,) * 3)
    return set(zip(*(column.tolist() for column in ids)))


def assert_evaluation_scores_once(model, trigram, chain, test):
    """evaluate(model, test) for a model whose top level is the Katz trigram
    `trigram`: the trigram must be asked once per distinct event, and each
    level of `chain` (as in assert_once_per_distinct_row) once per distinct
    row of its width among the events the trigram has not stored."""
    for _, calls in chain:
        calls.clear()
    top_calls = record_calls(trigram, "prob_and_backoff")
    try:
        ev.evaluate(model, test)
    except NumericError:  # every event scored zero; the calls are made
        pass
    events = {tuple(row) for row in _event_windows(test, 2).tolist()}
    assert_once_per_distinct_row([(trigram, top_calls)], events)
    stored = stored_trigrams(trigram)
    assert_once_per_distinct_row(chain, [row for row in top_calls if row not in stored])


@settings(max_examples=20, deadline=None)
@given(corpora(min_sentences=2), st.data())
def test_each_level_scores_each_distinct_row_of_its_width_once(corpus, data):
    V, train = corpus
    word = st.integers(0, V - 1)
    test = data.draw(st.lists(st.lists(word, max_size=7), min_size=1, max_size=6))
    counts = mm.count_ngrams(train, make_vocab(*("w%d" % i for i in range(V - 3))), 3)
    base = mm.AggregateModel.random_init(V, 2, seed=0)
    interp = sm.InterpolatedBigram(
        sm.MLBigram.from_counts(counts), base, sm.MixedSmoothingParams({}, {1: 0.5})
    )
    mixed = sm.SmoothedMixedLevel(
        mm.train_mixed(train, 2, V, iterations=1)[0],
        sm.MixedSmoothingParams({}, {1: 0.5, 2: 0.5}), interp,
    )
    unigram_calls, unigram_prob = [], sm.MLUnigram.prob

    def logged_unigram(self, ctx, w):
        unigram_calls.append(w)
        return unigram_prob(self, ctx, w)

    with warnings.catch_warnings(), mock.patch.object(sm.MLUnigram, "prob", logged_unigram):
        warnings.simplefilter("ignore")  # sparse Good-Turing statistics
        katz_bigram = sm.KatzBigram(counts, k_gt=2)
    assert unigram_calls == sorted(set(counts.bigrams.ids[:, 1].tolist()))

    truncation = data.draw(st.integers(1, 2))
    for backoff, levels in ((katz_bigram, [katz_bigram]), (mixed, [mixed, interp, base])):
        chain = [(level, record_calls(level, "prob")) for level in levels]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trigram = sm.build_katz_trigram(counts, backoff, 2, truncation)
        assert_once_per_distinct_row(chain, stored_trigrams(trigram))
        assert_evaluation_scores_once(trigram, trigram, chain, test)

    # A cascade is scored as its top level.
    levels = [sm.InterpolatedBigram(interp.ml, base, interp.params)]
    levels.append(sm.SmoothedMixedLevel(mixed.model, mixed.params, levels[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trigram = sm.build_katz_trigram(counts, levels[1], 2, truncation)
    cascade = sm.SmoothedCascade(counts, levels, trigram)
    chain = [(level, record_calls(level, "prob")) for level in [*cascade.level_stack[::-1], base]]
    assert_evaluation_scores_once(cascade, cascade.trigram, chain, test)


@SETTINGS
@given(st.integers(1, 300), st.integers(1, 64), st.integers(0, 2**32 - 1), st.data())
def test_aggregate_pair_prob_is_the_strided_dot(V, C, seed, data):
    model = mm.AggregateModel.random_init(V, min(C, V), seed)
    ref = ref_aggregate(model)
    word = st.integers(0, V - 1)
    for w1, w2 in data.draw(st.lists(st.tuples(word, word), min_size=1, max_size=50)):
        assert model.pair_prob(w1, w2) == model.prob((w1,), w2) == ref((w1,), w2)


def first_out_of_range(ids, V):
    """The message naming the first id outside [0, V), or None."""
    bad = [w for w in ids if not 0 <= w < V]
    return "word id %d out of range [0, %d)" % (bad[0], V) if bad else None


@SETTINGS
@given(corpora(min_sentences=1), st.data())
def test_out_of_range_ids_name_the_first_bad_id(corpus, data):
    V, sentences = corpus
    counts = mm.count_ngrams(sentences, make_vocab(*("w%d" % i for i in range(V - 3))), 3)
    base = mm.AggregateModel.random_init(V, 2, seed=0)
    mixed = mm.train_mixed(sentences, 2, V, iterations=1)[0]
    interp = sm.InterpolatedBigram(
        sm.MLBigram.from_counts(counts), base, sm.MixedSmoothingParams({}, {1: 0.5})
    )
    level = sm.SmoothedMixedLevel(mixed, sm.MixedSmoothingParams({}, {1: 0.5, 2: 0.5}), interp)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse Good-Turing statistics
        katz_bigram = sm.KatzBigram(counts, k_gt=2)
        trigram = sm.build_katz_trigram(counts, katz_bigram, k_gt=2)
    wid = st.integers(-3, V + 2)
    u, v, w = data.draw(st.tuples(wid, wid, wid))
    calls = [
        ((u, w), lambda: base.pair_prob(u, w)),
        ((u, w), lambda: base.prob((u,), w)),
        ((u, w), lambda: interp.prob((u,), w)),
        ((u, v, w), lambda: mixed.prob((u, v), w)),
        ((u, v, w), lambda: level.prob((u, v), w)),
        ((v, w), lambda: katz_bigram.prob((v,), w)),
        ((u, v, w), lambda: trigram.prob((u, v), w)),
        ((u, v, w), lambda: trigram.prob_and_backoff((u, v), w)),
    ]
    for ids, call in calls:
        message = first_out_of_range(ids, V)
        if message is None:
            call()
        else:
            with pytest.raises(ParameterError) as raised:
                call()
            assert str(raised.value) == message


def resaved_equal(obj, load, save=lambda obj, path: obj.save(path)):
    """Save obj, load the file and save the result: are the bytes equal?"""
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "first"), os.path.join(d, "second")
        save(obj, first)
        save(load(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            return a.read() == b.read()


# Loaded probabilities and weights must lie in [0, 1], discounts in (0, 1].
unit = st.floats(0.0, 1.0)


def normalised(rows):
    """Rows of [0, 1] values divided by their sums, a row of zeros made
    uniform: loaded model rows must sum to 1."""
    rows[rows.sum(axis=1) == 0.0] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


@SETTINGS
@given(st.lists(st.text(st.characters(exclude_categories=("Z", "C")), min_size=1), unique=True))
def test_vocabulary_resaves_identically(words):
    vocab = mm.Vocabulary(list(_RESERVED) + [w for w in words if w not in _RESERVED])
    assert resaved_equal(vocab, mm.Vocabulary.load)


@SETTINGS
@given(
    corpora(),
    st.integers(1, 3),
    st.sets(st.integers(1, 5), min_size=1, max_size=3),
)
def test_counts_resave_identically(corpus, order, skips):
    V, sentences = corpus
    vocab = make_vocab(*("w%d" % i for i in range(V - 3)))
    counts = mm.count_ngrams(sentences, vocab, order, skips)
    assert resaved_equal(counts, NgramCounts.load)


@SETTINGS
@given(st.data(), st.integers(1, 5), st.integers(1, 4))
def test_aggregate_model_resaves_identically(data, V, C):
    cgw = normalised(data.draw(arrays(np.float64, (V, C), elements=unit)))
    wgc = normalised(data.draw(arrays(np.float64, (C, V), elements=unit)))
    assert resaved_equal(mm.AggregateModel(cgw, wgc), mm.AggregateModel.load)


@SETTINGS
@given(st.data(), st.integers(1, 5), st.integers(1, 3))
def test_mixed_model_resaves_identically(data, V, m):
    lambdas = data.draw(arrays(np.float64, (V, m), elements=unit))
    lambdas[:, -1] = 1.0
    ids = st.integers(0, V - 1)
    matrices = []
    for _ in range(m):
        rows = {}
        for (w1, w2), p in data.draw(st.dictionaries(st.tuples(ids, ids), unit)).items():
            rows.setdefault(w1, {})[w2] = p
        for w1, row in rows.items():
            rows[w1] = dict(zip(row, normalised(np.array([list(row.values())]))[0].tolist()))
        matrices.append(rows)
    assert resaved_equal(mixed_model(lambdas, matrices), mo.MixedOrderModel.load)


@SETTINGS
@given(st.data(), st.integers(1, 3))
def test_weight_files_resave_identically(data, m):
    fallbacks = {k: data.draw(unit) for k in range(1, m + 1)}
    keys = st.tuples(st.integers(1, m), st.integers(0, 20))
    values = data.draw(st.dictionaries(keys, unit))
    params = sm.MixedSmoothingParams(values, fallbacks)
    assert resaved_equal(params, sm.MixedSmoothingParams.load)
    discount = st.floats(0.0, 1.0, exclude_min=True)
    discounts = data.draw(st.dictionaries(st.integers(1, 10), discount))
    save = lambda discounts, path: sm.save_discounts(path, discounts)
    assert resaved_equal(discounts, sm.load_discounts, save)


def save_cascade(cascade, d):
    """Write the inputs of a cascade into d, then the cascade itself."""
    path = lambda name: os.path.join(d, name)
    cascade.counts.save(path("counts.txt"))
    cascade.base.save(path("agg.txt"))
    model_paths = []
    for level in cascade.level_stack[1:]:
        model_paths.append(path("mix%d.txt" % level.model.order))
        level.model.save(model_paths[-1])
    cascade.save(path("cascade.txt"), d, path("counts.txt"), path("agg.txt"), model_paths)


@settings(max_examples=20, deadline=None)
@given(
    corpora(min_sentences=2),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
    st.integers(1, 3),
)
def test_cascade_files_resave_identically(corpus, levels, with_trigram, tied, truncation):
    V, sentences = corpus
    counts = mm.count_ngrams(sentences, make_vocab(*("w%d" % i for i in range(V - 3))), 3)
    base, _ = mm.train_aggregate(counts, 2, iterations=2)
    mixed = [mm.train_mixed(sentences, k, V, iterations=1)[0] for k in range(2, levels + 1)]
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        # Good-Turing statistics of tiny corpora are sparse.
        warnings.simplefilter("ignore")
        cascade = mm.SmoothedCascade.fit(
            counts, base, mixed, sentences, with_trigram=with_trigram and levels <= 2,
            gt_threshold=2, truncation=min(truncation, max(counts.trigrams.values())), tied=tied,
        )
        first, second = os.path.join(d, "first"), os.path.join(d, "second")
        os.mkdir(first)
        os.mkdir(second)
        save_cascade(cascade, first)
        save_cascade(sm.load_cascade(os.path.join(first, "cascade.txt")), second)
        for name in os.listdir(first):
            with open(os.path.join(first, name), "rb") as a:
                with open(os.path.join(second, name), "rb") as b:
                    assert a.read() == b.read(), name
