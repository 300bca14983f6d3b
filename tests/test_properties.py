"""Property tests on random tiny corpora: the array implementations of
counting, the mixed-order event table and the aggregate E-step against
plain loop references, and save -> load -> save byte identity of every
artifact type."""

import os
import tempfile
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import markovmix as mm
from markovmix import aggregate as ag
from markovmix import mixedorder as mo
from markovmix import smoothing as sm
from markovmix.corpus import _RESERVED, END_ID, START_ID, NgramCounts, _event_windows

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


def counters(counts):
    """Every table of the counts with its entries in iteration order."""
    tables = [counts.unigrams, counts.bigrams, counts.trigrams]
    tables += [counts.skips[k] for k in counts.skip_ks]
    return [list(t.items()) for t in tables] + [counts.total]


@SETTINGS
@given(
    corpora(),
    st.integers(1, 3),
    st.sets(st.integers(1, 5), min_size=1, max_size=3),
)
def test_count_ngrams_matches_add_sentence_loop(corpus, order, skips):
    V, sentences = corpus
    loop = NgramCounts(V, order, tuple(skips))
    for s in sentences:
        loop.add_sentence(s)
    vocab = make_vocab(*("w%d" % i for i in range(V - 3)))
    assert counters(mm.count_ngrams(sentences, vocab, order, skips)) == counters(loop)


def naive_event_table(model, sentences):
    """Per-event dict lookups, one event at a time."""
    m = model.order
    index = [
        {p: i for i, p in enumerate((w1, w2) for w1 in sorted(rows) for w2 in sorted(rows[w1]))}
        for rows in model.matrices
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
    counts = NgramCounts(V, 1, tuple(range(1, order + 1)))
    for s in train:
        counts.add_sentence(s)
    model = mo.MixedOrderModel.from_counts(counts, order)
    table = mo._EventTable(model, _event_windows(events, order))
    ctx, pair_idx = naive_event_table(model, events)
    assert np.array_equal(table.ctx, ctx)
    assert np.array_equal(table.pair_idx, pair_idx)


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
    counts = NgramCounts(V, 2, (1,))
    for s in sentences:
        counts.add_sentence(s)
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


def resaved_equal(obj, load, save=lambda obj, path: obj.save(path)):
    """Save obj, load the file and save the result: are the bytes equal?"""
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "first"), os.path.join(d, "second")
        save(obj, first)
        save(load(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            return a.read() == b.read()


finite = st.floats(allow_nan=False, allow_infinity=False)


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
    cgw = data.draw(arrays(np.float64, (V, C), elements=finite))
    wgc = data.draw(arrays(np.float64, (C, V), elements=finite))
    assert resaved_equal(mm.AggregateModel(cgw, wgc), mm.AggregateModel.load)


@SETTINGS
@given(st.data(), st.integers(1, 5), st.integers(1, 3))
def test_mixed_model_resaves_identically(data, V, m):
    lambdas = data.draw(arrays(np.float64, (V, m), elements=finite))
    ids = st.integers(0, V - 1)
    matrices = []
    for _ in range(m):
        rows = {}
        for (w1, w2), p in data.draw(st.dictionaries(st.tuples(ids, ids), finite)).items():
            rows.setdefault(w1, {})[w2] = p
        matrices.append(rows)
    assert resaved_equal(mo.MixedOrderModel(lambdas, matrices), mo.MixedOrderModel.load)


@SETTINGS
@given(st.data(), st.integers(1, 3))
def test_weight_files_resave_identically(data, m):
    fallbacks = {k: data.draw(finite) for k in range(1, m + 1)}
    keys = st.tuples(st.integers(1, m), st.integers(0, 20))
    values = data.draw(st.dictionaries(keys, finite))
    params = sm.MixedSmoothingParams(values, fallbacks)
    assert resaved_equal(params, sm.MixedSmoothingParams.load)
    interp = sm.InterpolationParams(data.draw(st.dictionaries(st.integers(0, 20), finite)), 0.5)
    assert resaved_equal(interp, sm.InterpolationParams.load)
    discounts = data.draw(st.dictionaries(st.integers(1, 10), finite))
    save = lambda discounts, path: sm.save_discounts(path, discounts)
    assert resaved_equal(discounts, sm.load_discounts, save)


def save_cascade(cascade, d):
    """Write the files of a cascade and its manifest into d, as `smooth` does."""
    path = lambda name: os.path.join(d, name)
    cascade.counts.save(path("counts.txt"))
    cascade.base.save(path("agg.txt"))
    cascade.interp.save(path("sigma1.txt"))
    levels = []
    for model, params in cascade.mixed_levels:
        levels.append((path("mix%d.txt" % model.order), path("sigma%d.txt" % model.order)))
        model.save(levels[-1][0])
        params.save(levels[-1][1])
    gt = None
    if cascade.trigram is not None:
        gt = path("gt.txt")
        sm.save_discounts(gt, cascade.trigram.level.discounts)
    sm.write_cascade_manifest(
        path("cascade.txt"), path("counts.txt"), path("agg.txt"), path("sigma1.txt"),
        levels, gt_path=gt, gt_threshold=cascade.gt_threshold, truncation=cascade.truncation,
    )


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
