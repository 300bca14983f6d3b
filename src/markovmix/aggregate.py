"""Aggregate Markov models: bigrams factored through soft word classes.

The model represents P(w2|w1) as sum_c P(w2|c) P(c|w1) with C classes, and
is trained by EM on the sparse bigram count table.  Both factors are row
stochastic; the E-step visits only observed bigrams, never all V^2 pairs.

The E-step holds its posterior block class-major, as a (C, entries) array,
so that every reduction runs over contiguous memory: the per-entry
probability is a sum over the C rows of the block, and each row and column
segment is one `np.add.reduceat` along the entries.  Its sums keep the bits
of a row-major (entries, C) block: `_class_sums` adds the C rows in the
order numpy's pairwise summation adds a contiguous row of C floats, and
`reduceat` adds a segment in the same order along either axis.  The
numerators stay word-major, (V, C), so each chunk adds whole contiguous
rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .artifact import ArtifactReader, positive, write_artifact
from .corpus import NgramCounts, _check_ids
from .errors import DataError, ParameterError, id_out_of_range

# Entries processed per E-step chunk are capped so the dense (C x entries)
# posterior block stays small even when C approaches V.
_CHUNK_CELLS = 4_000_000


@dataclass
class TrainingTrace:
    """Per-iteration log-likelihood (nats) and perplexity exp(-ll/events)."""

    log_likelihoods: list[float] = field(default_factory=list)
    perplexities: list[float] = field(default_factory=list)

    def append(self, loglik: float, events: int) -> None:
        self.log_likelihoods.append(loglik)
        self.perplexities.append(math.exp(-loglik / events) if events else float("inf"))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iteration,loglik,perplexity\n")
            for i, (ll, pp) in enumerate(
                zip(self.log_likelihoods, self.perplexities), start=1
            ):
                fh.write("%d,%r,%r\n" % (i, ll, pp))


class AggregateModel:
    """Class-based bigram model with probabilistic word membership.

    Attributes:
        class_given_word: (V, C) row-stochastic membership matrix.
        word_given_class: (C, V) row-stochastic emission matrix.

    Both attributes are read-only: scoring reads per-word row and column
    views of the two factors, taken when the model is built.
    """

    context_size = 1

    def __init__(self, class_given_word: np.ndarray, word_given_class: np.ndarray):
        class_given_word = np.asarray(class_given_word, dtype=np.float64)
        word_given_class = np.asarray(word_given_class, dtype=np.float64)
        if class_given_word.shape[1] != word_given_class.shape[0]:
            raise ParameterError("membership and emission disagree on the class count")
        if class_given_word.shape[0] != word_given_class.shape[1]:
            raise ParameterError("membership and emission disagree on the vocabulary size")
        self._cgw = class_given_word
        self._wgc = word_given_class
        self._rows = list(class_given_word)
        self._cols = list(word_given_class.T)

    @property
    def class_given_word(self) -> np.ndarray:
        return self._cgw

    @property
    def word_given_class(self) -> np.ndarray:
        return self._wgc

    @property
    def vocab_size(self) -> int:
        return len(self._rows)

    @property
    def n_classes(self) -> int:
        return self._cgw.shape[1]

    @classmethod
    def random_init(cls, vocab_size: int, n_classes: int, seed: int) -> "AggregateModel":
        """Seeded init: rows are uniform(0.5, 1.5) draws, normalized to sum 1."""
        if not 1 <= n_classes <= vocab_size:
            raise ParameterError(
                "class count must satisfy 1 <= C <= V, got C=%d V=%d"
                % (n_classes, vocab_size)
            )
        if seed < 0:
            raise ParameterError("seed must be at least 0, got %d" % seed)
        rng = np.random.default_rng(seed)
        cgw = rng.uniform(0.5, 1.5, size=(vocab_size, n_classes))
        cgw /= cgw.sum(axis=1, keepdims=True)
        wgc = rng.uniform(0.5, 1.5, size=(n_classes, vocab_size))
        wgc /= wgc.sum(axis=1, keepdims=True)
        return cls(cgw, wgc)

    @classmethod
    def identity_init(cls, vocab_size: int) -> "AggregateModel":
        """C=V init with P(c|w) = 1 iff c == w and uniform emissions.

        One EM step from here reproduces the ML bigram model.
        """
        cgw = np.eye(vocab_size)
        wgc = np.full((vocab_size, vocab_size), 1.0 / vocab_size)
        return cls(cgw, wgc)

    def pair_prob(self, w1: int, w2: int) -> float:
        """P(w2|w1) = sum_c P(w2|c) P(c|w1)."""
        rows = self._rows
        V = len(rows)
        if not 0 <= w1 < V > w2 >= 0:
            raise id_out_of_range((w1, w2), V)
        # The strided dot of cgw[w1] @ wgc[:, w2]; a contiguous copy of the
        # columns may take another BLAS kernel and change the last bit.
        return float(rows[w1].dot(self._cols[w2]))

    def prob(self, context: tuple[int, ...], word: int) -> float:
        if len(context) != 1:
            raise ParameterError("aggregate model conditions on exactly one word")
        return self.pair_prob(context[0], word)

    def class_assignments(self) -> list[tuple[int, int, float]]:
        """Per word: (word id, most probable class, its probability).

        Ties break toward the lowest class index.
        """
        winners = np.argmax(self.class_given_word, axis=1)
        peaks = self.class_given_word[np.arange(self.vocab_size), winners]
        return [
            (w, int(winners[w]), float(peaks[w])) for w in range(self.vocab_size)
        ]

    def save(self, path) -> None:
        rows = itertools.chain(self.class_given_word.tolist(), self.word_given_class.tolist())
        write_artifact(path, "AGG-MODEL", rows, V=self.vocab_size, C=self.n_classes)

    @classmethod
    def load(cls, path) -> "AggregateModel":
        reader = ArtifactReader(path, "AGG-MODEL", V=positive, C=positive)
        V, C = reader.header["V"], reader.header["C"]
        cgw = reader.matrix(V, C)
        reader.check_unit(cgw, "class membership probability")
        reader.check_sums(cgw.sum(axis=1), "class memberships of this word do not sum to 1")
        wgc = reader.matrix(C, V)
        reader.check_unit(wgc, "word emission probability")
        reader.check_sums(wgc.sum(axis=1), "word emissions of this class do not sum to 1")
        reader.end()
        return cls(cgw, wgc)


class _BigramTable:
    """Sorted bigram entries, cut into chunks for the E-step of a model with
    `n_classes` classes.

    Entries are in (w1, w2) order.  A chunk is one slice of them, capped so
    its class-major (C x entries) posterior block holds at most
    _CHUNK_CELLS cells even when C approaches V.  Each chunk carries,
    computed once, the row segments of its slice and the stable column order
    that groups its entries by w2, so one posterior block per chunk feeds
    both the row and the column reductions.  `buffers` are two flat arrays,
    each large enough for the block of any chunk, made once so that EM
    iterations do not fault in fresh pages for every block.
    """

    def __init__(self, counts: NgramCounts, vocab_size: int, n_classes: int):
        if not counts.bigrams:
            raise DataError("no bigram events")
        if vocab_size != counts.vocab_size:
            raise ParameterError("model does not match the vocabulary size")
        self.rows, self.cols = np.ascontiguousarray(counts.bigrams.ids.T)
        self.vals = counts.bigrams.n.astype(np.float64)
        _check_ids(self.rows, vocab_size)
        _check_ids(self.cols, vocab_size)
        self.total = float(self.vals.sum())
        step = max(1, _CHUNK_CELLS // n_classes)
        self.chunks = [
            _Chunk(self, slice(i, min(i + step, len(self.rows))))
            for i in range(0, len(self.rows), step)
        ]
        size = n_classes * max(len(chunk.rows) for chunk in self.chunks)
        self.buffers = np.empty(size), np.empty(size)


class _Chunk:
    """One slice of a _BigramTable with its row and column segments.

    A block for the chunk is (C, entries), one row per class: the row
    segments are runs of its columns, and `col_order` is the column
    permutation that makes the w2 segments runs too.
    """

    def __init__(self, table: _BigramTable, sl: slice):
        self.rows = table.rows[sl]
        self.cols = table.cols[sl]
        self.vals = table.vals[sl]
        self.row_ids, self.row_starts = np.unique(self.rows, return_index=True)
        self.col_order = np.argsort(self.cols, kind="stable")
        self.col_ids, self.col_starts = np.unique(
            self.cols[self.col_order], return_index=True
        )


def _class_sums(block: np.ndarray) -> np.ndarray:
    """Sum over the rows of a class-major (C, entries) block.

    The rows are added in the order numpy's pairwise summation adds a
    contiguous run of C floats: a plain loop below 8, eight interleaved
    accumulators up to 128, and above that the two halves (split at a
    multiple of 8) summed apart.  The result has the bits of `.sum(axis=1)`
    on the row-major (entries, C) copy of the block, without that copy.

    Three E-steps use it on blocks of this shape: the aggregate one over
    classes, and over the m skip components the mixed-order training
    (mixedorder._event_probs) and the mixed-smoothing fit
    (smoothing.fit_mixed_smoothing).
    """
    n = len(block)
    if n < 8:
        total = block[0].copy()
        for row in block[1:]:
            total += row
        return total
    if n <= 128:
        stop = n - n % 8
        acc = block[:8].copy()
        for c in range(8, stop, 8):
            acc += block[c : c + 8]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for row in block[stop:]:
            total += row
        return total
    half = n // 2 - n // 2 % 8
    return _class_sums(block[:half]) + _class_sums(block[half:])


def _joint_blocks(cgw: np.ndarray, wgc: np.ndarray, table: _BigramTable):
    """Per chunk: the chunk, its class-major joint block P(c, w2 | w1) of
    shape (C, entries), and a spare array of the same shape.

    Both arrays are views of the table's buffers.  The gathers read one
    contiguous copy of the memberships, made here, and the emission matrix
    as it is; the ids lie in [0, V), checked when the table is built against
    the model, so the gathers skip their bounds check.
    """
    C = cgw.shape[1]
    cgw_t = np.ascontiguousarray(cgw.T)
    joint, spare = table.buffers
    for chunk in table.chunks:
        shape = (C, len(chunk.rows))
        block = joint[: shape[0] * shape[1]].reshape(shape)
        other = spare[: shape[0] * shape[1]].reshape(shape)
        np.take(cgw_t, chunk.rows, axis=1, out=block, mode="wrap")
        np.take(wgc, chunk.cols, axis=1, out=other, mode="wrap")
        block *= other
        yield chunk, block, other


def _log_likelihood_table(cgw: np.ndarray, wgc: np.ndarray, table: _BigramTable) -> float:
    ll = 0.0
    for chunk, block, _ in _joint_blocks(cgw, wgc, table):
        denom = _class_sums(block)
        pos = denom > 0.0
        ll += float(chunk.vals[pos] @ np.log(denom[pos]))
    return ll


def em_step(
    model: AggregateModel, counts: NgramCounts
) -> tuple[AggregateModel, float]:
    """One EM update over the sparse bigram table.

    Returns the updated model and the log-likelihood of the *input* model.
    Conditioning words with no outgoing counts and classes that accumulate no
    mass keep their previous rows.
    """
    table = _BigramTable(counts, model.vocab_size, model.n_classes)
    cgw, wgc, ll = _em_step_table(model.class_given_word, model.word_given_class, table)
    return AggregateModel(cgw, wgc), ll


def _em_step_table(
    cgw: np.ndarray, wgc: np.ndarray, table: _BigramTable
) -> tuple[np.ndarray, np.ndarray, float]:
    """em_step on the two factors: the updated pair and the
    log-likelihood of the input pair."""
    V, C = cgw.shape
    num_cgw = np.zeros((V, C))
    # Emission numerators accumulate word-major, so each chunk adds whole
    # contiguous rows instead of strided columns.
    num_wgc_t = np.zeros((V, C))
    ll = 0.0

    for chunk, block, spare in _joint_blocks(cgw, wgc, table):
        # The joint block becomes the count-weighted posterior in place;
        # entries whose model probability is zero are all-zero columns and
        # stay so.
        denom = _class_sums(block)
        pos = denom > 0.0
        ll += float(chunk.vals[pos] @ np.log(denom[pos]))
        scale = np.zeros_like(denom)
        np.divide(chunk.vals, denom, out=scale, where=pos)
        block *= scale
        num_cgw[chunk.row_ids] += np.add.reduceat(block, chunk.row_starts, axis=1).T
        by_col = np.take(block, chunk.col_order, axis=1, out=spare, mode="wrap")
        num_wgc_t[chunk.col_ids] += np.add.reduceat(by_col, chunk.col_starts, axis=1).T

    # The numerators are normalised in place and become the new factors;
    # rows and classes that gained no mass keep their previous values.
    row_mass = num_cgw.sum(axis=1)
    touched = row_mass > 0.0
    np.divide(num_cgw, row_mass[:, None], out=num_cgw, where=touched[:, None])
    num_cgw[~touched] = cgw[~touched]

    num_wgc = np.ascontiguousarray(num_wgc_t.T)
    del num_wgc_t
    class_mass = num_wgc.sum(axis=1)
    alive = class_mass > 0.0
    np.divide(num_wgc, class_mass[:, None], out=num_wgc, where=alive[:, None])
    num_wgc[~alive] = wgc[~alive]

    return num_cgw, num_wgc, ll


def train_aggregate(
    counts: NgramCounts,
    n_classes: int,
    iterations: int = 32,
    seed: int = 0,
    initial: AggregateModel | None = None,
) -> tuple[AggregateModel, TrainingTrace]:
    """Run EM from a seeded random (or provided) start.

    The trace row for iteration i reports the log-likelihood and training
    perplexity of the model after i updates.
    """
    if iterations < 1:
        raise ParameterError("iterations must be >= 1")
    if initial is not None:
        model = initial
        if model.vocab_size != counts.vocab_size:
            raise ParameterError("initial model does not match the vocabulary size")
    else:
        model = AggregateModel.random_init(counts.vocab_size, n_classes, seed)
    table = _BigramTable(counts, counts.vocab_size, model.n_classes)
    cgw, wgc = model.class_given_word, model.word_given_class
    events = int(table.total)
    trace = TrainingTrace()
    for i in range(iterations):
        cgw, wgc, ll_before = _em_step_table(cgw, wgc, table)
        if i > 0:
            trace.append(ll_before, events)
    trace.append(_log_likelihood_table(cgw, wgc, table), events)
    return AggregateModel(cgw, wgc), trace
