"""Corpus ingestion: vocabularies, tokenization, and sparse n-gram counting.

Corpus files are UTF-8 text, one sentence per line, tokens separated by
whitespace.  Three reserved tokens occupy the first vocabulary ids:
start-of-sentence (0), end-of-sentence (1), and unknown (2).

Counting conventions: every sentence w_1..w_n yields n+1 prediction events,
one per interior word plus one for the end marker.  The start marker is
repeated on the left as far back as the largest configured skip distance
requires, so a skip-k pair is defined at every event position.

_event_windows is the one walk over these events: counting, mixed-order EM,
both smoothing-weight fits and evaluation read its rows, and the fits and
evaluation score each distinct row (_distinct_rows) once, reading the rows
as Python ints block by block (_per_row).  The tests keep a per-sentence
counting loop as the reference that count_ngrams must match.

Every count table is a CountTable of sorted int64 id columns, a form
only this module knows.  One key form, _row_keys, folds a row of ids into
one int64 with the ids as base-V digits: counting sorts these keys, a
mixed-order model stores its skip pairs as sorted keys, and the Katz levels
key their probabilities and weights by them.  One search, _find, finds keys
in a sorted key array, for the mixed-order event table and for the Katz
trigram's row scorer.  Pair counts are row-normalised by _row_normalised.
The dict rows {context: {word: value}} that scalar scoring reads, the ML
bigram rows and a mixed-order model's cached skip rows, come from one
builder, _dict_rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .artifact import ArtifactReader, read_text, read_utf8, write_artifact
from .errors import DataError, ParameterError

START_TOKEN = "<s>"
END_TOKEN = "</s>"
UNK_TOKEN = "<unk>"

START_ID = 0
END_ID = 1
UNK_ID = 2

_RESERVED = (START_TOKEN, END_TOKEN, UNK_TOKEN)
_BLOCK = 4096  # rows converted to Python objects at a time (_per_row)

TokenSentence = list[int]


class Vocabulary:
    """Bidirectional word/id map with fixed reserved ids.

    Ids form a bijection onto 0..V-1; looking up a surface form that is not
    stored returns the unknown id.
    """

    def __init__(self, words: Sequence[str]):
        if tuple(words[:3]) != _RESERVED:
            raise ParameterError(
                "vocabulary must start with the reserved tokens %r" % (_RESERVED,)
            )
        self.words = list(words)
        self.ids = {w: i for i, w in enumerate(self.words)}
        if len(self.ids) != len(self.words):
            raise ParameterError("vocabulary contains duplicate surface forms")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.ids

    def id_of(self, word: str) -> int:
        return self.ids.get(word, UNK_ID)

    def word_of(self, wid: int) -> str:
        return self.words[wid]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for w in self.words:
                fh.write(w + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """One token per line; bad content (no reserved tokens, duplicates) is a DataError."""
        try:
            return cls(read_text(path).split("\n")[:-1])
        except ParameterError as exc:
            raise DataError("%s: %s" % (path, exc)) from None


def build_vocabulary(lines: Iterable[str], max_size: int) -> Vocabulary:
    """Build a vocabulary of the most frequent surface forms.

    Keeps the 3 reserved tokens plus the (max_size - 3) most frequent forms;
    frequency ties break lexicographically.  Raises DataError on an empty
    corpus (no tokens at all).
    """
    if max_size < 4:
        raise ParameterError("max_size must be at least 4, got %d" % max_size)
    freqs: dict[str, int] = {}
    for line in lines:
        for tok in line.split():
            if tok in _RESERVED:
                continue
            freqs[tok] = freqs.get(tok, 0) + 1
    if not freqs:
        raise DataError("empty corpus")
    ranked = sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [w for w, _ in ranked[: max_size - 3]]
    return Vocabulary(list(_RESERVED) + kept)


def tokenize(line: str, vocab: Vocabulary) -> TokenSentence:
    """Map a line to interior word ids; OOV forms map to the unknown id.

    Literal occurrences of the start/end marker strings also map to unknown,
    so no interior token ever carries a boundary id.
    """
    out = []
    for tok in line.split():
        wid = vocab.id_of(tok)
        out.append(UNK_ID if wid in (START_ID, END_ID) else wid)
    return out


def tokenize_corpus(lines: Iterable[str], vocab: Vocabulary) -> list[TokenSentence]:
    return [tokenize(line, vocab) for line in lines]


def read_lines(path) -> list[str]:
    """The lines of a corpus file without their newlines; unlike an artifact,
    the last line need not end in one."""
    lines = read_utf8(path).split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def most_frequent(unigrams: Mapping[int, int], top_n: int) -> list[int]:
    """The top_n most frequent ids, boundary markers left out; ties break
    toward the lower id."""
    ranked = sorted(
        ((w, n) for w, n in unigrams.items() if w not in (START_ID, END_ID)),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return [w for w, _ in ranked[:top_n]]


class CountTable(Mapping):
    """A read-only count table: `ids`, an (entries, k) int64 array of
    distinct n-grams in lexicographic row order, and `n`, their counts.  As
    a Mapping it is keyed by id tuples (bare ids when k is 1), in that order.

    `first` ranks the entries by their first occurrence in the counted
    events, or as sorted for a table read from a file or a mapping.  The
    Katz levels sum each row in this order (ranked()); where a row's backoff
    mass sums to about 1, the order decides between a rounding residue and
    the ML revert, so counts in memory and from a file can differ there.
    """

    def __init__(self, ids: np.ndarray, n: np.ndarray, first: np.ndarray | None = None):
        self.ids, self.n = ids, n
        self.first = np.arange(len(n)) if first is None else first

    @classmethod
    def of(cls, counts: Mapping, width: int) -> "CountTable":
        """`counts` if it is a CountTable, else a mapping such as a Counter,
        keyed by tuples of `width` ids (bare ids for width 1), sorted."""
        if isinstance(counts, CountTable):
            return counts
        ids = np.array(list(counts), dtype=np.int64).reshape(len(counts), width)
        order = np.lexsort(ids.T[::-1])
        return cls(ids[order], np.fromiter(counts.values(), np.int64, len(ids))[order])

    def __len__(self) -> int:
        return len(self.n)

    def __iter__(self):
        columns = self.ids.T.tolist()
        return iter(columns[0]) if len(columns) == 1 else zip(*columns)

    def __getitem__(self, key) -> int:
        ids = key if isinstance(key, tuple) else (key,)
        if len(ids) != self.ids.shape[1]:
            raise KeyError(key)
        lo, hi = 0, len(self.n)
        for column, x in zip(self.ids.T, ids):  # sorted within each run
            run = column[lo:hi]
            lo, hi = lo + int(np.searchsorted(run, x)), lo + int(np.searchsorted(run, x, "right"))
        if lo == hi:
            raise KeyError(key)
        return int(self.n[lo])

    def items(self) -> list:
        return list(zip(self, self.n.tolist()))

    def values(self) -> list[int]:
        return self.n.tolist()

    def ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """`ids` and `n` grouped by context (every id but the last), the
        contexts in sorted order and each context's entries ranked by
        `first`: the order in which the Katz levels sum a row."""
        order, _ = _lex_order(np.column_stack([self.ids[:, :-1], self.first]))
        return self.ids[order], self.n[order]


class NgramCounts:
    """Sparse n-gram and skip-k pair counts plus the total event count.

    Every table is a CountTable; load gives equal tables, in which only the
    first-occurrence order of count_ngrams is lost (CountTable.first).

    Attributes:
        unigrams: counts of predicted tokens N(w) (interior + end events).
        bigrams: counts of (w1, w2) pairs, present when max_order >= 2.
        trigrams: counts of (w1, w2, w3) triples, when max_order == 3.
        skips: per-k table of pairs (w at t-k, w at t).
        total: number of prediction events N.
        vocab_size: V, carried for model dimensioning.
    """

    def __init__(self, vocab_size: int, max_order: int, skip_ks: tuple[int, ...]):
        if max_order not in (1, 2, 3):
            raise ParameterError("max_order must be 1, 2, or 3, got %r" % max_order)
        if any(k < 1 for k in skip_ks):
            raise ParameterError("skip distances must be >= 1, got %r" % (skip_ks,))
        self.vocab_size = vocab_size
        self.max_order = max_order
        self.skip_ks = tuple(sorted(set(skip_ks)))
        self.unigrams = CountTable.of({}, 1)
        self.bigrams = CountTable.of({}, 2)
        self.trigrams = CountTable.of({}, 3)
        self.skips = {k: CountTable.of({}, 2) for k in self.skip_ks}
        self.total = 0

    @property
    def pad(self) -> int:
        """Number of start markers prepended before the first interior word."""
        return max(self.skip_ks + (self.max_order - 1,))

    def save(self, path) -> None:
        """Write the sorted sparse text format (one entry per line)."""

        def lines(table: CountTable, *tag):
            return zip(*map(itertools.repeat, tag), *table.ids.T.tolist(), table.n.tolist())

        rows = itertools.chain(
            [("V", self.vocab_size), ("N", self.total)],
            lines(self.unigrams, "U"),
            lines(self.bigrams, "B"),
            lines(self.trigrams, "T"),
            *(lines(self.skips[k], "S", k) for k in self.skip_ks),
        )
        skips = ",".join(str(k) for k in self.skip_ks)
        write_artifact(path, "NGRAM-COUNTS", rows, order=self.max_order, skips=skips)

    @classmethod
    def load(cls, path) -> "NgramCounts":
        """Read the save format; a malformed file raises DataError."""
        reader = ArtifactReader(
            path, "NGRAM-COUNTS", order=int,
            skips=lambda text: tuple(int(k) for k in text.split(",") if k),
        )
        (v,), (total,) = reader.rows("i", tag="V"), reader.rows("i", tag="N")
        if len(v) != 1 or len(total) != 1 or v[0] < 1:
            raise reader.error(2, "expected one positive V line, then one N line")
        try:
            counts = cls(int(v[0]), reader.header["order"], reader.header["skips"])
        except ParameterError as exc:
            raise reader.error(1, str(exc)) from None
        counts.total = int(total[0])
        V = counts.vocab_size
        tables = {}
        for tag, kinds in (("U", "ii"), ("B", "iii"), ("T", "iiii"), ("S", "iiii")):
            *ids, n = reader.rows(kinds, tag=tag)
            order = reader.check_unique(*ids)
            tables[tag] = np.column_stack(ids)[order], n[order]
            if tag == "S":
                reader.check(np.isin(ids[0], counts.skip_ks), "skip distance not in the header")
                ids = ids[1:]
            in_range = np.logical_and.reduce([(c >= 0) & (c < V) for c in ids])
            reader.check(in_range, "word id out of range [0, %d)" % V)
            reader.check(n >= 1, "counts must be positive")
        reader.end()
        counts.unigrams, counts.bigrams, counts.trigrams = (
            CountTable(*tables[tag]) for tag in "UBT"
        )
        ids, n = tables["S"]
        for k in counts.skip_ks:
            at = ids[:, 0] == k
            counts.skips[k] = CountTable(ids[at, 1:], n[at])
        return counts


def _event_windows(sentences: Iterable[TokenSentence], width: int) -> np.ndarray:
    """Every prediction event as one row of an (events, width + 1) int64 array.

    Row t holds w_{t-width} .. w_{t-1}, w_t: the padded walk (width start
    markers, the sentence, the end marker), in sentence order and then
    position order.
    """
    sentences = list(sentences)
    events_per = np.fromiter(
        (len(s) + 1 for s in sentences), dtype=np.int64, count=len(sentences)
    )
    words = np.fromiter(
        itertools.chain.from_iterable(itertools.chain(s, (END_ID,)) for s in sentences),
        dtype=np.int64,
        count=int(events_per.sum()),
    )
    # In the padded stream, sentence i's events follow (i + 1) * width pads.
    sentence_of = np.repeat(np.arange(len(sentences), dtype=np.int64), events_per)
    event_pos = np.arange(len(words), dtype=np.int64) + width * (sentence_of + 1)
    stream = np.full(len(words) + width * len(sentences), START_ID, dtype=np.int64)
    stream[event_pos] = words
    return stream[event_pos[:, None] + np.arange(-width, 1, dtype=np.int64)]


def _key_base(rows: np.ndarray) -> tuple[int, int] | None:
    """(lo, base) such that the ids of a 2-D int64 array, less lo, are
    digits of base, and the digits of a row fit one int64 key; None when the
    array holds no id, or its ids span too wide a range."""
    if not rows.size:
        return None
    lo = int(rows.min())
    base = int(rows.max()) - lo + 1
    return (lo, base) if base ** rows.shape[1] < 2**63 else None


def _row_keys(rows: np.ndarray, lo: int, base: int) -> np.ndarray:
    """One int64 key per row, its ids less lo as digits of base (_key_base),
    so that the keys sort as the rows do in lexicographic order."""
    keys = rows[:, 0] - lo
    for column in rows.T[1:]:
        keys *= base
        keys += column - lo
    return keys


def _lex_order(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A permutation that puts the rows of a 2-D int64 array in lexicographic
    order (equal rows in any order), and the rows' keys (_row_keys) in that
    order, or None when they do not fit.  Sorting one key is much faster
    than a lexsort over the columns."""
    key_base = _key_base(rows)
    if key_base is None:
        return np.lexsort(rows.T[::-1]), None
    keys = _row_keys(rows, *key_base)
    order = np.argsort(keys)
    return order, keys[order]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D int64 array in lexicographic order, and the
    inverse index, so that distinct[inverse] == rows.

    The rows and order of numpy's row-wise unique (axis 0), on which the
    weight fits' sums depend, found with _lex_order instead of numpy's sort
    of void rows.
    """
    order, keys = _lex_order(rows)
    starts = np.ones(len(rows), dtype=bool)
    if keys is None:
        ordered = rows[order]
        starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    else:
        starts[1:] = keys[1:] != keys[:-1]
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return rows[order[starts]], inverse


def _find(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The position of each query key in the sorted int64 key array `keys`,
    or -1 where it is not stored."""
    pos = np.searchsorted(keys, query)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == query[found]
    return np.where(found, pos, -1)


def _per_row(call, rows: np.ndarray, *values: np.ndarray):
    """An iterator over call(context, word, *row values) for each (context...,
    word) row of `rows`, in Python ints, with the row's item of each array in
    `values`.  It converts one block of _BLOCK rows at a time to Python
    objects, so that a whole table is never held as Python objects at once."""
    blocks = range(0, len(rows), _BLOCK)
    return itertools.chain.from_iterable(
        map(
            call,
            map(tuple, rows[i : i + _BLOCK, :-1].tolist()),
            rows[i : i + _BLOCK, -1].tolist(),
            *(v[i : i + _BLOCK].tolist() for v in values),
        )
        for i in blocks
    )


def _row_normalised(rows: np.ndarray, n: np.ndarray) -> np.ndarray:
    """n / total[row] per entry; integer counts give exact totals."""
    return n / np.bincount(rows, weights=n)[rows]


def _row_starts(ctx: np.ndarray) -> np.ndarray:
    """Where each run of equal contexts begins, for contexts grouped into
    runs: ids (`ctx` 1-D) or rows of ids (`ctx` (entries, j))."""
    wide = ctx[:, None] if ctx.ndim == 1 else ctx
    return np.flatnonzero(np.diff(wide, axis=0, prepend=wide[:1] - 1).any(axis=1))


def _dict_rows(ctx: np.ndarray, words: np.ndarray, values: np.ndarray) -> dict:
    """Entries grouped by context id as rows {context: {word: value}} of
    Python ints and floats, the form that scalar scoring reads."""
    starts = _row_starts(ctx).tolist()
    bounds, cols, vals = starts + [len(words)], words.tolist(), values.tolist()
    keys = ctx[starts].tolist()
    return {key: dict(zip(cols[a:b], vals[a:b])) for key, a, b in zip(keys, bounds, bounds[1:])}


def _check_ids(ids: np.ndarray, vocab_size: int) -> None:
    """ParameterError unless every id lies in [0, V); an id outside would
    alias another id's int64 key."""
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ParameterError("word ids must lie in [0, %d)" % vocab_size)


def _check_key_room(V: int, width: int) -> None:
    """ParameterError unless every row of `width` ids in [0, V) has its own
    int64 key (_row_keys with base V)."""
    if V**width >= 2**63:
        raise ParameterError("vocabulary of %d ids is too large for int64 keys" % V)


def _counted(columns: np.ndarray, V: int) -> CountTable:
    """The distinct rows of an (events, k) id array, sorted, with how often
    each occurs and where each first occurs; each row is counted as one
    int64 key (_row_keys), its ids the base-V digits."""
    keys, first, n = np.unique(_row_keys(columns, 0, V), return_index=True, return_counts=True)
    ids = np.empty((len(keys), columns.shape[1]), dtype=np.int64)
    for j in reversed(range(columns.shape[1])):
        keys, ids[:, j] = np.divmod(keys, V)
    return CountTable(ids, n, first)


def count_ngrams(
    sentences: Iterable[TokenSentence],
    vocab: Vocabulary,
    max_order: int = 2,
    skips: Iterable[int] = (1,),
) -> NgramCounts:
    """Count n-grams and skip-k pairs over tokenized sentences.

    Each n-gram and skip pair is encoded as one int64 key, (w1*V + w2)*V + w3
    for a trigram, and the keys are counted with np.unique, whose sorted
    keys become the tables' sorted id columns.  Raises ParameterError for an
    id outside [0, V), which would otherwise alias another key.
    """
    counts = NgramCounts(len(vocab), max_order, tuple(skips))
    V, pad = counts.vocab_size, counts.pad
    windows = _event_windows(sentences, pad)
    # Every interior id is predicted once, so the last column holds them all.
    _check_ids(windows[:, pad], V)
    _check_key_room(V, max(counts.max_order, 2))
    counts.unigrams = _counted(windows[:, pad:], V)
    if counts.max_order >= 2:
        counts.bigrams = _counted(windows[:, pad - 1 :], V)
    if counts.max_order >= 3:
        counts.trigrams = _counted(windows[:, pad - 2 :], V)
    for k in counts.skip_ks:
        counts.skips[k] = _counted(windows[:, [pad - k, pad]], V)
    counts.total = len(windows)
    return counts
