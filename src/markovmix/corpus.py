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
evaluation score each distinct row (_distinct_rows) once.  The per-sentence
NgramCounts.add_sentence is kept as the reference the tests compare it to.

Pair counts become row-normalized dict rows through one normaliser,
_row_normalised, and one row builder, _dict_rows (normalized_rows is gone).
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Sequence

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

    @property
    def size(self) -> int:
        return len(self.words)

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
    freqs: Counter[str] = Counter()
    for line in lines:
        for tok in line.split():
            if tok in _RESERVED:
                continue
            freqs[tok] += 1
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


def most_frequent(unigrams: Counter, top_n: int) -> list[int]:
    """The top_n most frequent ids, boundary markers left out; ties break
    toward the lower id."""
    ranked = sorted(
        ((w, n) for w, n in unigrams.items() if w not in (START_ID, END_ID)),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return [w for w, _ in ranked[:top_n]]


class NgramCounts:
    """Sparse n-gram and skip-k pair counts plus the total event count.

    Attributes:
        unigrams: Counter of predicted tokens N(w) (interior + end events).
        bigrams: Counter over (w1, w2) pairs, present when max_order >= 2.
        trigrams: Counter over (w1, w2, w3) triples, when max_order == 3.
        skips: per-k Counter of pairs (w at t-k, w at t).
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
        self.unigrams: Counter[int] = Counter()
        self.bigrams: Counter[tuple[int, int]] = Counter()
        self.trigrams: Counter[tuple[int, int, int]] = Counter()
        self.skips: dict[int, Counter[tuple[int, int]]] = {
            k: Counter() for k in self.skip_ks
        }
        self.total = 0

    @property
    def pad(self) -> int:
        """Number of start markers prepended before the first interior word."""
        return max(self.skip_ks + (self.max_order - 1,))

    def add_sentence(self, sentence: TokenSentence) -> None:
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

    def trigram_context_totals(self) -> Counter:
        totals: Counter[tuple[int, int]] = Counter()
        for (u, v, _), n in self.trigrams.items():
            totals[(u, v)] += n
        return totals

    def save(self, path) -> None:
        """Write the sorted sparse text format (one entry per line)."""
        rows = itertools.chain(
            [("V", self.vocab_size), ("N", self.total)],
            (("U", w, n) for w, n in sorted(self.unigrams.items())),
            (("B", *key, n) for key, n in sorted(self.bigrams.items())),
            (("T", *key, n) for key, n in sorted(self.trigrams.items())),
            (("S", k, *key, n) for k in self.skip_ks for key, n in sorted(self.skips[k].items())),
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
            *ids, n = tables[tag] = reader.rows(kinds, tag=tag)
            reader.check_unique(*ids)
            if tag == "S":
                reader.check(np.isin(ids[0], counts.skip_ks), "skip distance not in the header")
                ids = ids[1:]
            in_range = np.logical_and.reduce([(c >= 0) & (c < V) for c in ids])
            reader.check(in_range, "word id out of range [0, %d)" % V)
            reader.check(n >= 1, "counts must be positive")
        reader.end()
        counts.unigrams, counts.bigrams, counts.trigrams = (
            _keyed_counter(*tables[tag]) for tag in "UBT"
        )
        k, w1, w2, n = tables["S"]
        for skip in counts.skip_ks:
            counts.skips[skip] = _keyed_counter(w1[k == skip], w2[k == skip], n[k == skip])
        return counts


def _keyed_counter(*columns: np.ndarray) -> Counter:
    """Counter from id columns and a count column, keyed by the id tuple (a
    bare id for a single id column)."""
    *ids, n = (col.tolist() for col in columns)
    keys = ids[0] if len(ids) == 1 else zip(*ids)
    return Counter(dict(zip(keys, n)))


def _event_windows(sentences: Iterable[TokenSentence], width: int) -> np.ndarray:
    """Every prediction event as one row of an (events, width + 1) int64 array.

    Row t holds w_{t-width} .. w_{t-1}, w_t: the padded walk of
    NgramCounts.add_sentence (width start markers, the sentence, the end
    marker), in sentence order and then position order.
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


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D int64 array in lexicographic order, and the
    inverse index, so that distinct[inverse] == rows.

    The rows and order of numpy's row-wise unique (axis 0), on which the
    weight fits' sums depend, found with a lexsort instead of its sort of
    void rows.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def _sorted_pairs(pairs: Counter) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pair Counter as id columns w1, w2 sorted by (w1, w2) and float counts."""
    ids = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    n = np.fromiter(pairs.values(), dtype=np.float64, count=len(ids))
    order = np.lexsort((ids[:, 1], ids[:, 0]))
    return ids[order, 0], ids[order, 1], n[order]


def _row_normalised(rows: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n / total[row] per entry and the totals by row id; integer counts
    give exact totals."""
    totals = np.bincount(rows, weights=n)
    return n / totals[rows], totals


def _pair_rows(pairs: Counter) -> tuple[dict[int, dict[int, float]], np.ndarray]:
    """A pair Counter as dict rows of relative frequencies and row totals."""
    w1, w2, n = _sorted_pairs(pairs)
    probs, totals = _row_normalised(w1, n)
    return _dict_rows(w1, w2, probs), totals


def _dict_rows(w1: np.ndarray, w2: np.ndarray, values: np.ndarray) -> dict[int, dict[int, float]]:
    """Entries sorted by (w1, w2) as rows {w1: {w2: value}} of Python ints
    and floats, the form that scalar scoring reads."""
    starts = np.flatnonzero(np.diff(w1, prepend=w1[:1] - 1)).tolist()
    bounds, cols, vals = starts + [len(w1)], w2.tolist(), values.tolist()
    rows = zip(w1[starts].tolist(), bounds, bounds[1:])
    return {row: dict(zip(cols[a:b], vals[a:b])) for row, a, b in rows}


def _check_ids(ids: np.ndarray, vocab_size: int) -> None:
    """ParameterError unless every id lies in [0, V); an id outside would
    alias another id's int64 key."""
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ParameterError("word ids must lie in [0, %d)" % vocab_size)


def _tally(keys: np.ndarray, decode) -> Counter:
    """Counter of int64 keys in first-occurrence order, as add_sentence fills it."""
    uniq, first, n = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return Counter(dict(zip(decode(uniq[order]), n[order].tolist())))


def count_ngrams(
    sentences: Iterable[TokenSentence],
    vocab: Vocabulary,
    max_order: int = 2,
    skips: Iterable[int] = (1,),
) -> NgramCounts:
    """Count n-grams and skip-k pairs over tokenized sentences.

    Each n-gram and skip pair is encoded as one int64 key, (w1*V + w2)*V + w3
    for a trigram, and the keys are counted with np.unique.  The Counters
    equal those of an add_sentence loop, down to their iteration order (first
    occurrence).  Raises ParameterError for an id outside [0, V), which would
    otherwise alias another key.
    """
    counts = NgramCounts(len(vocab), max_order, tuple(skips))
    V, pad = counts.vocab_size, counts.pad
    windows = _event_windows(sentences, pad)
    # Every interior id is predicted once, so the last column holds them all.
    w = windows[:, pad]
    _check_ids(w, V)
    if V ** max(counts.max_order, 2) >= 2**63:
        raise ParameterError("vocabulary of %d ids is too large for int64 keys" % V)

    def pairs(keys):
        return zip((keys // V).tolist(), (keys % V).tolist())

    def triples(keys):
        return zip((keys // (V * V)).tolist(), (keys // V % V).tolist(), (keys % V).tolist())

    counts.unigrams = _tally(w, np.ndarray.tolist)
    if counts.max_order >= 2:
        counts.bigrams = _tally(windows[:, pad - 1] * V + w, pairs)
    if counts.max_order >= 3:
        counts.trigrams = _tally(
            (windows[:, pad - 2] * V + windows[:, pad - 1]) * V + w, triples
        )
    for k in counts.skip_ks:
        counts.skips[k] = _tally(windows[:, pad - k] * V + w, pairs)
    counts.total = len(windows)
    return counts
