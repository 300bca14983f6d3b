"""One reader and writer for the text artifacts.

Every artifact but the vocabulary is a header line ``MAGIC v1 key=value ...``
and then rows of fields separated by single spaces; every line, the last one
included, ends in a newline.  Rows hold integers in decimal and floats in
their shortest round-trip form, so equal models give equal bytes.  The
reader parses blocks of rows in bulk with numpy and turns anything malformed
into a DataError naming the file and the line.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DataError

# Row field kinds: the dtype of their column and their name in messages.
_KINDS = {"i": (np.int64, "int"), "f": (np.float64, "float")}

# How far from 1 a loaded row of probabilities may sum: numpy's own
# tolerance for probabilities (numpy.random's choice).  Floats load back
# exactly as written, so a row the package wrote misses 1 only by the
# rounding of training, which grows with the events summed into the row:
# at most 2.2e-13 (1009 ulps of 1; 40 per entry of the row) in mixed
# models of the 30k-sentence test corpus.
SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def read_utf8(path) -> str:
    """The text of a file; bytes that are not UTF-8 are a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError("%s: not UTF-8 text (%s)" % (path, exc.reason)) from None


def read_text(path) -> str:
    """The UTF-8 text of a file whose last line ends in a newline."""
    text = read_utf8(path)
    if not text.endswith("\n"):
        problem = "last line has no newline; the file is cut off" if text else "empty file"
        raise DataError("%s:%d: %s" % (path, text.count("\n") + 1, problem))
    return text


def positive(text: str) -> int:
    """Header field type: an integer of at least 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def write_artifact(path, magic: str, rows, **fields) -> None:
    """Write the header line, then one line per row of fields formatted with
    %s, which gives Python floats their shortest round-trip form."""
    formats: dict[int, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join([magic, "v1"] + ["%s=%s" % kv for kv in fields.items()]) + "\n")
        for row in rows:
            fmt = formats.get(len(row))
            if fmt is None:
                fmt = formats[len(row)] = " ".join(["%s"] * len(row)) + "\n"
            fh.write(fmt % tuple(row))


class ArtifactReader:
    """One artifact, read from the top.

    The magic and the header fields, given as name=type where the type
    converts the text or raises ValueError, are checked on opening; their
    values land in `header`.  Rows then follow block by block, each cut
    from the file's text at the offset where the last one ended.
    """

    def __init__(self, path, magic: str, **fields):
        self.path = path
        self.text = read_text(path)
        self.offset = self.text.index("\n") + 1  # where the next unread line starts
        head = self.text[: self.offset - 1].split(" ")
        if head[:2] != [magic, "v1"]:
            raise self.error(1, "not a %s v1 file" % magic)
        self.header = self.key_values(head[2:], 1, **fields)
        self.pos = 1  # the next unread line; line i is file line i + 1
        self.first = 2  # file line of the last block's first row

    def error(self, lineno: int, message: str) -> DataError:
        return DataError("%s:%d: %s" % (self.path, lineno, message))

    def key_values(self, tokens: list[str], lineno: int, **types) -> dict:
        """Typed values of exactly the `key=value` tokens named in `types`."""
        pairs = dict(token.partition("=")[::2] for token in tokens)
        if len(tokens) != len(types) or any(key not in pairs for key in types):
            wanted = " ".join(key + "=" for key in types)
            raise self.error(lineno, "expected the fields %s" % wanted)
        try:
            return {key: kind(pairs[key]) for key, kind in types.items()}
        except ValueError:
            raise self.error(lineno, "bad value in %s" % " ".join(tokens)) from None

    def rows(self, kinds: str, count: int | None = None, tag: str = "") -> list[np.ndarray]:
        """One column per character of `kinds` ('i' int64, 'f' float64) from
        the next `count` lines, by default every remaining one; with a `tag`,
        from the run of lines that start with it, the tag itself dropped."""
        table = self._block(kinds, count, tag)
        return [table[name] for name in table.dtype.names]

    def matrix(self, count: int, width: int) -> np.ndarray:
        """The next `count` lines as a (count, width) float64 matrix."""
        return self._block("f" * width, count, "").view(np.float64).reshape(count, width)

    def check(self, ok: np.ndarray, message: str) -> None:
        """DataError at the first row of the last block where `ok` is false."""
        if not ok.all():
            raise self.error(self.first + int(np.argmin(ok)), message)

    def check_unit(self, values: np.ndarray, what: str) -> None:
        """DataError at the first row of the last block holding a value
        (one per row, or a row of them) outside [0, 1]."""
        ok = (values >= 0.0) & (values <= 1.0)
        self.check(ok if ok.ndim == 1 else ok.all(axis=1), "%s outside [0, 1]" % what)

    def check_sums(self, sums: np.ndarray, message: str) -> None:
        """DataError at the first row of the last block whose entry of
        `sums` is further than SUM_TOLERANCE from 1."""
        ok = np.abs(sums - 1.0) <= SUM_TOLERANCE
        self.check(ok, "%s (tolerance %.2g)" % (message, SUM_TOLERANCE))

    def check_unique(self, *columns: np.ndarray) -> np.ndarray:
        """DataError at the first row of the last block whose key, one value
        per column, repeats an earlier row's; rows need not be sorted.
        Returns the order of the rows sorted by key."""
        # Keys that strictly increase, as saving a count table or a model
        # writes them, are in order already.
        after = np.zeros(max(len(columns[0]) - 1, 0), dtype=bool)
        tied = ~after
        for column in columns:
            after |= tied & (column[1:] > column[:-1])
            tied &= column[1:] == column[:-1]
        if after.all():
            return np.arange(len(columns[0]))
        # A stable sort by key, first column first: equal keys end up
        # adjacent, each run led by the row that holds the key first.
        order = np.lexsort(columns[::-1])
        same = np.ones(max(len(order) - 1, 0), dtype=bool)
        for column in columns:
            ranked = column[order]
            same &= ranked[1:] == ranked[:-1]
        if same.any():
            repeats = np.flatnonzero(same) + 1
            at = repeats[np.argmin(order[repeats])]
            leads = np.flatnonzero(np.concatenate(([True], ~same)))
            earlier = order[leads[np.searchsorted(leads, at, side="right") - 1]]
            raise self.error(
                self.first + int(order[at]), "repeats the key of line %d" % (self.first + earlier)
            )
        return order

    def records(self):
        """(file line, fields) for each remaining line."""
        lines = self._rest()
        for lineno, line in enumerate(lines, self.pos + 1):
            fields = line.split(" ")
            if "" in fields:
                raise self.error(lineno, "empty field; fields are separated by single spaces")
            yield lineno, fields
        self.pos, self.offset = self.pos + len(lines), len(self.text)

    def end(self) -> None:
        if self.offset < len(self.text):
            line = self.text[self.offset : self.text.index("\n", self.offset)]
            raise self.error(self.pos + 1, "unexpected line %r" % line)

    def _rest(self) -> list[str]:
        """Every remaining line."""
        return self.text[self.offset : -1].split("\n") if self.offset < len(self.text) else []

    def _block(self, kinds: str, count: int | None, tag: str) -> np.ndarray:
        start, text = self.pos, self.text
        if tag:
            # The run ends at the first newline, searched from the one before
            # it, that the tag and a space do not follow; one replace drops
            # the tags.
            stop = re.compile("\n(?!%s )" % re.escape(tag)).search(text, self.offset - 1).end()
            run = text[self.offset - 1 : stop - 1].replace("\n%s " % tag, "\n")
            lines = run[1:].split("\n") if run else []
        elif count is None:
            lines, stop = self._rest(), len(text)
        else:
            lines = text[self.offset :].split("\n", count)
            if len(lines) <= count:
                have = start + len(lines) - 1
                raise self.error(have, "file ends %d rows short" % (count + 1 - len(lines)))
            stop = len(text) - len(lines.pop())
        self.pos, self.first, self.offset = start + len(lines), start + 1, stop
        dtype = np.dtype([("", _KINDS[kind][0]) for kind in kinds])
        table = _table(lines, dtype)
        if table is None:
            # A block parses iff each of its lines does: bisect for the first bad one.
            lo, hi = 0, len(lines)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if _table(lines[lo:mid], dtype) is None else (mid, hi)
            wanted = " ".join([tag] * bool(tag) + [_KINDS[kind][1] for kind in kinds])
            row = " ".join([tag] * bool(tag) + [lines[lo]])
            raise self.error(start + lo + 1, "bad row %r; expected: %s" % (row, wanted))
        return table


def _table(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """The rows as a structured array, or None unless every line holds one
    field per column, single-space separated, and every float is finite."""
    if not lines:
        return np.empty(0, dtype)
    if "" in lines:
        return None
    try:
        table = np.loadtxt(lines, dtype, delimiter=" ", comments=None, ndmin=1)
    except ValueError:
        return None
    floats = [name for name in dtype.names if dtype[name].kind == "f"]
    if len(table) != len(lines) or not all(np.isfinite(table[name]).all() for name in floats):
        return None
    return table
