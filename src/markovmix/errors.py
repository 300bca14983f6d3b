"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ParameterError -> 2, DataError -> 3,
NumericError -> 4.
"""


class ParameterError(ValueError):
    """An argument is out of its documented range or the wrong shape."""


class DataError(ValueError):
    """Input data is empty, malformed, or missing a required table."""


class NumericError(RuntimeError):
    """A computation cannot proceed (e.g. a model assigns zero mass everywhere)."""


def id_out_of_range(ids, vocab_size: int) -> ParameterError:
    """The error naming the first of `ids` outside [0, vocab_size)."""
    bad = next(w for w in ids if not 0 <= w < vocab_size)
    return ParameterError("word id %d out of range [0, %d)" % (bad, vocab_size))
