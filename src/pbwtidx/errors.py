"""Exception types raised by the index and the CLI; each input is checked once, where it enters."""


class PbwtIndexError(Exception):
    """Base class for every error this package raises deliberately."""


class UnknownCharacterError(PbwtIndexError):
    """A character is outside the declared alphabet."""


class RankOutOfRangeError(PbwtIndexError):
    """A symbol rank is not in [0, sigma)."""


class RaggedCollectionError(PbwtIndexError):
    """Input strings do not all have the same length."""


class EmptyInputError(PbwtIndexError):
    """No input strings (or an empty text) were provided."""


class IndexOutOfRangeError(PbwtIndexError):
    """A string index, column index, or row index is out of bounds, or not an integer."""


class PatternOverrunError(IndexOutOfRangeError):
    """The pattern does not fit between the query position and the string end."""


class PermutationNotStoredError(PbwtIndexError):
    """The requested sorted-suffix permutation column was not retained."""


class ModeMismatchError(PbwtIndexError):
    """The loaded index does not support the requested query type."""
