"""Character-to-rank mapping for the indexing alphabet.

An :class:`Alphabet` fixes an ordered set of symbols and a sentinel that
sorts strictly below all of them.  The sentinel is rejected in user input;
only the substring indexer appends it internally.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import RankOutOfRangeError, UnknownCharacterError

DEFAULT_SYMBOLS = "ACGT"
DEFAULT_SENTINEL = "$"


def check_codes(codes: np.ndarray, limit: int, what: str):
    """Raise :class:`RankOutOfRangeError` unless ``codes`` holds integer rank codes in [0, ``limit``).

    An unsigned array takes one pass, for its maximum.
    """
    if not np.issubdtype(codes.dtype, np.integer):
        raise RankOutOfRangeError(f"{what} must be integer rank codes, not {codes.dtype}")
    if not codes.size:
        return
    if np.issubdtype(codes.dtype, np.signedinteger) and codes.min() < 0:
        raise RankOutOfRangeError(f"{what} holds rank code {codes.min()}, below 0")
    if codes.max() >= limit:
        raise RankOutOfRangeError(f"{what} holds rank code {codes.max()}, not below {limit}")


def handed_over(codes) -> bytearray | None:
    """The ``bytearray`` that ``codes`` views whole, when ``codes`` is a
    read-only, C-ordered uint8 ndarray, and None otherwise: the one kind of
    code array that an index keeps without a copy
    (:class:`~pbwtidx.pbwt.PbwtMatrix` states the rule)."""
    owner = codes
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if isinstance(owner, memoryview):  # np.frombuffer's base for a bytearray
        owner = owner.obj
    whole = (type(owner) is bytearray and len(owner) == codes.nbytes and type(codes) is np.ndarray
             and codes.dtype == np.uint8 and codes.flags.c_contiguous and not codes.flags.writeable)
    return owner if whole else None


def as_int(value, error: type[Exception], message: str, least: int | None = None) -> int:
    """``value`` as an ``int``: any integer, a numpy one of any width included, but not a bool.
    Anything else, or an integer below ``least``, raises ``error(message.format(value))``."""
    if not isinstance(value, (bool, np.bool_)) and hasattr(value, "__index__"):
        converted = operator.index(value)
        if least is None or converted >= least:
            return converted
    raise error(message.format(value))


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet with dense integer ranks 0..sigma-1."""

    symbols: str = DEFAULT_SYMBOLS
    sentinel: str = DEFAULT_SENTINEL
    _code_table: bytes = field(init=False, repr=False, compare=False)
    _symbol_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet needs at least one symbol")
        if any(len(c) != 1 for c in self.symbols):
            raise ValueError("symbols must be single characters")
        if list(self.symbols) != sorted(set(self.symbols)):
            raise ValueError("symbols must be strictly increasing and distinct")
        if len(self.sentinel) != 1:
            raise ValueError("sentinel must be a single character")
        if not (self.symbols + self.sentinel).isascii():
            raise ValueError("symbols and sentinel must be ASCII characters")
        if self.sentinel >= self.symbols[0]:
            raise ValueError("sentinel must sort strictly below every symbol")
        # byte -> rank table for bytes.translate; 255 marks invalid bytes,
        # since ASCII symbols leave every rank below 128
        table = bytearray(b"\xff" * 256)
        for a, c in enumerate(self.symbols):
            table[ord(c)] = a
        object.__setattr__(self, "_code_table", bytes(table))
        # rank -> byte lookup for bulk decoding
        object.__setattr__(self, "_symbol_table", np.frombuffer(self.symbols.encode("latin-1"), np.uint8))

    @property
    def sigma(self) -> int:
        return len(self.symbols)

    def rank(self, c: str) -> int:
        """Return the 0-based rank of symbol ``c``."""
        code = self._code_table[ord(c)] if isinstance(c, str) and len(c) == 1 and c.isascii() else 255
        if code == 255:
            raise UnknownCharacterError(f"character {c!r} is not in alphabet {self.symbols!r}")
        return code

    def char(self, a: int) -> str:
        """Return the symbol with rank ``a`` (inverse of :meth:`rank`)."""
        if not 0 <= a < self.sigma:
            raise RankOutOfRangeError(f"rank {a} not in [0, {self.sigma})")
        return self.symbols[a]

    def _code_bytes(self, s: str) -> bytes:
        """The rank codes of ``s`` as bytes, validating every character; the
        leftmost bad one is named with its column."""
        try:
            codes = s.encode("ascii").translate(self._code_table)
        except UnicodeEncodeError as exc:
            # the first non-ASCII character is bad too; find(255) picks the leftmost
            codes = s[: exc.start].encode("ascii").translate(self._code_table) + b"\xff"
        col = codes.find(255)
        if col >= 0:
            raise UnknownCharacterError(
                f"character {s[col]!r} at column {col + 1} is not in alphabet {self.symbols!r}"
            )
        return codes

    def encode(self, s: str) -> np.ndarray:
        """Encode a string to a read-only uint8 rank array, validating every character."""
        return np.frombuffer(self._code_bytes(s), np.uint8)

    def decode(self, codes) -> str:
        """Turn a sequence (or matrix, row by row) of ranks back into one string."""
        codes = np.asarray(codes)
        if not codes.size:
            return ""
        check_codes(codes, self.sigma, "decoded codes")
        return self._symbol_table[codes].tobytes().decode("latin-1")

