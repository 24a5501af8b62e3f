"""Character-to-rank mapping for the indexing alphabet.

An :class:`Alphabet` fixes an ordered set of symbols and a sentinel that
sorts strictly below all of them.  The sentinel is rejected in user input;
only the substring indexer appends it internally.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import RankOutOfRangeError, UnknownCharacterError

DEFAULT_SYMBOLS = "ACGT"
DEFAULT_SENTINEL = "$"


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet with dense integer ranks 0..sigma-1."""

    symbols: str = DEFAULT_SYMBOLS
    sentinel: str = DEFAULT_SENTINEL
    _rank_of: dict = field(init=False, repr=False, compare=False)
    _code_table: np.ndarray = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_rank_of", {c: a for a, c in enumerate(self.symbols)})
        # byte -> rank lookup for bulk encoding; -1 marks invalid bytes
        table = np.full(256, -1, dtype=np.int16)
        for a, c in enumerate(self.symbols):
            table[ord(c)] = a
        object.__setattr__(self, "_code_table", table)
        # rank -> byte lookup for bulk decoding
        object.__setattr__(self, "_symbol_table", np.frombuffer(self.symbols.encode("latin-1"), np.uint8))

    @property
    def sigma(self) -> int:
        return len(self.symbols)

    def rank(self, c: str) -> int:
        """Return the 0-based rank of symbol ``c``."""
        try:
            return self._rank_of[c]
        except KeyError:
            raise UnknownCharacterError(f"character {c!r} is not in alphabet {self.symbols!r}") from None

    def char(self, a: int) -> str:
        """Return the symbol with rank ``a`` (inverse of :meth:`rank`)."""
        if not 0 <= a < self.sigma:
            raise RankOutOfRangeError(f"rank {a} not in [0, {self.sigma})")
        return self.symbols[a]

    def encode(self, s: str) -> np.ndarray:
        """Encode a string to a uint8 rank array, validating every character."""
        if not s:
            return np.empty(0, dtype=np.uint8)
        try:
            raw = np.frombuffer(s.encode("ascii"), dtype=np.uint8)
        except UnicodeEncodeError:
            bad = next(c for c in s if ord(c) > 127)
            raise UnknownCharacterError(f"character {bad!r} is not in alphabet {self.symbols!r}") from None
        codes = self._code_table[raw]
        if codes.min() < 0:
            col = int(np.argmax(codes < 0))
            raise UnknownCharacterError(
                f"character {s[col]!r} at column {col + 1} is not in alphabet {self.symbols!r}"
            )
        return codes.astype(np.uint8)

    def decode(self, codes) -> str:
        """Turn a sequence (or matrix, row by row) of ranks back into one string."""
        return self._symbol_table[np.asarray(codes, dtype=np.intp)].tobytes().decode("latin-1")

