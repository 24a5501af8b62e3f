"""Positional search over string collections via the positional Burrows-Wheeler
transform, and substring search over a single string via the BWT/FM-index that
falls out of indexing its cyclic shifts."""

from . import errors
from .alphabet import Alphabet
from .collection import StringCollection, from_strings, parse_collection, serialize_collection, suffix
from .fm import (
    FmIndex,
    SentinelText,
    fm_build,
    fm_count,
    fm_locate,
    verify_column_collapse,
)
from .indexfile import from_bytes, load_index, save_index, to_bytes
from .oracle import naive_positional, naive_sorted_rotations, naive_substring
from .pbwt import EMPTY, Interval, PbwtMatrix, build_pbwt
from .permutations import build_permutations
from .positional import (
    PositionalIndex,
    StoragePolicy,
    backward_step,
    build_index,
    default_stride,
    locate,
    query,
    search_backward,
    search_binary,
    search_rebuild,
)

__version__ = "0.1.0"

# the kernels are numpy code; the name stays for tools that record it
kernel_backend = "numpy"

__all__ = [
    "Alphabet",
    "EMPTY",
    "FmIndex",
    "Interval",
    "PbwtMatrix",
    "PositionalIndex",
    "SentinelText",
    "StoragePolicy",
    "StringCollection",
    "backward_step",
    "build_index",
    "build_pbwt",
    "build_permutations",
    "default_stride",
    "errors",
    "fm_build",
    "fm_count",
    "fm_locate",
    "from_bytes",
    "from_strings",
    "kernel_backend",
    "load_index",
    "locate",
    "naive_positional",
    "naive_sorted_rotations",
    "naive_substring",
    "parse_collection",
    "query",
    "save_index",
    "search_backward",
    "search_binary",
    "search_rebuild",
    "serialize_collection",
    "suffix",
    "to_bytes",
    "verify_column_collapse",
]
