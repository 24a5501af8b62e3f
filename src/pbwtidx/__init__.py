"""Positional search over string collections via the positional Burrows-Wheeler
transform, and substring search over a single string via the BWT/FM-index that
falls out of indexing its cyclic shifts."""

from . import errors
from ._kernels import BACKEND as kernel_backend
from .alphabet import Alphabet, alph_char, alph_rank
from .collection import StringCollection, from_strings, parse_collection, serialize_collection, suffix
from .fm import (
    FmIndex,
    SentinelText,
    fm_build,
    fm_count,
    fm_locate,
    lf_step,
    verify_column_collapse,
)
from .indexfile import from_bytes, load_index, save_index, to_bytes
from .oracle import naive_positional, naive_sorted_rotations, naive_substring
from .pbwt import EMPTY, Interval, PbwtMatrix, RankTable, backward_step, build_pbwt
from .permutations import build_permutations
from .positional import (
    PositionalIndex,
    StoragePolicy,
    build_index,
    default_stride,
    locate,
    query,
    search_backward,
    search_binary,
    search_rebuild,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "EMPTY",
    "FmIndex",
    "Interval",
    "PbwtMatrix",
    "PositionalIndex",
    "RankTable",
    "SentinelText",
    "StoragePolicy",
    "StringCollection",
    "alph_char",
    "alph_rank",
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
    "lf_step",
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
