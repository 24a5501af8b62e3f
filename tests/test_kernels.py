"""The build and load sweeps and the LF walk, against references."""

import random
import subprocess
import sys

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx.fm import _lf_walk
from pbwtidx.permutations import radix_sweep
from pbwtidx.positional import STRATEGIES

from conftest import all_checkpoints, child_env, random_collection, random_text, storage_policies


def radix_sweep_loops(codes, seed, sigma):
    """Reference for :func:`radix_sweep`: one stable counting sort per column, right to left.

    Returns ``(cols, lf, table)`` with every pi_j in the (L+1, n) ``table``;
    the slot a row's symbol is counted into is the row's LF value.
    """
    n, width = codes.shape
    cols = np.empty((width, n), np.uint8)
    lf = np.empty((width, n), np.int32)
    table = np.empty((width + 1, n), np.int32)
    table[width] = seed
    cursor = np.zeros(sigma, np.int64)
    for j in range(width - 1, -1, -1):
        cursor[:] = 0
        for i in range(n):
            cursor[codes[table[j + 1, i], j]] += 1
        total = 0
        for a in range(sigma):
            freq = cursor[a]
            cursor[a] = total
            total += freq
        for i in range(n):
            s = table[j + 1, i]
            a = codes[s, j]
            cols[j, i] = a
            lf[j, i] = cursor[a]
            table[j, cursor[a]] = s
            cursor[a] += 1
    return cols, lf, table


def two_argsort_index(collection, policy):
    """Reference for :func:`px.build_index`: the construction that sorted every column twice.

    Every pi_j goes into an (L+1, n) table and the PBWT columns are gathered
    from it; :class:`px.PbwtMatrix` sorts each column again when its ``lf``
    is read.  Returns the matrix and the kept permutations.
    """
    codes = collection.codes
    n, length = codes.shape
    table = np.empty((length + 1, n), np.int32)
    table[length] = np.arange(n)
    for j in range(length - 1, -1, -1):
        prev = table[j + 1]
        table[j] = prev[np.argsort(codes[prev, j], kind="stable")]
    cols = codes[table[1:], np.arange(length)[:, None]]
    matrix = px.PbwtMatrix(cols, collection.alphabet.sigma)
    return matrix, {j: table[j].copy() for j in policy.stored_columns(length)}


def _random_case(rng):
    sigma = rng.randint(2, 5)
    n = rng.randint(1, 24)
    width = rng.randint(1, 16)
    codes = np.array([[rng.randrange(sigma) for _ in range(width)] for _ in range(n)],
                     dtype=np.uint8)
    return codes, sigma


def test_radix_sweep_impls_agree():
    """The build's gather and the loader's scatter both sweep as the reference does."""
    rng = random.Random(1)
    for _ in range(30):
        codes, sigma = _random_case(rng)
        n, width = codes.shape
        identity = np.arange(n, dtype=np.int32)
        # a shuffled seed checks that ties keep the seed's order
        shuffled = np.array(rng.sample(range(n), n), dtype=np.int32)
        keep = sorted(rng.sample(range(width + 1), rng.randint(0, width + 1)))
        for s in (identity, shuffled):
            ref_cols, ref_lf, table = radix_sweep_loops(codes, s, sigma)
            cols = np.empty((width, n), np.uint8)
            back = np.empty((width, n), np.uint8)

            def gather(j, pi):
                return np.take(codes[:, j], pi, out=cols[j])

            def scatter(j, pi):
                back[j][pi] = ref_cols[j]
                return ref_cols[j]

            for column in (gather, scatter):
                perms = dict(radix_sweep(n, width, column, s))
                assert list(perms) == list(range(width, -1, -1))
                for j in keep:
                    assert perms[j].dtype == np.intp and np.array_equal(perms[j], table[j])
            assert np.array_equal(cols, ref_cols) and np.array_equal(back.T, codes)
            # each column's LF mapping, the inverse of its stable sort, as the matrix fills it
            lf = px.PbwtMatrix(cols, sigma).lf
            assert np.array_equal(lf, ref_lf) and lf.dtype == np.int32


def _sweep_collections():
    """Random collections, then the edge shapes: n = 1, L = 1, one symbol, periodic, all-equal."""
    rng = random.Random(12)
    np_rng = np.random.default_rng(12)

    def direct(symbols, codes):
        return px.StringCollection(alphabet=px.Alphabet(symbols=symbols), codes=np.asarray(codes, np.uint8))

    yield from (random_collection(rng, max_n=40, max_len=14) for _ in range(25))
    yield direct("ACGT", np_rng.integers(0, 4, (1, 9)))
    yield direct("ACGT", np_rng.integers(0, 4, (1, 1)))
    yield direct("ACGT", np_rng.integers(0, 4, (13, 1)))
    yield direct("A", np.zeros((6, 5)))
    yield direct("ACG", (np.arange(12)[None, :] + np.arange(10)[:, None]) % 3)
    yield direct("ACGT", np.tile(np_rng.integers(0, 4, (3, 4)), (4, 3)))
    yield direct("ACGT", np.full((9, 7), 2))
    # more rows than one 64-row checkpoint block
    yield direct("ACGT", np_rng.integers(0, 4, (150, 6)))


def _policies(n):
    return [px.StoragePolicy.full(), px.StoragePolicy.no_perms(), px.StoragePolicy.sampled(1),
            px.StoragePolicy.sampled(3), px.StoragePolicy.sampled(px.default_stride(n))]


def _assert_same_index(got, ref):
    matrix, stored = ref
    assert np.array_equal(got.matrix.cols, matrix.cols)
    assert np.array_equal(got.matrix.lf, matrix.lf) and got.matrix.lf.dtype == np.int32
    assert np.array_equal(all_checkpoints(got.matrix), all_checkpoints(matrix))
    assert list(got.stored_perms) == list(stored)
    for j, perm in stored.items():
        assert got.stored_perms[j].dtype == np.int32 and np.array_equal(got.stored_perms[j], perm)


@pytest.mark.parametrize("policy_at", range(5))
def test_build_and_load_sweeps_match_the_two_argsort_construction(policy_at):
    """One sweep builds what the two-argsort construction built, byte for
    byte on disk, and one sweep loads it back to the same index."""
    for col in _sweep_collections():
        policy = _policies(col.n)[policy_at]
        built, ref = px.build_index(col, policy), two_argsort_index(col, policy)
        _assert_same_index(built, ref)
        blob = px.to_bytes(built)
        assert blob == px.to_bytes(px.PositionalIndex(col.alphabet, ref[0].cols, policy))
        loaded = px.from_bytes(blob)
        assert loaded.collection == col and loaded.policy == policy
        _assert_same_index(loaded, ref)


def test_sweeps_match_the_oracle():
    """Kept permutations are the comparison-sorted suffixes, and every strategy
    on a loaded index answers as the brute-force scan does."""
    rng = random.Random(13)
    for col in _sweep_collections():
        index = px.from_bytes(px.to_bytes(px.build_index(col, px.StoragePolicy.sampled(2))))
        for j, perm in index.stored_perms.items():
            assert perm.tolist() == sorted(range(col.n), key=lambda i: (col.strings[i][j:], i))
        for _ in range(10):
            m = rng.randint(1, col.length)
            k = rng.randint(0, col.length - m)
            pattern = col.strings[rng.randrange(col.n)][k : k + m]
            for strategy in STRATEGIES:
                matches = px.query(index, pattern, k, strategy)[1]
                assert sorted(matches) == px.naive_positional(col, pattern, k)


def test_loaded_indexes_answer_as_the_oracle_in_any_query_order():
    """A loaded index sweeps its columns as queries read them, so the order
    of the queries decides where each one finds the sweep: every policy and
    strategy, in a shuffled order that starts with each strategy in turn,
    answers as the brute-force scan does."""
    rng = random.Random(14)
    for col in _sweep_collections():
        queries = []
        for _ in range(6):
            m = rng.randint(0, col.length)
            k = rng.choice((0, col.length - m, rng.randint(0, col.length - m)))
            pattern = (col.strings[rng.randrange(col.n)][k : k + m] if rng.random() < 0.7
                       else "".join(rng.choices(col.alphabet.symbols, k=m)))
            queries += [(pattern, k, strategy) for strategy in STRATEGIES]
        for policy in storage_policies(col.n, col.length):
            blob = px.to_bytes(px.build_index(col, policy))
            for first in STRATEGIES:
                rng.shuffle(queries)
                lead = next(i for i, q in enumerate(queries) if q[2] == first)
                queries[0], queries[lead] = queries[lead], queries[0]
                loaded = px.from_bytes(blob)
                for pattern, k, strategy in queries:
                    matches = px.query(loaded, pattern, k, strategy)[1]
                    assert sorted(matches) == px.naive_positional(col, pattern, k), (policy, pattern, k, strategy)


def test_lf_walk_reaches_the_oracle_positions():
    rng = random.Random(5)
    for _ in range(30):
        st = random_text(rng, max_len=64, sigma=rng.randint(1, 4))
        sa = px.naive_sorted_rotations(st.terminated)
        for stride in range(1, 6):
            index = px.fm_build(st, stride)
            rows = np.arange(index.rows, dtype=np.int64)
            pos, steps = _lf_walk(rows, index.matrix.lf[0], index.sampled_pos)
            assert pos.tolist() == sa
            assert steps.max() < stride


def test_numpy_backend_env_flag():
    # PBWTIDX_BACKEND is no longer read: asking for numba neither fails nor changes the kernels
    code = (
        "import pbwtidx; "
        "assert pbwtidx.kernel_backend == 'numpy'; "
        "col = pbwtidx.from_strings(['GATTACAT', 'TAGAGATA']); "
        "perms = pbwtidx.build_permutations(col, [0])[1]; "
        "print(perms[0].tolist())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_env(PBWTIDX_BACKEND="numba"),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 1]"
