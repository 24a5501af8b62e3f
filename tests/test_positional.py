import random
import re
import tracemalloc

import numpy as np
import pytest

import pbwtidx as px
from pbwtidx.errors import (
    IndexOutOfRangeError,
    PatternOverrunError,
    PermutationNotStoredError,
    UnknownCharacterError,
)
from pbwtidx.pbwt import EMPTY, Interval
from pbwtidx import positional
from pbwtidx.positional import backward_trace

from conftest import DEMO_TEXT, EDGE_COLLECTIONS, PI_MATRIX, all_patterns, random_collection, storage_policies


@pytest.fixture(scope="module")
def bare_index(fig1):
    return px.build_index(fig1, px.StoragePolicy.no_perms())


def test_policy_stored_columns(fig1):
    full = px.build_index(fig1, px.StoragePolicy.full())
    assert sorted(full.stored_perms) == list(range(9))
    for j in range(8):
        assert full.stored_perms[j].tolist() == [PI_MATRIX[i][j] for i in range(8)]
    sampled = px.build_index(fig1, px.StoragePolicy.sampled(3))
    assert sorted(sampled.stored_perms) == [0, 3, 6, 8]
    bare = px.build_index(fig1, px.StoragePolicy.no_perms())
    assert sorted(bare.stored_perms) == [8]


def test_default_policy_stride(fig1):
    index = px.build_index(fig1)
    assert index.policy == px.StoragePolicy.sampled(3)  # ceil(lg 8)
    assert px.default_stride(1) == 1
    assert px.default_stride(9) == 4


def test_policy_validation(fig1):
    # a float stride was accepted, and build_index then ended in range's TypeError
    for stride in (0, 2.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="integer stride >= 1"):
            px.StoragePolicy.sampled(stride)
    # numpy integers are integer strides
    for stride in (np.int64(3), np.uint32(3)):
        built = px.build_index(fig1, px.StoragePolicy.sampled(stride))
        assert px.to_bytes(built) == px.to_bytes(px.build_index(fig1, px.StoragePolicy.sampled(3)))
    with pytest.raises(ValueError):
        px.StoragePolicy("full", 2)
    with pytest.raises(ValueError):
        px.StoragePolicy("bogus")


def test_policy_nearest_stored_columns_match_a_scan(fig1):
    # the policy's arithmetic answers what a scan of the built index's columns finds
    rng = random.Random(606)
    collections = [fig1, px.from_strings(["A", "C"], px.Alphabet("AC"))]
    collections += [random_collection(rng, max_n=20, max_len=20) for _ in range(10)]
    for col in collections:
        length = col.length
        for policy in storage_policies(col.n, length):
            stored = px.build_index(col, policy).stored_perms
            for k in range(length + 1):
                assert policy.stored_at_or_below(k, length) == max((j for j in stored if j <= k), default=None)
                assert policy.stored_at_or_above(k, length) == min(j for j in stored if j >= k)


def test_search_binary_worked_example(full_index):
    interval = px.search_binary(full_index, "AGA", 3)
    assert sorted(px.locate(full_index, interval, 3)) == [1, 4, 5]
    assert px.search_binary(full_index, "A", 5) == Interval(0, 4)
    assert px.search_binary(full_index, "AAAA", 0) == EMPTY


def test_search_binary_requires_stored_column(bare_index):
    with pytest.raises(PermutationNotStoredError):
        px.search_binary(bare_index, "AGA", 3)


def test_pattern_overrun_is_an_error_not_a_miss(full_index):
    with pytest.raises(PatternOverrunError):
        px.search_binary(full_index, "AGA", 7)
    with pytest.raises(PatternOverrunError):
        px.search_backward(full_index, "AGA", 7)
    with pytest.raises(PatternOverrunError):
        px.search_rebuild(full_index, "AGA", 7)
    with pytest.raises(PatternOverrunError):
        px.search_backward(full_index, "A", -1)


def test_unknown_pattern_character(full_index):
    for search in (px.search_binary, px.search_backward, px.search_rebuild):
        with pytest.raises(UnknownCharacterError, match="column 2"):
            search(full_index, "AXA", 3)


def test_backward_trace_worked_example(full_index):
    trace = backward_trace(full_index, "AGA", 3)
    assert [(j, iv.f, iv.l) for j, iv in trace] == [
        (6, 0, 7),
        (5, 0, 4),
        (4, 3, 5),
        (3, 1, 3),
    ]


def test_backward_empty_pattern(full_index):
    assert px.search_backward(full_index, "", 4) == Interval(0, 7)
    assert px.locate(full_index, Interval(0, 7), 4) is not None
    assert sorted(px.locate(full_index, px.search_backward(full_index, "", 0), 0)) == list(range(8))


def test_backward_no_match(full_index):
    assert px.search_backward(full_index, "CCCC", 0) == EMPTY


def test_search_rebuild(fig1, bare_index):
    interval = px.search_rebuild(bare_index, "AGA", 3)
    assert sorted(px.locate(bare_index, interval, 3)) == [1, 4, 5]
    sampled5 = px.build_index(fig1, px.StoragePolicy.sampled(5))
    assert px.search_rebuild(sampled5, "A", 5) == Interval(0, 4)
    interval = px.search_rebuild(bare_index, "T", 7)
    assert sorted(px.locate(bare_index, interval, 7)) == [0, 2, 6, 7]


def test_locate_through_stored_pi2(fig1):
    index = px.build_index(fig1, px.StoragePolicy.sampled(2))
    assert sorted(index.stored_perms) == [0, 2, 4, 6, 8]
    # walk from the (1,3) interval at k=3 back to stored pi_2
    assert px.locate(index, Interval(1, 3), 3) == [5, 1, 4]


def test_locate_empty_interval(full_index):
    assert px.locate(full_index, EMPTY, 3) == []


def test_locate_rejects_columns_and_rows_outside_the_index():
    index = px.build_index(px.from_strings(["GATT", "TAGA", "CATC"]), px.StoragePolicy.full())
    bad = [(Interval(0, 5), 3), (Interval(0, 3), 0), (Interval(0, 1), 9), (Interval(0, 1), 5),
           (Interval(0, 1), -1), (Interval(-2, 1), 3), (Interval(-1, -1), 0)]
    for interval, k in bad:
        with pytest.raises(IndexOutOfRangeError):
            px.locate(index, interval, k)
    assert sorted(px.locate(index, Interval(0, 2), 4)) == [0, 1, 2]
    assert px.locate(index, EMPTY, 9) == []


def test_positions_and_strides_of_any_integer_type():
    # an unsigned numpy position or stride used to wrap in k - 1 or -(-k // t)
    # inside the index and answer wrongly, or end in a KeyError; each is now
    # an int from where it enters, and a position that is no integer is refused
    rng = random.Random(2323)
    col = px.from_strings(["".join(rng.choice("ACGT") for _ in range(12)) for _ in range(40)])
    queries = []
    for _ in range(25):
        m = rng.randint(0, 4)
        queries.append(("".join(rng.choice("ACGT") for _ in range(m)), rng.randint(0, col.length - m)))
    policies = [px.StoragePolicy.full(), px.StoragePolicy.no_perms()]
    policies += [px.StoragePolicy.sampled(stride) for stride in (3, np.int64(3), np.uint32(3))]
    for policy in policies:
        built = px.build_index(col, policy)
        for index in (built, px.from_bytes(px.to_bytes(built))):
            assert type(index.policy.stride) is (int if policy.kind == "sampled" else type(None))
            for pattern, k in queries:
                expected = px.naive_positional(col, pattern, k)
                searches = [px.search_backward, px.search_rebuild]
                if policy.stored_at_or_below(k, col.length) is not None:
                    searches.append(px.search_binary)
                for kind in (int, np.int8, np.int64, np.uint8, np.uint32, np.uint64):
                    typed = kind(k)
                    for strategy in positional.STRATEGIES:
                        assert sorted(px.query(index, pattern, typed, strategy)[1]) == expected
                    for search in searches:
                        assert sorted(px.locate(index, search(index, pattern, typed), typed)) == expected
                    trace = backward_trace(index, pattern, typed)
                    assert [j for j, _ in trace] == list(range(k + len(pattern), k - 1, -1))
                    assert all(type(j) is int for j, _ in trace)
                    interval = Interval(0, col.n - 1)
                    for j in range(k + len(pattern) - 1, k - 1, -1):
                        interval = px.backward_step(index, kind(j), interval, pattern[j - k])
                    assert interval == trace[-1][1]
    for stride in (5, np.int64(5), np.uint32(5)):
        fm = px.fm_build(px.SentinelText(DEMO_TEXT, col.alphabet), stride)
        for fm in (fm, px.from_bytes(px.to_bytes(fm))):
            assert type(fm.stride) is int
            assert sorted(px.fm_locate(fm, px.fm_count(fm, "TA"))) == px.naive_substring(DEMO_TEXT, "TA")
    index = px.build_index(col, px.StoragePolicy.full())
    for bad in (2.5, None, "3"):
        calls = [(px.query, ("A", bad, strategy)) for strategy in positional.STRATEGIES]
        calls += [(search, ("A", bad)) for search in
                  (px.search_backward, px.search_binary, px.search_rebuild, backward_trace)]
        calls += [(px.locate, (Interval(0, 1), bad)), (px.backward_step, (bad, Interval(0, 1), "A"))]
        for call, args in calls:
            with pytest.raises(IndexOutOfRangeError, match=re.escape(f"position {bad!r} is not an integer")):
                call(index, *args)


def test_locate_full_policy_reads_pi_k(full_index):
    assert px.locate(full_index, Interval(1, 3), 3) == [5, 1, 4]
    assert set(px.locate(full_index, Interval(1, 3), 3)) == {1, 4, 5}


def test_locate_no_stored_column_below_falls_back_to_rebuild(bare_index):
    interval = px.search_backward(bare_index, "AGA", 3)
    assert sorted(px.locate(bare_index, interval, 3)) == [1, 4, 5]


def test_nine_strategy_policy_combinations(fig1):
    policies = [px.StoragePolicy.full(), px.StoragePolicy.sampled(3), px.StoragePolicy.no_perms()]
    for policy in policies:
        index = px.build_index(fig1, policy)
        for strategy in ("binary", "backward", "rebuild"):
            interval, matches, _ = px.query(index, "AGA", 3, strategy=strategy)
            assert sorted(matches) == [1, 4, 5], (policy.kind, strategy)
            assert interval.width == 3
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        px.query(index, "AGA", 3, strategy="bogus")


def _assert_policies_and_strategies_agree(col, queries):
    # query hands its pi_k source to locate; the matches must be what locate
    # finds on its own, in the same rank order, under every policy
    for policy in storage_policies(col.n, col.length):
        index = px.build_index(col, policy)
        for pattern, k in queries:
            expected = px.naive_positional(col, pattern, k)
            backward = px.search_backward(index, pattern, k)
            assert px.search_rebuild(index, pattern, k) == backward
            if policy.stored_at_or_below(k, col.length) is not None:
                assert px.search_binary(index, pattern, k) == backward
            for strategy in positional.STRATEGIES:
                interval, matches, _ = px.query(index, pattern, k, strategy=strategy)
                assert interval == backward
                assert matches == px.locate(index, interval, k)
                assert sorted(matches) == expected, (policy, strategy, pattern, k)


def test_strategy_agreement_on_random_collections():
    rng = random.Random(44)
    for _ in range(30):
        col = random_collection(rng)
        stride = px.default_stride(col.n)
        indexes = {
            "binary": px.build_index(col, px.StoragePolicy.full()),
            "backward": px.build_index(col, px.StoragePolicy.sampled(stride)),
            "rebuild": px.build_index(col, px.StoragePolicy.no_perms()),
        }
        symbols = col.alphabet.symbols
        queries = []
        for _q in range(25):
            m = rng.randint(0, min(4, col.length))
            k = rng.randint(0, col.length - m)
            pattern = "".join(rng.choice(symbols) for _ in range(m))
            queries.append((pattern, k))
            expected = px.naive_positional(col, pattern, k)
            answers = {}
            for strategy, index in indexes.items():
                interval, matches, _ = px.query(index, pattern, k, strategy=strategy)
                assert interval.width == len(expected)
                assert len(set(matches)) == len(matches)
                answers[strategy] = sorted(matches)
            assert answers["binary"] == answers["backward"] == answers["rebuild"] == expected
        _assert_policies_and_strategies_agree(col, queries)


def test_sampled_binary_agrees_on_edge_shapes():
    for strings, symbols in EDGE_COLLECTIONS:
        col = px.from_strings(strings, px.Alphabet(symbols))
        queries = [(pattern, k) for pattern in all_patterns(symbols, min(3, col.length))
                   for k in range(col.length - len(pattern) + 1)]
        _assert_policies_and_strategies_agree(col, queries)


def test_sampled_binary_never_rebuilds(fig1, monkeypatch):
    # each query builds one pi_k source, which search and locate share
    calls = []
    rebuild_column = positional.rebuild_column

    def record(col, start, j_start, j_target):
        calls.append((j_start, j_target))
        return rebuild_column(col, start, j_start, j_target)

    monkeypatch.setattr(positional, "rebuild_column", record)
    sampled = px.build_index(fig1, px.StoragePolicy.sampled(3))
    bare = px.build_index(fig1, px.StoragePolicy.no_perms())
    cases = [(sampled, "binary", []), (sampled, "rebuild", [(3, 1)]),
             (bare, "binary", [(8, 1)]), (bare, "rebuild", [(8, 1)])]
    for index, strategy, rebuilds in cases:
        for pattern in ("AGA", "TTT"):
            calls.clear()
            interval, matches, _ = px.query(index, pattern, 1, strategy=strategy)
            assert calls == rebuilds, (index.policy.kind, strategy, pattern)
            assert sorted(matches) == px.naive_positional(fig1, pattern, 1)
    # the binary strategy reads the stored columns at every position
    calls.clear()
    for k in range(6):
        interval, matches, _ = px.query(sampled, "AGA", k, strategy="binary")
        assert sorted(matches) == px.naive_positional(fig1, "AGA", k)
        assert px.search_binary(sampled, "AGA", k) == interval
    assert calls == []


def _search_cases():
    # random collections and the edge shapes, with every short pattern at every position
    rng = random.Random(1818)
    cols = [px.from_strings(strings, px.Alphabet(symbols)) for strings, symbols in EDGE_COLLECTIONS]
    cols += [random_collection(rng) for _ in range(12)]
    for col in cols:
        patterns = all_patterns(col.alphabet.symbols, min(4, col.length))
        yield col, [(p, k) for p in patterns for k in range(col.length - len(p) + 1)]


def test_search_backward_is_the_trace_without_its_steps():
    # where the trace first goes empty: at the first step, a middle one or the last
    emptied = set()
    for col, queries in _search_cases():
        index = px.build_index(col)
        for pattern, k in queries:
            trace = backward_trace(index, pattern, k)
            interval = px.search_backward(index, pattern, k)
            assert interval == trace[-1][1]
            assert sorted(px.locate(index, interval, k)) == px.naive_positional(col, pattern, k)
            first_empty = next((i for i, (_, iv) in enumerate(trace) if iv.is_empty), None)
            if first_empty is not None:
                m = len(pattern)
                emptied.add("first" if first_empty == 1 else "last" if first_empty == m else "middle")
    assert emptied == {"first", "middle", "last"}


def test_query_traces_only_when_asked(monkeypatch):
    cases = [(px.build_index(col), queries) for col, queries in _search_cases()]
    traced = []
    for index, queries in cases:
        for pattern, k in queries:
            interval, matches, trace = px.query(index, pattern, k, with_trace=True)
            assert trace == backward_trace(index, pattern, k)
            traced.append((interval, matches, None))

    def refuse(*_):
        raise AssertionError("an untraced query built a trace")

    monkeypatch.setattr(positional, "backward_trace", refuse)
    assert [px.query(index, pattern, k) for index, queries in cases for pattern, k in queries] == traced


def test_locate_reads_pi_k_in_rank_order_at_and_above_the_source():
    # pi_k from a full index is the truth for every interval, whether the
    # source column h is k itself (k = 0, k = length, a stored column, or
    # pi_k rebuilt under none) or lies below k, so that locate walks
    rng = random.Random(1819)
    walked = set()
    for col, _ in _search_cases():
        truth = px.build_index(col, px.StoragePolicy.full()).stored_perms
        for policy in storage_policies(col.n, col.length):
            index = px.build_index(col, policy)
            for k in range(col.length + 1):
                h = positional._pi_source(index, k)[0]
                walked.add((policy.kind, h < k, k in (0, col.length)))
                f = rng.randrange(col.n)
                for interval in (Interval(0, col.n - 1), Interval(f, rng.randrange(f, col.n))):
                    assert px.locate(index, interval, k) == truth[k][interval.f : interval.l + 1].tolist()
    assert {(kind, below) for kind, below, _ in walked} == {
        ("full", False), ("sampled", False), ("sampled", True), ("none", False)}
    assert ("none", False, False) in walked and ("sampled", False, False) in walked


def test_build_sweeps_once(monkeypatch):
    # build_index hands its sweep's collection, lf and kept permutations to
    # the index, which would otherwise invert the columns it was just given
    def refuse(*_):
        raise AssertionError("the build inverted its own columns")

    monkeypatch.setattr(positional, "invert_pbwt", refuse)
    for col, queries in _search_cases():
        for policy in storage_policies(col.n, col.length):
            index = px.build_index(col, policy)
            assert index.collection is col and index.alphabet is col.alphabet
            assert list(index.stored_perms) == policy.stored_columns(col.length)
            pattern, k = queries[-1]
            assert sorted(px.query(index, pattern, k)[1]) == px.naive_positional(col, pattern, k)


def test_build_memory_keeps_only_the_stored_columns():
    # a byte count, not a timer: the build that held every pi_j in one
    # (L+1) x n int32 array and gathered the columns from it peaked at 41.6 MB
    # here; one sweep needs lf (16 MB), the columns and the kept pi_j
    codes = np.random.default_rng(20000).integers(0, 4, (20000, 200), dtype=np.uint8)
    col = px.StringCollection(alphabet=px.Alphabet(), codes=codes)
    tracemalloc.start()
    try:
        index = px.build_index(col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * index.matrix.lf.nbytes
