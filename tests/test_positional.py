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
from pbwtidx import pbwt, permutations, positional
from pbwtidx.permutations import pass_digits
from pbwtidx.positional import STRATEGIES, backward_trace

from conftest import (DEMO_TEXT, EDGE_COLLECTIONS, PI_MATRIX, all_patterns, count_sweep_passes, perm_table,
                      random_collection, storage_policies)


@pytest.fixture(scope="module")
def bare_index(fig1):
    return px.build_index(fig1, px.StoragePolicy.no_perms())


def test_policy_stored_columns(fig1):
    # in order, not sorted: stored_perms lists pi_j in the order of stored_columns, which
    # _pi_source bisects, ascending to length
    for policy, columns in ((px.StoragePolicy.full(), list(range(9))), (px.StoragePolicy.sampled(3), [0, 3, 6, 8]),
                            (px.StoragePolicy.no_perms(), [8])):
        built = px.build_index(fig1, policy)
        for index in (built, px.from_bytes(px.to_bytes(built))):
            assert list(index.stored_perms) == columns == policy.stored_columns(fig1.length)
    full = px.build_index(fig1, px.StoragePolicy.full())
    for j in range(8):
        assert full.stored_perms[j].tolist() == [PI_MATRIX[i][j] for i in range(8)]


def test_default_policy_stride(fig1):
    index = px.build_index(fig1)
    assert index.policy == px.StoragePolicy.sampled(3)  # ceil(lg 8)
    assert px.default_stride(1) == 1
    assert px.default_stride(9) == 4


def test_default_stride_matches_an_integer_reference():
    # the least t >= 1 with 2**t >= n, with no float logarithm to round
    def least_power(n):
        t = 1
        while 2**t < n:
            t += 1
        return t

    sizes = list(range(1, 4097)) + [2**k + d for k in range(13, 33) for d in (-1, 0, 1)]
    for n in sizes:
        assert px.default_stride(n) == least_power(n), n


def test_policy_validation(fig1):
    # a float stride was accepted, and build_index then ended in range's
    # TypeError; a bool one held stride 1
    for stride in (0, 2.5, 2.0, "3", None, True, False):
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


def test_locate_refuses_interval_ends_that_are_not_integers(full_index):
    # Interval(0, 1.5) ended in a TypeError in the slice of pi_k
    for interval in (Interval(0, 1.5), Interval(0.5, 2), Interval(True, 2), Interval(0, np.float32(2))):
        with pytest.raises(IndexOutOfRangeError, match="interval end .* is not an integer"):
            px.locate(full_index, interval, 0)
    assert px.locate(full_index, Interval(np.int64(0), np.uint8(2)), 0) == px.locate(full_index, Interval(0, 2), 0)


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
                if min(index.stored_perms) <= k:
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
    # a bool passed as position 0 or 1
    for bad in (2.5, None, "3", True, False, np.True_):
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
            if min(index.stored_perms) <= k:
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
    # each query builds one pi_k source, which search and locate share; a
    # rebuild whose span one pass covers counts that pass and calls no rebuild
    calls = []
    rebuild_column = positional.rebuild_column

    def record(col, start, j_start, j_target, *digits):
        calls.append((j_start, j_target))
        return rebuild_column(col, start, j_start, j_target, *digits)

    monkeypatch.setattr(positional, "rebuild_column", record)
    sampled = px.build_index(fig1, px.StoragePolicy.sampled(3))
    bare = px.build_index(fig1, px.StoragePolicy.no_perms())
    cases = [(sampled, "binary", []), (sampled, "rebuild", []), (bare, "binary", [(8, 1)]), (bare, "rebuild", [])]
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


class _GatherCount(np.ndarray):
    """A kept pi that counts the gathers made from it: ``take`` and an index array."""

    gathers = 0

    def take(self, *args, **kwargs):
        _GatherCount.gathers += 1
        return super().take(*args, **kwargs)

    def __getitem__(self, item):
        if isinstance(item, (np.ndarray, list)):
            _GatherCount.gathers += 1
        return super().__getitem__(item)


def _rebuild_panels():
    """The edge shapes, and founder mosaics over alphabets whose codes pack
    8, 4, 2 and 1 to a byte (2, 4, 9 and 20 symbols) and over 100 symbols,
    whose 7-bit codes leave 7 columns to a pass beside 600 row ranks: the
    default stride, 10, leaves a gap of 9 columns below pi_11."""
    cols = [px.from_strings(strings, px.Alphabet(symbols)) for strings, symbols in EDGE_COLLECTIONS]
    np_rng = np.random.default_rng(3939)
    for sigma, n in ((2, 70), (4, 90), (9, 60), (20, 70), (100, 600)):
        symbols = "".join(chr(c) for c in range(28, 28 + sigma)) if sigma > 20 else "ACDEFGHIKLMNPQRSTVWY"[:sigma]
        founders = np_rng.integers(0, sigma, (5, 40), dtype=np.uint8)
        codes = founders[np_rng.integers(0, 5, (n, 4)).repeat(10, axis=1), np.arange(40)]
        mutated = np_rng.random(codes.shape) < 0.03
        codes[mutated] = np_rng.integers(0, sigma, int(mutated.sum()))
        cols.append(px.StringCollection(alphabet=px.Alphabet(symbols=symbols, sentinel="\x1b"), codes=codes))
    return cols


def test_rebuild_counts_its_last_pass_as_the_rebuilt_pi_k_would_bisect(monkeypatch):
    # every rebuild query against the oracle and against pi_k rebuilt by
    # rebuild_column and bisected, interval and rank order alike, built and
    # loaded, for patterns shorter than, as long as and longer than the last
    # pass's span, and absent ones; a query runs rebuild_column only for the
    # passes before its last, and its search gathers nothing from pi_c
    rng = random.Random(3940)
    calls = []
    rebuild_column = positional.rebuild_column

    def record(col, start, j_start, j_target, digits):
        calls.append((j_start, j_target))
        return rebuild_column(col, start, j_start, j_target, digits)

    monkeypatch.setattr(positional, "rebuild_column", record)
    seen = set()
    for col in _rebuild_panels():
        perms = perm_table(col)
        length = col.length
        policies = [px.StoragePolicy.full(), *map(px.StoragePolicy.sampled, (1, 2, 3, 5)),
                    px.StoragePolicy.sampled(px.default_stride(col.n)), px.StoragePolicy.no_perms()]
        for policy in policies:
            stored = policy.stored_columns(length)
            built = px.build_index(col, policy)
            for loaded, index in enumerate((built, px.from_bytes(px.to_bytes(built)))):
                index.stored_perms.update((c, pi.view(_GatherCount)) for c, pi in index.stored_perms.items())
                for k in sorted({min(1, length), *rng.sample(range(length + 1), min(length + 1, 8))}):
                    c = min(j for j in stored if j >= k)
                    hi = permutations.last_pass(col, c, k) if c > k else k
                    for m in {0, 1, hi - k - 1, hi - k, hi - k + 1, hi - k + 5, length - k}:
                        if not 0 <= m <= length - k:
                            continue
                        present = col.strings[rng.randrange(col.n)][k : k + m]
                        symbols = col.alphabet.symbols
                        absent = present[:-1] + symbols[(symbols.index(present[-1]) + 1) % len(symbols)] if m else ""
                        for pattern in (present, absent):
                            key = col.alphabet._code_bytes(pattern)
                            pi_k = perms[k]
                            if c > k:
                                pi_k = rebuild_column(col, perms[c], c, k, pass_digits(col, perms[c], c, k))
                            want = positional._bisect_interval(index, k, pi_k, key, k)
                            calls.clear()
                            _GatherCount.gathers = 0
                            interval, source, _ = positional.search(index, pattern, k, "rebuild")
                            assert interval == want, (policy, loaded, pattern, k)
                            assert _GatherCount.gathers == 0, (policy, pattern, k)
                            assert calls == ([(c, hi)] if hi < c else []), (policy, pattern, k)
                            matches = px.locate(index, interval, k, source=source)
                            assert matches == pi_k[want.f : want.l + 1].tolist()
                            assert sorted(matches) == px.naive_positional(col, pattern, k)
                            assert px.search_rebuild(index, pattern, k) == interval
                            assert px.search_binary(index, pattern, k, source=source) == interval
                            if c > k:
                                assert _GatherCount.gathers == (interval.width > 0 and hi == c)
                                seen.add((policy.kind, hi < c, (m > hi - k) - (m < hi - k), interval.is_empty))
                            # ranks the search did not select: the source runs its last pass
                            for f, l in ((0, col.n - 1), (want.l + 1, col.n - 1), (want.f, want.f)):
                                if 0 <= f <= l < col.n:
                                    got = px.locate(index, Interval(f, l), k, source=source)
                                    assert got == pi_k[f : l + 1].tolist(), (policy, pattern, k, f, l)
    # every case of the count: one pass or more, and a pattern shorter than
    # the last pass, as long or longer, matched and absent, under sampled and
    # none, where a pattern outruns the last pass only if passes precede it
    cases = {(kind, wide, side, empty) for kind in ("sampled", "none") for wide in (False, True)
             for side in (-1, 0, 1) for empty in (False, True)}
    assert cases - {("none", False, 1, False), ("none", False, 1, True)} == seen


def test_under_the_default_policy_a_rebuild_query_sorts_no_pass_of_every_row(monkeypatch):
    # under the default policy, with codes that leave a pass room for every
    # column of the gap, a rebuild query counts its one pass
    calls = []
    monkeypatch.setattr(positional, "rebuild_column", lambda *args: calls.append(args[2:4]))
    for col in _rebuild_panels()[:-1]:
        index = px.from_bytes(px.to_bytes(px.build_index(col)))
        for k in range(col.length + 1):
            for m in range(min(4, col.length - k) + 1):
                pattern = col.strings[k % col.n][k : k + m]
                assert sorted(px.query(index, pattern, k, "rebuild")[1]) == px.naive_positional(col, pattern, k)
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
    # build_index hands its sweep's collection and kept permutations to
    # the index, which would otherwise invert the columns it was just given
    def refuse(*_):
        raise AssertionError("the build inverted its own columns")

    monkeypatch.setattr(pbwt.PbwtInversion, "_sweep_to", refuse)
    for col, queries in _search_cases():
        for policy in storage_policies(col.n, col.length):
            index = px.build_index(col, policy)
            assert index.collection is col and index.alphabet is col.alphabet
            assert list(index.stored_perms) == policy.stored_columns(col.length)
            pattern, k = queries[-1]
            assert sorted(px.query(index, pattern, k)[1]) == px.naive_positional(col, pattern, k)


def _sweep_panel() -> px.StringCollection:
    rng = random.Random(3535)
    founders = ["".join(rng.choices("ACGT", k=60)) for _ in range(6)]
    return px.from_strings(["".join(c if rng.random() > 0.05 else rng.choice("ACGT") for c in rng.choice(founders))
                            for _ in range(200)])


def test_a_loaded_index_sweeps_each_column_once_and_only_as_far_as_read(monkeypatch):
    col = _sweep_panel()
    length = col.length
    for policy in (px.StoragePolicy.sampled(7), px.StoragePolicy.full()):
        built = px.build_index(col, policy)
        blob = px.to_bytes(built)
        swept = count_sweep_passes(monkeypatch)
        loaded = px.from_bytes(blob)
        assert swept == [] and loaded == built and built == loaded and swept == []
        k, m = 40, 8
        pattern = col.strings[0][k : k + m]
        px.search_backward(loaded, pattern, k)
        assert swept == []
        h = max(c for c in policy.stored_columns(length) if c <= k)
        assert sorted(px.query(loaded, pattern, k, "backward")[1]) == px.naive_positional(col, pattern, k)
        assert swept == list(range(length - 1, h - 1, -1))
        for later in range(h, length - m + 1):
            pattern = col.strings[later % col.n][later : later + m]
            assert sorted(px.query(loaded, pattern, later)[1]) == px.naive_positional(col, pattern, later)
        assert swept == list(range(length - 1, h - 1, -1))
        # the collection, read by binary, rebuild and --verify, finishes the sweep where it stopped
        assert loaded.collection == col
        assert swept == list(range(length - 1, -1, -1))
        for j, pi in built.stored_perms.items():
            assert np.array_equal(loaded.stored_perms[j], pi)
        assert list(loaded.stored_perms) == policy.stored_columns(length)
        for later in range(length - m + 1):
            pattern = col.strings[later % col.n][later : later + m]
            for strategy in STRATEGIES:
                assert sorted(px.query(loaded, pattern, later, strategy)[1]) == px.naive_positional(col, pattern, later)
        # stored_perms alone finishes the sweep too; no column is sorted twice in either session
        swept.clear()
        again = px.from_bytes(blob)
        assert list(again.stored_perms) == policy.stored_columns(length)
        assert swept == list(range(length - 1, -1, -1))
        assert again.collection == col and swept == list(range(length - 1, -1, -1))
        monkeypatch.undo()


def test_under_none_a_query_reads_pi_k_from_the_loads_sweep_until_it_has_passed_k(monkeypatch):
    # no column at or below k is stored, so a query that is not a rebuild
    # sweeps down to k and reads pi_k there, keeping neither pi_k nor digits;
    # once the sweep has sorted a column below k, pi_k is rebuilt from pi_L as
    # before, which reads the collection and so finishes the sweep
    col = _sweep_panel()
    length = col.length
    blob = px.to_bytes(px.build_index(col, px.StoragePolicy.no_perms()))
    swept = count_sweep_passes(monkeypatch)
    loaded = px.from_bytes(blob)
    for k, sorted_to, digits in ((45, 45, set()), (45, 45, set()), (20, 20, set()), (50, 0, {length})):
        pattern = col.strings[k % col.n][k : k + 6]
        assert sorted(px.query(loaded, pattern, k)[1]) == px.naive_positional(col, pattern, k)
        assert swept == list(range(length - 1, sorted_to - 1, -1)), k
        assert set(loaded.rebuild_digits) == digits and list(loaded._inversion.perms) == [length], k
    # a binary query reads pi_k from the sweep too, then finishes it for the collection
    swept.clear()
    loaded = px.from_bytes(blob)
    pattern = col.strings[7][45:51]
    assert sorted(px.query(loaded, pattern, 45, "binary")[1]) == px.naive_positional(col, pattern, 45)
    assert swept == list(range(length - 1, -1, -1)) and loaded.rebuild_digits == {}


def test_an_interrupted_sweep_resumes():
    # a pass that raises part of the way down leaves the sweep where it was:
    # the next query sweeps on from there, and every answer matches the scan
    col = _sweep_panel()
    rng = random.Random(3536)
    for policy in storage_policies(col.n, col.length):
        blob = px.to_bytes(px.build_index(col, policy))
        for strategy in STRATEGIES:
            with pytest.MonkeyPatch.context() as monkeypatch:
                swept = count_sweep_passes(monkeypatch, fail_at=col.length // 2)
                loaded = px.from_bytes(blob)
                with pytest.raises(MemoryError):
                    px.query(loaded, col.strings[1][:5], 0, strategy)
                assert swept[-1] is None and len(swept) == col.length - col.length // 2
                for _ in range(6):
                    k = rng.randrange(col.length - 4)
                    pattern = col.strings[rng.randrange(col.n)][k : k + 4]
                    for strategy_after in rng.sample(STRATEGIES, len(STRATEGIES)):
                        matches = px.query(loaded, pattern, k, strategy_after)[1]
                        assert sorted(matches) == px.naive_positional(col, pattern, k)
                assert loaded.collection == col
                done = [j for j in swept if j is not None]
                assert sorted(done, reverse=True) == done == list(range(col.length - 1, -1, -1))


def _traced_peak(make):
    """``make()`` and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _panel_20000x200() -> px.StringCollection:
    codes = np.random.default_rng(20000).integers(0, 4, (20000, 200), dtype=np.uint8)
    return px.StringCollection(alphabet=px.Alphabet(), codes=codes)


def test_build_memory_keeps_only_the_stored_columns():
    # a byte count, not a timer: the build that held every pi_j in one
    # (L+1) x n int32 array and gathered the columns from it peaked at 41.6 MB
    # here, and the sweep that also wrote the 16 MB lf at 21.7 MB.  One sweep
    # that writes no lf needs the columns (4 MB) and the kept pi_j (1.2 MB):
    # 5.6 MB measured with numpy 2.4, bounded with 25% headroom over the two
    col = _panel_20000x200()
    index, peak = _traced_peak(lambda: px.build_index(col))
    assert "_lf" not in vars(index.matrix)
    assert peak < 1.25 * (index.cols.nbytes + sum(pi.nbytes for pi in index.stored_perms.values()))


def test_load_memory_holds_no_lf():
    # a byte count, not a timer: the load that also wrote the 16 MB lf peaked
    # at 25.7 MB, and unpacking 2**20 bytes per take, whose uint8 index numpy
    # casts to an 8 MB intp array, at 13.0 MB.  The load that also swept the
    # columns to the 4 MB collection and the 1.2 MB kept pi_j peaked at
    # 9.6 MB.  A load keeps only the 4 MB of columns: the peak, 5.57 MB
    # measured with numpy 2.4, adds the 1 MB packed section and a 512 KB
    # unpacking chunk.  Bounded with 20% headroom
    blob = px.to_bytes(px.build_index(_panel_20000x200()))
    loaded, peak = _traced_peak(lambda: px.from_bytes(blob))
    assert "_lf" not in vars(loaded.matrix)
    assert loaded._inversion.collection is None and not loaded._inversion.perms
    assert peak < 6.7e6
