import random

import pytest

import pbwtidx as px
from pbwtidx.errors import PatternOverrunError, PermutationNotStoredError, UnknownCharacterError
from pbwtidx.pbwt import EMPTY, Interval
from pbwtidx.positional import backward_trace

from conftest import PI_MATRIX, random_collection


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


def test_policy_validation():
    with pytest.raises(ValueError):
        px.StoragePolicy.sampled(0)
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
    with pytest.raises(UnknownCharacterError):
        px.search_backward(full_index, "AXA", 3)


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
        for _q in range(25):
            m = rng.randint(0, min(4, col.length))
            k = rng.randint(0, col.length - m)
            pattern = "".join(rng.choice(symbols) for _ in range(m))
            expected = px.naive_positional(col, pattern, k)
            answers = {}
            for strategy, index in indexes.items():
                interval, matches, _ = px.query(index, pattern, k, strategy=strategy)
                assert interval.width == len(expected)
                assert len(set(matches)) == len(matches)
                answers[strategy] = sorted(matches)
            assert answers["binary"] == answers["backward"] == answers["rebuild"] == expected
