"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; plain ``pytest`` shows them only for failures.  Criteria with a
runtime bound time the operation itself.
"""

import functools
import itertools
import random
import time

import pytest

import pbwtidx as px
from pbwtidx.cli import main
from pbwtidx.fm import locate_with_steps
from pbwtidx.positional import backward_trace

from conftest import DEMO_BWT, DEMO_TEXT, FIG1_STRINGS, PBWT_MATRIX, PI_MATRIX, build_matrix, occ, perm_table, sa_samples


def _report(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"criterion {number}: PASS - {description}{suffix}")

        return run

    return wrap


@pytest.fixture(scope="module")
def fig1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "fig1.txt"
    path.write_text("\n".join(FIG1_STRINGS) + "\n")
    return str(path)


@_report(1, "build + dump pi reproduces the 8x8 permutation matrix in < 1 s")
def test_criterion_1_pi_matrix(fig1_file, tmp_path, capsys):
    out = str(tmp_path / "fig1.idx")
    started = time.perf_counter()
    assert main(["build", "--mode", "positional", "--input", fig1_file,
                 "--policy", "full", "--output", out]) == 0
    assert main(["dump", "pi", "--index", out]) == 0
    elapsed = time.perf_counter() - started
    lines = capsys.readouterr().out.splitlines()[1:]  # drop the build summary
    assert lines == ["\t".join(str(v) for v in row) for row in PI_MATRIX]
    assert elapsed < 1.0
    return f"{elapsed:.3f} s"


@_report(2, "dump pbwt reproduces the 8x8 PBWT matrix, column 4 == TTGGGAAC")
def test_criterion_2_pbwt_matrix(fig1_file, tmp_path, capsys):
    out = str(tmp_path / "fig1.idx")
    assert main(["build", "--mode", "positional", "--input", fig1_file,
                 "--policy", "full", "--output", out]) == 0
    assert main(["dump", "pbwt", "--index", out]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines == ["\t".join(row) for row in PBWT_MATRIX]
    column4 = "".join(line.split("\t")[4] for line in lines)
    assert column4 == "TTGGGAAC"


@_report(3, "query (AGA, 3) = {1, 4, 5} under 3 strategies x 3 policies")
def test_criterion_3_nine_combinations(fig1):
    policies = (px.StoragePolicy.full(),
                px.StoragePolicy.sampled(px.default_stride(fig1.n)),
                px.StoragePolicy.no_perms())
    combos = 0
    for policy in policies:
        index = px.build_index(fig1, policy)
        for strategy in ("binary", "backward", "rebuild"):
            _, matches, _ = px.query(index, "AGA", 3, strategy=strategy)
            assert sorted(matches) == [1, 4, 5], (policy.kind, strategy)
            combos += 1
    assert combos == 9
    return "9 combinations"


@_report(4, "backward trace (0,7)->(0,4)->(3,5)->(1,3), locate via pi_2 = S5, S1, S4")
def test_criterion_4_trace_and_locate_order(fig1):
    index = px.build_index(fig1, px.StoragePolicy.sampled(2))
    trace = backward_trace(index, "AGA", 3)
    assert [(j, iv.f, iv.l) for j, iv in trace] == [
        (6, 0, 7), (5, 0, 4), (4, 3, 5), (3, 1, 3)]
    assert max(j for j in index.stored_perms if j <= 3) == 2
    assert px.locate(index, trace[-1][1], 3) == [5, 1, 4]


@_report(5, "dump bwt prints TTTCGGAA$AATA for GATTAGATACAT")
def test_criterion_5_bwt(tmp_path, capsys):
    out = str(tmp_path / "demo.idx")
    assert main(["build", "--mode", "substring", "--text", DEMO_TEXT,
                 "--sa-stride", "5", "--output", out]) == 0
    assert main(["dump", "bwt", "--index", out]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == DEMO_BWT


@_report(6, "cyclic-shift PBWT columns collapse on demo text + 200 random strings in < 10 s")
def test_criterion_6_column_collapse(alphabet):
    started = time.perf_counter()
    assert px.verify_column_collapse(px.SentinelText(DEMO_TEXT, alphabet))
    rng = random.Random(606)
    for _ in range(200):
        sigma = rng.randint(2, 4)
        symbols = "ACGT"[:sigma]
        text = "".join(rng.choice(symbols) for _ in range(rng.randint(1, 64)))
        assert px.verify_column_collapse(px.SentinelText(text, px.Alphabet(symbols=symbols)))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    return f"201 texts, {elapsed:.2f} s"


@_report("6c", "prefix search at k = 0 over the padded suffixes of T$ answers as substring search on T")
def test_criterion_6c_prefix_search_over_suffixes_is_substring_search():
    # the paper's second step: each suffix of T$, padded on the right with $
    # to n + 1 characters, is one string of a positional index whose $ is a
    # symbol, the smallest; the padding follows the suffix's own $, so the
    # strings sort as the suffixes do and the rows are the FM index's rows
    rng = random.Random(616)
    texts = [(DEMO_TEXT, "ACGT"), ("G", "ACGT"), ("AAAAA", "A"), ("GATAGATAGATA", "ACGT"), ("TTTTTTTT", "ACGT")]
    texts += [("".join(rng.choices("ACGT", k=rng.randint(1, 40))), "ACGT") for _ in range(15)]
    queries = 0
    for text, symbols in texts:
        n = len(text)
        fm_index = px.fm_build(px.SentinelText(text, px.Alphabet(symbols)), rng.randint(1, 4))
        terminated = text + "$"
        suffixes = px.from_strings([terminated[p:].ljust(n + 1, "$") for p in range(n + 1)],
                                   px.Alphabet("$" + symbols, sentinel="!"))
        patterns = [p for m in (1, 2, 3) for p in _patterns(symbols, m)]
        patterns += [text[p : p + rng.randint(4, 12)] for p in rng.choices(range(n), k=8)]
        patterns += ["".join(rng.choices(symbols, k=rng.randint(4, 12))) for _ in range(4)]
        expected = {}
        for pattern in patterns:
            interval = px.fm_count(fm_index, pattern)
            expected[pattern] = interval, sorted(px.fm_locate(fm_index, interval))
        for policy in (px.StoragePolicy.full(), px.StoragePolicy.sampled(2), px.StoragePolicy.no_perms()):
            index = px.build_index(suffixes, policy)
            for pattern in patterns:
                if len(pattern) > n + 1:
                    continue
                for strategy in ("binary", "backward", "rebuild"):
                    interval, matches, _ = px.query(index, pattern, 0, strategy)
                    assert (interval, sorted(matches)) == expected[pattern], (text, pattern, policy, strategy)
                    queries += 1
    return f"{len(texts)} texts, {queries} queries"


@_report(7, "stride-5 samples are text positions {0, 5, 10}; every locate walk < 5 LF steps")
def test_criterion_7_sampling(demo_fm):
    assert sorted(sa_samples(demo_fm).values()) == [0, 5, 10]
    walks = 0
    for m in range(0, 4):
        for pattern in itertools.product("ACGT", repeat=m):
            interval = px.fm_count(demo_fm, "".join(pattern))
            positions, steps = locate_with_steps(demo_fm, interval)
            assert len(positions) == interval.width
            assert all(d < 5 for d in steps)
            walks += len(steps)
    interval = px.fm_count(demo_fm, DEMO_TEXT)
    _, steps = locate_with_steps(demo_fm, interval)
    assert steps and all(d < 5 for d in steps)
    return f"{walks + len(steps)} walks"


def _patterns(symbols, m):
    return ["".join(p) for p in itertools.product(symbols, repeat=m)]


def _random_collection(rng, max_n=16, max_len=12):
    sigma = rng.randint(2, 4)
    symbols = "ACGT"[:sigma]
    width = rng.randint(1, max_len)
    strings = ["".join(rng.choice(symbols) for _ in range(width))
               for _ in range(rng.randint(1, max_n))]
    return px.from_strings(strings, px.Alphabet(symbols=symbols))


def _check_positional_collection(col, rng):
    index = px.build_index(col, px.StoragePolicy.sampled(px.default_stride(col.n)))
    symbols = col.alphabet.symbols
    for m in range(0, min(4, col.length) + 1):
        patterns = _patterns(symbols, m)
        for k in range(col.length - m + 1):
            by_pattern = {}
            for i, s in enumerate(col.strings):
                by_pattern.setdefault(s[k : k + m], []).append(i)
            # the grouped scan is the oracle; spot-check it against the
            # one-pattern oracle function on a couple of entries
            probe = rng.choice(patterns)
            assert by_pattern.get(probe, []) == px.naive_positional(col, probe, k)
            for pattern in patterns:
                interval = px.search_backward(index, pattern, k)
                expected = by_pattern.get(pattern, [])
                assert interval.width == len(expected), (pattern, k)
                if expected:
                    assert sorted(px.locate(index, interval, k)) == expected
    # end to end through every strategy on a sample of queries
    for _ in range(6):
        m = rng.randint(0, min(4, col.length))
        k = rng.randint(0, col.length - m)
        pattern = "".join(rng.choice(symbols) for _ in range(m))
        expected = px.naive_positional(col, pattern, k)
        for strategy in ("binary", "backward", "rebuild"):
            _, matches, _ = px.query(index, pattern, k, strategy=strategy)
            assert sorted(matches) == expected


def _check_fm_text(st, rng):
    text = st.text
    symbols = st.alphabet.symbols
    indexes = {stride: px.fm_build(st, stride) for stride in (1, 2, 4, 8)}
    for m in range(0, 6):
        oracle = {}
        for p in range(len(text) - m + 1):
            oracle.setdefault(text[p : p + m], []).append(p)
        if m == 0:
            oracle = {"": list(range(len(text) + 1))}
        for pattern in _patterns(symbols, m):
            expected = oracle.get(pattern, [])
            if rng.random() < 0.02:
                # spot-check the grouped scan against the one-pattern oracle
                assert px.naive_substring(text, pattern) == expected
            for stride, index in indexes.items():
                interval = px.fm_count(index, pattern)
                assert interval.width == len(expected), (pattern, stride)
                if expected:
                    positions, steps = locate_with_steps(index, interval)
                    assert sorted(positions) == expected
                    assert all(d < stride for d in steps)


@_report(8, "oracle equivalence: 500 collections and 200 texts, all patterns, in < 60 s")
def test_criterion_8_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(808)
    for _ in range(500):
        _check_positional_collection(_random_collection(rng), rng)
    positional_done = time.perf_counter()
    for _ in range(200):
        sigma = rng.randint(2, 4)
        symbols = "ACGT"[:sigma]
        alphabet = px.Alphabet(symbols=symbols)
        text = "".join(rng.choice(symbols) for _ in range(rng.randint(1, 256)))
        _check_fm_text(px.SentinelText(text, alphabet), rng)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    return (f"positional {positional_done - started:.1f} s, "
            f"substring {elapsed - (positional_done - started):.1f} s")


@_report(9, "structural invariants hold on the random suites")
def test_criterion_9_structural_invariants(tmp_path):
    rng = random.Random(909)

    # permutation, sortedness, and tie-break properties
    for _ in range(40):
        col = _random_collection(rng)
        perms = perm_table(col)
        for j in range(col.length + 1):
            column = perms[j].tolist()
            assert sorted(column) == list(range(col.n))
            suffixes = [col.strings[i][j:] for i in column]
            assert suffixes == sorted(suffixes)
            for a, b in zip(column, column[1:]):
                if col.strings[a][j:] == col.strings[b][j:]:
                    assert a < b

        # rank/scan equivalence on every PBWT column
        matrix = build_matrix(col)
        for j in range(col.length):
            column_chars = col.alphabet.decode(matrix.cols[j])
            for a in range(col.alphabet.sigma):
                symbol = col.alphabet.char(a)
                for i in range(col.n + 1):
                    assert occ(matrix, j, a, i) == column_chars[:i].count(symbol)

    # LF bijectivity and full-cycle text recovery
    for _ in range(40):
        sigma = rng.randint(2, 4)
        symbols = "ACGT"[:sigma]
        text = "".join(rng.choice(symbols) for _ in range(rng.randint(1, 64)))
        index = px.fm_build(px.SentinelText(text, px.Alphabet(symbols=symbols)),
                            rng.choice([1, 2, 4, 8]))
        rows = index.rows
        images = sorted(index.matrix.lf[0].tolist())
        assert images == list(range(rows))
        row = index.bwt.index(index.alphabet.sentinel)
        chars = []
        for _step in range(rows):
            chars.append(index.bwt[row])
            row = int(index.matrix.lf[0][row])
        assert "".join(chars) == (text + index.alphabet.sentinel)[::-1]

    # serialization round trip preserves query answers
    for _ in range(8):
        col = _random_collection(rng, max_n=12, max_len=10)
        alphabet = col.alphabet
        symbols = alphabet.symbols
        policy = rng.choice([px.StoragePolicy.full(), px.StoragePolicy.no_perms(),
                             px.StoragePolicy.sampled(rng.randint(1, 4))])
        index = px.build_index(col, policy)
        loaded = px.from_bytes(px.to_bytes(index))
        for _q in range(12):
            m = rng.randint(0, min(4, col.length))
            k = rng.randint(0, col.length - m)
            pattern = "".join(rng.choice(symbols) for _ in range(m))
            for strategy in ("binary", "backward", "rebuild"):
                assert (px.query(index, pattern, k, strategy=strategy)[:2]
                        == px.query(loaded, pattern, k, strategy=strategy)[:2])

        text = "".join(rng.choice(symbols) for _ in range(rng.randint(1, 64)))
        st = px.SentinelText(text, alphabet)
        fm = px.fm_build(st, rng.choice([1, 2, 4, 8]))
        fm_loaded = px.from_bytes(px.to_bytes(fm))
        for _q in range(12):
            pattern = "".join(rng.choice(symbols) for _ in range(rng.randint(0, 5)))
            iv = px.fm_count(fm, pattern)
            assert iv == px.fm_count(fm_loaded, pattern)
            assert px.fm_locate(fm, iv) == px.fm_locate(fm_loaded, iv)
