import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pbwtidx import cli, positional
from pbwtidx.cli import main

from conftest import DEMO_BWT, DEMO_TEXT, FIG1_STRINGS, PBWT_MATRIX, PI_MATRIX, child_env, count_sweep_passes
import make_corpus


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text("\n".join(FIG1_STRINGS) + "\n")
    return str(path)


@pytest.fixture()
def fig1_idx(fig1_file, tmp_path):
    out = str(tmp_path / "fig1.idx")
    assert main(["build", "--mode", "positional", "--input", fig1_file,
                 "--policy", "full", "--output", out]) == 0
    return out


@pytest.fixture()
def demo_idx(tmp_path):
    out = str(tmp_path / "demo.idx")
    assert main(["build", "--mode", "substring", "--text", DEMO_TEXT,
                 "--sa-stride", "5", "--output", out]) == 0
    return out


def test_build_summary(fig1_file, tmp_path, capsys):
    out = str(tmp_path / "x.idx")
    assert main(["build", "--mode", "positional", "--input", fig1_file, "--output", out]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("n=8 len=8 sigma=4 policy=sampled(stride=3)")
    assert "bytes=" in line


def test_build_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = main(["build", "--mode", "positional", "--input", str(empty),
                 "--output", str(tmp_path / "e.idx")])
    assert code == 2
    assert "no input strings" in capsys.readouterr().err


def test_build_positional_needs_input(tmp_path, capsys):
    assert main(["build", "--mode", "positional", "--output", str(tmp_path / "x.idx")]) == 2
    assert capsys.readouterr().err == "error: positional build needs --input\n"


def test_build_missing_file_is_io_failure(tmp_path, capsys):
    code = main(["build", "--mode", "positional", "--input", str(tmp_path / "nope.txt"),
                 "--output", str(tmp_path / "x.idx")])
    assert code == 1


@pytest.mark.parametrize("message, line", [("", "error: out of memory\n"),
                                           ("Unable to allocate 8.00 GiB", "error: out of memory: Unable to allocate 8.00 GiB\n")])
def test_memory_error_is_one_line_and_exit_code_1(message, line, fig1_idx, monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_query_positional", exhausted)
    assert main(["query", "positional", "--index", fig1_idx, "--pattern", "A", "--position", "0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)


def test_build_stride_rejected_outside_sampled(fig1_file, tmp_path):
    code = main(["build", "--mode", "positional", "--input", fig1_file,
                 "--policy", "full", "--stride", "2", "--output", str(tmp_path / "x.idx")])
    assert code == 2


@pytest.mark.parametrize("mode, option, value, message", [
    pytest.param("positional", "--stride", "-3", "--stride must be between 1 and 4294967295, not -3",
                 id="stride-negative"),
    pytest.param("positional", "--stride", "0", "--stride must be between 1 and 4294967295, not 0",
                 id="stride-zero"),
    pytest.param("positional", "--stride", "4294967296", "--stride must be between 1 and 4294967295",
                 id="stride-beyond-u32"),
    pytest.param("substring", "--sa-stride", "-3", "--sa-stride must be between 1 and 4294967295, not -3",
                 id="sa-stride-negative"),
    pytest.param("substring", "--sa-stride", "0", "--sa-stride must be between 1 and 4294967295, not 0",
                 id="sa-stride-zero"),
    pytest.param("substring", "--sa-stride", "4294967296", "--sa-stride must be between 1 and 4294967295",
                 id="sa-stride-beyond-u32"),
    pytest.param("substring", "--alphabet", "CA",
                 "invalid --alphabet 'CA': symbols must be strictly increasing", id="alphabet-unordered"),
    pytest.param("positional", "--alphabet", "AC\u20ac", "symbols and sentinel must be ASCII",
                 id="alphabet-non-ascii"),
])
def test_build_rejects_bad_stride_or_alphabet(mode, option, value, message, fig1_file, tmp_path, capsys):
    out = tmp_path / "x.idx"
    source = ["--input", fig1_file] if mode == "positional" else ["--text", DEMO_TEXT]
    code = main(["build", "--mode", mode, *source, option, value, "--output", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, option, value", [
    pytest.param("positional", "--text", "GATTACA", id="positional-text"),
    pytest.param("positional", "--text-file", "text.txt", id="positional-text-file"),
    pytest.param("positional", "--sa-stride", "3", id="positional-sa-stride"),
    pytest.param("substring", "--input", "fig1.txt", id="substring-input"),
    pytest.param("substring", "--stride", "3", id="substring-stride"),
    pytest.param("substring", "--policy", "none", id="substring-policy"),
])
def test_build_rejects_flags_of_the_other_mode(mode, option, value, fig1_file, tmp_path, capsys):
    out = tmp_path / "x.idx"
    source = ["--input", fig1_file] if mode == "positional" else ["--text", DEMO_TEXT]
    code = main(["build", "--mode", mode, *source, option, value, "--output", str(out)])
    assert code == 2
    assert f"{option} does not apply to {mode} mode" in capsys.readouterr().err
    assert not out.exists()


def test_build_non_ascii_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"GAT\xc3\xa9\nACGT\n")
    out = tmp_path / "x.idx"
    code = main(["build", "--mode", "positional", "--input", str(bad), "--output", str(out)])
    assert code == 2
    # each byte is one character, refused by the alphabet like any other
    assert capsys.readouterr().err == (
        "error: line 1: character '\\udcc3' at column 4 is not in alphabet 'ACGT'\n")
    assert not out.exists()


def test_dump_pi_golden(fig1_idx, capsys):
    assert main(["dump", "pi", "--index", fig1_idx]) == 0
    got = capsys.readouterr().out.splitlines()
    expected = ["\t".join(str(v) for v in row) for row in PI_MATRIX]
    assert got == expected


def test_dump_pi_needs_full_policy(fig1_file, tmp_path, monkeypatch, capsys):
    # the refusal reads the policy's stored columns, so the loaded index sorts
    # no column first: reading stored_perms finished the inversion, one sort per column
    for policy in ([], ["--policy", "sampled", "--stride", "2"], ["--policy", "none"]):
        out = str(tmp_path / "x.idx")
        assert main(["build", "--mode", "positional", "--input", fig1_file, *policy, "--output", out]) == 0
        swept = count_sweep_passes(monkeypatch)
        capsys.readouterr()
        assert main(["dump", "pi", "--index", out]) == 2
        assert "rebuild with --policy full" in capsys.readouterr().err
        assert swept == [], policy
        monkeypatch.undo()


def test_dump_pbwt_golden(fig1_idx, capsys):
    assert main(["dump", "pbwt", "--index", fig1_idx]) == 0
    got = capsys.readouterr().out.splitlines()
    expected = ["\t".join(row) for row in PBWT_MATRIX]
    assert got == expected


def test_dump_bwt_golden(demo_idx, capsys):
    assert main(["dump", "bwt", "--index", demo_idx]) == 0
    assert capsys.readouterr().out.strip() == DEMO_BWT


def test_dump_bwt_color(demo_idx, capsys, monkeypatch):
    monkeypatch.setenv("PBWT_IDX_COLOR", "auto")
    monkeypatch.setattr("sys.stdout.isatty", lambda: True, raising=False)
    assert main(["dump", "bwt", "--index", demo_idx]) == 0
    out = capsys.readouterr().out.strip()
    assert "\x1b[31m" in out
    plain = out.replace("\x1b[31m", "").replace("\x1b[0m", "")
    assert plain == DEMO_BWT
    # exactly one colored character per sampled position
    assert out.count("\x1b[31m") == 3


def test_dump_bwt_color_never(demo_idx, capsys, monkeypatch):
    monkeypatch.setenv("PBWT_IDX_COLOR", "never")
    monkeypatch.setattr("sys.stdout.isatty", lambda: True, raising=False)
    assert main(["dump", "bwt", "--index", demo_idx]) == 0
    assert "\x1b[" not in capsys.readouterr().out


def test_dump_mode_mismatch(fig1_idx, demo_idx, capsys):
    for what, idx, built in [("bwt", fig1_idx, "positional"), ("pbwt", demo_idx, "substring"),
                             ("pi", demo_idx, "substring")]:
        assert main(["dump", what, "--index", idx]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: index was built for {built} queries\n"


def test_query_positional_trace_and_results(fig1_idx, capsys):
    assert main(["query", "positional", "--index", fig1_idx, "--pattern", "AGA",
                 "--position", "3", "--trace"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["6 0 7", "5 0 4", "4 3 5", "3 1 3"]
    assert out[4:] == ["5", "1", "4"]


def test_query_positional_sorted(fig1_idx, capsys):
    assert main(["query", "positional", "--index", fig1_idx, "--pattern", "AGA",
                 "--position", "3", "--sorted"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1", "4", "5"]


def test_query_positional_strategies(fig1_idx, capsys):
    for strategy in ("binary", "backward", "rebuild"):
        assert main(["query", "positional", "--index", fig1_idx, "--pattern", "AGA",
                     "--position", "3", "--strategy", strategy, "--sorted"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1", "4", "5"]


def test_query_positional_count_only(fig1_idx, capsys):
    assert main(["query", "positional", "--index", fig1_idx, "--pattern", "AGA",
                 "--position", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_query_positional_empty_result_exits_zero(fig1_idx, capsys):
    assert main(["query", "positional", "--index", fig1_idx, "--pattern", "AAAA",
                 "--position", "0"]) == 0
    assert capsys.readouterr().out == ""
    # the trace prints an empty interval as "- -"
    assert main(["query", "positional", "--index", fig1_idx, "--pattern", "TTAA",
                 "--position", "0", "--trace"]) == 0
    assert capsys.readouterr().out.splitlines() == ["4 0 7", "3 0 4", "2 0 0", "1 - -", "0 - -"]


def test_query_positional_overrun_exits_two(fig1_idx, capsys):
    assert main(["query", "positional", "--index", fig1_idx, "--pattern", "AGA",
                 "--position", "7"]) == 2


def test_query_positional_verify(fig1_idx, capsys):
    assert main(["query", "positional", "--index", fig1_idx, "--pattern", "AGA",
                 "--position", "3", "--verify"]) == 0


def test_query_positional_mode_mismatch(demo_idx):
    assert main(["query", "positional", "--index", demo_idx, "--pattern", "A",
                 "--position", "0"]) == 2


def test_query_substring(demo_idx, capsys):
    assert main(["query", "substring", "--index", demo_idx, "--pattern", "TA"]) == 0
    assert capsys.readouterr().out.splitlines() == ["3", "7"]
    assert main(["query", "substring", "--index", demo_idx, "--pattern", "TA",
                 "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["query", "substring", "--index", demo_idx, "--pattern", "TTTT"]) == 0
    assert capsys.readouterr().out == ""


def test_query_substring_trace(demo_idx, capsys):
    assert main(["query", "substring", "--index", demo_idx, "--pattern", "ATA",
                 "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0 0 12"
    assert len(lines) == 4 + 1  # 3 trace steps after the initial interval, one result
    assert main(["query", "substring", "--index", demo_idx, "--pattern", "TTTT", "--trace"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 0 12", "1 9 12", "2 12 12", "3 - -", "4 - -"]


def test_queries_trace_only_when_asked(fig1_idx, demo_idx, capsys, monkeypatch):
    # without --trace both query commands run the plain-int search loops
    def refuse(*_):
        raise AssertionError("traced without --trace")

    monkeypatch.setattr(cli, "count_trace", refuse)
    monkeypatch.setattr(positional, "backward_trace", refuse)
    assert main(["query", "substring", "--index", demo_idx, "--pattern", "TA"]) == 0
    assert capsys.readouterr().out.splitlines() == ["3", "7"]
    assert main(["query", "substring", "--index", demo_idx, "--pattern", "TTTT", "--count-only"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0"]
    assert main(["query", "positional", "--index", fig1_idx, "--pattern", "AGA",
                 "--position", "3", "--verify"]) == 0
    assert capsys.readouterr().out.splitlines() == ["5", "1", "4"]


def test_query_substring_verify(demo_idx):
    assert main(["query", "substring", "--index", demo_idx, "--pattern", "GATA",
                 "--verify"]) == 0


def test_query_verify_mismatch_exits_one(fig1_idx, demo_idx, capsys, monkeypatch):
    # an oracle that disagrees: the answer is still printed, the mismatch goes to stderr
    monkeypatch.setattr(cli, "naive_positional", lambda *_: [0])
    monkeypatch.setattr(cli, "naive_substring", lambda *_: [0])
    assert main(["query", "positional", "--index", fig1_idx, "--pattern", "AGA",
                 "--position", "3", "--verify"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["5", "1", "4"]
    assert err == "verify: MISMATCH index=[1, 4, 5] oracle=[0]\n"
    assert main(["query", "substring", "--index", demo_idx, "--pattern", "TA", "--verify"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["3", "7"]
    assert err == "verify: MISMATCH index=[3, 7] oracle=[0]\n"


def test_build_substring_from_file(tmp_path, capsys):
    text_file = tmp_path / "text.txt"
    text_file.write_text(DEMO_TEXT + "\n")
    out = str(tmp_path / "file.idx")
    assert main(["build", "--mode", "substring", "--text-file", str(text_file),
                 "--sa-stride", "5", "--output", out]) == 0
    capsys.readouterr()
    assert main(["dump", "bwt", "--index", out]) == 0
    assert capsys.readouterr().out.strip() == DEMO_BWT


def test_build_substring_text_is_taken_literally(tmp_path, monkeypatch, capsys):
    # a file named like the text but holding another one: --text indexes the
    # name, --text-file the file, and neither writes to stderr
    monkeypatch.chdir(tmp_path)
    Path(DEMO_TEXT).write_text("ACGT\n")
    bwts = {}
    for flag, out in (("--text", "literal.idx"), ("--text-file", "file.idx")):
        assert main(["build", "--mode", "substring", flag, DEMO_TEXT,
                     "--sa-stride", "5", "--output", out]) == 0
        assert capsys.readouterr().err == ""
        assert main(["dump", "bwt", "--index", out]) == 0
        bwts[flag] = capsys.readouterr().out.strip()
    assert bwts == {"--text": DEMO_BWT, "--text-file": "T$ACG"}
    # a path is a text like any other, so its '/' is an unknown character
    path = str(tmp_path / DEMO_TEXT)
    assert main(["build", "--mode", "substring", "--text", path, "--output", "path.idx"]) == 2
    assert "character '/' at column 1 is not in alphabet" in capsys.readouterr().err


def test_build_substring_text_flags(tmp_path, capsys):
    out = str(tmp_path / "x.idx")
    assert main(["build", "--mode", "substring", "--output", out]) == 2
    assert "needs --text or --text-file" in capsys.readouterr().err
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"GAT\xffA")
    assert main(["build", "--mode", "substring", "--text-file", str(binary), "--output", out]) == 2
    assert "character '\\udcff' at column 4 is not in alphabet 'ACGT'" in capsys.readouterr().err
    assert main(["build", "--mode", "substring", "--text-file", str(tmp_path / "nope.txt"),
                 "--output", out]) == 1
    with pytest.raises(SystemExit) as exited:
        main(["build", "--mode", "substring", "--text", "GATA", "--text-file", str(binary),
              "--output", out])
    assert exited.value.code == 2


def test_build_substring_text_file_strips_only_line_breaks(tmp_path, capsys):
    # CR and LF around the text go, as parse_collection's line breaks do;
    # any other control character or space is refused with its column
    out = str(tmp_path / "x.idx")
    text_file = tmp_path / "text.txt"
    text_file.write_bytes(b"\r\n" + DEMO_TEXT.encode() + b"\r\n\n")
    assert main(["build", "--mode", "substring", "--text-file", str(text_file), "--output", out]) == 0
    assert capsys.readouterr().out.startswith(f"n={len(DEMO_TEXT)} ")
    for raw, message in ((b"GATTACA\x0c\x1c\n", r"character '\x0c' at column 8"),
                         (b" GATTACA\n", "character ' ' at column 1"),
                         (b"GATTACA\t\n", r"character '\t' at column 8")):
        text_file.write_bytes(raw)
        assert main(["build", "--mode", "substring", "--text-file", str(text_file), "--output", out]) == 2
        assert f"{message} is not in alphabet 'ACGT'" in capsys.readouterr().err


def test_build_substring_empty_text(tmp_path, capsys):
    out = str(tmp_path / "x.idx")
    assert main(["build", "--mode", "substring", "--text", "", "--output", out]) == 2
    assert capsys.readouterr().err == "error: text is empty\n"


def test_custom_alphabet(tmp_path, capsys):
    coll = tmp_path / "bin.txt"
    coll.write_text("0110\n1001\n0000\n")
    out = str(tmp_path / "bin.idx")
    assert main(["build", "--mode", "positional", "--input", str(coll),
                 "--alphabet", "01", "--policy", "full", "--output", out]) == 0
    capsys.readouterr()
    assert main(["query", "positional", "--index", out, "--pattern", "01",
                 "--position", "0", "--sorted", "--verify"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0"]


def test_build_from_stdin(tmp_path, capsys, monkeypatch):
    import io

    data = ("\n".join(FIG1_STRINGS) + "\n").encode("ascii")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    out = str(tmp_path / "stdin.idx")
    assert main(["build", "--mode", "positional", "--input", "-", "--output", out]) == 0
    assert capsys.readouterr().out.startswith("n=8 len=8")
    # --text-file reads stdin through the same reader
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(DEMO_TEXT.encode() + b"\r\n")))
    assert main(["build", "--mode", "substring", "--text-file", "-", "--output", out]) == 0
    assert capsys.readouterr().out.startswith(f"n={len(DEMO_TEXT)} ")
    assert main(["dump", "bwt", "--index", out]) == 0
    assert capsys.readouterr().out == DEMO_BWT + "\n"
    # and the help of both flags says so
    with pytest.raises(SystemExit):
        main(["build", "--help"])
    assert " ".join(capsys.readouterr().out.split()).count("; - for stdin") == 2


def test_build_non_ascii_stdin_under_strict_utf8(tmp_path):
    # stdin is read as bytes, so a strict UTF-8 text layer never decodes it
    out = tmp_path / "x.idx"
    proc = subprocess.run([sys.executable, "-m", "pbwtidx.cli", "build", "--mode", "positional",
                           "--input", "-", "--output", str(out)],
                          input=b"GAT\xffA\nGATTA\n", capture_output=True,
                          env=child_env(PYTHONIOENCODING="utf-8:strict"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.decode() == "error: line 1: character '\\udcff' at column 4 is not in alphabet 'ACGT'\n"
    assert not out.exists()


def test_module_runs_the_cli(fig1_file, tmp_path):
    out = str(tmp_path / "m.idx")
    cli = [sys.executable, "-m", "pbwtidx.cli"]
    built = subprocess.run([*cli, "build", "--mode", "positional", "--input", fig1_file, "--output", out],
                           capture_output=True, text=True, env=child_env())
    assert built.returncode == 0, built.stderr
    assert built.stdout.startswith("n=8 len=8")
    found = subprocess.run([*cli, "query", "positional", "--index", out, "--pattern", "AGA",
                            "--position", "3", "--sorted", "--verify"],
                           capture_output=True, text=True, env=child_env())
    assert found.returncode == 0, found.stderr
    assert found.stdout.splitlines() == ["1", "4", "5"]


def test_console_script_entry():
    """The ``[project.scripts]`` entry starts the CLI as a process.

    Runs the entry-point target the way an installer's generated launcher
    does, so it needs no installed ``pbwtidx`` executable.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["pbwtidx"]
    module, func = target.split(":")
    launcher = (f"import sys; from {module} import {func}; "
                f"sys.argv[0] = 'pbwtidx'; sys.exit({func}())")
    proc = subprocess.run([sys.executable, "-c", launcher, "--help"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "build" in proc.stdout


@pytest.mark.skipif(shutil.which("pbwtidx") is None, reason="no pbwtidx executable on PATH")
def test_installed_console_script():
    proc = subprocess.run(["pbwtidx", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "build" in proc.stdout


def test_cli_corpus_replays():
    """Every call in the committed behaviour corpus (``tests/make_corpus.py``)
    gives its recorded stdout, stderr, exit code and index-file digests."""
    mismatch = make_corpus.replay(make_corpus.CORPUS)
    assert mismatch is None, mismatch
