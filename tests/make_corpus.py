"""Write or replay the CLI behaviour corpus, ``tests/data/cli_corpus.json``.

    python tests/make_corpus.py --seed S [--output PATH]   write the corpus
    python tests/make_corpus.py --replay PATH              replay it; exit 1 at the first mismatch

The corpus is a list of CLI calls over small seeded inputs, run in order
in one empty directory once its input files are written there.  Each call
records its argv and stdin, and the stdout, stderr and exit code that
``pbwtidx.cli.main`` gave when the corpus was written.  A call that names
an ``--output`` also records, for that file, the SHA-256 of its header and
of its unpacked codes, both read by this script rather than by the
package, or null when the call wrote no file.  The deflate bytes are not
recorded, since another zlib build may write other valid ones for the same
codes; for the same reason a build's ``bytes=N`` is checked against the
size of the file it wrote and recorded as ``bytes=*``.  Input files and
stdin are byte strings, held in the JSON as latin-1 text.

A replay runs every call in-process through ``cli.main``, so each query
loads its index afresh, as the CLI does.  It imports whichever ``pbwtidx``
Python finds first: ``src/`` under the test suite's path, an installed copy
when run from outside the checkout.  A change that moves an output
regenerates the corpus, and the JSON diff shows which calls moved.
"""

import argparse
import hashlib
import io
import json
import os
import random
import re
import struct
import sys
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from pbwtidx import cli

CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"

ACGT = "ACGT"
BITS = "01"
FIVE = "ACGNT"
AMINO = "ACDEFGHIKLMNPQRSTVWY"
# pattern flags a query runs under, one list per call
FLAG_SETS = [[], ["--trace"], ["--verify"], ["--count-only"], ["--sorted"]]
STRATEGIES = ["backward", "binary", "rebuild"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(blob: bytes) -> dict:
    """The SHA-256 of an index file's header, everything before its code
    section, and of its codes unpacked one byte each."""
    (count,) = struct.unpack_from("<H", blob, 9)
    at = 11 + count + 1
    if blob[8] == 1:  # positional: n, length, policy tag, stride
        n, length = struct.unpack_from("<II", blob, at)
        at, codes = at + 13, n * length
    else:  # substring: n, stride, sentinel row
        (codes,) = struct.unpack_from("<I", blob, at)
        at += 12
    width = 1 << (max(1, (count - 1).bit_length()) - 1).bit_length()
    packed = zlib.decompress(blob[at:-4])
    unpacked = bytearray()
    for byte in packed:
        unpacked.extend(byte >> shift & (1 << width) - 1 for shift in range(8 - width, -1, -width))
    return {"header_sha256": _sha(blob[:at]), "codes_sha256": _sha(bytes(unpacked[:codes]))}


def run_call(argv: list[str], stdin: str | None) -> dict:
    """Run one CLI call in the current directory and return what it gave."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO((stdin or "").encode("latin-1")), encoding="ascii")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin.close()
        sys.stdin = saved
    got = {"argv": argv, "stdin": stdin, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}
    if "--output" in argv:
        name = argv[argv.index("--output") + 1]
        blob = Path(name).read_bytes() if os.path.exists(name) else None
        got["files"] = {name: None if blob is None else _digests(blob)}
        # the count a build prints is the size of the file it wrote
        printed = re.search(r"bytes=(\d+)", got["stdout"])
        if printed and blob is not None and int(printed.group(1)) == len(blob):
            got["stdout"] = got["stdout"].replace(printed.group(0), "bytes=*")
    return got


class _Writer:
    """Runs each call as it is added, in a scratch directory, and keeps what it gave."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.inputs: dict[str, str] = {}
        self.calls: list[dict] = []

    def add_input(self, name: str, data: bytes):
        assert name not in self.inputs
        self.inputs[name] = data.decode("latin-1")
        Path(name).write_bytes(data)

    def call(self, *argv, stdin: bytes | None = None):
        self.calls.append(run_call([str(a) for a in argv], None if stdin is None else stdin.decode("latin-1")))


def _strings_file(strings) -> bytes:
    return ("\n".join(strings) + "\n").encode("ascii")


def _panels(rng: random.Random) -> dict[str, tuple[list[str], str]]:
    """Positional inputs: name -> (strings, alphabet)."""
    founders = ["".join(rng.choices(ACGT, k=36)) for _ in range(4)]
    founder_panel = ["".join(c if rng.random() > 0.03 else rng.choice(ACGT) for c in rng.choice(founders))
                     for _ in range(48)]
    return {
        "founders": (founder_panel, ACGT),
        "random": (["".join(rng.choices(ACGT, k=16)) for _ in range(20)], ACGT),
        "single": (["".join(rng.choices(ACGT, k=10))], ACGT),
        "column": (rng.choices(ACGT, k=9), ACGT),
        "equal": (["".join(rng.choices(ACGT, k=12))] * 8, ACGT),
        "periodic": ([("GAT" * 6)[s : s + 15] for s in (0, 1, 2, 0, 1)], ACGT),
        "ones": (["A" * 7] * 6, "A"),
        "bits": (["".join(rng.choices(BITS, k=24)) for _ in range(16)], BITS),
        "five": (["".join(rng.choices(FIVE, k=20)) for _ in range(12)], FIVE),
        "amino": (["".join(rng.choices(AMINO, k=40)) for _ in range(12)], AMINO),
    }


def _texts(rng: random.Random) -> dict[str, tuple[str, str]]:
    """Substring inputs: name -> (text, alphabet)."""
    return {
        "text": ("".join(rng.choices(ACGT, k=300)), ACGT),
        "demo": ("GATTAGATACAT", ACGT),
        "letter": ("A", ACGT),
        "periodic": ("ACGTTGCA" * 25, ACGT),
        "same": ("A" * 64, "A"),
        "bits": ("".join(rng.choices(BITS, k=200)), BITS),
        "five": ("".join(rng.choices(FIVE, k=120)), FIVE),
        "amino": ("".join(rng.choices(AMINO, k=150)), AMINO),
    }


def _policies(n: int) -> list[tuple[str, list[str], int]]:
    """(name, build flags, stride of the stored grid) per policy."""
    default = max(1, (n - 1).bit_length())
    return [("full", ["--policy", "full"], 1), ("sampled3", ["--policy", "sampled", "--stride", "3"], 3),
            ("default", [], default), ("none", ["--policy", "none"], 3)]


def _positional(w: _Writer):
    rng = w.rng
    for name, (strings, symbols) in _panels(rng).items():
        w.add_input(f"{name}.txt", _strings_file(strings))
        n, length = len(strings), len(strings[0])
        m = min(4, length)
        for policy, flags, stride in _policies(n):
            index = f"{name}-{policy}.idx"
            w.call("build", "--mode", "positional", "--input", f"{name}.txt", "--alphabet", symbols,
                   *flags, "--output", index)
            if name in ("founders", "bits"):  # the same build from stdin writes the same file
                w.call("build", "--mode", "positional", "--input", "-", "--alphabet", symbols, *flags,
                       "--output", f"{name}-{policy}-stdin.idx", stdin=_strings_file(strings))
            # k = 0, on and off the stored grid, and the last k a pattern of m characters allows
            positions = sorted({min(k, length - m) for k in (0, stride, stride + 1, length - m)})
            turn = 0
            for k in positions:
                for strategy in STRATEGIES:
                    pattern = strings[rng.randrange(n)][k : k + m]
                    sets = FLAG_SETS if name == "founders" else [FLAG_SETS[turn % len(FLAG_SETS)]]
                    turn += 1
                    for extra in sets:
                        w.call("query", "positional", "--index", index, "--pattern", pattern,
                               "--position", k, "--strategy", strategy, *extra)
            # every flag at once, a pattern that matches nothing, and the empty pattern
            k = rng.randrange(length - m + 1)
            absent = "".join(rng.choices(symbols, k=m))
            for pattern in (strings[0][k : k + m], absent, ""):
                for strategy in STRATEGIES:
                    w.call("query", "positional", "--index", index, "--pattern", pattern, "--position", k,
                           "--strategy", strategy, "--trace", "--verify", "--count-only", "--sorted")
            w.call("dump", "pi", "--index", index)
            w.call("dump", "pbwt", "--index", index)
    for flags in (["--position", "9", "--pattern", "AC"], ["--position", "-1", "--pattern", "A"],
                  ["--position", "0", "--pattern", "ACGN"], ["--position", "0", "--pattern", "$"]):
        w.call("query", "positional", "--index", "founders-full.idx", *flags)


def _substring(w: _Writer):
    rng = w.rng
    for name, (text, symbols) in _texts(rng).items():
        w.add_input(f"{name}.text", (text + "\n").encode("ascii"))
        builds = [(f"{name}-file.idx", ["--text-file", f"{name}.text"], None),
                  (f"{name}-stdin.idx", ["--text-file", "-", "--sa-stride", "3"], (text + "\r\n").encode("ascii")),
                  (f"{name}-one.idx", ["--text", text, "--sa-stride", "1"], None)]
        for index, flags, stdin in builds:
            w.call("build", "--mode", "substring", *flags, "--alphabet", symbols, "--output", index, stdin=stdin)
            at = rng.randrange(len(text))
            for pattern in (text[at : at + rng.randint(1, 6)], "".join(rng.choices(symbols, k=5))):
                for extra in (*FLAG_SETS[:4], ["--trace", "--verify", "--count-only"]):
                    w.call("query", "substring", "--index", index, "--pattern", pattern, *extra)
            # the empty pattern matches every position, the whole text one
            for pattern in ("", text):
                w.call("query", "substring", "--index", index, "--pattern", pattern, "--verify")
                w.call("query", "substring", "--index", index, "--pattern", pattern, "--trace", "--count-only")
            w.call("dump", "bwt", "--index", index)
    w.call("query", "substring", "--index", "demo-file.idx", "--pattern", "GAN")
    w.call("query", "substring", "--index", "demo-file.idx", "--pattern", "GA$")


def _mode_mismatches(w: _Writer):
    for what in ("pi", "pbwt"):
        w.call("dump", what, "--index", "demo-file.idx")
    w.call("dump", "bwt", "--index", "founders-full.idx")
    w.call("query", "positional", "--index", "demo-file.idx", "--pattern", "GA", "--position", "0")
    w.call("query", "substring", "--index", "founders-full.idx", "--pattern", "GA")


def _refused_inputs(w: _Writer):
    bad = {
        "ragged.txt": b"ACGT\nACG\nACGT\n",
        "blank.txt": b"ACGT\n\nACGA\n\n",
        "blanks-only.txt": b"\n\n\n",
        "empty.txt": b"",
        "crlf.txt": b"ACGT\r\nACGA\r\n",
        "cr.txt": b"ACGT\rACGA\rAC\r",
        "foreign.txt": b"ACGT\nACNT\n",
        "space.txt": b"ACGT\nAC T\n",
        "tab.txt": b"ACGT\nACG\t\n",
        "latin.txt": b"ACGT\nAC\xe9T\n",
        "utf8.txt": "ACGT\nACéT\n".encode("utf-8"),
        "high.txt": b"GAT\xffA\nGATTA\n",
        "sentinel.txt": b"ACGT\nAC$T\n",
    }
    for name, data in bad.items():
        w.add_input(name, data)
        w.call("build", "--mode", "positional", "--input", name, "--output", f"input-{len(w.calls)}.idx")
    for data in (b"ACGT\nACG\n", b"GAT\xffA\nGATTA\n", b"", b"ACGT\r\n\r\nACGA"):
        w.call("build", "--mode", "positional", "--input", "-", "--output", f"input-{len(w.calls)}.idx",
               stdin=data)
    for data in (b"", b"\r\n", b"ACXT\n", b"AC\xffT\n", b"ACGT$\n", b"AC GT\n"):
        w.call("build", "--mode", "substring", "--text-file", "-", "--output", f"input-{len(w.calls)}.idx",
               stdin=data)
    for argv in (
        ["--mode", "positional", "--input", "missing.txt"],
        ["--mode", "positional"],
        ["--mode", "positional", "--input", "founders.txt", "--stride", "0"],
        ["--mode", "positional", "--input", "founders.txt", "--stride", "4294967296"],
        ["--mode", "positional", "--input", "founders.txt", "--policy", "full", "--stride", "2"],
        ["--mode", "positional", "--input", "founders.txt", "--policy", "none", "--stride", "2"],
        ["--mode", "positional", "--input", "founders.txt", "--text", "ACGT"],
        ["--mode", "positional", "--input", "founders.txt", "--sa-stride", "2"],
        ["--mode", "positional", "--input", "founders.txt", "--alphabet", "AACGT"],
        ["--mode", "positional", "--input", "founders.txt", "--alphabet", ""],
        ["--mode", "positional", "--input", "founders.txt", "--alphabet", "ACG"],
        ["--mode", "substring"],
        ["--mode", "substring", "--text", ""],
        ["--mode", "substring", "--text", "ACGT", "--input", "founders.txt"],
        ["--mode", "substring", "--text", "ACGT", "--policy", "full"],
        ["--mode", "substring", "--text", "ACGT", "--stride", "2"],
        ["--mode", "substring", "--text", "ACGT", "--sa-stride", "0"],
        ["--mode", "substring", "--text-file", "missing.text"],
        ["--mode", "substring", "--text", "ACGT", "--alphabet", "A$CGT"],
    ):
        w.call("build", *argv, "--output", f"input-{len(w.calls)}.idx")
    for command in (["query", "positional", "--pattern", "A", "--position", "0"],
                    ["query", "substring", "--pattern", "A"], ["dump", "pbwt"], ["dump", "bwt"]):
        w.call(*command, "--index", "missing.idx")


def _resealed(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _crafted_files(w: _Writer):
    """Index files edited after they were written: each is kept in the corpus
    as bytes, so no replay depends on the deflate bytes its zlib writes."""
    w.call("build", "--mode", "positional", "--input", "founders.txt", "--alphabet", "ACGT",
           "--policy", "full", "--output", "base.idx")
    w.call("build", "--mode", "substring", "--text-file", "demo.text", "--output", "base-text.idx")
    w.call("build", "--mode", "positional", "--input", "random.txt", "--alphabet", "ACGNT",
           "--output", "base-wide.idx")
    w.call("build", "--mode", "substring", "--text-file", "demo.text", "--alphabet", "ACGNT",
           "--output", "base-wide-text.idx")
    crafted = {}
    for base, head in (("base.idx", 16 + 13), ("base-text.idx", 16 + 12),
                       ("base-wide.idx", 17 + 13), ("base-wide-text.idx", 17 + 12)):
        blob = Path(base).read_bytes()
        stem = base[:-4]
        packed = bytearray(zlib.decompress(blob[head:-4]))
        crafted[f"{stem}-truncated.idx"] = blob[: len(blob) // 2]
        crafted[f"{stem}-cut-resealed.idx"] = _resealed(blob[: (head + len(blob) - 4) // 2])
        crafted[f"{stem}-tail.idx"] = _resealed(blob[:-4] + b"\0")
        crafted[f"{stem}-flipped.idx"] = blob[:head] + bytes([blob[head] ^ 1]) + blob[head + 1 :]
        crafted[f"{stem}-old-magic.idx"] = b"PBWTIDX4" + blob[8:]
        crafted[f"{stem}-bad-magic.idx"] = b"NOTANIDX" + blob[8:]
        crafted[f"{stem}-mode.idx"] = _resealed(blob[:8] + b"\x03" + blob[9:-4])
        crafted[f"{stem}-header.idx"] = blob[:head - 1] + bytes([blob[head - 1] ^ 1]) + blob[head:]
        crafted[f"{stem}-zeroed.idx"] = _resealed(blob[: head - 4] + b"\0\0\0\0" + blob[head:-4])
        crafted[f"{stem}-short.idx"] = _resealed(blob[:head] + zlib.compress(bytes(packed[:-1])))
        crafted[f"{stem}-long.idx"] = _resealed(blob[:head] + zlib.compress(bytes(packed) + b"\0"))
        packed[0] |= 0xF0  # the first codes, recoded: out of range under ACGNT, reordered under ACGT
        crafted[f"{stem}-recoded.idx"] = _resealed(blob[:head] + zlib.compress(bytes(packed)))
    crafted["empty.idx"] = b""
    crafted["magic-only.idx"] = b"PBWTIDX5"
    for name, data in crafted.items():
        w.add_input(name, data)
        positional = "text" not in name
        w.call("query", "positional" if positional else "substring", "--index", name, "--pattern", "GA",
               *(["--position", "2", "--verify"] if positional else ["--verify"]))
        w.call("dump", "pbwt" if positional else "bwt", "--index", name)


def _line_endings_and_strides(w: _Writer):
    """The founders panel under other line endings, which the parser's line path
    reads, and sampled builds at strides 1, 2 and 5 queried on and off their grids."""
    rng = w.rng
    panel = Path("founders.txt").read_bytes()
    codes = _digests(Path("founders-full.idx").read_bytes())["codes_sha256"]
    variants = {"founders-crlf.txt": panel.replace(b"\n", b"\r\n"), "founders-cr.txt": panel.replace(b"\n", b"\r"),
                "founders-unended.txt": panel[:-1], "founders-blank.txt": panel + b"\n"}
    for name, data in variants.items():
        w.add_input(name, data)
        index = name.replace(".txt", ".idx")
        w.call("build", "--mode", "positional", "--input", name, "--policy", "full", "--output", index)
        if w.calls[-1]["files"][index]["codes_sha256"] != codes:
            raise SystemExit(f"{name} built other codes than founders.txt")
    w.add_input("ragged-rows.txt", b"ACG\n\nAC\n")  # 8 bytes, every 4th a newline, yet ragged
    w.call("build", "--mode", "positional", "--input", "ragged-rows.txt", "--output", "ragged-rows.idx")
    strings = panel.decode("ascii").split()
    length = len(strings[0])
    for stride in (1, 2, 5):
        index = f"founders-stride{stride}.idx"
        w.call("build", "--mode", "positional", "--input", "founders.txt", "--stride", stride, "--output", index)
        for k in sorted({0, stride, stride + 1, 3 * stride - 1, length - 4}):
            pattern = strings[rng.randrange(len(strings))][k : k + 4]
            for strategy in STRATEGIES:
                w.call("query", "positional", "--index", index, "--pattern", pattern, "--position", k,
                       "--strategy", strategy, "--verify")
            w.call("query", "positional", "--index", index, "--pattern", pattern, "--position", k, "--count-only")


def _multi_pass_rebuilds(w: _Writer):
    """`rebuild` queries whose gap takes more than one radix pass: a founder panel
    over 20 symbols, whose codes pack 8 bits each in the file and leave 11 columns
    to a pass beside 40 row ranks, under a sampled stride of 30 and under `none`.
    The last pass spans 6 and 1 columns at positions 2 and 18 from pi_30, and 11
    and 6 at positions 5 and 43 from pi_60; each is queried with patterns shorter
    than, as long as and longer than that span, present and absent."""
    rng = w.rng
    founders = ["".join(rng.choices(AMINO, k=60)) for _ in range(3)]
    strings = ["".join(c if rng.random() > 0.03 else rng.choice(AMINO) for c in rng.choice(founders))
               for _ in range(40)]
    w.add_input("amino-founders.txt", _strings_file(strings))
    builds = (("stride30", ["--stride", "30"], (2, 18)), ("none", ["--policy", "none"], (5, 43)))
    for policy, flags, positions in builds:
        index = f"amino-founders-{policy}.idx"
        w.call("build", "--mode", "positional", "--input", "amino-founders.txt", "--alphabet", AMINO, *flags,
               "--output", index)
        for k in positions:
            for m in (1, 6, 11, 16):
                present = strings[rng.randrange(len(strings))][k : k + m]
                absent = present[:-1] + AMINO[(AMINO.index(present[-1]) + 1) % len(AMINO)]
                for pattern in (present, absent):
                    for extra in ([], ["--verify"], ["--count-only"]):
                        w.call("query", "positional", "--index", index, "--pattern", pattern, "--position", k,
                               "--strategy", "rebuild", *extra)


def write(seed: int, output: Path):
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            w = _Writer(seed)
            _positional(w)
            _substring(w)
            _mode_mismatches(w)
            _refused_inputs(w)
            _crafted_files(w)
            _line_endings_and_strides(w)
            _multi_pass_rebuilds(w)
        finally:
            os.chdir(here)
    output.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(call, sort_keys=True) for call in w.calls]
    with open(output, "w", encoding="ascii") as fh:
        fh.write('{"seed": %d,\n "inputs": %s,\n "calls": [\n' % (seed, json.dumps(w.inputs, sort_keys=True)))
        fh.write(",\n".join(lines))
        fh.write("\n]}\n")
    return len(w.calls)


def replay(path: Path) -> str | None:
    """Replay the corpus at ``path``; a description of the first call whose
    output differs from the recorded one, or None when every call matches."""
    corpus = json.loads(Path(path).read_text(encoding="ascii"))
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, data in corpus["inputs"].items():
                Path(name).write_bytes(data.encode("latin-1"))
            for number, want in enumerate(corpus["calls"]):
                got = run_call(want["argv"], want["stdin"])
                if got != want:
                    moved = {key: {"want": want.get(key), "got": got.get(key)}
                             for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key)}
                    return f"call {number}, pbwtidx {' '.join(want['argv'])}: {json.dumps(moved)}"
        finally:
            os.chdir(here)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--seed", type=int, help="write the corpus from this seed")
    action.add_argument("--replay", type=Path, help="replay the corpus at this path")
    parser.add_argument("--output", type=Path, default=CORPUS, help=f"where --seed writes (default {CORPUS})")
    args = parser.parse_args(argv)
    if args.replay is not None:
        mismatch = replay(args.replay)
        print(mismatch or f"{args.replay}: every call matches")
        return 1 if mismatch else 0
    print(f"{args.output}: {write(args.seed, args.output)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
