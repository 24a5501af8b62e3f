"""Command-line front end: build, query, dump, with oracle-backed --verify.

Exit codes: 0 on success (an empty query result is a success), 1 on I/O
failure or a --verify mismatch, 2 on usage or validation errors.
"""

import argparse
import os
import sys

from .alphabet import Alphabet
from .collection import parse_collection
from .errors import ModeMismatchError, PbwtIndexError, PermutationNotStoredError
from .fm import FmIndex, SentinelText, count_trace, fm_build, fm_count, fm_locate
from .indexfile import U32_MAX, load_index, save_index
from .oracle import naive_positional, naive_substring
from .positional import STRATEGIES, PositionalIndex, StoragePolicy, build_index, default_stride, locate, search

_RED = "\x1b[31m"
_RESET = "\x1b[0m"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pbwtidx",
                                     description="Positional and substring search indexes")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build an index file")
    build.add_argument("--mode", choices=["positional", "substring"], required=True)
    build.add_argument("--input", help="collection file, one string per line; - for stdin")
    text = build.add_mutually_exclusive_group()
    text.add_argument("--text", help="text to index, substring mode")
    text.add_argument("--text-file", dest="text_file",
                      help="file holding the text to index, substring mode; - for stdin")
    build.add_argument("--alphabet", default="ACGT", help="ordered symbol string (default ACGT)")
    build.add_argument("--policy", choices=["full", "sampled", "none"])  # None: sampled, positional mode only
    build.add_argument("--stride", type=int, help="sampled-policy stride (default ceil(lg n))")
    build.add_argument("--sa-stride", type=int, dest="sa_stride",
                       help="suffix-array sample spacing (default ceil(lg n))")
    build.add_argument("--output", required=True, help="index file to write")
    build.set_defaults(handler=cmd_build)

    qry = sub.add_parser("query", help="query an index file")
    qsub = qry.add_subparsers(dest="query_type", required=True)

    qpos = qsub.add_parser("positional", help="strings containing the pattern at a position")
    qpos.add_argument("--index", required=True)
    qpos.add_argument("--pattern", required=True)
    qpos.add_argument("--position", type=int, required=True)
    qpos.add_argument("--strategy", choices=STRATEGIES, default="backward")
    qpos.add_argument("--trace", action="store_true", help="print j f_j l_j per backward step")
    qpos.add_argument("--verify", action="store_true", help="cross-check against the brute-force scan")
    qpos.add_argument("--count-only", action="store_true", dest="count_only")
    qpos.add_argument("--sorted", action="store_true", dest="sorted_output",
                      help="sort matches ascending instead of rank order")
    qpos.set_defaults(handler=cmd_query_positional)

    qsub_p = qsub.add_parser("substring", help="occurrence positions of the pattern in the text")
    qsub_p.add_argument("--index", required=True)
    qsub_p.add_argument("--pattern", required=True)
    qsub_p.add_argument("--trace", action="store_true", help="print step f l per backward step")
    qsub_p.add_argument("--verify", action="store_true")
    qsub_p.add_argument("--count-only", action="store_true", dest="count_only")
    qsub_p.set_defaults(handler=cmd_query_substring)

    dump = sub.add_parser("dump", help="print index internals")
    dump.add_argument("what", choices=["pi", "pbwt", "bwt"])
    dump.add_argument("--index", required=True)
    dump.set_defaults(handler=cmd_dump)

    return parser


def _read(path: str) -> bytes:
    """The bytes of the file at ``path``, or of stdin for ``-``."""
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def cmd_build(args) -> int:
    try:
        alphabet = Alphabet(symbols=args.alphabet)
    except ValueError as exc:
        raise PbwtIndexError(f"invalid --alphabet {args.alphabet!r}: {exc}") from None
    # each mode refuses the flags that only the other mode reads
    foreign = {
        "positional": {"--text": args.text, "--text-file": args.text_file, "--sa-stride": args.sa_stride},
        "substring": {"--input": args.input, "--policy": args.policy, "--stride": args.stride},
    }
    for flag, value in foreign[args.mode].items():
        if value is not None:
            raise PbwtIndexError(f"{flag} does not apply to {args.mode} mode")
    for flag, value in (("--stride", args.stride), ("--sa-stride", args.sa_stride)):
        if value is not None and not 1 <= value <= U32_MAX:
            raise PbwtIndexError(f"{flag} must be between 1 and {U32_MAX}, not {value}")
    if args.mode == "positional":
        if not args.input:
            raise PbwtIndexError("positional build needs --input")
        collection = parse_collection(_read(args.input), alphabet)
        kind = args.policy or "sampled"
        if kind == "sampled":
            policy = StoragePolicy.sampled(args.stride or default_stride(collection.n))
        else:
            if args.stride is not None:
                raise PbwtIndexError(f"--stride only applies to the sampled policy, not {kind!r}")
            policy = StoragePolicy(kind)
        index = build_index(collection, policy)
        written = save_index(index, args.output)
        policy_desc = policy.kind + (f"(stride={policy.stride})" if policy.stride else "")
        print(f"n={collection.n} len={collection.length} sigma={alphabet.sigma} "
              f"policy={policy_desc} bytes={written}")
        return 0
    if args.text_file is not None:
        # one character per byte: a byte above 127 decodes to a lone surrogate, which the
        # alphabet refuses with its column; only CR and LF, where parse_collection breaks
        # lines, are stripped, so any other space reaches the alphabet
        text = _read(args.text_file).decode("ascii", "surrogateescape").strip("\r\n")
    elif args.text is not None:
        text = args.text
    else:
        raise PbwtIndexError("substring build needs --text or --text-file")
    st = SentinelText(text=text, alphabet=alphabet)
    stride = args.sa_stride or default_stride(st.n)
    index = fm_build(st, stride)
    written = save_index(index, args.output)
    print(f"n={st.n} sigma={alphabet.sigma} sa-stride={stride} bytes={written}")
    return 0


def _load(path: str, kind: type):
    """The index in ``path``, refused unless it is a ``kind``."""
    index = load_index(path)
    if not isinstance(index, kind):
        built = "positional" if isinstance(index, PositionalIndex) else "substring"
        raise ModeMismatchError(f"index was built for {built} queries")
    return index


def _interval_fields(interval) -> str:
    if interval.is_empty:
        return "- -"
    return f"{interval.f} {interval.l}"


def _answer(args, trace, interval, find_matches, oracle) -> int:
    """Print the trace, then the count or the matches in the order
    ``find_matches()`` gives them; with --verify, compare the matches with
    ``oracle()``'s ascending list.  Only a count without --verify locates nothing."""
    matches = None if args.count_only and not args.verify else find_matches()
    if args.trace and trace:
        for j, step in trace:
            print(f"{j} {_interval_fields(step)}")
    if args.count_only:
        print(interval.width)
    else:
        for i in matches:
            print(i)
    if args.verify:
        expected = oracle()
        if sorted(matches) != expected:
            print(f"verify: MISMATCH index={sorted(matches)} oracle={expected}", file=sys.stderr)
            return 1
    return 0


def cmd_query_positional(args) -> int:
    if args.trace and args.strategy != "backward":  # only the backward search steps
        raise PbwtIndexError(f"--trace does not apply to --strategy {args.strategy}")
    index = _load(args.index, PositionalIndex)
    interval, source, trace = search(index, args.pattern, args.position,
                                     strategy=args.strategy, with_trace=args.trace)

    def matches():
        found = locate(index, interval, args.position, source=source)
        return sorted(found) if args.sorted_output else found

    return _answer(args, trace, interval, matches,
                   lambda: naive_positional(index.collection, args.pattern, args.position))


def cmd_query_substring(args) -> int:
    index = _load(args.index, FmIndex)
    if args.trace:
        trace = count_trace(index, args.pattern)
        interval = trace[-1][1]
    else:
        trace, interval = None, fm_count(index, args.pattern)
    return _answer(args, trace, interval, lambda: sorted(fm_locate(index, interval)),
                   lambda: naive_substring(index.text, args.pattern))


def _color_enabled() -> bool:
    mode = os.environ.get("PBWT_IDX_COLOR", "auto").strip().lower()
    if mode == "never":
        return False
    return sys.stdout.isatty()


def cmd_dump(args) -> int:
    index = _load(args.index, FmIndex if args.what == "bwt" else PositionalIndex)
    if args.what == "bwt":
        if _color_enabled():
            # a BWT character sits on the sampling grid exactly when its
            # LF image is a sampled row, mirroring the highlighted figures
            sampled = (index.sampled_pos[index.lf] >= 0).tolist()
            print("".join(f"{_RED}{c}{_RESET}" if hit else c for c, hit in zip(index.bwt, sampled)))
        else:
            print(index.bwt)
        return 0
    if args.what == "pi":
        for j in range(index.length):
            if j not in index.stored_columns:  # reading stored_perms sorts every column
                raise PermutationNotStoredError(
                    f"pi_{j} is not retained under policy {index.policy.kind!r}; rebuild with --policy full")
        columns = [index.stored_perms[j].tolist() for j in range(index.length)]
        for row in zip(*columns):
            print("\t".join(map(str, row)))
        return 0
    # decode the matrix once; row i of the transpose is PBWT row i
    rows = index.alphabet.decode(index.cols.T)
    for i in range(0, len(rows), index.length):
        print("\t".join(rows[i : i + index.length]))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PbwtIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's says how much it asked for, a bare one nothing
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
