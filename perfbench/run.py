#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of pbwtidx on the numpy backend.

Run from the repository root; the library is imported from ``src/``:

    python3 perfbench/run.py --workload positional-serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same operations in alternating untraced and traced blocks and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit, the
sample counts and the environment.  Spans and a result record are written
under ``.bench_out/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import spans as sp

SETUP_REPS = 3
# End-to-end timings are reported at reference speed: each is scaled by
# REFERENCE_MS over the time a fixed probe took around it (see Probe).  The
# host the bounds were tuned on (a 2-vCPU VM) switches between faster and
# slower states for seconds to minutes, which stretch every time by up to
# 2x; the probe slows with them, so scaled times vary much less between
# runs.  The probe takes about REFERENCE_MS there in the fast state, and the
# raw times are printed too.
PROBE_LOOPS = 20000
PROBE_TABLE = 8_000_000
PROBE_READS = 50_000
PROBE_PERIOD_S = 0.1
REFERENCE_MS = 0.65
TRACE_BLOCK = 32
OUT_DIR = ".bench_out"
WORKLOAD_NAMES = ("positional-serve", "substring")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "index_bytes_per_char": "B/char",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "collection.parse_collection.s": "s",
    "permutations.build_permutations.s": "s",
    "pbwt.build_pbwt.s": "s",
    "indexfile.to_bytes.s": "s",
    "indexfile.from_bytes.s": "s",
    "indexfile.load_index.s": "s",
    "indexfile.bytes": "B",
    "positional.search_backward.p50_us": "us",
    "positional.search_backward.total_s": "s",
    "pbwt.backward_steps": "steps/op",
    "pbwt.backward_steps_empty": "steps/op",
    "positional.search_rebuild.p50_us": "us",
    "positional.search_rebuild.total_s": "s",
    "positional.search_binary.p50_us": "us",
    "positional.search_binary.fallback_frac": "fraction",
    "permutations.rebuild_columns": "columns/op",
    "positional.locate.p50_us": "us",
    "positional.locate.p99_us": "us",
    "positional.locate.total_s": "s",
    "positional.locate.rows": "rows/op",
    "positional.locate.walk_steps": "steps/op",
    "fm.fm_build.s": "s",
    "fm.fm_count.p50_us": "us",
    "fm.locate_with_steps.p50_us": "us",
    "fm.locate_with_steps.p99_us": "us",
    "fm.locate_with_steps.total_s": "s",
    "fm.lf_steps": "steps/op",
    "fm.lf_steps_per_hit": "steps/hit",
    **{f"{layer}.setup_self_s": "s" for layer in sp.LAYERS},
    **{f"{layer}.op_self_us": "us/op" for layer in sp.LAYERS},
    "trace.overhead_frac": "fraction",
}


def import_library():
    """Import pbwtidx from ``./src`` with the numpy kernels, or exit non-zero."""
    src = os.path.abspath("src")
    package = os.path.join(src, "pbwtidx")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit("perfbench: run from the repository root; src/pbwtidx is missing")
    # pin the kernels: installing numba must not change what is measured
    os.environ["PBWTIDX_BACKEND"] = "numpy"
    sys.path.insert(0, src)
    import pbwtidx

    if os.path.dirname(os.path.realpath(pbwtidx.__file__)) != os.path.realpath(package):
        raise SystemExit(f"perfbench: imported pbwtidx from {pbwtidx.__file__}, not from src/")
    if pbwtidx.kernel_backend != "numpy":
        raise SystemExit(f"perfbench: kernel backend is {pbwtidx.kernel_backend}, not numpy")
    return pbwtidx


class Client:
    """One closed-loop client: runs a pool query, times it, checks the answer."""

    def __init__(self, workload, check_answer):
        self.workload = workload
        self.check_answer = check_answer
        self.attempted = 0
        self.failed = 0

    def op(self, i: int) -> int:
        """Run query ``i`` of the cycled pool; returns its time in ns."""
        query = self.workload.pool[i % len(self.workload.pool)]
        self.attempted += 1
        started = time.perf_counter_ns()
        try:
            got = self.workload.run(query)
        except Exception:
            elapsed = time.perf_counter_ns() - started
            if not self.failed:
                traceback.print_exc()
            self.failed += 1
            return elapsed
        elapsed = time.perf_counter_ns() - started
        if not self.check_answer(query[3], got):
            if not self.failed:
                print(f"perfbench: wrong answer for {query[:3]}", file=sys.stderr)
            self.failed += 1
        return elapsed


def percentile(values, q: float) -> float:
    """The q-th percentile (linear interpolation); 0 for a layer that did no work."""
    return float(np.percentile(values, q)) if values else 0.0


class Probe:
    """A fixed piece of work whose time tracks the machine's current speed.

    It has two parts: a pure-Python loop, which slows with the interpreter,
    and random reads from a 32 MB array, which slow with the memory
    system.  The probe time is the geometric mean of the two.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 1 << 30, PROBE_TABLE, dtype=np.int32)
        self.picks = rng.integers(0, PROBE_TABLE, PROBE_READS)

    def ms(self) -> float:
        started = time.perf_counter_ns()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        looped = time.perf_counter_ns()
        int(self.table[self.picks].sum())
        done = time.perf_counter_ns()
        return math.sqrt((looped - started) * (done - looped)) / 1e6


def untraced_run(workload, client, seconds):
    """End-to-end metrics, timed at reference speed (see REFERENCE_MS)."""
    probe = Probe()
    setup_raw, setup_ref, size = [], [], 0
    for _ in range(SETUP_REPS):
        before = [probe.ms() for _ in range(5)]
        started = time.perf_counter()
        size = workload.setup()
        elapsed = time.perf_counter() - started
        after = [probe.ms() for _ in range(5)]
        setup_raw.append(elapsed)
        setup_ref.append(elapsed * REFERENCE_MS / statistics.median(before + after))

    latencies, window, samples = [], [], []
    deadline = time.perf_counter() + seconds
    next_sample = 0.0
    while (now := time.perf_counter()) < deadline:
        if now >= next_sample:
            samples.append(probe.ms())
            next_sample = now + PROBE_PERIOD_S
        window.append(len(samples) - 1)
        latencies.append(client.op(len(latencies)))
    # each operation is scaled by the probe samples within about a second of it
    smoothed = np.array([statistics.median(samples[max(0, i - 5) : i + 6]) for i in range(len(samples))])
    raw_ms = np.array(latencies) / 1e6
    ref_ms = raw_ms * REFERENCE_MS / smoothed[np.array(window)]

    def timings(setup, ms):
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": float(len(ms) / (ms.sum() / 1e3)),
            "op_p50_ms": float(np.percentile(ms, 50)),
            "op_p99_ms": float(np.percentile(ms, 99)),
        }

    metrics = {
        **timings(setup_ref, ref_ms),
        "index_bytes_per_char": size / workload.chars,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {"setup_reps": SETUP_REPS, "ops": len(latencies), "probes": len(samples),
               "speed": REFERENCE_MS / statistics.median(samples),
               **{f"raw_{k}": v for k, v in timings(setup_raw, raw_ms).items()}}
    return metrics, details


def traced_run(workload, client, seconds, tracer, spans_path):
    from workloads import instrument

    instrument(tracer)
    tracer.install()
    try:
        for rep in range(SETUP_REPS):
            tracer.op = -1 - rep
            workload.setup()
    finally:
        tracer.uninstall()
    tracer.settle()
    setup_bytes = tracer.counts.pop("indexfile.bytes", 0)

    # the same block of queries runs once untraced and once traced, the
    # order alternating per block, so both halves see the same work
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    first = 0
    while time.perf_counter() < deadline:
        block = range(first, first + TRACE_BLOCK)
        halves = (False, True) if (first // TRACE_BLOCK) % 2 == 0 else (True, False)
        for with_trace in halves:
            if with_trace:
                tracer.install()
                try:
                    for i in block:
                        tracer.op = i
                        traced.append(client.op(i))
                finally:
                    tracer.uninstall()
                tracer.settle()
            else:
                plain.extend(client.op(i) for i in block)
        first += TRACE_BLOCK
    tracer.write(spans_path)

    setup_by_name, op_by_name, setup_self, op_self = sp.summarize(tracer.spans)
    ops = len(traced)
    counts = tracer.counts

    def p(name, q, scale):
        return percentile(op_by_name.get(name, []), q) * scale

    def total(name):
        return float(sum(op_by_name.get(name, [])))

    binary = [s[sp.RAISED] for s in tracer.spans if s[sp.NAME] == "positional.search_binary" and s[sp.OP] >= 0]
    metrics = {
        "collection.parse_collection.s": setup_by_name.get("collection.parse_collection", 0.0),
        "permutations.build_permutations.s": setup_by_name.get("permutations.build_permutations", 0.0),
        "pbwt.build_pbwt.s": setup_by_name.get("pbwt.build_pbwt", 0.0),
        "indexfile.to_bytes.s": setup_by_name.get("indexfile.to_bytes", 0.0),
        "indexfile.from_bytes.s": setup_by_name.get("indexfile.from_bytes", 0.0),
        "indexfile.load_index.s": setup_by_name.get("indexfile.load_index", 0.0),
        "indexfile.bytes": setup_bytes,
        "positional.search_backward.p50_us": p("positional.search_backward", 50, 1e6),
        "positional.search_backward.total_s": total("positional.search_backward"),
        "pbwt.backward_steps": counts["pbwt.backward_steps"] / ops,
        "pbwt.backward_steps_empty": counts["pbwt.backward_steps_empty"] / ops,
        "positional.search_rebuild.p50_us": p("positional.search_rebuild", 50, 1e6),
        "positional.search_rebuild.total_s": total("positional.search_rebuild"),
        "positional.search_binary.p50_us": p("positional.search_binary", 50, 1e6),
        "positional.search_binary.fallback_frac": sum(binary) / len(binary) if binary else 0.0,
        "permutations.rebuild_columns": counts["permutations.rebuild_columns"] / ops,
        "positional.locate.p50_us": p("positional.locate", 50, 1e6),
        "positional.locate.p99_us": p("positional.locate", 99, 1e6),
        "positional.locate.total_s": total("positional.locate"),
        "positional.locate.rows": counts["positional.locate.rows"] / ops,
        "positional.locate.walk_steps": counts["positional.locate.walk_steps"] / ops,
        "fm.fm_build.s": setup_by_name.get("fm.fm_build", 0.0),
        "fm.fm_count.p50_us": p("fm.fm_count", 50, 1e6),
        "fm.locate_with_steps.p50_us": p("fm.locate_with_steps", 50, 1e6),
        "fm.locate_with_steps.p99_us": p("fm.locate_with_steps", 99, 1e6),
        "fm.locate_with_steps.total_s": total("fm.locate_with_steps"),
        "fm.lf_steps": counts["fm.lf_steps"] / ops,
        "fm.lf_steps_per_hit": counts["fm.lf_steps"] / counts["fm.hits"] if counts["fm.hits"] else 0.0,
        **{f"{layer}.setup_self_s": setup_self[layer] for layer in sp.LAYERS},
        **{f"{layer}.op_self_us": op_self[layer] / ops * 1e6 for layer in sp.LAYERS},
        # both halves ran the same queries, so the time ratio is the throughput ratio
        "trace.overhead_frac": 1.0 - sum(plain) / sum(traced),
    }
    details = {"setup_reps": SETUP_REPS, "ops_untraced": len(plain), "ops_traced": ops,
               "spans": len(tracer.spans)}
    return metrics, details


def environment(pbwtidx, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": pbwtidx.kernel_backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def run_one(args) -> int:
    pbwtidx = import_library()
    from workloads import WORKLOADS, check_answer

    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(pbwtidx, args)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workload = WORKLOADS[args.workload](args.seed, args.toy, OUT_DIR)
    client = Client(workload, check_answer)
    try:
        if args.trace:
            metrics, details = traced_run(workload, client, args.seconds, sp.Tracer(), stem + ".spans.tsv")
            units = PER_LAYER
        else:
            metrics, details = untraced_run(workload, client, args.seconds)
            units = END_TO_END
    finally:
        workload.close()

    failed_frac = client.failed / client.attempted if client.attempted else 1.0
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("details " + " ".join(f"{k}={v!r}" for k, v in details.items()))
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]!r} {unit}")
    print(f"{args.workload} failed_frac {failed_frac!r} fraction "
          f"({client.failed} of {client.attempted} operations)")
    result = {
        "correct": client.failed == 0 and client.attempted > 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump({"env": env, "details": details, "failed_frac": failed_frac, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(proc.stdout, end="")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
