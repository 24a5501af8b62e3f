"""Tests of the benchmark itself: toy-size runs, the answer checker, expected answers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
os.environ["PBWTIDX_BACKEND"] = "numpy"
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import pbwtidx as px  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    CONTRACT = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "0.3", "--trace", str(trace), "--toy"]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_toy_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert f"{workload} failed_frac 0.0 fraction" in proc.stdout
    for m in listed:
        assert any(line.startswith(f"{workload} {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines)


def test_end_to_end_metrics_are_positive():
    result = json.loads(_run("positional-serve", 0).stdout.splitlines()[-1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checker_flags_wrong_answers():
    assert workloads.check_answer([1, 4, 9], [9, 1, 4])
    assert not workloads.check_answer([1, 4, 9], [1, 4])
    assert not workloads.check_answer([1, 4, 9], [1, 4, 8])
    assert not workloads.check_answer([1, 4, 9], [1, 4, 9, 9])
    assert not workloads.check_answer([], [0])


class _Fixed:
    """Stands in for a workload, answering every query with the same value."""

    def __init__(self, answer):
        self.pool = [("ACGT", 0, "backward", [2, 7])]
        self.answer = answer

    def run(self, query):
        if isinstance(self.answer, Exception):
            raise self.answer
        return self.answer


@pytest.mark.parametrize("answer, failed", [([7, 2], 0), ([2], 1), (px.errors.PbwtIndexError("x"), 1)])
def test_client_counts_wrong_answers_and_exceptions(answer, failed):
    client = run.Client(_Fixed(answer), workloads.check_answer)
    client.op(0)
    assert (client.attempted, client.failed) == (1, failed)


def test_positional_expected_answers_match_oracle():
    workload = workloads.PositionalServe(3, True, BENCH)
    col = px.parse_collection(workload.text)
    for pattern, k, _, expected in workload.pool:
        assert expected == px.naive_positional(col, pattern, k)


def test_substring_expected_answers_match_oracle():
    workload = workloads.Substring(3, True, BENCH)
    for pattern, _, _, expected in workload.pool:
        assert expected == px.naive_substring(workload.text, pattern)
    rng = random.Random(0)
    for _ in range(50):
        text = "".join(rng.choice("AC") for _ in range(rng.randint(1, 30)))
        pattern = "".join(rng.choice("AC") for _ in range(rng.randint(1, 3)))
        assert workloads.find_all(text, pattern) == px.naive_substring(text, pattern)


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run("positional-serve", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
