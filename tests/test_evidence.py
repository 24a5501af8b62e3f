"""The committed benchmark evidence stays well-formed: every ``BENCH_*.json``
at the repository root is a set of paired perfbench runs, none of which
answered a query wrongly."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EVIDENCE = sorted(ROOT.glob("BENCH_*.json"))


def test_evidence_is_committed():
    assert EVIDENCE


@pytest.mark.parametrize("path", EVIDENCE, ids=[p.name for p in EVIDENCE])
def test_evidence_file_is_well_formed(path):
    evidence = json.loads(path.read_text(encoding="ascii"))
    assert sorted(evidence) == ["commands", "description", "host", "label", "parent_commit", "runs"]
    assert path.name == f"BENCH_{evidence['label']}.json"
    for key in ("description", "host", "parent_commit"):
        assert isinstance(evidence[key], str) and evidence[key]
    assert isinstance(evidence["commands"], dict) and evidence["commands"]
    assert evidence["runs"]
    for run in evidence["runs"]:
        where = f"{run.get('workload')} seed {run.get('seed')} pair {run.get('pair')} {run.get('side')}"
        assert run["side"] in ("parent", "change"), where
        assert run["result"]["correct"] is True, where
        assert run["result"]["failed"] == 0, where
        assert run["result"]["metrics"], where
