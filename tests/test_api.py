import importlib
import re
import sys
from pathlib import Path

import pbwtidx as px

from conftest import FIG1_STRINGS

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    assert len(px.__all__) == len(set(px.__all__))
    assert [name for name in px.__all__ if not hasattr(px, name)] == []


def test_every_name_the_readme_uses_resolves():
    names = set(re.findall(r"\bpx\.(\w+)", README.read_text()))
    assert names and sorted(name for name in names if not hasattr(px, name)) == []


def test_readme_library_snippet_runs(tmp_path, monkeypatch):
    # the suite turns warnings into errors, so a snippet that leaks a file handle fails here
    snippet = README.read_text().split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    Path("strings.txt").write_text("\n".join(FIG1_STRINGS) + "\n")
    names = {}
    exec(snippet, names)
    assert sorted(names["matches"]) == px.naive_positional(px.from_strings(FIG1_STRINGS), "AGA", 3)
    assert sorted(names["positions"]) == [3, 7]


def test_perfbench_span_table_resolves(monkeypatch):
    # the traced benchmark run replaces module attributes by name; building
    # its span table looks each one up, so a renamed or deleted one fails here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        spans, workloads = importlib.import_module("spans"), importlib.import_module("workloads")
        tracer = spans.Tracer()
        workloads.instrument(tracer)
    finally:
        for name in ("spans", "workloads"):
            sys.modules.pop(name, None)
    wrapped = {(module.__name__, attr) for module, attr, _, _ in tracer._patches}
    assert {("pbwtidx.positional", "build_pbwt"), ("pbwtidx.positional", "build_permutations"),
            ("pbwtidx.positional", "backward_trace")} <= wrapped
