"""The benchmark's traced work counts agree with the program's own reports.

``perfbench/run.py --trace 1`` wraps the package's public functions with
``perfbench/tracer.py`` and compares what it counts at those boundaries
(pairs, twists, character extensions) with the counts that ``verify``
prints. A change that stops calling a counted function breaks that traced
run; this test catches it in the suite.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import hrep
import hrep.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    """Import one perfbench script by path, writing no bytecode beside it;
    ``run.py`` puts its own directory on sys.path, which ``monkeypatch``
    restores."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["d8", "heis3", "ab:2,2,2"])
def test_traced_counts_match_the_verify_report(name, monkeypatch, capsys):
    run = load("run", monkeypatch)
    tracer = load("tracer", monkeypatch).Tracer()
    tracer.install(hrep)
    try:
        before = Counter(tracer.counts)
        code = hrep.cli.main(["verify", "--builtin", name])
        traced = tracer.counts - before
    finally:
        tracer.uninstall()
    assert code == 0
    reported = run.report_counts("verify", capsys.readouterr().out)
    assert all(reported[key] > 0 for key in run.TRACED_AND_REPORTED)
    assert run.report_mismatches(reported, traced) == []
