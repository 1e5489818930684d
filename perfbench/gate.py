"""Correctness gate for one command's output.

With the identity labelling (seed 0, first pass) the stdout must match
the sha256 pinned from the reference commit byte for byte.  Under any
other labelling element ids move, so the output is reduced to a summary
that does not depend on them: counts, sizes, dims, rk2, check names with
their pass flags and stats, and the multiset of determinant values.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _multiset(items) -> list:
    """A sorted [[canonical item, count], ...] list."""
    return sorted([key, n] for key, n in Counter(_canon(i) for i in items).items())


def _check_summary(check: dict) -> dict:
    stats = {
        k: sorted(v) if isinstance(v, list) else v for k, v in check["stats"].items()
    }
    return {
        "check": check["check"],
        "pass": check["pass"],
        "stats": stats,
        "n_counterexamples": len(check["counterexamples"]),
    }


def _det_summary(report: dict) -> dict:
    return {
        "group": report["group"],
        "Z_size": len(report["Z"]),
        "dim": report["dim"],
        "rk2": report["rk2"],
        "case": report["case"],
        "all_agree": report["all_agree"],
        "rows": _multiset(
            [r["direct"], r["gallagher"], r["formula"], r["epsilon"]] for r in report["rows"]
        ),
    }


def summarize(verb: str, stdout: str) -> dict:
    """The labelling-independent content of one command's JSON output."""
    report = json.loads(stdout)
    if verb == "verify":
        return {
            "group": report["group"],
            "order": report["order"],
            "n_pairs": report["n_pairs"],
            "all_pass": report["all_pass"],
            "checks": _multiset(_check_summary(c) for c in report["checks"]),
            "det_reports": _multiset(_det_summary(r) for r in report["det_reports"]),
        }
    if verb == "heisenberg":
        return {
            "group": report["group"],
            "order": report["order"],
            "pairs": _multiset(
                [
                    row["dim"],
                    len(row["Z"]),
                    row["rk2"],
                    row["n_isotropics"],
                    sorted(Counter(row["chi"]["values"].values()).items()),
                ]
                for row in report["pairs"]
            ),
        }
    if verb == "group-info":
        sizes = ("center", "commutator_subgroup", "squares_subgroup")
        return {k: len(v) if k in sizes else v for k, v in report.items()}
    return report


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def problems(verb: str, code: int, stdout: str, expected: dict | None, identity: bool) -> list[str]:
    """Everything wrong with one command's result; empty when it passes."""
    if code != 0:
        return [f"exit code {code}"]
    if expected is None:
        return ["no pinned result"]
    found = []
    if identity and sha256(stdout) != expected["sha256"]:
        found.append("stdout differs from the pinned digest")
    try:
        summary = summarize(verb, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return found + [f"unreadable output: {exc!r}"]
    if verb == "verify" and summary["all_pass"] is not True:
        found.append("all_pass is not true")
    if summary != expected["summary"]:
        found.append("labelling-independent summary differs from the pinned one")
    return found
