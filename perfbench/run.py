"""hrep benchmark runner.

    python3 perfbench/run.py --workload verify-nonabelian --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run is one fresh interpreter and a closed loop with one client:
every command is called in-process through ``hrep.cli.main(argv)`` with
stdout captured, and starts only after the previous one returned.

Inputs: every command's group is built from the zoo once, then its Cayley
table is conjugated by a permutation drawn from the seed, the pass and
the command's position, and written as an ``--input`` file.  Seed 0 on
the first pass is the identity, so its stdout can be checked against
digests pinned from the reference commit.  No input repeats within a
run, so a cache that outlives one command shows no gain a CLI user would
not get; ``p3`` takes no group and is the one exception.

Set-up is measured first, several times: import ``hrep.cli`` in a fresh
interpreter, then load and validate every group of the workload once
through ``hrep.cli.load_group``.  ``--trace 0`` then runs passes over the
workload's commands for about ``--seconds`` (it starts no pass that would,
at the mean pace so far, end later) and reports the end-to-end metrics:
medians over passes, and the median set-up time.  ``--trace 1``
runs one untraced pass, then the same inputs again with every module's
public functions wrapped (see ``tracer.py``), and reports the per-layer
metrics; the spans go to ``perfbench/traces/``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# counts both the tracer and the program's reports give, which must agree
TRACED_AND_REPORTED = ("heisenberg.pairs", "induced_det.twists", "char_theory.extend_all_results")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, build_group  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_hrep():
    """Import the program from this checkout's ``src/``."""
    if not (SRC / "hrep" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'hrep'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hrep
    import hrep.cli

    if Path(hrep.__file__).resolve().parent != SRC / "hrep":
        raise SystemExit(f"perfbench: imported hrep from {hrep.__file__}, not from {SRC}")
    return hrep


class Inputs:
    """Seeded relabellings of the workload's groups, written as --input files."""

    def __init__(self, hrep, workload, seed: int, directory: Path):
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.tables = {}
        for cmd in workload.commands:
            if cmd.group and cmd.group not in self.tables:
                self.tables[cmd.group] = build_group(hrep, cmd.group).table

    def _write(self, stream: str, index: int, position: int, group: str) -> str:
        table = self.tables[group]
        n = len(table)
        perm = list(range(n))
        if not (stream == "pass" and self.seed == 0 and index == 0):
            random.Random(f"{stream}:{self.seed}:{index}:{position}").shuffle(perm)
        relabelled = [[0] * n for _ in range(n)]
        for i, row in enumerate(table):
            out = relabelled[perm[i]]
            for j, v in enumerate(row):
                out[perm[j]] = perm[v]
        path = self.directory / f"{stream}-{index}-{position}.json"
        path.write_text(json.dumps({"label": group, "cayley_table": relabelled}))
        return str(path)

    def for_pass(self, index: int) -> list[list[str]]:
        """argv of every command of pass ``index``."""
        argvs = []
        for position, cmd in enumerate(self.workload.commands):
            argv = [cmd.verb]
            if cmd.group:
                argv += ["--input", self._write("pass", index, position, cmd.group)]
            argvs.append(argv + list(cmd.extra) + ["--seed", str(self.seed)])
        return argvs

    def for_setup(self, index: int) -> list[str]:
        """One fresh file per distinct group, for the set-up measurement."""
        return [self._write("setup", index, pos, g) for pos, g in enumerate(self.tables)]


def time_import() -> float:
    """Seconds to import ``hrep.cli`` in a fresh interpreter."""
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import hrep.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def measure_setup(hrep, inputs: Inputs) -> float:
    """Median over repeats of: import hrep, then load and validate every input group once."""
    samples = []
    for index in range(SETUP_REPEATS):
        paths = inputs.for_setup(index)
        import_s = time_import()
        start = time.perf_counter()
        for path in paths:
            hrep.cli.load_group(hrep.cli.RunConfig(command="setup", input_path=path, seed=inputs.seed))
        samples.append(import_s + time.perf_counter() - start)
    return statistics.median(samples)


def run_command(hrep, argv) -> tuple[int, str, float]:
    # leave no garbage from the previous command to be collected on this one's time
    gc.collect()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = hrep.cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


def run_pass(hrep, gate, workload, argvs, expected, identity, tracer=None):
    """Run one pass; return per-command records."""
    records = []
    for cmd, argv in zip(workload.commands, argvs):
        before = Counter(tracer.counts) if tracer else None
        code, out, elapsed = run_command(hrep, argv)
        record = {"key": cmd.key, "seconds": elapsed, "digest": gate.sha256(out),
                  "bytes": len(out.encode()),
                  "problems": gate.problems(cmd.verb, code, out, expected.get(cmd.key), identity)}
        if tracer is not None and code == 0 and cmd.verb in ("verify", "heisenberg"):
            record["counts"] = report_counts(cmd.verb, out)
            record["problems"] += report_mismatches(record["counts"], tracer.counts - before)
        records.append(record)
    return records


def report_counts(verb: str, stdout: str) -> Counter:
    """Work counts read from the program's own report of one command."""
    report = json.loads(stdout)
    counts = Counter()
    if verb == "heisenberg":
        counts["heisenberg.pairs"] = len(report["pairs"])
        counts["heisenberg.isotropics"] = sum(row["n_isotropics"] for row in report["pairs"])
    elif verb == "verify":
        counts["heisenberg.pairs"] = report["n_pairs"]
        for check in report["checks"]:
            stats = check["stats"]
            if check["check"] == "determinant_oracle_equivalence":
                counts["heisenberg.isotropics"] += stats["n_isotropics"]
            if check["check"] == "twist_identity":
                counts["induced_det.twists"] += stats["n_characters"]
            counts["char_theory.extend_all_results"] += stats.get("n_extensions", 0)
            counts["char_theory.extend_all_results"] += stats.get("n_extensions_total", 0)
    return counts


def report_mismatches(reported: Counter, traced: Counter) -> list[str]:
    """Where a traced boundary count disagrees with the program's report."""
    return [
        f"traced {key} {traced[key]} != reported {value}"
        for key, value in reported.items()
        if key in TRACED_AND_REPORTED and traced[key] != value
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_run(hrep, gate, workload, inputs, expected, seconds):
    """End-to-end metrics from passes over about ``seconds``; return (metrics, records)."""
    setup_s = measure_setup(hrep, inputs)
    passes = []
    start = time.perf_counter()
    elapsed = 0.0
    # start no pass that would, at the mean pace so far, end after ``seconds``
    while not passes or elapsed + elapsed / len(passes) <= seconds:
        index = len(passes)
        argvs = inputs.for_pass(index)
        identity = inputs.seed == 0 and index == 0
        passes.append(run_pass(hrep, gate, workload, argvs, expected, identity))
        elapsed = time.perf_counter() - start
    walls = [sum(r["seconds"] for r in p) for p in passes]
    print(f"passes: {' '.join(f'{w:.3f}' for w in walls)} s")
    records = [r for p in passes for r in p]
    for key in dict.fromkeys(r["key"] for r in records):
        times = [r["seconds"] for r in records if r["key"] == key]
        print(f"  {statistics.median(times):9.4f} s  {key}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "max_cmd_s": (statistics.median(max(r["seconds"] for r in p) for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, records


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    hrep = import_hrep()
    import gate

    expected = gate.load_expected()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        inputs = Inputs(hrep, workload, args.seed, Path(tmp))
        if args.trace:
            metrics, records = traced_run(hrep, gate, workload, inputs, expected)
        else:
            metrics, records = timed_run(hrep, gate, workload, inputs, expected, args.seconds)
    failed = 0
    for record in records:
        for problem in record["problems"]:
            print(f"perfbench: {record['key']}: {problem}", file=sys.stderr)
        failed += bool(record["problems"])
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"failed_frac {failed / len(records):.4f} ({failed}/{len(records)})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(hrep, gate, workload, inputs, expected):
    """Per-layer metrics from one untraced and one traced pass on the same
    inputs; return (metrics, records)."""
    from tracer import Tracer

    argvs = inputs.for_pass(0)
    identity = inputs.seed == 0
    plain = run_pass(hrep, gate, workload, argvs, expected, identity)
    tracer = Tracer()
    tracer.install(hrep)
    try:
        traced = run_pass(hrep, gate, workload, argvs, expected, identity, tracer)
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        if a["digest"] != b["digest"]:
            b["problems"].append("traced stdout differs from the untraced stdout")
    layer = tracer.metrics()
    plain_s = sum(r["seconds"] for r in plain)
    traced_s = sum(r["seconds"] for r in traced)
    layer["cli.output_bytes"] = sum(r["bytes"] for r in traced)
    layer["heisenberg.isotropics"] = sum(
        r.get("counts", Counter())["heisenberg.isotropics"] for r in traced
    )
    layer["trace.overhead_frac"] = traced_s / plain_s - 1
    traces = HERE / "traces"
    traces.mkdir(exist_ok=True)
    tracer.write(traces / f"{workload.name}-seed{inputs.seed}.tsv.gz")

    units = {"_s": "s", "_frac": "ratio", "_per_triple": "ratio", "_per_pair": "ratio",
             "_bytes": "bytes"}
    metrics = {}
    for name, value in sorted(layer.items()):
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    return metrics, plain + traced


if __name__ == "__main__":
    sys.exit(main())
