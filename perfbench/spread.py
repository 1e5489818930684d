"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload structure --seeds 0-9 --seconds 35 [--trace 1]

Runs ``run.py`` once per seed, one after another, and prints for every
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, the distance between the quartiles as a share of the median.
``--out`` saves the raw results as JSON.  With ``--trace 1`` it also
reports any count or ratio that differs between runs of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"spread: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)
    table = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        table[name] = {"unit": first["unit"], **summary(values)}
        row = table[name]
        print(f"{name:40s} {row['median']:12.6g} {row['unit']:6s} q1 {row['q1']:.6g} "
              f"q3 {row['q3']:.6g} spread {row['spread']:.4f}")
    if args.trace:
        for seed in sorted({r["seed"] for r in results}):
            same = [r["metrics"] for r in results if r["seed"] == seed]
            for name, first in same[0].items():
                timed = name.endswith(("_s", "_frac"))
                if not timed and any(m[name]["value"] != first["value"] for m in same):
                    print(f"seed {seed}: {name} differs between runs", file=sys.stderr)
    print(json.dumps({"all_correct": all(r["correct"] for r in results)}))
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": results, "summary": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
