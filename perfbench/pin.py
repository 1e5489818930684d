"""Pin the reference results that the correctness gate compares against.

    python3 perfbench/pin.py

Runs every workload command once with the identity labelling and seed 0
and writes its stdout sha256 and labelling-independent summary to
``perfbench/expected.json``.  Run it only on a commit whose output is the
reference: a later change that alters any result must then fail the gate.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import gate


def main() -> int:
    hrep = run.import_hrep()
    expected = {}
    for workload in run.WORKLOADS.values():
        with tempfile.TemporaryDirectory(prefix=".work-", dir=run.HERE) as tmp:
            inputs = run.Inputs(hrep, workload, 0, Path(tmp))
            for cmd, argv in zip(workload.commands, inputs.for_pass(0)):
                code, out, _ = run.run_command(hrep, argv)
                if code != 0:
                    print(f"pin: {cmd.key} exited {code}", file=sys.stderr)
                    return 1
                expected[cmd.key] = {"sha256": gate.sha256(out), "summary": gate.summarize(cmd.verb, out)}
    gate.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
