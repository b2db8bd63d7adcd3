"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at tiny sizes and
checks that the emitted metric names are exactly those in
BENCHMARK.json and that no operation fails.  Then plants one wrong
known answer per workload and checks that it is counted as a failed
operation, not as a pass.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

from harness import ROOT, checkout_ok
from run import run_workload
from workloads import WORKLOADS


def main() -> int:
    if not checkout_ok():
        print("error: no clic sources under src/clic", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    declared = {w["name"] for w in spec["workloads"]}
    problems = []
    if declared != set(WORKLOADS):
        problems.append(f"workloads {sorted(declared)} != "
                        f"{sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace in (0, 1):
            result, notes = run_workload(name, 1, 1, bool(trace), "tiny")
            got = set(result["metrics"])
            if got != want[trace]:
                problems.append(
                    f"{name} trace={trace}: extra {sorted(got - want[trace])}"
                    f", missing {sorted(want[trace] - got)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: failed: {notes}")
        result, _ = run_workload(name, 1, 1, False, "tiny", plant=True)
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{name}: planted wrong answer was not caught")
        print(f"{name}: ok" if not problems else f"{name}: {problems}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
