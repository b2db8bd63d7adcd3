"""Record a baseline: ten seeds per workload, then one traced run each.

    python3 perfbench/baseline.py [--seeds N] [--out FILE]

Runs `run.py` once per seed and workload, each in its own process, and
writes for every end-to-end metric the median, the quartiles and the
spread (quartile distance over median) next to the metric's bound, the
unscaled values and reference time of each run, then the per-layer
metrics of one traced run per workload.  The machine,
`nproc`, the Python version and the git revision go in the header.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

from harness import BENCH_DIR, ROOT


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, plus its raw (unscaled) metrics."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = re.search(r"reference median (\S+) s; raw (.*)", proc.stderr)
    if raw:
        pairs = [p.split() for p in raw.group(2).split(", ")]
        result["raw"] = {"reference_s": float(raw.group(1)),
                         **{k: float(v) for k, v in pairs}}
    return result


def machine() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default=str(BENCH_DIR / "BASELINE.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "machine": machine(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "revision": revision(),
        "run_seconds": seconds, "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        values: dict[str, list[float]] = {}
        raw: list[dict] = []
        failed = 0
        for seed in record["seeds"]:
            result = run(name, seed, seconds, 0)
            failed += result["failed"]
            raw.append(result.get("raw", {}))
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(name, seed, {k: round(v[-1], 6) for k, v in
                               values.items()}, flush=True)
        summary = {}
        for metric, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            summary[metric] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": bounds[metric],
                "values": xs}
        traced = run(name, 1, seconds, 1)
        record["workloads"][name] = {
            "why": w["why"], "failed": failed, "end_to_end": summary,
            "raw_by_seed": raw,
            "traced_failed": traced["failed"],
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()}}
        for metric, s in summary.items():
            print(f"{name} {metric}: median {s['median']:.6g} spread "
                  f"{s['spread']:.3f} (bound {s['bound']})", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
