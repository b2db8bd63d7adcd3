"""clic's benchmark: one stdlib-only command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--trace 1]

Run it from the root of a checkout; clic is imported from `src`.  The
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones, measured for --seconds with tracing
off.  With --trace 1 the run makes one untraced and two traced passes
over a fixed share of the workload and reports the per-layer metrics
of the first traced pass; the counts of the two traced passes must be
equal, and the overhead is the traced time minus the untraced one.

Spans of the last traced run of each workload are written to
`.perfbench/spans-<workload>.json`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import WORK, checkout_ok, median, setup_time
import layers
from workloads import WORKLOADS, Outcome

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "peak_rss_mb": "MB", "work_per_s": "1/s"}


class TraceFiles:
    """Hands out one trace file path per traced process of a pass."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.paths: list[str] = []

    def __call__(self) -> str:
        path = f"{self.prefix}-{len(self.paths)}.json"
        self.paths.append(path)
        return path


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", plant: bool = False) -> tuple:
    """(result dict as printed, notes for stderr)."""
    measure, one_pass = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    notes: list[str] = []
    if not trace:
        setup_time()        # compiles the bytecode cache, untimed
        out = measure(seed, seconds, size, plant)
        notes.append(out.tail_note())
        notes.append(f"reference median {median(out.reference):.6g} s; raw "
                     + ", ".join(f"{k} {v:.6g}"
                                 for k, v in out.raw_metrics().items()))
        metrics = {k: (v, E2E_UNITS[k]) for k, v in out.metrics().items()}
        outcomes = [out]
    else:
        plain = one_pass(seed, size, plant, None)
        passes = []
        for k in range(2):
            files = TraceFiles(str(WORK / f"trace-{name}-{k}"))
            outcome = one_pass(seed, size, plant, files)
            passes.append((outcome, layers.merge(files.paths)))
            for path in files.paths:
                Path(path).unlink(missing_ok=True)
        repeat = Outcome(attempted=1)
        first, second = (layers.counts(s) for _, s in passes)
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys()
                          if first.get(k) != second.get(k))
            repeat.fail(f"counts differ between traced passes: {diff[:8]}")
        summary = passes[0][1]
        metrics = layers.metrics(summary, plain.busy_s, passes[0][0].busy_s,
                                 plain.rows[0] if plain.rows else {})
        (WORK / f"spans-{name}.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent"],
             "processes": summary["spans"]}), encoding="utf-8")
        if summary["absent"]:
            notes.append("absent: " + ", ".join(sorted(summary["absent"])))
        outcomes = [plain, *(o for o, _ in passes), repeat]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        notes.extend(o.errors)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, notes


BASELINE_ROWS = (
    # (label, workload, metric)
    ("enumerate_models per model", "laws-default",
     "model.enumerate.us_per_model"),
    ("ModelContext build per model", "laws-default",
     "eval.context.us_per_model"),
    ("distinct frames / contexts built", "laws-default",
     "eval.context.frame_share"),
    ("compile_formula per formula", "laws-default",
     "eval.compile.us_per_call"),
    ("compiled evaluation per model", "laws-default",
     "eval.evaluate.ns_per_model"),
    ("reference extension per call", "translation-grid",
     "semantics.extension.us_per_call"),
    ("parse_formula per formula", "formula-roundtrip",
     "formula.parse.us_per_call"),
    ("print_formula per formula", "formula-roundtrip",
     "formula.print.us_per_call"),
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not checkout_ok():
        print("error: no clic sources under src/clic; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, notes = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        results[name] = result
        for note in notes:
            print(f"{name}: {note}", file=sys.stderr)
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        print(f"{name} attempted {result['attempted']} failed "
              f"{result['failed']}")
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    if args.trace:
        print("\n| layer | cost | workload |\n|---|---|---|")
        for label, name, metric in BASELINE_ROWS:
            entry = results[name]["metrics"][metric]
            print(f"| {label} | {entry['value']:.3g} {entry['unit']} "
                  f"| {name} |")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
