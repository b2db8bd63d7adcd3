"""One measured job in a fresh interpreter; prints one JSON line.

    python3 child.py [--trace FILE] laws [ROW_ID ...]
    python3 child.py [--trace FILE] grid AGENTS STATES ACTIONS DEPTH
    python3 child.py [--trace FILE] roundtrip SEED COUNT PLANT TIMES
    python3 child.py  --trace FILE  cli ARG ...

With --trace the wrappers from tracing.py are installed before the job
and their summary is written to FILE when it ends.  `cli` runs the
command line exactly as the `clic` script does and exits with its code.
"""

from __future__ import annotations

import json
import random
import sys
import time
from array import array

from harness import print_peak_rss


def job_laws(*row_ids: str) -> dict:
    from clic import catalog, run_laws
    laws = catalog()
    if row_ids:
        laws = tuple(law for law in laws if law.id in row_ids)
    start = time.perf_counter()
    report = run_laws(None, laws)
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "rows": [
        [r.law_id, r.passed, r.observed, r.instantiations, r.models_checked,
         r.elapsed] for r in report.results]}


def job_grid(agents: str, states: str, actions: str, depth: str) -> dict:
    from clic import Bounds, check_truth_preservation
    b = Bounds(int(agents), int(states), int(actions), ("p",), True)
    start = time.perf_counter()
    rep = check_truth_preservation(b, int(depth))
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "total_checks": rep.total_checks,
            "formulas": rep.formulas_checked, "models": rep.models_checked,
            "violations": len(rep.violations)}


def job_roundtrip(seed: str, count: str, plant: str, times_path: str
                  ) -> dict:
    """Round-trip `count` seeded ASTs.

    The reference is the AST built here, never the parser's output.  A
    pool of 2,000 formulas is drawn first and cycled.  With plant=1 the
    first reference is replaced by a different AST, which must fail.
    Each round trip's time goes to `times_path` as doubles.
    """
    from clic import Not, parse_formula, print_formula
    from harness import random_formula
    rng = random.Random(int(seed))
    # Every seed draws the same multiset of sizes, 4 to 60 nodes, so the
    # pool's total size and the spread of round-trip costs stay fixed;
    # the seed picks the shapes and their order.
    sizes = [4 + k % 57 for k in range(2000)]
    rng.shuffle(sizes)
    pool = [random_formula(rng, n) for n in sizes]
    refs = list(pool)
    if plant == "1":
        refs[0] = Not(refs[0])
    want = int(count)
    times = array("d")
    failed = 0
    clock = time.perf_counter
    start = clock()
    i = 0
    while len(times) < want:
        f = pool[i % len(pool)]
        ref = refs[i % len(pool)]
        i += 1
        t0 = clock()
        text = print_formula(f)
        back = parse_formula(text)
        times.append(clock() - t0)
        if back != ref:
            failed += 1
    elapsed = clock() - start
    with open(times_path, "wb") as fh:
        times.tofile(fh)
    return {"elapsed": elapsed, "count": len(times), "failed": failed}


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    tracer = None
    if trace_path is not None:
        from tracing import dump, install
        tracer = install()
    job, args = argv[0], argv[1:]
    code = 0
    try:
        if job == "cli":
            import clic.cli
            code = clic.cli.main(args)
        else:
            fn = {"laws": job_laws, "grid": job_grid,
                  "roundtrip": job_roundtrip}[job]
            print(json.dumps(fn(*args)))
    finally:
        if tracer is not None:
            dump(tracer, trace_path)
        sys.stdout.flush()
        print_peak_rss()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
