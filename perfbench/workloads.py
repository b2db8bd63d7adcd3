"""The four workloads, their known answers and their traced passes.

Each workload is a closed loop with one client: the next operation
starts when the previous one has ended, one process at a time.  An
operation whose answer differs from the known one counts as failed.

End-to-end metrics are the same five names on every workload, so one
run always reports all of them:

    setup_s      median time from a fresh interpreter to `import clic`
                 done, sampled about once a second across the run
    op_p50_s     median wall time of one operation
    op_tail_s    the workload's tail percentile of the operation times
    peak_rss_mb  largest peak RSS of any process running clic
    work_per_s   work per second in the workload's own unit

Medians of many short samples spread over the run are what stays steady
on a shared machine whose speed wanders within seconds, so setup
samples are interleaved with the operations, the round trips run in
many short processes, and the catalog is timed row by row.

The machine's speed also drifts by a fifth or more over minutes.  Next
to each setup sample the run times a reference (a fresh interpreter
importing a fixed set of stdlib modules, no clic code), and every
reported time is scaled to the nominal machine speed: multiplied by
REFERENCE_NOMINAL_S over the run's median reference time.  The raw
values are printed too.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
import time
from array import array
from dataclasses import dataclass, field

from harness import (
    BENCH_DIR, CLI_BOOT, SRC, WORK, median, quantile, run_python,
    setup_time, space_size,
)

CHILD = str(BENCH_DIR / "child.py")


SETUP_EVERY_S = 1.0     # one setup sample per second of run
SETUP_MIN = 9
# The reference's time when the machine runs at its usual speed (the
# median on an Intel Xeon at 2.1 GHz, Python 3.11).
REFERENCE_NOMINAL_S = 0.06


@dataclass
class Outcome:
    tail_pct: int = 75
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    busy_s: float = 0.0         # summed operation time, for the overhead
    # laws-default: one {row id: seconds} per run of the catalog, and the
    # model checks one run makes.
    rows: list[dict[str, float]] = field(default_factory=list)
    catalog_work: int = 0
    setup: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(what)

    def summary(self) -> tuple[float, float]:
        """(median, tail) operation time.

        For the catalog, each row's median (tail) across the runs of the
        catalog, summed over the rows: a burst of machine noise during
        one row of one run then moves neither.
        """
        if self.rows:
            ids = self.rows[0]
            return (sum(median([r[i] for r in self.rows]) for i in ids),
                    sum(quantile([r[i] for r in self.rows], self.tail_pct)
                        for i in ids))
        return median(self.times), quantile(self.times, self.tail_pct)

    def tail_note(self) -> str:
        n = len(self.times)
        beyond = n - math.ceil(self.tail_pct * n / 100)
        return (f"op_tail_s is p{self.tail_pct} of {n} operations, "
                f"{beyond} beyond it; setup_s is the median of "
                f"{len(self.setup)} imports")

    def raw_metrics(self) -> dict[str, float]:
        p50, t_value = self.summary()
        rate = self.catalog_work / p50 if self.rows else median(self.rates)
        return {"setup_s": median(self.setup), "op_p50_s": p50,
                "op_tail_s": t_value, "peak_rss_mb": self.rss_mb,
                "work_per_s": rate}

    def metrics(self) -> dict[str, float]:
        """The raw metrics at the nominal machine speed.

        Times are scaled by REFERENCE_NOMINAL_S over the median time of
        the reference samples taken during the run, rates by its
        inverse; memory is not scaled.
        """
        speed = REFERENCE_NOMINAL_S / median(self.reference)
        raw = self.raw_metrics()
        return {k: v if k == "peak_rss_mb" else
                v / speed if k == "work_per_s" else v * speed
                for k, v in raw.items()}


def _loop(out: Outcome, seconds: float, step) -> None:
    """Call step(i) until `seconds` have passed, at least once, taking
    about one setup sample per second between the steps."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        step(i)
        i += 1
        due = 1 + (time.perf_counter() - start) // SETUP_EVERY_S
        while len(out.setup) < due:
            _sample(out)
    while len(out.setup) < SETUP_MIN:
        _sample(out)


def _sample(out: Outcome) -> None:
    setup, reference = setup_time()
    out.setup.append(setup)
    out.reference.append(reference)


def _json_line(text: str):
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


# ---------------------------------------------------------------------------
# laws-default: run_laws() at default bounds, one fresh interpreter each.
# One operation is one run of the catalog; work is model checks.

LAW_ROWS = {
    # law id: (observed, instantiations, models_checked)
    "anti-monotonicity": ("valid", 72, 522048),
    "upward-propagation": ("invalid", 1, 66),
    "subadditivity": ("valid", 128, 918784),
    "superadditivity-for-inability": ("invalid", 1, 247),
    "contravariance": ("valid", 512, 3786752),
    "covariance": ("invalid", 1, 3),
    "absorption": ("valid", 256, 1893376),
    "conjunction-downward": ("valid", 256, 1893376),
    "conjunction-upward": ("invalid", 1, 66),
    "disjunction-upward": ("valid", 256, 1893376),
    "disjunction-downward": ("invalid", 1, 946),
    "implication-distribution": ("valid", 256, 1893376),
    "implication-converse": ("invalid", 1, 946),
    "excluded-middle": ("invalid", 1, 58),
    "exclusivity": ("invalid", 1, 1),
    "symmetry": ("invalid", 1, 1),
    "complementarity": ("invalid", 1, 1),
    "opponent-ability": ("invalid", 1, 247),
    "grand-coalition-duality": ("valid", 8, 55680),
    "empty-coalition-duality": ("valid", 8, 55680),
    "contradiction": ("valid", 4, 29584),
    "truth": ("valid", 4, 29584),
    "axiom-truth": ("valid", 4, 29584),
    "axiom-no-contradiction": ("valid", 4, 29584),
    "axiom-superadditivity": ("valid", 576, 4176384),
    "axiom-grand-coalition": ("valid", 8, 55680),
    "inability-definition": ("valid", 32, 236672),
    "ability-distribution": ("invalid", 66, 509138),
    "strategic-impotence": ("satisfiable", 1, 938),
}
LAW_TOTALS = (2462, 18012178)   # instantiations, model checks
TINY_LAW_ROWS = ("upward-propagation", "covariance", "exclusivity",
                 "contradiction")


def _laws_args(size: str) -> list[str]:
    return [CHILD] + (["laws", *TINY_LAW_ROWS] if size == "tiny"
                      else ["laws"])


def _laws_check(proc, out: Outcome, size: str, plant: bool) -> None:
    expected = {k: v for k, v in LAW_ROWS.items()
                if size != "tiny" or k in TINY_LAW_ROWS}
    if plant:
        first = next(iter(expected))
        obs, inst, models = expected[first]
        expected[first] = (obs, inst, models + 1)
    out.attempted += len(expected)
    data = _json_line(proc.out) if proc.code == 0 else None
    if data is None:
        out.fail(f"laws child exited {proc.code}: {proc.err[-300:]}",
                 len(expected))
        return
    seen = {row[0]: row for row in data["rows"]}
    for law_id, (obs, inst, models) in expected.items():
        row = seen.get(law_id)
        if row is None or row[1:5] != [True, obs, inst, models]:
            out.fail(f"law {law_id}: got {row}, want {obs} {inst} {models}")
    if size == "full" and not plant:
        totals = (sum(r[3] for r in data["rows"]),
                  sum(r[4] for r in data["rows"]))
        if totals != LAW_TOTALS:
            out.fail(f"laws totals {totals} != {LAW_TOTALS}")
    out.times.append(data["elapsed"])
    out.busy_s += data["elapsed"]
    out.rss_mb = max(out.rss_mb, proc.maxrss_mb)
    out.rows.append({r[0]: r[5] for r in data["rows"]})
    out.catalog_work = sum(r[4] for r in data["rows"])


def laws_measure(seed, seconds, size, plant) -> Outcome:
    out = Outcome()
    _loop(out, seconds, lambda i: _laws_check(run_python(_laws_args(size)),
                                              out, size, plant))
    return out


def laws_pass(seed, size, plant, new_trace) -> Outcome:
    out = Outcome()
    args = _laws_args(size)
    if new_trace:
        args = [args[0], "--trace", new_trace()] + args[1:]
    _laws_check(run_python(args), out, size, plant)
    return out


# ---------------------------------------------------------------------------
# countermodel-cli: cold `clic countermodel` processes.  One operation is
# one query; work is queries.

# Acceptance criterion 8: the fixture instance of every invalid row with
# a fixture, and the failure of distribution for ability.
PINNED = (
    "I[1] p -> I[1,2] p",
    "(I[1] p & I[2] p) -> I[1,2] (p & p)",
    "I[1] (p & q) -> I[1] p",
    "I[1] (p & q) -> (I[1] p | I[1] q)",
    "(I[1] p & I[1] q) -> I[1] (p | q)",
    "(I[1] !!p & I[1] q) -> I[1] (!p -> q)",
    "I[1] p | I[1] !p",
    "E[1] true -> I[2] true",
    "I[1] p <-> I[2] !p",
    "I[1] true | I[2] true",
    "I[1] p -> E[2] !p",
    "E[1] (p -> q) -> (E[1] p -> E[1] q)",
)
# Valid schemes with depth-2 bodies; --all-states at 1 agent, 3 states,
# 2 actions and atoms p,q is 48,712 models.
DEPTH2 = (
    "I[1] (I[1] p & E[1] q) -> I[] (I[1] p & E[1] q)",
    "I[1] (I[1] p | E[] q) -> I[1] I[1] p",
    "I[1] E[1] p -> I[1] (E[1] p & I[] q)",
    "(I[1] I[1] p | I[1] E[1] q) -> I[1] (I[1] p & E[1] q)",
    "I[1] (E[1] p | I[1] q) -> (I[1] E[1] p & I[1] I[1] q)",
    "I[1] (E[] p -> I[1] q) <-> !E[1] (E[] p -> I[1] q)",
    "I[] E[1] (p & q) <-> !E[] E[1] (p & q)",
)
# Per twelve queries: three pinned (P), six valid catalog instances over
# one atom (V), two over both atoms (W) and one depth-2 formula (D).  A
# fixed mix keeps the median among the P and V queries and the tail
# among the W queries, whatever instances the seed draws.
CYCLE = "PVVWPVVWPVVD"
TRACED_QUERIES = len(CYCLE)


@dataclass(frozen=True)
class Query:
    kind: str               # a letter of CYCLE
    text: str
    flags: tuple[str, ...]
    # agents, states, actions, atoms, all-states
    bounds: tuple[int, int, int, int, bool]
    need: int               # largest agent the formula mentions

    def expected_code(self) -> int:
        return 1 if self.kind == "P" else 0


def queries(seed: int, size: str) -> list[Query]:
    """The seeded query list: CYCLE repeated, 240 queries long."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from clic import catalog, instantiations, parse_formula, print_formula
    from clic.formula import max_agent, propositions_of

    rng = random.Random(seed)
    valid: dict[str, list[list]] = {"V": [], "W": []}
    for law in catalog():
        if law.expected != "valid":
            continue
        pools = {"V": [], "W": []}
        for f in instantiations(law, 2, ("p", "q")):
            atoms = len(propositions_of(f))
            if atoms:
                pools["VW"[atoms - 1]].append(f)
        for kind, pool in pools.items():
            if pool:
                valid[kind].append(pool)
    pinned = list(PINNED)
    rng.shuffle(pinned)
    next_pinned = iter(pinned * 20)

    def make(kind, f, flags, bounds):
        return Query(kind, print_formula(f), flags,
                     bounds[:3] + (len(propositions_of(f)), bounds[3]),
                     max_agent(f))

    default = ((), (2, 3, 2, False))
    depth2 = (("--agents", "1", "--actions", "2", "--all-states",
               "--states", "2" if size == "tiny" else "3"),
              (1, 2 if size == "tiny" else 3, 2, True))
    out = []
    kinds = "PVWD" if size == "tiny" else CYCLE * 20
    for kind in kinds:
        if kind == "P":
            f, spec = parse_formula(next(next_pinned)), default
        elif kind in valid:
            # A row first, then one of its instances.
            f, spec = rng.choice(rng.choice(valid[kind])), default
        else:
            f, spec = parse_formula(rng.choice(DEPTH2)), depth2
        out.append(make(kind, f, *spec))
    return out


_COUNT_RE = re.compile(r"^(models|states)_checked: (\d+)$", re.M)


def _query_check(q: Query, proc, out: Outcome, plant: bool, new_trace):
    """Check one query's answer; run the pipe-through check if found."""
    out.attempted += 1
    want = q.expected_code() ^ (1 if plant else 0)
    if proc.code != want:
        out.fail(f"{q.text!r}: exit {proc.code}, want {want}: "
                 f"{proc.err[-200:]}")
        return
    if want == 0:
        agents, states, actions, atoms, all_states = q.bounds
        models, n_states = space_size(agents, states, actions, atoms,
                                      all_states, min_agents=q.need)
        got = {k: int(v) for k, v in _COUNT_RE.findall(proc.out)}
        if got != {"models": models, "states": n_states}:
            out.fail(f"{q.text!r}: checked {got}, want {models} models "
                     f"and {n_states} states")
        return
    lines = proc.out.splitlines()
    if not lines or not lines[-1].startswith("at: "):
        out.fail(f"{q.text!r}: no 'at:' line")
        return
    path = WORK / "countermodel.clm"
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    args = ["check", str(path), q.text, "--state", lines[-1][4:]]
    check = run_python(_cli(args, new_trace))
    path.unlink()
    if check.code != 1 or not check.out.startswith("result: false\n"):
        out.fail(f"{q.text!r}: countermodel does not falsify it "
                 f"(exit {check.code})")


def _cli(args: list[str], new_trace) -> list[str]:
    """A `clic` process; traced ones install the wrappers first."""
    if new_trace is None:
        return ["-c", CLI_BOOT, *args]
    return [CHILD, "--trace", new_trace(), "cli", *args]


def _query(q: Query, out: Outcome, plant: bool, new_trace=None) -> None:
    args = ["countermodel", q.text, *q.flags]
    proc = run_python(_cli(args, new_trace))
    out.times.append(proc.wall_s)
    out.busy_s += proc.wall_s
    out.rss_mb = max(out.rss_mb, proc.maxrss_mb)
    _query_check(q, proc, out, plant, new_trace)


def countermodel_measure(seed, seconds, size, plant) -> Outcome:
    qs = queries(seed, size)
    out = Outcome()
    _loop(out, seconds, lambda i: _query(qs[i % len(qs)], out,
                                         plant and i == 0))
    out.rates.append(len(out.times) / out.busy_s)
    return out


def countermodel_pass(seed, size, plant, new_trace) -> Outcome:
    """The first TRACED_QUERIES queries of the seeded list."""
    out = Outcome()
    for i, q in enumerate(queries(seed, size)[:TRACED_QUERIES]):
        _query(q, out, plant and i == 0, new_trace)
    out.rates.append(len(out.times) / out.busy_s)
    return out


# ---------------------------------------------------------------------------
# translation-grid: check_truth_preservation on a fixed grid, one fresh
# interpreter each.  One operation is one grid; work is checks.

GRIDS = {
    # size: ((agents, states, actions, depth), (checks, formulas, models))
    "full": ((1, 2, 2, 2), (142188, 867, 84)),
    "tiny": ((1, 2, 1, 1), (918, 27, 18)),
}


def _grid_check(proc, out: Outcome, size: str, plant: bool) -> None:
    _, want = GRIDS[size]
    if plant:
        want = (want[0] + 1,) + want[1:]
    out.attempted += 1
    data = _json_line(proc.out) if proc.code == 0 else None
    if data is None:
        out.fail(f"grid child exited {proc.code}: {proc.err[-300:]}")
        return
    got = (data["total_checks"], data["formulas"], data["models"])
    if got != want or data["violations"]:
        out.fail(f"grid: counts {got}, want {want}; "
                 f"{data['violations']} violations")
    out.times.append(data["elapsed"])
    out.busy_s += data["elapsed"]
    out.rates.append(data["total_checks"] / data["elapsed"])
    out.rss_mb = max(out.rss_mb, proc.maxrss_mb)


def _grid_args(size: str, new_trace=None) -> list[str]:
    grid, _ = GRIDS[size]
    trace = ["--trace", new_trace()] if new_trace else []
    return [CHILD, *trace, "grid", *map(str, grid)]


def grid_measure(seed, seconds, size, plant) -> Outcome:
    out = Outcome()
    _loop(out, seconds, lambda i: _grid_check(run_python(_grid_args(size)),
                                              out, size, plant))
    return out


def grid_pass(seed, size, plant, new_trace) -> Outcome:
    out = Outcome()
    _grid_check(run_python(_grid_args(size, new_trace)), out, size, plant)
    return out


# ---------------------------------------------------------------------------
# formula-roundtrip: parse_formula(print_formula(f)) == f over seeded
# ASTs, 20,000 per fresh interpreter (about 1.5 s).  One operation is one
# round trip; work is formulas.

ROUNDTRIP_CHUNK = {"full": 20000, "tiny": 100}
ROUNDTRIP_TRACED = {"full": 2000, "tiny": 100}


def _roundtrip(out: Outcome, seed, count, plant, new_trace=None) -> None:
    trace = ["--trace", new_trace()] if new_trace else []
    times_path = WORK / "roundtrip-times.bin"
    proc = run_python([CHILD, *trace, "roundtrip", str(seed), str(count),
                       "1" if plant else "0", str(times_path)])
    data = _json_line(proc.out) if proc.code == 0 else None
    if data is None:
        out.attempted += 1
        out.fail(f"roundtrip child exited {proc.code}: {proc.err[-300:]}")
        return
    out.attempted += data["count"]
    if data["failed"]:
        out.fail(f"{data['failed']} round trips changed the AST",
                 data["failed"])
    times = array("d")
    with open(times_path, "rb") as fh:
        times.fromfile(fh, data["count"])
    times_path.unlink()
    out.times.extend(times)
    out.rates.append(data["count"] / data["elapsed"])
    out.rss_mb = max(out.rss_mb, proc.maxrss_mb)
    out.busy_s += data["elapsed"]


def roundtrip_measure(seed, seconds, size, plant) -> Outcome:
    out = Outcome(tail_pct=99)
    _loop(out, seconds, lambda i: _roundtrip(
        out, seed, ROUNDTRIP_CHUNK[size], plant and i == 0))
    return out


def roundtrip_pass(seed, size, plant, new_trace) -> Outcome:
    out = Outcome(tail_pct=99)
    _roundtrip(out, seed, ROUNDTRIP_TRACED[size], plant, new_trace)
    return out


# name: (timed loop, fixed pass for the traced run)
WORKLOADS = {
    "laws-default": (laws_measure, laws_pass),
    "countermodel-cli": (countermodel_measure, countermodel_pass),
    "translation-grid": (grid_measure, grid_pass),
    "formula-roundtrip": (roundtrip_measure, roundtrip_pass),
}
