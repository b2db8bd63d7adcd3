"""Shared pieces of the benchmark: paths, child processes, statistics,
closed-form space sizes and the seeded formula generator.

Every clic call the benchmark times runs in a child interpreter started
from the checkout's `src` directory, so each measurement pays what a
user of the `clic` command pays and the parent never warms a cache the
child relies on.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One process may not outlive this; a run must end within 180 s.
CHILD_TIMEOUT_S = 150.0

# A child's rusage counts the parent's memory from before the exec, so
# children report their own peak RSS (VmHWM, per address space) as the
# last line of standard error.
PEAK_RSS = ("import sys\n"
            "with open('/proc/self/status') as _status:\n"
            "    for _line in _status:\n"
            "        if _line.startswith('VmHWM:'):\n"
            "            print('peak-rss-kb:', _line.split()[1], "
            "file=sys.stderr)\n")


def print_peak_rss() -> None:
    """Report this process's peak RSS the way CLI_BOOT does."""
    exec(PEAK_RSS)


# The `clic` console script, without relying on it being installed.
CLI_BOOT = ("import sys\nfrom clic.cli import main\ncode = main()\n"
            + PEAK_RSS + "sys.exit(code)\n")


def checkout_ok() -> bool:
    return (SRC / "clic" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Proc:
    """A finished child: exit code, output, wall time and peak RSS (MB)."""

    code: int
    out: str
    err: str
    wall_s: float
    maxrss_mb: float


def run_python(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> Proc:
    """Run `python <args>` to completion in the checkout.

    Output goes to files, not pipes, so a chatty child cannot block;
    `os.wait4` reaps the child and yields its own peak RSS.
    """
    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"child-{os.getpid()}.out"
    err_path = WORK / f"child-{os.getpid()}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, cwd=ROOT, env=child_env())
        watchdog = threading.Timer(timeout, _kill, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    err_text = err_path.read_text(encoding="utf-8", errors="replace")
    rss_kb = usage.ru_maxrss     # includes the parent; used if no report
    head, _, last = err_text.rstrip("\n").rpartition("\n")
    if last.startswith("peak-rss-kb: "):
        rss_kb = int(last.split()[1])
        err_text = head
    result = Proc(proc.returncode,
                  out_path.read_text(encoding="utf-8", errors="replace"),
                  err_text, wall, rss_kb / 1024.0)
    out_path.unlink()
    err_path.unlink()
    return result


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# Work of the same kind as `import clic` that does not touch clic: a
# fresh interpreter importing a fixed set of pure-Python stdlib modules.
# Sampled across a run, its time tracks how fast the shared machine is
# running at the moment.
REFERENCE_IMPORTS = ("statistics, email.parser, xml.dom.minidom, tarfile, "
                     "difflib")


def _stamped(code: str) -> float:
    """Seconds from spawning `python -c code` to the stamp it prints."""
    start = time.monotonic_ns()
    proc = run_python(["-c", code + "; import time; "
                       "print(time.monotonic_ns())"])
    if proc.code != 0:
        raise RuntimeError(f"{code!r} failed:\n{proc.err}")
    return (int(proc.out.split()[-1]) - start) / 1e9


def setup_time() -> tuple[float, float]:
    """(setup, reference) seconds from two fresh interpreters.

    Setup runs from spawning the interpreter to `import clic` done; the
    child reads the same monotonic clock right after the import, so
    teardown is not counted.  Reference is the same for
    REFERENCE_IMPORTS.
    """
    return _stamped("import clic"), _stamped("import " + REFERENCE_IMPORTS)


# ---------------------------------------------------------------------------
# Statistics

def median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def quantile(xs, pct: int) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(pct * len(s) / 100) - 1)]


# ---------------------------------------------------------------------------
# Closed-form space sizes

def space_size(agents: int, states: int, actions: int, n_props: int,
               vary_all: bool, min_agents: int = 1) -> tuple[int, int]:
    """(models, states) within the bounds, counting agent counts >= min.

    Sum over sizes of |S|^slots * 2^(|S|*k): slots is the number of
    outcome cells the enumeration varies (every state's cells with
    vary_all, the initial state's only without), k the atom count.
    """
    models = states_total = 0
    for n in range(max(min_agents, 1), agents + 1):
        for s in range(1, states + 1):
            for sizes in product(range(1, actions + 1), repeat=n):
                slots = math.prod(sizes) * (s if vary_all else 1)
                count = s ** slots * 2 ** (s * n_props)
                models += count
                states_total += count * s
    return models, states_total


# ---------------------------------------------------------------------------
# Seeded formulas

def random_formula(rng, nodes: int, depth: int = 0):
    """A random AST over atoms p,q,r and agents 1-3 with about `nodes`
    nodes; nesting stays at most 12 deep."""
    from clic.formula import (
        Ability, And, Atom, Bot, Coalition, Iff, Implies, Inability, Not,
        Or, Top,
    )
    if nodes <= 1 or depth >= 12:
        r = rng.random()
        if r < 0.9:
            return Atom(rng.choice("pqr"))
        return Top() if r < 0.95 else Bot()
    if rng.random() < 0.4:
        body = random_formula(rng, nodes - 1, depth + 1)
        kind = rng.randrange(3)
        if kind == 0:
            return Not(body)
        members = tuple(a for a in (1, 2, 3) if rng.random() < 0.5)
        return (Ability if kind == 1 else Inability)(Coalition(members), body)
    left_nodes = rng.randint(1, max(1, nodes - 2))
    node = rng.choice((And, Or, Implies, Iff))
    return node(random_formula(rng, left_nodes, depth + 1),
                random_formula(rng, nodes - 1 - left_nodes, depth + 1))
