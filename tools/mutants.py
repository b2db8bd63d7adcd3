"""Mutation check of the search engine: which one-token changes do the
quick tests miss?

    python tools/mutants.py [--list] [--jobs N] [--scratch DIR] [NAME ...]

Each mutant makes one change to one of TARGETS: a binary or boolean
operator swapped (`and_` and `or_` passed as functions included), a
comparison flipped, or an int constant raised by 1.  It is written into
a scratch copy of the checkout, never the checkout itself, and TESTS run
there with `-x`; a failure, a timeout or a run out of memory kills it.
NAME arguments keep the mutants of the targets whose names contain one.

The script prints each survivor and exits 1 if any is not listed, with
the reason it changes no behaviour, in `equivalent_mutants.json` beside
it; else 0.  Standard library only; pytest does not collect it.  A full
run takes about 20 minutes with two jobs on a 2-core machine.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENTS = Path(__file__).with_name("equivalent_mutants.json")
# The engine's definitions by module; the MAX_* budgets are left out, as
# their values are measured choices, not logic.
TARGETS = {
    "src/clic/_eval.py": (
        "_lanes", "_column", "_minimal_reach", "_reach", "ModelContext",
        "_block", "_plan", "blocks", "_table", "_OPS", "_bind",
        "compile_formula", "first_failure"),
    "src/clic/validity.py": ("_search",),
    "src/clic/laws.py": ("_instance_of", "_searches"),
}
TESTS = ("tests/test_eval.py", "tests/test_validity.py",
         "tests/test_golden.py", "tests/test_laws.py")
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
MEMORY = 2 << 30                # address space of each test run, bytes

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult, ast.Div: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr, ast.BitXor: ast.BitOr,
    ast.And: ast.Or, ast.Or: ast.And,
}
_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_NAMES = {"and_": "or_", "or_": "and_", "xor": "or_"}
_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Div: "/", ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<",
    ast.RShift: ">>", ast.BitOr: "|", ast.BitAnd: "&", ast.BitXor: "^",
    ast.And: "and", ast.Or: "or", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
    ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is",
    ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}


def _definitions(tree: ast.Module, names: tuple[str, ...]):
    """(name, node) for each top-level def, class or assignment named."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
        else:
            continue
        if name in names:
            yield name, node


def _sites(node: ast.AST):
    """(node, field, index, old, new) for each change one mutant makes,
    in source order; index is the position in a Compare's ops.  Type
    annotations are skipped: under `from __future__ import annotations`
    nothing evaluates them."""
    notes = {id(n) for a in ast.walk(node) for note in (
        getattr(a, "returns", None), getattr(a, "annotation", None))
        if note is not None for n in ast.walk(note)}
    for n in sorted(ast.walk(node), key=lambda n: (
            getattr(n, "lineno", 0), getattr(n, "col_offset", 0))):
        if id(n) in notes:
            continue
        if isinstance(n, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(n.op) in _SWAPS:
                yield n, "op", None, type(n.op), _SWAPS[type(n.op)]
        elif isinstance(n, ast.Compare):
            for i, op in enumerate(n.ops):
                yield n, "ops", i, type(op), _FLIPS[type(op)]
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            if n.id in _NAMES:
                yield n, "id", None, n.id, _NAMES[n.id]
        elif isinstance(n, ast.Constant) and type(n.value) is int:
            yield n, "value", None, n.value, n.value + 1


def mutants() -> list[tuple[str, str, int]]:
    """(name, path, site number) per mutant: the name is the target, its
    source line, and the change, numbered when a line has it twice."""
    out = []
    for path, names in TARGETS.items():
        source = (ROOT / path).read_text(encoding="utf-8")
        lines, module = source.splitlines(), Path(path).stem
        tree = ast.parse(source)
        number, seen = 0, {}
        for name, node in _definitions(tree, names):
            for n, _, _, old, new in _sites(node):
                old, new = (_SYMBOLS.get(x, x) for x in (old, new))
                key = f"{module}.{name}: {lines[n.lineno - 1].strip()}: " \
                      f"{old} -> {new}"
                seen[key] = seen.get(key, 0) + 1
                out.append((key + (f" #{seen[key]}" if seen[key] > 1
                                   else ""), path, number))
                number += 1
    return out


def mutated(path: str, number: int | None) -> str:
    """The source of path with site `number` changed; None changes none
    (the round trip through ast.unparse alone)."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    sites = [site for _, node in _definitions(tree, TARGETS[path])
             for site in _sites(node)]
    if number is not None:
        n, field, index, _, new = sites[number]
        if index is not None:
            n.ops[index] = new()
        else:
            setattr(n, field, new() if isinstance(new, type) else new)
    return ast.unparse(tree) + "\n"


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_tests(copy: Path, timeout: float) -> tuple[bool, float]:
    """(passed, seconds) of TESTS in a copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", *TESTS],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout,
            preexec_fn=_cap_memory)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and run none")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--scratch", type=Path,
                        help="where the copies go (default: a temp dir)")
    args = parser.parse_args(argv)
    chosen = [m for m in mutants() if not args.names
              or any(x in m[0].split(":")[0] for x in args.names)]
    if args.list:
        print("\n".join(name for name, _, _ in chosen))
        return 0
    equivalent = {e["mutant"]: e["reason"]
                  for e in json.loads(EQUIVALENTS.read_text("utf-8"))}
    scratch = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.scratch))
    copies, jobs = queue.Queue(), max(args.jobs, 1)
    for i in range(jobs):
        copy = scratch / f"copy{i}"
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part, ignore=(
                    shutil.ignore_patterns("__pycache__", ".hypothesis")))
            else:
                shutil.copy2(ROOT / part, copy / part)
        for path in TARGETS:
            (copy / path).write_text(mutated(path, None), encoding="utf-8")
        copies.put(copy)
    try:
        # Every target through ast.unparse alone must pass, and its time
        # sets each mutant's timeout.
        copy = copies.get()
        passed, seconds = run_tests(copy, None)
        if not passed:
            print("the tests fail with no mutation", file=sys.stderr)
            return 2
        copies.put(copy)
        timeout = 3 * seconds + 30
        print(f"{len(chosen)} mutants; unmutated run {seconds:.0f} s",
              flush=True)

        def trial(mutant):
            name, path, number = mutant
            copy = copies.get()
            try:
                (copy / path).write_text(mutated(path, number), "utf-8")
                passed, seconds = run_tests(copy, timeout)
            finally:
                (copy / path).write_text(mutated(path, None), "utf-8")
                copies.put(copy)
            print(f"{'SURVIVED' if passed else 'killed  '} {seconds:5.0f} s"
                  f"  {name}", flush=True)
            return passed

        with ThreadPoolExecutor(jobs) as pool:
            survived = [m[0] for m, alive in zip(chosen,
                                                 pool.map(trial, chosen))
                        if alive]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    unlisted = [name for name in survived if name not in equivalent]
    print(f"\n{len(chosen) - len(survived)} killed, {len(survived)} "
          f"survived, {len(unlisted)} not listed as equivalent")
    for name in survived:
        print(f"  {name}\n    " + equivalent.get(name, "NOT LISTED"))
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
