"""The golden corpus: clic's frozen outputs, one record per command.

Each record is a header line, `$ clic <argv>` for a command run through
`cli.main` from the repository root or `>>> <expression>` for a library
call, then its exit code, stdout and stderr.  Output lines are prefixed
with `|`, and an output that does not end in a newline is marked, so the
text holds every byte.  Records are separated by one blank line.

    PYTHONPATH=src python tests/golden/corpus.py

rewrites `cli.txt` beside this file; `tests/test_golden.py` builds the
same text in process and compares.  argparse's own messages (`--help`,
usage errors) are left out: their layout differs across Python versions.
"""

from __future__ import annotations

import os
import shlex
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from clic import (
    Bounds, catalog, cli, default_bounds, enumerate_formulas, fixture_model,
    print_formula, run_laws,
)

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("cli.txt")
FIXTURES = "src/clic/fixtures"  # relative to ROOT, where the commands run

LAW_FLAGS = ([], ["--structured"], ["--agents", "1"],
             ["--agents", "3", "--states", "1", "--actions", "1"],
             ["--agents", "30"])
RENDER_BOUNDS = (default_bounds(), default_bounds(vary_all_states=True),
                 Bounds(1, 1, 1, ("p",)), Bounds(1, 3, 2, ("p", "q")),
                 Bounds(3, 1, 1, ("p", "q")))


def commands() -> list[list[str]]:
    """The argv of every CLI record, in corpus order."""
    laws = catalog()
    fixtures = [law.fixture for law in laws if law.fixture is not None]
    instances = list(dict.fromkeys(fx.instance for fx in fixtures))
    texts = list(dict.fromkeys(
        text for fx in fixtures
        for text in (fx.instance, *(claim for claim, _ in fx.claims))))
    models = sorted(p.stem for p in (ROOT / FIXTURES).glob("*.clm"))
    depth1 = [print_formula(f)
              for f in enumerate_formulas(("p", "q"), 2, 1)]

    cmds = [["laws"], ["laws", "--structured"]]
    cmds += [["laws", "--law", law.id, *flags]
             for law in laws for flags in LAW_FLAGS]
    cmds += [["countermodel", text, *flags] for text in instances
             for flags in ([], ["--all-states", "--states", "2"])]
    cmds += [["check", f"{FIXTURES}/{name}.clm", text, "--state", state]
             for name in models for state in fixture_model(name).states
             for text in texts]
    cmds += [[cmd, text] for text in depth1
             for cmd in ("translate", "countermodel")]
    cmds += [[cmd, text] for text in texts for cmd in ("parse", "translate")]
    return cmds


def _lines(name: str, text: str) -> list[str]:
    body, end = text.split("\n"), []
    if body[-1]:
        end = ["\\ no newline at end"]
    else:
        body.pop()
    return [f"{name}:", *(f"| {line}" if line else "|" for line in body),
            *end]


def record(header: str, code: int | None, out: str, err: str) -> str:
    """One record's text, without the blank line that ends it."""
    head = [header] if code is None else [header, f"exit: {code}"]
    return "\n".join(head + _lines("stdout", out) + _lines("stderr", err))


def run(argv: list[str]) -> str:
    """The record of `clic <argv>`, run in process from the current
    directory."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return record(f"$ clic {shlex.join(argv)}", code,
                  out.getvalue(), err.getvalue())


def records() -> list[str]:
    """Every record, CLI commands run from ROOT, then the law tables."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        cli_records = [run(argv) for argv in commands()]
    finally:
        os.chdir(cwd)
    return cli_records + [
        record(f">>> run_laws({b!r}).render()", None,
               run_laws(b).render(), "")
        for b in RENDER_BOUNDS]


def corpus() -> str:
    return "\n\n".join(records()) + "\n"


if __name__ == "__main__":
    CORPUS.write_text(corpus(), encoding="utf-8")
