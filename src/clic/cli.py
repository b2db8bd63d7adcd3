"""Command-line interface.

Five subcommands cover the library surface: `parse` echoes a formula as
an AST dump and in canonical form, `check` evaluates a formula in a
model file and prints witnesses, `translate` rewrites inability away,
`countermodel` searches the bounded model space, and `laws` runs the
structural-law catalog.  A handler imports `laws` or `translation`
itself, so a `countermodel` or `check` process never loads them.

Exit codes follow one convention throughout: 0 for an affirmative
answer or an exhausted search, 1 for a negative answer or a found
counterexample, 2 for usage, syntax, or bounds errors, and for a closed
stdout, which prints nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .errors import ClicError
from .formula import (
    Ability, Inability, ast_dump, parse_formula, print_formula,
    propositions_of,
)
from .model import Bounds, parse_model, print_model
from .semantics import (AbilityWitness, check_ability, check_inability,
                        satisfies)
from .validity import Counterexample, default_bounds, find_countermodel


def _bounds_arguments(sub: argparse.ArgumentParser) -> None:
    b = default_bounds()
    for flag, metavar, default, what in (
            ("--agents", "N", b.max_agents, "agent count to search"),
            ("--states", "K", b.max_states, "state count to search"),
            ("--actions", "M", b.max_actions_per_agent,
             "per-agent action count")):
        sub.add_argument(flag, type=int, default=default, metavar=metavar,
                         help=f"largest {what} (default {default})")
    sub.add_argument("--all-states", action="store_true",
                     help="vary outcomes at every state, not just the "
                          "initial one (needed for nested modalities)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clic",
        description="check coalition ability and inability over finite "
                    "one-step game models")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="echo a formula's AST and "
                                      "canonical form")
    p.add_argument("formula")
    p.set_defaults(run=cmd_parse)

    p = subs.add_parser("check", help="evaluate a formula in a model file")
    p.add_argument("model", help="path to a .clm model file")
    p.add_argument("formula")
    p.add_argument("--state", metavar="ID",
                   help="state to evaluate at (default: the model's init)")
    p.set_defaults(run=cmd_check)

    p = subs.add_parser("translate", help="rewrite inability as negated "
                                          "ability")
    p.add_argument("formula")
    p.set_defaults(run=cmd_translate)

    p = subs.add_parser("countermodel", help="search for a model falsifying "
                                             "a formula")
    p.add_argument("formula")
    _bounds_arguments(p)
    p.set_defaults(run=cmd_countermodel)

    p = subs.add_parser("laws", help="run the structural-law catalog")
    p.add_argument("--law", metavar="ID", help="run a single catalog entry")
    _bounds_arguments(p)
    p.set_defaults(run=cmd_laws)

    for p in subs.choices.values():
        p.add_argument("--structured", action="store_true",
                       help="key-value output")
    return parser


def cmd_parse(args: argparse.Namespace) -> int:
    f = parse_formula(args.formula)
    if args.structured:
        print(f"ast: {ast_dump(f)}")
        print(f"canonical: {print_formula(f)}")
    else:
        print(ast_dump(f))
        print(print_formula(f))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    m = parse_model(Path(args.model).read_text(encoding="utf-8"))
    f = parse_formula(args.formula)
    state = args.state if args.state is not None else m.initial

    check = {Ability: check_ability, Inability: check_inability}.get(type(f))
    result, witness = (check(m, state, f.coalition, f.body) if check
                       else (satisfies(m, state, f), None))
    print(f"result: {'true' if result else 'false'}")
    if isinstance(witness, AbilityWitness):
        print(f"witness: {witness.action}")
    elif witness is not None:
        for own, counter in witness.counters.items():
            print(f"counter: {own} => {counter}")
    return 0 if result else 1


def cmd_translate(args: argparse.Namespace) -> int:
    from .translation import translate

    text = print_formula(translate(parse_formula(args.formula)))
    if args.structured:
        print(f"formula: {text}")
    else:
        print(text)
    return 0


def cmd_countermodel(args: argparse.Namespace) -> int:
    f = parse_formula(args.formula)
    b = Bounds(args.agents, args.states, args.actions,
               propositions_of(f), args.all_states)
    verdict = find_countermodel(f, b)
    if isinstance(verdict, Counterexample):
        body = print_model(verdict.model)
        if args.structured:
            print("result: counterexample")
            print(f"at: {verdict.state}")
            for line in body.splitlines():
                print(f"model: {line}")
        else:
            sys.stdout.write(body)
            print(f"at: {verdict.state}")
        return 1
    if args.structured:
        print("result: exhausted")
    else:
        print("no counterexample within bounds")
    print(f"models_checked: {verdict.models_checked}")
    print(f"states_checked: {verdict.states_checked}")
    return 0


def _print_fixture_detail(law, fixture_ok: bool | None) -> None:
    from .laws import evaluate_fixture

    fx = law.fixture
    print()
    if fx is None:
        print("fixture: none")
        return
    print(f"fixture model: {fx.model_name}")
    print(f"fixture state: {fx.state}")
    print(f"fixture instance: {fx.instance}")
    for text, got, want in evaluate_fixture(law)[1:]:
        print(f"claim: {text} = {str(got).lower()}")
        if got != want:
            print(f"claim-mismatch: {text} pinned as {str(want).lower()}")
    print(f"fixture replay: {'ok' if fixture_ok else 'MISMATCH'}")


def cmd_laws(args: argparse.Namespace) -> int:
    from .laws import COLUMNS, catalog, run_laws

    chosen = catalog()
    if args.law is not None:
        chosen = tuple(law for law in chosen if law.id == args.law)
        if not chosen:
            raise ClicError(f"unknown law id {args.law!r}")
    b = Bounds(args.agents, args.states, args.actions,
               default_bounds().props, args.all_states)
    report = run_laws(b, chosen)
    if args.structured:
        print("\n\n".join("\n".join(f"{name}: {cell}" for name, cell
                                    in zip(COLUMNS, r.row()))
                          for r in report.results))
    else:
        print(report.render())
        if args.law is not None:
            _print_fixture_detail(chosen[0], report.results[0].fixture_ok)
    return 0 if report.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()      # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # Nobody reads the answer: say nothing, and give the flush at exit
        # somewhere to go.
        sys.stdout = open(os.devnull, "w")
        return 2
    except (ClicError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
