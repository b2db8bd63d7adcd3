"""Eliminating the inability operator by definitional translation.

I[C] f is definable as !E[C] f; the translation rewrites every
Inability node that way and leaves the rest of the structure alone.
`check_truth_preservation` grinds the claimed equivalence against an
enumerated grid of formulas, models, and states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from ._eval import blocks, compile_formula
from .errors import BoundsTooSmall, ClicError
from .formula import (
    Ability, And, Atom, Bot, Formula, Iff, Implies, Inability, Not, Or, Top,
    enumerate_formulas, guard_nesting, walk,
)
from .model import Bounds, CoalitionModel
from .semantics import extensions
from .validity import _require_searchable

__all__ = [
    "PreservationReport", "check_truth_preservation", "is_cl_fragment",
    "translate",
]

# Most formulas one grid compares, counted before it translates any: it
# evaluates each of them on every model.
MAX_FORMULAS = 1 << 16


@guard_nesting
def translate(f: Formula) -> Formula:
    """Rewrite I[C] g to !E[C] g, recursively; everything else maps as is."""
    return _translate(f)


def _translate(f: Formula) -> Formula:
    if isinstance(f, (Atom, Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(_translate(f.body))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(_translate(f.left), _translate(f.right))
    if isinstance(f, Ability):
        return Ability(f.coalition, _translate(f.body))
    if isinstance(f, Inability):
        return Not(Ability(f.coalition, _translate(f.body)))
    raise TypeError(f"not a formula: {f!r}")


def is_cl_fragment(f: Formula) -> bool:
    """Whether f avoids the inability operator entirely."""
    return not any(type(g) is Inability for g, _ in walk(f))


@dataclass(frozen=True)
class PreservationReport:
    """Outcome of an exhaustive original-vs-translated comparison."""

    total_checks: int
    formulas_checked: int
    models_checked: int
    violations: tuple[tuple[Formula, CoalitionModel, str], ...]


def check_truth_preservation(b: Bounds,
                             max_formula_depth: int) -> PreservationReport:
    """Compare every enumerated formula with its translation everywhere.

    Every formula over b.props and b.max_agents agents up to the given
    depth is evaluated against every model in b at every state, once as
    written and once translated; any state where the two disagree is
    recorded as a violation (which would indict this implementation,
    not the translation).  One check = one (formula, model, state)
    triple; models with fewer agents than a formula mentions are
    skipped for that formula.

    The original formula runs through the reference satisfaction
    clauses and the translated one through the frame-major engine, so
    agreement also cross-checks the two evaluators against each other.
    Comparing both sides on the same engine would prove nothing: the
    engine already evaluates I[C] as the complement of E[C].  The grid
    runs frame by frame: `block.at` reads a value's lane vectors in the
    frame (a per-row table by each state's row choice), the engine
    rebuilds the model of valuation v on the frame, and bit v is
    compared with it.  Violations are listed in that order: by size
    block, frame, valuation, formula and state.  The grid walks every
    model, so `_eval._plan` charges it for every coalition and frame,
    and sizes it before it builds a formula: past the plan's bounds it
    raises SearchTooLarge, and past MAX_FORMULAS formulas ClicError,
    before it translates one.  Bounds that cannot search every formula raise
    BoundsInsufficientForFormula, as in `find_countermodel`.
    """
    if max_formula_depth < 0:
        raise BoundsTooSmall("no formulas below depth 0")
    space = list(blocks(b, 1, range(1 << b.max_agents), True))  # sized first
    formulas = list(islice(enumerate_formulas(b.props, b.max_agents,
                                              max_formula_depth),
                           MAX_FORMULAS + 1))
    if len(formulas) > MAX_FORMULAS:
        raise ClicError(f"grid too large: over {MAX_FORMULAS} formulas up "
                        f"to depth {max_formula_depth}")
    jobs = [(f, _require_searchable(f, b)[0], compile_formula(translate(f)))
            for f in formulas]
    total, violations = 0, []
    for block in space:
        bound = [(f, c(block)) for f, need, c in jobs
                 if need <= block.n_agents]
        fs = [f for f, _ in bound]
        total += len(bound) * block.n_models * block.n_states
        for fr in block.frames():
            row = [block.at(x, fr) for _, x in bound]
            for v in range(block.n_valuations):
                m = block.model(v, fr)
                # One reference call per model shares common subformulas.
                for f, want, ref in zip(fs, row, extensions(m, fs)):
                    for s, x in zip(m.states, want):
                        if (s in ref) is not bool(x >> v & 1):
                            violations.append((f, m, s))
    return PreservationReport(total, len(jobs),
                              sum(block.n_models for block in space),
                              tuple(violations))
