"""Bounded validity checking by exhaustive countermodel search.

A search verdict is either a Counterexample (a concrete model and state
falsifying the formula, the first one in canonical enumeration order)
or NoCounterexampleWithinBounds, which only ever asserts that a finite
space was exhausted.  Validity proper is out of reach of enumeration;
exhaustion at bounds covering the known countermodel sizes is the
strongest claim made anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ._eval import blocks, compile_formula, first_failure
from .errors import BoundsInsufficientForFormula
from .formula import Formula, Iff, guard_nesting, measures
from .model import Bounds, CoalitionModel
from .semantics import satisfies

__all__ = [
    "Counterexample", "NoCounterexampleWithinBounds", "Verdict",
    "check_equivalence", "default_bounds", "find_countermodel",
    "minimal_countermodel",
]

DEFAULT_MAX_AGENTS = 2
DEFAULT_MAX_STATES = 3
DEFAULT_MAX_ACTIONS = 2


def default_bounds(props: tuple[str, ...] = ("p", "q"),
                   vary_all_states: bool = False) -> Bounds:
    """The stock search envelope: 2 agents, 3 states, 2 actions each.

    Every invalid principle in the catalog has a countermodel within
    these sizes, so they are the default for `find_countermodel` users
    and for the laws runner.
    """
    return Bounds(DEFAULT_MAX_AGENTS, DEFAULT_MAX_STATES,
                  DEFAULT_MAX_ACTIONS, props, vary_all_states)


@dataclass(frozen=True)
class Counterexample:
    """A model and state at which the queried formula is false.

    `size` is only set by minimal_countermodel: the (states, actions,
    agents) bound tuple at which the search first succeeded.
    `models_checked` counts the models the search visited, this one
    included; for minimal_countermodel, over every size tuple it tried.
    """

    model: CoalitionModel
    state: str
    size: tuple[int, int, int] | None = None
    models_checked: int = 0


@dataclass(frozen=True)
class NoCounterexampleWithinBounds:
    """Exhaustion of the bounded space; never a validity claim."""

    bounds: Bounds
    models_checked: int
    states_checked: int


Verdict = Counterexample | NoCounterexampleWithinBounds


def _require_searchable(f: Formula,
                        b: Bounds) -> tuple[int, tuple[int, ...], bool]:
    """Raise unless b can search f; return max_agent(f), its coalition
    masks, and whether a scan walks frames (modal depth 2+).  The only
    rule on what a bounds can search: every search asks it before it
    scans, and `_eval.blocks` bounds the blocks it reaches."""
    need, atoms, depth, masks = measures(f)
    if need > b.max_agents:
        raise BoundsInsufficientForFormula(
            f"formula mentions agent {need} but bounds allow "
            f"{b.max_agents}")
    missing = atoms.difference(b.props)
    if missing:
        raise BoundsInsufficientForFormula(
            f"bounds do not vary atoms {sorted(missing)}")
    if depth >= 2 and not b.vary_all_states:
        raise BoundsInsufficientForFormula(
            "nested modalities need vary_all_states=True: without it the "
            "search only varies outcomes at initial states")
    return need, masks, depth >= 2


def _search(f: Formula, b: Bounds) -> tuple[Verdict, int, int]:
    """Scan the space; also report how many models/states were checked.

    Models with fewer agents than f mentions cannot interpret f and are
    skipped without being counted.
    """
    need, masks, walks = _require_searchable(f, b)
    compiled = compile_formula(f)
    models_checked = states_checked = 0
    for block in blocks(b, need, masks, walks):
        checked, m, state = first_failure(compiled, block)
        models_checked += checked
        states_checked += checked * block.n_states
        if m is None:
            continue
        if satisfies(m, state, f):
            raise RuntimeError(
                "evaluation engines disagree on "
                f"{f!r} at {state!r}; this is a bug")
        return (Counterexample(m, state, None, models_checked),
                models_checked, states_checked)
    return (NoCounterexampleWithinBounds(b, models_checked, states_checked),
            models_checked, states_checked)


@guard_nesting
def find_countermodel(f: Formula, b: Bounds) -> Verdict:
    """First countermodel of f in canonical order, or exhaustion.

    The formula is evaluated at every state of every enumerated model;
    the earliest (model, state) hit wins, which makes verdicts
    reproducible without any isomorphism reasoning.  Counterexamples
    are replayed through the reference semantics before being returned.
    """
    return _search(f, b)[0]


def check_equivalence(f: Formula, g: Formula, b: Bounds) -> Verdict:
    """Search for a model splitting f and g: find_countermodel(f <-> g)."""
    return find_countermodel(Iff(f, g), b)


def minimal_countermodel(f: Formula, b: Bounds) -> Verdict:
    """Search at growing sub-bounds; report the smallest succeeding one.

    Size tuples (states, actions, agents) run in lexicographic order up
    to b's limits.  The returned Counterexample carries the first tuple
    at which the search succeeded.  Tuples with fewer agents than f
    mentions are skipped; a formula that b itself cannot search raises.
    """
    need = _require_searchable(f, b)[0]
    visited = 0
    # Built one at a time: `product` would store each whole range first.
    for size in ((s, a, n) for s in range(1, b.max_states + 1)
                 for a in range(1, b.max_actions_per_agent + 1)
                 for n in range(max(need, 1), b.max_agents + 1)):
        n_states, n_actions, n_agents = size
        verdict = find_countermodel(f, Bounds(
            n_agents, n_states, n_actions, b.props, b.vary_all_states))
        visited += verdict.models_checked
        if isinstance(verdict, Counterexample):
            return replace(verdict, size=size, models_checked=visited)
    return verdict
