"""Satisfaction over coalition models, with strategic witnesses.

The modal clauses quantify over joint actions: E[C] f holds when some
joint action of C guarantees f against every completion by the other
agents, and I[C] f holds when every joint action of C is countered by
some completion, where the counter may depend on C's choice.  Both
clauses are implemented directly from their quantifier alternation, so
the duality I[C] f <-> !E[C] f is a checked property rather than a
definition baked into the evaluator.

Atoms missing from a model's valuation are false at every state, which
lets one formula run over many models without renaming.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownState
from .formula import (
    Ability, And, Atom, Bot, Coalition, Formula, Iff, Implies, Inability,
    Not, Or, Top, guard_nesting,
)
from .model import ActionProfile, CoalitionModel, apply, complement, profiles

__all__ = [
    "AbilityWitness", "InabilityWitness",
    "check_ability", "check_inability", "extension", "satisfies",
    "verify_ability_witness", "verify_inability_witness",
]


@dataclass(frozen=True, slots=True)
class AbilityWitness:
    """A joint action of C all of whose completions reach the goal."""

    action: ActionProfile


@dataclass(frozen=True, slots=True)
class InabilityWitness:
    """One countering completion for every joint action of C."""

    counters: dict[ActionProfile, ActionProfile]


@guard_nesting
def extension(m: CoalitionModel, f: Formula,
              memo: dict[Formula, frozenset[str]] | None = None
              ) -> frozenset[str]:
    """The set of states of m at which f holds.

    Subformula extensions are memoized so nested modalities evaluate
    each distinct subformula once.  Callers evaluating many formulas
    against the same model may pass a shared `memo` dict to keep those
    results across calls; a memo must never be reused for a different
    model.  An AST too deep for the stack raises ClicError (`guard_nesting`).
    """
    all_states = frozenset(m.states)
    if memo is None:
        memo = {}

    def ext(g: Formula) -> frozenset[str]:
        got = memo.get(g)
        if got is not None:
            return got
        if isinstance(g, Atom):
            result = frozenset(m.valuation.get(g.name, ()))
        elif isinstance(g, Top):
            result = all_states
        elif isinstance(g, Bot):
            result = frozenset()
        elif isinstance(g, Not):
            result = all_states - ext(g.body)
        elif isinstance(g, And):
            result = ext(g.left) & ext(g.right)
        elif isinstance(g, Or):
            result = ext(g.left) | ext(g.right)
        elif isinstance(g, Implies):
            result = (all_states - ext(g.left)) | ext(g.right)
        elif isinstance(g, Iff):
            left, right = ext(g.left), ext(g.right)
            result = all_states - (left ^ right)
        elif isinstance(g, Ability):
            body = ext(g.body)
            own = list(profiles(m, g.coalition))
            others = list(profiles(m, complement(m, g.coalition)))
            result = frozenset(
                s for s in m.states
                if any(all(apply(m, s, pc, pd) in body for pd in others)
                       for pc in own))
        elif isinstance(g, Inability):
            body = ext(g.body)
            own = list(profiles(m, g.coalition))
            others = list(profiles(m, complement(m, g.coalition)))
            result = frozenset(
                s for s in m.states
                if all(any(apply(m, s, pc, pd) not in body for pd in others)
                       for pc in own))
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = result
        return result

    return ext(f)


def satisfies(m: CoalitionModel, state: str, f: Formula) -> bool:
    """Whether f holds at the given state of m."""
    if state not in m.states:
        raise UnknownState(f"state {state!r} not declared")
    return state in extension(m, f)


def check_ability(m: CoalitionModel, state: str, c: Coalition,
                  goal: Formula) -> tuple[bool, AbilityWitness | None]:
    """Decide E[c] goal at state; on success return the first witness.

    The witness is the lexicographically first joint action of c (in
    `profiles` order) that secures the goal against every completion.
    """
    if state not in m.states:
        raise UnknownState(f"state {state!r} not declared")
    body = extension(m, goal)
    others = list(profiles(m, complement(m, c)))
    for pc in profiles(m, c):
        if all(apply(m, state, pc, pd) in body for pd in others):
            return True, AbilityWitness(pc)
    return False, None


def check_inability(m: CoalitionModel, state: str, c: Coalition,
                    goal: Formula) -> tuple[bool, InabilityWitness | None]:
    """Decide I[c] goal at state; on success return countering moves.

    The witness maps every joint action of c to the lexicographically
    first completion whose outcome falsifies the goal.  The counter may
    differ from action to action; that dependence is the whole content
    of the operator.
    """
    if state not in m.states:
        raise UnknownState(f"state {state!r} not declared")
    body = extension(m, goal)
    others = list(profiles(m, complement(m, c)))
    counters: dict[ActionProfile, ActionProfile] = {}
    for pc in profiles(m, c):
        counter = next(
            (pd for pd in others if apply(m, state, pc, pd) not in body),
            None)
        if counter is None:
            return False, None
        counters[pc] = counter
    return True, InabilityWitness(counters)


def verify_ability_witness(m: CoalitionModel, state: str, c: Coalition,
                           goal: Formula, w: AbilityWitness) -> bool:
    """Replay an ability witness against every completion."""
    if w.action.coalition != c:
        return False
    body = extension(m, goal)
    return all(apply(m, state, w.action, pd) in body
               for pd in profiles(m, complement(m, c)))


def verify_inability_witness(m: CoalitionModel, state: str, c: Coalition,
                             goal: Formula, w: InabilityWitness) -> bool:
    """Replay an inability witness: full domain, every counter works."""
    if set(w.counters) != set(profiles(m, c)):
        return False
    body = extension(m, goal)
    comp = complement(m, c)
    return all(pd.coalition == comp
               and apply(m, state, pc, pd) not in body
               for pc, pd in w.counters.items())
