"""Satisfaction over coalition models, with strategic witnesses.

The modal clauses quantify over joint actions: E[C] f holds when some
joint action of C guarantees f against every completion by the other
agents, and I[C] f holds when every joint action of C is countered by
some completion, where the counter may depend on C's choice.  One
function, `_witnesses`, implements both from their quantifier
alternation, with a witness per state, so the duality I[C] f <-> !E[C] f
is a checked property rather than a definition baked into the evaluator.

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
    "check_ability", "check_inability", "extension", "extensions",
    "satisfies", "verify_ability_witness", "verify_inability_witness",
]


@dataclass(frozen=True, slots=True)
class AbilityWitness:
    """A joint action of C all of whose completions reach the goal."""

    action: ActionProfile


@dataclass(frozen=True, slots=True)
class InabilityWitness:
    """One countering completion for every joint action of C."""

    counters: dict[ActionProfile, ActionProfile]


def _witnesses(m: CoalitionModel, g: Ability | Inability,
               body: frozenset[str], states: tuple[str, ...]
               ) -> dict[str, AbilityWitness | InabilityWitness]:
    """For g = E[C] b or I[C] b and body, the extension of b: the states
    among `states` at which g holds, each mapped to its witness."""
    own = list(profiles(m, g.coalition))
    rest, drawn = profiles(m, complement(m, g.coalition)), []
    def others():   # the completions, each drawn once, when first needed
        yield from drawn
        for pd in rest:
            drawn.append(pd)
            yield pd
    found: dict[str, AbilityWitness | InabilityWitness] = {}
    for s in states:
        if isinstance(g, Ability):  # some action reaches body against all
            for pc in own:
                if all(apply(m, s, pc, pd) in body for pd in others()):
                    found[s] = AbilityWitness(pc)
                    break
            continue
        counters: dict[ActionProfile, ActionProfile] = {}
        for pc in own:  # every action has a completion that leaves body
            counter = next(
                (pd for pd in others() if apply(m, s, pc, pd) not in body),
                None)
            if counter is None:
                break
            counters[pc] = counter
        else:
            found[s] = InabilityWitness(counters)
    return found


@guard_nesting
def extensions(m: CoalitionModel, formulas: list[Formula]
               ) -> list[frozenset[str]]:
    """The set of states of m at which each of formulas holds, in order.

    One memo, for this call only, evaluates each distinct subformula once
    (each node stores its hash, so a lookup is O(1)).  An AST too deep
    for the stack raises ClicError (`guard_nesting`).
    """
    all_states = frozenset(m.states)
    memo: dict[Formula, frozenset[str]] = {}

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
        elif isinstance(g, (Ability, Inability)):
            result = frozenset(_witnesses(m, g, ext(g.body), m.states))
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = result
        return result

    found = [ext(f) for f in formulas]
    del ext     # it refers to itself: free the memo now, not at a collection
    return found


def extension(m: CoalitionModel, f: Formula) -> frozenset[str]:
    """The set of states of m at which f holds."""
    return extensions(m, [f])[0]


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
    w = _witnesses(m, Ability(c, goal), extension(m, goal), (state,))
    return state in w, w.get(state)


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
    w = _witnesses(m, Inability(c, goal), extension(m, goal), (state,))
    return state in w, w.get(state)


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
