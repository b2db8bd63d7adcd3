"""Satisfaction over coalition models, with strategic witnesses.

The modal clauses quantify over joint actions: E[C] f holds when some
joint action of C guarantees f against every completion by the other
agents, and I[C] f holds when every joint action of C is countered by
some completion, where the counter may depend on C's choice.  One
function, `_witnesses`, implements both from their quantifier
alternation, with a witness per state, so the duality I[C] f <-> !E[C] f
is a checked property rather than a definition baked into the evaluator.
Within one call, each coalition's joint actions are drawn once, and
every modal node over that coalition shares them (`_Game`).

Atoms missing from a model's valuation are false at every state, which
lets one formula run over many models without renaming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import UnknownState
from .formula import (
    Ability, And, Atom, Bot, Coalition, Formula, Iff, Implies, Inability,
    Not, Or, Top, guard_nesting,
)
from .model import ActionProfile, CoalitionModel, complement, profiles

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


class _Game:
    """Coalition c's side of m's one-step game, for one reference call:
    c's own joint actions, and the completions by the other agents, each
    drawn once, when a clause first needs it.  Every modal node over c
    shares them.  The game drew both profiles of each pair itself, so it
    keeps their complete action tuple, and an outcome is a plain lookup
    in `m.outcome`, with no re-validation."""

    def __init__(self, m: CoalitionModel, c: Coalition) -> None:
        self.outcome = m.outcome
        self.own = list(profiles(m, c))
        self._rest = profiles(m, complement(m, c))
        self._drawn: list[ActionProfile] = []
        self._full: list[list[tuple[str, ...]]] = [[] for _ in self.own]

    def replies(self, i: int) -> Iterator[tuple[ActionProfile,
                                                tuple[str, ...]]]:
        """Each completion of own[i] in order, with the complete action
        tuple of the two.  A reader keeps its own index into the drawn
        completions, so readers that interleave each see every one."""
        drawn, full, j = self._drawn, self._full[i], 0
        while True:
            if j == len(full):
                if j == len(drawn):
                    pd = next(self._rest, None)
                    if pd is None:
                        return
                    drawn.append(pd)
                full.append(tuple(act for _, act in sorted(
                    self.own[i].choices + drawn[j].choices)))
            yield drawn[j], full[j]
            j += 1


def _witnesses(game: _Game, kind: type, body: frozenset[str],
               states: tuple[str, ...]
               ) -> dict[str, AbilityWitness | InabilityWitness]:
    """For g = E[C] b or I[C] b, of type `kind`, C's game and the
    extension of b: the states among `states` at which g holds, each
    mapped to its witness."""
    outcome = game.outcome
    found: dict[str, AbilityWitness | InabilityWitness] = {}
    for s in states:
        if kind is Ability:  # some action reaches body against all
            for i, pc in enumerate(game.own):
                if all(outcome[s, full] in body
                       for _, full in game.replies(i)):
                    found[s] = AbilityWitness(pc)
                    break
            continue
        counters: dict[ActionProfile, ActionProfile] = {}
        # every action has a completion that leaves body
        for i, pc in enumerate(game.own):
            counter = next((pd for pd, full in game.replies(i)
                            if outcome[s, full] not in body), None)
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
    (each node stores its hash, so a lookup is O(1)), and each
    coalition's joint actions are drawn once, in one `_Game` that every
    modal node over it shares.  An AST too deep for the stack raises
    ClicError (`guard_nesting`).
    """
    all_states = frozenset(m.states)
    memo: dict[Formula, frozenset[str]] = {}
    games: dict[int, _Game] = {}

    def ext(g: Formula) -> frozenset[str]:
        got = memo.get(g)
        if got is not None:
            return got
        kind = type(g)
        if kind is Atom:
            result = frozenset(m.valuation.get(g.name, ()))
        elif kind is Top:
            result = all_states
        elif kind is Bot:
            result = frozenset()
        elif kind is Not:
            result = all_states - ext(g.body)
        elif kind is And:
            result = ext(g.left) & ext(g.right)
        elif kind is Or:
            result = ext(g.left) | ext(g.right)
        elif kind is Implies:
            result = (all_states - ext(g.left)) | ext(g.right)
        elif kind is Iff:
            left, right = ext(g.left), ext(g.right)
            result = all_states - (left ^ right)
        elif kind is Ability or kind is Inability:
            body, c = ext(g.body), g.coalition
            game = games.get(c.mask)
            if game is None:
                game = games[c.mask] = _Game(m, c)
            result = frozenset(_witnesses(game, kind, body, m.states))
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


def _require_state(m: CoalitionModel, state: str) -> None:
    if state not in m.states:
        raise UnknownState(f"state {state!r} not declared")


def satisfies(m: CoalitionModel, state: str, f: Formula) -> bool:
    """Whether f holds at the given state of m."""
    _require_state(m, state)
    return state in extension(m, f)


def check_ability(m: CoalitionModel, state: str, c: Coalition,
                  goal: Formula) -> tuple[bool, AbilityWitness | None]:
    """Decide E[c] goal at state; on success return the first witness.

    The witness is the lexicographically first joint action of c (in
    `profiles` order) that secures the goal against every completion.
    """
    _require_state(m, state)
    body = extension(m, goal)
    w = _witnesses(_Game(m, c), Ability, body, (state,))
    return state in w, w.get(state)


def check_inability(m: CoalitionModel, state: str, c: Coalition,
                    goal: Formula) -> tuple[bool, InabilityWitness | None]:
    """Decide I[c] goal at state; on success return countering moves.

    The witness maps every joint action of c to the lexicographically
    first completion whose outcome falsifies the goal.  The counter may
    differ from action to action; that dependence is the whole content
    of the operator.
    """
    _require_state(m, state)
    body = extension(m, goal)
    w = _witnesses(_Game(m, c), Inability, body, (state,))
    return state in w, w.get(state)


def verify_ability_witness(m: CoalitionModel, state: str, c: Coalition,
                           goal: Formula, w: AbilityWitness) -> bool:
    """Replay an ability witness against every completion.  A witness
    that is not a joint action of c, declared in m, does not hold."""
    _require_state(m, state)
    game = _Game(m, c)
    if w.action not in game.own:
        return False
    body = extension(m, goal)
    return all(game.outcome[state, full] in body
               for _, full in game.replies(game.own.index(w.action)))


def verify_inability_witness(m: CoalitionModel, state: str, c: Coalition,
                             goal: Formula, w: InabilityWitness) -> bool:
    """Replay an inability witness: full domain, every counter works.  A
    counter that is not a completion, declared in m, does not work."""
    _require_state(m, state)
    game = _Game(m, c)
    if set(w.counters) != set(game.own):
        return False
    body = extension(m, goal)

    def works(i: int, counter: ActionProfile) -> bool:
        full = next((full for pd, full in game.replies(i) if pd == counter),
                    None)
        return full is not None and game.outcome[state, full] not in body
    return all(works(i, w.counters[pc]) for i, pc in enumerate(game.own))
