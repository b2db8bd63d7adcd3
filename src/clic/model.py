"""Finite one-step coalition game models and their textual format.

A model has agents 1..n, a non-empty set of states, a non-empty action
set per agent, a total outcome function from (state, complete action
profile) to a state, a valuation for atomic propositions, and a
designated initial state.

The file format is line oriented; `#` starts a comment and tokens are
whitespace separated:

    agents <n>
    state <id>                         one per line, order is canonical
    init <state-id>
    actions <agent-index> <action-id>+
    prop <name> <state-id>*            omitted states are false
    outcome <state-id> <act_1> ... <act_n> -> <state-id>
    default <state-id> -> <state-id>

An explicit `outcome` line beats the state's `default`; the file is
rejected unless every (state, profile) pair ends up with an outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterator, Mapping

from .errors import (
    BoundsTooSmall, CoalitionOutOfRange, MissingActions, MissingInit,
    ModelFormatError, PartialOutcome, UnknownAction, UnknownAgent,
    UnknownState,
)
from .formula import MAX_AGENT, Coalition, agent_index

__all__ = [
    "ActionProfile", "Bounds", "CoalitionModel",
    "complement", "enumerate_models", "parse_model", "print_model",
    "profiles",
]

# Most outcomes a model file may define, states times complete action
# profiles: `parse_model` expands every one, so the count is checked first.
MAX_OUTCOMES = 65_536


@dataclass(frozen=True, slots=True)
class ActionProfile:
    """A joint action: one chosen action per member of the coalition."""

    coalition: Coalition
    choices: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        choices = tuple(sorted(self.choices))
        object.__setattr__(self, "choices", choices)
        if tuple(a for a, _ in choices) != self.coalition.members:
            raise ValueError(
                f"choices {choices} do not cover coalition {self.coalition}")

    def __str__(self) -> str:
        if not self.choices:
            return "(empty)"
        return " ".join(f"{a}:{act}" for a, act in self.choices)


@dataclass(frozen=True, slots=True)
class Bounds:
    """Search-space limits for model enumeration."""

    max_agents: int
    max_states: int
    max_actions_per_agent: int
    props: tuple[str, ...] = ()
    vary_all_states: bool = False

    def __post_init__(self) -> None:
        if min(self.max_agents, self.max_states,
               self.max_actions_per_agent) < 1:
            raise BoundsTooSmall("all bounds must be >= 1")
        object.__setattr__(self, "props", tuple(sorted(set(self.props))))


@dataclass(frozen=True)
class CoalitionModel:
    """Immutable one-step game arena plus valuation and initial state.

    `actions[i]` is the action tuple of agent i+1.  `outcome` maps
    (state, complete profile in agent order) to the successor state and
    is total.  Instances built by `parse_model` or `enumerate_models`
    are validated; code constructing models directly must keep the
    invariants itself.
    """

    n_agents: int
    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    outcome: Mapping[tuple[str, tuple[str, ...]], str]
    valuation: Mapping[str, frozenset[str]]
    initial: str


def complement(m: CoalitionModel, c: Coalition) -> Coalition:
    """The rest of the agent set, relative to m's agents."""
    if c.max_agent() > m.n_agents:
        raise CoalitionOutOfRange(
            f"coalition {c} exceeds the {m.n_agents}-agent set")
    members = set(c.members)
    return Coalition(tuple(a for a in range(1, m.n_agents + 1)
                           if a not in members))


def profiles(m: CoalitionModel, c: Coalition) -> Iterator[ActionProfile]:
    """All joint actions of c, lexicographic with agent order major.

    For the empty coalition the stream holds exactly the empty profile.
    """
    if c.max_agent() > m.n_agents:
        raise CoalitionOutOfRange(
            f"coalition {c} exceeds the {m.n_agents}-agent set")
    pools = [m.actions[a - 1] for a in c.members]
    for combo in product(*pools):
        yield ActionProfile(c, tuple(zip(c.members, combo)))


# ---------------------------------------------------------------------------
# File format

def parse_model(text: str) -> CoalitionModel:
    """Parse and fully validate a model file."""
    text = text.removeprefix("\ufeff")
    # Records by directive, each list in line order.
    records: dict[str, list[tuple[int, list[str]]]] = {
        kind: [] for kind in ("agents", "state", "init", "actions", "prop",
                              "outcome", "default")}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] not in records:
            raise ModelFormatError(f"unknown directive {tokens[0]!r}", lineno)
        records[tokens[0]].append((lineno, tokens))

    def only(kind: str) -> tuple[int, list[str]] | None:
        found = records[kind]
        if len(found) > 1:
            raise ModelFormatError(f"duplicate {kind!r} line", found[1][0])
        return found[0] if found else None

    agents_rec = only("agents")
    if agents_rec is None:
        raise ModelFormatError("missing 'agents' line")
    lineno, tokens = agents_rec
    n = agent_index(tokens[1]) if len(tokens) == 2 else None
    if n is None or n < 1:
        raise ModelFormatError("malformed 'agents' line", lineno)
    if n > MAX_AGENT:
        raise ModelFormatError(f"more than {MAX_AGENT} agents", lineno)

    states: list[str] = []
    for lineno, tokens in records["state"]:
        if len(tokens) != 2:
            raise ModelFormatError("malformed 'state' line", lineno)
        if tokens[1] in states:
            raise ModelFormatError(f"state {tokens[1]!r} declared twice",
                                   lineno)
        states.append(tokens[1])
    if not states:
        raise ModelFormatError("no states declared")
    state_set = set(states)

    def check_state(name: str, lineno: int) -> str:
        if name not in state_set:
            raise UnknownState(f"state {name!r} not declared", lineno)
        return name

    init_rec = only("init")
    if init_rec is None:
        raise MissingInit("missing 'init' line")
    lineno, tokens = init_rec
    if len(tokens) != 2:
        raise ModelFormatError("malformed 'init' line", lineno)
    initial = check_state(tokens[1], lineno)

    actions: dict[int, tuple[str, ...]] = {}
    for lineno, tokens in records["actions"]:
        agent = agent_index(tokens[1]) if len(tokens) >= 3 else None
        if agent is None:
            raise ModelFormatError("malformed 'actions' line", lineno)
        if agent > MAX_AGENT:
            raise UnknownAgent(f"agent indices are at most {MAX_AGENT}",
                               lineno)
        if not 1 <= agent <= n:
            raise UnknownAgent(f"agent {agent} outside 1..{n}", lineno)
        if agent in actions:
            raise ModelFormatError(f"actions for agent {agent} declared twice",
                                   lineno)
        acts = tokens[2:]
        if len(set(acts)) != len(acts):
            raise ModelFormatError(f"duplicate action for agent {agent}",
                                   lineno)
        actions[agent] = tuple(acts)
    for agent in range(1, n + 1):
        if agent not in actions:
            raise MissingActions(agent)
    action_tuples = tuple(actions[a] for a in range(1, n + 1))
    if len(states) * prod(map(len, action_tuples)) > MAX_OUTCOMES:
        raise ModelFormatError(f"more than {MAX_OUTCOMES} outcomes (states "
                               "times complete action profiles)")

    valuation: dict[str, frozenset[str]] = {}
    for lineno, tokens in records["prop"]:
        if len(tokens) < 2:
            raise ModelFormatError("malformed 'prop' line", lineno)
        name = tokens[1]
        if name in valuation:
            raise ModelFormatError(f"prop {name!r} declared twice", lineno)
        valuation[name] = frozenset(check_state(s, lineno)
                                    for s in tokens[2:])

    explicit: dict[tuple[str, tuple[str, ...]], str] = {}
    for lineno, tokens in records["outcome"]:
        if len(tokens) != n + 4 or tokens[n + 2] != "->":
            raise ModelFormatError("malformed 'outcome' line", lineno)
        src = check_state(tokens[1], lineno)
        profile = tuple(tokens[2:n + 2])
        for i, act in enumerate(profile):
            if act not in action_tuples[i]:
                raise UnknownAction(
                    f"action {act!r} not declared for agent {i + 1}", lineno)
        if (src, profile) in explicit:
            raise ModelFormatError(
                f"outcome for {src!r} under ({', '.join(profile)}) "
                "declared twice", lineno)
        explicit[(src, profile)] = check_state(tokens[n + 3], lineno)

    defaults: dict[str, str] = {}
    for lineno, tokens in records["default"]:
        if len(tokens) != 4 or tokens[2] != "->":
            raise ModelFormatError("malformed 'default' line", lineno)
        src = check_state(tokens[1], lineno)
        if src in defaults:
            raise ModelFormatError(f"default for {src!r} declared twice",
                                   lineno)
        defaults[src] = check_state(tokens[3], lineno)

    outcome: dict[tuple[str, tuple[str, ...]], str] = {}
    full = list(product(*action_tuples))
    for s in states:
        fallback = defaults.get(s)
        for profile in full:
            target = explicit.get((s, profile), fallback)
            if target is None:
                raise PartialOutcome(s, profile)
            outcome[(s, profile)] = target

    return CoalitionModel(n, tuple(states), action_tuples, outcome,
                          valuation, initial)


def print_model(m: CoalitionModel) -> str:
    """Emit the file format with every outcome explicit."""
    lines = [f"agents {m.n_agents}"]
    lines.extend(f"state {s}" for s in m.states)
    lines.append(f"init {m.initial}")
    lines.extend(f"actions {i} " + " ".join(acts)
                 for i, acts in enumerate(m.actions, start=1))
    for name in sorted(m.valuation):
        members = [s for s in m.states if s in m.valuation[name]]
        lines.append(" ".join(["prop", name] + members))
    for s in m.states:
        for profile in product(*m.actions):
            target = m.outcome[(s, profile)]
            lines.append(f"outcome {s} " + " ".join(profile) + f" -> {target}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Enumeration

def size_blocks(b: Bounds, min_agents: int = 1
                ) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(agents, states, action count per agent) in enumeration order,
    from min_agents agents on."""
    for n in range(max(min_agents, 1), b.max_agents + 1):
        for n_states in range(1, b.max_states + 1):
            for sizes in _action_counts(n, b.max_actions_per_agent):
                yield n, n_states, sizes


def _action_counts(n: int, top: int) -> Iterator[tuple[int, ...]]:
    """Every n-tuple over 1..top in lexicographic order, counted like an
    odometer: `product` would first build 1..top, however large."""
    sizes = [1] * n
    while True:
        yield tuple(sizes)
        i = n - 1
        while i >= 0 and sizes[i] == top:
            sizes[i] = 1
            i -= 1
        if i < 0:
            return
        sizes[i] += 1


def _layout(n_states: int, sizes: tuple[int, ...]):
    """States, actions, state sets by bitmask and complete profiles of
    one size block."""
    states = tuple(f"s{k}" for k in range(1, n_states + 1))
    actions = tuple(tuple(f"a{j}" for j in range(1, m + 1)) for m in sizes)
    subsets = [frozenset(s for i, s in enumerate(states) if mask >> i & 1)
               for mask in range(1 << n_states)]
    return states, actions, subsets, list(product(*actions))


def enumerate_models(b: Bounds) -> Iterator[CoalitionModel]:
    """All models within the bounds, canonically named and ordered.

    States are s1, s2, ... and agent i's actions are a1, a2, ...; the
    initial state is the first.  Sizes run from 1 up to each bound, per
    agent for action counts.  For each size the stream varies every
    valuation of `props` (first prop changing slowest), then every
    outcome assignment.  With vary_all_states=False only outcomes at
    the initial state vary and every other state maps to itself under
    all profiles, which is enough for formulas of modal depth <= 1:
    their evaluation at the initial state never reads other outcomes.
    """
    for n, n_states, sizes in size_blocks(b):
        states, actions, subsets, full = _layout(n_states, sizes)
        varied = n_states if b.vary_all_states else 1
        slots = [(s, prof) for s in states[:varied] for prof in full]
        fixed = {(s, prof): s for s in states[varied:] for prof in full}
        for chosen in product(*([subsets] * len(b.props))):
            valuation = dict(zip(b.props, chosen))
            for targets in product(states, repeat=len(slots)):
                outcome = dict(fixed)
                outcome.update(zip(slots, targets))
                yield CoalitionModel(n, states, actions, outcome,
                                     valuation, states[0])
