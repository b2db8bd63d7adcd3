"""Satisfaction, extensions, and strategic witnesses."""

from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from clic import (
    Ability, AbilityWitness, ActionProfile, Atom, Bounds, Coalition,
    CoalitionOutOfRange, Inability, InabilityWitness, Not, UnknownState,
    check_ability, check_inability, complement,
    enumerate_formulas, enumerate_models, extension, extensions,
    fixture_model, parse_formula, parse_model, satisfies,
    verify_ability_witness, verify_inability_witness,
)
from clic import semantics
from clic.formula import walk

M1 = parse_model("""\
agents 2
state s
state t
state u
init s
actions 1 a b
actions 2 a b
prop p t
outcome s a a -> t
default s -> u
default t -> t
default u -> u
""")

# Both agents pick heads or tails; matching lands in the p-state.
PENNIES = parse_model("""\
agents 2
state s
state t
state u
init s
actions 1 H T
actions 2 H T
prop p t
outcome s H H -> t
outcome s T T -> t
outcome s H T -> u
outcome s T H -> u
default t -> t
default u -> u
""")

EMPTY = Coalition.from_bitmask(0)
C1 = Coalition((1,))
C2 = Coalition((2,))
BOTH = Coalition((1, 2))


def sat(m, state, text):
    return satisfies(m, state, parse_formula(text))


def test_boolean_clauses():
    assert sat(M1, "t", "p")
    assert not sat(M1, "s", "p")
    assert sat(M1, "s", "true")
    assert not sat(M1, "s", "false")
    assert sat(M1, "s", "!p")
    assert sat(M1, "t", "p & !false")
    assert sat(M1, "s", "p | !p")
    assert sat(M1, "s", "p -> false")
    assert sat(M1, "t", "p <-> true")


def test_joint_action_secures_goal_only_together():
    assert sat(M1, "s", "E[1,2] p")
    assert sat(M1, "s", "I[1] p")
    assert sat(M1, "s", "I[2] p")
    assert not sat(M1, "s", "I[1,2] p")
    assert not sat(M1, "s", "E[1] p")


def test_empty_coalition_can_ensure_truth():
    for m in (M1, PENNIES):
        for s in m.states:
            assert satisfies(m, s, parse_formula("E[] true"))


def test_pennies_neither_side_controls_the_match():
    assert sat(PENNIES, "s", "I[1] p")
    assert not sat(PENNIES, "s", "E[2] !p")
    assert sat(PENNIES, "s", "I[1] p & I[1] !p")
    assert sat(PENNIES, "s", "E[1,2] p")


def test_missing_atom_is_false_everywhere():
    assert not sat(M1, "s", "zeta")
    assert sat(M1, "s", "!zeta")
    assert sat(M1, "s", "E[1,2] !zeta")


def test_nested_modalities():
    # At every state the grand coalition can reach t or u only from s,
    # so E[1,2] p is settled per state and I[1] can quantify over it.
    assert sat(M1, "s", "E[1,2] E[1,2] p")
    assert sat(M1, "u", "I[1,2] p")
    assert sat(M1, "s", "E[1,2] I[1] true") is False


def test_extension_examples():
    assert extension(M1, parse_formula("p")) == {"t"}
    assert extension(M1, parse_formula("true")) == {"s", "t", "u"}
    assert extension(M1, parse_formula("E[1,2] p")) == {"s", "t"}
    assert extension(M1, parse_formula("I[1] p")) == {"s", "u"}


@pytest.mark.parametrize("name", sorted(
    path.name.removesuffix(".clm")
    for path in resources.files("clic").joinpath("fixtures").iterdir()))
def test_extensions_agree_with_extension_one_by_one(name):
    """One call for many formulas answers each as a call of its own."""
    m = fixture_model(name)
    fs = list(enumerate_formulas(("p", "q"), m.n_agents, 1))
    assert extensions(m, fs) == [extension(m, f) for f in fs]


def test_extensions_decide_each_modal_question_once(monkeypatch):
    """A modal node is decided once per (kind, coalition, body extension),
    whichever node objects pose it: formulas that share subterm objects
    decide fewer questions than they have modal nodes, and an equal but
    distinct copy decides none again, to the same set."""
    from test_formula import rebuild

    decided = []
    real = semantics._witnesses

    def spy(game, kind, body, states):
        decided.append(kind)
        return real(game, kind, body, states)

    fs = list(enumerate_formulas(("p",), 2, 2))
    modal = [g for f in fs for g, _ in walk(f)
             if type(g) in (Ability, Inability)]
    questions = {(type(g), g.coalition, extension(M1, g.body))
                 for g in modal}
    monkeypatch.setattr(semantics, "_witnesses", spy)
    got = extensions(M1, fs)
    assert len(decided) == len(questions) < len({id(g) for g in modal})
    decided.clear()
    # The copies share no node with fs, and pose no new question.
    assert extensions(M1, fs + [rebuild(f) for f in fs]) == got + got
    assert len(decided) == len(questions)


def test_extensions_key_nodes_by_identity(monkeypatch):
    """The memo never hashes a formula: its lookups hash node ids."""
    fs = list(enumerate_formulas(("p",), 2, 2))
    hashed = []
    for kind in {type(g) for f in fs for g, _ in walk(f)}:
        monkeypatch.setattr(kind, "__hash__",
                            lambda g: hashed.append(g) or id(g))
    assert extensions(M1, fs) == [extension(M1, f) for f in fs]
    assert hashed == []


def test_extensions_of_a_generator_of_fresh_formulas():
    """Nodes of formulas a generator has moved past stay pinned for the
    call: a later formula's nodes cannot reuse their ids in the memo."""
    texts = [t for _ in range(20) for t in (
        "p & E[1] q", "!(p | q)", "I[2] (p -> q)", "p <-> E[1,2] !q",
        "E[] (q & !p)", "I[1] p | I[2] !q")]
    fs = [parse_formula(t) for t in texts]
    want = [extension(M1, f) for f in fs]
    assert extensions(M1, (parse_formula(t) for t in texts)) == want


def test_state_and_coalition_validation():
    with pytest.raises(UnknownState):
        satisfies(M1, "nope", parse_formula("p"))
    with pytest.raises(CoalitionOutOfRange):
        satisfies(M1, "s", parse_formula("E[3] p"))
    with pytest.raises(CoalitionOutOfRange):
        check_ability(M1, "s", Coalition((3,)), parse_formula("p"))


# ---------------------------------------------------------------------------
# Witnesses

def test_ability_witness_is_lexicographically_first():
    ok, w = check_ability(M1, "s", BOTH, parse_formula("p"))
    assert ok and str(w.action) == "1:a 2:a"
    ok, w = check_ability(M1, "s", C1, parse_formula("p"))
    assert not ok and w is None
    ok, w = check_ability(M1, "s", EMPTY, parse_formula("true"))
    assert ok and str(w.action) == "(empty)"
    # At t every profile stays in t, so the first profile wins.
    ok, w = check_ability(M1, "t", BOTH, parse_formula("p"))
    assert ok and str(w.action) == "1:a 2:a"


def test_inability_witness_counters_each_choice():
    ok, w = check_inability(M1, "s", C1, parse_formula("p"))
    assert ok
    got = {str(pc): str(pd) for pc, pd in w.counters.items()}
    assert got == {"1:a": "2:b", "1:b": "2:a"}
    ok, w = check_inability(M1, "s", BOTH, parse_formula("p"))
    assert not ok and w is None


def test_inability_witness_for_contradiction_takes_first_counter():
    for c in (EMPTY, C1, BOTH):
        ok, w = check_inability(M1, "s", c, parse_formula("false"))
        assert ok
        first = "1:a 2:a" if c is EMPTY else ("2:a" if c is C1 else "(empty)")
        assert all(str(pd) == first for pd in w.counters.values())


def test_completions_are_drawn_as_the_clauses_need_them(monkeypatch):
    """One state, 16 agents of two actions each, p false: agent 1 has
    32,768 completions per action, and the first one counters either
    action, so I[1] p and E[1] p draw it alone, once for both actions.
    One `extensions` call draws each coalition's profiles once for all
    its modal nodes, and I[1] !p draws every completion."""
    m = parse_model("\n".join(
        ["agents 16", "state s", "init s",
         *(f"actions {i} a b" for i in range(1, 17)), "default s -> s"]))
    c, p = Coalition((1,)), Atom("p")
    first = next(semantics.profiles(m, complement(m, c)))
    drawn, profiles = Counter(), semantics.profiles

    def counted(m, c):
        for profile in profiles(m, c):
            drawn[c] += 1
            yield profile
    monkeypatch.setattr(semantics, "profiles", counted)
    holds, witness = check_inability(m, "s", c, p)
    assert holds and list(witness.counters.values()) == [first, first]
    assert check_ability(m, "s", c, p) == (False, None)
    assert drawn == {c: 4, complement(m, c): 2}
    drawn.clear()
    got = extensions(m, [Inability(c, p), Ability(c, p), Inability(c, Not(p))])
    assert got == [frozenset({"s"}), frozenset(), frozenset()]
    assert drawn == {c: 2, complement(m, c): 2 ** 15}


def test_interleaved_readers_each_see_every_completion():
    """Two live readers of one game's completions, advanced in turn: the
    second draws a completion while the first is suspended, and the first
    still reads it next."""
    game = semantics._Game(M1, C1)
    a, b = game.replies(0), game.replies(1)
    got = [next(a), next(b), next(b), next(a)]
    assert [(str(pd), full) for pd, full in got] == [
        ("2:a", ("a", "a")), ("2:a", ("b", "a")),
        ("2:b", ("b", "b")), ("2:b", ("a", "b"))]
    assert next(a, None) is None and next(b, None) is None


def test_pennies_counter_depends_on_the_chosen_action():
    ok, w = check_inability(PENNIES, "s", C1, parse_formula("p"))
    assert ok
    got = {str(pc): str(pd) for pc, pd in w.counters.items()}
    assert got == {"1:H": "2:T", "1:T": "2:H"}


def test_witness_replay_helpers():
    f = parse_formula("p")
    ok, w = check_ability(M1, "s", BOTH, f)
    assert verify_ability_witness(M1, "s", BOTH, f, w)
    assert not verify_ability_witness(M1, "s", C1, f, w)
    ok, w = check_inability(M1, "s", C1, f)
    assert verify_inability_witness(M1, "s", C1, f, w)
    assert not verify_inability_witness(M1, "s", BOTH, f, w)


def test_replay_of_an_undeclared_action_is_false():
    """A witness or counter naming an action m does not declare fails to
    replay, as one over the wrong coalition does; an undeclared state is
    an error, as in `check_ability`."""
    f = parse_formula("p")
    bad = AbilityWitness(ActionProfile(C1, ((1, "zz"),)))
    assert not verify_ability_witness(M1, "s", C1, f, bad)
    ok, w = check_inability(M1, "s", C1, f)
    assert ok and verify_inability_witness(M1, "s", C1, f, w)
    zz = ActionProfile(C2, ((2, "zz"),))
    for pc in w.counters:
        counters = {**w.counters, pc: zz}
        assert not verify_inability_witness(M1, "s", C1, f,
                                            InabilityWitness(counters))
    with pytest.raises(UnknownState):
        verify_ability_witness(M1, "nope", C1, f, bad)
    with pytest.raises(UnknownState):
        verify_inability_witness(M1, "nope", C1, f, w)


# ---------------------------------------------------------------------------
# Properties over enumerated models

GOALS = [parse_formula(t) for t in ["p", "!p", "true", "false", "p | !p"]]
SMALL = list(enumerate_models(Bounds(1, 2, 2, ("p",), True)))
TWO_AGENT = [m for m in enumerate_models(Bounds(2, 2, 2, ("p",), True))
             if m.n_agents == 2]


def coalitions_of(m):
    return [Coalition.from_bitmask(mask)
            for mask in range(1 << m.n_agents)]


def test_duality_exhaustive_on_single_agent_models():
    for m in SMALL:
        for c in coalitions_of(m):
            for goal in GOALS:
                e, i = Ability(c, goal), Inability(c, goal)
                for s in m.states:
                    assert satisfies(m, s, i) == (not satisfies(m, s, e))
                    # The checkers agree with the clauses at every state,
                    # and each witness they return replays.
                    ok, w = check_ability(m, s, c, goal)
                    assert ok == satisfies(m, s, e)
                    assert not ok or verify_ability_witness(m, s, c, goal, w)
                    ok, w = check_inability(m, s, c, goal)
                    assert ok == satisfies(m, s, i)
                    assert not ok or verify_inability_witness(m, s, c, goal,
                                                              w)


@given(st.sampled_from(TWO_AGENT), st.sampled_from(GOALS),
       st.integers(0, 3))
def test_duality_sampled_on_two_agent_models(m, goal, cmask):
    c = Coalition.from_bitmask(cmask)
    e, i = Ability(c, goal), Inability(c, goal)
    for s in m.states:
        assert satisfies(m, s, i) == (not satisfies(m, s, e))


@given(st.sampled_from(TWO_AGENT), st.sampled_from(GOALS))
def test_ability_is_monotone_in_the_coalition(m, goal):
    cs = coalitions_of(m)
    for c in cs:
        for d in cs:
            if set(c.members) <= set(d.members):
                if satisfies(m, m.initial, Ability(c, goal)):
                    assert satisfies(m, m.initial, Ability(d, goal))


@given(st.sampled_from(TWO_AGENT))
def test_truth_and_falsity_boundaries(m):
    for c in coalitions_of(m):
        for s in m.states:
            assert satisfies(m, s, Ability(c, parse_formula("true")))
            assert not satisfies(m, s, Ability(c, parse_formula("false")))


@given(st.sampled_from(TWO_AGENT), st.sampled_from(GOALS),
       st.integers(0, 3))
def test_returned_witnesses_replay(m, goal, cmask):
    c = Coalition.from_bitmask(cmask)
    ok, w = check_ability(m, m.initial, c, goal)
    assert ok == satisfies(m, m.initial, Ability(c, goal))
    if ok:
        assert verify_ability_witness(m, m.initial, c, goal, w)
    ok, w = check_inability(m, m.initial, c, goal)
    assert ok == satisfies(m, m.initial, Inability(c, goal))
    if ok:
        assert verify_inability_witness(m, m.initial, c, goal, w)


@given(st.sampled_from(TWO_AGENT), st.sampled_from(GOALS))
def test_grand_and_empty_coalition_dualities(m, goal):
    full = Coalition((1, 2))
    for s in m.states:
        assert satisfies(m, s, Inability(full, goal)) == \
            satisfies(m, s, Ability(EMPTY, Not(goal)))
        assert satisfies(m, s, Inability(EMPTY, goal)) == \
            satisfies(m, s, Ability(full, Not(goal)))
