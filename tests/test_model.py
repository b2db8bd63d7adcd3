"""Model file parsing, printing, joint actions, and enumeration."""

import itertools

import pytest

from clic import (
    ActionProfile, Bounds, BoundsTooSmall, Coalition, CoalitionOutOfRange,
    MissingActions,
    MissingInit, ModelFormatError, PartialOutcome, UnknownAction,
    UnknownAgent, UnknownState, complement,
    enumerate_models, parse_model, print_model, profiles,
)
from clic.model import size_blocks

M1 = """\
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
"""


@pytest.fixture
def m1():
    return parse_model(M1)


def test_parse_basics(m1):
    assert m1.n_agents == 2
    assert m1.states == ("s", "t", "u")
    assert m1.initial == "s"
    assert m1.actions == (("a", "b"), ("a", "b"))
    assert m1.valuation == {"p": frozenset({"t"})}


def test_explicit_outcome_beats_default(m1):
    assert m1.outcome[("s", ("a", "a"))] == "t"
    for profile in [("a", "b"), ("b", "a"), ("b", "b")]:
        assert m1.outcome[("s", profile)] == "u"
    for profile in itertools.product("ab", repeat=2):
        assert m1.outcome[("t", profile)] == "t"
        assert m1.outcome[("u", profile)] == "u"


def test_comments_and_blank_lines_ignored(m1):
    noisy = "# header\n\n" + M1.replace("init s", "init s   # start here")
    assert parse_model(noisy) == m1


def test_leading_byte_order_mark_is_skipped(m1):
    assert parse_model("\ufeff" + M1) == m1


def test_print_parse_round_trip(m1):
    printed = print_model(m1)
    again = parse_model(printed)
    assert again == m1
    assert print_model(again) == printed


def test_printed_model_is_fully_explicit(m1):
    printed = print_model(m1)
    assert "default" not in printed
    assert printed.count("outcome") == 3 * 4


def test_prop_line_with_no_states(m1):
    m = parse_model(M1 + "prop q\n")
    assert m.valuation["q"] == frozenset()
    assert parse_model(print_model(m)) == m


@pytest.mark.parametrize("text,exc", [
    ("agents 1\nstate s\ninit s\nactions 1 a b\noutcome s a -> s\n",
     PartialOutcome),
    ("agents 1\nstate s\nactions 1 a\ndefault s -> s\n", MissingInit),
    ("agents 2\nstate s\ninit s\nactions 1 a\ndefault s -> s\n",
     MissingActions),
    ("agents 1\nstate s\ninit t\nactions 1 a\ndefault s -> s\n",
     UnknownState),
    ("agents 1\nstate s\ninit s\nactions 1 a\nprop p q\ndefault s -> s\n",
     UnknownState),
    ("agents 1\nstate s\ninit s\nactions 1 a\noutcome s b -> s\n"
     "default s -> s\n", UnknownAction),
    ("agents 1\nstate s\ninit s\nactions 2 a\nactions 1 a\ndefault s -> s\n",
     UnknownAgent),
    ("state s\ninit s\nactions 1 a\ndefault s -> s\n", ModelFormatError),
    ("agents 1\nstate s\nstate s\ninit s\nactions 1 a\ndefault s -> s\n",
     ModelFormatError),
    ("agents 1\nstate s\ninit s\ninit s\nactions 1 a\ndefault s -> s\n",
     ModelFormatError),
    ("agents 1\nstate s\ninit s\nactions 1 a a\ndefault s -> s\n",
     ModelFormatError),
    ("agents 1\nstate s\ninit s\nactions 1 a\noutcome s a -> s\n"
     "outcome s a -> s\n", ModelFormatError),
    ("agents 1\nstate s\ninit s\nactions 1 a\nwibble s\ndefault s -> s\n",
     ModelFormatError),
    ("agents 1\nstate s\ninit s\nactions 1 a\ndefault s => s\n",
     ModelFormatError),
    # Digits that int() cannot read.
    ("agents \u00b2\nstate s\ninit s\nactions 1 a\ndefault s -> s\n",
     ModelFormatError),
    ("agents 1\nstate s\ninit s\nactions \u00b2 a\ndefault s -> s\n",
     ModelFormatError),
])
def test_rejected_files(text, exc):
    with pytest.raises(exc):
        parse_model(text)


def test_error_carries_line_number():
    with pytest.raises(UnknownState) as info:
        parse_model("agents 1\nstate s\ninit s\nactions 1 a\n"
                    "default s -> nowhere\n")
    assert info.value.line == 5
    assert "line 5" in str(info.value)


def test_partial_outcome_names_the_gap():
    with pytest.raises(PartialOutcome) as info:
        parse_model("agents 2\nstate s\ninit s\nactions 1 a b\n"
                    "actions 2 a\noutcome s a a -> s\n")
    assert info.value.state == "s"
    assert info.value.profile == ("b", "a")


def test_complement(m1):
    assert complement(m1, Coalition((1,))) == Coalition((2,))
    assert complement(m1, Coalition((1, 2))).members == ()
    assert complement(m1, Coalition.from_bitmask(0)) == Coalition((1, 2))
    with pytest.raises(CoalitionOutOfRange):
        complement(m1, Coalition((3,)))


def test_profiles_order_and_count(m1):
    singles = [str(p) for p in profiles(m1, Coalition((1,)))]
    assert singles == ["1:a", "1:b"]
    both = [str(p) for p in profiles(m1, Coalition((1, 2)))]
    assert both == ["1:a 2:a", "1:a 2:b", "1:b 2:a", "1:b 2:b"]
    empty = list(profiles(m1, Coalition.from_bitmask(0)))
    assert len(empty) == 1 and str(empty[0]) == "(empty)"
    with pytest.raises(CoalitionOutOfRange):
        next(profiles(m1, Coalition((1, 3))))


def test_action_profile_must_cover_its_coalition():
    with pytest.raises(ValueError):
        ActionProfile(Coalition((1, 2)), ((1, "a"),))


def test_bounds_normalizes_props():
    b = Bounds(2, 3, 2, ("q", "p", "q"))
    assert b.props == ("p", "q")
    with pytest.raises(ValueError):
        Bounds(0, 3, 2)
    with pytest.raises(BoundsTooSmall):
        Bounds(2, 0, 2)


def test_enumerate_tiny_space():
    models = list(enumerate_models(Bounds(1, 1, 1, ("p",), True)))
    assert len(models) == 2
    assert [m.valuation["p"] for m in models] == [frozenset(),
                                                  frozenset({"s1"})]
    for m in models:
        assert m.states == ("s1",)
        assert m.actions == (("a1",),)
        assert m.outcome == {("s1", ("a1",)): "s1"}


def test_enumerate_counts_are_stable():
    # Sum over sizes of 2^(props * states) * states^slots, where the
    # slot count is the number of full profiles at the initial state
    # (times the state count when all states vary).
    def expected(b):
        total = 0
        for n in range(1, b.max_agents + 1):
            for ns in range(1, b.max_states + 1):
                for sizes in itertools.product(
                        range(1, b.max_actions_per_agent + 1), repeat=n):
                    slots = 1
                    for size in sizes:
                        slots *= size
                    if b.vary_all_states:
                        slots *= ns
                    total += (2 ** (len(b.props) * ns)) * ns ** slots
        return total

    for b in [Bounds(2, 3, 2, ("p",)), Bounds(2, 2, 2, ("p",), True),
              Bounds(1, 3, 3, ("p", "q")), Bounds(3, 2, 1, ())]:
        assert sum(1 for _ in enumerate_models(b)) == expected(b)


def test_enumerate_models_are_valid_and_distinct():
    seen = set()
    for m in enumerate_models(Bounds(2, 2, 2, ("p",))):
        assert m.initial == m.states[0]
        assert m.n_agents == len(m.actions)
        assert set(m.outcome) == {(s, prof) for s in m.states
                                  for prof in itertools.product(*m.actions)}
        assert all(t in m.states for t in m.outcome.values())
        key = print_model(m)
        assert key not in seen
        seen.add(key)
        assert parse_model(key) == m


def test_fixed_states_self_loop_without_vary():
    for m in enumerate_models(Bounds(1, 2, 2, ())):
        for s in m.states[1:]:
            for prof in itertools.product(*m.actions):
                assert m.outcome[(s, prof)] == s


def test_size_blocks_count_action_sizes_lazily():
    b = Bounds(3, 2, 3)
    assert list(size_blocks(b)) == [
        (n, k, sizes) for n in range(1, 4) for k in range(1, 3)
        for sizes in itertools.product(range(1, 4), repeat=n)]
    assert list(size_blocks(b, 3)) == list(size_blocks(b))[-54:]
    # No range of action counts is built first, however large the bound.
    huge = size_blocks(Bounds(2, 1, 10 ** 12))
    assert next(huge) == (1, 1, (1,))
    assert next(huge) == (1, 1, (2,))
