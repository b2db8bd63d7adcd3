"""Bounded countermodel search."""

import sys
import tracemalloc
from itertools import product

import pytest

from clic import (
    Bounds, BoundsInsufficientForFormula, ClicError, Counterexample,
    NoCounterexampleWithinBounds, check_equivalence, default_bounds,
    find_countermodel, minimal_countermodel, parse_formula, parse_model,
    print_model, satisfies,
)


def find(text, b=None):
    return find_countermodel(parse_formula(text), b or default_bounds())


def test_default_bounds_shape():
    b = default_bounds()
    assert (b.max_agents, b.max_states, b.max_actions_per_agent) == (2, 3, 2)
    assert b.props == ("p", "q")
    assert not b.vary_all_states
    assert default_bounds(("p",)).props == ("p",)


def test_counterexample_replays():
    v = find("I[1] p -> I[1,2] p")
    assert isinstance(v, Counterexample)
    assert satisfies(v.model, v.state, parse_formula("I[1] p"))
    assert not satisfies(v.model, v.state, parse_formula("I[1,2] p"))
    assert not satisfies(v.model, v.state,
                         parse_formula("I[1] p -> I[1,2] p"))


def test_counterexample_model_reparses():
    v = find("I[1] p -> I[1,2] p")
    again = parse_model(print_model(v.model))
    assert again == v.model


def test_exhaustion_reports_counts():
    v = find("I[1,2] p -> I[1] p", default_bounds(("p",)))
    assert isinstance(v, NoCounterexampleWithinBounds)
    # Models mentioning agent 2 restrict the scan to the 2-agent slice.
    assert v.models_checked == 928
    assert v.states_checked == 2664
    assert v.bounds == default_bounds(("p",))


def test_skipping_small_models_changes_counts():
    one_agent = find("!E[1] false", default_bounds(("p",)))
    assert one_agent.models_checked == 1052
    two_agent = find("!E[1,2] false", default_bounds(("p",)))
    assert two_agent.models_checked == 928


def test_trivial_counterexample_is_first_model():
    v = find("E[] false", Bounds(1, 1, 1))
    assert isinstance(v, Counterexample)
    assert v.model.states == ("s1",)
    assert v.state == "s1"


def test_determinism():
    a = find("I[1] p -> I[1,2] p")
    b = find("I[1] p -> I[1,2] p")
    assert a == b
    x = find("I[1,2] p -> I[1] p")
    y = find("I[1,2] p -> I[1] p")
    assert x == y


@pytest.mark.parametrize("text", [
    "!E[1] false",
    "E[1] true",
    "I[1,2] p -> I[1] p",
    "I[1] (p | q) -> I[1] p & I[1] q",
    "I[1] false",
    "!I[1] true",
])
def test_valid_schemes_exhaust(text):
    assert isinstance(find(text), NoCounterexampleWithinBounds)


def test_inability_does_not_mean_falsity():
    v = find("!(p & I[1] p)", default_bounds(("p",)))
    assert isinstance(v, Counterexample)
    assert satisfies(v.model, v.state, parse_formula("p & I[1] p"))


def test_insufficient_bounds():
    b = default_bounds(("p",))
    with pytest.raises(BoundsInsufficientForFormula):
        find("E[3] p", b)
    with pytest.raises(BoundsInsufficientForFormula):
        find("q", b)
    with pytest.raises(BoundsInsufficientForFormula):
        find("E[1] E[1] p", b)
    nested = find("E[1] E[1] true", Bounds(1, 2, 2, ("p",), True))
    assert isinstance(nested, NoCounterexampleWithinBounds)


def test_check_equivalence():
    b = default_bounds(("p",))
    same = check_equivalence(parse_formula("I[1,2] p"),
                             parse_formula("E[] !p"), b)
    assert isinstance(same, NoCounterexampleWithinBounds)
    same = check_equivalence(parse_formula("I[] p"),
                             parse_formula("E[1,2] !p"), b)
    assert isinstance(same, NoCounterexampleWithinBounds)
    split = check_equivalence(parse_formula("I[1] p"),
                              parse_formula("E[2] !p"), b)
    assert isinstance(split, Counterexample)
    assert satisfies(split.model, split.state, parse_formula("I[1] p"))
    assert not satisfies(split.model, split.state, parse_formula("E[2] !p"))


def test_minimal_countermodel_sizes():
    f = parse_formula("I[1] (p & q) -> (I[1] p | I[1] q)")
    b = default_bounds()
    v = minimal_countermodel(f, b)
    assert isinstance(v, Counterexample)
    assert v.size == (2, 2, 1)
    assert v.model.n_agents == 1
    # The count covers every size tuple tried, up to the succeeding one.
    tried = [size for size in product(range(1, b.max_states + 1),
                                      range(1, b.max_actions_per_agent + 1),
                                      range(1, b.max_agents + 1))
             if size <= v.size]
    assert v.models_checked == sum(
        find_countermodel(f, Bounds(n, s, a, b.props, b.vary_all_states))
        .models_checked
        for s, a, n in tried)

    v = minimal_countermodel(
        parse_formula("(I[1] p & I[1] q) -> I[1] (p | q)"), default_bounds())
    assert v.size == (2, 2, 2)
    assert tuple(len(acts) for acts in v.model.actions) == (1, 2)


def test_minimal_countermodel_exhausts_valid_formula():
    v = minimal_countermodel(parse_formula("I[1,2] p -> I[1] p"),
                             default_bounds(("p",)))
    assert isinstance(v, NoCounterexampleWithinBounds)
    assert v.bounds == default_bounds(("p",))


def test_minimal_countermodel_skips_undersized_tuples():
    v = minimal_countermodel(parse_formula("I[1] p -> I[1,2] p"),
                             default_bounds(("p",)))
    assert isinstance(v, Counterexample)
    assert v.size == (2, 2, 2)
    with pytest.raises(BoundsInsufficientForFormula):
        minimal_countermodel(parse_formula("E[3] p"), default_bounds(("p",)))


@pytest.mark.parametrize("b", [
    Bounds(10**12, 1, 1, ("p",)),
    Bounds(1, 10**12, 1, ("p",)),
    Bounds(1, 1, 10**12, ("p",)),
], ids=["agents", "states", "actions"])
def test_minimal_countermodel_builds_sizes_as_it_reaches_them(b):
    # Each size tuple is built when reached: a bound of 10**12 costs
    # nothing until the search gets there.
    tracemalloc.start()
    try:
        v = minimal_countermodel(parse_formula("p"), b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.size == (1, 1, 1)
    assert peak < 1 << 20


def test_find_countermodel_state_is_first_failing():
    # The formula fails only at states where p holds; the reported
    # state must be the earliest such state in declaration order.
    v = find("!p", default_bounds(("p",)))
    assert isinstance(v, Counterexample)
    assert satisfies(v.model, v.state, parse_formula("p"))
    for s in v.model.states:
        if s == v.state:
            break
        assert not satisfies(v.model, s, parse_formula("p"))


def test_deep_formula_searches_without_limits():
    from clic import Ability, Atom, Coalition
    f = Atom("p")
    for _ in range(400):
        f = Ability(Coalition((1,)), f)
    v = find_countermodel(f, Bounds(1, 1, 1, ("p",), True))
    assert isinstance(v, Counterexample)
    assert v.state == "s1"
    assert v.models_checked == 1


@pytest.mark.parametrize("levels", [600, 1200])
def test_too_deep_formula_is_an_error_not_a_crash(levels):
    """Past a few hundred levels the engine or the replay runs out of
    stack; an AST that deep is reported as a ClicError."""
    from clic import Ability, Atom, Coalition
    f = Atom("p")
    for _ in range(levels):
        f = Ability(Coalition((1,)), f)
    with pytest.raises(ClicError, match="nested too deeply"):
        find_countermodel(f, Bounds(1, 1, 1, ("p",), True))


def test_shallow_formula_never_reports_nesting():
    """A stack exhausted by the caller is not blamed on a shallow
    formula: searching at every depth works or raises RecursionError."""
    from clic import Ability, Atom, Coalition
    f = Atom("p")
    for _ in range(20):
        f = Ability(Coalition((1,)), f)
    b = Bounds(1, 1, 1, ("p",), True)

    def search_at(depth):
        return search_at(depth - 1) if depth else find_countermodel(f, b)
    for depth in range(sys.getrecursionlimit(), 0, -1):
        try:
            assert isinstance(search_at(depth), Counterexample)
            break
        except RecursionError:
            pass
    assert depth > 0


def _entry_points():
    from clic import (
        Coalition, ast_dump, check_ability, check_inability, extension,
        fixture_model, print_formula, semantics, translate,
    )
    m, one = fixture_model("m1"), Coalition((1,))
    return {"satisfies": lambda f: satisfies(m, m.initial, f),
            "semantics.satisfies":
                lambda f: semantics.satisfies(m, m.initial, f),
            "extension": lambda f: extension(m, f),
            "check_ability": lambda f: check_ability(m, m.initial, one, f),
            "check_inability":
                lambda f: check_inability(m, m.initial, one, f),
            "translate": translate, "print_formula": print_formula,
            "ast_dump": ast_dump}


ENTRY_POINTS = ["satisfies", "translate", "print_formula",
                "semantics.satisfies", "extension", "check_ability",
                "check_inability", "ast_dump"]


def test_reference_satisfies_is_the_public_one():
    """The reference clauses guard themselves: no second, guarded copy."""
    import clic
    assert clic.satisfies is clic.semantics.satisfies


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("levels", [600, 1200])
def test_too_deep_formula_elsewhere_is_an_error_not_a_crash(name, levels):
    """The other entry points follow find_countermodel's rule: a deep AST
    that exhausts the stack is a ClicError, and one that fits works."""
    from clic import Ability, Atom, Coalition
    f = Atom("p")
    for _ in range(levels):
        f = Ability(Coalition((1,)), f)
    call = _entry_points()[name]
    if levels > sys.getrecursionlimit():
        with pytest.raises(ClicError, match="nested too deeply"):
            call(f)
    else:
        try:
            call(f)
        except ClicError as err:
            assert "nested too deeply" in str(err)


@pytest.mark.parametrize("levels", [600, 900])
def test_reference_evaluators_take_deep_asts(levels):
    """Hashing never recurses, so the reference clauses evaluate an AST
    until their own recursion runs out, past 900 levels.  Each answer
    matches one read off a separate copy, asked for level by level in one
    ordered list, so that each level's body is already known."""
    from clic import (
        Ability, Atom, Coalition, Inability, check_ability, check_inability,
        extension, extensions, fixture_model, semantics,
    )
    m, one = fixture_model("m1"), Coalition((1,))
    s, f, chain = m.initial, Atom("p"), [Atom("p")]
    for _ in range(levels):
        f = Ability(one, f)
        chain.append(Ability(one, chain[-1]))
    chain += [Ability(one, chain[-1]), Inability(one, chain[-1])]
    *_, want, able, unable = extensions(m, chain)
    assert extension(m, f) == want
    assert semantics.satisfies(m, s, f) is (s in want)
    assert check_ability(m, s, one, f)[0] is (s in able)
    assert check_inability(m, s, one, f)[0] is (s in unable)


def test_too_deep_formula_in_a_list_is_an_error_not_a_crash():
    """The guard measures the formulas a list holds, as it does one
    passed alone."""
    from clic import Ability, Atom, Coalition, extensions, fixture_model
    f = Atom("p")
    for _ in range(2_000):
        f = Ability(Coalition((1,)), f)
    with pytest.raises(ClicError, match="nested too deeply"):
        extensions(fixture_model("m1"), [Atom("p"), f])


def test_too_deep_formula_drawn_from_a_generator_is_measured():
    """`extensions` lists its formulas before it evaluates any, and the
    guard measures that list, so a generator's formulas are measured too."""
    from clic import Ability, Atom, Coalition, extensions, fixture_model
    f = Atom("p")
    for _ in range(3_000):
        f = Ability(Coalition((1,)), f)
    with pytest.raises(ClicError, match="nested too deeply"):
        extensions(fixture_model("m1"), (g for g in [f]))


def test_hash_of_any_depth():
    """A formula's first hash walks an explicit stack, not Python's."""
    from clic import Ability, Atom, Coalition
    f, g = Atom("p"), Atom("p")
    for _ in range(10_000):
        f, g = Ability(Coalition((1,)), f), Ability(Coalition((1,)), g)
    assert hash(f) == hash(g)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_shallow_formula_elsewhere_never_reports_nesting(name):
    """A stack the caller exhausted is not blamed on a shallow formula."""
    from clic import Ability, Atom, Coalition
    f = Atom("p")
    for _ in range(20):
        f = Ability(Coalition((1,)), f)
    call = _entry_points()[name]

    def call_at(depth):
        return call_at(depth - 1) if depth else call(f)
    for depth in range(sys.getrecursionlimit(), 0, -1):
        try:
            call_at(depth)
            break
        except RecursionError:
            pass
    assert depth > 0


def test_nested_modalities_cost_one_body_value_per_frame():
    """Thirty nested E[1] over a tautology, scanned over 2-state frames:
    evaluating a modality's body once per state instead of once per
    frame would take about 2**29 body evaluations a frame."""
    from clic import Ability, Coalition
    f = parse_formula("p | !p")
    for _ in range(30):
        f = Ability(Coalition((1,)), f)
    v = find_countermodel(f, Bounds(1, 2, 1, ("p",), True))
    assert isinstance(v, NoCounterexampleWithinBounds)
    assert v.models_checked == 18
