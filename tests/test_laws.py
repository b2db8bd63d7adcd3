"""Catalog of structural laws and its runner."""

from itertools import product
from math import prod

import pytest

from clic import (
    Bounds, BoundsInsufficientForFormula, Counterexample, FixtureMissing,
    Law, NoCounterexampleWithinBounds,
    catalog, check_equivalence, default_bounds, find_countermodel,
    fixture_model, instantiations, max_agent, parse_formula, print_formula,
    replay_fixture, run_laws, satisfies,
)

BY_ID = {law.id: law for law in catalog()}


def texts(law, n_agents, atoms):
    return [print_formula(f) for f in instantiations(law, n_agents, atoms)]


def test_catalog_composition():
    laws = catalog()
    assert len(laws) == 29
    expected = {"valid": 16, "invalid": 12, "satisfiable": 1}
    got = {}
    for law in laws:
        got[law.expected] = got.get(law.expected, 0) + 1
    assert got == expected
    assert len(BY_ID) == 29
    groups = {law.group for law in laws}
    assert groups == {"coalition", "goal", "boolean", "strategic",
                      "boundary", "axiom"}


def test_catalog_is_stable():
    assert [law.id for law in catalog()] == [law.id for law in catalog()]


def test_anti_monotonicity_instances():
    got = texts(BY_ID["anti-monotonicity"], 2, ("p",))
    assert len(got) == 36
    assert "I[1,2] p -> I[1] p" in got
    assert "I[1] p -> I[] p" in got
    assert "I[2] p -> I[] p" in got
    assert "I[1] p -> I[1] p" in got
    assert "I[1] p -> I[2] p" not in got


def test_superadditivity_instances_are_disjoint_pairs():
    law = BY_ID["axiom-superadditivity"]
    got = texts(law, 2, ("p",))
    assert len(got) == 144  # 9 disjoint coalition pairs x 16 goal pairs
    assert "E[1] p & E[2] !p -> E[1,2] (p & !p)" in got
    overlapping = "E[1] p & E[1] !p -> E[1] (p & !p)"
    assert overlapping not in got


def test_entailment_mode_pairs_by_shape():
    got = texts(BY_ID["contravariance"], 1, ("p", "q"))
    assert len(got) == 256  # 2 coalitions x (64 + 64) entailing pairs
    assert "I[1] (p | q) -> I[1] p" in got
    assert "I[1] p -> I[1] (p & q)" in got
    assert "I[1] q -> I[1] p" not in got


def test_instantiations_reject_zero_agents():
    with pytest.raises(ValueError):
        list(instantiations(BY_ID["truth"], 0, ("p",)))


def test_every_fixture_replays():
    for law in catalog():
        if law.fixture is not None:
            assert replay_fixture(law), law.id


def test_every_fixture_instance_belongs_to_its_scheme():
    """_run_law searches the pinned instance first, so one outside the
    scheme would let a row report a verdict on a formula it never
    claimed."""
    fixtures = [law for law in catalog() if law.fixture is not None]
    assert len(fixtures) == 12
    for law in fixtures:
        f = parse_formula(law.fixture.instance)
        assert any(f in set(instantiations(law, n, ("p", "q")))
                   for n in (1, 2)), law.id


def test_replay_fixture_needs_a_fixture():
    with pytest.raises(FixtureMissing):
        replay_fixture(BY_ID["ability-distribution"])


def test_fixture_model_unknown_name():
    with pytest.raises(FixtureMissing):
        fixture_model("no_such_model")


def test_fixture_models_parse_and_vary():
    names = {law.fixture.model_name for law in catalog()
             if law.fixture is not None}
    assert names == {"m1", "covariance", "conjunction_upward",
                     "disjunction_downward", "excluded_middle", "symmetry",
                     "matching_pennies"}
    for name in names:
        m = fixture_model(name)
        assert m.initial in m.states


def test_fixture_claims_pin_both_sides():
    # Each invalid row's fixture makes the premise true and the
    # conclusion false at the pinned state; spot-check one directly.
    law = BY_ID["upward-propagation"]
    m = fixture_model(law.fixture.model_name)
    s = law.fixture.state
    assert satisfies(m, s, parse_formula("I[1] p"))
    assert not satisfies(m, s, parse_formula("I[1,2] p"))
    assert not satisfies(m, s, parse_formula(law.fixture.instance))


def test_full_run_passes_at_default_bounds():
    report = run_laws()
    assert report.passed
    assert len(report.results) == 29
    for r in report.results:
        assert r.observed == r.expected, r.law_id
        if BY_ID[r.law_id].fixture is not None:
            assert r.fixture_ok is True
        else:
            assert r.fixture_ok is None
    invalid = [r for r in report.results if r.expected == "invalid"]
    assert all(isinstance(r.evidence, Counterexample) for r in invalid)


def test_single_law_run():
    report = run_laws(laws=[BY_ID["grand-coalition-duality"]])
    assert report.passed
    (r,) = report.results
    assert r.law_id == "grand-coalition-duality"
    assert r.evidence is None
    assert r.instantiations == 8


def test_degenerate_bounds_flag_the_deep_rows():
    report = run_laws(Bounds(1, 1, 1, ("p",)))
    failed = {r.law_id for r in report.results if not r.passed}
    assert failed == {
        "upward-propagation", "superadditivity-for-inability",
        "conjunction-upward", "disjunction-downward", "implication-converse",
        "excluded-middle", "opponent-ability", "ability-distribution",
        "strategic-impotence",
    }
    # One-state one-action worlds cannot counter these rows, but the
    # pinned fixtures still replay on their own models.
    for r in report.results:
        if r.law_id in failed and BY_ID[r.law_id].fixture is not None:
            assert r.fixture_ok is True


def test_render_shape():
    report = run_laws(laws=[BY_ID["truth"], BY_ID["upward-propagation"]])
    lines = report.render().splitlines()
    assert len(lines) == 4
    head = lines[0].split()
    assert head == ["law", "expected", "observed", "instantiations",
                    "models_checked", "result"]
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].split()[0] == "truth"
    assert lines[2].split()[-1] == "PASS"
    assert lines[3].split()[0] == "upward-propagation"


def test_replacement_of_equivalents_inside_ability():
    # If f and g agree everywhere within bounds, so do E[C] f and
    # E[C] g.  Spot-check the rule on one equivalent and one
    # non-equivalent pair.
    b = default_bounds(("p",))
    f = parse_formula("p & p")
    g = parse_formula("p")
    assert isinstance(check_equivalence(f, g, b), NoCounterexampleWithinBounds)
    lifted = parse_formula("E[1] (p & p) <-> E[1] p")
    assert isinstance(find_countermodel(lifted, b),
                      NoCounterexampleWithinBounds)

    h = parse_formula("!p")
    assert isinstance(check_equivalence(f, h, b), Counterexample)
    split = parse_formula("E[1] (p & p) <-> E[1] !p")
    assert isinstance(find_countermodel(split, b), Counterexample)


def test_axiom_rows_are_valid_rows():
    for law_id in ("axiom-truth", "axiom-no-contradiction",
                   "axiom-superadditivity", "axiom-grand-coalition",
                   "inability-definition"):
        assert BY_ID[law_id].expected == "valid"
        assert BY_ID[law_id].group == "axiom"


def test_law_descriptions_are_informative():
    for law in catalog():
        assert law.description
        assert law.description == law.description.strip()


def test_custom_law_runs():
    law = Law("double-negation", "boolean", "double negation elimination",
              "valid",
              lambda n, cs, fs: parse_formula("!!p -> p"),
              0, "none")
    report = run_laws(default_bounds(("p",)), [law])
    assert report.passed
    assert report.results[0].instantiations == 1


def test_valid_law_the_bounds_cannot_search_raises():
    # Without vary_all_states a nested scheme cannot be searched; a valid
    # row must not report PASS over instances it never checked.
    law = Law("nested", "custom", "a depth-2 scheme", "valid",
              lambda n, cs, fs: parse_formula("E[1] E[1] p"), 0, "none")
    b = default_bounds(("p",))
    assert not b.vary_all_states
    with pytest.raises(BoundsInsufficientForFormula):
        run_laws(b, [law])


# Per row at default_bounds(vary_all_states=True): instantiations and
# models checked.  The invalid rows' counts match the frame-by-frame
# search; the valid rows' follow from the size of the space.
ALL_STATES = {
    "anti-monotonicity": (72, 2457229632),
    "upward-propagation": (1, 146),
    "subadditivity": (128, 4367888640),
    "superadditivity-for-inability": (1, 1623),
    "contravariance": (512, 17477789696),
    "covariance": (1, 3),
    "absorption": (256, 8738894848),
    "conjunction-downward": (256, 8738894848),
    "conjunction-upward": (1, 170),
    "disjunction-upward": (256, 8738894848),
    "disjunction-downward": (1, 48890),
    "implication-distribution": (256, 8738894848),
    "implication-converse": (1, 48890),
    "excluded-middle": (1, 138),
    "exclusivity": (1, 1),
    "symmetry": (1, 1),
    "complementarity": (1, 1),
    "opponent-ability": (1, 1623),
    "grand-coalition-duality": (8, 272895616),
    "empty-coalition-duality": (8, 272895616),
    "contradiction": (4, 136545232),
    "truth": (4, 136545232),
    "axiom-truth": (4, 136545232),
    "axiom-no-contradiction": (4, 136545232),
    "axiom-superadditivity": (576, 19657837056),
    "axiom-grand-coalition": (8, 272895616),
    "inability-definition": (32, 1092361856),
    "ability-distribution": (66, 2220443298),
    "strategic-impotence": (1, 48858),
}


def _space(b, need):
    """Models in b with at least `need` agents: over blocks, 2**(|S|*k)
    valuations times |S|**(|S|*profiles) outcome functions."""
    total = 0
    for n in range(max(need, 1), b.max_agents + 1):
        for states in range(1, b.max_states + 1):
            for sizes in product(range(1, b.max_actions_per_agent + 1),
                                 repeat=n):
                total += (2 ** (states * len(b.props))
                          * states ** (states * prod(sizes)))
    return total


def test_catalog_with_every_state_varying():
    b = default_bounds(vary_all_states=True)
    report = run_laws(b)
    assert report.passed
    got = {r.law_id: (r.instantiations, r.models_checked)
           for r in report.results}
    assert got == ALL_STATES
    for law in catalog():
        if law.expected == "valid":
            assert ALL_STATES[law.id][1] == sum(
                _space(b, max_agent(f))
                for f in instantiations(law, b.max_agents, b.props))
