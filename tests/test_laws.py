"""Catalog of structural laws and its runner."""

import re
from dataclasses import replace
from hashlib import sha256
from itertools import chain, product
from math import prod

import pytest

from clic import (
    Ability, And, Atom, Bot, Bounds, BoundsInsufficientForFormula, ClicError,
    Coalition, Counterexample, Fixture, FixtureMissing, Implies, Inability,
    Law, NoCounterexampleWithinBounds, Not, Or, SearchTooLarge, Top,
    UnknownState, catalog, check_equivalence, default_bounds,
    enumerate_formulas, find_countermodel, fixture_model, instantiations,
    max_agent, parse_formula, print_formula, replay_fixture, run_laws,
    satisfies,
)
from clic import laws as laws_module
from clic.formula import MAX_AGENT
from clic.laws import _formula_pool, _groups, _instance_of, evaluate_fixture

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


# SHA-256 prefix of each law's printed instance stream at 1-4 agents over
# ("p",) and ("p", "q"), each stream after a "# <agents> <atoms>" line.
STREAMS = {
    "anti-monotonicity": "fe19160fc958a19e",
    "upward-propagation": "626fb42d76830bdd",
    "subadditivity": "ee9da7af81189b2b",
    "superadditivity-for-inability": "fa2b671efb639cf3",
    "contravariance": "0d28725fed1fefd2",
    "covariance": "d1cc36f8911b3ccb",
    "absorption": "b1886739a984a78d",
    "conjunction-downward": "434effa768aad822",
    "conjunction-upward": "0c3d487a42f79ee8",
    "disjunction-upward": "dbc4c990b87ec173",
    "disjunction-downward": "0fe8a01cc448f8ee",
    "implication-distribution": "8efdf3f37cbc0ea9",
    "implication-converse": "3b2b78f2789483ee",
    "excluded-middle": "21ebdb9d26b4590b",
    "exclusivity": "175550cf932628b5",
    "symmetry": "107c7ad4ddf34a81",
    "complementarity": "2c6f79235c4b191d",
    "opponent-ability": "7925cb06856f390d",
    "grand-coalition-duality": "2e2c065e74336d8f",
    "empty-coalition-duality": "bb681dc1b6ec5143",
    "contradiction": "5f24d1b7989f6f52",
    "truth": "6eab8fc0171ba5db",
    "axiom-truth": "98d8fc47e38de4fc",
    "axiom-no-contradiction": "5b48a4288faacb72",
    "axiom-superadditivity": "e62b671d12cb49c6",
    "axiom-grand-coalition": "f6d9cfb48016e5f3",
    "inability-definition": "b06157015e7aa1ff",
    "ability-distribution": "26622404b60975c5",
    "strategic-impotence": "0f6d9684b563fbec",
}

# The fewest agents at which each law refuses for too many instantiations,
# over ("p",) and ("p", "q"); None for a law that names no coalition.
REFUSED_AT = {
    "anti-monotonicity": (8, 7),
    "upward-propagation": (8, 7),
    "subadditivity": (8, 7),
    "superadditivity-for-inability": (7, 6),
    "contravariance": (12, 10),
    "covariance": (12, 10),
    "absorption": (13, 11),
    "conjunction-downward": (13, 11),
    "conjunction-upward": (13, 11),
    "disjunction-upward": (13, 11),
    "disjunction-downward": (13, 11),
    "implication-distribution": (13, 11),
    "implication-converse": (13, 11),
    "excluded-middle": (15, 14),
    "exclusivity": (15, 14),
    "symmetry": (15, 14),
    "complementarity": (15, 14),
    "opponent-ability": (15, 14),
    "grand-coalition-duality": None,
    "empty-coalition-duality": None,
    "contradiction": (17, 17),
    "truth": (17, 17),
    "axiom-truth": (17, 17),
    "axiom-no-contradiction": (17, 17),
    "axiom-superadditivity": (7, 6),
    "axiom-grand-coalition": None,
    "inability-definition": (15, 14),
    "ability-distribution": (13, 11),
    "strategic-impotence": (15, 14),
}


def test_instance_streams_frozen():
    """Every law's instances keep their text and their order."""
    for law in catalog():
        text = "".join(
            f"# {n} {' '.join(atoms)}\n"
            + "".join(f"{print_formula(f)}\n"
                      for f in instantiations(law, n, atoms))
            for atoms in (("p",), ("p", "q")) for n in range(1, 5))
        assert sha256(text.encode()).hexdigest()[:16] == STREAMS[law.id], \
            law.id


def test_instantiation_refusals_frozen():
    """Each refusal comes before the first instance, with its message."""
    for law in catalog():
        for atoms, n in zip((("p",), ("p", "q")),
                            REFUSED_AT[law.id] or (None, None)):
            with pytest.raises(ValueError, match="^need at least one agent$"):
                next(instantiations(law, 0, atoms))
            with pytest.raises(ClicError, match="^laws range over at most "
                                                "10000 agents$"):
                next(instantiations(law, MAX_AGENT + 1, atoms))
            if n is None:
                next(instantiations(law, 16, atoms))
                continue
            next(instantiations(law, n - 1, atoms))
            with pytest.raises(ClicError) as info:
                next(instantiations(law, n, atoms))
            assert str(info.value) == (f"law {law.id!r} has over 65536 "
                                       f"instantiations at {n} agents")


def _count_coalitions(monkeypatch, limit):
    """Make Coalition.from_bitmask count its calls and fail past limit."""
    built = []
    original = Coalition.from_bitmask

    def counting(mask):
        built.append(mask)
        assert len(built) <= limit, f"built {len(built)} coalitions"
        return original(mask)
    monkeypatch.setattr(Coalition, "from_bitmask", staticmethod(counting))
    return built


def test_instances_build_coalitions_as_they_are_reached(monkeypatch):
    built = _count_coalitions(monkeypatch, 1)
    assert print_formula(next(instantiations(BY_ID["truth"], 16, ("p",)))) \
        == "!I[] true"
    assert built == [0]


def test_depth_zero_formulas_build_no_coalition(monkeypatch):
    _count_coalitions(monkeypatch, 0)
    assert list(enumerate_formulas(("p",), 30, 0)) == [
        Atom("p"), Top(), Bot()]


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


def test_fixture_is_evaluated_by_one_extensions_call(monkeypatch):
    """One reference call per fixture model, as a search's replay makes;
    a state the model does not declare is an error, as in `satisfies`."""
    calls = []
    real = laws_module.extensions
    monkeypatch.setattr(laws_module, "extensions",
                        lambda m, fs: calls.append(fs) or real(m, fs))
    law = BY_ID["disjunction-downward"]
    got = evaluate_fixture(law)
    assert len(calls) == 1
    assert [text for text, _, _ in got] == [
        law.fixture.instance, *(text for text, _ in law.fixture.claims)]
    assert all(value == want for _, value, want in got)
    with pytest.raises(UnknownState):
        evaluate_fixture(replace(law, fixture=replace(law.fixture,
                                                      state="nope")))


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


# Per non-valid row at one agent, state and action: observed,
# instantiations, models checked and fixture replay.  A pinned instance
# that names agent 2 is counted but skipped, and the row's own
# instantiations are searched after it.
ONE_AGENT_ROWS = {
    "upward-propagation": ("valid", 5, 8, True),
    "superadditivity-for-inability": ("valid", 49, 96, True),
    "covariance": ("invalid", 3, 3, True),
    "conjunction-upward": ("valid", 33, 64, True),
    "disjunction-downward": ("valid", 33, 64, True),
    "implication-converse": ("valid", 33, 64, True),
    "excluded-middle": ("valid", 9, 18, True),
    "exclusivity": ("invalid", 2, 2, True),
    "symmetry": ("invalid", 2, 1, True),
    "complementarity": ("invalid", 2, 2, True),
    "opponent-ability": ("valid", 9, 16, True),
    "ability-distribution": ("valid", 32, 64, None),
    "strategic-impotence": ("unsatisfiable", 9, 18, True),
}


def test_non_valid_rows_try_the_pinned_instance_first():
    report = run_laws(Bounds(1, 1, 1, ("p",)))
    got = {r.law_id: (r.observed, r.instantiations, r.models_checked,
                      r.fixture_ok)
           for r in report.results if r.expected != "valid"}
    assert got == ONE_AGENT_ROWS


def test_valid_row_ignores_its_fixture():
    # Searched, the instance `p` would refute the row; replayed, the
    # claim would mismatch.  A valid row does neither.
    law = Law("double-negation", "boolean", "double negation elimination",
              "valid",
              lambda n, cs, fs: parse_formula("!!p -> p"),
              0, "none",
              fixture=Fixture("m1", "s", "p", (("true", False),)))
    assert replay_fixture(law) is False
    b = default_bounds(("p",))
    (r,) = run_laws(b, [law]).results
    assert r.passed and r.observed == "valid"
    assert r.fixture_ok is None
    assert r.instantiations == len(list(instantiations(law, b.max_agents,
                                                       b.props)))


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


def substituted(f, sigma):
    """f with every atom that sigma names replaced, all at once: by text,
    so it shares no walk with clic.laws."""
    def put(m):
        a = m.group()
        return f"({print_formula(sigma[a])})" if a in sigma else a
    return parse_formula(re.sub(r"[a-z][A-Za-z0-9_]*", put, print_formula(f)))


def test_instances_are_substitutions_of_their_schematic_formula():
    """The proof obligation of settling a group by one search: each
    instance is the scheme at the schematic parameters with the group's
    substitution applied, so every catalog scheme uses its parameters by
    connectives."""
    for law in catalog():
        for atoms in (("p", "q"), ("p", "q", "r")):
            for n in range(1, 4):
                stream = []
                for cs, schematic, params in _groups(law, n, atoms):
                    f0 = law.scheme(n, cs, schematic)
                    for sigma, fs in params:
                        f = law.scheme(n, cs, fs)
                        assert f == substituted(f0, sigma), \
                            (law.id, n, atoms, print_formula(f))
                        stream.append(f)
                assert stream == list(instantiations(law, n, atoms)), law.id


POOL = _formula_pool(("p", "q"))
SIGMAS = [{}] + [{"p": x} for x in POOL] + [
    {"p": x, "q": y} for x in POOL for y in POOL]


def test_instance_check_is_equality_with_the_substitution():
    """_instance_of(f, g, sigma) is g == substituted(f, sigma), for every
    pair of depth-1 formulas over p and q at two agents, g substituted
    too, and every pool substitution for p, or for p and q."""
    formulas = list(enumerate_formulas(("p", "q"), 2, 1))
    hits = 0
    for sigma in SIGMAS:
        images = [substituted(g, sigma) for g in formulas]
        for f in formulas:
            want = substituted(f, sigma)
            for g in images:
                got = _instance_of(f, g, sigma)
                assert got == (g == want), (f, g, sigma)
                hits += got
    assert hits > len(SIGMAS) * len(formulas)   # equal shapes, too


P, Q, ONE, TWO = Atom("p"), Atom("q"), Coalition((1,)), Coalition((2,))


@pytest.mark.parametrize("f, g, sigma, want", [
    (Ability(ONE, P), Ability(ONE, Not(Q)), {"p": Not(Q)}, True),
    (Ability(ONE, P), Ability(TWO, Not(Q)), {"p": Not(Q)}, False),
    (And(P, Q), Or(Top(), Q), {"p": Top()}, False),
    (And(P, Q), And(Top(), Q), {"p": Top()}, True),
    (Ability(ONE, P), Inability(ONE, Q), {"p": Q}, False),
    (Top(), Bot(), {"p": Q}, False),
    (Bot(), Bot(), {}, True),
    (And(P, Q), And(Q, P), {"p": Q}, False),    # q is not substituted
    (And(P, Q), And(Q, Q), {"p": Q}, True),
    (Not(Q), Not(P), {}, False),
])
def test_instance_check_on_pairs_that_differ_in_one_place(f, g, sigma, want):
    assert _instance_of(f, g, sigma) is want
    assert (g == substituted(f, sigma)) is want


def _per_instance(law, b):
    """A row as one search per instance, the pinned instance first: what
    run_laws reports, minus its elapsed time."""
    found, observed = {"valid": ("invalid", "valid"),
                       "invalid": ("invalid", "valid"),
                       "satisfiable": ("satisfiable", "unsatisfiable")
                       }[law.expected]
    count = models = 0
    evidence = instance = None
    pinned = ([] if law.expected == "valid" or law.fixture is None
              else [parse_formula(law.fixture.instance)])
    for f in chain(pinned, instantiations(law, b.max_agents, b.props)):
        count += 1
        try:
            verdict = find_countermodel(
                Not(f) if law.expected == "satisfiable" else f, b)
        except BoundsInsufficientForFormula:
            if law.expected == "valid":
                raise
            continue
        models += verdict.models_checked
        if isinstance(verdict, Counterexample):
            observed, evidence, instance = found, verdict, f
            break
    fixture_ok = replay_fixture(law) if pinned else None
    return (law.id, law.expected, observed, count, models,
            observed == law.expected and fixture_ok is not False,
            evidence, instance, fixture_ok)


def _row(r):
    return (r.law_id, r.expected, r.observed, r.instantiations,
            r.models_checked, r.passed, r.evidence, r.instance, r.fixture_ok)


@pytest.mark.parametrize("b, failing", [
    (Bounds(1, 1, 1, ("p",)), 9),
    (Bounds(1, 2, 2, ("p", "q")), 2),
    (Bounds(2, 2, 2, ("p",)), 0),   # one atom: modes two and entailment
])
def test_rows_match_one_search_per_instance(b, failing):
    report = run_laws(b)
    assert [_row(r) for r in report.results] == [
        _per_instance(law, b) for law in catalog()]
    assert sum(not r.passed for r in report.results) == failing


def _count_searches(monkeypatch):
    searched = []
    original = laws_module.find_countermodel

    def counting(f, b):
        searched.append(f)
        return original(f, b)
    monkeypatch.setattr(laws_module, "find_countermodel", counting)
    return searched


def test_a_coalition_tuple_takes_one_search(monkeypatch):
    searched = _count_searches(monkeypatch)
    (r,) = run_laws(laws=[BY_ID["anti-monotonicity"]]).results
    assert r.instantiations == 72
    assert [print_formula(f) for f in searched[:2]] == [
        "I[] p -> I[] p", "I[1] p -> I[] p"]
    assert len(searched) == 9     # the subset pairs over two agents


def test_a_scheme_that_is_no_substitution_searches_each_instance(
        monkeypatch):
    """`p -> p` is valid, `q -> p` is not: the scheme keeps a literal p,
    so its instances are not substitutions of the schematic formula."""
    law = Law("implies-p", "custom", "every parameter implies p", "valid",
              lambda n, cs, fs: Implies(fs[0], Atom("p")), 0, "one")
    b = default_bounds()
    expected = _per_instance(law, b)
    searched = _count_searches(monkeypatch)
    (r,) = run_laws(b, [law]).results
    assert _row(r) == expected
    assert r.observed == "invalid" and print_formula(r.instance) == "q -> p"
    assert [print_formula(f) for f in searched] == [
        "p -> p", "p -> p", "q -> p"]


def test_a_scheme_whose_parameter_picks_its_coalition_searches_each_instance(
        monkeypatch):
    """E[2] f | !E[2] f at an atom f, else E[] f | !E[] f: the schematic
    formula exhausts, but an instance at a non-atom differs from its
    substitution in the coalition alone, and is searched on its own over
    the one-agent blocks as well."""
    def scheme(n, cs, fs):
        c = Coalition((2,) if type(fs[0]) is Atom else ())
        return Or(Ability(c, fs[0]), Not(Ability(c, fs[0])))
    law = Law("coalition-by-parameter", "custom",
              "the parameter picks the coalition", "valid", scheme, 0, "one")
    b = default_bounds()
    expected = _per_instance(law, b)
    searched = _count_searches(monkeypatch)
    (r,) = run_laws(b, [law]).results
    assert _row(r) == expected
    assert r.observed == "valid" and r.instantiations == len(POOL)
    assert [print_formula(f) for f in searched[:2]] == [
        "E[2] p | !E[2] p", "E[2] p | !E[2] p"]
    assert len(searched) == 1 + len(POOL)
    # Settled by substitution, the row would count fewer models.
    schematic = find_countermodel(searched[0], b).models_checked
    assert r.models_checked > len(POOL) * schematic


def test_a_tuple_the_bounds_cannot_search_is_skipped_after_one_search(
        monkeypatch):
    """A depth-2 scheme needs every state to vary: each coalition's
    schematic search is refused, and so would each instance's be, so a
    row that is not valid counts the tuple's instances as skipped."""
    law = Law("nested-ability", "custom", "a depth-2 scheme", "invalid",
              lambda n, cs, fs: Ability(cs[0], Ability(cs[0], fs[0])),
              1, "one")
    b = default_bounds()
    expected = _per_instance(law, b)
    searched = _count_searches(monkeypatch)
    (r,) = run_laws(b, [law]).results
    assert _row(r) == expected
    assert (r.observed, r.instantiations, r.models_checked) == (
        "valid", 4 * len(POOL), 0)
    assert len(searched) == 4     # one per coalition over two agents


def test_a_search_too_large_is_refused_at_the_first_search(monkeypatch):
    searched = _count_searches(monkeypatch)
    with pytest.raises(SearchTooLarge,
                       match="at the block of agents 4, states 3$"):
        run_laws(Bounds(4, 3, 2, ("p", "q")))
    assert len(searched) == 1


# Per row at Bounds(3, 3, 2, ("p", "q")): instantiations and models
# checked, as one search per instance counted them.  The default bounds
# stop at two agents.
THREE_AGENTS = {
    "anti-monotonicity": (216, 96101184),
    "upward-propagation": (1, 66),
    "subadditivity": (512, 227476736),
    "superadditivity-for-inability": (1, 247),
    "contravariance": (1024, 456902656),
    "covariance": (1, 3),
    "absorption": (512, 228451328),
    "conjunction-downward": (512, 228451328),
    "conjunction-upward": (1, 66),
    "disjunction-upward": (512, 228451328),
    "disjunction-downward": (1, 946),
    "implication-distribution": (512, 228451328),
    "implication-converse": (1, 946),
    "excluded-middle": (1, 58),
    "exclusivity": (1, 1),
    "symmetry": (1, 1),
    "complementarity": (1, 1),
    "opponent-ability": (1, 247),
    "grand-coalition-duality": (8, 3539968),
    "empty-coalition-duality": (8, 3539968),
    "contradiction": (8, 3569552),
    "truth": (8, 3569552),
    "axiom-truth": (8, 3569552),
    "axiom-no-contradiction": (8, 3569552),
    "axiom-superadditivity": (1728, 768809472),
    "axiom-grand-coalition": (8, 3539968),
    "inability-definition": (64, 28556416),
    "ability-distribution": (66, 29271378),
    "strategic-impotence": (1, 938),
}


def test_catalog_at_three_agents():
    report = run_laws(Bounds(3, 3, 2, ("p", "q")))
    assert report.passed
    got = {r.law_id: (r.instantiations, r.models_checked)
           for r in report.results}
    assert got == THREE_AGENTS
    assert sum(models for _, models in got.values()) == 2_545_824_786
