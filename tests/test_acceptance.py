"""End-to-end acceptance checks.

One test per criterion; `pytest -v tests/test_acceptance.py` prints one
pass/fail line for each.  Runtime tolerances are pinned here, not in a
config file, so a regression shows up as a plain test failure.
"""

import itertools
import time

import pytest

from clic import (
    Ability, Atom, Bot, Bounds, Coalition, Inability, Not, Top,
    catalog, check_ability, check_inability, check_truth_preservation,
    default_bounds, enumerate_formulas, enumerate_models, extensions,
    fixture_model, max_agent, parse_formula, parse_model, print_formula,
    print_model, replay_fixture, run_laws, satisfies,
)
from clic.cli import main
from clic.semantics import verify_ability_witness, verify_inability_witness

LAWS_TOTAL_BUDGET = 60.0      # seconds, whole catalog at default bounds
INVALID_ROW_BUDGET = 2.0      # seconds, first counterexample per row
PRESERVATION_BUDGET = 300.0   # seconds, full translation grid

BY_ID = {law.id: law for law in catalog()}


@pytest.fixture(scope="module")
def laws_report():
    return run_laws()


def test_criterion_1_table_reproduction(laws_report):
    """Every table row reproduces its verdict at default bounds."""
    assert laws_report.bounds == default_bounds()
    assert laws_report.passed

    table_rows = [r for r in laws_report.results
                  if BY_ID[r.law_id].group != "axiom"
                  and r.expected != "satisfiable"]
    assert len(table_rows) == 22
    for r in table_rows:
        assert r.observed == r.expected, r.law_id

    invalid = [r for r in laws_report.results if r.expected == "invalid"]
    assert len(invalid) == 12
    for r in invalid:
        assert r.evidence is not None and r.instance is not None, r.law_id
        assert not satisfies(r.evidence.model, r.evidence.state,
                             r.instance), r.law_id
        assert r.elapsed < INVALID_ROW_BUDGET, (r.law_id, r.elapsed)

    total = sum(r.elapsed for r in laws_report.results)
    assert total < LAWS_TOTAL_BUDGET, total


def test_criterion_2_fixture_regression():
    """The seven pinned fixture models replay every recorded fact."""
    fixtured = [law for law in catalog() if law.fixture is not None]
    names = {law.fixture.model_name for law in fixtured}
    assert names == {"m1", "covariance", "conjunction_upward",
                     "disjunction_downward", "excluded_middle", "symmetry",
                     "matching_pennies"}
    for law in fixtured:
        assert replay_fixture(law), law.id

    pennies = fixture_model("matching_pennies")
    assert satisfies(pennies, "s", parse_formula("I[1] p"))
    assert not satisfies(pennies, "s", parse_formula("E[2] !p"))


def test_criterion_3_translation_oracle():
    """Eliminating inability never changes a truth value on the grid."""
    start = time.perf_counter()
    rep = check_truth_preservation(Bounds(2, 2, 2, ("p",), True), 2)
    elapsed = time.perf_counter() - start

    assert rep.violations == ()
    assert rep.formulas_checked == 1875
    assert rep.models_checked == 1260
    assert rep.total_checks == 4_537_188
    assert elapsed < PRESERVATION_BUDGET, elapsed

    # Independent recount: a formula visits every state of every model
    # whose agent count covers it.
    fs = list(enumerate_formulas(("p",), 2, 2))
    narrow = sum(1 for f in fs if max_agent(f) <= 1)
    states = {1: 0, 2: 0}
    for m in enumerate_models(Bounds(2, 2, 2, ("p",), True)):
        states[m.n_agents] += len(m.states)
    both = states[1] + states[2]
    assert rep.total_checks == narrow * both + (len(fs) - narrow) * states[2]


def test_criterion_4_duality_invariant():
    """I[C] f is everywhere the complement of E[C] f, plus boundaries."""
    b = default_bounds(("p",))
    fs = list(enumerate_formulas(("p",), 2, 1))
    coals = [Coalition(()), Coalition((1,)), Coalition((2,)),
             Coalition((1, 2))]
    pairs = 0
    for m in enumerate_models(b):
        full = frozenset(m.states)
        grand = Coalition(tuple(range(1, m.n_agents + 1)))
        empty = Coalition(())
        fits = [f for f in fs if max_agent(f) <= m.n_agents]
        cs = [c for c in coals if c.max_agent() <= m.n_agents]
        asked = [g for f in fits for g in (
            Inability(grand, f), Ability(empty, Not(f)),
            Inability(empty, f), Ability(grand, Not(f)),
            *(op(c, f) for c in cs for op in (Ability, Inability)))]
        ext = dict(zip(asked, extensions(m, asked)))
        for f in fits:
            for c in cs:
                assert ext[Inability(c, f)] == full - ext[Ability(c, f)]
                pairs += 1
            assert ext[Inability(grand, f)] == ext[Ability(empty, Not(f))]
            assert ext[Inability(empty, f)] == ext[Ability(grand, Not(f))]
    assert pairs == 151_464


def test_criterion_5_axiom_soundness(laws_report):
    """(T), (M), (S), (G), (Iab-Def) survive the bounded search."""
    axiom_ids = ("axiom-truth", "axiom-no-contradiction",
                 "axiom-superadditivity", "axiom-grand-coalition",
                 "inability-definition")
    rows = {r.law_id: r for r in laws_report.results}
    for law_id in axiom_ids:
        r = rows[law_id]
        assert r.observed == "valid" and r.passed, law_id
        assert r.evidence is None, law_id
    # The superadditivity scheme instantiates only disjoint pairs.
    assert rows["axiom-superadditivity"].instantiations == 576


def test_criterion_6_witness_soundness():
    """Every returned witness replays against the raw semantics."""
    b = default_bounds(("p",))
    goals = [Atom("p"), Not(Atom("p")), Top(), Bot()]
    coals = [Coalition(()), Coalition((1,)), Coalition((2,)),
             Coalition((1, 2))]
    returned = verified = 0
    for m in enumerate_models(b):
        fit = [c for c in coals if c.max_agent() <= m.n_agents]
        for s in m.states:
            for c in fit:
                for g in goals:
                    able, witness = check_ability(m, s, c, g)
                    if able:
                        returned += 1
                        verified += verify_ability_witness(m, s, c, g,
                                                           witness)
                    unable, witness = check_inability(m, s, c, g)
                    if unable:
                        returned += 1
                        verified += verify_inability_witness(m, s, c, g,
                                                             witness)
    assert returned == verified == 45_344


@pytest.mark.slow
def test_criterion_7_round_trip_properties():
    """Print then parse is the identity for formulas and models."""
    count = 0
    for f in enumerate_formulas(("p", "q"), 2, 3):
        count += 1
        if parse_formula(print_formula(f)) != f:
            pytest.fail(f"formula round-trip failed: {f!r}")
    assert count == 13_311_536

    models = 0
    for m in itertools.islice(enumerate_models(default_bounds()), 1000):
        models += 1
        if parse_model(print_model(m)) != m:
            pytest.fail(f"model round-trip failed:\n{print_model(m)}")
    assert models == 1000


def test_criterion_8_pipe_through(capsys, tmp_path):
    """Every emitted countermodel re-parses and falsifies its formula."""
    texts = [law.fixture.instance for law in catalog()
             if law.expected == "invalid" and law.fixture is not None]
    texts.append("E[1] (p -> q) -> (E[1] p -> E[1] q)")
    assert len(texts) == 12

    for i, text in enumerate(texts):
        code = main(["countermodel", text])
        out = capsys.readouterr().out
        assert code == 1, text
        lines = out.splitlines()
        assert lines[-1].startswith("at: "), text
        state = lines[-1].split(": ")[1]
        path = tmp_path / f"cm{i}.clm"
        path.write_text("\n".join(lines[:-1]) + "\n")

        code = main(["check", str(path), text, "--state", state])
        out = capsys.readouterr().out
        assert code == 1, text
        assert out.splitlines()[0] == "result: false", text
