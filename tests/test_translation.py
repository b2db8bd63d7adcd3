"""Inability elimination and truth preservation."""

import pytest
from hypothesis import given, settings, strategies as st

from clic import (
    Ability, And, Atom, Bounds, BoundsInsufficientForFormula, BoundsTooSmall,
    Coalition, Iff, Implies, Inability, Not, Or, SearchTooLarge, Top,
    check_truth_preservation, is_cl_fragment, modal_depth, parse_formula,
    print_formula, translate,
)

coalitions = st.builds(
    Coalition, st.frozensets(st.integers(min_value=1, max_value=3)))
atoms = st.sampled_from([Atom("p"), Atom("q"), Atom("r")])


def formulas(max_leaves=25):
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
            st.builds(Ability, coalitions, sub),
            st.builds(Inability, coalitions, sub),
        ),
        max_leaves=max_leaves)


def size(f):
    kids = getattr(f, "left", None)
    if kids is not None:
        return 1 + size(f.left) + size(f.right)
    body = getattr(f, "body", None)
    if body is not None:
        return 1 + size(body)
    return 1


@pytest.mark.parametrize("source, expected", [
    ("I[1] p", "!E[1] p"),
    ("I[] true", "!E[] true"),
    ("E[1] I[2] q", "E[1] !E[2] q"),
    ("I[1] I[1] p", "!E[1] !E[1] p"),
    ("p & q", "p & q"),
    ("E[1,2] (p -> q)", "E[1,2] (p -> q)"),
    ("!(I[1] p | q)", "!(!E[1] p | q)"),
])
def test_translate_examples(source, expected):
    assert print_formula(translate(parse_formula(source))) == expected


@pytest.mark.parametrize("text, expected", [
    ("p", True),
    ("E[1] (p & !q)", True),
    ("!E[1] p", True),
    ("I[1] p", False),
    ("E[1] I[2] p", False),
    ("true", True),
])
def test_is_cl_fragment(text, expected):
    assert is_cl_fragment(parse_formula(text)) is expected


def test_translate_preserves_untouched_nodes():
    f = parse_formula("E[1] (p -> false)")
    assert translate(f) is not None
    assert print_formula(translate(f)) == print_formula(f)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_translate_lands_in_fragment(f):
    assert is_cl_fragment(translate(f))


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_translate_is_idempotent(f):
    once = translate(f)
    assert translate(once) == once


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_translate_preserves_modal_depth(f):
    assert modal_depth(translate(f)) == modal_depth(f)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_translate_grows_by_at_most_one_node_per_inability(f):
    assert size(f) <= size(translate(f)) <= 2 * size(f)


def test_preservation_small_grid():
    from clic import enumerate_models

    b = Bounds(1, 2, 2, ("p",))
    rep = check_truth_preservation(b, 1)
    assert rep.violations == ()
    assert rep.formulas_checked == 27
    assert rep.models_checked == 28
    states = sum(len(m.states) for m in enumerate_models(b))
    assert rep.total_checks == 27 * states == 1404


def test_preservation_counts_skip_small_models():
    from clic import enumerate_formulas, enumerate_models, max_agent

    b = Bounds(2, 2, 1, ("p",))
    rep = check_truth_preservation(b, 1)
    assert rep.violations == ()
    # Every formula visits every state of every model with enough
    # agents for it, and nothing else.
    fs = list(enumerate_formulas(("p",), 2, 1))
    narrow = sum(1 for f in fs if max_agent(f) <= 1)
    want = 0
    for m in enumerate_models(b):
        fits = len(fs) if m.n_agents >= 2 else narrow
        want += len(m.states) * fits
    assert rep.formulas_checked == len(fs) == 39
    assert rep.total_checks == want == 1188


def test_preservation_reports_each_disagreement(monkeypatch):
    from collections import Counter

    import clic.translation
    from clic import enumerate_formulas, enumerate_models, print_model
    from clic import satisfies

    # A faulty translation that also demands p disagrees exactly where
    # f holds and p does not, which differs from valuation to valuation.
    monkeypatch.setattr(clic.translation, "translate",
                        lambda f: And(f, Atom("p")))
    b = Bounds(1, 2, 2, ("p",), True)
    rep = check_truth_preservation(b, 1)
    fs = list(enumerate_formulas(("p",), 1, 1))
    want = Counter((f, print_model(m), s) for m in enumerate_models(b)
                   for f in fs for s in m.states
                   if satisfies(m, s, f) and s not in m.valuation["p"])
    assert want
    assert Counter((f, print_model(m), s)
                   for f, m, s in rep.violations) == want


def test_preservation_rejects_bad_grids():
    with pytest.raises(BoundsTooSmall):
        check_truth_preservation(Bounds(1, 1, 1), -1)
    with pytest.raises(BoundsInsufficientForFormula):
        check_truth_preservation(Bounds(1, 2, 2, ("p",)), 2)


def test_preservation_refuses_a_grid_too_large_to_search():
    """The error its docstring names is one `clic` exports."""
    with pytest.raises(SearchTooLarge):
        check_truth_preservation(Bounds(10_000, 1, 1, ("p",)), 1)
