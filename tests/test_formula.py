"""Formula parsing, printing, hashing, and canonical enumeration."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import clic
from clic import (
    Ability, And, Atom, Bot, Coalition, DuplicateAgentInCoalition, Iff,
    Implies, Inability, Not, Or, ParseError, Top, ast_dump,
    enumerate_formulas, modal_depth, parse_formula, print_formula,
    propositions_of,
)
from clic.formula import MAX_AGENT

p, q, r = Atom("p"), Atom("q"), Atom("r")


# ---------------------------------------------------------------------------
# Coalitions

def test_coalition_normalizes_order():
    assert Coalition((2, 1)).members == (1, 2)
    assert repr(Coalition((2, 1))) == "[1,2]"
    assert repr(Coalition.from_bitmask(0)) == "[]"


def test_coalition_rejects_bad_members():
    with pytest.raises(ValueError):
        Coalition((0,))
    with pytest.raises(ValueError):
        Coalition((1, 1))
    for agent in (MAX_AGENT + 1, 10 ** 20):
        with pytest.raises(ValueError, match="run from 1 to"):
            Coalition((1, agent))
    assert Coalition((MAX_AGENT,)).mask == 1 << (MAX_AGENT - 1)


def test_coalition_bitmask_round_trip():
    for mask in range(16):
        assert Coalition.from_bitmask(mask).mask == mask
    assert Coalition((1, 3)).mask == 0b101
    assert Coalition((1, 3)).max_agent() == 3
    assert Coalition((3, 1)).members == (1, 3)


# ---------------------------------------------------------------------------
# Parsing

@pytest.mark.parametrize("text,ast", [
    ("p", p),
    ("true", Top()),
    ("false", Bot()),
    ("!p", Not(p)),
    ("p & q", And(p, q)),
    ("p | q", Or(p, q)),
    ("p -> q", Implies(p, q)),
    ("p <-> q", Iff(p, q)),
    ("E[1] p", Ability(Coalition((1,)), p)),
    ("I[1,2] p", Inability(Coalition((1, 2)), p)),
    ("E[] false", Ability(Coalition.from_bitmask(0), Bot())),
    ("E[000001] p", Ability(Coalition((1,)), p)),
])
def test_parse_atoms_and_connectives(text, ast):
    assert parse_formula(text) == ast


def test_precedence_layers():
    assert parse_formula("p | q & r") == Or(p, And(q, r))
    assert parse_formula("p -> q | r") == Implies(p, Or(q, r))
    assert parse_formula("p <-> q -> r") == Iff(p, Implies(q, r))
    assert parse_formula("!p & q") == And(Not(p), q)
    assert parse_formula("E[1] p & q") == And(Ability(Coalition((1,)), p), q)
    assert parse_formula("I[2] !p") == Inability(Coalition((2,)), Not(p))


def test_associativity():
    assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse_formula("p <-> q <-> r") == Iff(Iff(p, q), r)
    assert parse_formula("p & q & r") == And(And(p, q), r)
    assert parse_formula("p | q | r") == Or(Or(p, q), r)


def test_parentheses_and_nesting():
    assert parse_formula("(p -> q) -> r") == Implies(Implies(p, q), r)
    assert parse_formula("E[1,2] (p & !q) -> I[1] false") == Implies(
        Ability(Coalition((1, 2)), And(p, Not(q))),
        Inability(Coalition((1,)), Bot()))
    assert parse_formula("!!E[1] E[2] p") == Not(Not(
        Ability(Coalition((1,)), Ability(Coalition((2,)), p))))


def test_atom_names():
    assert parse_formula("trueish") == Atom("trueish")
    assert parse_formula("p_1x") == Atom("p_1x")
    with pytest.raises(ParseError):
        parse_formula("P")


@pytest.mark.parametrize("text", [
    "", "p q", "p &", "& p", "(p", "p)", "E p", "E[1 p", "E[a] p",
    "E[0] p", "E[] ", "->", "p ->", "p <- q", "I[1,] p", "E[\u00b2] p",
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as info:
        parse_formula("E[1,]p")
    assert info.value.offset == 4
    assert "offset 4" in str(info.value)
    assert info.value.expected


def test_parse_error_at_end_of_input():
    with pytest.raises(ParseError) as info:
        parse_formula("p &")
    assert info.value.offset == 3


def test_nesting_bound_counts_height_not_size():
    wide = "p"
    for _ in range(10):     # 2,046 operators, height 20
        wide = f"({wide}) & !({wide})"
    f = parse_formula(wide)
    assert parse_formula(print_formula(f)) == f
    for text in ("!" * 5000 + "p", "(" * 5000 + "p" + ")" * 5000,
                 " -> ".join(["p"] * 5000), "E[1] " * 5000 + "p"):
        with pytest.raises(ParseError, match="nested deeper than 100"):
            parse_formula(text)


def test_shallow_text_never_reports_nesting():
    """A stack exhausted by the caller is not blamed on a shallow text:
    parsing at every depth either works or raises RecursionError."""
    def parse_at(depth):
        return parse_at(depth - 1) if depth else parse_formula("!" * 20 + "p")
    for depth in range(sys.getrecursionlimit(), 0, -1):
        try:
            assert parse_at(depth) == parse_formula("!" * 20 + "p")
            break
        except RecursionError:
            pass
    assert depth > 0


def test_duplicate_agent_in_coalition():
    with pytest.raises(DuplicateAgentInCoalition):
        parse_formula("E[1,1] p")
    with pytest.raises(DuplicateAgentInCoalition):
        parse_formula("I[2,1,2] p")


# ---------------------------------------------------------------------------
# Printing

@pytest.mark.parametrize("text", [
    "p",
    "!p",
    "!!p",
    "p & q",
    "p & q & r",
    "p & (q & r)",
    "p | q & r",
    "(p | q) & r",
    "p -> q -> r",
    "(p -> q) -> r",
    "p <-> q <-> r",
    "p <-> (q <-> r)",
    "!(p & q)",
    "E[1] p",
    "E[] false",
    "I[1,2] (p & q)",
    "I[1] p -> I[1,2] p",
    "E[1] I[2] !p",
    "!E[] false",
])
def test_print_is_canonical(text):
    f = parse_formula(text)
    assert print_formula(f) == text


def test_print_drops_redundant_parens():
    assert print_formula(parse_formula("((p))")) == "p"
    assert print_formula(parse_formula("(p & q) & r")) == "p & q & r"
    assert print_formula(parse_formula("p -> (q -> r)")) == "p -> q -> r"
    assert print_formula(parse_formula("(E[1] p)")) == "E[1] p"


def test_ast_dump():
    f = parse_formula("I[1,2] (p & true)")
    assert ast_dump(f) == "Inability([1,2], And(Atom(p), Top))"
    assert ast_dump(f) == repr(f)


# ---------------------------------------------------------------------------
# Measures

def test_modal_depth():
    assert modal_depth(parse_formula("p & !q")) == 0
    assert modal_depth(parse_formula("E[1] p")) == 1
    assert modal_depth(parse_formula("I[1] E[2] p")) == 2
    assert modal_depth(parse_formula("E[1] p & I[2] q")) == 1
    assert modal_depth(parse_formula("!I[1] (p -> E[2] q)")) == 2


def test_propositions_of():
    assert propositions_of(parse_formula("q & p | !q")) == ("p", "q")
    assert propositions_of(parse_formula("true -> false")) == ()
    assert propositions_of(parse_formula("E[1] (p & p)")) == ("p",)


# ---------------------------------------------------------------------------
# Enumeration

def test_enumerate_depth_zero():
    got = list(enumerate_formulas(("p",), 1, 0))
    assert got == [p, Top(), Bot()]


def test_enumerate_depth_one_contents():
    got = list(enumerate_formulas(("p",), 1, 1))
    assert len(got) == len(set(got)) == 27
    assert got[:3] == [p, Top(), Bot()]
    for text in ["!p", "p & true", "E[] p", "E[1] p", "I[1] false"]:
        assert parse_formula(text) in got
    assert all(modal_depth(f) <= 1 for f in got)


def test_enumerate_respects_depth_bound():
    def depth(f):
        if isinstance(f, (Atom, Top, Bot)):
            return 0
        if isinstance(f, Not):
            return 1 + depth(f.body)
        if isinstance(f, (Ability, Inability)):
            return 1 + depth(f.body)
        return 1 + max(depth(f.left), depth(f.right))

    for f in enumerate_formulas(("p", "q"), 2, 2):
        assert depth(f) <= 2


def test_enumerate_counts_frozen():
    assert sum(1 for _ in enumerate_formulas(("p",), 1, 2)) == 867
    assert sum(1 for _ in enumerate_formulas(("p", "q"), 2, 2)) == 3644


def test_enumerate_is_deterministic():
    a = list(enumerate_formulas(("p", "q"), 2, 1))
    b = list(enumerate_formulas(("p", "q"), 2, 1))
    assert a == b
    assert len(a) == len(set(a))


def test_enumerate_validates_arguments():
    with pytest.raises(ValueError):
        list(enumerate_formulas(("p",), 0, 1))
    with pytest.raises(ValueError):
        list(enumerate_formulas(("p",), 1, -1))


# ---------------------------------------------------------------------------
# Hashing

def rebuild(f):
    """An equal copy of f made by the constructors, sharing no node."""
    if isinstance(f, Coalition):
        return Coalition(f.members)
    if isinstance(f, str):
        return f
    return type(f)(*(rebuild(getattr(f, name))
                     for name in f.__dataclass_fields__))


def test_hash_agrees_with_equality():
    """Equal formulas hash alike however they were built, and find each
    other as dict keys; hashing leaves repr and printing as they were."""
    for f in enumerate_formulas(("p", "q"), 2, 2):
        shown, text = repr(f), print_formula(f)
        for g in (parse_formula(text), rebuild(f)):
            assert g == f and f == g
            assert hash(g) == hash(f)
            assert {f: "found"}[g] == {g: "found"}[f] == "found"
        assert (repr(f), print_formula(f)) == (shown, text)
        assert "_hash" not in type(f).__dataclass_fields__


def test_cached_hash_stays_out_of_pickles_and_copies():
    """A hash stored in one process is never read in another: pickles
    and deep copies carry fields only."""
    text = "E[1] (p & !q) -> I[1,2] (p | q)"
    f = parse_formula(text)
    unhashed = pickle.dumps(f)
    hash(f)
    hashed = pickle.dumps(f)
    assert hashed == unhashed
    g = copy.deepcopy(f)
    assert g == f and hash(g) == hash(f) and {f: "found"}[g] == "found"

    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    src = os.path.dirname(os.path.dirname(clic.__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    lookup = ("import pickle, sys\n"
              "from clic import parse_formula\n"
              "f = pickle.loads(sys.stdin.buffer.read())\n"
              f"print({{parse_formula({text!r}): 'found'}}[f])\n")
    proc = subprocess.run([sys.executable, "-c", lookup], input=hashed,
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "found"


# ---------------------------------------------------------------------------
# Node classes: nodes with the same fields share one dataclass

FIELDS = {
    Atom: ("name",), Top: (), Bot: (), Not: ("body",),
    And: ("left", "right"), Or: ("left", "right"),
    Implies: ("left", "right"), Iff: ("left", "right"),
    Ability: ("coalition", "body"), Inability: ("coalition", "body"),
}
ARGUMENTS = {"name": "p", "body": p, "left": p, "right": q,
             "coalition": Coalition((1,))}


def example(cls):
    return cls(*(ARGUMENTS[name] for name in FIELDS[cls]))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_each_node_keeps_its_fields_and_contracts(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]
    assert cls.__match_args__ == FIELDS[cls]
    f = example(cls)
    for name in FIELDS[cls]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, q)
    for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert type(g) is cls and g == f and hash(g) == hash(f)


def test_nodes_of_one_shape_never_equal():
    """Equal fields under different classes are different formulas:
    And/Or/Implies/Iff, Ability/Inability, Top/Bot, and Not beside a
    modality over the same body."""
    nodes = [example(cls) for cls in FIELDS]
    for f in nodes:
        for g in nodes:
            assert (f == g) is (type(f) is type(g))
            assert (f != g) is (type(f) is not type(g))


def spelled(f):
    """f as nested tuples of its type and fields."""
    if not isinstance(f, clic.Formula):
        return f
    return (type(f), *(spelled(getattr(f, name))
                       for name in f.__dataclass_fields__))


def test_hash_is_the_hash_of_type_and_fields():
    """hash(f) == hash((type(f), *fields)) down the tree.  A class hashes
    by its address, so the values differ between processes even under
    one PYTHONHASHSEED; this identity is what a hash stored in a node
    keeps."""
    for text in ("p", "true", "false", "!p", "p & q", "p | q", "p -> q",
                 "p <-> q", "E[1,2] p", "I[] !p",
                 "E[1] (p & !q) -> I[1,2] (p | q) <-> true"):
        f = parse_formula(text)
        assert hash(f) == hash(spelled(f))


# ---------------------------------------------------------------------------
# Round-trip property

coalitions = st.one_of(
    st.just(Coalition.from_bitmask(0)),
    st.lists(st.integers(1, 3), min_size=1, max_size=3,
             unique=True).map(lambda xs: Coalition(tuple(xs))),
)

formulas = st.recursive(
    st.one_of(st.sampled_from([p, q, r, Top(), Bot()])),
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda t: And(*t)),
        st.tuples(kids, kids).map(lambda t: Or(*t)),
        st.tuples(kids, kids).map(lambda t: Implies(*t)),
        st.tuples(kids, kids).map(lambda t: Iff(*t)),
        st.tuples(coalitions, kids).map(lambda t: Ability(*t)),
        st.tuples(coalitions, kids).map(lambda t: Inability(*t)),
    ),
    max_leaves=25,
)


@given(formulas)
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(formulas)
def test_printed_form_is_stable(f):
    text = print_formula(f)
    assert print_formula(parse_formula(text)) == text


def test_parser_caches_are_bounded():
    for i in range(5000):
        parse_formula(f"E[{i % 7 + 1},{i + 8}] a{i}")
    assert clic.formula._leaf.cache_info().currsize <= 4096
    assert clic.formula._coalition.cache_info().currsize <= 4096
    # Repeated names still share one object, and keywords stay constants.
    f = parse_formula("a4999 & a4999 & true")
    assert f.left.left is f.left.right
    assert parse_formula("true") is parse_formula("true")
