"""Frame-major engine against the reference semantics."""

from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from clic import (
    Ability, And, Atom, Bounds, Coalition, Counterexample, Inability, Not,
    apply, check_truth_preservation, complement, default_bounds,
    enumerate_formulas, enumerate_models, extension, max_agent, modal_depth,
    parse_formula, profiles, propositions_of,
)
from clic._eval import (
    ModelContext, SearchTooLarge, Table, _block, _column, _plan, _reach_work,
    blocks, compile_formula, first_failure,
)
from clic.errors import ClicError
from clic.formula import MAX_REACH_WORK
from clic.validity import _search

PROPS = ("p", "q")
SPACE = Bounds(2, 2, 2, PROPS, vary_all_states=True)
FORMULAS = list(enumerate_formulas(PROPS, 2, 2))


def _indexed(b):
    """(block, valuation, frame tuple, model) for every model of b."""
    out = []
    for block in blocks(b):
        frames = list(block.frames())
        for v in range(block.n_valuations):
            for fr in frames:
                out.append((block, v, fr, block.model(v, fr)))
    return out


MODELS = _indexed(SPACE)


def bitmask(m, f):
    ext = extension(m, f)
    return sum(1 << i for i, s in enumerate(m.states) if s in ext)


def _row(m, s):
    """Number of s's outcome row: its targets as base-|S| digits."""
    row = 0
    for prof in product(*m.actions):
        row = row * len(m.states) + m.states.index(m.outcome[(s, prof)])
    return row


def test_blocks_rebuild_enumerate_models():
    for b in (SPACE, default_bounds(), Bounds(1, 2, 3, (), True),
              Bounds(3, 2, 1, ("p",))):
        indexed = _indexed(b)
        assert [m for *_, m in indexed] == list(enumerate_models(b))
        for block, v, fr, m in indexed:
            assert fr == tuple(_row(m, s) for s in m.states)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MODELS), st.sampled_from(FORMULAS))
def test_engines_agree(entry, f):
    block, v, fr, m = entry
    assume(max_agent(f) <= m.n_agents)
    value = block.at(compile_formula(f)(block), fr)
    got = sum((x >> v & 1) << i for i, x in enumerate(value))
    assert got == bitmask(m, f)


def test_row_cache_is_shared_per_bounds():
    b = default_bounds()
    first, again = list(blocks(b)), list(blocks(b))
    assert all(x is y for x, y in zip(first, again))
    # A block depends on what it is, not on the maxima around it.
    assert all(x is y for x, y in zip(blocks(Bounds(2, 3, 2, PROPS)), first))
    narrow = blocks(Bounds(1, 2, 2, PROPS))
    assert {id(x) for x in narrow} <= {id(x) for x in first}
    # Reach sets depend on the state count and action sizes only, so
    # blocks of different bounds share them: the second bind builds none.
    other = next(x for x in blocks(Bounds(2, 3, 2, ("p",)))
                 if x.sizes == (2, 2) and x.n_states == 3)
    mine = next(x for x in first if x.sizes == (2, 2) and x.n_states == 3)
    assert other is not mine
    _column.cache_clear()
    for block in (other, mine):
        block.memo.clear()
        compile_formula(parse_formula("E[1,2] p"))(block)
    assert _column.cache_info()[:2] == (1, 1)     # hits, misses
    # At default bounds the cache is a few hundred small tuples.
    keys = {(x.n_states, x.sizes) for x in first}
    assert sum(len(_column(k, sizes, c)) for k, sizes in keys
               for c in range(1 << len(sizes))) == 568


def test_reach_work_counts_what_the_reach_sets_take():
    """A floor per agent, state and complete profile; per coalition named
    within the agents and per complete profile, a share of the agents and
    a reach-set entry per outcome row."""
    for block in blocks(Bounds(3, 3, 2, PROPS)):
        n, k, profiles = block.n_agents, block.n_states, prod(block.sizes)
        everyone = range(1 << n)
        rows = {len(_column(k, block.sizes, c)) for c in everyone}
        assert rows == {k ** profiles}
        floor = n + k + profiles
        assert _reach_work(k, block.sizes, ()) == floor
        assert _reach_work(k, block.sizes, {1 << n}) == floor
        assert _reach_work(k, block.sizes, everyone) == floor + (
            (1 << n) * profiles * (n + rows.pop()))


def test_search_builds_and_is_charged_for_the_coalitions_it_names():
    """E[1] p | I[1] p names coalition [1] alone: each block it exhausts
    builds that coalition's reach sets and no other, and the search is
    charged for those and the blocks' floors."""
    b, masks = Bounds(2, 3, 2, ("p",)), frozenset({1})
    _block.cache_clear()
    _column.cache_clear()
    verdict, _, _ = _search(parse_formula("E[1] p | I[1] p"), b)
    assert verdict.models_checked == sum(x.n_models for x in blocks(b))
    plan, stop = _plan(b, 1, masks)
    assert stop is None
    # One column a block was built; reading mask 1's of each builds none.
    built = _column.cache_info()
    assert built.currsize == built.misses == len(plan)
    work = 0
    for n, k, sizes, charged in plan:
        column = _column(k, sizes, 1)
        work += n + k + prod(sizes) + prod(sizes) * (n + len(column))
        assert charged == work
    assert _column.cache_info().misses == built.misses


def test_search_stops_at_the_block_past_the_reach_bound():
    b, everyone = Bounds(4, 2, 2, PROPS), frozenset(range(16))
    assert _plan(b, 1, None) == _plan(b, 1, everyone)
    reached = []
    with pytest.raises(SearchTooLarge) as exc:
        for block in blocks(b, 1, everyone):
            reached.append((block.n_agents, block.n_states, block.sizes))
    assert isinstance(exc.value, ClicError)
    assert "agents 4, states 2" in str(exc.value)
    # Every block before it is built, and the steps they take fit.
    assert sum(_reach_work(k, sizes, everyone) for _, k, sizes in reached
               ) <= MAX_REACH_WORK
    assert reached[-1] == (4, 2, (2, 2, 2, 1))
    # Charged for its floors alone, the same space fits; the translation
    # grid walks every model, and is charged for every coalition.
    assert len(list(blocks(b))) == len(reached) + 1
    with pytest.raises(SearchTooLarge):
        check_truth_preservation(b, 0)


def test_tracer_seams_exist():
    """The benchmark's tracer (perfbench/tracing.py) wraps these by name."""
    assert "__init__" in vars(ModelContext)
    compiled = compile_formula(Not(Atom("p")))
    block = next(blocks(SPACE))
    assert type(compiled(block)) is tuple
    verdict, models, states = _search(Atom("p"), SPACE)
    assert isinstance(verdict, Counterexample)
    assert models == verdict.models_checked and states >= models
    # The tracer wraps the compiled callable in a plain function, so the
    # engine must pick its path from the value, not from the callable.
    block = list(blocks(SPACE))[-1]
    for text, form in (("p & !q", tuple), ("E[1] p -> I[2] q", Table),
                       ("E[1] I[2] p -> p", None)):
        compiled = compile_formula(parse_formula(text))
        value = compiled(block)
        assert type(value) is form if form else callable(value)
        got = first_failure(compiled, block)
        assert first_failure(lambda block: compiled(block), block) == got
        assert got[1] is not None, text


def test_unknown_atom_is_rejected_when_bound():
    compiled = compile_formula(Atom("r"))
    with pytest.raises(ValueError):
        compiled(next(blocks(SPACE)))


def _minimal(sets):
    sets = set(sets)
    return sorted(s for s in sets if not any(o < s for o in sets))


def test_reach_sets_match_joint_actions():
    """Each row's minimal reach sets are those of the model's actions."""
    for block, v, fr, m in MODELS:
        if v:
            continue        # reach sets do not depend on the valuation
        for mask in range(1 << m.n_agents):
            c = Coalition.from_bitmask(mask)
            others = list(profiles(m, complement(m, c)))
            for i, s in enumerate(m.states):
                want = _minimal(
                    frozenset(m.states.index(apply(m, s, pc, pd))
                              for pd in others)
                    for pc in profiles(m, c))
                column = _column(block.n_states, block.sizes, mask)
                got = sorted(frozenset(r) for r in column[fr[i]])
                assert got == want


# ---------------------------------------------------------------------------
# Searches against a plain loop over enumerate_models

ORACLE_BOUNDS = (
    Bounds(2, 2, 1, PROPS, True),
    Bounds(1, 2, 2, ("p",), True),
    Bounds(2, 3, 1, ("p",)),
    Bounds(2, 2, 2, ("p",)),
    Bounds(2, 2, 2, (), True),
    Bounds(1, 1, 1, ()),
)


def _searchable(b):
    return [f for f in FORMULAS
            if set(propositions_of(f)) <= set(b.props)
            and max_agent(f) <= b.max_agents
            and (b.vary_all_states or modal_depth(f) < 2)]


def oracle(f, b):
    need = max_agent(f)
    models = states = 0
    for m in enumerate_models(b):
        if m.n_agents < need:
            continue
        models += 1
        states += len(m.states)
        ext = extension(m, f)
        for s in m.states:
            if s not in ext:
                return (m, s), models, states
    return None, models, states


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_BOUNDS).flatmap(
    lambda b: st.tuples(st.just(b), st.sampled_from(_searchable(b)))),
    st.booleans())
def test_search_matches_oracle(case, negate):
    """Counterexamples to f, or with negate to !f: models of f."""
    b, f = case
    if negate:
        f = Not(f)
    verdict, models, states = _search(f, b)
    hit, want_models, want_states = oracle(f, b)
    assert (models, states) == (want_models, want_states)
    assert isinstance(verdict, Counterexample) == (hit is not None)
    if hit is not None:
        assert (verdict.model, verdict.state) == hit
        assert verdict.models_checked == models
    else:
        assert (verdict.models_checked, verdict.states_checked) == (
            models, states)


def test_tables_match_oracle_exhaustively():
    """Every depth-1 formula over p, the conjunctions of an E and an I
    over p, and their negations, searched through per-row tables against
    the plain loop over enumerate_models, with every state varying and
    with only the initial one."""
    flat = list(enumerate_formulas(("p",), 2, 1))
    p = Atom("p")
    pairs = [And(e, i) for e in flat if type(e) is Ability and e.body == p
             for i in flat if type(i) is Inability and i.body == p]
    later = 0   # failures at a state after s1, in a frame after the first
    for b in (Bounds(2, 2, 2, ("p",), True), Bounds(2, 2, 2, ("p",))):
        first = {(x.n_agents, x.n_states, x.sizes):
                 tuple(ch[0] for ch in x.choices) for x in blocks(b)}
        for f in flat + pairs:
            for g in (f, Not(f)):
                verdict, models, states = _search(g, b)
                hit, want_models, want_states = oracle(g, b)
                assert (models, states) == (want_models, want_states), g
                assert isinstance(verdict, Counterexample) == (
                    hit is not None), g
                if hit is None:
                    continue
                m, s = hit
                assert (verdict.model, verdict.state) == (m, s), g
                key = (m.n_agents, len(m.states), tuple(map(len, m.actions)))
                frame = tuple(_row(m, t) for t in m.states)
                later += s != "s1" and frame != first[key]
    assert later
