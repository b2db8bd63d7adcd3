"""Frame-major engine against the reference semantics."""

import importlib.util
import tracemalloc
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from clic import (
    Ability, And, Atom, Bounds, Coalition, Counterexample, Inability, Not,
    check_truth_preservation, complement, default_bounds,
    enumerate_formulas, enumerate_models, extension, max_agent, modal_depth,
    parse_formula, profiles, propositions_of,
)
from clic._eval import (
    MAX_FRAME_WALK, MAX_REACH_WORK, SearchTooLarge, Table, _block, _column,
    _plan, _table, blocks, compile_formula, first_failure,
)
from clic.errors import ClicError
from clic.translation import MAX_FORMULAS
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


def test_a_block_names_its_states_once(monkeypatch):
    """The grid reads each model's names and valuation off its block,
    which lays them out once, on first use, not once per model."""
    import clic._eval as engine
    layout, built = engine._layout, []

    def spy(n_states, sizes):
        built.append((n_states, sizes))
        return layout(n_states, sizes)
    monkeypatch.setattr(engine, "_layout", spy)
    _block.cache_clear()
    report = check_truth_preservation(Bounds(1, 4, 1, ("p",)), 0)
    assert report.models_checked > 4 and not report.violations
    assert built == [(k, (1,)) for k in range(1, 5)]


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
    _table.cache_clear()
    for block in (other, mine):
        compile_formula(parse_formula("E[1,2] p"))(block)
    assert _column.cache_info()[:2] == (1, 1)     # hits, misses
    # At default bounds the cache maps a few hundred rows to classes.
    keys = {(x.n_states, x.sizes) for x in first}
    assert sum(len(_column(k, sizes, c)[1]) for k, sizes in keys
               for c in range(1 << len(sizes))) == 568


def _steps(plan):
    """Each entry's own steps, from the running sums _plan records."""
    sums = [entry[3] for entry in plan]
    return [now - before for before, now in zip([0] + sums, sums)]


def test_reach_work_counts_what_the_reach_sets_take():
    """A floor per agent, state and complete profile; per coalition named
    within the agents, a share of the agents per complete profile, and per
    outcome row a reach-set entry per complete profile and 8 for the row."""
    b = Bounds(3, 3, 2, PROPS)
    everyone = range(1 << 3)
    plans = {masks: _plan(b, 1, masks)[0]
             for masks in ((), (8,), everyone)}
    steps = {masks: _steps(plan) for masks, plan in plans.items()}
    for i, block in enumerate(blocks(b)):
        n, k, profiles = block.n_agents, block.n_states, prod(block.sizes)
        rows = {len(_column(k, block.sizes, c)[1]) for c in range(1 << n)}
        assert rows == {k ** profiles} == {block.rows}
        floor = n + k + profiles
        assert steps[()][i] == steps[(8,)][i] == floor
        assert steps[everyone][i] == floor + (
            (1 << n) * (profiles * n + rows.pop() * (profiles + 8)))


@pytest.mark.parametrize("b", [
    Bounds(2, 2, 2, PROPS), Bounds(2, 2, 2, PROPS, True),
    Bounds(1, 3, 2, ("p",), True), Bounds(3, 2, 1, ("p",)),
    Bounds(1, 2, 3, (), True)])
def test_plan_counts_every_block_once(b):
    """The frames and models the plan counts are the ones the blocks walk
    and the ones enumerate_models lists."""
    plan, stop = _plan(b, 1, ())
    space = list(blocks(b))
    assert stop is None and len(plan) == len(space)
    for entry, block in zip(plan, space):
        n, k, sizes, _, rows, frames = entry
        assert (n, k, sizes) == (block.n_agents, block.n_states, block.sizes)
        assert (rows, frames) == (block.rows, block.n_frames)
        assert block.n_frames == sum(1 for _ in block.frames())
    assert sum(x.n_models for x in space) == sum(
        1 for _ in enumerate_models(b))


def test_search_builds_and_is_charged_for_the_coalitions_it_names():
    """E[1] p | I[1] p names coalition [1] alone: each block it exhausts
    builds that coalition's reach sets and no other, and the search is
    charged for those and the blocks' floors."""
    b, masks = Bounds(2, 3, 2, ("p",)), (1,)
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
    for n, k, sizes, charged, _, _ in plan:
        _, classes = _column(k, sizes, 1)
        p = prod(sizes)
        work += n + k + p + p * n + len(classes) * (p + 8)
        assert charged == work
    assert _column.cache_info().misses == built.misses


def test_search_stops_at_the_block_past_the_reach_bound():
    b, everyone = Bounds(4, 2, 2, PROPS), range(16)
    reached = []
    with pytest.raises(SearchTooLarge) as exc:
        for block in blocks(b, 1, everyone):
            reached.append((block.n_agents, block.n_states, block.sizes))
    assert isinstance(exc.value, ClicError)
    assert "agents 4, states 2" in str(exc.value)
    # Every block before it is built, and the steps they take fit.
    plan = _plan(b, 1, everyone)[0]
    assert [entry[:3] for entry in plan] == reached
    assert plan[-1][3] <= MAX_REACH_WORK
    assert reached[-1] == (4, 2, (2, 2, 2, 1))
    # Charged for its floors alone, the same space fits; the translation
    # grid walks every model, and is charged for every coalition.
    assert len(list(blocks(b))) == len(reached) + 1
    with pytest.raises(SearchTooLarge):
        check_truth_preservation(b, 0)


@pytest.mark.parametrize("bound, value, b, walks, at_edge, why", [
    (None, None, Bounds(1, 19, 1, ("p",)), False,
     lambda plan: 1 << plan[-1][1] == 1 << 18, f"over {1 << 18} valuations"),
    ("MAX_REACH_WORK", 65, Bounds(1, 3, 1, ("p",)), False,
     lambda plan: plan[-1][3] == 65, "its blocks take over 65 steps to build"),
    ("MAX_FRAME_BITS", 1, Bounds(1, 3, 1, ("p",)), False,
     lambda plan: plan[-1][5] == 1 << 1, "over 2**1 frames"),
    ("MAX_FRAME_WALK", 5, Bounds(1, 3, 1, ("p",), True), True,
     lambda plan: sum(entry[5] for entry in plan) == 5,
     "it walks over 5 frames"),
], ids=["valuations", "steps", "frame-bits", "walk"])
def test_plan_bound_edges(monkeypatch, request, bound, value, b, walks,
                          at_edge, why):
    """Each bound lets the block exactly at it through and refuses the
    next: 2**18 valuations at 18 states; 65 steps, 2 frames (2**1) and 5
    walked frames (1 + 4) by the block of 2 states, whose successor of
    3 states is past each of them."""
    _plan.cache_clear()
    request.addfinalizer(_plan.cache_clear)
    if bound:
        monkeypatch.setattr(f"clic._eval.{bound}", value)
    plan, stop = _plan(b, 1, range(2), walks)
    assert (plan[-1][1], len(plan)) == (b.max_states - 1,) * 2
    assert at_edge(plan)
    assert stop == (f"search too large: {why}, at the block of agents 1, "
                    f"states {b.max_states}")


@pytest.mark.parametrize("n", [17, 30, 64, 10_000])
@pytest.mark.parametrize("depth", [0, 1])
def test_grid_is_sized_before_it_builds_anything(n, depth):
    """Every coalition of n agents is charged from a range, and the plan
    refuses before a formula or a coalition is built."""
    _plan.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(SearchTooLarge) as exc:
            check_truth_preservation(Bounds(n, 1, 1, ("p",)), depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (
        f"search too large: its blocks take over {MAX_REACH_WORK} steps "
        "to build, at the block of agents 16, states 1")
    assert peak < 1 << 20


@pytest.mark.parametrize("k", [1, 2])
def test_walk_bound_lets_depth_2_searches_at_default_bounds_through(k):
    """A depth-2 search walks every frame of each block it reaches: with
    every state varying at default bounds, 533,222 frames from two agents
    on, and 778 more with one."""
    plan, stop = _plan(Bounds(2, 3, 2, ("p",), True), k, range(4), True)
    assert stop is None
    assert sum(entry[5] for entry in plan) == {1: 534_000, 2: 533_222}[k]


def test_grid_is_charged_for_the_frames_it_walks(monkeypatch):
    """One agent, 4 states and 3 actions, every state varying, reach a
    block of 64**4 frames: the grid refuses before it binds a formula."""
    def refuse(g, block):
        raise AssertionError(f"bound {g!r}")
    monkeypatch.setattr("clic._eval._bind", refuse)
    with pytest.raises(SearchTooLarge) as exc:
        check_truth_preservation(Bounds(1, 4, 3, ("p",), True), 0)
    assert str(exc.value) == (
        f"search too large: it walks over {MAX_FRAME_WALK} frames, at the "
        "block of agents 1, states 4")


def test_grid_counts_its_formulas_before_it_translates_one(monkeypatch):
    """At depth 3 one agent gives 756,027 formulas: the grid stops at the
    first past MAX_FORMULAS, before it translates any or asks whether the
    bounds can search it."""
    def refuse(f):
        raise AssertionError(f"translated {f!r}")
    monkeypatch.setattr("clic.translation.translate", refuse)
    with pytest.raises(ClicError, match=f"over {MAX_FORMULAS} formulas"):
        check_truth_preservation(Bounds(1, 1, 1, ("p",)), 3)


@pytest.mark.parametrize("b", [
    Bounds(3, 2, 2, ("p",)), Bounds(2, 3, 2, PROPS, True),
    Bounds(1, 18, 1, ("p",))])
def test_one_plan_for_every_form_of_the_same_masks(b):
    for n in range(min(b.max_agents, 3) + 1):
        for k in (1, 2):
            masks = range(1 << n)
            assert _plan(b, k, masks) == _plan(b, k, tuple(masks))


def test_tracer_seams_exist():
    """The benchmark's tracer (perfbench/tracing.py) wraps these by name.
    A target it cannot find reads 0 in every metric, and a "method"
    target whose class is gone crashes `tracing.install()`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, module_name, attr, kind in tracing.TARGETS:
        if name == "eval.build_space":      # gone with the per-model engine
            continue
        owner, _, leaf = attr.rpartition(".")
        holder = importlib.import_module(module_name)
        if kind == "method":
            holder = getattr(holder, owner, None)
            assert isinstance(holder, type), name
            assert leaf in vars(holder), name
        assert callable(getattr(holder, leaf, None)), name
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
    """The minimal sets among `sets`, an antichain, as a set."""
    sets = set(sets)
    return {s for s in sets if not any(o < s for o in sets)}


def test_reach_sets_match_joint_actions():
    """Each row's minimal reach sets, read through its class, are those
    of the model's actions."""
    for block, v, fr, m in MODELS:
        if v:
            continue        # reach sets do not depend on the valuation
        for mask in range(1 << m.n_agents):
            c = Coalition.from_bitmask(mask)
            others = list(profiles(m, complement(m, c)))
            for i, s in enumerate(m.states):
                # Merged here, independent of the semantics' `_Game`.
                want = _minimal(
                    frozenset(m.states.index(m.outcome[s, tuple(
                        act for _, act in sorted(pc.choices + pd.choices))])
                        for pd in others)
                    for pc in profiles(m, c))
                families, classes = _column(
                    block.n_states, block.sizes, mask)
                got = set(map(frozenset, families[classes[fr[i]]]))
                assert got == want


def _row_reach(sizes, mask, row):
    """A row's minimal reach sets, from its targets per complete profile,
    grouped by the choices of the coalition's agents."""
    reach = {}
    for prof, target in zip(product(*map(range, sizes)), row):
        key = tuple(a for i, a in enumerate(prof) if mask >> i & 1)
        reach.setdefault(key, set()).add(target)
    return _minimal(map(frozenset, reach.values()))


@pytest.mark.parametrize("k, sizes, counts", [
    (3, (2, 2, 2), (7, 16, 16, 17, 16, 17, 17, 7)),
    (3, (2, 2), (7, 15, 15, 7)),    # the default block
])
def test_rows_of_a_class_share_its_reach_sets(k, sizes, counts):
    """Per coalition, a class's family is each of its rows' minimal reach
    sets; families differ as sets; class k's least row grows with k."""
    rows = list(product(range(k), repeat=prod(sizes)))
    for mask, count in enumerate(counts):
        families, classes = _column(k, sizes, mask)
        assert len(classes) == len(rows)
        for row, c in zip(rows, classes):
            assert set(map(frozenset, families[c])) == _row_reach(
                sizes, mask, row)
        assert len({frozenset(map(frozenset, f)) for f in families}) == len(
            families) == count
        firsts = [classes.index(c) for c in range(count)]
        assert firsts == sorted(set(firsts))
        assert set(classes) == set(range(count))


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


@pytest.mark.parametrize("b", [
    Bounds(1, 3, 2, ("p",), True), Bounds(2, 2, 2, ("p",), True)])
@pytest.mark.parametrize("text", [
    "p -> E[1] E[1] p", "E[1] E[1] p -> p", "!p -> I[1] E[1] p"])
@pytest.mark.parametrize("negate", [False, True])
def test_frame_walks_match_oracle(b, text, negate):
    """Depth-2 formulas, whose first failures a frame walk finds: some
    hold at one state of a model and fail at another, so a walk that
    missed a failure at some states would report a false exhaustion."""
    f = parse_formula(text)
    if negate:
        f = Not(f)
    assert callable(compile_formula(f)(list(blocks(b))[-1]))
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
    the plain loop over enumerate_models: at two agents with every state
    varying and with only the initial one, and at three agents with only
    the initial one."""
    p = Atom("p")
    later = 0   # failures at a state after s1, in a frame after the first
    for b in (Bounds(2, 2, 2, ("p",), True), Bounds(2, 2, 2, ("p",)),
              Bounds(3, 2, 2, ("p",))):
        flat = list(enumerate_formulas(("p",), b.max_agents, 1))
        pairs = [And(e, i) for e in flat
                 if type(e) is Ability and e.body == p
                 for i in flat if type(i) is Inability and i.body == p]
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
