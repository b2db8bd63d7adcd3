"""Frame-major, valuation-parallel evaluation engine behind the searches.

Only this module numbers a size block's models and rebuilds them.  A
frame (outcome function) is the tuple of its states' outcome rows, and
model v * n_frames + f of a block of `enumerate_models` pairs valuation
v with frame number f: `ModelContext.model` rebuilds it from v and the
frame, and `first_failure` counts the models a scan checked.  The engine
streams each block's frames once and evaluates all valuations of a frame
together: a value is a tuple with one int per state whose bit v is the
truth there under valuation v.  E[C] g at s is the OR, over the minimal
state sets C's joint actions reach from s, of the AND of g over each
set, and I[C] g is its complement.

A formula takes its value in a block in one recursive walk of its AST,
dispatched on node type as in `semantics.extension`; nothing is compiled.

Everything here is internal: callers replay what it finds through the
reference clauses in `semantics`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import islice, product
from math import prod
from operator import and_, or_, xor
from typing import Iterator

from .formula import (
    Ability, And, Atom, Bot, Formula, Iff, Implies, Inability, Not, Or, Top,
    propositions_of,
)
from .model import Bounds, CoalitionModel, _layout, size_blocks

__all__ = ["ModelContext", "blocks", "compile_formula", "first_failure"]


@lru_cache(maxsize=64)
def _lanes(n_states: int, n_props: int):
    """Each atom's lane vector per state, and the mask of all lanes:
    atom j holds in digit j of v, base 2**n_states, first atom slowest."""
    full = (1 << (1 << n_states * n_props)) - 1

    def bit(b):     # lanes v with bit b of v set: runs of 2**b ones
        run = 1 << b
        return full // ((1 << 2 * run) - 1) * ((1 << run) - 1 << run)
    return tuple(tuple(bit(n_states * (n_props - 1 - j) + i)
                       for i in range(n_states))
                 for j in range(n_props)), full


@lru_cache(maxsize=64)
def _columns(n_states: int, sizes: tuple[int, ...]) -> tuple[tuple, ...]:
    """Per coalition bitmask, per outcome row, the minimal reach sets; a
    row holds a state's targets per complete profile, and rows are
    numbered in the order enumerate_models assigns outcomes in."""
    n = len(sizes)
    full = list(product(*map(range, sizes)))
    rows = list(product(range(n_states), repeat=len(full)))
    shares = [[tuple(p[i] for i in range(n) if c >> i & 1) for p in full]
              for c in range(1 << n)]
    return tuple(tuple(_minimal_reach(share, row) for row in rows)
                 for share in shares)


def _minimal_reach(share: list, row: tuple[int, ...]) -> tuple:
    reach: dict[tuple[int, ...], set[int]] = {}
    for key, target in zip(share, row):
        reach.setdefault(key, set()).add(target)
    sets = set(map(frozenset, reach.values()))
    return tuple(tuple(sorted(s)) for s in sets
                 if not any(o < s for o in sets))


def _reach(g: tuple[int, ...], sets: tuple[tuple[int, ...], ...]) -> int:
    return reduce(or_, [reduce(and_, map(g.__getitem__, s)) for s in sets])


class ModelContext:
    """The evaluation context of one size block of a model space: its
    frames, its valuation lanes and its reach sets per outcome row."""

    def __init__(self, b: Bounds, n_agents: int, n_states: int,
                 sizes: tuple[int, ...]):
        self.bounds, self.sizes = b, sizes
        self.n_agents, self.n_states = n_agents, n_states
        self.columns = _columns(n_states, sizes)
        self.atoms, self.full = _lanes(n_states, len(b.props))
        self.top, self.bot = (self.full,) * n_states, (0,) * n_states
        # A frame picks a row per state.  Unless all states vary, state i > 0
        # loops to itself: row (i, ..., i), number i*(rows-1)/(n_states-1).
        rows = len(self.columns[0])
        self.choices = [
            range(rows) if b.vary_all_states or i == 0
            else (i * (rows - 1) // (n_states - 1),) for i in range(n_states)]
        self.n_valuations = self.full.bit_length()
        self.n_frames = prod(map(len, self.choices))
        self.n_models = self.n_valuations * self.n_frames
        # Modal subformulas over modality-free bodies, keyed by coalition,
        # negation and body: instances of one scheme share most of them.
        self.memo: dict = {}

    def frames(self) -> Iterator[tuple[int, ...]]:
        """Every frame, in enumeration order."""
        return product(*self.choices)

    def model(self, valuation: int, fr: tuple[int, ...]) -> CoalitionModel:
        """Valuation `valuation` on frame `fr`; digit j of a row, base
        n_states, is the state's target under complete profile j."""
        n, props, width = self.n_states, self.bounds.props, 1 << self.n_states
        states, actions, subsets, full = _layout(n, self.sizes)
        outcome = {(s, prof): states[r // n ** (len(full) - 1 - j) % n]
                   for s, r in zip(states, fr) for j, prof in enumerate(full)}
        return CoalitionModel(
            len(self.sizes), states, actions, outcome,
            {p: subsets[valuation // width ** (len(props) - 1 - j) % width]
             for j, p in enumerate(props)}, states[0])


_block = lru_cache(maxsize=256)(ModelContext)


def blocks(b: Bounds, min_agents: int = 1) -> Iterator[ModelContext]:
    """The blocks of b in order, skipping narrow ones; each is built
    when reached, so an early stop skips the reach sets of the rest."""
    for key in size_blocks(b):
        if key[0] >= min_agents:
            yield _block(b, *key)


# ---------------------------------------------------------------------------
# A formula's value in a block is its lane vectors if no modality lies
# below, else a function from frames to them, built in one pass.

_OPS = {
    And: lambda top, x, y: tuple(map(and_, x, y)),
    Or: lambda top, x, y: tuple(map(or_, x, y)),
    Implies: lambda top, x, y: tuple(map(or_, map(xor, top, x), y)),
    Iff: lambda top, x, y: tuple(map(xor, top, map(xor, x, y))),
}


def _bind(g: Formula, block: ModelContext):
    kind = type(g)
    if kind is Atom:
        return block.atoms[block.bounds.props.index(g.name)]
    if kind is Top:
        return block.top
    if kind is Bot:
        return block.bot
    if kind is Ability or kind is Inability:
        c, x = g.coalition.bitmask(), _bind(g.body, block)
        column, flip = block.columns[c], block.full if kind is Inability else 0
        if type(x) is not tuple:
            def value(fr):      # the body once per frame, not per state
                y = x(fr)
                return tuple([flip ^ _reach(y, column[r]) for r in fr])
            return value
        key = c, flip, x        # the value at s depends on s's row only
        value = block.memo.get(key)
        if value is None:
            if len(block.memo) > 4096:
                block.memo.clear()
            get = [flip ^ _reach(x, sets) for sets in column].__getitem__
            value = block.memo[key] = lambda fr: tuple(map(get, fr))
        return value
    top = block.top
    if kind is Not:
        x = _bind(g.body, block)
        if type(x) is tuple:
            return tuple(map(xor, top, x))
        return lambda fr: tuple(map(xor, top, x(fr)))
    if kind not in _OPS:
        raise TypeError(f"not a formula: {g!r}")
    op, x, y = _OPS[kind], _bind(g.left, block), _bind(g.right, block)
    if type(x) is tuple and type(y) is tuple:
        return op(top, x, y)
    fx = (lambda fr: x) if type(x) is tuple else x
    fy = (lambda fr: y) if type(y) is tuple else y
    return lambda fr: op(top, fx(fr), fy(fr))


def compile_formula(f: Formula, props: tuple[str, ...]):
    """f as a function of any block over `props` with max_agent(f)+ agents."""
    if missing := set(propositions_of(f)).difference(props):
        raise ValueError(f"atoms {sorted(missing)} not among props {props}")
    return lambda block: _bind(f, block)


def first_failure(compiled, block: ModelContext
                  ) -> tuple[int, CoalitionModel | None, str | None]:
    """(models checked, model, state) for the block's first failing
    model: the lowest failing lane, its earliest frame, and the lowest
    state.  With no failure: (block.n_models, None, None)."""
    value, frames = compiled(block), block.frames()
    if type(value) is tuple:    # the same in every frame: check the first
        value, frames = (lambda fr, got=value: got), islice(frames, 1)
    best, lanes, top = None, block.full, block.top
    for number, fr in enumerate(frames):
        got = value(fr)
        if got != top:
            miss = lanes & ~reduce(and_, got)
            if miss:
                best, lanes = (got, number, fr), (miss & -miss) - 1
                if not lanes:
                    break
    if best is None:
        return block.n_models, None, None
    (got, number, fr), v = best, lanes.bit_length()     # the lowest miss
    m = block.model(v, fr)
    return (v * block.n_frames + number + 1, m,
            next(s for s, x in zip(m.states, got) if not x >> v & 1))
