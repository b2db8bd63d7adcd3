"""Frame-major, valuation-parallel evaluation engine behind the searches.

`_plan` alone sizes a search, ahead of it.  A block numbers its models as
the reference `model.enumerate_models` lists them: a frame (outcome
function) is the tuple of its states' outcome rows, and model
v * n_frames + f pairs valuation v with frame number f; `ModelContext.model`
rebuilds it, and `first_failure` counts the models a scan checked.  All
valuations are evaluated at once in lane vectors: ints whose bit v is
the truth under valuation v.  E[C] g at s is the OR, over the minimal
state sets C's joint actions reach from s, of the AND of g over each
set, and I[C] g is its complement.  A block is cached by what it is
(props, vary_all_states, n_states, sizes), not by the bounds around it,
and builds a coalition's reach sets when a bind first reads them.  Rows
with equal minimal reach sets for C form a class (`_column` numbers them
by first row and maps each row to its class), and a modality is worked
out once per class, then read per row through that map.

A formula takes its value in a block in one recursive walk of its AST,
dispatched on node type as in `semantics.extension`.  The value's type
gives its form: a constant (tuple) holds a lane vector per state, for a
modality-free formula; a per-row table (`Table`) holds, per state, one
per entry of `block.choices[s]`, up to modal depth 1, as a modality over
a constant depends on its state's row only; a frame function maps a frame
to lane vectors, above a modality over a non-constant body.
`first_failure` reads a constant's or a table's first failure off the
table, and walks frames for a frame function only.

Everything here is internal: callers replay what it finds through the
reference clauses in `semantics`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial, reduce
from itertools import chain, product, repeat
from math import prod
from operator import and_, getitem, mod, or_, xor
from typing import Iterator, Sequence

from .errors import SearchTooLarge
from .formula import (
    Ability, And, Atom, Bot, Formula, Iff, Implies, Inability, Not, Or, Top,
)
from .model import Bounds, CoalitionModel, _layout, size_blocks

# Most steps the blocks one search reaches may take to build (about 2 s
# at most), most valuations of a block, most bits of its frame count,
# which keeps the counts a search prints under str()'s 4,300 digits, and
# most frames a caller that walks them reaches (about 16 us each).
MAX_REACH_WORK, MAX_VALUATIONS, MAX_FRAME_BITS = 1 << 21, 1 << 18, 14_000
MAX_FRAME_WALK = 1 << 20


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


@lru_cache(maxsize=256)
def _column(n_states: int, sizes: tuple[int, ...], mask: int) -> tuple:
    """(families, classes) of coalition `mask`: its distinct families of
    minimal reach sets, numbered by the first row that has each, and per
    outcome row the number of its family, its class.  A row holds a
    state's targets per complete profile, and rows are numbered in the
    order enumerate_models assigns outcomes in."""
    share = [tuple(p[i] for i in range(len(sizes)) if mask >> i & 1)
             for p in product(*map(range, sizes))]
    number: dict[tuple, int] = {}
    classes = tuple(number.setdefault(_minimal_reach(share, row), len(number))
                    for row in product(range(n_states), repeat=len(share)))
    return tuple(number), classes


def _minimal_reach(share: list, row: tuple[int, ...]) -> tuple:
    """The row's minimal reach sets, sorted, so equal families are equal."""
    reach: dict[tuple[int, ...], set[int]] = {}
    for key, target in zip(share, row):
        reach.setdefault(key, set()).add(target)
    sets = set(map(frozenset, reach.values()))
    return tuple(sorted(tuple(sorted(s)) for s in sets
                        if not any(o < s for o in sets)))


def _reach(g: tuple[int, ...], sets: tuple[tuple[int, ...], ...]) -> int:
    return reduce(or_, [reduce(and_, map(g.__getitem__, s)) for s in sets])


# A per-row table: per state s, a lane vector per entry of block.choices[s].
Table = list


class ModelContext:
    """The evaluation context of one size block of a model space: its
    frames and its valuation lanes; `_column` holds its reach sets, and
    `_table` its tables of modalities over constant bodies."""

    def __init__(self, props: tuple[str, ...], vary_all_states: bool,
                 n_states: int, sizes: tuple[int, ...], rows: int,
                 n_frames: int):
        self.props, self.sizes, self.rows = props, sizes, rows
        self.n_agents, self.n_states = len(sizes), n_states
        self.atoms, self.full = _lanes(n_states, len(props))
        self.top, self.bot = (self.full,) * n_states, (0,) * n_states
        self.ones = repeat(self.full)
        # A frame picks a row per state.  Unless all states vary, state i > 0
        # loops to itself: row (i, ..., i), number i*(rows-1)/(n_states-1).
        self.choices = [
            range(rows) if vary_all_states or i == 0
            else (i * (rows - 1) // (n_states - 1),) for i in range(n_states)]
        self.n_valuations, self.n_frames = self.full.bit_length(), n_frames
        self.n_models = self.n_valuations * n_frames

    def frames(self) -> Iterator[tuple[int, ...]]:
        """Every frame, in enumeration order."""
        return product(*self.choices)

    def at(self, value, fr: tuple[int, ...]) -> tuple[int, ...]:
        """A value's lane vector per state in frame fr."""
        if type(value) is Table:    # row r is choice r, or the only one
            return tuple(map(getitem, value, map(mod, fr, map(len, value))))
        return value if type(value) is tuple else value(fr)

    def model(self, valuation: int, fr: tuple[int, ...]) -> CoalitionModel:
        """Valuation `valuation` on frame `fr`; digit j of a row, base
        n_states, is the state's target under complete profile j."""
        n, props, width = self.n_states, self.props, 1 << self.n_states
        states, actions, subsets, full = _layout(n, self.sizes)
        outcome = {(s, prof): states[r // n ** (len(full) - 1 - j) % n]
                   for s, r in zip(states, fr) for j, prof in enumerate(full)}
        return CoalitionModel(
            len(self.sizes), states, actions, outcome,
            {p: subsets[valuation // width ** (len(props) - 1 - j) % width]
             for j, p in enumerate(props)}, states[0])


_block = lru_cache(maxsize=256)(ModelContext)


@lru_cache(maxsize=256)
def _plan(b: Bounds, min_agents: int, masks: Sequence[int],
          walks: bool = False) -> tuple:
    """b's size blocks with min_agents+ agents in order, as (agents, states,
    sizes, steps up to it, rows, frames), and the error at the first block
    past a bound, or None.  A block takes a step per agent, state and
    complete profile, and per coalition of `masks` (sorted, distinct) within
    its agents, a share per complete profile and, per row, a reach-set entry
    per complete profile and 8 for the row's own sets and table entries.
    A caller that `walks` every block's frames is charged for them too."""
    plan, work, walked = [], 0, 0
    for n_agents, n_states, sizes in size_blocks(b, min_agents):
        profiles = prod(sizes)
        rows = n_states ** profiles
        frames = rows ** n_states if b.vary_all_states else rows
        # Its masks are among masks[:2**n]; len() of 2**63+ masks overflows
        within = bisect_left(masks[:1 << n_agents], 1 << n_agents)
        work += n_agents + n_states + profiles + within * (
            profiles * n_agents + rows * (profiles + 8))
        walked += walks and frames
        if 1 << n_states * len(b.props) > MAX_VALUATIONS:
            why = f"over {MAX_VALUATIONS} valuations"
        elif work > MAX_REACH_WORK:
            why = f"its blocks take over {MAX_REACH_WORK} steps to build"
        elif frames > 1 << MAX_FRAME_BITS:
            why = f"over 2**{MAX_FRAME_BITS} frames"
        elif walked > MAX_FRAME_WALK:
            why = f"it walks over {MAX_FRAME_WALK} frames"
        else:
            plan.append((n_agents, n_states, sizes, work, rows, frames))
            continue
        return tuple(plan), (f"search too large: {why}, at the block of "
                             f"agents {n_agents}, states {n_states}")
    return tuple(plan), None


def blocks(b: Bounds, min_agents: int = 1, masks: Sequence[int] = (),
           walks: bool = False) -> Iterator[ModelContext]:
    """The blocks of b with min_agents+ agents in order, charged for the
    reach sets of coalitions `masks` and, if the caller `walks` them, for
    their frames, each built when reached.  Raises SearchTooLarge on
    reaching one past a bound."""
    plan, stop = _plan(b, min_agents, masks, walks)
    for _, k, sizes, _, rows, frames in plan:
        yield _block(b.props, b.vary_all_states, k, sizes, rows, frames)
    if stop:
        raise SearchTooLarge(stop)


# The value at s of a modality over a constant depends on s's row only,
# through the row's class: one reach per class, read per row through the
# class map.  Instances of one scheme share most of these tables.
@lru_cache(maxsize=1 << 14)
def _table(block: ModelContext, c: int, flip: int, x: tuple) -> Table:
    families, classes = _column(block.n_states, block.sizes, c)
    reach = [flip ^ _reach(x, sets) for sets in families]
    return Table(tuple(map(reach.__getitem__, map(classes.__getitem__, ch)))
                 for ch in block.choices)


# ---------------------------------------------------------------------------
# A formula's value in a block, in one pass.  The operators take `ones`,
# an endless run of the full lane mask, so they serve states and rows alike.

_OPS = {
    And: lambda ones, x, y: tuple(map(and_, x, y)),
    Or: lambda ones, x, y: tuple(map(or_, x, y)),
    Implies: lambda ones, x, y: tuple(map(or_, map(xor, ones, x), y)),
    Iff: lambda ones, x, y: tuple(map(xor, ones, map(xor, x, y))),
}


def _bind(g: Formula, block: ModelContext):
    kind = type(g)
    if kind is Atom:            # ValueError if not among the props
        return block.atoms[block.props.index(g.name)]
    if kind is Top:
        return block.top
    if kind is Bot:
        return block.bot
    if kind is Ability or kind is Inability:
        c, x = g.coalition.mask, _bind(g.body, block)
        flip = block.full if kind is Inability else 0
        if type(x) is not tuple:
            at = block.at
            families, classes = _column(block.n_states, block.sizes, c)

            def value(fr):      # the body once per frame, not per state
                y = at(x, fr)
                return tuple([flip ^ _reach(y, families[classes[r]])
                               for r in fr])
            return value
        return _table(block, c, flip, x)
    if kind is Not:             # !x is x -> false
        op, x, y = _OPS[Implies], _bind(g.body, block), block.bot
    elif kind in _OPS:
        op, x, y = _OPS[kind], _bind(g.left, block), _bind(g.right, block)
    else:
        raise TypeError(f"not a formula: {g!r}")
    ones = block.ones
    if type(x) is tuple and type(y) is tuple:
        return op(ones, x, y)
    if callable(x) or callable(y):
        return lambda fr: op(ones, block.at(x, fr), block.at(y, fr))
    # Tables, or a table and a constant, whose vector fits any row count.
    return Table(map(partial(op, ones), *(
        z if type(z) is Table else map(repeat, z) for z in (x, y))))


def compile_formula(f: Formula):
    """f as a function of any block with max_agent(f)+ agents; binding
    it raises ValueError on an atom outside the block's props."""
    return lambda block: _bind(f, block)


def first_failure(compiled, block: ModelContext
                  ) -> tuple[int, CoalitionModel | None, str | None]:
    """(models checked, model, state) for the block's first failing
    model: the lowest failing lane v, its earliest frame, and the lowest
    state.  With no failure: (block.n_models, None, None)."""
    value, choices = compiled(block), block.choices
    if callable(value):         # walk the frames
        found, lanes, top = None, block.full, block.top
        for number, fr in enumerate(block.frames()):
            got = value(fr)
            if got != top:
                miss = lanes & ~reduce(and_, got)
                if miss:
                    found, lanes = (number, fr, got), (miss & -miss) - 1
                    if not lanes:
                        break
        if found is None:
            return block.n_models, None, None
        (number, fr, got), v = found, lanes.bit_length()
        k = next(s for s, x in enumerate(got) if not x >> v & 1)
    else:
        table = value if type(value) is Table else [(x,) for x in value]
        miss = block.full ^ reduce(and_, chain.from_iterable(table))
        if not miss:
            return block.n_models, None, None
        v = (miss & -miss).bit_length() - 1
        # Per state, its first choice failing at v.  The earliest failing
        # frame is 0 if one is 0, else the highest state's choice alone.
        firsts = [next((j for j, x in enumerate(xs) if not x >> v & 1),
                       None) for xs in table]
        k = firsts.index(0) if 0 in firsts else max(
            s for s, j in enumerate(firsts) if j)
        # Choice j of state k, times the frames of the later states (j > 0
        # at state 0 only unless all vary); j = 0 skips a power.
        j = firsts[k]
        number = j and j * (block.n_frames // block.rows ** (k + 1))
        fr = tuple(ch[j if s == k else 0] for s, ch in enumerate(choices))
    m = block.model(v, fr)
    return v * block.n_frames + number + 1, m, m.states[k]
