"""Formula syntax: AST, concrete grammar, printer, and bounded enumeration.

The language is propositional logic plus two coalition modalities,
written `E[1,2] p` (the coalition of agents 1 and 2 can ensure p) and
`I[1,2] p` (it cannot).  Grammar, loosest binding first:

    formula := iff
    iff     := imp { "<->" imp }          left associative
    imp     := or [ "->" imp ]            right associative
    or      := and { "|" and }
    and     := unary { "&" unary }
    unary   := "!" unary | "E" coal unary | "I" coal unary | atom
    coal    := "[" [ int { "," int } ] "]"
    atom    := "true" | "false" | ident | "(" formula ")"

Identifiers match [a-z][a-zA-Z0-9_]* and agent indices are 1-based.
Or, Implies, Iff, Top and Bot are first-class AST nodes, not sugar, so
printing round-trips exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Iterator, Sequence

from .errors import ClicError, DuplicateAgentInCoalition, ParseError

__all__ = [
    "Formula", "Atom", "Top", "Bot", "Not", "And", "Or", "Implies", "Iff",
    "Ability", "Inability", "Coalition",
    "parse_formula", "print_formula", "ast_dump",
    "max_agent", "modal_depth", "propositions_of", "enumerate_formulas",
]


@dataclass(frozen=True, slots=True, repr=False)
class Coalition:
    """A set of agents, stored as a sorted tuple of 1-based indices; `mask`
    encodes it as an int, agent i on bit i-1."""

    members: tuple[int, ...]
    mask: int = field(init=False, repr=False, hash=False, compare=False)

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not all(1 <= a <= MAX_AGENT for a in members):
            raise ValueError(f"agent indices run from 1 to {MAX_AGENT}")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate agent in coalition {members}")
        object.__setattr__(self, "members", tuple(sorted(members)))
        object.__setattr__(self, "mask", sum(1 << (a - 1) for a in members))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, agent: int) -> bool:
        return agent in self.members

    def __repr__(self) -> str:
        return "[%s]" % ",".join(str(a) for a in self.members)

    @staticmethod
    def from_bitmask(mask: int) -> "Coalition":
        return Coalition(tuple(i + 1 for i in range(mask.bit_length())
                               if mask >> i & 1))

    def max_agent(self) -> int:
        """Largest member, 0 for the empty coalition."""
        return self.members[-1] if self.members else 0


class Formula:
    """Base class of all formula nodes; reprs read like Not(Atom(p))."""

    # The node's hash, set on first use; not a dataclass field, so repr,
    # == and pickles never see it.
    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        """hash((type, *fields)), computed once per node from the children's
        stored hashes, descendants first on an explicit stack, so no depth
        recurses."""
        try:
            return self._hash
        except AttributeError:
            pass
        stack = [self]
        while stack:
            g = stack[-1]
            fields = [getattr(g, name) for name in g.__dataclass_fields__]
            todo = [a for a in fields
                    if isinstance(a, Formula) and not hasattr(a, "_hash")]
            if todo:
                stack += todo
            else:
                stack.pop()
                object.__setattr__(g, "_hash", hash((type(g), *fields)))
        return self._hash

    def __repr__(self) -> str:
        args = [getattr(self, name) for name in self.__dataclass_fields__]
        if not args:
            return type(self).__name__
        return "%s(%s)" % (type(self).__name__, ", ".join(
            a if type(a) is str else repr(a) for a in args))


def _node(cls: type) -> type:
    """A frozen formula dataclass that keeps the generated __eq__ but
    hashes with Formula.__hash__, not the generated recursive one."""
    cls = dataclass(frozen=True, slots=True, repr=False)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Atom(Formula):
    name: str


@_node
class Top(Formula):
    """The constant true."""


@_node
class Bot(Formula):
    """The constant false."""


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Ability(Formula):
    """E[C] body: coalition C has a joint action forcing body."""

    coalition: Coalition
    body: Formula


@_node
class Inability(Formula):
    """I[C] body: every joint action of C can be countered."""

    coalition: Coalition
    body: Formula


# ---------------------------------------------------------------------------
# Printing

PREC_IFF = 1
PREC_IMP = 2
PREC_OR = 3
PREC_AND = 4
PREC_UNARY = 5

# Deepest AST parse_formula accepts: about half the height (199) at which
# the dataclasses' recursive repr hits Python's limit in `clic parse`.
MAX_NESTING = 100

# Largest agent index accepted anywhere: a coalition's mask then takes at
# most 1.25 KB.  A search pays a floor per block that grows with its agents
# (`_eval._reach_work`), so MAX_REACH_WORK stops a search long before it.
MAX_AGENT = 10_000

# Most outcomes a model file may define, states times complete action
# profiles: `parse_model` expands every one, so the count is checked first.
MAX_OUTCOMES = 65_536

# Most steps the blocks one search reaches may take to build, a floor each
# and the reach sets of the coalitions it names (`_eval._reach_work`); per
# block, most valuations, and most bits of a state's outcome row count (a
# range() length) and of the frame count (so counts print in 4,300 digits).
MAX_REACH_WORK = 1 << 21
MAX_VALUATIONS = 1 << 18
MAX_ROW_BITS, MAX_FRAME_BITS = 62, 14_000


def agent_index(text: str) -> int | None:
    """The number that the ASCII digits text spell, capped at MAX_AGENT + 1
    so that no digit string is too long to read; None if text is not one."""
    if not (text.isascii() and text.isdecimal()):
        return None
    digits = text.lstrip("0")
    return (int(digits or "0") if len(digits) <= len(str(MAX_AGENT))
            else MAX_AGENT + 1)


def guard_nesting(fn):
    """fn, reporting a RecursionError as ClicError when its formula
    argument is higher than MAX_NESTING; otherwise it propagates."""
    @wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:  # only an AST built in code gets this deep
            f = next(a for a in (*args, *kwargs.values())
                     if isinstance(a, Formula))
            if max(d for _, d in walk(f, Formula)) <= MAX_NESTING:
                raise
            raise ClicError("formula nested too deeply to evaluate") from None
    return guarded


@guard_nesting
def ast_dump(f: Formula) -> str:
    """Constructor-style rendering of the tree, as used by the CLI."""
    return repr(f)


@guard_nesting
def print_formula(f: Formula) -> str:
    """Concrete syntax with the minimal parenthesization the grammar allows."""
    return _print(f, PREC_IFF)


# Binary connectives: spaced token, precedence, and the precedences
# required of the operands; "->" alone associates to the right.
_BINARY: dict[type, tuple[str, int, int, int]] = {
    Iff: (" <-> ", PREC_IFF, PREC_IFF, PREC_IFF + 1),
    Implies: (" -> ", PREC_IMP, PREC_IMP + 1, PREC_IMP),
    Or: (" | ", PREC_OR, PREC_OR, PREC_OR + 1),
    And: (" & ", PREC_AND, PREC_AND, PREC_AND + 1),
}
_PREFIX = {Not: "!", Ability: "E", Inability: "I"}
_KEYWORDS = {Top: "true", Bot: "false"}


def _print(f: Formula, required: int) -> str:
    cls = type(f)
    if cls is Atom:
        return f.name
    if cls in _BINARY:
        token, prec, left, right = _BINARY[cls]
        text = _print(f.left, left) + token + _print(f.right, right)
    elif cls in _PREFIX:
        head = _PREFIX[cls] if cls is Not else f"{_PREFIX[cls]}{f.coalition} "
        text, prec = head + _print(f.body, PREC_UNARY), PREC_UNARY
    elif cls in _KEYWORDS:
        return _KEYWORDS[cls]
    else:
        raise TypeError(f"not a formula: {f!r}")
    if prec < required:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# Parsing

# The happy path works on bare token strings for speed; offsets are
# recovered by re-scanning only when an error message is built.
_TOKEN_RE = re.compile(r"<->|->|[a-z][A-Za-z0-9_]*|[0-9]+|[EI!&|()\[\],]|\S")

# The constants by keyword; atoms and coalitions from bounded caches.
_CONSTANTS: dict[str, Formula] = {t: c() for c, t in _KEYWORDS.items()}
_coalition = lru_cache(maxsize=4096)(Coalition)


@lru_cache(maxsize=4096)
def _leaf(name: str) -> Formula:
    """The constant a keyword names, else the atom: one lookup a leaf."""
    return _CONSTANTS[name] if name in _CONSTANTS else Atom(name)

_BIN_OPS = {token.strip(): (prec, node, right)
            for node, (token, prec, _, right) in _BINARY.items()}
_UNARY_OPS = {token: node for node, token in _PREFIX.items()}

_UNARY_EXPECTED = ("'!'", "'E'", "'I'", "'true'", "'false'",
                   "an identifier", "'('")


def _fail(text: str, index: int, expected: tuple[str, ...],
          message: str | None = None, error=ParseError) -> None:
    """Raise a ParseError for the token at position `index`, with its offset."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    if index < len(starts):
        offset = starts[index]
        found = _TOKEN_RE.match(text, offset).group()
        what = message or f"found {found!r}"
    else:
        offset = len(text)
        what = message or "unexpected end of input"
    raise error(what, offset=offset, expected=expected)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into an AST; raises ParseError on bad input,
    and on an AST nested deeper than MAX_NESTING."""
    tokens = _TOKEN_RE.findall(text)
    # Height and parser recursion never exceed the operator and "(" tokens.
    deep = len(tokens) > MAX_NESTING and sum(
        map(text.count, "!&|EI(")) + text.count("->") > MAX_NESTING
    tokens.append("")  # end marker
    pos = 0

    def expr(min_prec: int) -> Formula:
        nonlocal pos
        left = unary()
        while True:
            entry = _BIN_OPS.get(tokens[pos])
            if entry is None or entry[0] < min_prec:
                return left
            pos += 1
            prec, node, right = entry
            left = node(left, expr(right))

    def unary() -> Formula:
        nonlocal pos
        tok = tokens[pos]
        node = _UNARY_OPS.get(tok)
        if node is not None:
            pos += 1
            return Not(unary()) if node is Not else node(coalition(), unary())
        head = tok[:1]
        if "a" <= head <= "z":
            pos += 1
            return _leaf(tok)
        if tok == "(":
            pos += 1
            inner = expr(PREC_IFF)
            if tokens[pos] != ")":
                _fail(text, pos, ("')'",))
            pos += 1
            return inner
        _fail(text, pos, _UNARY_EXPECTED)

    def coalition() -> Coalition:
        nonlocal pos
        if tokens[pos] != "[":
            _fail(text, pos, ("'['",))
        pos += 1
        members: list[int] = []
        if tokens[pos] != "]":
            while True:
                agent = agent_index(tokens[pos])
                if agent is None:
                    _fail(text, pos, ("an agent index",))
                if not 1 <= agent <= MAX_AGENT:
                    _fail(text, pos, (), message=(
                        "agent indices are 1-based" if agent < 1 else
                        f"agent indices are at most {MAX_AGENT}"))
                if agent in members:
                    _fail(text, pos, (),
                          message=f"agent {agent} listed twice",
                          error=DuplicateAgentInCoalition)
                members.append(agent)
                pos += 1
                if tokens[pos] == ",":
                    pos += 1
                    continue
                break
        if tokens[pos] != "]":
            _fail(text, pos, ("']'", "','"))
        pos += 1
        return _coalition(tuple(members))

    try:
        result = expr(PREC_IFF)
    except RecursionError:      # the parser's stack: text far beyond the bound
        if not deep:
            raise
        result = None
    if deep and (result is None
                 or max(d for _, d in walk(result, Formula)) > MAX_NESTING):
        raise ParseError(f"formula nested deeper than {MAX_NESTING} levels")
    if tokens[pos] != "":
        _fail(text, pos, (), message=f"trailing input {tokens[pos]!r}")
    return result


# ---------------------------------------------------------------------------
# Structural measures

def walk(f: Formula, counted=(Ability, Inability)
         ) -> Iterator[tuple[Formula, int]]:
    """Every node of f, pre-order, with its number of `counted` ancestors
    (E/I by default); an explicit stack lets any depth through."""
    stack = [(f, 0)]
    while stack:
        g, depth = stack.pop()
        yield g, depth
        depth += isinstance(g, counted)
        if type(g) in _PREFIX:
            stack.append((g.body, depth))
        elif type(g) in _BINARY:
            stack += [(g.right, depth), (g.left, depth)]


def measures(f: Formula) -> tuple[int, set[str], int, frozenset[int]]:
    """(max_agent, atoms, modal_depth, coalition masks) of f, in one walk."""
    nodes = list(walk(f))
    modal = [(g, d) for g, d in nodes if isinstance(g, (Ability, Inability))]
    masks = frozenset(g.coalition.mask for g, _ in modal)
    return (max(masks, default=0).bit_length(),
            {g.name for g, _ in nodes if type(g) is Atom},
            max((d + 1 for _, d in modal), default=0), masks)


def modal_depth(f: Formula) -> int:
    """Deepest nesting of E/I operators; 0 for purely Boolean formulas."""
    return measures(f)[2]


def propositions_of(f: Formula) -> tuple[str, ...]:
    """All atoms occurring in f, sorted and without duplicates."""
    return tuple(sorted(measures(f)[1]))


def max_agent(f: Formula) -> int:
    """Largest agent index named by any coalition in f, 0 if none."""
    return measures(f)[0]


# ---------------------------------------------------------------------------
# Enumeration

def enumerate_formulas(props: Sequence[str], agents: int,
                       max_depth: int) -> Iterator[Formula]:
    """All formulas of syntactic depth <= max_depth, without duplicates.

    The connective set is deliberately small: negation, conjunction and
    the two modalities over every coalition within {1..agents}, with
    atoms and the constants at depth 0.  The stream is ordered by depth,
    then by constructor (Atom < Top < Bot < Not < And < Ability <
    Inability), then lexicographically in the children and the coalition
    bitmask, which makes counts and positions stable regression targets.
    """
    if agents < 1:
        raise ValueError("agents must be >= 1")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    coalitions = [Coalition.from_bitmask(mask) for mask in range(1 << agents)]
    level: list[Formula] = [Atom(name) for name in sorted(set(props))]
    level += [Top(), Bot()]
    yield from level

    upto = list(level)
    depths = [0] * len(level)
    exact = list(level)
    for depth in range(1, max_depth + 1):
        stream = _next_level(upto, depths, exact, depth, coalitions)
        if depth == max_depth:
            yield from stream
            return
        exact = []
        for f in stream:
            yield f
            exact.append(f)
        upto.extend(exact)
        depths.extend([depth] * len(exact))


def _next_level(upto: list[Formula], depths: list[int], exact: list[Formula],
                depth: int, coalitions: list[Coalition]) -> Iterator[Formula]:
    for f in exact:
        yield Not(f)
    want = depth - 1
    for i, left in enumerate(upto):
        left_shallow = depths[i] != want
        for j, right in enumerate(upto):
            if left_shallow and depths[j] != want:
                continue
            yield And(left, right)
    for f in exact:
        for c in coalitions:
            yield Ability(c, f)
    for f in exact:
        for c in coalitions:
            yield Inability(c, f)
