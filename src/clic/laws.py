"""Executable catalog of structural principles of coalition inability.

Each entry pairs a parametric formula scheme with its expected status:
valid schemes must exhaust a bounded countermodel search for every
instantiation, invalid ones must produce a countermodel, and the one
satisfiability entry must produce a satisfying model.  Invalid entries
additionally pin a hand-built fixture model whose replay re-derives the
exact evaluations that justify the expected status, so the catalog is
checked both by fresh search and against frozen artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import combinations, product
from time import perf_counter
from typing import Callable, Iterator, Sequence

from .errors import BoundsInsufficientForFormula, ClicError, FixtureMissing
from .formula import (
    Ability, And, Atom, Bot, Coalition, Formula, Iff, Implies, Inability,
    MAX_AGENT, Not, Or, Top, parse_formula,
)
from .model import Bounds, CoalitionModel, parse_model
from .semantics import _require_state, extensions
from .validity import (
    Counterexample, Verdict, default_bounds, find_countermodel,
)

__all__ = [
    "Fixture", "Law", "LawReport", "LawResult",
    "catalog", "fixture_model", "instantiations", "replay_fixture",
    "run_laws",
]


@dataclass(frozen=True)
class Fixture:
    """A pinned model, state, and instantiation for one catalog entry.

    `instance` is the concrete scheme instantiation the fixture decides
    (false at the state for invalid laws, true for the satisfiability
    entry); `claims` are the individual evaluations that explain why.
    """

    model_name: str
    state: str
    instance: str
    claims: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class Law:
    """One catalog entry: a scheme plus how it is expected to behave.

    `scheme(n, cs, fs)` builds a formula from the agent count, a tuple
    of `coalition_arity` coalitions, and a tuple of formula parameters.
    `formula_mode` selects those parameters: "none", "one", "two", or
    "entailment" (pairs (f, g) where f entails g by construction).
    `side_condition` filters coalition tuples.

    `run_laws` settles a coalition tuple's instances by one search of
    the scheme at the bounds' own atoms ((), (p,), (p, q), or (p, p | q)
    and (p & q, p)) if it exhausts and each instance is that formula
    with p and q substituted, as when the scheme uses its parameters
    only through connectives.  Any other tuple (a literal atom, a branch
    on the parameters, a countermodel) is searched instance by instance.
    The counts are the same either way.
    """

    id: str
    group: str
    description: str
    expected: str  # "valid" | "invalid" | "satisfiable"
    scheme: Callable[[int, tuple[Coalition, ...], tuple[Formula, ...]],
                     Formula]
    coalition_arity: int
    formula_mode: str
    side_condition: Callable[[tuple[Coalition, ...]], bool] | None = None
    fixture: Fixture | None = None


def fixture_model(name: str) -> CoalitionModel:
    """Load a pinned countermodel shipped with the package."""
    path = resources.files(__package__) / "fixtures" / f"{name}.clm"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FixtureMissing(f"no fixture model named {name!r}") from None
    return parse_model(text)


# ---------------------------------------------------------------------------
# The catalog

def _grand(n: int) -> Coalition:
    return Coalition.from_bitmask((1 << n) - 1)


def _rest(n: int, c: Coalition) -> Coalition:
    return Coalition.from_bitmask(((1 << n) - 1) ^ c.mask)


def _union(c: Coalition, d: Coalition) -> Coalition:
    return Coalition.from_bitmask(c.mask | d.mask)


def _subset(cs: tuple[Coalition, ...]) -> bool:
    return cs[0].mask & ~cs[1].mask == 0


def _proper_subset(cs: tuple[Coalition, ...]) -> bool:
    return _subset(cs) and cs[0].mask != cs[1].mask


def _disjoint(cs: tuple[Coalition, ...]) -> bool:
    return cs[0].mask & cs[1].mask == 0


def catalog() -> tuple[Law, ...]:
    """All cataloged principles, in presentation order."""
    E, I = Ability, Inability
    return (
        # Coalition structure.
        Law("anti-monotonicity", "coalition",
            "a coalition's inability passes down to its sub-coalitions",
            "valid",
            lambda n, cs, fs: Implies(I(cs[1], fs[0]), I(cs[0], fs[0])),
            2, "one", _subset),
        Law("upward-propagation", "coalition",
            "a sub-coalition's inability does not pass up to supersets",
            "invalid",
            lambda n, cs, fs: Implies(I(cs[0], fs[0]), I(cs[1], fs[0])),
            2, "one", _proper_subset,
            Fixture("m1", "s", "I[1] p -> I[1,2] p",
                    (("I[1] p", True), ("E[1,2] p", True),
                     ("I[1,2] p", False)))),
        Law("subadditivity", "coalition",
            "a union's inability implies each part's inability",
            "valid",
            lambda n, cs, fs: Implies(I(_union(cs[0], cs[1]), fs[0]),
                                      And(I(cs[0], fs[0]),
                                          I(cs[1], fs[0]))),
            2, "one"),
        Law("superadditivity-for-inability", "coalition",
            "disjoint inabilities do not merge into joint inability",
            "invalid",
            lambda n, cs, fs: Implies(And(I(cs[0], fs[0]), I(cs[1], fs[1])),
                                      I(_union(cs[0], cs[1]),
                                        And(fs[0], fs[1]))),
            2, "two", _disjoint,
            Fixture("m1", "s", "(I[1] p & I[2] p) -> I[1,2] (p & p)",
                    (("I[1] p", True), ("I[2] p", True),
                     ("E[1,2] p", True), ("I[1,2] p", False)))),

        # Goal strength.
        Law("contravariance", "goal",
            "inability for a weaker goal implies it for a stronger one",
            "valid",
            lambda n, cs, fs: Implies(I(cs[0], fs[1]), I(cs[0], fs[0])),
            1, "entailment"),
        Law("covariance", "goal",
            "inability for a stronger goal says nothing about weaker ones",
            "invalid",
            lambda n, cs, fs: Implies(I(cs[0], fs[0]), I(cs[0], fs[1])),
            1, "entailment",
            fixture=Fixture("covariance", "s", "I[1] (p & q) -> I[1] p",
                            (("E[1] p", True), ("I[1] p", False),
                             ("I[1] (p & q)", True)))),
        Law("absorption", "goal",
            "inability for a goal extends to any conjunction with it",
            "valid",
            lambda n, cs, fs: Implies(I(cs[0], fs[0]),
                                      I(cs[0], And(fs[0], fs[1]))),
            1, "two"),

        # Boolean structure.
        Law("conjunction-downward", "boolean",
            "inability for either conjunct gives inability for the "
            "conjunction",
            "valid",
            lambda n, cs, fs: Implies(Or(I(cs[0], fs[0]), I(cs[0], fs[1])),
                                      I(cs[0], And(fs[0], fs[1]))),
            1, "two"),
        Law("conjunction-upward", "boolean",
            "inability for a conjunction does not localize to a conjunct",
            "invalid",
            lambda n, cs, fs: Implies(I(cs[0], And(fs[0], fs[1])),
                                      Or(I(cs[0], fs[0]), I(cs[0], fs[1]))),
            1, "two",
            fixture=Fixture("conjunction_upward", "s",
                            "I[1] (p & q) -> (I[1] p | I[1] q)",
                            (("I[1] p", False), ("I[1] q", False),
                             ("I[1] (p & q)", True)))),
        Law("disjunction-upward", "boolean",
            "inability for a disjunction gives inability for both "
            "disjuncts",
            "valid",
            lambda n, cs, fs: Implies(I(cs[0], Or(fs[0], fs[1])),
                                      And(I(cs[0], fs[0]),
                                          I(cs[0], fs[1]))),
            1, "two"),
        Law("disjunction-downward", "boolean",
            "inability for both disjuncts does not cover the disjunction",
            "invalid",
            lambda n, cs, fs: Implies(And(I(cs[0], fs[0]), I(cs[0], fs[1])),
                                      I(cs[0], Or(fs[0], fs[1]))),
            1, "two",
            fixture=Fixture("disjunction_downward", "s",
                            "(I[1] p & I[1] q) -> I[1] (p | q)",
                            (("I[1] p", True), ("I[1] q", True),
                             ("E[1] (p | q)", True),
                             ("I[1] (p | q)", False)))),
        Law("implication-distribution", "boolean",
            "inability for an implication pins both the antecedent's "
            "negation and the consequent as unsecurable",
            "valid",
            lambda n, cs, fs: Implies(I(cs[0], Implies(fs[0], fs[1])),
                                      And(I(cs[0], Not(fs[0])),
                                          I(cs[0], fs[1]))),
            1, "two"),
        Law("implication-converse", "boolean",
            "joint inability for the parts does not rebuild inability "
            "for the implication",
            "invalid",
            lambda n, cs, fs: Implies(And(I(cs[0], Not(fs[0])),
                                          I(cs[0], fs[1])),
                                      I(cs[0], Implies(fs[0], fs[1]))),
            1, "two",
            fixture=Fixture("disjunction_downward", "s",
                            "(I[1] !!p & I[1] q) -> I[1] (!p -> q)",
                            (("I[1] !!p", True), ("I[1] q", True),
                             ("I[1] (!p -> q)", False)))),

        # Strategic structure.
        Law("excluded-middle", "strategic",
            "a coalition may be able to settle a goal either way",
            "invalid",
            lambda n, cs, fs: Or(I(cs[0], fs[0]), I(cs[0], Not(fs[0]))),
            1, "one",
            fixture=Fixture("excluded_middle", "s", "I[1] p | I[1] !p",
                            (("E[1] p", True), ("E[1] !p", True),
                             ("I[1] p", False), ("I[1] !p", False)))),
        Law("exclusivity", "strategic",
            "one side's ability does not force the other side's "
            "inability",
            "invalid",
            lambda n, cs, fs: Implies(E(cs[0], fs[0]),
                                      I(_rest(n, cs[0]), fs[0])),
            1, "one",
            fixture=Fixture("m1", "s", "E[1] true -> I[2] true",
                            (("E[1] true", True), ("I[2] true", False)))),
        Law("symmetry", "strategic",
            "a coalition's inability is not mirrored by its complement "
            "on the negated goal",
            "invalid",
            lambda n, cs, fs: Iff(I(cs[0], fs[0]),
                                  I(_rest(n, cs[0]), Not(fs[0]))),
            1, "one",
            fixture=Fixture("symmetry", "s", "I[1] p <-> I[2] !p",
                            (("E[1] p", True), ("I[1] p", False),
                             ("I[2] !p", True)))),
        Law("complementarity", "strategic",
            "a coalition and its complement can both escape inability",
            "invalid",
            lambda n, cs, fs: Or(I(cs[0], fs[0]), I(_rest(n, cs[0]), fs[0])),
            1, "one",
            fixture=Fixture("m1", "s", "I[1] true | I[2] true",
                            (("I[1] true", False), ("I[2] true", False)))),
        Law("opponent-ability", "strategic",
            "a coalition's inability does not hand the complement "
            "control of the negation",
            "invalid",
            lambda n, cs, fs: Implies(I(cs[0], fs[0]),
                                      E(_rest(n, cs[0]), Not(fs[0]))),
            1, "one",
            fixture=Fixture("matching_pennies", "s", "I[1] p -> E[2] !p",
                            (("I[1] p", True), ("E[2] !p", False)))),

        # Boundary cases.
        Law("grand-coalition-duality", "boundary",
            "everyone's inability is the empty coalition's ability to "
            "ensure the negation",
            "valid",
            lambda n, cs, fs: Iff(I(_grand(n), fs[0]),
                                  E(Coalition.from_bitmask(0),
                                    Not(fs[0]))),
            0, "one"),
        Law("empty-coalition-duality", "boundary",
            "the empty coalition's inability is everyone's ability to "
            "ensure the negation",
            "valid",
            lambda n, cs, fs: Iff(I(Coalition.from_bitmask(0), fs[0]),
                                  E(_grand(n), Not(fs[0]))),
            0, "one"),
        Law("contradiction", "boundary",
            "no coalition can ensure a contradiction",
            "valid",
            lambda n, cs, fs: I(cs[0], Bot()),
            1, "none"),
        Law("truth", "boundary",
            "no coalition is unable to ensure a tautology",
            "valid",
            lambda n, cs, fs: Not(I(cs[0], Top())),
            1, "none"),

        # Ability axioms, restated for search.
        Law("axiom-truth", "axiom",
            "every coalition can ensure a tautology",
            "valid",
            lambda n, cs, fs: E(cs[0], Top()),
            1, "none"),
        Law("axiom-no-contradiction", "axiom",
            "no coalition can ensure a contradiction",
            "valid",
            lambda n, cs, fs: Not(E(cs[0], Bot())),
            1, "none"),
        Law("axiom-superadditivity", "axiom",
            "disjoint coalitions combine their guarantees",
            "valid",
            lambda n, cs, fs: Implies(And(E(cs[0], fs[0]), E(cs[1], fs[1])),
                                      E(_union(cs[0], cs[1]),
                                        And(fs[0], fs[1]))),
            2, "two", _disjoint),
        Law("axiom-grand-coalition", "axiom",
            "what the empty coalition cannot block, everyone can ensure",
            "valid",
            lambda n, cs, fs: Implies(Not(E(Coalition.from_bitmask(0),
                                            Not(fs[0]))),
                                      E(_grand(n), fs[0])),
            0, "one"),
        Law("inability-definition", "axiom",
            "inability is exactly the negation of ability",
            "valid",
            lambda n, cs, fs: Iff(I(cs[0], fs[0]), Not(E(cs[0], fs[0]))),
            1, "one"),
        Law("ability-distribution", "axiom",
            "ability does not distribute over implication",
            "invalid",
            lambda n, cs, fs: Implies(E(cs[0], Implies(fs[0], fs[1])),
                                      Implies(E(cs[0], fs[0]),
                                              E(cs[0], fs[1]))),
            1, "two"),

        # Satisfiability.
        Law("strategic-impotence", "strategic",
            "a coalition can be unable to settle a goal in either "
            "direction",
            "satisfiable",
            lambda n, cs, fs: And(I(cs[0], fs[0]), I(cs[0], Not(fs[0]))),
            1, "one",
            fixture=Fixture("matching_pennies", "s", "I[1] p & I[1] !p",
                            (("I[1] p", True), ("I[1] !p", True)))),
    )


# ---------------------------------------------------------------------------
# Instantiation

def _formula_pool(atoms: Sequence[str]) -> list[Formula]:
    base = [Atom(a) for a in atoms]
    pool: list[Formula] = list(base)
    pool += [Not(a) for a in base]
    pool += [Top(), Bot()]
    pool += [And(x, y) for x, y in combinations(base, 2)]
    pool += [Or(x, y) for x, y in combinations(base, 2)]
    return pool


def _instance_of(f: Formula, g: Formula, sigma: dict[str, Formula]) -> bool:
    """Whether g is f with every atom that sigma names replaced by its
    image, all at once: one walk of both that builds no node."""
    kind = type(f)
    if kind is Atom and f.name in sigma:
        h = sigma[f.name]
        return h is g or h == g
    if kind is not type(g):
        return False
    if kind is Not:
        return _instance_of(f.body, g.body, sigma)
    if kind is And or kind is Or or kind is Implies or kind is Iff:
        return (_instance_of(f.left, g.left, sigma)
                and _instance_of(f.right, g.right, sigma))
    if kind is Ability or kind is Inability:
        return (f.coalition == g.coalition
                and _instance_of(f.body, g.body, sigma))
    return f == g


# Per formula mode: how many pool formulas it picks, and its parameter
# templates, each a function of those picks.  A template is called on
# every tuple of pool formulas, in order.
_MODES = {"none": (0, (lambda: (),)), "one": (1, (lambda p: (p,),)),
          "two": (2, (lambda p, q: (p, q),)),
          "entailment": (2, (lambda p, q: (p, Or(p, q)),
                             lambda p, q: (And(p, q), p)))}

# Most instantiations of one law, counted before its side condition: a
# law run builds each of them, and may search each.
MAX_INSTANTIATIONS = 1 << 16


def _groups(law: Law, n_agents: int, atoms: Sequence[str]) -> Iterator[
        tuple[tuple[Coalition, ...], tuple[Formula, ...] | None, list]]:
    """The instances of `instantiations` with the refusals it documents,
    as (coalitions, schematic, params) per coalition tuple and template:
    schematic is the template called on as many of the first atoms as
    the mode picks (None if there are fewer), and params pairs the map of
    those atoms to each pick with the template called on that pick."""
    if n_agents < 1:
        raise ValueError("need at least one agent")
    if n_agents > MAX_AGENT:    # no Coalition holds the agents past it
        raise ClicError(f"laws range over at most {MAX_AGENT} agents")
    pool = _formula_pool(atoms)
    if law.formula_mode not in _MODES:
        raise ValueError(f"unknown formula mode {law.formula_mode!r}")
    arity, templates = _MODES[law.formula_mode]
    picks = list(product(pool, repeat=arity))
    if (len(templates) * len(picks) << n_agents * law.coalition_arity
            > MAX_INSTANTIATIONS):
        raise ClicError(f"law {law.id!r} has over {MAX_INSTANTIATIONS} "
                        f"instantiations at {n_agents} agents")
    names = atoms[:arity]
    sigmas = [dict(zip(names, ps)) for ps in picks]
    filled = [(t(*map(Atom, names)) if len(names) == arity else None,
               [(sigma, t(*ps)) for sigma, ps in zip(sigmas, picks)])
              for t in templates]
    # Coalitions are built as the loop reaches them, not all 2**n up front.
    masks = range(1 << n_agents) if law.coalition_arity else ()
    for ms in product(masks, repeat=law.coalition_arity):
        cs = tuple(map(Coalition.from_bitmask, ms))
        if law.side_condition is not None and not law.side_condition(cs):
            continue
        for schematic, params in filled:
            yield cs, schematic, params


def instantiations(law: Law, n_agents: int,
                   atoms: Sequence[str]) -> Iterator[Formula]:
    """All concrete instances of the scheme, coalition-major order.

    Coalitions range over all subsets of {1..n_agents} that pass the
    side condition; formula parameters range over the atoms, their
    negations, truth, falsity, and pairwise conjunctions/disjunctions
    of distinct atoms.  Entailment mode yields premise/conclusion pairs
    that entail by shape: (f, f | g) and (f & g, f).  Past MAX_AGENT
    agents or MAX_INSTANTIATIONS instances it raises ClicError before the
    first instance.
    """
    for cs, _, params in _groups(law, n_agents, atoms):
        for _, fs in params:
            yield law.scheme(n_agents, cs, fs)


# ---------------------------------------------------------------------------
# Running

def evaluate_fixture(law: Law) -> list[tuple[str, bool, bool]]:
    """(text, value at the fixture state, pinned value) for the fixture's
    instance, pinned false (true for the satisfiability entry), then for
    each recorded claim: what `replay_fixture` and `clic laws --law` read.
    """
    if law.fixture is None:
        raise FixtureMissing(f"law {law.id!r} has no pinned fixture")
    fx = law.fixture
    m = fixture_model(fx.model_name)
    _require_state(m, fx.state)
    pinned = ((fx.instance, law.expected == "satisfiable"), *fx.claims)
    found = extensions(m, [parse_formula(text) for text, _ in pinned])
    return [(text, fx.state in ext, want)
            for (text, want), ext in zip(pinned, found)]


def replay_fixture(law: Law) -> bool:
    """Whether a fixture's instance and every claim evaluate as pinned."""
    return all(got == want for _, got, want in evaluate_fixture(law))


# A result's fields, in the order `clic laws` shows them.
COLUMNS = ("law", "expected", "observed", "instantiations", "models_checked",
           "result")


@dataclass(frozen=True)
class LawResult:
    """One catalog entry's outcome under run_laws.

    `instance` is the concrete formula whose search produced
    `evidence` (for an invalid row, the falsified instantiation; for
    the satisfiability entry, the satisfied one).
    """

    law_id: str
    expected: str
    observed: str
    instantiations: int
    models_checked: int
    passed: bool
    evidence: Counterexample | None
    instance: Formula | None
    fixture_ok: bool | None
    elapsed: float

    def row(self) -> tuple[str, ...]:
        """The cells under COLUMNS."""
        return (self.law_id, self.expected, self.observed,
                str(self.instantiations), str(self.models_checked),
                "PASS" if self.passed else "FAIL")


@dataclass(frozen=True)
class LawReport:
    bounds: Bounds
    results: tuple[LawResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        """Plain-text table, one row per catalog entry."""
        rows = [COLUMNS, *(r.row() for r in self.results)]
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines = ["  ".join(cell.ljust(width)
                           for cell, width in zip(row, widths)).rstrip()
                 for row in rows]
        lines.insert(1, "  ".join("-" * width for width in widths))
        return "\n".join(lines)


# Per expectation: what a found countermodel shows, what its absence shows.
_OBSERVED = {"valid": ("invalid", "valid"),
             "invalid": ("invalid", "valid"),
             "satisfiable": ("satisfiable", "unsatisfiable")}


def _verdict(law: Law, f: Formula, b: Bounds) -> Verdict:
    """The row's search on f: a model of f is a countermodel of !f."""
    return find_countermodel(Not(f) if law.expected == "satisfiable" else f,
                             b)


def _settle(law: Law, b: Bounds, cs: tuple[Coalition, ...],
            schematic: tuple[Formula, ...] | None, params: list) -> int | None:
    """Models each instance of the group checks, if the scheme at its
    schematic parameters exhausts and each instance is that formula with
    the group's substitution applied; else None.

    A block varies every valuation of the bounds' atoms over each frame,
    so a countermodel of an instance, its valuation replaced by the
    extensions of the substituted formulas, is one of the schematic
    formula in the same block.  The pool formulas name no coalition, so
    an instance also has the schematic formula's agents, coalitions and
    modal depth, and its search exhausts the same blocks."""
    if schematic is None:
        return None
    f = law.scheme(b.max_agents, cs, schematic)
    try:
        verdict = _verdict(law, f, b)
    except ClicError:   # the instances' own searches raise or skip
        return None
    if isinstance(verdict, Counterexample) or not all(
            _instance_of(f, law.scheme(b.max_agents, cs, fs), sigma)
            for sigma, fs in params):
        return None
    return verdict.models_checked


def _searches(law: Law, b: Bounds, pinned: list[Formula]
              ) -> Iterator[tuple[int, int, Verdict | None, Formula | None]]:
    """(instances, models checked, verdict, instance) per search of a row:
    the pinned instance, then per group its settled total, or else each
    instance's own search.  A valid row must search every instance: one
    the bounds cannot search raises rather than pass unchecked; another
    row counts it and skips it."""
    def search(f: Formula):
        try:
            verdict = _verdict(law, f, b)
        except BoundsInsufficientForFormula:
            if law.expected == "valid":
                raise
            return 1, 0, None, f
        return 1, verdict.models_checked, verdict, f
    yield from map(search, pinned)
    for cs, schematic, params in _groups(law, b.max_agents, b.props):
        models = _settle(law, b, cs, schematic, params)
        if models is None:
            for _, fs in params:
                yield search(law.scheme(b.max_agents, cs, fs))
        else:
            yield len(params), len(params) * models, None, None


def _run_law(law: Law, b: Bounds) -> LawResult:
    start = perf_counter()
    if law.expected not in _OBSERVED:
        raise ValueError(f"unknown expectation {law.expected!r}")
    found, observed = _OBSERVED[law.expected]
    count = models_total = 0
    evidence = instance = None
    # A row other than a valid one tries its fixture's pinned instance
    # first, the known falsifying (or satisfying) shape, so search need
    # not wade through valid ones.
    pinned = ([] if law.expected == "valid" or law.fixture is None
              else [parse_formula(law.fixture.instance)])
    for n, models, verdict, f in _searches(law, b, pinned):
        count += n
        models_total += models
        if isinstance(verdict, Counterexample):
            observed, evidence, instance = found, verdict, f
            break
    fixture_ok = replay_fixture(law) if pinned else None
    passed = observed == law.expected and fixture_ok is not False
    return LawResult(law.id, law.expected, observed, count, models_total,
                     passed, evidence, instance, fixture_ok,
                     perf_counter() - start)


def run_laws(b: Bounds | None = None,
             laws: Sequence[Law] | None = None) -> LawReport:
    """Check every catalog entry (or the given ones) within bounds.

    A valid law passes when all its instantiations exhaust the search;
    an invalid law passes when some instantiation has a countermodel
    and its fixture (if any) replays; the satisfiability entry passes
    when a satisfying model turns up and its fixture replays.
    """
    if b is None:
        b = default_bounds()
    chosen = catalog() if laws is None else tuple(laws)
    return LawReport(b, tuple(_run_law(law, b) for law in chosen))
