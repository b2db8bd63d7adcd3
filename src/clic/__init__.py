"""Coalition logic with an explicit inability operator: parsing, finite
one-step game models, satisfaction checking, inability elimination, and
bounded countermodel search."""

from .errors import (
    BoundsInsufficientForFormula, BoundsTooSmall, ClicError,
    CoalitionOutOfRange, DuplicateAgentInCoalition, FixtureMissing,
    MissingActions, MissingInit, ModelFormatError, ParseError,
    PartialOutcome, ProfilesNotPartition, UnknownAction, UnknownAgent,
    UnknownState,
)
from .formula import (
    Ability, And, Atom, Bot, Coalition, Formula, Iff, Implies, Inability,
    Not, Or, Top, ast_dump, enumerate_formulas, guard_nesting, max_agent,
    modal_depth, parse_formula, print_formula, propositions_of,
)
from .model import (
    ActionProfile, Bounds, CoalitionModel, apply, complement,
    enumerate_models, parse_model, print_model, profiles,
)
from .semantics import (
    AbilityWitness, InabilityWitness, check_ability, check_inability,
    extension, satisfies, verify_ability_witness, verify_inability_witness,
)
from .translation import (
    PreservationReport, check_truth_preservation, is_cl_fragment, translate,
)
from .validity import (
    Counterexample, NoCounterexampleWithinBounds, Verdict, check_equivalence,
    default_bounds, find_countermodel, minimal_countermodel,
)
from .laws import (
    Fixture, Law, LawReport, LawResult, catalog, fixture_model,
    instantiations, replay_fixture, run_laws,
)

# Report a too-deep AST as ClicError; `semantics` keeps the bare clauses.
satisfies = guard_nesting(satisfies)

__all__ = [
    "Ability", "And", "Atom", "Bot", "Coalition", "Formula", "Iff",
    "Implies", "Inability", "Not", "Or", "Top",
    "ast_dump", "enumerate_formulas", "max_agent", "modal_depth",
    "parse_formula", "print_formula", "propositions_of",
    "ActionProfile", "Bounds", "CoalitionModel",
    "apply", "complement", "enumerate_models", "parse_model", "print_model",
    "profiles",
    "AbilityWitness", "InabilityWitness", "check_ability", "check_inability",
    "extension", "satisfies", "verify_ability_witness",
    "verify_inability_witness",
    "PreservationReport", "check_truth_preservation", "is_cl_fragment",
    "translate",
    "Counterexample", "NoCounterexampleWithinBounds", "Verdict",
    "check_equivalence", "default_bounds", "find_countermodel",
    "minimal_countermodel",
    "Fixture", "Law", "LawReport", "LawResult", "catalog", "fixture_model",
    "instantiations", "replay_fixture", "run_laws",
    "ClicError", "ParseError", "DuplicateAgentInCoalition",
    "ModelFormatError", "MissingInit", "MissingActions", "UnknownState",
    "UnknownAction", "UnknownAgent", "PartialOutcome",
    "CoalitionOutOfRange", "ProfilesNotPartition", "BoundsTooSmall",
    "BoundsInsufficientForFormula", "FixtureMissing",
]
