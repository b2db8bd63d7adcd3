"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "ClicError", "ParseError", "DuplicateAgentInCoalition",
    "ModelFormatError", "MissingInit", "MissingActions", "UnknownState",
    "UnknownAction", "UnknownAgent", "PartialOutcome",
    "CoalitionOutOfRange", "BoundsTooSmall", "BoundsInsufficientForFormula",
    "FixtureMissing",
]


class ClicError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ClicError):
    """Malformed formula text.

    `offset` is the character position of the offending token and
    `expected` lists the token kinds that would have been accepted there.
    """

    def __init__(self, message: str, offset: int | None = None,
                 expected: tuple[str, ...] = ()):
        if offset is not None:
            message = f"{message} at offset {offset}"
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(message)
        self.offset = offset
        self.expected = expected


class DuplicateAgentInCoalition(ParseError):
    """An agent index occurs twice in a coalition literal."""


class ModelFormatError(ClicError):
    """Malformed or inconsistent model file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingInit(ModelFormatError):
    """The model file declares no initial state."""


class MissingActions(ModelFormatError):
    """Some agent has no declared action set."""

    def __init__(self, agent: int, line: int | None = None):
        super().__init__(f"no actions declared for agent {agent}", line)
        self.agent = agent


class UnknownState(ModelFormatError):
    """A state identifier is used but never declared."""


class UnknownAction(ModelFormatError):
    """An action identifier is not among the acting agent's actions."""


class UnknownAgent(ModelFormatError):
    """An agent index lies outside the declared agent set."""


class PartialOutcome(ModelFormatError):
    """A (state, profile) pair has neither an explicit outcome nor a default."""

    def __init__(self, state: str, profile: tuple[str, ...]):
        super().__init__(
            f"no outcome for state {state!r} under profile ({', '.join(profile)})")
        self.state = state
        self.profile = profile


class CoalitionOutOfRange(ClicError):
    """A coalition mentions an agent outside the model's agent set."""


class BoundsTooSmall(ClicError, ValueError):
    """The requested check has an empty or inadequate search space."""


class BoundsInsufficientForFormula(ClicError):
    """No model within the bounds can evaluate the formula."""


class FixtureMissing(ClicError):
    """The law carries no replayable fixture."""
