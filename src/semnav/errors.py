"""Exception hierarchy shared across the toolkit.

Every error raised by this package derives from :class:`SemNavError`, so callers
can catch one type at the CLI boundary and map it to an exit code.
"""

from __future__ import annotations


class SemNavError(Exception):
    """Base class for all semnav errors."""


class ParseError(SemNavError):
    """Map file is syntactically malformed or violates the schema."""


class ValidationError(SemNavError):
    """A loaded entity violates a semantic invariant; names the entity."""


class UnknownId(SemNavError):
    """An operation referenced a room or doorway id that does not exist."""


class DegenerateRoom(SemNavError):
    """Room walls do not close into a simple rectangle."""


class DoorwayPlacement(SemNavError):
    """A doorway cannot be carved into its rooms' walls."""


class EmptyMap(SemNavError):
    """Map contains no wall geometry to build from."""


class OutOfBounds(SemNavError):
    """Query point lies outside the sampled grid."""


class NotIncident(SemNavError):
    """Edge cost requested for a room/doorway pair that is not connected."""


class StartOutsideMap(SemNavError):
    """Route start does not lie in any room."""


class GoalOutsideMap(SemNavError):
    """Route goal does not lie in any room."""


class NoRoute(SemNavError):
    """No doorway sequence connects start to goal."""


class EmptyRegion(SemNavError):
    """A sampling region holds no valid state: no allowed room, or no point
    with the robot's clearance."""


class InvalidStart(SemNavError):
    """Planner start state fails the validity check."""


class InvalidGoal(SemNavError):
    """Planner goal state fails the validity check."""


class SubproblemInfeasible(SemNavError):
    """A decomposed subproblem can never be solved (e.g. too-narrow doorway)."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class EmptyInput(SemNavError):
    """An aggregation was asked to summarize zero records."""
