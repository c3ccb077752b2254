"""Exception types shared across the package, and the quoting of input
values in error messages."""

import reprlib

_EXCERPT_CHARS = 80


def excerpt(value):
    """The repr of an input value for an error message, cut to at most
    ``_EXCERPT_CHARS`` characters, so an oversized input cannot flood it."""
    text = reprlib.repr(value)
    if len(text) > _EXCERPT_CHARS:
        text = text[: _EXCERPT_CHARS - 3] + "..."
    return text


class MatdegError(Exception):
    """Base class for all package errors."""


class AxiomViolation(MatdegError):
    """A proposed circuit family fails the circuit elimination axiom."""


class RankMismatch(MatdegError):
    """A declared rank disagrees with the rank computed from the circuits."""


class GroundSetMismatch(MatdegError):
    """Two matroids expected on the same ground set have different ones."""


class ConditionsFailed(MatdegError):
    """A labeled hypergraph does not satisfy the pairwise rank-bound
    conditions required for its induced circuit family to be a matroid."""


class NotSimple(MatdegError):
    """An operation restricted to simple matroids got loops or double points."""


class NotRankFour(MatdegError):
    """An operation restricted to rank-4 matroids got a different rank."""


class BudgetExceeded(MatdegError):
    """A configured node or depth budget was exhausted mid-search."""
