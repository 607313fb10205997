"""Exception taxonomy shared across the package.

The CLI maps these onto its exit codes, so every error a caller may want to
branch on lives here rather than as bare ValueErrors. `integer` reads an
integer input field for every loader, raising BadDimensions when it cannot.
"""

from __future__ import annotations

import math


class IfpSyncError(ValueError):
    """Base class for all ifpsync errors."""


# --- graph construction / structure ---------------------------------------

class NotSquare(IfpSyncError):
    """Adjacency matrix is not square."""


class NegativeWeight(IfpSyncError):
    """Adjacency matrix contains a negative entry."""


class SelfLoop(IfpSyncError):
    """Adjacency matrix has a nonzero diagonal entry."""


class NotStronglyConnected(IfpSyncError):
    """Operation requires a strongly connected digraph."""


# --- transfer functions / passivity ----------------------------------------

class ZeroPolynomial(IfpSyncError):
    """The zero polynomial was passed where a nonzero one is required."""


class PoleOnAxis(IfpSyncError):
    """Frequency response requested at (numerically) a pole."""


class NotCertifiable(IfpSyncError):
    """Transfer function fails the positive-real-lemma pole conditions."""


class BOutOfRange(IfpSyncError):
    """Feedback shift b outside (0, 1/(2*alpha))."""


class DimensionMismatch(IfpSyncError):
    """Vector arguments have inconsistent dimensions."""


# --- certificates -----------------------------------------------------------

class BadDimensions(IfpSyncError):
    """Inconsistent lengths, or a parameter that is non-finite or out of range."""


class CertificateFailed(IfpSyncError):
    """A prerequisite certificate does not hold."""


class MuTauViolation(IfpSyncError):
    """Vehicle lag/velocity-gain product mu*tau >= 1/2."""


# --- simulation -------------------------------------------------------------

class EmptyTrajectory(IfpSyncError):
    """Metrics requested for an empty trajectory."""


def integer(name: str, value) -> int:
    """An integer field read from input; an integral float such as 10.0 is
    accepted. BadDimensions for a non-finite or non-integral value, which a
    bare int() would overflow on or truncate."""
    if isinstance(value, float) and not (math.isfinite(value) and value.is_integer()):
        raise BadDimensions(f"{name} must be finite and integral, got {value}")
    return int(value)
