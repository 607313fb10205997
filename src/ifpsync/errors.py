"""Exception taxonomy shared across the package, and the readers of input.

The CLI maps these onto its exit codes, so every error a caller may want to
branch on lives here rather than as bare ValueErrors. The readers at the end
decide, for every loader, what a value read from parsed JSON may be.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from numbers import Real

import numpy as np


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
    """Inconsistent lengths, or an input that is missing, mistyped, non-finite or out of range."""


class CertificateFailed(IfpSyncError):
    """A prerequisite certificate does not hold."""


class MuTauViolation(IfpSyncError):
    """Vehicle lag/velocity-gain product mu*tau >= 1/2."""


# --- simulation -------------------------------------------------------------

class EmptyTrajectory(IfpSyncError):
    """Metrics requested for an empty trajectory."""


# --- readers of parsed JSON: each error names the field ---------------------

def field(d: dict, key: str, prefix: str = ""):
    """d[key]; the error names the missing key after `prefix` ("gains: ")."""
    if key not in d:
        raise BadDimensions(f"{prefix}missing field {key!r}")
    return d[key]


def json_object(name: str, value, keys=None) -> dict:
    """A JSON object, holding no key outside `keys` when they are given."""
    if not isinstance(value, dict):
        raise BadDimensions(f"{name} must be a JSON object, got {type(value).__name__}")
    extra = sorted(value.keys() - set(keys or value))
    if extra:
        raise BadDimensions(f"{name}: unknown field {extra[0]!r}")
    return value


def json_list(name: str, value) -> list:
    if not isinstance(value, list):
        raise BadDimensions(f"{name} must be a list, got {type(value).__name__}")
    return value


def number(name: str, value) -> float:
    """A finite number; neither a boolean nor a numeric string is one."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise BadDimensions(f"{name} must be a number, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        raise BadDimensions(
            f"{name} must be finite, got an integer beyond the float range"
        ) from None
    if not math.isfinite(v):
        raise BadDimensions(f"{name} must be finite, got {v}")
    return v


def integer(name: str, value) -> int:
    """An integer; an integral float such as 10.0 is accepted."""
    if not number(name, value).is_integer():
        raise BadDimensions(f"{name} must be finite and integral, got {value}")
    return int(value)


def numbers(name: str, value, finite: bool = True) -> np.ndarray:
    """A list of numbers (nested for a matrix) as a float array, converted
    once. Strings, nulls, ragged nesting and an all-boolean list raise, and so
    does a non-finite entry unless finite is False (for callers that name the
    entry themselves). numpy reads [0.5, true] as [0.5, 1.0]."""
    try:
        a = np.array(value)
    except ValueError:  # ragged nesting
        a = np.array(None)
    if a.ndim == 0 or a.dtype.kind not in "iuf":
        raise BadDimensions(f"{name} must be a list of numbers")
    a = a.astype(float, copy=False)
    if finite and not np.isfinite(a).all():
        raise BadDimensions(f"{name} must be finite, got {a}")
    return a


@contextmanager
def where(prefix: str):
    """Start the message of an IfpSyncError raised inside with `prefix`
    ("scenario 3: "), keeping its type."""
    try:
        yield
    except IfpSyncError as e:
        raise type(e)(f"{prefix}{e}") from None
