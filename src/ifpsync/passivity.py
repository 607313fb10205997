"""Rational transfer functions and input-feedforward passivity (IFP) indices.

A SISO transfer function W(s) = num(s)/den(s) with no poles in the open right
half plane and only simple imaginary-axis poles with non-negative real
residues is IFP(alpha) for

    alpha = max(0, -inf_w Re W(iw)),

i.e. W shifted by the feedforward alpha*u is passive. On the axis
Re W(iw) = R(w^2)/Q(w^2) with polynomials R and Q, so ``ifp_index`` takes
the infimum exactly over w = 0, the imaginary-axis poles, the positive roots
of R'Q - RQ', and w -> infinity; ``prl_conditions`` reports the underlying
positive-real-lemma conditions with the same infimum. Rescaling by the
largest pole magnitude makes results and tolerances free of the time unit.

Pole and residue classification works on the num/den pair as given; callers
are expected to supply transfer functions in lowest terms (common factors
cancelled to ~1e-9), since a hidden unstable cancellation cannot be detected
numerically from the coefficients alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadDimensions,
    BOutOfRange,
    DimensionMismatch,
    IfpSyncError,
    NotCertifiable,
    PoleOnAxis,
    ZeroPolynomial,
)

__all__ = [
    "Polynomial",
    "RationalTF",
    "IfpCertificate",
    "PrlReport",
    "IfpShift",
    "eval_freq",
    "routh_hurwitz",
    "ifp_index",
    "prl_conditions",
    "ifp_shift",
    "ifp_shift_identity_check",
]

#: |den(iw)| below this fraction of sum_k |den_k| |w|^k counts as a pole hit
_POLE_RTOL = 1e-14

#: unit-scaled pole classification: a pole with |Re| <= _AXIS_RTOL*(1+|Im|)
#: at which |den(i Im)| is this small against its scale is "on the imaginary
#: axis"; a deflated |den|^2 this small against its scale is zero
_AXIS_RTOL = 1e-9

#: relative tolerance on the imaginary part and sign of an axis-pole residue
_RESIDUE_RTOL = 1e-6

#: minimum distance between unit-scaled imaginary-axis poles to count as simple
_SIMPLE_TOL = 1e-6


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients, c[k] * x^k.

    High-order zero coefficients are trimmed on construction, so the leading
    coefficient is nonzero unless the polynomial is identically zero. Every
    coefficient must be finite (BadDimensions otherwise).
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        c = [float(x) for x in coeffs]
        for k, x in enumerate(c):
            if not math.isfinite(x):
                raise BadDimensions(f"coefficient of x^{k} must be finite, got {x}")
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        if not c:
            c = [0.0]
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, x):
        r = 0.0 * x  # promotes to complex when x is complex
        for c in reversed(self.coeffs):
            r = r * x + c
        return r

    def descending(self) -> np.ndarray:
        """Coefficients in highest-first order (np.roots/np.polyval layout)."""
        return np.array(self.coeffs[::-1], dtype=float)

    def magnitude_at(self, w: float) -> float:
        """sum_k |c_k| |w|^k — the natural magnitude scale of an evaluation."""
        aw = abs(w)
        return float(sum(abs(c) * aw**k for k, c in enumerate(self.coeffs)))


@dataclass(frozen=True)
class RationalTF:
    """Proper SISO rational transfer function num/den (ascending coeffs)."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroPolynomial("denominator is identically zero")
        if self.num.degree > self.den.degree:
            raise IfpSyncError(
                f"improper transfer function: deg num {self.num.degree} > "
                f"deg den {self.den.degree}"
            )

    @classmethod
    def from_coeffs(cls, num: Sequence[float], den: Sequence[float]) -> "RationalTF":
        return cls(Polynomial(num), Polynomial(den))

    @property
    def strictly_proper(self) -> bool:
        return self.num.degree < self.den.degree

    def poles(self) -> np.ndarray:
        """Denominator roots (companion-matrix eigenvalues)."""
        if self.den.degree < 1:
            return np.array([], dtype=complex)
        return np.roots(self.den.descending())


@dataclass(frozen=True)
class IfpCertificate:
    """Result of ifp_index: W is IFP(alpha).

    omega_star is the frequency attaining (or approaching) the infimum of
    Re W(iw); math.inf flags the limit w -> infinity. raw_infimum keeps the
    unclamped infimum for diagnostics (alpha clamps it at zero).
    """

    alpha: float
    omega_star: float
    method: str  # "closed_form": the exact infimum over finitely many candidates
    raw_infimum: float

    def to_json_dict(self) -> dict:
        ws = "inf" if math.isinf(self.omega_star) else self.omega_star
        return {
            "alpha": self.alpha,
            "omega_star": ws,
            "method": self.method,
            "raw_infimum": self.raw_infimum,
        }


@dataclass(frozen=True)
class PrlReport:
    """Positive-real-lemma conditions for W(s) + alpha."""

    no_unstable_poles: bool
    imaginary_poles_ok: bool
    freq_condition_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "no_unstable_poles": self.no_unstable_poles,
            "imaginary_poles_ok": self.imaginary_poles_ok,
            "freq_condition_ok": self.freq_condition_ok,
        }


@dataclass(frozen=True)
class IfpShift:
    """Output-feedback shift u -> u + b*y of an IFP(alpha) system.

    The shifted system is IFP(alpha_hat) with surplus output passivity gamma:

        alpha_hat = alpha / (1 - 2*alpha*b)
        gamma     = b * (1 - alpha*b) / (1 - 2*alpha*b)
    """

    alpha: float
    b: float
    alpha_hat: float
    gamma: float


def eval_freq(tf: RationalTF, omega: float) -> complex:
    """Evaluate W(i*omega).

    Raises PoleOnAxis when |den(i*omega)| is below 1e-14 of the denominator's
    own magnitude scale at that frequency.
    """
    s = 1j * float(omega)
    d = tf.den(s)
    scale = tf.den.magnitude_at(omega)
    if abs(d) < _POLE_RTOL * scale:
        raise PoleOnAxis(f"denominator vanishes at omega = {omega}")
    return tf.num(s) / d


def routh_hurwitz(p: Polynomial) -> bool:
    """True iff every root of p has strictly negative real part.

    Standard Routh table; any non-positive first-column entry (including an
    exact zero pivot) declares the polynomial non-Hurwitz, which is the
    correct strict verdict and avoids epsilon bookkeeping.
    """
    if p.is_zero:
        raise ZeroPolynomial("routh_hurwitz of the zero polynomial")
    if p.degree == 0:
        return True  # no roots
    a = list(p.descending())
    if a[0] < 0.0:
        a = [-x for x in a]
    row_prev = a[0::2]
    row_cur = a[1::2]
    if row_prev[0] <= 0.0:
        return False
    while row_cur:
        pivot = row_cur[0]
        if pivot <= 0.0:
            return False
        width = len(row_prev) - 1
        nxt = []
        for i in range(width):
            up = row_prev[i + 1]
            left = row_cur[i + 1] if i + 1 < len(row_cur) else 0.0
            nxt.append((pivot * up - row_prev[0] * left) / pivot)
        row_prev, row_cur = row_cur, nxt
    return True


def _unit_scaled(tf: RationalTF) -> tuple[RationalTF, float, np.ndarray]:
    """(W(rho*s), rho, poles of W(rho*s)), rho the power of two nearest the
    largest pole magnitude (1 if all poles are at the origin), with both
    polynomials divided by the power of two nearest the largest rescaled den
    coefficient. Powers of two scale exactly, and combining the exponents
    first keeps every coefficient finite."""
    roots = tf.poles()
    rho = float(np.abs(roots).max(initial=0.0))
    e = round(math.log2(rho)) if rho > 0.0 else 0
    den = np.array(tf.den.coeffs)
    ek = e * np.arange(len(den))
    shift = ek - (np.frexp(den)[1] + ek)[den != 0.0].max()
    num = np.ldexp(np.array(tf.num.coeffs), shift[: len(tf.num.coeffs)])
    scaled = RationalTF(Polynomial(num), Polynomial(np.ldexp(den, shift)))
    return scaled, 2.0**e, roots / 2.0**e


def _imaginary_pole_ok(tf: RationalTF, idx: int, roots: np.ndarray, rho: float) -> bool:
    """Simple imaginary pole of the unit-scaled W(rho*s) whose residue in W,
    rho*num/den' there, is (numerically) real non-negative.

    The tolerance is relative to the rounding scale of the residue,
    rho*sum_k |num_k| |lam0|^k / |den'(lam0)|, so the verdict does not change
    with a gain on W, and an exact pole-zero cancellation (residue 0)
    passes."""
    pole = roots[idx]
    others = np.delete(roots, idx)
    if len(others) and np.abs(others - pole).min() <= _SIMPLE_TOL:
        return False
    lam0 = 1j * pole.imag
    slope = Polynomial([k * c for k, c in enumerate(tf.den.coeffs)][1:])(lam0)
    res = rho * tf.num(lam0) / slope
    tol = _RESIDUE_RTOL * rho * tf.num.magnitude_at(pole.imag) / abs(slope)
    return res.real >= -tol and abs(res.imag) <= tol


def _at_iw(p: Polynomial) -> np.ndarray:
    """Coefficients of p(iw) as a polynomial in w."""
    return np.array(p.coeffs) * np.resize([1.0, 1j, -1.0, -1j], len(p.coeffs))


def _divide(p: np.ndarray, c: float) -> np.ndarray:
    """Quotient of p(x) by (x - c), remainder dropped (ascending coefficients)."""
    q = np.zeros(max(len(p) - 1, 1))
    acc = 0.0
    for k in range(len(p) - 1, 0, -1):
        acc = p[k] + c * acc
        q[k - 1] = acc
    return q


def _axis_infimum(tf: RationalTF, poles: np.ndarray, real_residues: bool) -> tuple[float, float]:
    """(inf, argmin) of Re W(iw) over finite w >= 0, given W's axis poles.

    Re W(iw) = R(x)/Q(x) in x = w^2 with Q = |den(iw)|^2, once each distinct
    axis pole is divided out of R and Q: x at the origin, (x - w0^2)^2 for
    +-i w0, where a non-real residue (never if real_residues) leaves R a
    remainder at the second factor and makes the infimum -inf. Candidates are
    x = 0, the poles (where the deflated R/Q continues Re W) and the positive
    real parts of the roots of R'Q - RQ' (num/den there; a complex root only
    adds a value of Re W). Where the deflated Q still vanishes (a repeated
    pole) the infimum is -inf if R < 0, and the point is skipped otherwise.
    Ties keep the first candidate.
    """
    n_iw, d_iw = _at_iw(tf.num), _at_iw(tf.den)
    r = np.convolve(n_iw, d_iw.conj()).real[::2]  # Re num(iw) conj(den(iw))
    q = np.convolve(d_iw, d_iw.conj()).real[::2]
    pole_x: list[float] = []
    last = None
    for p in sorted(poles[poles.imag >= 0.0], key=lambda z: z.imag):
        if last is None or abs(p - last) > _SIMPLE_TOL:  # else the same pole
            last = p
            c = float(p.imag) ** 2 if p.imag > _SIMPLE_TOL else 0.0
            for k in range(2 if c else 1):
                r_c = Polynomial(r)
                if k and not real_residues and abs(r_c(c)) > _RESIDUE_RTOL * r_c.magnitude_at(c):
                    return -math.inf, math.sqrt(c)
                r, q = _divide(r, c), _divide(q, c)
            pole_x.append(c)
    # R'Q - RQ' = sum_ij (i - j) r_i q_j x^(i+j-1): the weight cancels the top
    # terms exactly; a rounded leftover would wreck np.roots' companion matrix
    i, j = np.arange(len(r))[:, None], np.arange(len(q))
    crit = np.bincount((i + j).ravel(), ((i - j) * np.outer(r, q)).ravel())
    z = np.roots(crit[:0:-1])
    r_p, q_p = Polynomial(r), Polynomial(q)
    best, best_w = math.inf, 0.0
    for x, at_pole in [(0.0, False), *((c, True) for c in pole_x),
                       *((float(c), False) for c in z.real[z.real > 0.0])]:
        w = math.sqrt(x)
        if not at_pole and abs(d := tf.den(1j * w)) > _POLE_RTOL * tf.den.magnitude_at(w):
            v = (tf.num(1j * w) / d).real
        elif abs(q_p(x)) > _AXIS_RTOL * q_p.magnitude_at(x):
            v = r_p(x) / q_p(x)
        elif r_p(x) < 0.0:
            v = -math.inf
        else:
            continue
        if v < best:
            best, best_w = v, w
    return best, best_w


def _analyse(tf: RationalTF) -> tuple[bool, bool, float, float]:
    """(no unstable poles, imaginary-axis poles ok, inf_w Re W(iw), argmin);
    argmin math.inf is the w -> infinity limit, which loses ties."""
    scaled, rho, roots = _unit_scaled(tf)
    w0, den = np.abs(roots.imag), scaled.den
    # den must vanish on the axis too, so a slowly unstable pole stays unstable
    on_axis = (np.abs(roots.real) <= _AXIS_RTOL * (1.0 + w0)) & (
        np.abs(den(1j * w0)) <= _AXIS_RTOL * Polynomial(np.abs(den.coeffs))(w0))
    no_unstable = not np.any((roots.real > 0.0) & ~on_axis)
    imag_ok = all(_imaginary_pole_ok(scaled, i, roots, rho) for i in np.flatnonzero(on_axis))
    infimum, w = _axis_infimum(scaled, roots[on_axis], imag_ok)
    limit = tf.num.coeffs[-1] / tf.den.coeffs[-1] if tf.num.degree == tf.den.degree else 0.0
    if limit < infimum:
        return no_unstable, imag_ok, limit, math.inf
    return no_unstable, imag_ok, infimum, rho * w


def ifp_index(tf: RationalTF) -> IfpCertificate:
    """IFP index alpha = max(0, -inf_w Re W(iw)) of a certifiable W.

    The infimum is exact up to rounding (see the module docstring): alpha
    does not depend on the time unit, and omega_star scales with it.

    Raises
    ------
    NotCertifiable
        If W has a pole with positive real part, or an imaginary-axis pole
        that is repeated or has a residue that is not non-negative real.
    """
    no_unstable, imag_ok, infimum, omega_star = _analyse(tf)
    if not no_unstable:
        raise NotCertifiable("transfer function has a pole with positive real part")
    if not imag_ok:
        raise NotCertifiable(
            "imaginary-axis pole is repeated or has a non-real/negative residue"
        )
    return IfpCertificate(
        alpha=max(0.0, -infimum),
        omega_star=omega_star,
        method="closed_form",
        raw_infimum=infimum,
    )


def prl_conditions(tf: RationalTF, alpha: float) -> PrlReport:
    """Positive-real-lemma conditions for W(s) + alpha.

    (1) no poles with positive real part; (2) imaginary-axis poles simple
    with non-negative real residues; (3) Re W(iw) + alpha >= -1e-9 for all
    w, taking the exact infimum of ifp_index (-inf where a repeated
    imaginary-axis pole drives Re W(iw) to -inf).
    """
    no_unstable, imag_ok, infimum, _ = _analyse(tf)
    return PrlReport(
        no_unstable_poles=no_unstable,
        imaginary_poles_ok=imag_ok,
        freq_condition_ok=infimum + float(alpha) >= -1e-9,
    )


def ifp_shift(alpha: float, b: float) -> IfpShift:
    """Shift an IFP(alpha) system by output feedback u -> u + b*y.

    Requires 0 < b (and b < 1/(2*alpha) when alpha > 0).
    """
    alpha = float(alpha)
    b = float(b)
    if alpha < 0.0:
        raise BOutOfRange(f"alpha must be non-negative, got {alpha}")
    if b <= 0.0 or (alpha > 0.0 and b >= 0.5 / alpha):
        hi = math.inf if alpha == 0.0 else 0.5 / alpha
        raise BOutOfRange(f"b must lie in (0, {hi}), got {b}")
    denom = 1.0 - 2.0 * alpha * b
    return IfpShift(
        alpha=alpha,
        b=b,
        alpha_hat=alpha / denom,
        gamma=b * (1.0 - alpha * b) / denom,
    )


def ifp_shift_identity_check(alpha: float, b: float, y, u) -> float:
    """Residual of the exact shift identity on one sample pair (y, u).

    With u_hat = u + b*y the identity

        y.u + alpha|u|^2
          = (1 - 2 alpha b) (y.u_hat + alpha_hat|u_hat|^2 - gamma|y|^2)

    holds algebraically; the returned |lhs - rhs| is pure rounding noise.
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.shape != u.shape:
        raise DimensionMismatch(f"y shape {y.shape} != u shape {u.shape}")
    sh = ifp_shift(alpha, b)
    u_hat = u + b * y
    lhs = float(y @ u + alpha * (u @ u))
    rhs = (1.0 - 2.0 * alpha * b) * float(
        y @ u_hat + sh.alpha_hat * (u_hat @ u_hat) - sh.gamma * (y @ y)
    )
    return abs(lhs - rhs)
