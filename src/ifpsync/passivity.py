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
``ifp_indices`` does this for many transfer functions at once, as array
operations over groups of equal shape; ``ifp_index`` and ``prl_conditions``
are its one-member calls. One evaluator of W(iw), with its pole test, serves
both the batch and ``eval_freq``.

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
    "ifp_indices",
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

_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


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

    def descending(self) -> np.ndarray:
        """Coefficients in highest-first order (np.roots/np.polyval layout)."""
        return np.array(self.coeffs[::-1], dtype=float)


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
    """Evaluate W(i*omega): the one-member call of the batch's evaluator.

    Raises PoleOnAxis unless |den(i*omega)| exceeds 1e-14 of the
    denominator's own magnitude scale sum_k |den_k| |omega|^k there.
    """
    with np.errstate(all="ignore"):
        val, ok = _freq_response(np.array([tf.num.coeffs]), np.array([tf.den.coeffs]),
                                 np.array([[float(omega)]]))
    if not ok[0, 0]:
        raise PoleOnAxis(f"denominator vanishes at omega = {omega}")
    return complex(val[0, 0])


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


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of c (ascending) at the points in the same row of x."""
    r = 0.0 * x
    for k in range(c.shape[1] - 1, -1, -1):
        r = r * x + c[:, k, None]
    return r


def _freq_response(num: np.ndarray, den: np.ndarray, w: np.ndarray):
    """W(iw) for each row pair of num and den (ascending) at the points in
    the same row of w, and a mask that is true where w is no pole:
    |den(iw)| > _POLE_RTOL * sum_k |den_k| |w|^k."""
    s = 1j * w
    d = _horner(den, s)
    return _horner(num, s) / d, np.abs(d) > _POLE_RTOL * _horner(np.abs(den), np.abs(w))


def _roots(p: np.ndarray) -> np.ndarray:
    """Roots of each row of p (descending, nonzero first entry) as np.roots
    finds them: eigenvalues of the companion matrix, one stacked call."""
    m = p.shape[1] - 1
    if m == 0:
        return np.zeros((len(p), 0), complex)
    a = np.zeros((len(p), m, m))
    a[:, 0, :] = -p[:, 1:] / p[:, :1]
    a[:, np.arange(1, m), np.arange(m - 1)] = 1.0
    return np.linalg.eigvals(a).astype(complex)


def _at_iw(c: np.ndarray) -> np.ndarray:
    """Coefficients of each row's p(iw) as a polynomial in w."""
    return c * _I_POWERS[np.arange(c.shape[1]) % 4]


def _conv_even(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re of the even-power coefficients of each row pair's product a*v."""
    out = np.zeros((len(a), a.shape[1] + v.shape[1] - 1), complex)
    for i in range(a.shape[1]):
        out[:, i : i + v.shape[1]] += a[:, i, None] * v
    return out[:, ::2].real


def _divide(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Quotient of each row p(x) by (x - c), remainder dropped, at p's width
    (the top coefficient becomes 0)."""
    q = np.zeros_like(p)
    acc = np.zeros(len(p))
    for k in range(p.shape[1] - 1, 0, -1):
        acc = p[:, k] + c * acc
        q[:, k - 1] = acc
    return q


def _analyse_group(num: np.ndarray, den: np.ndarray, tz: int):
    """_analyse for B transfer functions with equal len(num), len(den) and
    tz zero low-order den coefficients (rows of num and den, ascending)."""
    b, ld = den.shape
    n = ld - 1
    rows = np.arange(b)
    # poles as np.roots orders them: the companion roots, then tz at 0
    poles = np.zeros((b, n), complex)
    poles[:, : n - tz] = _roots(den[:, tz:][:, ::-1])

    # W(rho*s), rho the power of two nearest the largest pole magnitude (1
    # if all poles are at 0), both polynomials divided by the power of two
    # nearest the largest rescaled den coefficient. Powers of two scale
    # exactly, and combining the exponents first keeps coefficients finite.
    rho_max = np.abs(poles).max(axis=1, initial=0.0)
    e = np.where(rho_max > 0.0, np.rint(np.log2(rho_max)), 0.0).astype(int)
    ek = e[:, None] * np.arange(ld)
    top = np.where(den != 0.0, np.frexp(den)[1] + ek, np.iinfo(int).min).max(axis=1)
    shift = ek - top[:, None]
    num_s, den_s = np.ldexp(num, shift[:, : num.shape[1]]), np.ldexp(den, shift)
    finite = np.isfinite(num_s).all(axis=1)
    num_s[~finite] = 0.0  # _analyse reports these members; keep the others' arithmetic finite
    rho = np.ldexp(1.0, e)
    roots = poles / rho[:, None]

    # den must vanish on the axis too, so a slowly unstable pole stays unstable
    w0 = np.abs(roots.imag)
    on_axis = (np.abs(roots.real) <= _AXIS_RTOL * (1.0 + w0)) & (
        np.abs(_horner(den_s, 1j * w0)) <= _AXIS_RTOL * _horner(np.abs(den_s), w0))
    no_unstable = ~np.any((roots.real > 0.0) & ~on_axis, axis=1)

    # an axis pole must be simple with residue rho*num/den' real
    # non-negative, to a tolerance relative to the residue's rounding scale
    # rho*sum_k |num_k| |w|^k / |den'(iw)|: a gain on W leaves the verdict,
    # and an exact pole-zero cancellation (residue 0) passes
    dist = np.abs(roots[:, :, None] - roots[:, None, :])
    dist[:, np.arange(n), np.arange(n)] = np.inf
    iw = 1j * roots.imag
    slope = _horner(np.arange(1, ld) * den_s[:, 1:], iw)
    res = rho[:, None] * _horner(num_s, iw) / slope
    tol = _RESIDUE_RTOL * rho[:, None] * _horner(np.abs(num_s), w0) / np.abs(slope)
    pole_ok = (dist.min(axis=2, initial=np.inf) > _SIMPLE_TOL) & (res.real >= -tol) & (
        np.abs(res.imag) <= tol)
    imag_ok = np.all(pole_ok | ~on_axis, axis=1)

    # Re W(iw) = R(x)/Q(x) in x = w^2 with Q = |den(iw)|^2, once each
    # distinct axis pole (upper half, in increasing Im) is divided out of R
    # and Q: x at the origin, (x - w0^2)^2 for +-i w0, where a non-real
    # residue (never if imag_ok) leaves R a remainder at the second factor
    # and makes the infimum -inf
    den_iw = _at_iw(den_s)
    r = _conv_even(_at_iw(num_s), den_iw.conj())  # Re num(iw) conj(den(iw))
    q = _conv_even(den_iw, den_iw.conj())
    key = np.where(on_axis & (roots.imag >= 0.0), roots.imag, np.inf)
    order = rows[:, None], np.argsort(key, axis=1, kind="stable")
    upper, kept = roots[order], key[order] < np.inf
    last = np.full(b, np.nan, complex)
    for j in range(n):
        kept[:, j] &= ~(np.abs(upper[:, j] - last) <= _SIMPLE_TOL)
        last = np.where(kept[:, j], upper[:, j], last)
    pair = kept & (upper.imag > _SIMPLE_TOL)
    pole_c = np.zeros((b, n))
    pole_c[pair] = upper.imag[pair] ** 2
    dead, dead_w = np.zeros(b, bool), np.zeros(b)
    for j in np.flatnonzero(kept.any(axis=0)):
        c, once, twice = pole_c[:, j], kept[:, j, None], pair[:, j, None]
        r, q = np.where(once, _divide(r, c), r), np.where(once, _divide(q, c), q)
        if not twice.any():
            continue
        bad = pair[:, j] & ~imag_ok & ~dead
        if bad.any():
            bad &= np.abs(_horner(r, c[:, None])[:, 0]) > _RESIDUE_RTOL * _horner(
                np.abs(r), c[:, None])[:, 0]
            dead_w[bad] = np.sqrt(c[bad])
            dead |= bad
        r, q = np.where(twice, _divide(r, c), r), np.where(twice, _divide(q, c), q)

    # R'Q - RQ' = sum_ij (i - j) r_i q_j x^(i+j-1): the weight cancels the
    # top terms exactly; a rounded leftover would wreck the companion matrix.
    # Its roots, grouped by the zeros np.roots would strip, give the
    # stationary points
    crit = np.zeros((b, r.shape[1] + q.shape[1] - 1))
    j = np.arange(q.shape[1])
    for i in range(r.shape[1]):
        crit[:, i : i + q.shape[1]] += (i - j) * (r[:, i, None] * q)
    nz = crit != 0.0  # crit[0] = 0: R'Q - RQ' starts at crit[1]
    lo = nz.argmax(axis=1)
    hi = np.where(nz.any(axis=1), crit.shape[1] - 1 - nz[:, ::-1].argmax(axis=1), lo)
    stat_x = np.full((b, int((hi - lo).max())), np.nan)
    for l, h in set(zip(lo.tolist(), hi.tolist())):
        sub = np.flatnonzero((lo == l) & (hi == h))
        z = _roots(crit[sub, l : h + 1][:, ::-1]).real
        stat_x[sub[:, None], np.arange(h - l)] = np.where(z > 0.0, z, np.nan)

    # candidates: x = 0, the poles (where the deflated R/Q continues Re W)
    # and the positive real parts of the stationary points (num/den there; a
    # complex root only adds a value of Re W). Where the deflated Q still
    # vanishes (a repeated pole) the infimum is -inf if R < 0, and the point
    # is skipped otherwise. Ties keep the first candidate.
    x = np.concatenate([np.zeros((b, 1)), np.where(kept, pole_c, np.nan), stat_x], axis=1)
    at_pole = np.zeros(x.shape, bool)
    at_pole[:, 1 : n + 1] = True
    w = np.sqrt(x)
    resp, on_freq = _freq_response(num_s, den_s, w)
    rx, qx = _horner(r, x), _horner(q, x)
    v = np.where(on_freq & ~at_pole, resp.real, np.where(
        np.abs(qx) > _AXIS_RTOL * _horner(np.abs(q), x), rx / qx,
        np.where(rx < 0.0, -np.inf, np.inf)))
    v[np.isnan(v)] = np.inf
    best = v.argmin(axis=1)
    infimum = np.where(dead, -np.inf, v[rows, best])
    omega = rho * np.where(dead, dead_w, w[rows, best])
    # the w -> infinity limit, which loses ties
    biproper = (num.shape[1] == ld) & (num[:, -1] != 0.0)
    limit = np.where(biproper, num[:, -1] / den[:, -1], 0.0)
    wins = limit < infimum
    return (finite, no_unstable, imag_ok, np.where(wins, limit, infimum),
            np.where(wins, np.inf, omega))


def _analyse(tfs: Sequence[RationalTF]) -> list:
    """Per transfer function: (no unstable poles, imaginary-axis poles ok,
    inf_w Re W(iw), argmin), argmin math.inf for the w -> infinity limit; or
    a BadDimensions where the numerator overflows at the pole scale.

    Transfer functions with equal len(num), len(den) and number of zero
    low-order den coefficients (the roots np.roots strips) form one array
    group; every member's result equals its own one-element call.
    """
    groups: dict[tuple[int, int, int], list[int]] = {}
    for k, tf in enumerate(tfs):
        den = tf.den.coeffs
        tz = next(i for i, c in enumerate(den) if c != 0.0)
        groups.setdefault((len(tf.num.coeffs), len(den), tz), []).append(k)
    out: list = [None] * len(tfs)
    with np.errstate(all="ignore"):  # lanes of masked-out candidates
        for (_, _, tz), idx in groups.items():
            cols = _analyse_group(np.array([tfs[k].num.coeffs for k in idx]),
                                  np.array([tfs[k].den.coeffs for k in idx]), tz)
            for k, finite, *row in zip(idx, *(c.tolist() for c in cols)):
                out[k] = tuple(row) if finite else BadDimensions(
                    "numerator coefficients overflow when rescaled to the pole scale")
    return out


def ifp_indices(tfs: Sequence[RationalTF]) -> list:
    """IFP index of every transfer function, as one batch: per member an
    IfpCertificate, or the NotCertifiable or BadDimensions that ifp_index
    would raise.

    alpha = max(0, -inf_w Re W(iw)) is exact up to rounding (see the module
    docstring): it does not depend on the time unit, and omega_star scales
    with it. A member is NotCertifiable if it has a pole with positive real
    part, or an imaginary-axis pole that is repeated or has a residue that
    is not non-negative real.
    """
    out = []
    for row in _analyse(tfs):
        if isinstance(row, BadDimensions):
            out.append(row)
            continue
        no_unstable, imag_ok, infimum, omega_star = row
        if not no_unstable:
            out.append(NotCertifiable("transfer function has a pole with positive real part"))
        elif not imag_ok:
            out.append(NotCertifiable(
                "imaginary-axis pole is repeated or has a non-real/negative residue"))
        else:
            out.append(IfpCertificate(alpha=max(0.0, -infimum), omega_star=omega_star,
                                      method="closed_form", raw_infimum=infimum))
    return out


def ifp_index(tf: RationalTF) -> IfpCertificate:
    """IFP index of one certifiable W: the one-member `ifp_indices`.

    Raises
    ------
    NotCertifiable
        If W has a pole with positive real part, or an imaginary-axis pole
        that is repeated or has a residue that is not non-negative real.
    BadDimensions
        If the numerator overflows when rescaled to the pole scale.
    """
    (cert,) = ifp_indices([tf])
    if isinstance(cert, IfpSyncError):
        raise cert
    return cert


def prl_conditions(tf: RationalTF, alpha: float) -> PrlReport:
    """Positive-real-lemma conditions for W(s) + alpha.

    (1) no poles with positive real part; (2) imaginary-axis poles simple
    with non-negative real residues; (3) Re W(iw) + alpha >= -1e-9 for all
    w, taking the exact infimum of ifp_index (-inf where a repeated
    imaginary-axis pole drives Re W(iw) to -inf).
    """
    (row,) = _analyse([tf])
    if isinstance(row, BadDimensions):
        raise row
    no_unstable, imag_ok, infimum, _ = row
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
