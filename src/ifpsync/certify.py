"""Weak-coupling synchronization certificates over weighted digraphs.

For agents that are IFP(alpha_j) with a pole at the origin, diffusive coupling
over a strongly connected digraph synchronizes outputs whenever every agent's
index-times-in-degree product stays below one half:

    alpha_j * d_plus[j] < 1/2                      (plain protocol)
    alpha_j * (d_plus[j] + 2 b_j) < 1/2, sum(b) > 0  (pinned/reference protocol)

The per-node slack and the Perron-weighted margins kappa_j = p_j * slack_j are
reported so callers can see how close a network sits to the boundary. The
module also carries the dissipation identities behind the certificates (as
numeric residual checks) and the published all-to-all threshold used by the
counterexample scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .errors import BadDimensions, CertificateFailed
from .graphnet import Digraph, _perron_vector, connectivity, degrees, perron_weights
from .passivity import Polynomial, routh_hurwitz

__all__ = [
    "WeakCouplingVerdict",
    "CaccGainSet",
    "PlatoonGainVerdict",
    "check_weak_coupling",
    "check_platoon_gains",
    "all_to_all_bound",
    "diffusive_power_identity",
    "dissipation_margin",
]


@dataclass(frozen=True, eq=False)
class WeakCouplingVerdict:
    """Outcome of a weak-coupling check.

    slack[j] is the distance of node j from the coupling bound (positive is
    good); kappa[j] = p_j * slack[j] uses the Perron weights and is only
    available on strongly connected graphs. reasons/offending name what failed.
    """

    passes: bool
    slack: NDArray[np.float64]
    kappa: Optional[NDArray[np.float64]]
    strongly_connected: bool
    reasons: tuple[str, ...]
    offending: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "passes": self.passes,
            "slack": [float(x) for x in self.slack],
            "kappa": None if self.kappa is None else [float(x) for x in self.kappa],
            "strongly_connected": self.strongly_connected,
            "reasons": list(self.reasons),
            "offending": list(self.offending),
        }


def _as_nonnegative_vector(name: str, values, n: int) -> NDArray[np.float64]:
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise BadDimensions(f"{name} must have shape ({n},), got {v.shape}")
    if not np.all(np.isfinite(v) & (v >= 0.0)):
        raise BadDimensions(f"{name} must be finite and non-negative")
    return v


def _verdict(g: Digraph, alphas, b=None) -> tuple[WeakCouplingVerdict, Optional[NDArray]]:
    """The verdict of check_weak_coupling, and the Perron weights it used
    (None on a graph that is not strongly connected)."""
    alphas = _as_nonnegative_vector("alpha", alphas, g.n)
    d_plus, _ = degrees(g)
    reasons = []
    if b is None:
        slack = 0.5 - alphas * d_plus
    else:
        b = _as_nonnegative_vector("b", b, g.n)
        slack = 0.5 - alphas * (d_plus + 2.0 * b)
        if not b.any():
            reasons.append("no_pinned_agent")
    conn = connectivity(g)
    offending = tuple(int(j) for j in np.flatnonzero(slack <= 0.0))
    if not conn.strongly_connected:
        reasons.append("not_strongly_connected")
    if offending:
        reasons.append("coupling_too_strong")
    p = kappa = None
    if conn.strongly_connected:
        p = _perron_vector(g, d_plus)
        kappa = p * slack
        kappa.setflags(write=False)
    slack.setflags(write=False)
    verdict = WeakCouplingVerdict(
        passes=not reasons,
        slack=slack,
        kappa=kappa,
        strongly_connected=conn.strongly_connected,
        reasons=tuple(reasons),
        offending=offending,
    )
    return verdict, p


def check_weak_coupling(g: Digraph, alphas, b=None) -> WeakCouplingVerdict:
    """Weak-coupling certificate on a strongly connected digraph:
    alpha_j * d_plus[j] < 1/2 for diffusive coupling, or, with pinning gains
    b (the reference-tracking protocol), alpha_j * (d_plus[j] + 2 b_j) < 1/2
    with at least one b_j > 0.

    Parameters
    ----------
    g : Digraph
    alphas : array_like
        Per-agent IFP indices, non-negative, length g.n.
    b : array_like, optional
        Per-agent pinning gains, non-negative, length g.n.
    """
    return _verdict(g, alphas, b)[0]


@dataclass(frozen=True)
class CaccGainSet:
    """Gains of an n-vehicle cooperative adaptive cruise control chain.

    mu: velocity-error gains; eta: gains on the gap to the predecessor;
    nu: gains on the gap to the successor (length n-1, nu[i] belongs to
    vehicle i which has a successor); tau: drivetrain lags.
    """

    mu: tuple[float, ...]
    eta: tuple[float, ...]
    nu: tuple[float, ...]
    tau: tuple[float, ...]

    def __post_init__(self):
        for name in ("mu", "eta", "nu", "tau"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        if self.n < 2:
            raise BadDimensions("a platoon needs at least 2 vehicles")
        for name, seq, length in (
            ("mu", self.mu, self.n),
            ("eta", self.eta, self.n),
            ("nu", self.nu, self.n - 1),
            ("tau", self.tau, self.n),
        ):
            if len(seq) != length:
                raise BadDimensions(f"{name} must have length {length}, got {len(seq)}")
            if not all(math.isfinite(x) and x > 0.0 for x in seq):
                raise BadDimensions(f"{name} entries must be finite and positive")

    @property
    def n(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class PlatoonGainVerdict:
    passes: bool
    per_vehicle: tuple[bool, ...]

    def to_json_dict(self) -> dict:
        return {"passes": self.passes, "per_vehicle": list(self.per_vehicle)}


def check_platoon_gains(gains: CaccGainSet) -> PlatoonGainVerdict:
    """Per-vehicle gain inequalities for a CACC chain.

    Vehicle i passes iff mu_i*tau_i < 1/2 and mu_i^2/2 exceeds the coupling it
    carries: 2*eta_1 + nu_1 for the lead vehicle, eta_i + nu_i in the middle,
    eta_n for the last vehicle.
    """
    n = gains.n
    per = []
    for i in range(n):
        mu, tau, eta = gains.mu[i], gains.tau[i], gains.eta[i]
        if i == 0:
            coupling = 2.0 * eta + gains.nu[0]
        elif i == n - 1:
            coupling = eta
        else:
            coupling = eta + gains.nu[i]
        per.append(mu * tau < 0.5 and 0.5 * mu * mu > coupling)
    return PlatoonGainVerdict(passes=all(per), per_vehicle=tuple(per))


def all_to_all_bound(p: float, q: float, n_agents: int, kappa: float) -> bool:
    """Published synchronization threshold for identical agents
    y''' + p y'' + q y' = u under all-to-all coupling of weight kappa:
    Hurwitz-ness of s^3 + p s^2 + q s + kappa*(n-1).

    Note: the complete graph's nonzero Laplacian eigenvalue is kappa*n, so the
    disagreement dynamics actually carry kappa*n where this published formula
    uses kappa*(n-1); simulations diverge for kappa in (p*q/n, p*q/(n-1))
    even though this bound predicts synchronization there. The counterexample
    scenario reports this published prediction next to the observed outcome
    and attaches a `note` to points inside that band.
    """
    if n_agents < 2:
        raise BadDimensions("all-to-all coupling needs at least 2 agents")
    poly = Polynomial([kappa * (n_agents - 1), float(q), float(p), 1.0])
    return routh_hurwitz(poly)


def _pairwise_quadratic(g: Digraph, w: NDArray[np.float64], y: NDArray[np.float64]) -> float:
    """sum_{i,j} w_i a_ij |y_j - y_i|^2 with per-row weights w, summed over
    the arcs j -> i."""
    tails, heads, a = g.arcs
    diff = y[tails] - y[heads]
    return float(np.sum(a * w[heads] * np.einsum("ek,ek->e", diff, diff)))


def _coupling_inputs(g: Digraph, y: NDArray[np.float64]) -> NDArray[np.float64]:
    """u_i = sum_j a_ij (y_j - y_i), scattered over the arcs j -> i."""
    tails, heads, a = g.arcs
    u = np.zeros_like(y)
    np.add.at(u, heads, a[:, None] * (y[tails] - y[heads]))
    return u


def _stack_outputs(g: Digraph, y) -> NDArray[np.float64]:
    """Outputs y as an (n, m) array, one row per node (a 1-D y is scalar outputs)."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] != g.n:
        raise BadDimensions(f"need {g.n} output vectors, got {arr.shape[0]}")
    return arr


def diffusive_power_identity(g: Digraph, y) -> float:
    """Residual of the Perron-weighted power identity for diffusive coupling.

    With u_i = sum_j a_ij (y_j - y_i) and Perron weights p,

        sum_i p_i y_i.u_i  =  -1/2 sum_{i,j} p_i a_ij |y_j - y_i|^2

    holds for any outputs y on a strongly connected digraph. Returns
    |lhs - rhs| (rounding noise only).

    Raises
    ------
    NotStronglyConnected
    """
    y = _stack_outputs(g, y)
    p = perron_weights(g)
    u = _coupling_inputs(g, y)
    lhs = float(np.sum(p * np.einsum("ik,ik->i", y, u)))
    rhs = -0.5 * _pairwise_quadratic(g, p, y)
    return abs(lhs - rhs)


def dissipation_margin(g: Digraph, alphas, y) -> float:
    """Margin of the weak-coupling dissipation inequality at outputs y.

    Requires check_weak_coupling to pass; with kappa_i = p_i (1/2 -
    d_plus[i] * alpha_i) and u the diffusive coupling inputs,

        sum_i p_i (y_i.u_i + alpha_i |u_i|^2)
            <= - sum_{i,j} kappa_i a_ij |y_j - y_i|^2 .

    Returns rhs - lhs, which is non-negative up to rounding for any y.

    Raises
    ------
    CertificateFailed
        If the weak-coupling certificate does not hold for (g, alphas).
    """
    verdict, p = _verdict(g, alphas)
    if not verdict.passes:
        raise CertificateFailed(
            f"weak-coupling certificate fails: {', '.join(verdict.reasons)}"
        )
    y = _stack_outputs(g, y)
    alphas = np.asarray(alphas, dtype=float)
    u = _coupling_inputs(g, y)
    lhs = float(
        np.sum(p * (np.einsum("ik,ik->i", y, u) + alphas * np.einsum("ik,ik->i", u, u)))
    )
    rhs = -_pairwise_quadratic(g, verdict.kappa, y)
    return rhs - lhs
