"""Fixed-step time-domain simulation of diffusively coupled agent networks.

Agents are linear blocks with m-dimensional input and output — LTI transfer
functions, integrators with input delay, or third-order vehicle models —
coupled over a weighted digraph, optionally with reference pinning. Every
run takes one path: the agents' state-space realizations are assembled into
one closed-loop system dx/dt = M x + B w(t) (coupling K ⊗ I_m on the stacked
outputs, undelayed feedback folded into M) and integrated with classical RK4
at a fixed step h. One such step is exactly the affine map

    x⁺ = Φ x + Γ₀ w₀ + Γ½ w½ + Γ₁ w₁,
    Φ  = I + hM + (hM)²/2 + (hM)³/6 + (hM)⁴/24   (the RK4 stability function),
    Γ₀ = (h/6)(I + hM + (hM)²/2 + (hM)³/4) B,
    Γ½ = (h/6)(4I + 2hM + (hM)²/2) B,
    Γ₁ = (h/6) B,

where w₀, w½, w₁ is the forcing at the stage times t0, t0 + h/2, t0 + h:
the delayed input columns and the reference offsets of the undelayed ones.
Φ and Γ are built once per run, so a step is one matrix product with
[Φ Γ] against [x; w] (with Φ alone for a run with neither delays nor
offsets). Delayed inputs are read from a ring buffer of the stacked input
signal, linearly interpolated at the stage times. With smallest delay τ, the
forcing of the next ⌊τ/h⌋ or so steps depends only on inputs already
computed (the method of steps for delay equations), so the run advances in
blocks of that many steps: once per block one gather reads the forcing of
all of its steps, the states are tested for divergence and recorded, and
the block's inputs are written to the ring; within a block each step is
just the product. A run without delays steps in blocks of `_CHUNK`. Reads
before t = 0 come from a prehistory table of the initial-history functions,
filled before the step loop. The reference offsets b_i y_bar(t) + u_bar_i(t)
come from an offset table of the stage times of the next `_CHUNK` steps,
filled ahead of the state a chunk at a time, so its memory does not grow
with the horizon. Time functions are `TimeFn` values, and each table
evaluates them on its whole array of times at once. The loop is assembled
once per run, with each agent's realization read once: the recorded outputs
are y = C x and the recorded inputs u = -K y plus the reference offsets,
from the same C and coupling K that the step uses.

`simulate_batch` takes any runs. It checks them all first, then groups them
by a key (per-agent state dimension and input delay, m, h, the step count,
the record stride and whether the protocol adds reference offsets) and
integrates each group as one batch: stacked Φ (and Γ when the group is
forced), one ring with a column block per run, and one stacked matrix
product per step. Each run keeps its own matrices, offsets, initial states
and histories, tolerance and divergence threshold, and its result is
bitwise equal to its own `simulate`, which is the one-run batch. Runs
report trajectories plus synchronization metrics (pairwise tail supremum and
trapezoidal L2 disagreement integrals).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BadDimensions, DimensionMismatch, EmptyTrajectory, MuTauViolation, integer, number,
)
from .graphnet import Digraph, laplacian
from .passivity import RationalTF, ifp_index

__all__ = [
    "AgentModel",
    "LtiSiso",
    "DelayedIntegrator",
    "Vehicle3rd",
    "Plain",
    "Reference",
    "SimConfig",
    "SimResult",
    "SyncMetrics",
    "TimeFn",
    "simulate",
    "simulate_batch",
    "sync_metrics",
]

_GRID_SNAP = 1e-9  # fractional tolerance for treating a time as a grid point
_CHUNK = 1024  # steps per block of the reference-offset table


# ---------------------------------------------------------------------------
# agent models
# ---------------------------------------------------------------------------

class AgentModel(abc.ABC):
    """One node's linear dynamics dx/dt = A x + B u(t - input_delay), y = C x.

    Input and output share the dimension `output_dim`. `input_delay` > 0
    means the agent consumes u(t - input_delay); the simulator resolves the
    lookup from the recorded input history.
    """

    state_dim: int
    output_dim: int
    input_delay: float = 0.0

    @abc.abstractmethod
    def linear_realization(self) -> tuple[NDArray, NDArray, NDArray]:
        """(A, B, C) shaped (state_dim, state_dim), (state_dim, output_dim)
        and (output_dim, state_dim)."""

    @abc.abstractmethod
    def ifp_index(self) -> float:
        """Passivity deficit of the agent, used by certificate builders."""


class LtiSiso(AgentModel):
    """Strictly proper SISO transfer function in controllable canonical form.

    State matrices follow the standard companion construction, so the state
    vector of e.g. lam/(lam^2 + w^2) is exactly (y, dy/dt). They are built
    when asked for: a certificate reads only the transfer function.
    """

    def __init__(self, tf: RationalTF):
        if not tf.strictly_proper:
            raise BadDimensions("LtiSiso requires a strictly proper transfer function")
        self.tf = tf
        self.state_dim = tf.den.degree
        self.output_dim = 1
        self.input_delay = 0.0

    @classmethod
    def from_coeffs(cls, num, den) -> "LtiSiso":
        return cls(RationalTF.from_coeffs(num, den))

    def linear_realization(self):
        den = np.asarray(self.tf.den.coeffs, dtype=float)
        num = np.asarray(self.tf.num.coeffs, dtype=float)
        lead = den[-1]
        den = den / lead
        num = num / lead
        n = self.state_dim
        a = np.zeros((n, n))
        if n > 1:
            a[:-1, 1:] = np.eye(n - 1)
        a[-1, :] = -den[:-1]
        b = np.zeros((n, 1))
        b[-1, 0] = 1.0
        c = np.zeros((1, n))
        c[0, : len(num)] = num
        return a, b, c

    def ifp_index(self) -> float:
        return ifp_index(self.tf).alpha


class DelayedIntegrator(AgentModel):
    """Pure integrator dy/dt = u(t - delay) with m-dimensional output.

    A pure input delay theta on an integrator contributes a passivity deficit
    of exactly theta, so `ifp_index` returns the delay.
    """

    def __init__(self, delay: float = 0.0, dim: int = 1):
        if not (math.isfinite(delay) and delay >= 0.0):
            raise BadDimensions(f"delay must be finite and >= 0, got {delay}")
        if dim < 1:
            raise BadDimensions(f"dim must be >= 1, got {dim}")
        self.delay = float(delay)
        self.state_dim = dim
        self.output_dim = dim
        self.input_delay = self.delay

    def linear_realization(self):
        m = self.state_dim
        return np.zeros((m, m)), np.eye(m), np.eye(m)

    def ifp_index(self) -> float:
        return self.delay


class Vehicle3rd(AgentModel):
    """Third-order longitudinal vehicle: tau*y''' + y'' + mu*y' = u.

    State is (y, y', y'') — position, velocity, acceleration once the
    velocity-feedback term mu*y' has been absorbed into the left-hand side.
    The passivity deficit is 1/mu^2 provided mu*tau < 1/2; beyond that the
    closed-form index ceases to hold and `ifp_index` raises MuTauViolation.
    A mu so small that 1/mu^2 is not a finite number makes `ifp_index` raise
    BadDimensions; simulating such a vehicle needs no deficit.
    """

    def __init__(self, tau: float, mu: float):
        if not all(math.isfinite(x) and x > 0.0 for x in (tau, mu)):
            raise BadDimensions(
                f"tau and mu must be finite and positive, got tau={tau}, mu={mu}"
            )
        self.tau = float(tau)
        self.mu = float(mu)
        self.state_dim = 3
        self.output_dim = 1
        self.input_delay = 0.0

    def linear_realization(self):
        a = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -self.mu / self.tau, -1.0 / self.tau]]
        )
        b = np.array([[0.0], [0.0], [1.0 / self.tau]])
        c = np.array([[1.0, 0.0, 0.0]])
        return a, b, c

    def ifp_index(self) -> float:
        if self.mu * self.tau >= 0.5:
            raise MuTauViolation(
                f"mu*tau = {self.mu * self.tau:.6g} >= 1/2; the 1/mu^2 index does not apply"
            )
        deficit = 1.0 / self.mu**2 if self.mu**2 else math.inf
        if deficit == math.inf:
            raise BadDimensions(f"mu = {self.mu:.6g}: the deficit 1/mu^2 is not a finite number")
        return deficit


# ---------------------------------------------------------------------------
# time functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeFn:
    """A scalar function of time, held as data:

        f(t) = offset + slope*t + amplitude*sin(omega*t + phase).

    TimeFn(c) is the constant c, TimeFn(a, b) the ramp a + b*t, and
    TimeFn(amplitude=a, omega=w, phase=p) a sinusoid. Called on a float or
    on an array of times, it evaluates the expression with numpy; the sine
    term is left out when its amplitude is zero. Every parameter must be a
    finite number."""

    offset: float = 0.0
    slope: float = 0.0
    amplitude: float = 0.0
    omega: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, number(f.name, getattr(self, f.name)))

    def __call__(self, t):
        v = self.offset + self.slope * t
        if self.amplitude != 0.0:
            v = v + self.amplitude * np.sin(self.omega * t + self.phase)
        return v


def _check_time_fn(name: str, fn) -> None:
    if fn is not None and not isinstance(fn, TimeFn):
        raise BadDimensions(f"{name} must be a TimeFn or None, got {type(fn).__name__}")


def _time_fn_tuple(name: str, fns) -> tuple:
    """fns as a tuple whose entries are each a TimeFn or None."""
    fns = tuple(fns)
    for i, fn in enumerate(fns):
        _check_time_fn(f"{name}[{i}]", fn)
    return fns


# ---------------------------------------------------------------------------
# coupling protocols
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Plain:
    """Diffusive coupling u_i = sum_j a_ij (y_j - y_i)."""

    g: Digraph


@dataclass(frozen=True, eq=False)
class Reference:
    """Diffusive coupling plus feedforward and reference pinning:

        u_i = u_bar_i(t) + b_i (y_bar(t) - y_i) + sum_j a_ij (y_j - y_i).

    b_i > 0 marks agent i as pinned; y_bar is required whenever any b_i > 0.
    y_bar and the u_bar entries are TimeFn values; a u_bar entry may be None
    (treated as zero). Each value is broadcast across the m output
    dimensions.
    """

    g: Digraph
    b: NDArray[np.float64]
    u_bar: Optional[tuple[Optional[TimeFn], ...]] = None
    y_bar: Optional[TimeFn] = None

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.g.n,):
            raise DimensionMismatch(f"b must have shape ({self.g.n},), got {b.shape}")
        if not np.all(np.isfinite(b) & (b >= 0.0)):
            raise BadDimensions("pinning gains b must be finite and non-negative")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "b", b)
        if self.u_bar is not None:
            object.__setattr__(self, "u_bar", _time_fn_tuple("u_bar", self.u_bar))
            if len(self.u_bar) != self.g.n:
                raise DimensionMismatch(f"u_bar must have {self.g.n} entries")
        _check_time_fn("y_bar", self.y_bar)
        if self.y_bar is None and np.any(b > 0.0):
            raise BadDimensions("y_bar is required when any pinning gain is positive")


Protocol = Plain | Reference


def _reference_offsets(proto: Reference, ts: NDArray[np.float64], m: int) -> NDArray[np.float64]:
    """b_i * y_bar(t) + u_bar_i(t) at each time of ts, as a (len(ts), n, m)
    array; each scalar time function is broadcast across the m dimensions."""
    off = np.zeros((len(ts), proto.g.n, m))
    if proto.y_bar is not None:
        off += proto.y_bar(ts)[:, None, None] * proto.b[:, None]
    if proto.u_bar is not None:
        for i, fn in enumerate(proto.u_bar):
            if fn is not None:
                off[:, i] += fn(ts)[:, None]
    return off


def _has_offset(protocol: Protocol) -> bool:
    if not isinstance(protocol, Reference):
        return False
    return (protocol.y_bar is not None and bool(np.any(protocol.b > 0.0))) or (
        protocol.u_bar is not None and any(fn is not None for fn in protocol.u_bar)
    )


# ---------------------------------------------------------------------------
# simulation configuration and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Run settings: fixed step dt, horizon t_final, per-agent initial states
    (default zero) and input prehistories (default zero), recording stride,
    synchronization tolerance, and the state norm treated as divergence.

    An initial history gives agent i's input u_i(t) for t < 0: a TimeFn,
    broadcast across the m input dimensions, or None (zero).

    Raises BadDimensions unless dt, tol and blowup are finite positive
    numbers, t_final is a finite number that exceeds dt (all four are stored
    as floats), record_stride is an integer >= 1, and every initial history
    is a TimeFn or None."""

    dt: float
    t_final: float
    initial_states: Optional[Sequence[Sequence[float]]] = None
    initial_histories: Optional[tuple[Optional[TimeFn], ...]] = None
    record_stride: int = 1
    tol: float = 1e-3
    blowup: float = 1e12

    def __post_init__(self):
        if self.initial_histories is not None:
            hist = _time_fn_tuple("initial_histories", self.initial_histories)
            object.__setattr__(self, "initial_histories", hist)
        for name in ("dt", "t_final", "tol", "blowup"):
            object.__setattr__(self, name, number(name, getattr(self, name)))
        object.__setattr__(self, "record_stride", integer("record_stride", self.record_stride))
        for name in ("dt", "tol", "blowup"):
            v = getattr(self, name)
            if not v > 0.0:
                raise BadDimensions(f"{name} must be finite and positive, got {v}")
        if not self.t_final > self.dt:
            raise BadDimensions(f"t_final must be finite and exceed dt, got {self.t_final}")
        if self.record_stride < 1:
            raise BadDimensions(f"record_stride must be >= 1, got {self.record_stride}")


@dataclass(frozen=True, eq=False)
class SyncMetrics:
    """Synchronization measures of one run.

    pairwise_sup_tail: max over the last 10% of the horizon of the largest
    pairwise output distance. l2_pairwise[i, j]: trapezoidal integral of
    |y_i - y_j|^2 over the whole horizon. l2_reference[i]: integral of
    |y_i - y_bar(t)|^2 when a reference signal is supplied. synchronized:
    pairwise_sup_tail < tol (and the run did not diverge).
    """

    pairwise_sup_tail: float
    l2_pairwise: NDArray[np.float64]
    l2_reference: Optional[NDArray[np.float64]]
    synchronized: bool
    tol: float
    tail_start: float

    def to_json_dict(self) -> dict:
        return {
            "pairwise_sup_tail": float(self.pairwise_sup_tail),
            "l2_pairwise": self.l2_pairwise.tolist(),
            "l2_reference": None if self.l2_reference is None else self.l2_reference.tolist(),
            "synchronized": bool(self.synchronized),
            "tol": float(self.tol),
            "tail_start": float(self.tail_start),
        }


@dataclass(frozen=True, eq=False)
class SimResult:
    """Recorded trajectories (times, outputs y, inputs u, per-agent states)
    plus metrics. Arrays are shaped (n_rec, n, m) for y and u; states is a
    per-agent tuple of (n_rec, state_dim) arrays. A diverged run is truncated
    at the last finite recorded sample and flagged, not raised."""

    times: NDArray[np.float64]
    y: NDArray[np.float64]
    u: NDArray[np.float64]
    states: tuple[NDArray[np.float64], ...]
    metrics: SyncMetrics
    diverged: bool = False
    t_diverged: Optional[float] = None

    def y_scalar(self) -> NDArray[np.float64]:
        """(n_rec, n) view of the outputs when every agent is scalar-output."""
        if self.y.shape[2] != 1:
            raise DimensionMismatch("outputs are not scalar")
        return self.y[:, :, 0]


def sync_metrics(result_raw, y_bar: Optional[TimeFn] = None, tol: float = 1e-3) -> SyncMetrics:
    """Metrics from raw trajectories.

    `result_raw` is a (times, y) pair; y may be (n_rec, n) or (n_rec, n, m).
    """
    _check_time_fn("y_bar", y_bar)
    times, y = result_raw
    times = np.asarray(times, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 2:
        y = y[:, :, None]
    if times.ndim != 1 or y.ndim != 3 or y.shape[0] != times.shape[0]:
        raise DimensionMismatch(f"inconsistent trajectory shapes {times.shape}, {y.shape}")
    n_rec, n, _ = y.shape
    if n_rec == 0 or n == 0:
        raise EmptyTrajectory("no recorded samples")

    t_end = times[-1]
    tail_start = t_end - 0.1 * (t_end - times[0])
    in_tail = times >= tail_start - 1e-12

    # l2_pairwise[i, j]: trapezoidal integral of |y_i - y_j|^2, formed from
    # the differences themselves so that outputs far from zero do not cancel;
    # tail_sq[i]: the largest |y_i - y_j|^2 (j > i) over the tail, whose
    # square root over all i is the largest pairwise distance there; a
    # distance beyond the float range, or not a number (inf - inf), is inf
    l2_pairwise = np.zeros((n, n))
    tail_sq = np.zeros(n)
    w = np.zeros(n_rec)
    dts = np.diff(times)
    w[:-1] += 0.5 * dts
    w[1:] += 0.5 * dts
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            d = y[:, i : i + 1, :] - y[:, i + 1 :, :]
            dd = (d * d).sum(axis=2)
            dd[np.isnan(dd)] = np.inf
            if n_rec >= 2:
                l2_pairwise[i, i + 1 :] = w @ dd
            tail_sq[i] = dd[in_tail].max()
    l2_pairwise += l2_pairwise.T
    sup_tail = float(np.sqrt(tail_sq.max()))

    l2_ref = None
    if y_bar is not None:
        dev = y - y_bar(times)[:, None, None]
        sq = (dev * dev).sum(axis=2)
        l2_ref = np.array(
            [np.trapezoid(sq[:, i], times) if n_rec >= 2 else 0.0 for i in range(n)]
        )
        l2_ref.setflags(write=False)

    l2_pairwise.setflags(write=False)
    return SyncMetrics(
        pairwise_sup_tail=sup_tail,
        l2_pairwise=l2_pairwise,
        l2_reference=l2_ref,
        synchronized=bool(sup_tail < tol),
        tol=tol,
        tail_start=float(tail_start),
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

Member = tuple[Sequence[AgentModel], Protocol, SimConfig]


def simulate(
    agents: Sequence[AgentModel],
    protocol: Protocol,
    config: SimConfig,
) -> SimResult:
    """Integrate the coupled network over [0, t_final] and report metrics.

    Divergence (any |state| > config.blowup, or non-finite values) truncates
    the run, flags the result, and forces synchronized = False. This is the
    one-member case of `simulate_batch`.
    """
    return simulate_batch([(agents, protocol, config)])[0]


def simulate_batch(
    members: Sequence[Member],
    output_offsets: Optional[Sequence[Optional[NDArray[np.float64]]]] = None,
) -> list[SimResult]:
    """Integrate any networks; one SimResult per member, in order, each
    bitwise equal to the member's own `simulate` run.

    Members are (agents, protocol, config) triples. Every member is checked
    before any is integrated, so a bad one raises before any work is done.
    Members that share per-agent state dimensions and input delays, m, dt,
    the step count, record_stride and whether their protocol adds reference
    offsets are integrated as one stacked batch.
    Each keeps its own realizations, coupling, pinning gains and offsets,
    initial states and histories, tol and blowup. A member that diverges is
    truncated at its first step above blowup and keeps its own record count
    and t_diverged; its discarded later steps may overflow, and the others
    run on. A member's entry of `output_offsets`,
    when given and not None, holds one constant per agent that is added to
    the agent's outputs before the metrics are taken (a platoon's desired
    gaps); the recorded y stays as integrated.
    """
    members = [(list(agents), protocol, config) for agents, protocol, config in members]
    offsets = [None] * len(members) if output_offsets is None else output_offsets
    x0 = []
    groups: dict[tuple, list[int]] = {}
    for j, (agents, protocol, config) in enumerate(members):
        _check_member(agents, protocol, config)
        x0.append(_initial_states(agents, config.initial_states))
        groups.setdefault(_batch_key(agents, protocol, config), []).append(j)
    results: list = [None] * len(members)
    for key, idx in groups.items():
        runs = _integrate([members[j] for j in idx], [x0[j] for j in idx], *key[1:])
        for j, run in zip(idx, runs):
            results[j] = _result(*members[j][1:], offsets[j], *run)
    return results


def _batch_key(agents, protocol, config) -> tuple:
    """Group key of a run: per-agent (state_dim, input_delay), the signal
    dimension m, dt, the step count, record_stride and whether the protocol
    adds reference offsets. Runs with equal keys are integrated together, so
    in a group either every run is forced (by a delay or an offset) or none
    is."""
    n_steps = int(math.floor(config.t_final / config.dt + _GRID_SNAP))
    return (
        tuple((a.state_dim, a.input_delay) for a in agents),
        agents[0].output_dim,
        float(config.dt),
        n_steps,
        config.record_stride,
        _has_offset(protocol),
    )


def _check_member(agents, protocol, config) -> None:
    n = len(agents)
    if n == 0:
        raise BadDimensions("need at least one agent")
    if protocol.g.n != n:
        raise DimensionMismatch(f"graph has {protocol.g.n} nodes but {n} agents given")
    if any(a.output_dim != agents[0].output_dim for a in agents):
        raise DimensionMismatch("all agents must share one output dimension")
    if config.initial_histories is not None and len(config.initial_histories) != n:
        raise DimensionMismatch(f"initial_histories must have {n} entries")
    pos_delays = [a.input_delay for a in agents if a.input_delay > 0.0]
    if pos_delays and config.dt > min(pos_delays) * (1.0 + _GRID_SNAP):
        raise BadDimensions(
            f"dt={float(config.dt)} exceeds the smallest positive delay {min(pos_delays)}"
        )


def _result(protocol, config, offsets, times, states, y, u, diverged, t_div) -> SimResult:
    y_bar = protocol.y_bar if isinstance(protocol, Reference) else None
    measured = y if offsets is None else y + np.asarray(offsets, dtype=float)[None, :, None]
    metrics = sync_metrics((times, measured), y_bar=y_bar, tol=config.tol)
    if diverged and metrics.synchronized:
        metrics = replace(metrics, synchronized=False)
    for arr in (times, y, u, *states):
        arr.setflags(write=False)
    return SimResult(
        times=times,
        y=y,
        u=u,
        states=states,
        metrics=metrics,
        diverged=diverged,
        t_diverged=t_div,
    )


def _initial_states(agents, initial_states) -> list[NDArray[np.float64]]:
    n = len(agents)
    if initial_states is None:
        return [np.zeros(a.state_dim) for a in agents]
    if len(initial_states) != n:
        raise DimensionMismatch(f"initial_states must have {n} entries")
    out = []
    for i, (a, xi) in enumerate(zip(agents, initial_states)):
        v = np.atleast_1d(np.asarray(xi, dtype=float))
        if v.shape != (a.state_dim,):
            raise DimensionMismatch(
                f"agent {i} initial state has shape {v.shape}, expected ({a.state_dim},)"
            )
        out.append(v.copy())
    return out


class _DelayedInputs:
    """Delayed columns of the stacked inputs of B batch members at the three
    RK4 stage times of a block of steps, read by one gather per block.

    A ring buffer holds the stacked inputs of all members at past step times
    (u(j*dt) in row j % cap, member-major). At stage time t0 + c*dt of step k
    (c = 0, 1/2, 1), an agent with delay d reads u(t0 + c*dt - d), which lies
    on ring row k + base, or between rows k + base and k + base + 1 with
    weight frac on the later one. The step is fixed and the members share
    their delays, so base and frac depend only on (c, d). The steps k0 ..
    k0 + lead - 1 read only rows at or before k0 (the method of steps), so
    once u(k0*dt) is in the ring the forcing of all of them is one `take`
    over a table of ring offsets relative to row k0, built once. Reads that
    land on a row are copied ("exact" set); the others are interpolated as
    (1 - frac)*u_j + frac*u_{j+1}. Keeping the sets apart means a copied
    value keeps its sign of zero and never picks up a NaN from the next row.
    Reads before t = 0 come from a prehistory table: each member's
    initial-history functions evaluated, before the step loop, at the stage
    times the reads ask for. The ring spans one row more than the oldest
    read reaches back, and no more rows than the run has steps, however long
    the delay.
    """

    def __init__(self, col_delay, histories, dt, m, n_steps):
        nm = len(col_delay)
        n_b = len(histories)
        row = n_b * nm

        # one read per (stage, delayed column), at ring row k + base; a read
        # more than n_steps rows back is before t = 0 at every step, so it is
        # clamped there and the ring never outgrows the run
        cols = np.flatnonzero(col_delay > 0.0)
        stage = np.repeat(np.arange(3), cols.size)
        col = np.tile(cols, 3)
        d = col_delay[col]
        q = np.maximum(np.array([0.0, 0.5, 1.0])[stage] - d / dt, -(n_steps + 2.0))
        base = np.floor(q + _GRID_SNAP)
        frac = q - base
        up = frac > 1.0 - _GRID_SNAP
        base[up] += 1.0
        frac[up | (frac < _GRID_SNAP)] = 0.0
        base = base.astype(np.intp)
        exact = frac == 0.0
        self.lead = 1 - int(np.where(exact, base, base + 1).max())
        # the ring is written up to the block start k0 and read back to
        # k0 + base.min(), so that many rows plus one are never overwritten
        # while they can still be read; each row is stored twice, at j % cap
        # and j % cap + cap, so the rows of a block's reads run on without
        # wrapping from row k0 % cap
        cap = 1 - int(base.min())
        self.ring = np.zeros((2 * cap, row))
        self.flat = self.ring.reshape(-1)
        self.cap, self.row = cap, row

        target = stage * nm + col
        self.exact_t, self.interp_t = target[exact], target[~exact]
        src_base = np.concatenate([base[exact], base[~exact], base[~exact] + 1])
        src_col = np.concatenate([col[exact], col[~exact], col[~exact]])
        # flat ring offset of every read of step k0 + i by member b, from
        # row k0 % cap, shaped (steps, B, reads)
        steps = np.arange(min(self.lead, n_steps, _CHUNK))[:, None, None]
        self.src = ((steps + src_base) % cap) * row + (np.arange(n_b)[:, None] * nm + src_col)
        self.w_hi = frac[~exact]
        self.w_lo = 1.0 - self.w_hi
        n_exact, n_interp = self.exact_t.size, self.interp_t.size
        self.exact_v = slice(0, n_exact)
        self.lo_v = slice(n_exact, n_exact + n_interp)
        self.hi_v = slice(n_exact + n_interp, None)

        # step k reads before t = 0 where k + base < 0; an agent without an
        # initial history reads zeros there
        k_pre = min(n_steps, -int(base.min()))
        pre_read = np.arange(k_pre)[:, None] + base < 0
        self.pre_mask = np.zeros((k_pre, 1, 3 * nm), dtype=bool)
        self.pre_mask[:, 0, target] = pre_read
        self.pre_val = np.zeros((k_pre, n_b, 3 * nm))
        pre_t = np.arange(k_pre)[:, None] * dt + np.array([0.0, 0.5 * dt, dt])[stage] - d
        for b, hist in enumerate(histories):
            for c in cols:
                fn = None if hist is None else hist[c // m]
                if fn is None:
                    continue
                ks, rs = np.nonzero(pre_read & (col == c))
                self.pre_val[ks, b, target[rs]] = fn(pre_t[ks, rs])

    def write(self, k: int, u: NDArray[np.float64]) -> None:
        """Record u(k*dt), u((k+1)*dt), ... from u shaped (rows, B, n*m)."""
        at = np.arange(k, k + len(u)) % self.cap
        self.ring[at] = self.ring[at + self.cap] = u.reshape(len(u), -1)

    def read(self, k0: int, w: NDArray[np.float64]) -> None:
        """Fill the delayed columns of w, shaped (steps, B, 3*n*m) and
        stage-major per member, with the stage inputs of steps k0, k0 + 1,
        ...; the ring must hold u up to k0*dt and steps <= lead."""
        v = self.flat[(k0 % self.cap) * self.row :].take(self.src[: len(w)])
        w[..., self.exact_t] = v[..., self.exact_v]
        w[..., self.interp_t] = self.w_lo * v[..., self.lo_v] + self.w_hi * v[..., self.hi_v]
        pre = min(len(w), len(self.pre_val) - k0)
        if pre > 0:
            np.copyto(w[:pre], self.pre_val[k0 : k0 + pre], where=self.pre_mask[k0 : k0 + pre])


def _closed_loop(members, m, offs, undelayed):
    """The closed loop dx/dt = M x + B w, y = C x, u = -K y + offset(t) of
    each member, from one pass over its agents: K is L, plus diag(b) when
    pinned, and KC = (K ⊗ I_m) C maps states to coupling inputs. Returns M
    (the feedback of the undelayed input columns folded in), B, C, K and KC
    stacked into (B, nx, nx), (B, nx, n*m), (B, n*m, nx), (B, n, n) and
    (B, n*m, nx) arrays."""
    n_b, n, nx = len(members), len(members[0][0]), int(offs[-1])
    m_mat = np.zeros((n_b, nx, nx))
    b_blk = np.zeros((n_b, nx, n * m))
    c_blk = np.zeros((n_b, n * m, nx))
    k = np.empty((n_b, n, n))
    for j, (agents, protocol, _) in enumerate(members):
        for i, a in enumerate(agents):
            ai, bi, ci = a.linear_realization()
            s = slice(offs[i], offs[i + 1])
            io = slice(i * m, (i + 1) * m)
            m_mat[j, s, s] = ai
            b_blk[j, s, io] = bi
            c_blk[j, io, s] = ci
        k[j] = laplacian(protocol.g)
        if isinstance(protocol, Reference):
            k[j] += np.diag(protocol.b)
    kc = np.kron(k, np.eye(m)) @ c_blk
    m_mat -= b_blk[:, :, undelayed] @ kc[:, undelayed, :]
    return m_mat, b_blk, c_blk, k, kc


def _integrate(members, x0, m, dt, n_steps, stride, offset):
    """RK4 of the assembled closed loops of a batch, as one affine map per
    step, in blocks of steps; returns (times, states, y, u, diverged,
    t_diverged) per member.

    A member has n agents with m-dimensional inputs and outputs; its stacked
    input has n*m columns, agent-major, and the coupling acts on it as
    K ⊗ I_m. The undelayed part of the input is folded into M. What remains
    at the stage times (t0, t0 + dt/2, t0 + dt) of a step is one stage-major
    forcing vector w = (w0, w½, w1): delayed columns from `_DelayedInputs`,
    undelayed columns from the reference offset, which every member has when
    `offset` is set and none has otherwise. RK4 on dx/dt = M x + B w(t) is
    then exactly x⁺ = Φ x + Γ w (see the module docstring). A group with
    delays or offsets steps with [Φ Γ] against [x; w], any other with Φ
    alone against x.

    The run advances in blocks of at most `lead` steps: with delays, the
    steps whose delayed reads all land at or before the block start (method
    of steps); without, `_CHUNK`. Each step of a block writes its state next
    to its forcing in one (lead + 1, B, nx + 3*n*m) buffer, so a step is one
    matrix product. Once per block the forcing of all its steps is read (one
    ring gather, the offsets of the table of the current `_CHUNK` steps,
    which a block never straddles), every state is tested against blowup,
    the recorded states are copied out and the new inputs are written to the
    ring. A member is cut at its first step above blowup.

    The recorded outputs and inputs come from the same loop: y = C x at the
    recorded states and u = -K y, plus the reference offsets at the record
    times for every `Reference` member, offset-free or not (adding its zero
    offsets keeps u bit-equal to the protocol formula, sign of zero
    included).
    """
    agents0 = members[0][0]
    n_b, n = len(members), len(agents0)
    nm = n * m
    offs = np.concatenate([[0], np.cumsum([a.state_dim for a in agents0])]).astype(int)
    nx = int(offs[-1])
    col_delay = np.repeat([a.input_delay for a in agents0], m)
    undelayed = np.flatnonzero(col_delay == 0.0)
    has_delay = bool(np.any(col_delay > 0.0))

    m_mat, b_blk, c_blk, k_mat, kc = _closed_loop(members, m, offs, undelayed)
    hm = dt * m_mat
    eye = np.eye(nx)
    step = eye + hm / 4.0
    step = eye + (hm / 3.0) @ step
    step = eye + (hm / 2.0) @ step
    step = eye + hm @ step
    if has_delay or offset:
        mb1 = hm @ b_blk
        mb2 = hm @ mb1
        mb3 = hm @ mb2
        gamma = [
            b_blk + mb1 + mb2 / 2.0 + mb3 / 4.0,
            4.0 * b_blk + 2.0 * mb1 + mb2 / 2.0,
            b_blk,
        ]
        step = np.concatenate([step, *((dt / 6.0) * g for g in gamma)], axis=2)
    delayed = None
    lead = _CHUNK
    if has_delay:
        histories = [config.initial_histories for _, _, config in members]
        delayed = _DelayedInputs(col_delay, histories, dt, m, n_steps)
        lead = delayed.lead

    x = np.stack([np.concatenate(xj) for xj in x0])
    blowup = np.array([config.blowup for _, _, config in members])
    lead = min(lead, n_steps, _CHUNK)  # a block never straddles a chunk
    z = np.zeros((lead + 1, n_b, step.shape[2]))
    z[0, :, :nx] = x
    # per-step operands [x; w] (x alone for a group without forcing)
    z_in, z_out = z[..., None], z[:, :, :nx, None]
    w_blk = z[:, :, nx:]
    # the stage-major forcing columns of the undelayed inputs
    und3 = (np.arange(3)[:, None] * nm + undelayed).reshape(-1)

    def inputs(x_rows, k):
        # u = -K C x + offset at steps k, k + 1, ... of the current chunk
        # (whose offsets u_off start at step c0), for the ring
        u = -np.matmul(kc, x_rows[..., None])[..., 0]
        if offset:
            u += u_off[k - c0 : k - c0 + len(u)]
        return u

    n_rec = n_steps // stride + 1
    x_rec = np.empty((n_rec, n_b, nx))
    x_rec[0] = x
    live = np.ones(n_b, dtype=bool)
    ends: list[Optional[tuple[int, float]]] = [None] * n_b  # (rows, t_diverged)

    k0 = 0
    # a member's steps past its cut are discarded, and may overflow; so may
    # a recorded output y = C x (and its u = -K y)
    with np.errstate(over="ignore", invalid="ignore"):
        while k0 < n_steps:
            c0 = k0 - k0 % _CHUNK
            steps = min(lead, n_steps - k0, c0 + _CHUNK - k0)
            if offset and k0 == c0:
                # offsets of the steps c0 .. c1 - 1 at their stage times, shaped
                # (c1 - c0, B, 3*n*m), and of the steps c0 .. c1 at their start,
                # for the ring rows written after each block
                c1 = min(c0 + _CHUNK, n_steps)
                t0 = np.arange(c0, c1 + 1) * dt
                stages = np.stack([t0[:-1], t0[:-1] + 0.5 * dt, t0[:-1] + dt], axis=1)
                ts = np.append(stages, t0[-1])
                off = np.stack([_reference_offsets(p, ts, m) for _, p, _ in members], axis=1)
                table = off[:-1].reshape(c1 - c0, 3, n_b, nm).transpose(0, 2, 1, 3)
                table = table.reshape(c1 - c0, n_b, 3 * nm)
                u_off = off[::3].reshape(c1 - c0 + 1, n_b, nm)
            if delayed is not None:
                if k0 == 0:
                    delayed.write(0, inputs(z[:1, :, :nx], 0))
                delayed.read(k0, w_blk[:steps])
            if offset:
                w_blk[:steps, :, und3] = table[k0 - c0 : k0 - c0 + steps][:, :, und3]
            for i in range(steps):
                np.matmul(step, z_in[i], out=z_out[i + 1])

            xs = z[1 : steps + 1, :, :nx]
            first = -k0 % stride or stride
            r0 = k0 // stride + 1
            rec = xs[first - 1 :: stride]
            x_rec[r0 : r0 + len(rec)] = rec
            bad = ~((xs.max(axis=2) <= blowup) & (xs.min(axis=2) >= -blowup))  # NaN fails both
            bad &= live
            for j in np.flatnonzero(bad.any(axis=0)):
                k = k0 + int(np.argmax(bad[:, j]))  # the last step within blowup
                ends[j] = (k // stride + 1, (k + 1) * dt)
                live[j] = False
            if not live.any():
                break
            if delayed is not None:
                delayed.write(k0 + 1, inputs(xs, k0 + 1))
            z[0, :, :nx] = z[steps, :, :nx]
            k0 += steps

        all_times = np.arange(0, n_steps + 1, stride) * dt
        runs = []
        for j, (_, protocol, _) in enumerate(members):
            r, t_div = ends[j] or (n_rec, None)
            times = all_times[:r].copy()
            states = tuple(x_rec[:r, j, offs[i] : offs[i + 1]].copy() for i in range(n))
            # y_i = C_i x_i agent by agent: the product over the whole stacked
            # state sums each agent's terms in another order
            y = np.empty((r, n, m))
            for i, x_i in enumerate(states):
                y[:, i] = x_i @ c_blk[j, i * m : (i + 1) * m, offs[i] : offs[i + 1]].T
            u = -np.einsum("ij,rjm->rim", k_mat[j], y)
            if isinstance(protocol, Reference):
                u += _reference_offsets(protocol, times, m)
            runs.append((times, states, y, u, t_div is not None, t_div))
    return runs
