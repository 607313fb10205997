"""Prebuilt experiments: traffic chains/rings, CACC platoons, and the two
counterexamples that probe the limits of the weak-coupling certificates.

Each scenario pairs a certificate check with a simulation so reports can show
"certified vs. observed" side by side. A runner is split around its
simulation: a job builder returns the (agents, protocol, config) triple and a
finish step that turns the SimResult into the run object, so `run_scenarios`
can hand every entry's simulation to one `simulate_batch` call. Each public
runner is `run_scenarios` on one entry.

Scenarios load from JSON dictionaries with a `scenario_type` discriminator
("traffic" | "platoon" | "remark1" | "harmonic" — the remark1 tag names the
all-to-all counterexample for compatibility with existing config files), each
kind an entry of `_KINDS`. `_sim_config` reads every `sim` block: the network
file's, each scenario's, and the CLI's --dt/--t-final/--tol overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .certify import (
    CaccGainSet,
    PlatoonGainVerdict,
    WeakCouplingVerdict,
    all_to_all_bound,
    check_platoon_gains,
    check_weak_coupling,
)
from .errors import (
    BadDimensions, DimensionMismatch, field, integer, json_object, number, numbers, where,
)
from .graphnet import build_digraph
from .netsim import (
    DelayedIntegrator,
    LtiSiso,
    Plain,
    Reference,
    SimConfig,
    SimResult,
    TimeFn,
    Vehicle3rd,
    _check_member,
    simulate,
    simulate_batch,
)
from .passivity import RationalTF, eval_freq

__all__ = [
    "TrafficSpec",
    "TrafficCertificate",
    "TrafficRun",
    "build_traffic",
    "run_traffic",
    "PlatoonSpec",
    "PlatoonCertificate",
    "PlatoonRun",
    "build_platoon",
    "run_platoon",
    "run_platoon_transformed",
    "HarmonicRun",
    "harmonic_counterexample",
    "AllToAllRun",
    "all_to_all_counterexample",
    "scenario_from_dict",
    "run_scenarios",
]

_PRESETS = ("classic_chain", "unidirectional_ring", "bidirectional_ring", "custom")


@dataclass(frozen=True, eq=False)
class _Job:
    """A scenario split around its simulation: the (agents, protocol,
    config) triple to integrate, finish(SimResult) -> the run object, and
    per-agent output offsets for the metrics (see `simulate_batch`)."""

    member: tuple
    finish: Callable[[SimResult], object]
    offsets: Optional[NDArray[np.float64]] = None


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrafficSpec:
    """Car-following network: n vehicles with sensitivity matrix `adjacency`
    (entry (i, j) is driver i's response gain to vehicle j, 1/s), per-driver
    reaction delays (a single delay is broadcast to every driver), and initial
    velocities. classic_chain follows a virtual leader at constant speed v0
    through gain leader_gain."""

    n: int
    adjacency: NDArray[np.float64]
    delays: NDArray[np.float64]
    topology_preset: str
    v_init: NDArray[np.float64]
    v0: float = 0.0
    leader_gain: Optional[float] = None

    def __post_init__(self):
        n, d = self.n, self.delays
        a, v = numbers("adjacency", self.adjacency), numbers("v_init", self.v_init)
        d = np.full(n, number("delays", d)) if isinstance(d, (int, float)) else numbers("delays", d)
        if a.shape != (n, n):
            raise DimensionMismatch(f"adjacency must be {n}x{n}, got {a.shape}")
        if d.shape != (n,) or v.shape != (n,):
            raise DimensionMismatch("delays and v_init must have length n")
        if np.any(d < 0.0):
            raise BadDimensions("delays must be non-negative")
        if self.topology_preset not in _PRESETS:
            raise BadDimensions(f"unknown topology preset {self.topology_preset!r}")
        if self.topology_preset == "classic_chain" and self.leader_gain is None:
            raise BadDimensions("classic_chain requires a leader_gain")
        for arr in (a, d, v):
            arr.setflags(write=False)
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "v_init", v)
        object.__setattr__(self, "v0", number("v0", self.v0))

    @classmethod
    def classic_chain(cls, n: int, K: float, delays, v_init, v0: float) -> "TrafficSpec":
        """Each vehicle responds to its predecessor with gain K; vehicle 0
        follows a constant-speed virtual leader with the same gain."""
        a = np.zeros((n, n))
        for i in range(1, n):
            a[i, i - 1] = K
        return cls(n, a, delays, "classic_chain", v_init, v0=v0, leader_gain=float(K))

    @classmethod
    def unidirectional_ring(cls, n: int, K: float, delays, v_init) -> "TrafficSpec":
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i - 1) % n] = K
        return cls(n, a, delays, "unidirectional_ring", v_init)

    @classmethod
    def bidirectional_ring(cls, n: int, a_gain: float, delays, v_init) -> "TrafficSpec":
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i - 1) % n] = a_gain
            a[i, (i + 1) % n] = a_gain
        return cls(n, a, delays, "bidirectional_ring", v_init)


@dataclass(frozen=True, eq=False)
class TrafficCertificate:
    """weak_coupling is the general certificate on the sensitivity digraph
    (delays double as the passivity deficits). The leader-following chain is
    not strongly connected, so for that preset the decisive check is the
    classical per-link bound 2*delay*gain < 1, reported in chain_bound."""

    weak_coupling: WeakCouplingVerdict
    chain_bound: Optional[bool]

    @property
    def passes(self) -> bool:
        if self.chain_bound is not None:
            return self.chain_bound
        return self.weak_coupling.passes

    def to_json_dict(self) -> dict:
        return {
            "weak_coupling": self.weak_coupling.to_json_dict(),
            "chain_bound": self.chain_bound,
            "passes": self.passes,
        }


def build_traffic(spec: TrafficSpec):
    """(agents, protocol, certificate) for a traffic spec.

    Chain preset: the graph is augmented with a zero-dynamics virtual leader
    node (an undelayed integrator with no incoming arcs, so its velocity stays
    at v0) and the followers keep their delays.
    """
    cert = TrafficCertificate(
        weak_coupling=check_weak_coupling(build_digraph(spec.adjacency), spec.delays),
        chain_bound=_chain_bound(spec),
    )
    if spec.topology_preset == "classic_chain":
        n = spec.n
        aug = np.zeros((n + 1, n + 1))
        aug[1:, 1:] = spec.adjacency
        aug[1, 0] = spec.leader_gain
        agents = [DelayedIntegrator(delay=0.0)]
        agents += [DelayedIntegrator(delay=float(d)) for d in spec.delays]
        protocol = Plain(build_digraph(aug))
    else:
        agents = [DelayedIntegrator(delay=float(d)) for d in spec.delays]
        protocol = Plain(build_digraph(spec.adjacency))
    return agents, protocol, cert


def _chain_bound(spec: TrafficSpec) -> Optional[bool]:
    if spec.topology_preset != "classic_chain":
        return None
    gains = spec.adjacency.sum(axis=1)
    gains[0] += spec.leader_gain
    return bool(np.all(2.0 * spec.delays * gains < 1.0))


@dataclass(frozen=True, eq=False)
class TrafficRun:
    spec: TrafficSpec
    certificate: TrafficCertificate
    sim: SimResult

    def to_json_dict(self) -> dict:
        v_final = self.sim.y_scalar()[-1]
        return {
            "scenario_type": "traffic",
            "certificate": self.certificate.to_json_dict(),
            "synchronized": bool(self.sim.metrics.synchronized),
            "diverged": bool(self.sim.diverged),
            "pairwise_sup_tail": float(self.sim.metrics.pairwise_sup_tail),
            "final_velocities": [float(v) for v in v_final],
        }


def run_traffic(spec: TrafficSpec, config: SimConfig) -> TrafficRun:
    """Simulate a traffic spec; initial velocities come from the spec (the
    config's initial_states field is ignored)."""
    return run_scenarios([("traffic", spec, config)])[0]


def _traffic_spec(d: dict) -> TrafficSpec:
    preset = d.get("topology_preset", "custom")
    delays, v_init = field(d, "delays"), field(d, "v_init")
    if preset not in _PRESETS:
        raise BadDimensions(f"unknown topology preset {preset!r}")
    a = numbers("adjacency", field(d, "adjacency")) if preset == "custom" else None
    n = integer("n", d.get("n", len(numbers("v_init", v_init) if a is None else a)))
    if n < 1:
        raise BadDimensions(f"n must be >= 1, got {n}")
    if a is not None:
        return TrafficSpec(n, a, delays, "custom", v_init)
    K = number("K", field(d, "K"))
    if K <= 0.0:
        raise BadDimensions(f"K must be positive, got {K}")
    if preset == "classic_chain":
        return TrafficSpec.classic_chain(n, K, delays, v_init, d.get("v0", 0.0))
    if preset == "unidirectional_ring":
        return TrafficSpec.unidirectional_ring(n, K, delays, v_init)
    return TrafficSpec.bidirectional_ring(n, K, delays, v_init)


def _traffic_job(spec: TrafficSpec, config: SimConfig) -> _Job:
    agents, protocol, cert = build_traffic(spec)
    x0 = [[v] for v in spec.v_init]
    if spec.topology_preset == "classic_chain":
        x0 = [[spec.v0]] + x0
    return _Job(
        (agents, protocol, replace(config, initial_states=x0)),
        lambda sim: TrafficRun(spec=spec, certificate=cert, sim=sim),
    )


# ---------------------------------------------------------------------------
# platoon
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PlatoonSpec:
    """CACC platoon: n follower vehicles behind a leader at constant speed v0
    starting from position q0_init. s[i] is the desired gap between vehicle i
    and its predecessor; the goal positions are q_i(t) = q_leader(t) -
    (s[0] + ... + s[i])."""

    gains: CaccGainSet
    s: NDArray[np.float64]
    v0: float
    q_init: NDArray[np.float64]
    v_init: NDArray[np.float64]
    a_init: NDArray[np.float64]
    q0_init: float = 0.0

    def __post_init__(self):
        n = self.gains.n
        for name in ("s", "q_init", "v_init", "a_init"):
            arr = numbers(name, getattr(self, name))
            if arr.shape != (n,):
                raise DimensionMismatch(f"{name} must have length {n}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("v0", "q0_init"):
            object.__setattr__(self, name, number(name, getattr(self, name)))
        if np.any(self.s <= 0.0):
            raise BadDimensions("desired gaps s must be positive")

    @property
    def n(self) -> int:
        return self.gains.n

    def goal_offsets(self) -> NDArray[np.float64]:
        """Cumulative desired distances behind the leader, s[0]+...+s[i]."""
        return np.cumsum(self.s)

    @property
    def leader(self) -> TimeFn:
        """The leader's position, the ramp q0_init + v0*t."""
        return TimeFn(self.q0_init, self.v0)


@dataclass(frozen=True, eq=False)
class PlatoonCertificate:
    pinned: WeakCouplingVerdict
    gains: PlatoonGainVerdict

    @property
    def passes(self) -> bool:
        return self.pinned.passes and self.gains.passes

    def to_json_dict(self) -> dict:
        return {
            "pinned": self.pinned.to_json_dict(),
            "gains": self.gains.to_json_dict(),
            "passes": self.passes,
        }


def _platoon_network(spec: PlatoonSpec):
    """(agents, graph, b, certificate) shared by both platoon coordinates.

    The graph is a bidirectional chain with predecessor gains eta and
    successor gains nu. Vehicle i is pinned iff i = 0 (b[0] = eta[0]).

    Raises MuTauViolation when some mu_i*tau_i >= 1/2 (the per-vehicle
    passivity deficit 1/mu_i^2 is only valid below that product).
    """
    gains, n = spec.gains, spec.n
    a = np.zeros((n, n))
    for i in range(1, n):
        a[i, i - 1] = gains.eta[i]
    for i in range(n - 1):
        a[i, i + 1] = gains.nu[i]
    g = build_digraph(a)
    agents = [Vehicle3rd(tau=t, mu=m) for t, m in zip(gains.tau, gains.mu)]
    b = np.zeros(n)
    b[0] = gains.eta[0]
    cert = PlatoonCertificate(
        pinned=check_weak_coupling(g, [ag.ifp_index() for ag in agents], b),
        gains=check_platoon_gains(gains),
    )
    return agents, g, b, cert


def build_platoon(spec: PlatoonSpec):
    """(agents, protocol, certificate) for the gap-shifted platoon network.

    Outputs of the returned network are y_i = q_i + (s[0]+...+s[i]), which
    erases the desired offsets: the platoon goal becomes plain output
    synchronization to the leader ramp. The feedforward is
    u_bar_i = mu_i * v0.

    Raises MuTauViolation when some mu_i*tau_i >= 1/2.
    """
    agents, g, b, cert = _platoon_network(spec)
    protocol = Reference(
        g,
        b=b,
        u_bar=tuple(TimeFn(m * spec.v0) for m in spec.gains.mu),
        y_bar=spec.leader,
    )
    return agents, protocol, cert


@dataclass(frozen=True, eq=False)
class PlatoonRun:
    """Physical-coordinate platoon run: sim outputs are raw positions;
    spacing_errors[r, i] = q_{i-1} - q_i - s_i at recorded time r (with the
    leader ramp as q_{-1}); velocity_errors[r, i] = v_i - v0. sim.metrics
    are computed on the gap-shifted outputs q_i + (s[0]+...+s[i]) so that
    `synchronized` reflects the platoon goal."""

    spec: PlatoonSpec
    certificate: PlatoonCertificate
    sim: SimResult
    spacing_errors: NDArray[np.float64]
    velocity_errors: NDArray[np.float64]

    def to_json_dict(self) -> dict:
        return {
            "scenario_type": "platoon",
            "certificate": self.certificate.to_json_dict(),
            "synchronized": bool(self.sim.metrics.synchronized),
            "diverged": bool(self.sim.diverged),
            "terminal_abs_spacing_error": float(np.abs(self.spacing_errors[-1]).max()),
            "terminal_abs_velocity_error": float(np.abs(self.velocity_errors[-1]).max()),
        }


def run_platoon(spec: PlatoonSpec, config: SimConfig) -> PlatoonRun:
    """Simulate the platoon in physical coordinates and report gap errors.

    The run uses the same vehicle blocks as build_platoon but couples raw
    positions, keeping the desired-gap constants in the feedforward; the
    shifted network of build_platoon is algebraically identical and is
    cross-checked against this run by run_platoon_transformed.
    """
    return run_scenarios([("platoon", spec, config)])[0]


# the keys of a gains block, as docs/certify.schema.json lists them
_GAINS_KEYS = ("mu", "eta", "nu", "tau")


def _gains(d) -> CaccGainSet:
    """The `gains` block of a platoon scenario or a certify file."""
    d = json_object("gains", d, _GAINS_KEYS)
    return CaccGainSet(*(numbers(f"gains: {k}", field(d, k, "gains: ")) for k in _GAINS_KEYS))


def _platoon_spec(d: dict) -> PlatoonSpec:
    fields = {k: field(d, k) for k in ("s", "v0", "q_init", "v_init", "a_init")}
    return PlatoonSpec(_gains(field(d, "gains")), q0_init=d.get("q0_init", 0.0), **fields)


def _platoon_job(spec: PlatoonSpec, config: SimConfig) -> _Job:
    agents, g, b, cert = _platoon_network(spec)
    gains, n = spec.gains, spec.n
    u_bar = []
    for i in range(n):
        c = gains.mu[i] * spec.v0 - gains.eta[i] * spec.s[i]
        if i < n - 1:
            c += gains.nu[i] * spec.s[i + 1]
        u_bar.append(TimeFn(c))
    protocol = Reference(g, b=b, u_bar=tuple(u_bar), y_bar=spec.leader)
    x0 = [[q, v, a] for q, v, a in zip(spec.q_init, spec.v_init, spec.a_init)]
    return _Job(
        (agents, protocol, replace(config, initial_states=x0)),
        lambda sim: _finish_platoon(spec, cert, sim),
        offsets=spec.goal_offsets(),
    )


def _finish_platoon(spec: PlatoonSpec, cert: PlatoonCertificate, sim: SimResult) -> PlatoonRun:
    q = sim.y_scalar()
    leader = spec.leader(sim.times)
    pred = np.concatenate([leader[:, None], q[:, :-1]], axis=1)
    spacing = pred - q - spec.s[None, :]
    vel = np.stack([sim.states[i][:, 1] for i in range(spec.n)], axis=1) - spec.v0
    spacing.setflags(write=False)
    vel.setflags(write=False)
    return PlatoonRun(
        spec=spec,
        certificate=cert,
        sim=sim,
        spacing_errors=spacing,
        velocity_errors=vel,
    )


def run_platoon_transformed(spec: PlatoonSpec, config: SimConfig) -> SimResult:
    """Simulate the gap-shifted network from matched initial conditions
    (y_i(0) = q_i(0) + s[0]+...+s[i]); its outputs should reproduce
    run_platoon's positions plus the constant offsets to rounding."""
    agents, protocol, _ = build_platoon(spec)
    offs = spec.goal_offsets()
    x0 = [
        [q + o, v, a]
        for q, o, v, a in zip(spec.q_init, offs, spec.v_init, spec.a_init)
    ]
    return simulate(agents, protocol, replace(config, initial_states=x0))


# ---------------------------------------------------------------------------
# harmonic counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HarmonicRun:
    """Two velocity-coupled oscillators that can never synchronize: the
    coupled solution family keeps agent 1's amplitude scaled by
    |W(i*omega2)| < 1 with W(s) = k s / (s^2 + k s + omega1^2)."""

    omega1: float
    omega2: float
    k: float
    amplitude_ratio: float
    observed_ratio: float
    sim: SimResult

    def to_json_dict(self) -> dict:
        return {
            "scenario_type": "harmonic",
            "amplitude_ratio": float(self.amplitude_ratio),
            "observed_ratio": float(self.observed_ratio),
            "synchronized": bool(self.sim.metrics.synchronized),
        }


def harmonic_counterexample(
    omega1: float, omega2: float, k: float, config: Optional[SimConfig] = None
) -> HarmonicRun:
    """Build and run the two-oscillator counterexample.

    Agent outputs are velocities (transfer function s/(s^2 + omega_i^2), so
    the canonical state is exactly (position, velocity)); only agent 1 senses
    agent 2, with weight k. Initial conditions select the closed-form
    solution family member with unit complex amplitude: agent 2 plays
    cos(omega2 t) while agent 1's position is Re[W(i omega2) e^{i omega2 t}].
    """
    spec = {"omega1": omega1, "omega2": omega2, "k": k}
    return run_scenarios([("harmonic", spec, config or _KINDS["harmonic"].sim)])[0]


def _harmonic_spec(d: dict) -> dict:
    return {k: field(d, k) for k in ("omega1", "omega2", "k")}


def _harmonic_job(spec: dict, config: SimConfig) -> _Job:
    omega1, omega2, k = (number(key, spec[key]) for key in ("omega1", "omega2", "k"))
    if omega1 == omega2:
        raise BadDimensions("the two natural frequencies must differ")
    if not k > 0.0:
        raise BadDimensions(f"coupling gain k must be positive, got {k}")
    w_tf = RationalTF.from_coeffs([0.0, k], [omega1**2, k, 1.0])
    w_at = eval_freq(w_tf, omega2)
    ratio = abs(w_at)

    agents = [
        LtiSiso.from_coeffs([0.0, 1.0], [omega1**2, 0.0, 1.0]),
        LtiSiso.from_coeffs([0.0, 1.0], [omega2**2, 0.0, 1.0]),
    ]
    g = build_digraph([[0.0, k], [0.0, 0.0]])
    x0 = [
        [w_at.real, (1j * omega2 * w_at).real],
        [1.0, 0.0],
    ]

    def finish(sim: SimResult) -> HarmonicRun:
        v = sim.y_scalar()
        tail = v[sim.times >= sim.times[-1] - 0.25 * (sim.times[-1] - sim.times[0])]
        amp = 0.5 * (tail.max(axis=0) - tail.min(axis=0))
        observed = float(amp[0] / amp[1]) if amp[1] > 0 else math.inf
        return HarmonicRun(omega1=omega1, omega2=omega2, k=k, amplitude_ratio=float(ratio),
                           observed_ratio=observed, sim=sim)

    return _Job((agents, Plain(g), replace(config, initial_states=x0)), finish)


# ---------------------------------------------------------------------------
# all-to-all counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AllToAllRun:
    """Identical cubic agents 1/(s(s^2+ps+q)) under all-to-all coupling.

    predicted comes from the published threshold (Hurwitz test with the
    complete graph counted as kappa*(n-1)); observed is what the simulation
    reports. The two are expected to agree away from the threshold, except in
    the band pq/n < kappa < pq/(n-1) where the disagreement dynamics (whose
    complete-graph eigenvalue is kappa*n) diverge although the published
    bound predicts synchronization; `note` flags that band."""

    p: float
    q: float
    n_agents: int
    kappa: float
    predicted: bool
    observed: bool
    sim: SimResult
    note: Optional[str] = None

    @property
    def agree(self) -> bool:
        return self.predicted == self.observed

    def to_json_dict(self) -> dict:
        return {
            "scenario_type": "remark1",
            "p": self.p,
            "q": self.q,
            "n_agents": self.n_agents,
            "kappa": self.kappa,
            "predicted": self.predicted,
            "observed": self.observed,
            "agree": self.agree,
            "note": self.note,
        }


def all_to_all_counterexample(
    p: float,
    q: float,
    n_agents: int,
    kappa: float,
    config: Optional[SimConfig] = None,
) -> AllToAllRun:
    """Compare the published all-to-all threshold against simulation."""
    spec = {"p": p, "q": q, "n_agents": n_agents, "kappa": kappa}
    return run_scenarios([("remark1", spec, config or _KINDS["remark1"].sim)])[0]


def _all_to_all_spec(d: dict) -> dict:
    return {k: field(d, k) for k in ("p", "q", "n_agents", "kappa")}


def _all_to_all_job(spec: dict, config: SimConfig) -> _Job:
    p, q, kappa = (number(key, spec[key]) for key in ("p", "q", "kappa"))
    n_agents = integer("n_agents", spec["n_agents"])
    if not min(p, q, kappa) > 0.0:
        raise BadDimensions(f"p, q, kappa must be positive, got {p}, {q}, {kappa}")
    predicted = all_to_all_bound(p, q, n_agents, kappa)
    a = kappa * (np.ones((n_agents, n_agents)) - np.eye(n_agents))
    g = build_digraph(a)
    agents = [
        LtiSiso.from_coeffs([1.0], [0.0, q, p, 1.0]) for _ in range(n_agents)
    ]
    rng = np.random.default_rng(7)
    x0 = rng.normal(0.0, 0.5, size=(n_agents, 3)).tolist()
    note = None
    if q * p / n_agents < kappa < q * p / (n_agents - 1):
        note = (
            "kappa lies in the band where the published n-1 count predicts "
            "synchronization but the complete-graph eigenvalue kappa*n is "
            "beyond the Hurwitz limit"
        )
    return _Job(
        (agents, Plain(g), replace(config, initial_states=x0)),
        lambda sim: AllToAllRun(p=p, q=q, n_agents=n_agents, kappa=kappa, predicted=predicted,
                                observed=bool(sim.metrics.synchronized), sim=sim, note=note),
    )


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """read(scenario dict) -> spec, job(spec, config) -> _Job, default
    settings, and the keys a scenario of the kind may hold."""

    read: Callable[[dict], object]
    job: Callable[[object, SimConfig], _Job]
    sim: SimConfig
    keys: tuple[str, ...]


_KINDS = {
    "traffic": _Kind(_traffic_spec, _traffic_job,
                     SimConfig(dt=1e-3, t_final=100.0, record_stride=10),
                     ("scenario_type", "topology_preset", "n", "K", "adjacency", "delays",
                      "v_init", "v0", "sim")),
    "platoon": _Kind(_platoon_spec, _platoon_job,
                     SimConfig(dt=2e-3, t_final=200.0, record_stride=10),
                     ("scenario_type", "gains", "s", "v0", "q_init", "v_init", "a_init",
                      "q0_init", "sim")),
    "remark1": _Kind(_all_to_all_spec, _all_to_all_job,
                     SimConfig(dt=5e-3, t_final=150.0, record_stride=20),
                     ("scenario_type", "p", "q", "n_agents", "kappa", "sim")),
    "harmonic": _Kind(_harmonic_spec, _harmonic_job,
                      SimConfig(dt=1e-3, t_final=60.0, record_stride=5, tol=0.1),
                      ("scenario_type", "omega1", "omega2", "k", "sim")),
}


def _kind(name) -> _Kind:
    if isinstance(name, str) and name in _KINDS:
        return _KINDS[name]
    raise BadDimensions(f"unknown scenario_type {name!r}")


# the keys of a sim block, as docs/network.schema.json lists them
_SIM_KEYS = ("dt", "t_final", "tol", "blowup", "record_stride")


def _sim_config(base: SimConfig, d) -> SimConfig:
    """`base` with the settings of a `sim` block: finite numbers, record_stride
    an integer; BadDimensions names a block or field of the wrong type and an
    unknown field."""
    d = json_object("sim", d, _SIM_KEYS)
    over = {k: integer(k, v) if k == "record_stride" else number(k, v) for k, v in d.items()}
    return replace(base, **over)


def scenario_from_dict(d: dict):
    """(kind, spec, SimConfig) from a scenario JSON dictionary.

    For "remark1" and "harmonic" the spec is the parameter dict consumed by
    the corresponding counterexample function.
    """
    name = field(d, "scenario_type")
    kind = _kind(name)
    json_object(name, d, kind.keys)
    config = _sim_config(kind.sim, d.get("sim", {}))
    return name, kind.read(d), config


def run_scenarios(
    entries: Sequence[tuple[str, object, SimConfig]], names: Optional[Sequence[str]] = None
) -> list:
    """Run (kind, spec, config) entries as `scenario_from_dict` returns them;
    one run object per entry, in order.

    Every entry is built, its certificate and its simulation checked, before
    any is simulated, so a bad entry raises before any integration. When
    `names` is given, an error raised while building entry i starts with
    names[i] ("scenario 3: "). Each result equals the entry's own run bit
    for bit.
    """
    jobs = []
    for i, (kind, spec, config) in enumerate(entries):
        with where(names[i] if names else ""):
            jobs.append(_kind(kind).job(spec, config))
            _check_member(*jobs[-1].member)
    sims = simulate_batch([job.member for job in jobs], [job.offsets for job in jobs])
    return [job.finish(sim) for job, sim in zip(jobs, sims)]
