"""Prebuilt experiments: traffic chains/rings, CACC platoons, and the two
counterexamples that probe the limits of the weak-coupling certificates.

Each scenario pairs a certificate check with a simulation so reports can show
"certified vs. observed" side by side. A runner is split around its
simulation: a build step returns the (agents, protocol, config) triple and a
finish step turns the SimResult into the run object, so `run_scenarios` can
hand every entry's simulation to one `simulate_batch` call. Each public
runner is `run_scenarios` on one entry.
Specs are plain dataclasses and can be loaded from JSON dictionaries with a
`scenario_type` discriminator ("traffic" | "platoon" | "remark1" |
"harmonic" — the remark1 tag names the all-to-all counterexample for
compatibility with existing config files).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .certify import (
    CaccGainSet,
    PlatoonGainVerdict,
    WeakCouplingVerdict,
    all_to_all_bound,
    check_platoon_gains,
    check_weak_coupling,
    check_weak_coupling_pinned,
)
from .errors import BadDimensions, DimensionMismatch, integer
from .graphnet import build_digraph
from .netsim import (
    DelayedIntegrator,
    LtiSiso,
    Plain,
    Reference,
    SimConfig,
    SimResult,
    Vehicle3rd,
    _sample,
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
    reaction delays, and initial velocities. classic_chain follows a virtual
    leader at constant speed v0 through gain leader_gain."""

    n: int
    adjacency: NDArray[np.float64]
    delays: NDArray[np.float64]
    topology_preset: str
    v_init: NDArray[np.float64]
    v0: float = 0.0
    leader_gain: Optional[float] = None

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        d = np.asarray(self.delays, dtype=float)
        v = np.asarray(self.v_init, dtype=float)
        if a.shape != (self.n, self.n):
            raise DimensionMismatch(f"adjacency must be {self.n}x{self.n}, got {a.shape}")
        if d.shape != (self.n,) or v.shape != (self.n,):
            raise DimensionMismatch("delays and v_init must have length n")
        for name, value in (("delays", d), ("v_init", v), ("v0", self.v0)):
            if not np.all(np.isfinite(value)):
                raise BadDimensions(f"{name} must be finite, got {value}")
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

    @classmethod
    def classic_chain(cls, n: int, K: float, delays, v_init, v0: float) -> "TrafficSpec":
        """Each vehicle responds to its predecessor with gain K; vehicle 0
        follows a constant-speed virtual leader with the same gain."""
        a = np.zeros((n, n))
        for i in range(1, n):
            a[i, i - 1] = K
        return cls(
            n=n,
            adjacency=a,
            delays=np.broadcast_to(np.asarray(delays, dtype=float), (n,)).copy(),
            topology_preset="classic_chain",
            v_init=np.asarray(v_init, dtype=float),
            v0=float(v0),
            leader_gain=float(K),
        )

    @classmethod
    def unidirectional_ring(cls, n: int, K: float, delays, v_init) -> "TrafficSpec":
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i - 1) % n] = K
        return cls(n, a, np.broadcast_to(np.asarray(delays, dtype=float), (n,)).copy(),
                   "unidirectional_ring", np.asarray(v_init, dtype=float))

    @classmethod
    def bidirectional_ring(cls, n: int, a_gain: float, delays, v_init) -> "TrafficSpec":
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i - 1) % n] = a_gain
            a[i, (i + 1) % n] = a_gain
        return cls(n, a, np.broadcast_to(np.asarray(delays, dtype=float), (n,)).copy(),
                   "bidirectional_ring", np.asarray(v_init, dtype=float))

    @classmethod
    def custom(cls, adjacency, delays, v_init) -> "TrafficSpec":
        a = np.asarray(adjacency, dtype=float)
        return cls(a.shape[0], a, np.asarray(delays, dtype=float),
                   "custom", np.asarray(v_init, dtype=float))


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
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise DimensionMismatch(f"{name} must have length {n}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("s", "v0", "q0_init", "q_init", "v_init", "a_init"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise BadDimensions(f"{name} must be finite, got {getattr(self, name)}")
        if np.any(self.s <= 0.0):
            raise BadDimensions("desired gaps s must be positive")

    @property
    def n(self) -> int:
        return self.gains.n

    def goal_offsets(self) -> NDArray[np.float64]:
        """Cumulative desired distances behind the leader, s[0]+...+s[i]."""
        return np.cumsum(self.s)

    def leader_position(self, t: float) -> float:
        return self.q0_init + self.v0 * t


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
        pinned=check_weak_coupling_pinned(g, [ag.ifp_index() for ag in agents], b),
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
        u_bar=tuple((lambda t, c=m * spec.v0: c) for m in spec.gains.mu),
        y_bar=spec.leader_position,
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


def _platoon_job(spec: PlatoonSpec, config: SimConfig) -> _Job:
    agents, g, b, cert = _platoon_network(spec)
    gains, n = spec.gains, spec.n
    u_bar = []
    for i in range(n):
        c = gains.mu[i] * spec.v0 - gains.eta[i] * spec.s[i]
        if i < n - 1:
            c += gains.nu[i] * spec.s[i + 1]
        u_bar.append(lambda t, c=c: c)
    protocol = Reference(g, b=b, u_bar=tuple(u_bar), y_bar=spec.leader_position)
    x0 = [[q, v, a] for q, v, a in zip(spec.q_init, spec.v_init, spec.a_init)]
    return _Job(
        (agents, protocol, replace(config, initial_states=x0)),
        lambda sim: _finish_platoon(spec, cert, sim),
        offsets=spec.goal_offsets(),
    )


def _finish_platoon(spec: PlatoonSpec, cert: PlatoonCertificate, sim: SimResult) -> PlatoonRun:
    q = sim.y_scalar()
    leader = _sample(spec.leader_position, sim.times)
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
    return run_scenarios([("harmonic", spec, config or _SIM_DEFAULTS["harmonic"])])[0]


def _harmonic_job(omega1: float, omega2: float, k: float, config: SimConfig) -> _Job:
    if not (math.isfinite(omega1) and math.isfinite(omega2)):
        raise BadDimensions(f"omega1 and omega2 must be finite, got {omega1}, {omega2}")
    if omega1 == omega2:
        raise BadDimensions("the two natural frequencies must differ")
    if not (math.isfinite(k) and k > 0.0):
        raise BadDimensions(f"coupling gain k must be finite and positive, got {k}")
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
        return HarmonicRun(
            omega1=float(omega1),
            omega2=float(omega2),
            k=float(k),
            amplitude_ratio=float(ratio),
            observed_ratio=observed,
            sim=sim,
        )

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
    return run_scenarios([("remark1", spec, config or _SIM_DEFAULTS["remark1"])])[0]


def _all_to_all_job(p: float, q: float, n_agents: int, kappa: float, config: SimConfig) -> _Job:
    if not all(math.isfinite(x) and x > 0.0 for x in (p, q, kappa)):
        raise BadDimensions(f"p, q, kappa must be finite and positive, got {p}, {q}, {kappa}")
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
        lambda sim: AllToAllRun(
            p=float(p),
            q=float(q),
            n_agents=int(n_agents),
            kappa=float(kappa),
            predicted=bool(predicted),
            observed=bool(sim.metrics.synchronized),
            sim=sim,
            note=note,
        ),
    )


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

_SIM_DEFAULTS = {
    "traffic": SimConfig(dt=1e-3, t_final=100.0, record_stride=10),
    "platoon": SimConfig(dt=2e-3, t_final=200.0, record_stride=10),
    "remark1": SimConfig(dt=5e-3, t_final=150.0, record_stride=20),
    "harmonic": SimConfig(dt=1e-3, t_final=60.0, record_stride=5, tol=0.1),
}


def _sim_config(kind: str, d: dict) -> SimConfig:
    cfg = _SIM_DEFAULTS[kind]
    overrides = {
        k: d[k] for k in ("dt", "t_final", "record_stride", "tol") if k in d
    }
    if "record_stride" in overrides:
        overrides["record_stride"] = integer("record_stride", overrides["record_stride"])
    return replace(cfg, **overrides)


def scenario_from_dict(d: dict):
    """(kind, spec, SimConfig) from a scenario JSON dictionary.

    For "remark1" and "harmonic" the spec is the parameter dict consumed by
    the corresponding counterexample function.
    """
    if "scenario_type" not in d:
        raise BadDimensions("scenario JSON needs a scenario_type field")
    kind = d["scenario_type"]
    sim_cfg = _sim_config(kind, d.get("sim", {})) if kind in _SIM_DEFAULTS else None
    if kind == "traffic":
        preset = d.get("topology_preset", "custom")
        n = integer("n", d["n"]) if "n" in d else len(d.get("v_init", ()))
        if preset == "classic_chain":
            spec = TrafficSpec.classic_chain(
                n, float(d["K"]), d["delays"], d["v_init"], float(d.get("v0", 0.0))
            )
        elif preset == "unidirectional_ring":
            spec = TrafficSpec.unidirectional_ring(n, float(d["K"]), d["delays"], d["v_init"])
        elif preset == "bidirectional_ring":
            spec = TrafficSpec.bidirectional_ring(n, float(d["K"]), d["delays"], d["v_init"])
        elif preset == "custom":
            spec = TrafficSpec.custom(d["adjacency"], d["delays"], d["v_init"])
        else:
            raise BadDimensions(f"unknown topology preset {preset!r}")
        return kind, spec, sim_cfg
    if kind == "platoon":
        gd = d["gains"]
        gains = CaccGainSet.build(gd["mu"], gd["eta"], gd["nu"], gd["tau"])
        spec = PlatoonSpec(
            gains=gains,
            s=d["s"],
            v0=float(d["v0"]),
            q_init=d["q_init"],
            v_init=d["v_init"],
            a_init=d["a_init"],
            q0_init=float(d.get("q0_init", 0.0)),
        )
        return kind, spec, sim_cfg
    if kind == "remark1":
        spec = {
            "p": float(d["p"]),
            "q": float(d["q"]),
            "n_agents": integer("n_agents", d["n_agents"]),
            "kappa": float(d["kappa"]),
        }
        return kind, spec, sim_cfg
    if kind == "harmonic":
        spec = {
            "omega1": float(d["omega1"]),
            "omega2": float(d["omega2"]),
            "k": float(d["k"]),
        }
        return kind, spec, sim_cfg
    raise BadDimensions(f"unknown scenario_type {kind!r}")


def run_scenarios(entries: Sequence[tuple[str, object, SimConfig]]) -> list:
    """Run (kind, spec, config) entries as `scenario_from_dict` returns them;
    one run object per entry, in order.

    Every entry is built (and its certificate checked) before any is
    simulated, and `simulate_batch` checks every simulation before it
    integrates any, so a bad entry raises before any integration. Each
    result equals the entry's own run bit for bit.
    """
    jobs = [_job(kind, spec, config) for kind, spec, config in entries]
    sims = simulate_batch([job.member for job in jobs], [job.offsets for job in jobs])
    return [job.finish(sim) for job, sim in zip(jobs, sims)]


def _job(kind: str, spec, config: SimConfig) -> _Job:
    if kind == "traffic":
        return _traffic_job(spec, config)
    if kind == "platoon":
        return _platoon_job(spec, config)
    if kind == "remark1":
        return _all_to_all_job(config=config, **spec)
    if kind == "harmonic":
        return _harmonic_job(config=config, **spec)
    raise BadDimensions(f"unknown scenario_type {kind!r}")
