"""Seeded inputs for the benchmark workloads.

Each workload is a CLI invocation (``argv`` for ``ifpsync.cli.main``) plus the
JSON files it reads. The generators use only ``numpy.random.default_rng(seed)``
and ``json.dumps``, so one seed always gives byte-identical files. The program
under test sees only these files; nothing here imports it.

Sizes are chosen so that one invocation takes a few seconds on a 2-core
machine, which lets one benchmark run take several samples of each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# The repository's platoon configuration (3 vehicles, per-stage feedforward
# callbacks, dt = 2 ms), with the horizon cut from 200 s to PLATOON_T_FINAL.
# The per-step cost does not depend on the horizon, so the share of time spent
# in per-step Python overhead is the same as for the full 100k-step run.
PLATOON_T_FINAL = 20.0
PLATOON = {
    "scenario_type": "platoon",
    "gains": {
        "mu": [2.0, 2.0, 2.0],
        "eta": [0.4, 0.5, 1.0],
        "nu": [0.5, 0.5],
        "tau": [0.1, 0.1, 0.1],
    },
    "s": [20.0, 20.0, 20.0],
    "v0": 15.0,
    "q0_init": 0.0,
    "q_init": [-22.0, -42.0, -62.0],
    "v_init": [15.0, 15.0, 15.0],
    "a_init": [0.0, 0.0, 0.0],
    "sim": {"dt": 0.002, "t_final": 200.0, "record_stride": 10},
}

RING_N = 500
RING_DT = 0.01
RING_STEPS = 400
RING_STRIDE = 5

SWEEP_N = 40
SWEEP_DT = 0.01
SWEEP_STEPS = 3000
SWEEP_STRIDE = 10
# K as multiples of the certificate bound K* = 1 / (4 max delay): the first
# entries certify, the middle ones fail the certificate without diverging,
# and the last two diverge early (6-12 s into the 30 s horizon for any seed,
# which keeps the work of one run nearly independent of the seed).
SWEEP_K_FACTORS = (0.3, 0.6, 0.9, 1.2, 1.6, 2.5, 8.0, 12.0)

CERTIFY_N = 2000


@dataclass(frozen=True)
class Agent:
    """One agent as y^(k) + den[k-1] y^(k-1) + ... + den[0] y = gain * u.

    ``den`` is ascending with a last (leading) entry of 1; ``alpha`` is the
    closed-form passivity deficit; ``spec`` is the agent's CLI JSON.
    """

    den: tuple[float, ...]
    gain: float
    alpha: float
    spec: dict = field(compare=False)


def _integrator_lag(a: float) -> Agent:
    # 1/(s(s+a)): Re W(iw) = -1/(w^2 + a^2), so alpha = 1/a^2.
    return Agent((0.0, a, 1.0), 1.0, 1.0 / a**2, {"type": "lti", "num": [1.0], "den": [0.0, a, 1.0]})


def _integrator_oscillator(p: float, q: float) -> Agent:
    # 1/(s(s^2+ps+q)): Re W(iw) = -p / ((q - w^2)^2 + p^2 w^2); the minimum over
    # z = w^2 >= 0 sits at z = q - p^2/2 when that is positive, else at z = 0.
    alpha = 1.0 / (p * q - p**3 / 4.0) if q > p * p / 2.0 else p / q**2
    return Agent((0.0, q, p, 1.0), 1.0, alpha,
                 {"type": "lti", "num": [1.0], "den": [0.0, q, p, 1.0]})


def _vehicle(tau: float, mu: float) -> Agent:
    # tau y''' + y'' + mu y' = u, alpha = 1/mu^2 while mu * tau < 1/2.
    return Agent((0.0, mu / tau, 1.0 / tau, 1.0), 1.0 / tau, 1.0 / mu**2,
                 {"type": "vehicle", "tau": tau, "mu": mu})


def mixed_agents(rng: np.random.Generator, n: int) -> list[Agent]:
    """A 1:1:1 cycle of 1/(s(s+a)), 1/(s(s^2+ps+q)) and third-order vehicles."""
    out = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            out.append(_integrator_lag(float(rng.uniform(1.0, 2.0))))
        elif kind == 1:
            out.append(_integrator_oscillator(float(rng.uniform(1.0, 2.0)),
                                              float(rng.uniform(1.5, 3.0))))
        else:
            out.append(_vehicle(float(rng.uniform(0.05, 0.15)), float(rng.uniform(1.5, 2.5))))
    return out


@dataclass
class Workload:
    """One invocation: the CLI arguments (relative to the work directory) and
    the input files to write there. ``model`` carries what the oracle needs."""

    name: str
    argv: list[str]
    files: dict[str, str]
    model: dict
    operations: int = 1


def platoon(seed: int) -> Workload:
    """Fixed input; the seed is not used (the workload is the repository's
    platoon configuration)."""
    del seed
    scenario = {**PLATOON, "sim": {**PLATOON["sim"], "t_final": PLATOON_T_FINAL}}
    return Workload("platoon", ["scenario", "platoon.json"],
                    {"platoon.json": json.dumps(scenario)}, {"scenario": scenario})


def wide_ring(seed: int) -> Workload:
    """Undelayed bidirectional ring of RING_N mixed agents, certified weak
    coupling (alpha_j * d_j < 1/2 on every node)."""
    rng = np.random.default_rng([seed, 1])
    agents = mixed_agents(rng, RING_N)
    adj = np.zeros((RING_N, RING_N))
    for i, ag in enumerate(agents):
        w = float(rng.uniform(0.3, 0.8)) / (4.0 * ag.alpha)
        adj[i, (i - 1) % RING_N] = w
        adj[i, (i + 1) % RING_N] = w
    y0 = rng.uniform(-1.0, 1.0, RING_N)
    specs = []
    for ag, y in zip(agents, y0):
        specs.append({**ag.spec, "x0": [float(y)] + [0.0] * (len(ag.den) - 2)})
    net = {
        "adjacency": adj.tolist(),
        "agents": specs,
        "protocol": {"type": "plain"},
        "sim": {"dt": RING_DT, "t_final": RING_DT * RING_STEPS,
                "record_stride": RING_STRIDE, "tol": 1e-3},
    }
    return Workload("wide_ring", ["simulate", "ring.json"], {"ring.json": json.dumps(net)},
                    {"agents": agents, "adjacency": adj, "y0": y0, "dt": RING_DT,
                     "steps": RING_STEPS, "stride": RING_STRIDE, "tol": 1e-3})


def traffic_sweep(seed: int) -> Workload:
    """SWEEP_N drivers on a bidirectional ring with 8 distinct reaction delays
    (multiples of dt in [0.1, 0.5] s); one sweep entry per gain factor."""
    rng = np.random.default_rng([seed, 2])
    grid = np.round(np.arange(10, 51) * SWEEP_DT, 10)
    levels = np.sort(rng.choice(grid, size=8, replace=False))
    delays = [float(levels[i % 8]) for i in rng.permutation(SWEEP_N)]
    v_init = [float(v) for v in rng.uniform(10.0, 20.0, SWEEP_N)]
    k_star = 1.0 / (4.0 * max(delays))
    entries = []
    for f in SWEEP_K_FACTORS:
        entries.append({
            "scenario_type": "traffic",
            "topology_preset": "bidirectional_ring",
            "n": SWEEP_N,
            "K": f * k_star,
            "delays": delays,
            "v_init": v_init,
            "sim": {"dt": SWEEP_DT, "t_final": SWEEP_DT * SWEEP_STEPS,
                    "record_stride": SWEEP_STRIDE},
        })
    return Workload("traffic_sweep", ["scenario", "--sweep", "sweep.json"],
                    {"sweep.json": json.dumps(entries)}, {"entries": entries},
                    operations=len(entries))


def certify_wide(seed: int) -> Workload:
    """Strongly connected digraph of CERTIFY_N mixed agents: a ring backbone
    plus two random in-arcs per node, rows scaled so every node certifies."""
    rng = np.random.default_rng([seed, 3])
    n = CERTIFY_N
    agents = mixed_agents(rng, n)
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i - 1) % n] = 1.0
        extra = rng.choice(n, size=2, replace=False)
        for k in extra:
            if k != i:
                adj[i, k] = float(rng.uniform(0.2, 1.0))
    alpha = np.array([ag.alpha for ag in agents])
    target = rng.uniform(0.1, 0.45, n) / alpha
    adj *= (target / adj.sum(axis=1))[:, None]
    net = {"adjacency": adj.tolist(), "agents": [ag.spec for ag in agents]}
    return Workload("certify_wide", ["certify", "net.json"], {"net.json": json.dumps(net)},
                    {"agents": agents, "adjacency": adj})


WORKLOADS = {
    "platoon": platoon,
    "wide_ring": wide_ring,
    "traffic_sweep": traffic_sweep,
    "certify_wide": certify_wide,
}

# The workloads BENCHMARK.json lists, which `run.py` runs by default. Together
# they reach every layer. `platoon` and `wide_ring` stay runnable by name for
# work on netsim's per-step cost and on the dense ring, but are not part of the
# benchmark: on a 2-core shared host, four workloads leave each run too short
# (30 s) to average out minute-long swings in host speed, while two can run
# 55 s each within the time allowed for all runs.
BENCHMARKED = ("traffic_sweep", "certify_wide")
