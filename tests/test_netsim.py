"""Coupling laws, single RK4 steps, full simulations, and metrics.

Coupling laws are checked through `simulate`: with integrator agents the
recorded input `SimResult.u[0]` is the protocol applied to the initial
outputs. The assembled engine is cross-checked against `rk4_oracle`, an
independent per-agent RK4 of the same closed loop, on fixed cases and on
random delayed networks.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import random_strongly_connected_adjacency
from ifpsync import (
    BadDimensions,
    DelayedIntegrator,
    Digraph,
    DimensionMismatch,
    EmptyTrajectory,
    LtiSiso,
    Plain,
    Reference,
    SimConfig,
    TimeFn,
    Vehicle3rd,
    build_digraph,
    check_weak_coupling,
    laplacian,
    simulate,
    simulate_batch,
    sync_metrics,
)
from ifpsync.netsim import _CHUNK


SIN = TimeFn(amplitude=1.0, omega=1.0)
COS = TimeFn(amplitude=1.0, omega=1.0, phase=math.pi / 2)


def integrator() -> LtiSiso:
    return LtiSiso.from_coeffs([1.0], [0.0, 1.0])


def cubic_lag(p: float, q: float) -> LtiSiso:
    return LtiSiso.from_coeffs([1.0], [0.0, q, p, 1.0])


def all_to_all(n: int, kappa: float) -> np.ndarray:
    return kappa * (np.ones((n, n)) - np.eye(n))


def inputs_at_outputs(protocol, outputs) -> np.ndarray:
    """(n, m) coupling inputs the protocol produces at t = 0 when agent i
    outputs outputs[i]: simulate undelayed integrators started there."""
    y0 = [np.atleast_1d(np.asarray(v, dtype=float)) for v in outputs]
    agents = [DelayedIntegrator(dim=v.shape[0]) for v in y0]
    res = simulate(agents, protocol, SimConfig(dt=0.01, t_final=0.02, initial_states=y0))
    return res.u[0]


def rk4_oracle(agents, protocol, config) -> np.ndarray:
    """Recorded outputs (n_rec, n, m) of a per-agent classical RK4 of the
    closed loop u = -K y + offset(t), K = L + diag(b), built from each agent's
    (A, B, C). A delayed agent reads its input from the list of inputs
    computed at the grid times, interpolated linearly, or from its
    prehistory before t = 0."""
    n = len(agents)
    dt = config.dt
    abc = [a.linear_realization() for a in agents]
    g = protocol.g
    adj = np.zeros((n, n))
    adj[g.heads, g.tails] = g.weights
    k = np.diag(adj.sum(axis=1)) - adj
    pinned = isinstance(protocol, Reference)
    if pinned:
        k = k + np.diag(protocol.b)

    def offset(i, t):
        v = 0.0
        if pinned and protocol.y_bar is not None:
            v += protocol.b[i] * protocol.y_bar(t)
        if pinned and protocol.u_bar is not None and protocol.u_bar[i] is not None:
            v += protocol.u_bar[i](t)
        return v

    def coupled(t, xs):
        ys = [c @ x for (_, _, c), x in zip(abc, xs)]
        return [-sum(k[i, j] * ys[j] for j in range(n)) + offset(i, t) for i in range(n)]

    history = [[] for _ in range(n)]  # u_i at t = 0, dt, 2 dt, ...

    def past_input(i, t):
        pos = t / dt
        if abs(pos - round(pos)) < 1e-9:
            pos = float(round(pos))
        if pos < 0.0:
            hist = config.initial_histories
            fn = None if hist is None else hist[i]
            return np.full(agents[i].output_dim, 0.0 if fn is None else fn(t))
        j = math.floor(pos)
        frac = pos - j
        if frac == 0.0:
            return history[i][j]
        return (1.0 - frac) * history[i][j] + frac * history[i][j + 1]

    def deriv(t, xs):
        us = coupled(t, xs)
        out = []
        for i, ((a, b, _), x) in enumerate(zip(abc, xs)):
            d = agents[i].input_delay
            u = past_input(i, t - d) if d > 0.0 else us[i]
            out.append(a @ x + b @ u)
        return out

    n_steps = int(math.floor(config.t_final / dt + 1e-9))
    xs = [np.asarray(x, dtype=float) for x in config.initial_states]
    rec = [[c @ x for (_, _, c), x in zip(abc, xs)]]
    h = dt / 2.0
    for step in range(n_steps):
        t = step * dt
        for i, u in enumerate(coupled(t, xs)):
            history[i].append(u)
        k1 = deriv(t, xs)
        k2 = deriv(t + h, [x + h * d for x, d in zip(xs, k1)])
        k3 = deriv(t + h, [x + h * d for x, d in zip(xs, k2)])
        k4 = deriv(t + dt, [x + dt * d for x, d in zip(xs, k3)])
        xs = [x + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
              for x, a, b, c, d in zip(xs, k1, k2, k3, k4)]
        if (step + 1) % config.record_stride == 0:
            rec.append([c @ x for (_, _, c), x in zip(abc, xs)])
    return np.array(rec)


def oracle_case(name: str):
    """(agents, protocol, config) of the engine cross-check cases."""
    if name == "plain_pair":
        return (
            [cubic_lag(2.0, 3.0), Vehicle3rd(tau=0.1, mu=2.0)],
            Plain(build_digraph([[0, 1], [1, 0]])),
            SimConfig(dt=1e-3, t_final=5.0, initial_states=[[0.3, 0, 0], [-0.2, 0.1, 0]]),
        )
    if name == "pinned_reference":
        return (
            [cubic_lag(2.0, 3.0), Vehicle3rd(tau=0.1, mu=2.0)],
            Reference(
                build_digraph([[0, 0.5], [0.5, 0]]),
                (0.6, 0.0),
                u_bar=(None, TimeFn(amplitude=0.2, omega=3.0)),
                y_bar=TimeFn(1.0, 0.1),
            ),
            SimConfig(dt=1e-3, t_final=5.0, initial_states=[[0.3, 0, 0], [-0.2, 0.1, 0]]),
        )
    if name == "delayed_dim3":
        delays = (0.05, 0.123, 0.3, 0.0)
        a = np.zeros((4, 4))
        for i in range(4):
            a[i, (i - 1) % 4] = 0.6
            a[i, (i + 1) % 4] = 0.3
        rng = np.random.default_rng(3)
        return (
            [DelayedIntegrator(delay=d, dim=3) for d in delays],
            Reference(
                build_digraph(a),
                (0.4, 0.0, 0.0, 0.0),
                u_bar=(None, TimeFn(0.5), None, COS),
                y_bar=TimeFn(-0.3, 0.2),
            ),
            SimConfig(
                dt=0.01,
                t_final=3.0,
                record_stride=3,
                initial_states=rng.normal(size=(4, 3)).tolist(),
                initial_histories=(TimeFn(0.7), SIN, None, None),
            ),
        )
    raise KeyError(name)


# ---------------------------------------------------------------------------
# time functions
# ---------------------------------------------------------------------------

# finite parameters; adding 0.0 turns -0.0 into +0.0, which is the one value
# a TimeFn does not reproduce (c + 0.0*t is +0.0 for c = -0.0 and t >= 0)
PARAM = st.floats(-1e6, 1e6, allow_subnormal=False).map(lambda x: x + 0.0)


def sample_times(seed: int) -> np.ndarray:
    """Times on both sides of zero, zero itself included."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[0.0, -0.0], rng.uniform(-50.0, 50.0, 500), np.linspace(-3, 3, 61)])


class TestTimeFn:
    @given(c=PARAM, seed=st.integers(0, 1000))
    def test_constant_on_an_array_equals_the_constant_bit_for_bit(self, c, seed):
        ts = sample_times(seed)
        got = TimeFn(c)(ts)
        assert got.tobytes() == np.array([c for _ in ts.tolist()]).tobytes()
        assert TimeFn(c)(0.5) == c

    @given(a=PARAM, b=PARAM, seed=st.integers(0, 1000))
    def test_ramp_on_an_array_equals_the_per_element_expression_bit_for_bit(self, a, b, seed):
        ts = sample_times(seed)
        got = TimeFn(a, b)(ts)
        assert got.tobytes() == np.array([a + b * t for t in ts.tolist()]).tobytes()
        assert [TimeFn(a, b)(t) for t in ts.tolist()] == [a + b * t for t in ts.tolist()]

    @given(
        amp=st.floats(-10.0, 10.0), omega=st.floats(-20.0, 20.0), phase=st.floats(-4.0, 4.0),
        seed=st.integers(0, 1000),
    )
    def test_sin_on_an_array_is_within_one_ulp_of_math_sin(self, amp, omega, phase, seed):
        # numpy's vector sin need not round like the C library's on every
        # platform, so one unit in the last place is allowed
        ts = sample_times(seed)
        got = TimeFn(amplitude=amp, omega=omega, phase=phase)(ts)
        expected = np.array([amp * math.sin(omega * t + phase) for t in ts.tolist()])
        np.testing.assert_array_max_ulp(got, expected, maxulp=1)

    def test_zero_amplitude_leaves_the_sine_out(self):
        ts = sample_times(0)
        assert TimeFn(1.5, 0.0, 0.0, 7.0, 1.0)(ts).tobytes() == TimeFn(1.5)(ts).tobytes()
        assert TimeFn() == TimeFn(0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1.0", True, None])
    def test_parameter_that_is_not_a_finite_number_rejected(self, bad):
        for name in ("offset", "slope", "amplitude", "omega", "phase"):
            with pytest.raises(BadDimensions, match=name):
                TimeFn(**{name: bad})

    @pytest.mark.parametrize(
        "fn", [lambda t: 1.0, np.sin, math.cos, 1.0], ids=["lambda", "np.sin", "math.cos", "float"]
    )
    def test_anything_but_a_time_fn_refused(self, fn):
        g = build_digraph([[0, 1], [1, 0]])
        with pytest.raises(BadDimensions, match="y_bar must be a TimeFn or None"):
            Reference(g, (1.0, 0.0), y_bar=fn)
        with pytest.raises(BadDimensions, match=r"u_bar\[1\] must be a TimeFn or None"):
            Reference(g, (0.0, 0.0), u_bar=(None, fn))
        with pytest.raises(BadDimensions, match=r"initial_histories\[0\] must be a TimeFn"):
            SimConfig(dt=0.01, t_final=1.0, initial_histories=[fn, None])
        with pytest.raises(BadDimensions, match="y_bar must be a TimeFn or None"):
            sync_metrics((np.arange(3.0), np.zeros((3, 2))), y_bar=fn)

    def test_time_fn_lists_are_stored_as_tuples(self):
        g = build_digraph([[0, 1], [1, 0]])
        proto = Reference(g, (0.0, 0.0), u_bar=[TimeFn(1.0), None])
        cfg = SimConfig(dt=0.01, t_final=1.0, initial_histories=[None, SIN])
        assert proto.u_bar == (TimeFn(1.0), None)
        assert cfg.initial_histories == (None, SIN)
        assert replace(cfg, dt=0.02).initial_histories == (None, SIN)


# ---------------------------------------------------------------------------
# plain coupling law
# ---------------------------------------------------------------------------

class TestCouplePlain:
    def test_bidirectional_pair(self):
        g = build_digraph([[0, 1], [1, 0]])
        u = inputs_at_outputs(Plain(g), [1.0, 0.0])
        assert np.array_equal(u, [[-1.0], [1.0]])

    def test_consensus_fixed_point(self):
        g = build_digraph([[0, 2, 1], [1, 0, 3], [2, 1, 0]])
        u = inputs_at_outputs(Plain(g), [2.5] * 3)
        assert np.array_equal(u, np.zeros((3, 1)))

    def test_weighted_ring(self):
        a = np.zeros((3, 3))
        for i in range(3):
            a[i, (i - 1) % 3] = 2.0
        u = inputs_at_outputs(Plain(build_digraph(a)), [1.0, 2.0, 3.0])
        assert np.array_equal(u, [[4.0], [-2.0], [-2.0]])

    def test_dimension_mismatch_rejected(self):
        g = build_digraph([[0, 1], [1, 0]])
        with pytest.raises(DimensionMismatch):
            simulate([integrator()], Plain(g), SimConfig(dt=0.01, t_final=0.02))


# ---------------------------------------------------------------------------
# reference coupling law
# ---------------------------------------------------------------------------

class TestCoupleReference:
    def test_on_reference_fixed_point(self):
        proto = Reference(build_digraph(np.zeros((2, 2))), (1.0, 0.0), y_bar=TimeFn(5.0))
        u = inputs_at_outputs(proto, [5.0, 5.0])
        assert np.array_equal(u, np.zeros((2, 1)))

    def test_pinned_agent_pulled_toward_reference(self):
        proto = Reference(build_digraph(np.zeros((2, 2))), (1.0, 0.0), y_bar=TimeFn(1.0))
        u = inputs_at_outputs(proto, [0.0, 0.0])
        assert np.array_equal(u, [[1.0], [0.0]])

    @given(seed=st.integers(0, 10_000))
    def test_reduces_to_plain_coupling_without_pinning(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        g = build_digraph(random_strongly_connected_adjacency(rng, n))
        agents = [DelayedIntegrator(dim=2) for _ in range(n)]
        cfg = SimConfig(dt=0.01, t_final=0.5, initial_states=rng.normal(size=(n, 2)).tolist())
        pinned = simulate(agents, Reference(g, np.zeros(n), y_bar=TimeFn(3.0)), cfg)
        plain = simulate(agents, Plain(g), cfg)
        assert np.array_equal(pinned.y, plain.y)
        assert np.array_equal(pinned.u, plain.u)

    @pytest.mark.parametrize("m", [1, 3])
    def test_recorded_input_equals_the_protocol_row_by_row(self, m):
        # u = -K y, then the offset of each recorded row formed as zeros,
        # += b*y_bar(t), += u_bar_i(t): equal bit for bit
        y_bar = TimeFn(1.0, 0.1)
        g = build_digraph([[0, 0.5, 0], [0.3, 0, 0.7], [0, 1.2, 0]])
        b = np.array([0.6, 0.0, 0.25])
        u_bar = (None, SIN, TimeFn(-0.4, 0.3))
        rng = np.random.default_rng(5)
        res = simulate(
            [DelayedIntegrator(dim=m) for _ in range(3)],
            Reference(g, b, u_bar=u_bar, y_bar=y_bar),
            SimConfig(dt=0.01, t_final=3.0, record_stride=7,
                      initial_states=rng.normal(size=(3, m)).tolist()),
        )
        k = laplacian(g) + np.diag(b)
        expected = -np.einsum("ij,rjm->rim", k, res.y)
        # the time functions sampled at the recorded times, as one array each
        y_t = y_bar(res.times)
        u_t = [None if fn is None else fn(res.times) for fn in u_bar]
        for r in range(len(res.times)):
            off = np.zeros((3, m))
            off += b[:, None] * y_t[r]
            for i, v in enumerate(u_t):
                if v is not None:
                    off[i] += v[r]
            expected[r] += off
        assert np.array_equal(res.u, expected)

    def test_unforced_reference_keeps_the_sign_of_zero(self):
        # node 2 has no in-arcs: u_2 = -(0*y_0 + 0*y_1 + 0*y_2) is -0.0, and
        # a Reference adds its zero offset, which makes it 0.0
        g = build_digraph([[0, 1.0, 0], [0.5, 0, 0], [0, 0, 0]])
        agents = [DelayedIntegrator() for _ in range(3)]
        cfg = SimConfig(dt=0.1, t_final=1.0, initial_states=[[1.0], [2.0], [3.0]])
        plain = simulate(agents, Plain(g), cfg)
        ref = simulate(agents, Reference(g, np.zeros(3)), cfg)
        assert np.array_equal(plain.y, ref.y)
        assert np.all(ref.u[:, 2] == 0.0) and not np.signbit(ref.u[:, 2]).any()
        assert np.signbit(plain.u[:, 2]).all()


# ---------------------------------------------------------------------------
# RK4 steps of the network
# ---------------------------------------------------------------------------

class TestStepNetwork:
    def test_symmetric_integrator_pair_conserves_the_sum(self):
        agents = [integrator(), integrator()]
        proto = Plain(build_digraph([[0, 1], [1, 0]]))
        res = simulate(agents, proto, SimConfig(dt=0.01, t_final=1.0, initial_states=[[1.0], [0.0]]))
        assert res.times.shape[0] == 101
        assert np.max(np.abs(res.y_scalar().sum(axis=1) - 1.0)) < 1e-13

    def test_uncoupled_agent_matches_matrix_exponential(self):
        agent = cubic_lag(2.0, 3.0)
        a_mat, _, _ = agent.linear_realization()
        proto = Plain(build_digraph(np.zeros((1, 1))))
        x0 = np.array([0.4, -0.3, 0.2])
        dt = 0.01
        res = simulate([agent], proto, SimConfig(dt=dt, t_final=2 * dt, initial_states=[x0]))
        exact = expm(a_mat * dt) @ x0
        assert np.max(np.abs(res.states[0][1] - exact)) < np.max(np.abs(x0)) * dt**4

    def test_delayed_integrator_ramps_after_the_delay_elapses(self):
        c, delay, dt = 1.5, 0.05, 0.01
        agent = DelayedIntegrator(delay=delay)
        proto = Reference(
            build_digraph(np.zeros((1, 1))), (0.0,), u_bar=(TimeFn(c),), y_bar=TimeFn(0.0)
        )
        res = simulate(
            [agent], proto, SimConfig(dt=dt, t_final=20 * dt, initial_histories=[TimeFn(c)])
        )
        steps = np.diff(res.y_scalar()[:, 0])
        assert steps.shape == (20,)
        assert np.max(np.abs(steps - c * dt)) < 1e-12


# ---------------------------------------------------------------------------
# agent and protocol parameters
# ---------------------------------------------------------------------------

NON_FINITE = [float("nan"), float("inf")]


class TestParameterValidation:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_vehicle_rejects_non_finite_parameters(self, bad):
        with pytest.raises(BadDimensions):
            Vehicle3rd(tau=bad, mu=2.0)
        with pytest.raises(BadDimensions):
            Vehicle3rd(tau=0.1, mu=bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_delayed_integrator_rejects_non_finite_delay(self, bad):
        with pytest.raises(BadDimensions):
            DelayedIntegrator(delay=bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_reference_rejects_non_finite_pinning_gain(self, bad):
        g = build_digraph([[0, 1], [1, 0]])
        with pytest.raises(BadDimensions):
            Reference(g, (bad, 0.0), y_bar=TimeFn(1.0))

    @pytest.mark.parametrize("stride, message", [
        (2.5, "record_stride must be finite and integral, got 2.5"),
        (True, "record_stride must be a number, got bool"),
    ])
    def test_sim_config_reads_record_stride_as_an_integer(self, stride, message):
        with pytest.raises(BadDimensions, match=message):
            SimConfig(dt=0.1, t_final=1.0, record_stride=stride)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class TestSimulate:
    def test_integrator_pair_reaches_average_consensus(self):
        agents = [integrator(), integrator()]
        res = simulate(
            agents,
            Plain(build_digraph([[0, 1], [1, 0]])),
            SimConfig(dt=1e-3, t_final=15.0, initial_states=[[1.0], [0.0]]),
        )
        assert res.metrics.synchronized
        assert abs(res.y_scalar()[-1][0] - 0.5) < 1e-6
        assert abs(res.y_scalar()[-1][1] - 0.5) < 1e-6

    def test_all_to_all_above_published_threshold_fails(self):
        agents = [cubic_lag(1.0, 1.0) for _ in range(3)]
        cfg = SimConfig(dt=5e-3, t_final=150.0, record_stride=20, initial_states=[[0.5, 0, 0], [-0.3, 0, 0], [0.1, 0, 0]])
        res = simulate(agents, Plain(build_digraph(all_to_all(3, 0.6))), cfg)
        assert res.diverged or not res.metrics.synchronized

    def test_all_to_all_between_published_and_spectral_thresholds_fails(self):
        # kappa = 0.4 with three agents: the aggregate drift mode carries
        # eigenvalue coupling kappa*n = 1.2 > p*q = 1, so the disagreement
        # dynamics are unstable even though kappa*(n-1) = 0.8 < 1.
        agents = [cubic_lag(1.0, 1.0) for _ in range(3)]
        cfg = SimConfig(dt=5e-3, t_final=150.0, record_stride=20, initial_states=[[0.5, 0, 0], [-0.3, 0, 0], [0.1, 0, 0]])
        res = simulate(agents, Plain(build_digraph(all_to_all(3, 0.4))), cfg)
        assert not res.metrics.synchronized
        assert res.metrics.pairwise_sup_tail > 0.1

    def test_all_to_all_below_spectral_threshold_synchronizes(self):
        # kappa = 0.2: kappa*n = 0.6 < 1 keeps every closed-loop mode stable
        agents = [cubic_lag(1.0, 1.0) for _ in range(3)]
        cfg = SimConfig(dt=5e-3, t_final=150.0, record_stride=20, initial_states=[[0.5, 0, 0], [-0.3, 0, 0], [0.1, 0, 0]])
        res = simulate(agents, Plain(build_digraph(all_to_all(3, 0.2))), cfg)
        assert res.metrics.synchronized

    def test_divergence_reported_with_truncated_trajectory(self):
        agents = [cubic_lag(1.0, 1.0) for _ in range(3)]
        cfg = SimConfig(
            dt=5e-3, t_final=150.0, record_stride=20, initial_states=[[0.5, 0, 0], [-0.3, 0, 0], [0.1, 0, 0]]
        )
        res = simulate(agents, Plain(build_digraph(all_to_all(3, 1.0))), cfg)
        assert res.diverged
        assert res.t_diverged is not None
        assert res.times[-1] <= cfg.t_final
        assert not res.metrics.synchronized

    def test_identical_runs_are_bitwise_equal(self):
        agents = [cubic_lag(2.0, 3.0), cubic_lag(2.0, 4.0)]
        cfg = SimConfig(dt=1e-3, t_final=5.0, initial_states=[[0.3, 0, 0], [-0.2, 0, 0]])
        proto = Plain(build_digraph([[0, 1], [1, 0]]))
        r1 = simulate(agents, proto, cfg)
        r2 = simulate(agents, proto, cfg)
        assert np.array_equal(r1.y, r2.y)
        assert np.array_equal(r1.u, r2.u)

    @pytest.mark.parametrize("case", ["plain_pair", "pinned_reference", "delayed_dim3"])
    def test_assembled_engine_matches_per_agent_oracle(self, case):
        agents, proto, cfg = oracle_case(case)
        res = simulate(agents, proto, cfg)
        expected = rk4_oracle(agents, proto, cfg)
        assert res.y.shape == expected.shape
        assert np.max(np.abs(res.y - expected)) < 1e-12

    @given(data=st.data())
    def test_delayed_inputs_match_per_agent_oracle(self, data):
        # agents share off-grid delay levels, the step equals the smallest
        # delay, and the horizon runs past the steps that read the prehistory
        n = data.draw(st.integers(2, 6), label="n")
        m = data.draw(st.sampled_from([1, 2]), label="m")
        levels = data.draw(
            st.lists(st.floats(0.01, 0.08), min_size=1, max_size=3, unique=True), label="levels"
        )
        which = data.draw(
            st.lists(st.integers(-1, len(levels) - 1), min_size=n - 1, max_size=n - 1),
            label="level of agents 2..n (-1: undelayed)",
        )
        delays = [levels[0]] + [0.0 if j < 0 else levels[j] for j in which]
        dt = min(d for d in delays if d > 0.0)
        lookback = math.ceil(max(delays) / dt) + 1
        steps = data.draw(st.integers(lookback + 1, 3 * lookback + 2), label="steps")
        histories = data.draw(
            st.lists(
                st.one_of(
                    st.none(),
                    st.just(SIN),
                    st.floats(-2.0, 2.0).map(TimeFn),
                ),
                min_size=n,
                max_size=n,
            ),
            label="histories",
        )
        x0 = data.draw(
            st.lists(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m), min_size=n, max_size=n),
            label="x0",
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 1000), label="graph seed"))
        agents = [DelayedIntegrator(delay=d, dim=m) for d in delays]
        proto = Plain(build_digraph(random_strongly_connected_adjacency(rng, n)))
        cfg = SimConfig(
            dt=dt, t_final=steps * dt, initial_states=x0, initial_histories=tuple(histories)
        )
        res = simulate(agents, proto, cfg)
        expected = rk4_oracle(agents, proto, cfg)
        assert res.y.shape == expected.shape
        assert np.max(np.abs(res.y - expected)) < 1e-12

    @given(data=st.data())
    def test_blocks_of_steps_match_per_agent_oracle(self, data):
        # the engine steps in blocks of `lead` steps, the steps whose delayed
        # reads land at or before the block start: the smallest delay
        # (lead + frac) * dt gives lead = 1 .. 5 against strides 1 .. 3, the
        # step count need not be a multiple of lead, and one input in five
        # runs past a _CHUNK boundary of the offset table
        dt = 0.01
        lead = data.draw(st.integers(1, 5), label="lead")
        frac = data.draw(st.sampled_from([0.0, 0.3, 0.5]), label="frac")
        d_min = (lead + frac) * dt
        long_run = data.draw(st.integers(0, 4), label="long run") == 0
        n = data.draw(st.integers(2, 3 if long_run else 4), label="n")
        m = 1 if long_run else data.draw(st.sampled_from([1, 2]), label="m")
        other = st.sampled_from([0.0, d_min, d_min + 0.013, 3.0 * d_min])
        delays = [d_min] + [data.draw(other, label="delay") for _ in range(n - 1)]
        if long_run:
            steps = _CHUNK + data.draw(st.integers(1, 3 * lead), label="steps past _CHUNK")
        else:
            steps = data.draw(st.integers(2, 12 * lead + 7), label="steps")
        stride = data.draw(st.integers(1, 3), label="stride")
        rng = np.random.default_rng(data.draw(st.integers(0, 1000), label="seed"))
        agents = [DelayedIntegrator(delay=d, dim=m) for d in delays]
        pinned = rng.random(n) < 0.5
        pinned[0] = True
        proto = Reference(
            build_digraph(random_strongly_connected_adjacency(rng, n)),
            np.where(pinned, rng.uniform(0.1, 1.0, n), 0.0),
            u_bar=tuple(None if rng.random() < 0.5 else COS for _ in range(n)),
            y_bar=TimeFn(0.5, -0.2),
        )
        histories = tuple(
            data.draw(st.sampled_from([None, SIN, TimeFn(0.7)]), label="history")
            for _ in range(n)
        )
        cfg = SimConfig(
            dt=dt,
            t_final=steps * dt,
            record_stride=stride,
            initial_states=rng.uniform(-1.0, 1.0, (n, m)).tolist(),
            initial_histories=histories,
        )
        res = simulate(agents, proto, cfg)
        expected = rk4_oracle(agents, proto, cfg)
        assert res.y.shape == expected.shape
        assert np.max(np.abs(res.y - expected)) < 1e-12


# ---------------------------------------------------------------------------
# simulate_batch
# ---------------------------------------------------------------------------

MEMBER_KINDS = ("plain", "reference", "unforced reference")


def random_member(data, rng, delays, m, n_steps, stride, dt, kinds=MEMBER_KINDS):
    """(agents, protocol, config) of one batch member with the given delays:
    Plain or Reference coupling (of one of `kinds`), and for m = 1 undelayed
    slots either an integrator or a first-order lag 1/(s + a) that may be
    unstable. A small blowup makes some members diverge mid-run. A
    "reference" member pins agent 0 to a ramp, so it has offsets."""
    n = len(delays)
    agents = []
    for d in delays:
        if m == 1 and d == 0.0 and rng.random() < 0.5:
            agents.append(LtiSiso.from_coeffs([rng.uniform(0.5, 2.0)], [rng.uniform(-4.0, 1.0), 1.0]))
        else:
            agents.append(DelayedIntegrator(delay=d, dim=m))
    g = build_digraph(random_strongly_connected_adjacency(rng, n))
    kind = data.draw(st.sampled_from(kinds), label="protocol")
    if kind == "plain":
        proto = Plain(g)
    elif kind == "unforced reference":
        proto = Reference(g, np.zeros(n), y_bar=TimeFn(3.0))
    else:
        c = rng.uniform(-2.0, 2.0)
        pinned = rng.random(n) < 0.5
        pinned[0] = True
        proto = Reference(
            g,
            np.where(pinned, rng.uniform(0.1, 1.0, n), 0.0),
            u_bar=tuple(None if rng.random() < 0.5 else TimeFn(c) for _ in range(n)),
            y_bar=TimeFn(c, 0.5),
        )
    histories = tuple(
        data.draw(st.sampled_from([None, SIN, TimeFn(0.7)]), label="history")
        for _ in range(n)
    )
    config = SimConfig(
        dt=dt,
        t_final=n_steps * dt,
        record_stride=stride,
        initial_states=[rng.normal(size=a.state_dim).tolist() for a in agents],
        initial_histories=histories,
        blowup=data.draw(st.sampled_from([1e12, 3.0, 10.0]), label="blowup"),
    )
    return agents, proto, config


class TestSimulateBatch:
    @given(data=st.data())
    def test_every_member_equals_its_own_run(self, data):
        n = data.draw(st.integers(2, 4), label="n")
        m = data.draw(st.sampled_from([1, 2]), label="m")
        # one input runs past a block boundary of the offset table: delayed
        # members that all have offsets, for a step count above _CHUNK
        long_run = data.draw(st.integers(0, 4), label="long run") == 0
        # undelayed members with and without offsets are drawn, and
        # simulate_batch puts them in separate groups
        delays = [0.0] * n
        if long_run or data.draw(st.booleans(), label="delayed"):
            levels = [0.05, 0.08, 0.12] if long_run else [0.0, 0.05, 0.08, 0.12]
            delays = data.draw(
                st.lists(st.sampled_from(levels), min_size=n, max_size=n), label="delays"
            )
        if long_run:
            n_steps = _CHUNK + data.draw(st.integers(1, _CHUNK - 1), label="steps past _CHUNK")
        else:
            n_steps = data.draw(st.integers(2, 80), label="steps")
        stride = data.draw(st.integers(1, 3), label="stride")
        size = data.draw(st.integers(2, 3 if long_run else 5), label="batch size")
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))
        kinds = ("reference",) if long_run else MEMBER_KINDS
        members = [
            random_member(data, rng, delays, m, n_steps, stride, 0.05, kinds) for _ in range(size)
        ]
        if long_run:  # the first member does not stop at a small blowup
            agents, proto, config = members[0]
            members[0] = (agents, proto, replace(config, blowup=1e12))
        batch = simulate_batch(members)
        assert len(batch) == size
        for member, got in zip(members, batch):
            own = simulate(*member)
            assert np.array_equal(got.times, own.times)
            assert np.array_equal(got.y, own.y)
            assert np.array_equal(got.u, own.u)
            assert all(np.array_equal(a, b) for a, b in zip(got.states, own.states))
            assert got.metrics.to_json_dict() == own.metrics.to_json_dict()
            assert (got.diverged, got.t_diverged) == (own.diverged, own.t_diverged)

    def test_a_diverging_member_leaves_the_others_running(self):
        agents = [LtiSiso.from_coeffs([1.0], [-1.0, 1.0])]  # 1/(s - 1)
        proto = Plain(build_digraph([[0.0]]))
        cfg = SimConfig(dt=0.01, t_final=5.0, initial_states=[[1.0]])
        small = replace(cfg, blowup=10.0)
        stable, diverged = simulate_batch([(agents, proto, cfg), (agents, proto, small)])
        assert not stable.diverged and stable.times.shape[0] == 501
        assert diverged.diverged
        assert abs(diverged.t_diverged - math.log(10.0)) < 0.01
        assert diverged.times.shape[0] == round(diverged.t_diverged / 0.01)
        assert np.array_equal(stable.y[: diverged.y.shape[0]], diverged.y)

    @staticmethod
    def assert_equal_runs(got, own):
        assert np.array_equal(got.times, own.times)
        assert np.array_equal(got.y, own.y)
        assert np.array_equal(got.u, own.u)
        assert all(np.array_equal(a, b) for a, b in zip(got.states, own.states))

    def test_a_member_past_blowup_at_once_is_cut_at_its_first_step(self):
        # the second member crosses blowup at once; its discarded steps
        # overflow to inf and interpolate inf - inf in its ring columns, and
        # no floating-point error escapes
        agents = [DelayedIntegrator(0.05), DelayedIntegrator(0.05)]
        cfg = SimConfig(dt=0.01, t_final=20.0, initial_states=[[1.0], [0.0]])
        huge = replace(cfg, initial_states=[[1e100], [-1e100]])
        members = [
            (agents, Plain(build_digraph([[0, 1], [1, 0]])), cfg),
            (agents, Plain(build_digraph([[0, 1e4], [1e4, 0]])), huge),
        ]
        with np.errstate(all="raise"):
            live, diverged = simulate_batch(members)
        assert not live.diverged and live.metrics.synchronized
        assert diverged.diverged and diverged.t_diverged == 0.01
        assert diverged.times.shape == (1,)
        self.assert_equal_runs(live, simulate(*members[0]))

    def test_a_member_that_overflows_after_its_cut_raises_no_fp_error(self):
        # 1/(s - a) with a*dt = 1e20 grows by about 4e78 per step: it crosses
        # blowup at the first step and overflows within the block
        fast = [LtiSiso.from_coeffs([1.0], [-1e22, 1.0])]
        slow = [LtiSiso.from_coeffs([1.0], [1.0, 1.0])]
        proto = Plain(build_digraph([[0.0]]))
        cfg = SimConfig(dt=0.01, t_final=1.0, initial_states=[[1.0]])
        with np.errstate(all="raise"):
            live, diverged = simulate_batch([(slow, proto, cfg), (fast, proto, cfg)])
        assert not live.diverged and live.times.shape == (101,)
        assert diverged.diverged and diverged.t_diverged == 0.01
        assert diverged.times.shape == (1,)
        self.assert_equal_runs(live, simulate(slow, proto, cfg))

    def test_a_coupling_beyond_the_float_range_is_cut_when_it_arrives(self):
        # weight 1e300 makes |u| = 1e300 and |K C| = 2e300; the delay holds
        # it off for 5 steps, the fifth reads u(0) and crosses blowup
        agents = [DelayedIntegrator(0.05), DelayedIntegrator(0.05)]
        cfg = SimConfig(dt=0.01, t_final=1.0, initial_states=[[1.0], [0.0]])
        members = [
            (agents, Plain(build_digraph([[0, w], [w, 0]])), cfg) for w in (1.0, 1e300)
        ]
        with np.errstate(all="raise"):
            live, diverged = simulate_batch(members)
        assert not live.diverged and live.times.shape == (101,)
        assert diverged.diverged and diverged.t_diverged == 0.05
        assert diverged.times.shape == (5,)
        self.assert_equal_runs(live, simulate(*members[0]))

    def test_a_recorded_output_beyond_the_float_range_warns_nothing(self):
        # agent 1 outputs 1e300 * 1e9, inf from t = 0: forming the recorded
        # y and u overflows, and no floating-point warning escapes
        agents = [LtiSiso.from_coeffs([1.0], [0.0, 1.0]), LtiSiso.from_coeffs([1e300], [0.0, 1.0])]
        cfg = SimConfig(dt=0.1, t_final=1.0, initial_states=[[0.0], [1e9]])
        run = simulate(agents, Plain(build_digraph([[0, 1], [0, 0]])), cfg)
        assert run.diverged and run.t_diverged == 0.1
        assert run.y[:, :, 0].tolist() == [[0.0, math.inf]]

    def test_a_member_is_cut_at_its_first_crossing_at_every_offset_of_a_block(self):
        # a delay of 5 steps makes blocks of 5 steps; one member crosses
        # blowup at each offset of one block, the others keep stepping past
        # it, and no floating-point error escapes from the steps a block
        # computes beyond a crossing
        dt, lead = 0.01, 5
        agents = [LtiSiso.from_coeffs([1.0], [-1.0, 1.0]), DelayedIntegrator(lead * dt)]
        proto = Plain(build_digraph([[0, 0.5], [0.5, 0]]))
        cfg = SimConfig(dt=dt, t_final=3.0, initial_states=[[0.3], [-0.2]])
        full = simulate(agents, proto, cfg)
        assert not full.diverged
        size = np.maximum(np.abs(full.states[0][:, 0]), np.abs(full.states[1][:, 0]))
        firsts = range(100, 100 + lead)  # each offset within a block once
        blowups = [float(size[:k].max()) for k in firsts]
        assert all(size[k] > b for k, b in zip(firsts, blowups))
        members = [(agents, proto, cfg)] + [
            (agents, proto, replace(cfg, blowup=b)) for b in blowups
        ]
        with np.errstate(all="raise"):
            batch = simulate_batch(members)
        self.assert_equal_runs(batch[0], full)
        for k, cut in zip(firsts, batch[1:]):
            assert cut.diverged and cut.t_diverged == k * dt
            assert cut.times.shape == (k,)
            for got, ref in zip(cut.states, full.states):
                assert np.array_equal(got, ref[:k])

    @pytest.mark.parametrize(
        "change",
        [
            lambda a, c: ([DelayedIntegrator(0.05)] + a[1:], c),  # an input delay
            lambda a, c: ([DelayedIntegrator(dim=2)] + a[1:], c),  # a state dimension
            lambda a, c: (a, replace(c, dt=0.02)),
            lambda a, c: (a, replace(c, t_final=0.6)),  # the step count
            lambda a, c: (a, replace(c, record_stride=2)),
        ],
        ids=["delay", "state_dim", "dt", "steps", "stride"],
    )
    def test_mixed_group_keys_equal_own_runs(self, change):
        # members of two groups, the first group's members split by the
        # second's; each equals its own run (`simulate` for the members
        # without output offsets)
        agents = [DelayedIntegrator(0.02), DelayedIntegrator(0.0)]
        proto = Plain(build_digraph([[0, 1], [1, 0]]))
        cfg = SimConfig(dt=0.01, t_final=0.5, initial_states=[[1.0], [0.0]])
        other_agents, other_cfg = change(agents, cfg)
        if other_agents[0].output_dim == 2:
            other_agents = [DelayedIntegrator(dim=2), DelayedIntegrator(dim=2)]
            other_cfg = replace(other_cfg, initial_states=[[1.0, -1.0], [0.0, 0.5]])
        pinned = Reference(build_digraph([[0, 2], [2, 0]]), b=[1.0, 0.0], y_bar=TimeFn(0.5))
        members = [
            (agents, proto, cfg),
            (other_agents, proto, other_cfg),
            (agents, pinned, replace(cfg, initial_states=[[-0.5], [0.25]])),
        ]
        offsets = [None, None, np.array([1.0, 2.0])]
        batch = simulate_batch(members, offsets)
        assert len(batch) == len(members)
        for member, offs, got in zip(members, offsets, batch):
            (own,) = simulate_batch([member], [offs])
            for a, b in [(got.times, own.times), (got.y, own.y), (got.u, own.u),
                         *zip(got.states, own.states)]:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert got.metrics.to_json_dict() == own.metrics.to_json_dict()
            assert (got.diverged, got.t_diverged) == (own.diverged, own.t_diverged)

    def test_empty_batch(self):
        assert simulate_batch([]) == []

    def test_each_realization_is_read_once_per_member(self, monkeypatch):
        calls: dict[int, int] = {}
        for cls in (LtiSiso, DelayedIntegrator, Vehicle3rd):
            def counted(self, realize=cls.linear_realization):
                calls[id(self)] = calls.get(id(self), 0) + 1
                return realize(self)
            monkeypatch.setattr(cls, "linear_realization", counted)
        g = build_digraph([[0, 1], [1, 0]])
        cfg = SimConfig(dt=0.01, t_final=0.5, initial_states=[[1.0], [0.0]])
        members = [
            ([integrator(), DelayedIntegrator(0.05)], Plain(g), cfg),
            ([integrator(), DelayedIntegrator(0.05)], Plain(g), cfg),
            ([cubic_lag(2.0, 3.0), Vehicle3rd(0.3, 0.5)], Plain(g),
             replace(cfg, initial_states=None)),
        ]
        simulate_batch(members)
        agents = [a for member in members for a in member[0]]
        assert calls == {id(a): 1 for a in agents}

    def test_member_without_agents_rejected(self):
        proto = Plain(Digraph(0, np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0)))
        with pytest.raises(BadDimensions, match="need at least one agent"):
            simulate_batch([([], proto, SimConfig(dt=0.1, t_final=1.0))])

    def test_initial_state_count_must_match_the_agents(self):
        proto = Plain(build_digraph([[0, 1], [1, 0]]))
        config = SimConfig(dt=0.1, t_final=1.0, initial_states=[[1.0]])
        with pytest.raises(DimensionMismatch, match="initial_states must have 2 entries"):
            simulate([integrator(), integrator()], proto, config)

    @pytest.mark.parametrize("k", range(-16, 7))
    def test_step_above_the_smallest_delay_rejected_at_every_scale(self, k):
        # delays, step and horizon in a time unit of s, gains in 1/s
        s = 10.0**k
        agents = [DelayedIntegrator(0.2 * s), DelayedIntegrator(0.2 * s)]
        proto = Plain(build_digraph([[0, 1.0 / s], [1.0 / s, 0]]))
        x0 = [[1.0], [0.0]]
        with pytest.raises(BadDimensions, match="exceeds the smallest positive delay"):
            simulate(agents, proto, SimConfig(dt=s, t_final=10.0 * s, initial_states=x0))
        # a step equal to the delay is accepted, and the run does not depend on the unit
        res = simulate(agents, proto, SimConfig(dt=0.2 * s, t_final=2.0 * s, initial_states=x0))
        ref = simulate(
            [DelayedIntegrator(0.2), DelayedIntegrator(0.2)],
            Plain(build_digraph([[0, 1.0], [1.0, 0]])),
            SimConfig(dt=0.2, t_final=2.0, initial_states=x0),
        )
        assert res.y.shape == ref.y.shape
        assert np.allclose(res.y, ref.y, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# sync_metrics
# ---------------------------------------------------------------------------

class TestSyncMetrics:
    def test_identical_trajectories(self):
        t = np.linspace(0.0, 10.0, 101)
        y = np.stack([np.sin(t), np.sin(t)], axis=1)[:, :, None]
        m = sync_metrics((t, y))
        assert m.pairwise_sup_tail == 0.0
        assert m.l2_pairwise[0, 1] == 0.0
        assert m.synchronized

    def test_constant_unit_gap(self):
        t = np.linspace(0.0, 10.0, 1001)
        y = np.stack([np.zeros_like(t), np.ones_like(t)], axis=1)[:, :, None]
        m = sync_metrics((t, y))
        assert abs(m.l2_pairwise[0, 1] - 10.0) < 1e-12
        assert not m.synchronized
        assert m.l2_pairwise[0, 0] == 0.0
        assert m.l2_pairwise[0, 1] == m.l2_pairwise[1, 0]

    def test_exponentially_closing_gap(self):
        t = np.linspace(0.0, 20.0, 20001)
        y = np.stack([np.exp(-t), np.zeros_like(t)], axis=1)[:, :, None]
        m = sync_metrics((t, y))
        assert abs(m.l2_pairwise[0, 1] - 0.5) < 1e-6
        assert m.synchronized  # e^-18 tail is far below the default tolerance

    def test_empty_trajectory_rejected(self):
        with pytest.raises(EmptyTrajectory):
            sync_metrics((np.array([]), np.zeros((0, 2, 1))))

    @pytest.mark.parametrize("times, y", [
        (np.zeros(3), np.zeros((2, 2))),
        (np.zeros((3, 1)), np.zeros((3, 2))),
        (np.zeros(3), np.zeros((3, 2, 1, 1))),
    ])
    def test_inconsistent_shapes_rejected(self, times, y):
        with pytest.raises(DimensionMismatch, match="inconsistent trajectory shapes"):
            sync_metrics((times, y))

    def test_scalar_view_needs_scalar_outputs(self):
        g = build_digraph([[0, 1], [1, 0]])
        config = SimConfig(dt=0.1, t_final=1.0, initial_states=[[1.0], [0.0]])
        scalar = simulate([integrator(), integrator()], Plain(g), config)
        assert np.shares_memory(scalar.y_scalar(), scalar.y)
        assert scalar.y_scalar().tolist() == scalar.y[:, :, 0].tolist()
        vector = simulate([DelayedIntegrator(dim=2), DelayedIntegrator(dim=2)], Plain(g),
                          replace(config, initial_states=None))
        with pytest.raises(DimensionMismatch, match="outputs are not scalar"):
            vector.y_scalar()

    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 3),
        rows=st.integers(1, 12),
        exponent=st.sampled_from([-170, 0, 160]),
        seed=st.integers(0, 1000),
    )
    def test_sup_tail_equals_the_pairwise_formula(self, n, m, rows, exponent, seed):
        # bit-equal to the largest sqrt(d.d) over all pairs, including where
        # d.d under- or overflows
        rng = np.random.default_rng(seed)
        t = np.arange(rows, dtype=float)
        y = rng.normal(size=(rows, n, m)) * 10.0**exponent
        tail = y[t >= t[-1] - 0.1 * t[-1] - 1e-12]
        expected = 0.0
        with np.errstate(all="ignore"):
            for i in range(n):
                for j in range(i + 1, n):
                    d = tail[:, i, :] - tail[:, j, :]
                    expected = max(expected, float(np.sqrt((d * d).sum(axis=1)).max()))
            got = sync_metrics((t, y)).pairwise_sup_tail
        assert got == expected

    @given(
        c=st.sampled_from([0.0, 15.0, 1e3, 1e6]),
        n=st.integers(2, 5),
        m=st.integers(1, 2),
        seed=st.integers(0, 1000),
    )
    def test_l2_pairwise_matches_explicit_differences(self, c, n, m, seed):
        # small gaps on a large common offset: the integral of |y_i - y_j|^2
        # must not lose the gaps to cancellation against c^2
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 100.0, 1001)
        amp = rng.uniform(1e-7, 1e-5, size=(1, n, m))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(1, n, m))
        y = c + amp * np.sin(t[:, None, None] + phase)
        got = sync_metrics((t, y)).l2_pairwise
        for i in range(n):
            for j in range(n):
                d = y[:, i, :] - y[:, j, :]
                expected = np.trapezoid((d * d).sum(axis=1), t)
                assert abs(got[i, j] - expected) <= 1e-12 * expected

    def test_l2_pairwise_of_a_small_gap_far_from_zero(self):
        t = np.linspace(0.0, 100.0, 10001)
        for c in (0.0, 15.0, 1e3):
            y = np.stack([c + 1e-6 * np.sin(t), np.full_like(t, c)], axis=1)
            d = y[:, 0] - y[:, 1]
            expected = np.trapezoid(d * d, t)
            assert abs(expected - 5.02e-11) < 0.01e-11
            assert abs(sync_metrics((t, y)).l2_pairwise[0, 1] - expected) <= 1e-12 * expected

    def test_equal_infinite_outputs_are_infinitely_apart(self):
        # inf - inf is not a number; the distance counts as inf, unwarned
        inf = np.inf
        m = sync_metrics((np.array([0.0, 1.0]), np.array([[inf, inf], [inf, inf]])))
        assert m.pairwise_sup_tail == inf
        assert m.l2_pairwise.tolist() == [[0.0, inf], [inf, 0.0]]
        assert not m.synchronized

    def test_reference_error_integral(self):
        t = np.linspace(0.0, 10.0, 1001)
        y = np.stack([np.ones_like(t)], axis=1)[:, :, None]
        m = sync_metrics((t, y), y_bar=TimeFn(0.0))
        assert abs(m.l2_reference[0] - 10.0) < 1e-12


# ---------------------------------------------------------------------------
# structural invariants of the closed loop
# ---------------------------------------------------------------------------

class TestClosedLoopInvariants:
    def test_plain_coupling_sees_only_output_differences(self):
        proto = Plain(build_digraph([[0, 1.5, 0], [0, 0, 2.0], [1.0, 0.5, 0]]))
        y = [3.0, -2.0, 7.0]
        shifted = [yi + 1000.0 for yi in y]
        assert np.array_equal(inputs_at_outputs(proto, y), inputs_at_outputs(proto, shifted))

    def test_trajectory_translation_invariance(self):
        agents = [cubic_lag(2.0, 3.0), cubic_lag(2.0, 4.0)]
        proto = Plain(build_digraph([[0, 1], [1, 0]]))
        base = SimConfig(dt=1e-3, t_final=10.0, initial_states=[[0.3, 0, 0], [-0.2, 0, 0]])
        res = simulate(agents, proto, base)
        # shift the output coordinate (the first state) of every agent by the
        # same constant; the tolerance absorbs float non-associativity of the
        # shifted accumulations, which drifts by a few ulp over 10^4 steps
        shift = 5.0
        shifted_x0 = [[0.3 + shift, 0, 0], [-0.2 + shift, 0, 0]]
        res_shifted = simulate(
            agents, proto, SimConfig(dt=1e-3, t_final=10.0, initial_states=shifted_x0)
        )
        assert np.max(np.abs((res_shifted.y - res.y) - shift)) < 1e-11
        assert np.max(np.abs(res_shifted.u - res.u)) < 1e-11

    def test_pinned_network_tracks_the_reference(self):
        agents = [cubic_lag(2.0, 3.0), cubic_lag(2.0, 4.0)]
        g = build_digraph([[0, 0.5], [0.5, 0]])
        b = (0.6, 0.0)
        alphas = [a.ifp_index() for a in agents]
        assert check_weak_coupling(g, alphas, b).passes
        ref_value = 2.5
        proto = Reference(g, b, y_bar=TimeFn(ref_value))
        res = simulate(
            agents, proto, SimConfig(dt=1e-3, t_final=150.0, record_stride=10,
                                     initial_states=[[0.4, 0, 0], [-0.6, 0, 0]])
        )
        finals = res.y_scalar()[-1]
        assert np.max(np.abs(finals - ref_value)) < 1e-3

    def test_rk4_error_shrinks_sixteenfold_per_halving(self):
        agents = [cubic_lag(2.0, 3.0), cubic_lag(2.0, 4.0)]
        proto = Plain(build_digraph([[0, 1], [1, 0]]))
        x0 = [[0.3, -0.2, 0.1], [-0.5, 0.4, 0.2]]

        def terminal(dt: float) -> np.ndarray:
            res = simulate(agents, proto, SimConfig(dt=dt, t_final=2.0, initial_states=x0))
            return np.hstack([s[-1] for s in res.states])

        ref = terminal(0.02 / 16)
        e_coarse = np.max(np.abs(terminal(0.02) - ref))
        e_fine = np.max(np.abs(terminal(0.01) - ref))
        assert 8.0 < e_coarse / e_fine < 32.0

    def test_delayed_integrator_matches_analytic_solution(self):
        delay, y0 = 0.3, 0.7
        agents = [DelayedIntegrator(delay=delay)]
        proto = Reference(
            build_digraph([[0.0]]), (0.0,), u_bar=(SIN,), y_bar=TimeFn(0.0)
        )
        res = simulate(
            agents,
            proto,
            SimConfig(dt=1e-3, t_final=10.0, initial_states=[[y0]], initial_histories=[SIN]),
        )
        t = np.asarray(res.times)
        y = np.asarray(res.y_scalar())[:, 0]
        # driving input sin(t) with the same prehistory: the integral of
        # sin(s - delay) from 0 to t plus the initial value
        exact = y0 + np.cos(delay) - np.cos(t - delay)
        assert np.max(np.abs(y - exact)) < 1e-6

    def test_heterogeneous_delayed_ring_synchronizes_when_certified(self):
        delays = [0.1, 0.2, 0.3]
        agents = [DelayedIntegrator(delay=d) for d in delays]
        a = np.zeros((3, 3))
        for i in range(3):
            a[i, (i - 1) % 3] = 0.5
            a[i, (i + 1) % 3] = 0.5
        g = build_digraph(a)
        assert check_weak_coupling(g, delays).passes
        res = simulate(
            agents,
            Plain(g),
            SimConfig(dt=0.01, t_final=60.0, record_stride=10,
                      initial_states=[[1.0], [-0.5], [0.3]]),
        )
        assert res.metrics.synchronized

    def test_record_stride_controls_sample_count(self):
        agents = [integrator(), integrator()]
        proto = Plain(build_digraph([[0, 1], [1, 0]]))
        res = simulate(
            agents, proto,
            SimConfig(dt=1e-3, t_final=2.0, record_stride=10, initial_states=[[1.0], [0.0]]),
        )
        assert res.times.shape[0] == int(2.0 / (1e-3 * 10)) + 1
