"""Prebuilt experiments: delayed traffic flows, vehicle platoons, and the
two counterexample constructions (mismatched oscillators, all-to-all cubic
agents), plus the JSON scenario loader."""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifpsync
from ifpsync import (
    BadDimensions,
    CaccGainSet,
    DelayedIntegrator,
    MuTauViolation,
    PlatoonSpec,
    SimConfig,
    TrafficSpec,
    Vehicle3rd,
    all_to_all_counterexample,
    build_platoon,
    build_traffic,
    check_weak_coupling,
    connectivity,
    harmonic_counterexample,
    run_platoon,
    run_platoon_transformed,
    run_scenarios,
    run_traffic,
    scenario_from_dict,
)
from test_certify import ulps_from

TINY_SIM = SimConfig(dt=0.01, t_final=1.0, record_stride=10, tol=0.1)


def reference_gains() -> CaccGainSet:
    return CaccGainSet(
        mu=[2.0, 2.0, 2.0], eta=[0.4, 0.5, 1.0], nu=[0.5, 0.5], tau=[0.1, 0.1, 0.1]
    )


def platoon_spec(perturbed: bool, v0: float = 0.5) -> PlatoonSpec:
    dq = 2.0 if perturbed else 0.0
    return PlatoonSpec(
        gains=reference_gains(),
        s=[20.0, 20.0, 20.0],
        v0=v0,
        q_init=[-20.0 - dq, -40.0 - dq, -60.0 - dq],
        v_init=[v0, v0, v0],
        a_init=[0.0, 0.0, 0.0],
    )


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------

class TestBuildTraffic:
    def test_chain_certificate_passes_below_the_delay_bound(self):
        spec = TrafficSpec.classic_chain(2, 1.0, [0.4, 0.4], [0.3, -0.2], 1.0)
        _, _, cert = build_traffic(spec)
        assert cert.chain_bound is True
        assert cert.passes

    def test_chain_certificate_fails_above_the_delay_bound(self):
        spec = TrafficSpec.classic_chain(2, 1.0, [0.6, 0.6], [0.3, -0.2], 1.0)
        _, _, cert = build_traffic(spec)
        assert cert.chain_bound is False
        assert not cert.passes

    def test_bidirectional_ring_certificate(self):
        spec = TrafficSpec.bidirectional_ring(5, 0.3, [0.5] * 5, [10.0] * 5)
        _, _, cert = build_traffic(spec)
        # per-driver sensitivity sums to 0.6; delay 0.5 gives 0.3 < 1/2
        assert cert.weak_coupling.passes
        assert np.allclose(cert.weak_coupling.slack, 0.2, atol=1e-15)

    def test_chain_augments_the_graph_with_a_leader_node(self):
        spec = TrafficSpec.classic_chain(2, 1.0, [0.4, 0.4], [0.3, -0.2], 1.0)
        agents, protocol, _ = build_traffic(spec)
        assert len(agents) == 3  # leader + two drivers
        assert isinstance(agents[0], DelayedIntegrator)
        assert agents[0].input_delay == 0.0
        # the first driver follows the leader: the arc 0 -> 1 of weight 1
        assert (0, 1, 1.0) in zip(*(v.tolist() for v in protocol.g.arcs))

    def test_negative_delay_rejected(self):
        with pytest.raises(BadDimensions):
            TrafficSpec.bidirectional_ring(3, 0.3, [-0.1, 0.2, 0.2], [1.0, 2.0, 3.0])

    @settings(max_examples=300)
    @given(data=st.data())
    def test_chain_bound_is_the_per_node_test_on_the_rooted_graph(self, data):
        n = data.draw(st.integers(1, 12))
        K = data.draw(st.floats(1e-2, 1e2))
        weight = st.floats(1e-2, 1e2) | st.just(0.0)
        if data.draw(st.booleans()):  # the preset's chain, or another follower graph
            a = np.diag(np.full(n - 1, K), -1)
        else:
            a = np.array(data.draw(st.lists(st.lists(weight, min_size=n, max_size=n),
                                            min_size=n, max_size=n)))
            np.fill_diagonal(a, 0.0)
        d_plus = a.sum(axis=1)
        d_plus[0] += K
        # each delay free, or within a few ulps of the bound 2*delay*d_plus = 1
        delays = [data.draw(st.floats(0.0, 1.0)) if d == 0.0 or data.draw(st.booleans())
                  else ulps_from(0.5 / d, data.draw(st.integers(-4, 4))) for d in d_plus]
        spec = TrafficSpec(n, a, delays, "classic_chain", np.zeros(n), v0=1.0, leader_gain=K)
        _, protocol, cert = build_traffic(spec)
        assert cert.chain_bound == (not check_weak_coupling(protocol.g, [0.0, *delays]).offending)

    @pytest.mark.parametrize("preset", ["unidirectional_ring", "bidirectional_ring"])
    def test_ring_of_one_vehicle_rejected(self, preset):
        with pytest.raises(BadDimensions, match=f"^{preset} needs n >= 2 vehicles, got 1$"):
            getattr(TrafficSpec, preset)(1, 0.3, [0.2], [1.0])


class TestRunTraffic:
    def test_certified_ring_synchronizes_within_the_initial_span(self):
        spec = TrafficSpec.bidirectional_ring(
            5, 0.3, [0.5] * 5, [10.0, 12.5, 15.0, 17.5, 20.0]
        )
        run = run_traffic(spec, SimConfig(dt=2e-3, t_final=80.0, record_stride=10))
        assert run.certificate.passes
        assert run.sim.metrics.synchronized
        final = run.sim.y_scalar()[-1]
        assert 10.0 <= final[0] <= 20.0
        assert np.max(np.abs(final - final[0])) < 1e-6

    def test_certified_chain_converges_to_the_leader_speed(self):
        spec = TrafficSpec.classic_chain(2, 1.0, [0.4, 0.4], [0.3, -0.2], 1.0)
        run = run_traffic(spec, SimConfig(dt=2e-3, t_final=60.0, record_stride=10))
        assert run.certificate.passes
        assert run.sim.metrics.synchronized
        assert np.allclose(run.sim.y_scalar()[-1], 1.0, atol=1e-6)

    def test_chain_still_converges_just_above_the_certificate_bound(self):
        # The 2*delay*K < 1 certificate is sufficient only: at delay 0.6 the
        # certificate fails, yet the pure-delay feedback loop only loses
        # stability at delay*K = pi/2, so velocities still synchronize.
        spec = TrafficSpec.classic_chain(2, 1.0, [0.6, 0.6], [0.3, -0.2], 1.0)
        run = run_traffic(spec, SimConfig(dt=2e-3, t_final=60.0, record_stride=10))
        assert not run.certificate.passes
        assert run.sim.metrics.synchronized
        assert run.sim.metrics.pairwise_sup_tail < 1e-3

    def test_zero_delays_always_synchronize(self):
        spec = TrafficSpec.unidirectional_ring(4, 1.0, [0.0] * 4, [3.0, -1.0, 2.0, 0.5])
        run = run_traffic(spec, SimConfig(dt=2e-3, t_final=40.0, record_stride=10))
        assert run.certificate.passes
        assert run.sim.metrics.synchronized

    def test_report_dictionary_carries_final_velocities(self):
        spec = TrafficSpec.classic_chain(2, 1.0, [0.4, 0.4], [0.3, -0.2], 1.0)
        run = run_traffic(spec, SimConfig(dt=0.01, t_final=5.0, record_stride=10))
        d = run.to_json_dict()
        assert d["scenario_type"] == "traffic"
        assert len(d["final_velocities"]) == 3  # leader + followers
        assert "certificate" in d and "pairwise_sup_tail" in d


# ---------------------------------------------------------------------------
# platoon
# ---------------------------------------------------------------------------

class TestBuildPlatoon:
    def test_reference_instance_passes_both_certificates(self):
        agents, protocol, cert = build_platoon(platoon_spec(perturbed=False))
        assert cert.pinned.passes
        assert cert.gains.passes
        assert all(isinstance(a, Vehicle3rd) for a in agents)
        # lead vehicle: deficit 1/4, degree nu_1 = 0.5, pinning gain eta_1 = 0.4
        assert np.isclose(cert.pinned.slack[0], 0.5 - 0.25 * (0.5 + 0.8), atol=1e-15)

    def test_spacing_graph_is_strongly_connected(self):
        _, protocol, _ = build_platoon(platoon_spec(perturbed=False))
        assert connectivity(protocol.g)

    def test_only_the_lead_vehicle_is_pinned(self):
        _, protocol, _ = build_platoon(platoon_spec(perturbed=False))
        assert np.allclose(protocol.b, [0.4, 0.0, 0.0], atol=0)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_both_coordinates_run_on_the_gain_sets_graph(self, n):
        rng = np.random.default_rng(n)
        gains = CaccGainSet(mu=[2.0] * n, eta=rng.uniform(0.1, 1.0, n),
                            nu=rng.uniform(0.1, 1.0, n - 1), tau=[0.1] * n)
        spec = PlatoonSpec(gains=gains, s=[20.0] * n, v0=0.5, q_init=-20.0 * np.arange(1, n + 1),
                           v_init=[0.5] * n, a_init=[0.0] * n)
        g, b = gains.network()
        shifted = build_platoon(spec)[1]
        physical = ifpsync.scenarios._platoon_job(spec, TINY_SIM).member[1]
        for protocol in (shifted, physical):
            for got, want in zip(protocol.g.arcs, g.arcs):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(protocol.b, b)

    def test_slow_powertrain_invalidates_the_deficit_formula(self):
        gains = CaccGainSet(mu=[2.0, 2.0], eta=[0.4, 0.5], nu=[0.5], tau=[0.3, 0.1])
        spec = PlatoonSpec(
            gains=gains, s=[20.0, 20.0], v0=0.5,
            q_init=[-20.0, -40.0], v_init=[0.5, 0.5], a_init=[0.0, 0.0],
        )
        with pytest.raises(MuTauViolation):
            build_platoon(spec)


class TestRunPlatoon:
    def test_goal_state_is_an_equilibrium(self):
        run = run_platoon(platoon_spec(perturbed=False),
                          SimConfig(dt=2e-3, t_final=10.0, record_stride=10))
        assert np.max(np.abs(run.spacing_errors)) < 1e-9
        assert np.max(np.abs(run.velocity_errors)) < 1e-9

    def test_perturbed_gap_error_decays(self):
        run = run_platoon(platoon_spec(perturbed=True),
                          SimConfig(dt=2e-3, t_final=60.0, record_stride=10))
        assert np.allclose(run.spacing_errors[0], [2.0, 0.0, 0.0], atol=1e-12)
        assert np.max(np.abs(run.spacing_errors[-1])) < 0.05
        assert np.max(np.abs(run.spacing_errors[-1])) < np.max(np.abs(run.spacing_errors[0])) / 40

    def test_physical_and_gap_shifted_simulations_agree(self):
        spec = platoon_spec(perturbed=True)
        cfg = SimConfig(dt=2e-3, t_final=20.0, record_stride=10)
        phys = run_platoon(spec, cfg)
        shifted = run_platoon_transformed(spec, cfg)
        offsets = spec.goal_offsets()
        assert np.max(np.abs(
            (phys.sim.y_scalar() + offsets[None, :]) - shifted.y_scalar()
        )) < 1e-9

    def test_one_metrics_set_of_the_gap_shifted_outputs(self, monkeypatch):
        import ifpsync.netsim as netsim
        import ifpsync.scenarios as scenarios

        spec = platoon_spec(perturbed=True)
        calls = []
        real = netsim.sync_metrics
        counting = lambda *a, **k: calls.append(a) or real(*a, **k)  # noqa: E731
        monkeypatch.setattr(netsim, "sync_metrics", counting)
        monkeypatch.setattr(scenarios, "sync_metrics", counting, raising=False)
        run = run_platoon(spec, TINY_SIM)
        assert len(calls) == 1
        expected = real((run.sim.times, run.sim.y_scalar() + spec.goal_offsets()[None, :]),
                        y_bar=spec.leader, tol=TINY_SIM.tol)
        assert run.sim.metrics.to_json_dict() == expected.to_json_dict()

    def test_report_dictionary_carries_terminal_errors(self):
        run = run_platoon(platoon_spec(perturbed=False),
                          SimConfig(dt=0.01, t_final=2.0, record_stride=10))
        d = run.to_json_dict()
        assert d["scenario_type"] == "platoon"
        assert d["terminal_abs_spacing_error"] < 1e-9
        assert d["terminal_abs_velocity_error"] < 1e-9


# ---------------------------------------------------------------------------
# harmonic-oscillator counterexample
# ---------------------------------------------------------------------------

class TestHarmonicCounterexample:
    def test_analytic_amplitude_ratio(self):
        run = harmonic_counterexample(1.0, 2.0, 1.0, TINY_SIM)
        assert abs(run.amplitude_ratio - 2.0 / np.sqrt(13.0)) < 1e-9

    def test_simulated_ratio_matches_the_analytic_value(self):
        run = harmonic_counterexample(1.0, 2.0, 1.0)
        assert abs(run.observed_ratio - run.amplitude_ratio) < 0.02 * run.amplitude_ratio
        assert not run.sim.metrics.synchronized

    @pytest.mark.parametrize(
        "omega1,omega2,k",
        [(1.0, 2.0, 1.0), (2.0, 1.0, 0.5), (0.5, 3.0, 2.0), (1.0, 1.1, 4.0), (3.0, 0.2, 0.1)],
    )
    def test_amplitude_ratio_below_one(self, omega1, omega2, k):
        run = harmonic_counterexample(omega1, omega2, k, TINY_SIM)
        assert run.amplitude_ratio < 1.0

    def test_equal_frequencies_rejected(self):
        with pytest.raises(BadDimensions):
            harmonic_counterexample(1.0, 1.0, 1.0, TINY_SIM)

    def test_non_positive_coupling_rejected(self):
        with pytest.raises(BadDimensions):
            harmonic_counterexample(1.0, 2.0, 0.0, TINY_SIM)


# ---------------------------------------------------------------------------
# all-to-all counterexample
# ---------------------------------------------------------------------------

class TestAllToAllCounterexample:
    def test_agreement_well_below_the_threshold(self):
        run = all_to_all_counterexample(1.0, 1.0, 3, 0.2)
        assert run.predicted and run.observed and run.agree
        assert run.note is None

    def test_agreement_above_the_threshold(self):
        run = all_to_all_counterexample(1.0, 1.0, 3, 0.6)
        assert not run.predicted and not run.observed and run.agree

    def test_two_agent_instance_agrees(self):
        run = all_to_all_counterexample(2.0, 3.0, 2, 1.0)
        assert run.predicted and run.observed and run.agree

    def test_disagreement_band_between_the_two_eigenvalue_scalings(self):
        # With n agents all-to-all at gain kappa, the graph Laplacian
        # eigenvalue acting on every disagreement mode is kappa*n, so the
        # published kappa*(n-1) < p*q test is optimistic for
        # p*q/n < kappa < p*q/(n-1): predicted True, observed False.
        run = all_to_all_counterexample(1.0, 1.0, 3, 0.4)
        assert run.predicted is True
        assert run.observed is False
        assert not run.agree
        assert run.note is not None

    def test_report_dictionary_carries_the_verdict_pair(self):
        run = all_to_all_counterexample(1.0, 1.0, 3, 0.2,
                                        SimConfig(dt=5e-3, t_final=50.0, record_stride=20))
        d = run.to_json_dict()
        assert d["scenario_type"] == "remark1"
        assert d["predicted"] is True
        assert "observed" in d and "agree" in d


# ---------------------------------------------------------------------------
# JSON scenario loading
# ---------------------------------------------------------------------------

class TestScenarioFromDict:
    def test_traffic_chain_round_trip(self):
        kind, spec, cfg = scenario_from_dict({
            "scenario_type": "traffic",
            "topology_preset": "classic_chain",
            "n": 2, "K": 1.0, "delays": 0.4,
            "v_init": [0.3, -0.2], "v0": 1.0,
            "sim": {"dt": 0.002, "t_final": 30.0, "record_stride": 5},
        })
        assert kind == "traffic"
        assert isinstance(spec, TrafficSpec)
        assert spec.leader_gain == 1.0
        assert cfg.dt == 0.002 and cfg.t_final == 30.0 and cfg.record_stride == 5

    def test_unidirectional_ring_round_trip(self):
        kind, spec, _ = scenario_from_dict({
            "scenario_type": "traffic", "topology_preset": "unidirectional_ring",
            "n": 3, "K": 0.5, "delays": 0.1, "v_init": [1.0, 2.0, 3.0],
        })
        assert spec.topology_preset == "unidirectional_ring"
        expected = [[0.0, 0.0, 0.5], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]
        assert np.array_equal(spec.adjacency, expected)
        assert np.array_equal(spec.delays, [0.1, 0.1, 0.1])

    def test_custom_preset_is_the_default(self):
        d = {"scenario_type": "traffic", "adjacency": [[0.0, 0.2], [0.3, 0.0]],
             "delays": [0.1, 0.2], "v_init": [1.0, 2.0]}
        for doc in (d, {**d, "topology_preset": "custom"}):
            _, spec, _ = scenario_from_dict(doc)
            assert spec.topology_preset == "custom" and spec.n == 2
            assert np.array_equal(spec.adjacency, d["adjacency"])

    def test_unknown_topology_preset_rejected(self):
        with pytest.raises(BadDimensions, match="unknown topology preset 'star'"):
            scenario_from_dict({
                "scenario_type": "traffic", "topology_preset": "star",
                "n": 2, "K": 1.0, "delays": 0.1, "v_init": [0.0, 1.0],
            })

    def test_traffic_spec_checks_its_own_preset(self):
        args = (2, np.zeros((2, 2)), 0.1)
        with pytest.raises(BadDimensions, match="unknown topology preset 'star'"):
            TrafficSpec(*args, "star", [0.0, 1.0])
        with pytest.raises(BadDimensions, match="classic_chain requires a leader_gain"):
            TrafficSpec(*args, "classic_chain", [0.0, 1.0])

    def test_platoon_round_trip(self):
        kind, spec, cfg = scenario_from_dict({
            "scenario_type": "platoon",
            "gains": {"mu": [2.0, 2.0, 2.0], "eta": [0.4, 0.5, 1.0],
                      "nu": [0.5, 0.5], "tau": [0.1, 0.1, 0.1]},
            "s": [20.0, 20.0, 20.0], "v0": 0.5,
            "q_init": [-22.0, -42.0, -62.0],
            "v_init": [0.5, 0.5, 0.5], "a_init": [0.0, 0.0, 0.0],
        })
        assert kind == "platoon"
        assert isinstance(spec, PlatoonSpec)
        assert cfg.dt == 2e-3  # scenario default

    def test_remark1_round_trip(self):
        kind, spec, cfg = scenario_from_dict({
            "scenario_type": "remark1", "p": 1.0, "q": 1.0,
            "n_agents": 3, "kappa": 0.2,
        })
        assert kind == "remark1"
        assert spec == {"p": 1.0, "q": 1.0, "n_agents": 3, "kappa": 0.2}

    def test_harmonic_round_trip_and_dispatch(self):
        kind, spec, cfg = scenario_from_dict({
            "scenario_type": "harmonic", "omega1": 1.0, "omega2": 2.0, "k": 1.0,
            "sim": {"dt": 0.01, "t_final": 1.0, "record_stride": 10, "tol": 0.1},
        })
        (run,) = run_scenarios([(kind, spec, cfg)])
        assert abs(run.amplitude_ratio - 2.0 / np.sqrt(13.0)) < 1e-9

    def test_missing_discriminator_rejected(self):
        with pytest.raises(BadDimensions):
            scenario_from_dict({"omega1": 1.0})

    def test_unknown_discriminator_rejected(self):
        with pytest.raises(BadDimensions):
            scenario_from_dict({"scenario_type": "pendulum"})


# ---------------------------------------------------------------------------
# run_scenarios
# ---------------------------------------------------------------------------

def assert_same_run(got, own) -> None:
    """The two run objects are equal, their simulations bit for bit."""
    assert type(got) is type(own)
    assert got.to_json_dict() == own.to_json_dict()
    assert got.sim.metrics.to_json_dict() == own.sim.metrics.to_json_dict()
    assert (got.sim.diverged, got.sim.t_diverged) == (own.sim.diverged, own.sim.t_diverged)
    pairs = [(got.sim.times, own.sim.times), (got.sim.y, own.sim.y), (got.sim.u, own.sim.u)]
    pairs += list(zip(got.sim.states, own.sim.states, strict=True))
    for a, b in pairs:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRunScenarios:
    def test_mixed_entries_equal_the_public_runners(self, monkeypatch):
        import ifpsync.netsim as netsim

        calls = []
        real = netsim._integrate
        monkeypatch.setattr(netsim, "_integrate", lambda *a: calls.append(a) or real(*a))
        chain = TrafficSpec.classic_chain(2, 1.0, [0.4, 0.4], [0.3, -0.2], 1.0)
        chain2 = TrafficSpec.classic_chain(2, 0.8, [0.4, 0.4], [-0.5, 0.1], 2.0)
        traffic_cfg = SimConfig(dt=0.01, t_final=1.0, record_stride=10)
        harmonic = {"omega1": 1.0, "omega2": 2.0, "k": 1.0}
        harmonic2 = {"omega1": 0.5, "omega2": 3.0, "k": 2.0}
        remark1 = {"p": 1.0, "q": 1.0, "n_agents": 3, "kappa": 0.2}
        # four groups: the two chains, the platoon (three 3-state agents with
        # reference offsets), remark1 (three 3-state agents without) and the
        # two harmonic entries
        entries = [
            ("traffic", chain, traffic_cfg),
            ("platoon", platoon_spec(perturbed=True), TINY_SIM),
            ("harmonic", harmonic, TINY_SIM),
            ("remark1", remark1, TINY_SIM),
            ("traffic", chain2, traffic_cfg),
            ("harmonic", harmonic2, TINY_SIM),
        ]
        own = [
            run_traffic(chain, traffic_cfg),
            run_platoon(platoon_spec(perturbed=True), TINY_SIM),
            harmonic_counterexample(**harmonic, config=TINY_SIM),
            all_to_all_counterexample(**remark1, config=TINY_SIM),
            run_traffic(chain2, traffic_cfg),
            harmonic_counterexample(**harmonic2, config=TINY_SIM),
        ]
        calls.clear()
        runs = run_scenarios(entries)
        assert len(calls) == 4
        assert len(runs) == len(entries)
        for got, ref in zip(runs, own):
            assert_same_run(got, ref)

    def test_a_bad_step_in_a_later_group_raises_before_any_integration(self, monkeypatch):
        import ifpsync.netsim as netsim

        calls = []
        real = netsim._integrate
        monkeypatch.setattr(netsim, "_integrate", lambda *a: calls.append(a) or real(*a))
        spec = TrafficSpec.classic_chain(2, 1.0, [0.4, 0.4], [0.3, -0.2], 1.0)
        good = SimConfig(dt=0.01, t_final=1.0, record_stride=10)
        bad = SimConfig(dt=0.5, t_final=2.0)  # a step above the 0.4 s delay
        with pytest.raises(BadDimensions, match="exceeds the smallest positive delay"):
            run_scenarios([("traffic", spec, good), ("traffic", spec, bad)])
        assert calls == []
        run_scenarios([("traffic", spec, good)])
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# package exports
# ---------------------------------------------------------------------------

def test_package_exports_are_the_submodule_exports():
    from ifpsync import certify, errors, graphnet, netsim, passivity, scenarios

    expected = {"__version__"}
    for mod in (graphnet, passivity, certify, netsim, scenarios):
        expected |= set(mod.__all__)
    expected |= {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.IfpSyncError)
    }
    assert len(ifpsync.__all__) == len(set(ifpsync.__all__))
    assert set(ifpsync.__all__) == expected
    for name in ifpsync.__all__:
        assert hasattr(ifpsync, name), name
