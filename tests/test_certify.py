"""Weak-coupling certificates, platoon gain conditions, the all-to-all
Hurwitz bound, and the diffusive power identities on random networks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifpsync.certify as certify
import ifpsync.graphnet as graphnet
from conftest import random_strongly_connected_adjacency
from ifpsync import (
    BadDimensions,
    CaccGainSet,
    CertificateFailed,
    NotStronglyConnected,
    all_to_all_bound,
    build_digraph,
    check_platoon_gains,
    check_weak_coupling,
    diffusive_power_identity,
    dissipation_margin,
    perron_weights,
)


def all_to_all(n: int, kappa: float) -> np.ndarray:
    return kappa * (np.ones((n, n)) - np.eye(n))


# ---------------------------------------------------------------------------
# check_weak_coupling
# ---------------------------------------------------------------------------

class TestWeakCoupling:
    def test_pair_within_margin(self):
        v = check_weak_coupling(build_digraph([[0, 1], [1, 0]]), [0.2, 0.2])
        assert v.passes
        assert np.allclose(v.slack, [0.3, 0.3], atol=1e-15)
        assert np.allclose(v.kappa, [0.15, 0.15], atol=1e-15)

    def test_pair_coupling_too_strong(self):
        v = check_weak_coupling(build_digraph([[0, 3], [3, 0]]), [0.2, 0.2])
        assert not v.passes
        assert "coupling_too_strong" in v.reasons
        assert v.offending == (0, 1)

    def test_all_to_all_with_large_deficit(self):
        # per-node degree 2*0.2 = 0.4; deficit 4/3 gives 4/3*0.4 = 8/15 > 1/2
        v = check_weak_coupling(build_digraph(all_to_all(3, 0.2)), [4 / 3] * 3)
        assert not v.passes
        assert np.allclose(v.slack, 0.5 - 8 / 15, atol=1e-15)

    def test_verdict_does_not_depend_on_the_time_unit(self):
        # weights in 1/s and deficits in s: a tiny weight is still an arc
        a = np.array([[0, 1e-16], [1e-16, 0]])
        alpha = np.array([1e15, 1e15])
        small = check_weak_coupling(build_digraph(a), alpha)
        scaled = check_weak_coupling(build_digraph(a * 1e16), alpha / 1e16)
        assert small.passes and scaled.passes
        assert small.reasons == scaled.reasons == ()
        assert np.array_equal(small.kappa, scaled.kappa)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_deficit_rejected(self, bad):
        with pytest.raises(BadDimensions):
            check_weak_coupling(build_digraph([[0, 1], [1, 0]]), [bad, 0.1])

    def test_not_strongly_connected_fails_even_with_zero_deficit(self):
        v = check_weak_coupling(build_digraph([[0, 1], [0, 0]]), [0.0, 0.0])
        assert not v.passes
        assert "not_strongly_connected" in v.reasons

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    def test_passive_agents_pass_on_any_strongly_connected_graph(self, seed, n):
        rng = np.random.default_rng(seed)
        g = build_digraph(random_strongly_connected_adjacency(rng, n))
        v = check_weak_coupling(g, [0.0] * n)
        assert v.passes
        assert np.allclose(v.slack, 0.5, atol=0)
        assert np.min(v.kappa) > 0


# ---------------------------------------------------------------------------
# check_weak_coupling with pinning gains
# ---------------------------------------------------------------------------

class TestWeakCouplingPinned:
    def test_pinned_pair_passes(self):
        g = build_digraph([[0, 1], [1, 0]])
        v = check_weak_coupling(g, [0.1, 0.1], [1.0, 0.0])
        assert v.passes
        assert np.allclose(v.slack, [0.2, 0.4], atol=1e-15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_pinning_gain_rejected(self, bad):
        g = build_digraph([[0, 1], [1, 0]])
        with pytest.raises(BadDimensions):
            check_weak_coupling(g, [0.1, 0.1], [bad, 0.1])

    def test_no_pinned_agent_rejected(self):
        g = build_digraph([[0, 1], [1, 0]])
        v = check_weak_coupling(g, [0.1, 0.1], [0.0, 0.0])
        assert not v.passes
        assert "no_pinned_agent" in v.reasons

    def test_pinning_gain_tightens_the_bound(self):
        g = build_digraph([[0, 1], [1, 0]])
        v = check_weak_coupling(g, [0.2, 0.2], [1.0, 0.0])
        assert not v.passes
        assert v.offending == (0,)
        assert np.allclose(v.slack, [0.5 - 0.6, 0.3], atol=1e-15)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    def test_reduces_to_unpinned_verdict_at_zero_gain(self, seed, n):
        rng = np.random.default_rng(seed)
        g = build_digraph(random_strongly_connected_adjacency(rng, n))
        alphas = rng.uniform(0.0, 0.6, n)
        plain = check_weak_coupling(g, alphas)
        pinned = check_weak_coupling(g, alphas, np.zeros(n))
        assert np.allclose(plain.slack, pinned.slack, atol=0)
        assert not pinned.passes  # zero pinning gain can never certify
        assert "no_pinned_agent" in pinned.reasons


# ---------------------------------------------------------------------------
# check_platoon_gains
# ---------------------------------------------------------------------------

class TestPlatoonGains:
    def test_reference_gain_set_passes(self):
        gains = CaccGainSet(
            mu=[2.0, 2.0, 2.0], eta=[0.4, 0.5, 1.0], nu=[0.5, 0.5], tau=[0.1, 0.1, 0.1]
        )
        v = check_platoon_gains(gains)
        assert v.passes
        assert v.per_vehicle == (True, True, True)

    def test_slow_powertrain_rejected(self):
        gains = CaccGainSet(mu=[1.0, 1.0], eta=[0.1, 0.1], nu=[0.1], tau=[0.6, 0.1])
        v = check_platoon_gains(gains)
        assert not v.passes
        assert v.per_vehicle[0] is False

    def test_lead_vehicle_spacing_gains_too_large(self):
        gains = CaccGainSet(mu=[2.0, 2.0], eta=[1.0, 0.1], nu=[0.5], tau=[0.1, 0.1])
        v = check_platoon_gains(gains)
        assert not v.passes
        assert v.per_vehicle == (False, True)

    @pytest.mark.parametrize("field", ["mu", "eta", "nu", "tau"])
    def test_non_finite_gain_rejected(self, field):
        gains = {"mu": [2.0, 2.0], "eta": [0.1, 0.1], "nu": [0.1], "tau": [0.1, 0.1]}
        gains[field][0] = float("nan")
        with pytest.raises(BadDimensions):
            CaccGainSet(**gains)

    def test_follower_gain_vector_length_checked(self):
        with pytest.raises(BadDimensions):
            CaccGainSet(mu=[2.0, 2.0], eta=[0.4, 0.5], nu=[0.5, 0.5], tau=[0.1, 0.1])

    def test_network_is_the_pinned_bidirectional_chain(self):
        g, b = CaccGainSet(
            mu=[2.0, 2.0, 2.0], eta=[0.4, 0.5, 1.0], nu=[0.5, 0.7], tau=[0.1, 0.1, 0.1]
        ).network()
        a = np.zeros((3, 3))
        a[g.heads, g.tails] = g.weights
        np.testing.assert_array_equal(a, [[0.0, 0.5, 0.0], [0.5, 0.0, 0.7], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(b, [0.4, 0.0, 0.0])

    @settings(max_examples=400)
    @given(data=st.data())
    def test_per_vehicle_matches_the_closed_form(self, data):
        n = data.draw(st.integers(2, 12))
        gain = st.floats(1e-3, 1e3)
        eta = data.draw(st.lists(gain, min_size=n, max_size=n))
        nu = data.draw(st.lists(gain, min_size=n - 1, max_size=n - 1))
        coupling = closed_form_couplings(eta, nu)
        mu, tau = [], []
        for c in coupling:
            # mu free, or within a few ulps of the boundary mu^2/2 = coupling
            m = data.draw(gain) if data.draw(st.booleans()) else ulps_from(
                math.sqrt(2.0 * c), data.draw(st.integers(-4, 4)))
            # tau free, or within a few ulps of the boundary mu*tau = 1/2
            t = data.draw(st.floats(1e-3, 2.0)) if data.draw(st.booleans()) else ulps_from(
                0.5 / m, data.draw(st.integers(-4, 4)))
            mu.append(m)
            tau.append(t)
        expected = tuple(m * t < 0.5 and 0.5 * m * m > c for m, t, c in zip(mu, tau, coupling))
        v = check_platoon_gains(CaccGainSet(mu=mu, eta=eta, nu=nu, tau=tau))
        assert v.per_vehicle == expected
        assert v.passes == all(expected)


def closed_form_couplings(eta, nu) -> list[float]:
    """The coupling each vehicle of a CACC chain carries, written out: 2*eta
    + nu for the lead vehicle, which is also pinned to the leader with gain
    eta, eta + nu in the middle, eta for the last vehicle."""
    n = len(eta)
    return ([2.0 * eta[0] + nu[0]] + [eta[i] + nu[i] for i in range(1, n - 1)]
            + [eta[n - 1]])


def ulps_from(x: float, k: int) -> float:
    """x moved k floating-point steps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


# ---------------------------------------------------------------------------
# all_to_all_bound
# ---------------------------------------------------------------------------

class TestAllToAllBound:
    def test_below_published_threshold(self):
        assert all_to_all_bound(1.0, 1.0, 3, 0.4) is True

    def test_above_published_threshold(self):
        assert all_to_all_bound(1.0, 1.0, 3, 0.6) is False

    def test_boundary_arithmetic(self):
        assert all_to_all_bound(2.0, 3.0, 2, 5.9) is True

    @given(
        p=st.floats(0.2, 4.0),
        q=st.floats(0.2, 4.0),
        n=st.integers(2, 8),
        kappa=st.floats(0.01, 5.0),
        dk=st.floats(0.0, 3.0),
        dn=st.integers(0, 4),
    )
    def test_failure_is_monotone_in_coupling_and_size(self, p, q, n, kappa, dk, dn):
        if not all_to_all_bound(p, q, n, kappa):
            assert not all_to_all_bound(p, q, n + dn, kappa + dk)


# ---------------------------------------------------------------------------
# diffusive_power_identity
# ---------------------------------------------------------------------------

class TestPowerIdentity:
    def test_hand_computed_pair(self):
        g = build_digraph([[0, 1], [1, 0]])
        y = [np.array([1.0]), np.array([0.0])]
        # both sides equal -1/2 here: weights (1/2, 1/2), u = (-1, 1)
        p = perron_weights(g)
        u = [y[1] - y[0], y[0] - y[1]]
        lhs = sum(p[i] * float(y[i] @ u[i]) for i in range(2))
        assert np.isclose(lhs, -0.5, atol=1e-15)
        assert diffusive_power_identity(g, y) < 1e-15
        # a flat list is one scalar output per node, and each node needs one
        assert diffusive_power_identity(g, [1.0, 0.0]) == diffusive_power_identity(g, y)
        with pytest.raises(BadDimensions):
            diffusive_power_identity(g, [1.0])

    def test_consensus_point(self):
        g = build_digraph([[0, 2, 1], [1, 0, 1], [2, 1, 0]])
        y = [np.array([3.7])] * 3
        assert diffusive_power_identity(g, y) == 0.0

    def test_requires_strong_connectivity(self):
        with pytest.raises(NotStronglyConnected):
            diffusive_power_identity(build_digraph([[0, 1], [0, 0]]), [np.ones(1)] * 2)

    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 4))
            g = build_digraph(random_strongly_connected_adjacency(rng, n))
            y = [rng.normal(size=m) for _ in range(n)]
            assert diffusive_power_identity(g, y) < 1e-10

    @given(seed=st.integers(0, 10_000), shift=st.floats(-100.0, 100.0))
    def test_invariant_under_uniform_output_translation(self, seed, shift):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        g = build_digraph(random_strongly_connected_adjacency(rng, n))
        y = [rng.normal(size=2) for _ in range(n)]
        shifted = [yi + shift for yi in y]
        assert diffusive_power_identity(g, shifted) < 1e-10 * max(1.0, abs(shift))


# ---------------------------------------------------------------------------
# dissipation_margin
# ---------------------------------------------------------------------------

class TestDissipationMargin:
    def test_zero_at_consensus(self):
        g = build_digraph([[0, 1], [1, 0]])
        assert dissipation_margin(g, [0.2, 0.2], [np.ones(1)] * 2) == 0.0

    def test_tight_for_symmetric_pair(self):
        g = build_digraph([[0, 1], [1, 0]])
        m = dissipation_margin(g, [0.2, 0.2], [np.array([1.0]), np.array([0.0])])
        assert abs(m) < 1e-15

    def test_rejects_uncertified_instances(self):
        g = build_digraph([[0, 3], [3, 0]])
        with pytest.raises(CertificateFailed):
            dissipation_margin(g, [0.2, 0.2], [np.ones(1)] * 2)

    def test_runs_connectivity_and_perron_solve_once(self, monkeypatch):
        # wrapped where certify calls them and where graphnet.perron_weights does
        calls = {"connectivity": 0, "_perron_vector": 0}
        for name in calls:
            def counted(*args, _real=getattr(graphnet, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(certify, name, counted)
            monkeypatch.setattr(graphnet, name, counted)
        g = build_digraph([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        dissipation_margin(g, [0.2, 0.2, 0.2], [np.array([1.0]), np.zeros(1), -np.ones(1)])
        assert calls == {"connectivity": 1, "_perron_vector": 1}

    def test_non_negative_on_certified_random_instances(self):
        rng = np.random.default_rng(13)
        count = 0
        while count < 200:
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 4))
            a = random_strongly_connected_adjacency(rng, n)
            g = build_digraph(a)
            d_plus = a.sum(axis=1)
            alphas = rng.uniform(0.1, 0.9, n) * 0.5 / d_plus
            y = [rng.normal(size=m) for _ in range(n)]
            scale = max(1.0, max(float(np.max(np.abs(v))) for v in y))
            assert dissipation_margin(g, alphas, y) >= -1e-10 * scale
            count += 1
