"""Frequency response, Routh-Hurwitz, passivity indices, and input shifts."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifpsync import (
    BadDimensions,
    BOutOfRange,
    DimensionMismatch,
    NotCertifiable,
    PoleOnAxis,
    Polynomial,
    RationalTF,
    ZeroPolynomial,
    eval_freq,
    ifp_index,
    ifp_indices,
    ifp_shift,
    ifp_shift_identity_check,
    prl_conditions,
    routh_hurwitz,
)


def cubic_lag(p: float, q: float) -> RationalTF:
    """1 / (lambda * (lambda^2 + p*lambda + q))"""
    return RationalTF.from_coeffs([1.0], [0.0, q, p, 1.0])


def re_w_on(tf: RationalTF, w: np.ndarray) -> np.ndarray:
    """Re W(iw) on an array of frequencies."""
    return (np.polyval(tf.num.descending(), 1j * w) / np.polyval(tf.den.descending(), 1j * w)).real


def golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of f on [lo, hi] to absolute x-tolerance tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def grid_infimum(tf: RationalTF, lo: float = 1e-9, hi: float = 1e9, points: int = 6000) -> float:
    """Dense-grid oracle for inf_w Re W(iw): a log grid over [lo, hi] rad/s,
    w = 0 when den(0) != 0, and the w -> inf limit, with every interior local
    minimum of the samples refined by golden section in log w. Every value it
    returns is a value of Re W, so it can only overestimate the infimum; a dip
    narrower than the grid spacing is missed."""
    w = np.logspace(math.log10(lo), math.log10(hi), points)
    vals = re_w_on(tf, w)
    best = float(vals.min())
    if tf.den.coeffs[0] != 0.0:
        best = min(best, tf.num.coeffs[0] / tf.den.coeffs[0])
    if tf.num.degree == tf.den.degree:
        best = min(best, tf.num.coeffs[-1] / tf.den.coeffs[-1])
    else:
        best = min(best, 0.0)

    def re_w(u: float) -> float:
        s = 1j * math.exp(u)
        return (np.polyval(tf.num.descending(), s) / np.polyval(tf.den.descending(), s)).real

    for k in np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1:
        best = min(best, golden_min(re_w, math.log(w[k - 1]), math.log(w[k + 1]), 1e-12)[1])
    return best


def random_stable_tf(rng: np.random.Generator, unit: float) -> RationalTF:
    """Degree 1-6 denominator with pole magnitudes log-uniform in
    [1e-3, 1e3] * unit and, one time in four, a simple pole at the origin;
    numerator from random zeros of either half plane and a normal gain,
    signed so that an origin pole has a positive residue. Complex pairs have
    damping ratios in [0.05, 1], so that every dip of Re W is wider than the
    oracle's grid spacing."""
    deg = int(rng.integers(1, 7))
    poles = [0.0] if rng.random() < 0.25 else []
    while len(poles) < deg:
        mag = unit * 10.0 ** rng.uniform(-3.0, 3.0)
        if deg - len(poles) >= 2 and rng.random() < 0.5:
            zeta = rng.uniform(0.05, 1.0)
            p = complex(-zeta * mag, mag * math.sqrt(1.0 - zeta * zeta))
            poles += [p, p.conjugate()]
        else:
            poles.append(-mag)
    zeros = -unit * 10.0 ** rng.uniform(-3.0, 3.0, int(rng.integers(0, deg + 1)))
    zeros *= rng.choice([-1.0, 1.0], len(zeros))
    den = np.poly(poles).real[::-1]
    num = rng.normal() * np.atleast_1d(np.poly(zeros)).real[::-1]
    if poles[0] == 0.0 and num[0] / den[1] < 0.0:
        num = -num
    return RationalTF.from_coeffs(num, den)


def cubic_lag_index(p: float, q: float) -> float:
    """Closed-form passivity deficit of cubic_lag: the real part of the
    frequency response is -p / (p^2 w^2 + (q - w^2)^2); minimizing over w
    gives 1/(p*q - p^3/4) when q > p^2/2 and p/q^2 otherwise."""
    if q > p * p / 2:
        return 1.0 / (p * q - p**3 / 4.0)
    return p / (q * q)


# ---------------------------------------------------------------------------
# eval_freq
# ---------------------------------------------------------------------------

class TestEvalFreq:
    def test_integrator_response(self):
        w = eval_freq(RationalTF.from_coeffs([1.0], [0.0, 1.0]), 1.0)
        assert abs(w - (-1j)) < 1e-15

    def test_dc_gain(self):
        w = eval_freq(RationalTF.from_coeffs([1.0], [1.0, 0.0, 1.0]), 0.0)
        assert abs(w - 1.0) < 1e-15

    def test_imaginary_pole_detected(self):
        with pytest.raises(PoleOnAxis):
            eval_freq(RationalTF.from_coeffs([1.0], [1.0, 0.0, 1.0]), 1.0)

    @pytest.mark.parametrize("den", [[0.0, 1.0], [0.0, 0.0, 1.0]], ids=["1/s", "1/s^2"])
    def test_origin_pole_detected(self, den):
        # the magnitude scale sum_k |den_k| |w|^k is 0 at w = 0 itself
        with pytest.raises(PoleOnAxis):
            eval_freq(RationalTF.from_coeffs([1.0], den), 0.0)


# ---------------------------------------------------------------------------
# routh_hurwitz
# ---------------------------------------------------------------------------

class TestRouthHurwitz:
    def test_double_real_root(self):
        assert routh_hurwitz(Polynomial((1.0, 2.0, 1.0)))

    def test_cubic_with_product_condition_violated(self):
        # lambda^3 + lambda^2 + lambda + 2: stability needs a2*a1 > a0, but 1 < 2
        assert not routh_hurwitz(Polynomial((2.0, 1.0, 1.0, 1.0)))

    def test_cubic_with_product_condition_satisfied(self):
        assert routh_hurwitz(Polynomial((0.8, 1.0, 1.0, 1.0)))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            routh_hurwitz(Polynomial((0.0, 0.0)))

    def test_no_coefficients_is_the_zero_polynomial(self):
        p = Polynomial([])
        assert p.coeffs == (0.0,) and p.is_zero and p.degree == -1
        assert Polynomial([0.0, 0.0]) == p

    def test_nonzero_constant_has_no_roots(self):
        assert routh_hurwitz(Polynomial([2.0]))

    @given(seed=st.integers(0, 100_000), deg=st.integers(1, 6))
    def test_agrees_with_companion_matrix_roots(self, seed, deg):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-2.0, 2.0, deg + 1)
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 0.5
        roots = np.roots(coeffs[::-1])
        if np.max(np.abs(roots.real)) < 1e-7 or np.min(np.abs(roots.real)) < 1e-7:
            return  # too close to the margin for the numeric oracle
        assert routh_hurwitz(Polynomial(tuple(coeffs))) == bool(np.all(roots.real < 0))


# ---------------------------------------------------------------------------
# ifp_index
# ---------------------------------------------------------------------------

class TestIfpIndex:
    def test_pure_integrator_is_passive(self):
        cert = ifp_index(RationalTF.from_coeffs([1.0], [0.0, 1.0]))
        assert cert.alpha == 0.0

    def test_cubic_lag_closed_form_value(self):
        cert = ifp_index(cubic_lag(2.0, 3.0))
        assert abs(cert.alpha - 0.25) < 1e-6 * 0.25

    def test_vehicle_dynamics_index(self):
        # 1/(tau*l^3 + l^2 + mu*l) with mu*tau < 1/2 has deficit 1/mu^2 at w -> 0
        cert = ifp_index(RationalTF.from_coeffs([1.0], [0.0, 2.0, 1.0, 0.1]))
        assert abs(cert.alpha - 0.25) < 1e-8
        assert cert.omega_star < 1e-3

    def test_unstable_pole_not_certifiable(self):
        with pytest.raises(NotCertifiable):
            ifp_index(RationalTF.from_coeffs([1.0], [-1.0, 1.0]))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 4.0])
    def test_cubic_family_matches_closed_form(self, p, q):
        expected = cubic_lag_index(p, q)
        cert = ifp_index(cubic_lag(p, q))
        assert abs(cert.alpha - expected) <= 1e-6 * expected

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (2.0, 3.0), (4.0, 0.5)])
    def test_index_scales_linearly_with_gain(self, c, p, q):
        base = ifp_index(cubic_lag(p, q)).alpha
        scaled = ifp_index(RationalTF.from_coeffs([c], [0.0, q, p, 1.0])).alpha
        assert abs(scaled - c * base) <= 1e-6 * c * base

    @pytest.mark.parametrize("k", range(-12, 13))
    def test_index_does_not_depend_on_the_time_unit(self, k):
        # 1/(s(s^2+s+1)) with s -> s/w0: alpha = 4/3 at w = w0/sqrt(2)
        w0 = 10.0**k
        cert = ifp_index(RationalTF.from_coeffs([w0**3], [0.0, w0**2, w0, 1.0]))
        assert abs(cert.alpha - 4.0 / 3.0) <= 1e-12 * 4.0 / 3.0
        assert abs(cert.omega_star - w0 / math.sqrt(2.0)) <= 1e-9 * w0
        assert cert.method == "closed_form"

    @given(seed=st.integers(0, 2**32 - 1), log_unit=st.sampled_from([0.0, -6.0, -3.5, 2.5, 6.0]))
    def test_never_above_and_matches_a_dense_grid_oracle(self, seed, log_unit):
        # the oracle's values are values of Re W, so alpha bounds them for any
        # time unit; with every pole in [1e-3, 1e3], six decades inside the
        # oracle's grid, the two must also agree
        tf = random_stable_tf(np.random.default_rng(seed), 10.0**log_unit)
        alpha = ifp_index(tf).alpha
        oracle = max(0.0, -grid_infimum(tf))
        assert alpha >= oracle - 1e-12 * max(1.0, alpha)
        if log_unit == 0.0:
            assert abs(alpha - oracle) <= 1e-9 * max(1.0, alpha)

    def test_narrow_resonance_between_grid_points_is_found(self):
        # biproper, with resonances of damping 0.006 and 0.026 near 1.8 rad/s;
        # deg R = deg Q, so an inexact cancellation of the leading terms of
        # R'Q - RQ' would move the deepest stationary point off the real line
        tf = RationalTF.from_coeffs(
            [0.2543881165176173, 1.2246469675357323, -0.2975268443704732, -0.8108145832375699,
             0.7522438271795928, 0.25344651620814146, 0.8958830707775604],
            [1063.8524926149175, 326.68760942097396, 706.9174590858747, 196.10181043907744,
             122.90440103466214, 29.348908912144317, 1.9455063092674563],
        )
        cert = ifp_index(tf)
        w = np.linspace(1.7, 2.0, 600_001)
        dense = re_w_on(tf, w)
        assert abs(cert.alpha + dense.min()) <= 1e-9 * cert.alpha
        assert abs(cert.omega_star - w[dense.argmin()]) <= 1e-6

    def test_finite_frequency_wins_a_tie_with_the_limit(self):
        # Re W(iw) = 0 for every w, including the w -> inf limit
        assert ifp_index(RationalTF.from_coeffs([1.0], [0.0, 1.0])).omega_star == 0.0
        assert ifp_index(RationalTF.from_coeffs([2.0], [3.0])).omega_star == 0.0

    @pytest.mark.parametrize("k", [-6, 0, 6])
    @pytest.mark.parametrize("poles", [[1e-8, -100.0], [1e-8 + 1j, 1e-8 - 1j, -100.0]])
    def test_slowly_unstable_pole_is_not_on_the_axis(self, k, poles):
        # the real part 1e-8 is below 1e-9 of the largest pole magnitude once
        # rescaled, but den does not vanish on the axis, so the pole is unstable
        u = 10.0**k
        tf = RationalTF.from_coeffs([u ** len(poles)], np.poly(np.multiply(poles, u)).real[::-1])
        with pytest.raises(NotCertifiable, match="positive real part"):
            ifp_index(tf)
        assert not prl_conditions(tf, 0.5).no_unstable_poles

    @pytest.mark.parametrize("k", [-6, 0, 6])
    def test_slowly_stable_pole_matches_the_grid_oracle(self, k):
        # the stable mirror of the case above keeps its Re W(0) = 1e6 peak
        u = 10.0**k
        tf = RationalTF.from_coeffs([u * u], np.poly([-1e-8 * u, -100.0 * u]).real[::-1])
        cert = ifp_index(tf)
        assert abs(cert.alpha + grid_infimum(tf, 1e-9 * u, 1e9 * u)) <= 1e-9 * cert.alpha

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(BadDimensions, match="x\\^2"):
            Polynomial([1.0, 0.0, float("nan")])


# ---------------------------------------------------------------------------
# prl_conditions
# ---------------------------------------------------------------------------

class TestPrlConditions:
    def test_integrator_all_conditions_hold(self):
        rep = prl_conditions(RationalTF.from_coeffs([1.0], [0.0, 1.0]), 0.0)
        assert rep.no_unstable_poles and rep.imaginary_poles_ok and rep.freq_condition_ok

    def test_unstable_pole_flagged(self):
        rep = prl_conditions(RationalTF.from_coeffs([1.0], [-1.0, 1.0]), 1000.0)
        assert not rep.no_unstable_poles

    def test_bandpass_is_passive(self):
        # k*l / (l^2 + k*l + w1^2) has non-negative real part everywhere
        rep = prl_conditions(RationalTF.from_coeffs([0.0, 1.0], [1.0, 1.0, 1.0]), 0.0)
        assert rep.no_unstable_poles and rep.imaginary_poles_ok and rep.freq_condition_ok

    @pytest.mark.parametrize(
        "tf",
        [
            cubic_lag(1.0, 1.0),
            cubic_lag(2.0, 3.0),
            RationalTF.from_coeffs([1.0], [0.0, 2.0, 1.0, 0.1]),
            RationalTF.from_coeffs([1.0], [0.0, 1.0]),
        ],
    )
    def test_certified_index_satisfies_frequency_condition(self, tf):
        cert = ifp_index(tf)
        assert prl_conditions(tf, cert.alpha).freq_condition_ok

    @pytest.mark.parametrize(
        "num, den, expected",
        [
            ([1.0], [0.0, 0.0, 1.0], (False, False)),  # 1/s^2: Re W -> -inf at 0
            ([1.0], [1.0, 0.0, 2.0, 0.0, 1.0], (False, True)),  # 1/(s^2+1)^2
            ([1.0], [0.0, 0.0, 0.0, 1.0], (False, True)),  # 1/s^3: Re W = 0
            ([1.0, 1.0], [0.0, 0.0, 1.0], (False, False)),  # (1+s)/s^2
            ([1.0], [-1.0, 1.0], (True, False)),  # 1/(s-1): Re W(0) = -1
            ([1.0], [1.0, 0.0, 1.0], (False, False)),  # 1/(s^2+1) = 1/(1-w^2) on the axis
            ([1.0], [1.0, 1.0, 1.0, 1.0], (False, False)),  # 1/((s^2+1)(s+1)): residue (1-i)/4
        ],
    )
    def test_repeated_and_unstable_poles(self, num, den, expected):
        rep = prl_conditions(RationalTF.from_coeffs(num, den), 0.5)
        assert (rep.imaginary_poles_ok, rep.freq_condition_ok) == expected


# ---------------------------------------------------------------------------
# residue sign at imaginary-axis poles
# ---------------------------------------------------------------------------

RESIDUE_CASES = [
    ([-0.5, 1.0], [0.0, 1.0, 1.0], False),  # (s - 0.5)/(s(s+1)): origin residue -0.5
    ([0.5, 1.0], [0.0, 1.0, 1.0], True),  # (s + 0.5)/(s(s+1)): origin residue 0.5
    ([0.0, 1.0], [1.0, 0.0, 1.0], True),  # s/(s^2+1): residue 1/2 at +-i
    ([1.0], [1.0, 1.0, 1.0, 1.0], False),  # 1/((s^2+1)(s+1)): residue (1-i)/4 at i
    ([0.0, 1.0], [0.0, 2.0, 1.0], True),  # s/(s(s+2)): cancelled origin pole, residue 0
]


class TestResidueSign:
    @pytest.mark.parametrize("k", range(-12, 13))
    @pytest.mark.parametrize("num, den, certifiable", RESIDUE_CASES)
    def test_verdict_does_not_depend_on_a_gain(self, num, den, certifiable, k):
        tf = RationalTF.from_coeffs([10.0**k * c for c in num], den)
        rep = prl_conditions(tf, 0.5)
        assert rep.imaginary_poles_ok == certifiable
        if certifiable:
            assert ifp_index(tf).alpha >= 0.0
        else:
            with pytest.raises(NotCertifiable):
                ifp_index(tf)

    def test_small_negative_residue_refused(self):
        # origin residue -5e-7: small against W's scale, but not rounding
        with pytest.raises(NotCertifiable):
            ifp_index(RationalTF.from_coeffs([-5e-7, 1.0], [0.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# ifp_indices: the batch behind ifp_index
# ---------------------------------------------------------------------------

POLE_KINDS = ("stable", "pair", "origin", "axis_pair", "double_axis_pair", "double", "unstable")


@st.composite
def mixed_tf(draw) -> RationalTF:
    """Degree 1-6 denominator from poles of every kind the analysis branches
    on (stable, complex pair, origin, +-i w0, repeated +-i w0, repeated real,
    unstable); numerator of any degree up to the denominator's (biproper)."""
    deg = draw(st.integers(1, 6))
    poles: list = []
    while len(poles) < deg:
        kind = draw(st.sampled_from(POLE_KINDS))
        a, b = draw(st.floats(0.05, 20.0)), draw(st.floats(0.05, 20.0))
        room = deg - len(poles)
        if kind == "origin":
            poles.append(0.0)
        elif kind == "unstable":
            poles.append(a)
        elif kind == "stable" or room < 2:
            poles.append(-a)
        elif kind == "pair":
            poles += [complex(-a, b), complex(-a, -b)]
        elif kind == "double":
            poles += [-a, -a]
        else:
            poles += [1j * b, -1j * b] * (2 if kind == "double_axis_pair" and room >= 4 else 1)
    n_num = draw(st.integers(1, deg + 1))
    num = draw(st.lists(st.floats(-3.0, 3.0), min_size=n_num, max_size=n_num))
    num[-1] = num[-1] or 1.0
    return RationalTF.from_coeffs(num, np.poly(poles).real[::-1])


def certificate_bits(result) -> tuple:
    if isinstance(result, (NotCertifiable, BadDimensions)):
        return (type(result).__name__, str(result))
    return (result.alpha.hex(), result.omega_star.hex(), result.raw_infimum.hex(), result.method)


class TestIfpIndices:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(mixed_tf(), min_size=2, max_size=10))
    @example([RationalTF.from_coeffs(num, den) for num, den in [
        ([1.0], [0.0, 1.0, 1.0]), ([2.0], [0.0, 3.0, 1.0]),  # one group, origin poles
        ([0.0, 1.0], [1.0, 0.0, 1.0]),  # +-i, residue 1/2
        ([1.0], [1.0, 0.0, 2.0, 0.0, 1.0]),  # repeated +-i
        ([1.0], [1.0, 1.0, 1.0, 1.0]),  # +-i with residue (1-i)/4
        ([1.0], [0.0, 0.0, 1.0]),  # repeated origin pole
        ([1.0], [-1.0, 1.0]),  # unstable
        ([2.0, 1.0], [1.0, 1.0]), ([1.0, 3.0, 1.0], [2.0, 1.0, 1.0]),  # biproper
        ([1.0], [0.0, 2.0, 3.0, 1.0]), ([1.0], [0.0, 1.0, 0.5, 1.0]),  # cubic lags
    ]])
    # a numerator that overflows at the pole scale is its member's own outcome
    @example([RationalTF.from_coeffs(num, den) for num, den in [
        ([1.0], [0.5, 1.0]), ([1e308], [1e-308, 1.0]), ([3.0], [2.0, 1.0]),
    ]])
    def test_every_member_equals_its_own_one_element_call(self, tfs):
        for tf, got in zip(tfs, ifp_indices(tfs)):
            try:
                alone = ifp_index(tf)
            except (NotCertifiable, BadDimensions) as e:
                alone = e
            assert certificate_bits(got) == certificate_bits(alone)

    def test_empty_batch(self):
        assert ifp_indices([]) == []

    def test_numerator_overflow_is_refused_by_both_analyses(self):
        tf = RationalTF.from_coeffs([1e308], [1e-308, 1.0])
        (got,) = ifp_indices([tf])
        assert isinstance(got, BadDimensions)
        for analysis in (ifp_index, lambda w: prl_conditions(w, 0.1)):
            with pytest.raises(BadDimensions, match="numerator coefficients overflow"):
                analysis(tf)


# ---------------------------------------------------------------------------
# ifp_shift
# ---------------------------------------------------------------------------

class TestIfpShift:
    def test_direct_substitution(self):
        s = ifp_shift(0.25, 1.0)
        assert abs(s.alpha_hat - 0.5) < 1e-15
        assert abs(s.gamma - 1.5) < 1e-15

    def test_passive_case(self):
        s = ifp_shift(0.0, 0.3)
        assert s.alpha_hat == 0.0
        assert abs(s.gamma - 0.3) < 1e-15

    def test_upper_boundary_excluded(self):
        with pytest.raises(BOutOfRange):
            ifp_shift(0.25, 2.0)

    def test_non_positive_shift_rejected(self):
        with pytest.raises(BOutOfRange):
            ifp_shift(0.25, 0.0)

    def test_negative_deficit_rejected(self):
        with pytest.raises(BOutOfRange, match="alpha must be non-negative, got -0.1"):
            ifp_shift(-0.1, 0.5)

    @given(
        alpha=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
        frac=st.floats(0.01, 0.99),
    )
    def test_shifted_index_and_damping_formulas(self, alpha, frac):
        b = frac / (2 * alpha) if alpha > 0 else frac
        s = ifp_shift(alpha, b)
        denom = 1 - 2 * alpha * b
        assert s.gamma >= 0
        assert np.isclose(s.alpha_hat, alpha / denom, rtol=1e-12, atol=0)
        assert np.isclose(s.gamma, b * (1 - alpha * b) / denom, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# ifp_shift_identity_check
# ---------------------------------------------------------------------------

class TestShiftIdentity:
    def test_unit_vectors(self):
        assert ifp_shift_identity_check(0.25, 1.0, (1.0, 0.0), (0.0, 1.0)) < 1e-12

    def test_scalar_case(self):
        assert ifp_shift_identity_check(0.0, 0.5, (2.0,), (-1.0,)) < 1e-12

    def test_samples_of_different_shapes_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"y shape \(2,\) != u shape \(1,\)"):
            ifp_shift_identity_check(0.25, 1.0, (1.0, 0.0), (1.0,))

    def test_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            alpha = rng.uniform(0.0, 4.0)
            b = rng.uniform(0.05, 0.95) / (2 * alpha) if alpha > 0 else rng.uniform(0.1, 3.0)
            dim = int(rng.integers(1, 5))
            y = rng.normal(size=dim)
            u = rng.normal(size=dim)
            assert ifp_shift_identity_check(alpha, b, y, u) < 1e-12
