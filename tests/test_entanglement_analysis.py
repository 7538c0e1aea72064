import dataclasses
import math
import random
import re
import warnings
from typing import Optional

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindlercv import entanglement_analysis as ea
from rindlercv.info_measures import contangle_from_m, entropy_term_f, mutual_information, two_mode_m
from rindlercv.phase_space import is_bona_fide, is_pure, reduce
from rindlercv.rindler_frames import build_double_observer_cm, build_single_observer_cm, pure_one_vs_rest_m

mp.mp.dps = 40

GRID = np.arange(0.25, 3.01, 0.25)
COARSE = np.arange(0.25, 3.01, 0.5)


def mi_ar_expanded(s: float, r: float) -> float:
    """Independent long-form expansion of the Alice-Rob mutual information."""
    ch2s, c2r = math.cosh(2 * s), math.cosh(r) ** 2
    shr2, chs2, shs2 = math.sinh(r) ** 2, math.cosh(s) ** 2, math.sinh(s) ** 2
    out = (math.log(chs2 * shr2) * shr2 * chs2 if shr2 > 0 else 0.0)
    out += math.log(chs2) * chs2
    out += math.log(c2r * chs2) * c2r * chs2
    out -= (math.log(shs2) * shs2 if shs2 > 0 else 0.0)
    out -= 0.5 * math.log(0.5 * (ch2s * c2r + shr2 - 1)) * (ch2s * c2r + shr2 - 1)
    out -= 0.5 * math.log(0.5 * (c2r + ch2s * shr2 + 1)) * (c2r + ch2s * shr2 + 1)
    return out


def mi_ln_expanded(s: float, a: float) -> float:
    """Independent long-form expansion of the Leo-Nadia mutual information."""
    ch2s, cha2, sha2 = math.cosh(2 * s), math.cosh(a) ** 2, math.sinh(a) ** 2
    big = math.sqrt(2 * ch2s * math.sinh(2 * a) ** 2 + math.cosh(4 * a) + 3)
    out = 2 * cha2 * math.cosh(s) ** 2 * math.log(cha2 * math.cosh(s) ** 2)
    out -= (ch2s * cha2 + sha2 - 1) * math.log(0.5 * (ch2s * cha2 + sha2 - 1))
    out += 0.5 * (big - 2) * math.log(big - 2)
    out -= 0.5 * (big + 2) * math.log(big + 2)
    out += math.log(16)
    return out


class TestContangleAR:
    def test_inertial_reduction(self):
        rep = ea.contangle_ar(1.3, 0.0)
        assert rep.m == pytest.approx(math.cosh(2.6), rel=1e-12)
        assert rep.source == "closed_form"

    def test_epr_limit(self):
        r = 0.8
        limit = 1 + 2 / math.sinh(r) ** 2
        assert ea.m_alice_rob(25.0, r) == pytest.approx(limit, rel=1e-9)

    def test_asymptotically_separable(self):
        rep = ea.contangle_ar(1.0, 25.0)
        assert rep.separable

    def test_monotone_in_both_arguments(self):
        taus_r = [ea.contangle_ar(1.0, r).contangle for r in (0.0, 0.5, 1.0, 2.0)]
        assert taus_r == sorted(taus_r, reverse=True)
        taus_s = [ea.contangle_ar(s, 0.7).contangle for s in (0.2, 0.8, 1.5, 2.5)]
        assert taus_s == sorted(taus_s)

    def test_degradation_rate_grows_with_inertial_squeezing(self):
        h = 1e-4
        for r in np.arange(0.25, 2.01, 0.25):
            rates = []
            for s in (1.0, 2.0):
                slope = (ea.contangle_ar(s, r + h).contangle
                         - ea.contangle_ar(s, r - h).contangle) / (2 * h)
                rates.append(abs(slope))
            assert rates[1] > rates[0]


class TestContangleWedge:
    def test_zero_acceleration(self):
        assert ea.contangle_r_rbar(0.0).contangle == 0.0

    def test_half_unit(self):
        assert ea.contangle_r_rbar(0.5).contangle == pytest.approx(1.0, abs=1e-12)

    def test_cm_route_agreement(self):
        sigma = build_single_observer_cm(2.0, 0.5)
        assert two_mode_m(reduce(sigma, (1, 2))) == pytest.approx(math.cosh(1.0), rel=1e-9)

    def test_is_the_report_cell_bit_for_bit(self):
        """m = cosh 2r through the kernels' np.cosh: the single report's and the double report's wedge pair."""
        rng = np.random.default_rng(2)
        for r, s, n in rng.uniform(0.0, 3.0, (2000, 3)).tolist():
            rep, single = ea.contangle_r_rbar(r), ea.single_observer_report(s, r)
            assert (rep.m, rep.contangle) == (single.m_r_rbar, single.tau_r_rbar)
            assert rep.m == ea.pairwise_m_double(s, r, n).m_l_lbar
        rep = ea.contangle_r_rbar(1.5338241641058254)  # where math.cosh gave ...658, one ulp above the report
        assert rep.m == ea.single_observer_report(1, 1.5338241641058254).m_r_rbar == 10.768916580714656


class TestTauMax:
    def test_modest_acceleration_window(self):
        value = ea.tau_max_ar(0.5)
        oracle = float(mp.asinh(2 * mp.cosh(mp.mpf("0.5")) / mp.sinh(mp.mpf("0.5")) ** 2) ** 2)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert 7.85 <= value <= 8.0

    def test_vanishes_at_extreme_acceleration(self):
        assert ea.tau_max_ar(25.0) < 1e-8

    def test_divergent_at_rest(self):
        assert ea.tau_max_ar(0.0) == math.inf

    def test_matches_large_squeezing_contangle(self):
        assert ea.contangle_ar(25.0, 0.5).contangle == pytest.approx(ea.tau_max_ar(0.5), abs=1e-4)


class TestRStar:
    def test_zero(self):
        assert ea.r_star(0.0) == 0.0

    def test_unit_squeezing(self):
        oracle = float(mp.acosh(mp.sqrt(mp.tanh(1) ** 2 + 1)))  # 0.70239670712987482778
        assert ea.r_star(1.0) == pytest.approx(oracle, rel=1e-12)

    def test_probe_order_flips_at_threshold(self):
        m_a_low, _, m_rbar_low = ea.one_vs_rest_m_single(1.0, 0.70)
        m_a_high, _, m_rbar_high = ea.one_vs_rest_m_single(1.0, 0.71)
        assert m_rbar_low < m_a_low
        assert m_rbar_high > m_a_high


class TestResidualTripartite:
    def test_inertial_point(self):
        assert ea.residual_tripartite(1.0, 0.0) == 0.0

    def test_extreme_acceleration_asymptote(self):
        assert ea.residual_tripartite(1.0, 20.0) == pytest.approx(4.0, abs=1e-3)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_branches_agree_at_threshold(self, s):
        rs = ea.r_star(s)
        m_a, _, m_rbar = ea.one_vs_rest_m_single(s, rs)
        low = contangle_from_m(m_rbar) - 4 * rs * rs
        high = 4 * s * s - ea.contangle_ar(s, rs).contangle
        assert low == pytest.approx(high, abs=1e-9)
        assert ea.residual_tripartite(s, rs) == pytest.approx(low, abs=1e-9)

    @pytest.mark.parametrize("s", [0.5, 1.5, 3.0])
    def test_monotone_in_acceleration(self, s):
        values = [ea.residual_tripartite(s, r) for r in GRID]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)


class TestMutualInfoAR:
    def test_inertial_doubling(self):
        assert ea.mutual_info_ar(1.2, 0.0) == pytest.approx(2 * entropy_term_f(math.cosh(2.4)), rel=1e-12)

    def test_classical_correlations_survive(self):
        assert ea.mutual_info_ar(1.0, 15.0) == pytest.approx(entropy_term_f(math.cosh(2.0)), abs=1e-4)

    def test_uncorrelated_without_inertial_squeezing(self):
        for r in (0.3, 1.0, 4.0):
            assert ea.mutual_info_ar(0.0, r) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(0.1, 3.0), st.floats(0.05, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_expanded_form(self, s, r):
        assert ea.mutual_info_ar(s, r) == pytest.approx(mi_ar_expanded(s, r), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("s,r", [(0.5, 0.5), (1.0, 1.0), (2.0, 0.8)])
    def test_matches_covariance_route(self, s, r):
        red = reduce(build_single_observer_cm(s, r), (0, 1))
        assert ea.mutual_info_ar(s, r) == pytest.approx(mutual_information(red, (0,)), abs=1e-9)


class TestPairwiseDouble:
    def test_crossed_pairs_always_separable(self):
        for args in ((0.5, 0.5, 0.5), (2.0, 1.0, 0.2), (3.0, 0.0, 2.0)):
            pw = ea.pairwise_m_double(*args)
            assert pw.m_l_nbar == pw.m_n_lbar == pw.m_lbar_nbar == 1.0

    def test_wedge_pairs(self):
        pw = ea.pairwise_m_double(1.0, 0.4, 0.9)
        assert pw.m_l_lbar == pytest.approx(math.cosh(0.8), rel=1e-12)
        assert pw.m_n_nbar == pytest.approx(math.cosh(1.8), rel=1e-12)

    def test_death_region(self):
        # tanh 2 < sinh^2 1, so l = n = 1 kills the Leo-Nadia entanglement at s = 2
        assert math.tanh(2.0) < math.sinh(1.0) ** 2
        assert ea.pairwise_m_double(2.0, 1.0, 1.0).m_l_n == 1.0

    def test_inertial_reduction(self):
        assert ea.pairwise_m_double(1.1, 0.0, 0.0).m_l_n == pytest.approx(math.cosh(2.2), rel=1e-12)

    @pytest.mark.parametrize("s,l", [(0.5, 0.3), (1.0, 0.8), (2.0, 0.6)])
    def test_branch_boundary_is_exact(self, s, l):
        # evaluating the nontrivial branch exactly on tanh s = sinh l sinh n gives 1
        n = math.asinh(math.tanh(s) / math.sinh(l))
        chs2 = math.cosh(s) ** 2
        num = (2 * math.cosh(2 * l) * math.cosh(2 * n) * chs2 + 3 * math.cosh(2 * s)
               - 4 * math.sinh(l) * math.sinh(n) * math.sinh(2 * s) - 1)
        den = 2 * ((math.cosh(2 * l) + math.cosh(2 * n)) * chs2 - 2 * math.sinh(s) ** 2
                   + 2 * math.sinh(l) * math.sinh(n) * math.sinh(2 * s))
        assert num / den == pytest.approx(1.0, abs=1e-9)


class TestREffective:
    def test_inertial_point(self):
        assert ea.r_effective(1.0, 0.0, 0.0) == 0.0

    def test_divergence_past_threshold(self):
        s = 0.5
        l = n = math.asinh(math.sqrt(math.tanh(s))) + 0.01
        assert ea.r_effective(s, l, n) == math.inf

    def test_defining_property(self):
        s, l, n = 1.0, 0.3, 0.3
        r_eff = ea.r_effective(s, l, n)
        tau_single = ea.contangle_ar(s, r_eff).contangle
        tau_double = contangle_from_m(ea.m_leo_nadia(s, l, n))
        assert tau_single == pytest.approx(tau_double, abs=1e-9)

    def test_rejects_zero_squeezing(self):
        with pytest.raises(ValueError):
            ea.r_effective(0.0, 0.1, 0.1)


class TestFrequencySeparability:
    def test_threshold_at_log_two(self):
        accel = 2 * math.pi
        assert ea.frequency_separability(math.log(2.0) - 1e-6, math.log(2.0) - 1e-6, accel)
        assert not ea.frequency_separability(math.log(2.0) + 1e-6, math.log(2.0) + 1e-6, accel)

    def test_high_frequencies_entangled(self):
        assert not ea.frequency_separability(40.0, 40.0, 2 * math.pi)

    def test_low_frequency_always_separable(self):
        for nu in (0.1, 1.0, 10.0):
            assert ea.frequency_separability(1e-9, nu, 2 * math.pi)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ea.frequency_separability(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("lam,nu,accel", [(1.0, 1.0, 0.01), (1.0, 1.0, 1e-300), (200.0, 354.0, 0.5),
                                              (1e300, 1.0, 1e-300), (2.0, 3.0, 2 * math.pi)])
    def test_condition_is_the_margin_scaled_never_nan(self, lam, nu, accel):
        """e^{w(lam+nu)} times the margin: the closed-form condition, +-inf with the margin's sign past overflow."""
        condition, margin, separable = ea.frequency_condition(lam, nu, accel)
        assert not math.isnan(condition) and (condition >= 0) == (margin >= 0) == separable
        w = 2 * math.pi / accel
        if w * (lam + nu) < 700:
            exact = math.exp(w * lam) + math.exp(w * nu) - math.exp(w * (lam + nu))
            assert condition == pytest.approx(exact, rel=1e-13)
        else:
            assert condition == -math.inf

    def test_consistent_with_pairwise_at_large_squeezing(self):
        accel = 2 * math.pi
        from rindlercv.rindler_frames import accel_to_squeezing
        for lam in (0.4, 0.69, 0.7, 1.2):
            l = accel_to_squeezing(accel, lam)
            separable = ea.pairwise_m_double(30.0, l, l).m_l_n == 1.0
            assert separable == ea.frequency_separability(lam, lam, accel)


class TestInfiniteSqueezingM:
    def test_death_boundary(self):
        l = 0.7
        n = math.asinh(1.0 / math.sinh(l))
        assert ea.m_ln_infinite_squeezing(l, n) == pytest.approx(1.0, abs=1e-12)

    def test_surviving_entanglement(self):
        value = ea.m_ln_infinite_squeezing(0.5, 0.5)
        assert value == pytest.approx(1.9771173471193955, rel=1e-12)
        assert value > 1

    def test_agreement_with_large_s(self):
        # includes points beyond the death boundary, where both sides must give 1
        for l, n in ((0.3, 0.4), (0.5, 0.5), (0.2, 0.8), (1.0, 1.0), (2.0, 1.5)):
            assert ea.m_ln_infinite_squeezing(l, n) == pytest.approx(
                ea.m_leo_nadia(30.0, l, n), abs=1e-6)

    def test_dead_region_deep_inside(self):
        l = math.asinh(2.0)
        assert math.sinh(l) ** 2 > 1
        assert ea.m_ln_infinite_squeezing(l, l) == 1.0

    def test_rejects_double_zero(self):
        with pytest.raises(ValueError):
            ea.m_ln_infinite_squeezing(0.0, 0.0)


class TestAStar:
    def test_zero(self):
        assert ea.a_star(0.0) == 0.0

    def test_unit_squeezing(self):
        oracle = float(mp.asinh(mp.sqrt(mp.tanh(1))))  # 0.78843200603485404416
        assert ea.a_star(1.0) == pytest.approx(oracle, rel=1e-12)

    def test_infinite_squeezing_limit(self):
        assert ea.a_star(1e6) == pytest.approx(math.asinh(1.0), abs=1e-6)


class TestMLnEqualAccel:
    def test_inertial(self):
        assert ea.m_ln_equal_accel(1.4, 0.0) == pytest.approx(math.cosh(2.8), rel=1e-12)

    def test_continuous_at_threshold(self):
        s = 1.0
        astar = ea.a_star(s)
        below = ea.m_ln_equal_accel(s, astar * (1 - 1e-7))
        assert ea.m_ln_equal_accel(s, astar) == 1.0
        assert below == pytest.approx(1.0, abs=1e-6)

    def test_dead_past_threshold(self):
        assert ea.m_ln_equal_accel(2.0, 1.0) == 1.0

    @pytest.mark.parametrize("s", [0.4, 1.0, 2.2])
    @pytest.mark.parametrize("a", [0.1, 0.5, 1.1])
    def test_matches_general_formula(self, s, a):
        assert ea.m_ln_equal_accel(s, a) == pytest.approx(ea.m_leo_nadia(s, a, a), rel=1e-12)


class TestResidualMultipartite:
    def test_inertial_point(self):
        assert ea.residual_multipartite(1.0, 0.0) == 0.0

    def test_flagship_value(self):
        oracle = float(mp.asinh(mp.sqrt((mp.cosh(7) ** 2 + mp.cosh(4) * mp.sinh(7) ** 2) ** 2 - 1)) ** 2 - 196)
        assert ea.residual_multipartite(2.0, 7.0) == pytest.approx(oracle, rel=1e-12)
        assert abs(ea.residual_multipartite(2.0, 7.0) - 81.2) < 0.05

    @pytest.mark.parametrize("s", [0.5, 1.5, 3.0])
    def test_increasing_in_acceleration(self, s):
        values = [ea.residual_multipartite(s, a) for a in GRID]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_anti_observer_probe_is_minimal(self):
        for s in GRID:
            for a in GRID:
                m_lbar, m_l, _, _ = ea.one_vs_rest_m_double(s, a, a)
                probe_lbar = contangle_from_m(m_lbar) - 4 * a * a
                probe_l = (contangle_from_m(m_l) - 4 * a * a
                           - contangle_from_m(ea.m_ln_equal_accel(s, a)))
                assert probe_lbar <= probe_l + 1e-9

    def test_positive_for_positive_parameters(self):
        for s in (0.1, 1.0):
            for a in (0.1, 2.0):
                assert ea.residual_multipartite(s, a) > 0


class TestTripartiteBound:
    def test_vanishes_at_zero_acceleration(self):
        assert ea.tripartite_upper_bound(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_small_at_high_acceleration(self):
        assert 0 <= ea.tripartite_upper_bound(1.0, 5.0) < 1e-2

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_nonnegative_and_decays(self, s):
        # the bound rises on [0, ~a*(s)] while the Leo-Nadia term still bites,
        # then decays monotonically toward zero
        values = [ea.tripartite_upper_bound(s, a) for a in np.arange(0.25, 5.01, 0.25)]
        assert all(v >= -1e-12 for v in values)
        decay = [ea.tripartite_upper_bound(s, a) for a in np.arange(1.0, 5.01, 0.25)]
        assert all(b <= a + 1e-12 for a, b in zip(decay, decay[1:]))

    def test_ansatz_state_is_valid(self):
        for s in (0.0, 1e-9, *COARSE):
            for a in COARSE:
                gamma = ea.tripartite_bound_ansatz_cm(s, a)
                assert is_pure(gamma)
                assert is_bona_fide(gamma)
                sigma = reduce(build_double_observer_cm(s, a, a), (0, 1, 2))
                min_eig = np.linalg.eigvalsh(sigma.mat - gamma.mat).min()
                assert min_eig >= -1e-9

    @pytest.mark.parametrize("s", [0.0, 1e-300, 1e-12, 1e-9, 1e-6, 1e-3, 0.1])
    def test_ansatz_parameter_mpmath_oracle_at_small_s(self, s):
        """t = arccosh(K) / 2 to a few ulps where K rounds to 1 in double precision, and exactly 0 at s = 0."""
        for a in (0.0, 0.01, 0.5, 3.0):
            with mp.workdps(700):  # K - 1 is about 2 s^2: 600 digits resolve it at s = 1e-300
                x, y = mp.mpf(s), mp.mpf(a)
                k = (mp.cosh(y) ** 2 + mp.tanh(x) ** 2) / (mp.sinh(y) ** 2 + mp.sech(x) ** 2)
                oracle = float(mp.re(mp.acosh(k)) / 2)  # re: at s = 0, K may round just below 1
            assert ea._evaluate(ea._bound_ansatz_t, s=s, a=a) == pytest.approx(oracle, rel=1e-15, abs=0.0)

    def test_excluded_candidate_is_larger(self):
        for s in COARSE:
            for a in COARSE:
                k = (1 + (math.tanh(s) / math.cosh(a)) ** 2) / (1 - (math.tanh(s) / math.cosh(a)) ** 2)
                cand_lbar = contangle_from_m(math.cosh(a) ** 2 + k * math.sinh(a) ** 2) - 4 * a * a
                cand_n = contangle_from_m(k) - contangle_from_m(ea.m_ln_equal_accel(s, a))
                excluded = (contangle_from_m(math.sinh(a) ** 2 + k * math.cosh(a) ** 2)
                            - 4 * a * a - contangle_from_m(ea.m_ln_equal_accel(s, a)))
                assert excluded >= max(cand_lbar, cand_n) - 1e-9

    def test_bounds_probe_contangles_of_ansatz(self):
        # the ansatz one-vs-rest parameters match their closed forms
        s, a = 1.0, 0.8
        gamma = ea.tripartite_bound_ansatz_cm(s, a)
        k = (1 + (math.tanh(s) / math.cosh(a)) ** 2) / (1 - (math.tanh(s) / math.cosh(a)) ** 2)
        assert pure_one_vs_rest_m(gamma, 2) == pytest.approx(k, rel=1e-10)
        assert pure_one_vs_rest_m(gamma, 0) == pytest.approx(
            math.cosh(a) ** 2 + k * math.sinh(a) ** 2, rel=1e-10)


class TestMutualInfoLN:
    def test_inertial_doubling(self):
        assert ea.mutual_info_ln(0.9, 0.0) == pytest.approx(2 * entropy_term_f(math.cosh(1.8)), rel=1e-12)

    def test_zero_without_inertial_squeezing(self):
        for a in (0.5, 2.0):
            assert ea.mutual_info_ln(0.0, a) == pytest.approx(0.0, abs=1e-12)

    def test_numeric_cm_agreement(self):
        red = reduce(build_double_observer_cm(1.0, 1.0, 1.0), (1, 2))
        assert ea.mutual_info_ln(1.0, 1.0) == pytest.approx(mutual_information(red, (0,)), abs=1e-9)

    @given(st.floats(0.1, 3.0), st.floats(0.05, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_expanded_form(self, s, a):
        assert ea.mutual_info_ln(s, a) == pytest.approx(mi_ln_expanded(s, a), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("s,l,n", [(0.8, 0.5, 1.2), (1.5, 0.3, 0.9)])
    def test_general_accelerations_match_numeric(self, s, l, n):
        red = reduce(build_double_observer_cm(s, l, n), (1, 2))
        assert ea.mutual_info_ln_general(s, l, n) == pytest.approx(mutual_information(red, (0,)), abs=1e-9)

    def test_general_reduces_to_equal(self):
        assert ea.mutual_info_ln_general(1.2, 0.7, 0.7) == pytest.approx(ea.mutual_info_ln(1.2, 0.7), abs=1e-11)

    def test_saturates_below_inertial_classical_correlations(self):
        s = 1.0
        v30, v40 = ea.mutual_info_ln(s, 30.0), ea.mutual_info_ln(s, 40.0)
        assert v40 == pytest.approx(v30, abs=1e-9)  # saturated
        assert v40 < entropy_term_f(math.cosh(2 * s))


class TestClassicalDeficit:
    def test_zero_acceleration(self):
        assert ea.classical_deficit(0.0, 1.5) == 0.0

    def test_saturates_at_one(self):
        assert ea.classical_deficit(1.0, 20.0) == pytest.approx(1.0, abs=1e-3)

    def test_bounded_by_one_on_grid(self):
        for s in np.arange(0.5, 20.01, 0.5):
            for a in np.arange(0.25, 5.01, 0.25):
                d = ea.classical_deficit(a, s)
                assert -1e-12 <= d <= 1.0 + 1e-9

    def test_increasing_in_both_arguments(self):
        for a in (0.5, 1.0, 3.0):
            ds = [ea.classical_deficit(a, s) for s in (0.5, 1.0, 2.0, 5.0, 12.0)]
            assert ds == sorted(ds)
        for s in (1.0, 4.0):
            ds = [ea.classical_deficit(a, s) for a in (0.25, 0.75, 1.5, 3.0)]
            assert ds == sorted(ds)


class TestReports:
    @pytest.mark.parametrize("s,r", [(0.5, 0.25), (1.0, 1.0), (2.0, 2.75), (1.0, 0.0)])
    def test_single_report_validates(self, s, r):
        rep = ea.single_observer_report(s, r)
        rep.validate()
        assert rep.tau_ar <= rep.tau_max_ar or math.isinf(rep.tau_max_ar)

    @pytest.mark.parametrize("s,l,n", [(0.5, 0.5, 0.5), (2.0, 1.0, 1.0), (1.0, 0.4, 1.7)])
    def test_double_report_validates(self, s, l, n):
        rep = ea.double_observer_report(s, l, n)
        rep.validate()

    def test_unequal_accelerations_disable_equal_only_fields(self):
        rep = ea.double_observer_report(1.0, 0.4, 1.7)
        assert rep.tripartite_upper_bound is None
        assert rep.deficit is None
        assert rep.mutual_info_ln == pytest.approx(ea.mutual_info_ln_general(1.0, 0.4, 1.7), rel=1e-12)

    def test_equal_acceleration_general_residual_matches(self):
        rep_eq = ea.double_observer_report(1.0, 0.8, 0.8)
        assert rep_eq.residual_multipartite == pytest.approx(ea.residual_multipartite(1.0, 0.8), rel=1e-12)

    def test_residual_multipartite_is_the_smallest_probe_residual(self):
        """The double-observer check needs no probe residuals: its residual is their minimum, bit for bit.

        Out to s = 20 with zero and tiny accelerations; the public
        residual_multipartite(s, a) is the report's at l = n = a, bit for bit too.
        """
        accels = [0.0, 1e-12, 1e-6, 0.1, 1.0, 4.0]
        for axes in ((np.linspace(0, 6, 13), np.linspace(0, 3, 13), np.array([0.0, 1e-6, 0.4, 2.5])),
                     (np.linspace(0, 20, 41), accels, accels)):
            s, l, n = np.meshgrid(*axes, indexing="ij")
            columns = ea.double_report_columns(s, l, n)
            probes = ea._monogamy_residuals(columns, ea.MONOGAMY_PROBES["double"])
            assert np.array_equal(np.minimum.reduce(list(probes.values())), columns["residual_multipartite"])
            equal = l == n
            assert np.array_equal(ea.residual_multipartite(s[equal], l[equal]),
                                  columns["residual_multipartite"][equal])
        rep = ea.double_observer_report(1.0, 0.4, 1.7)
        assert min(rep.monogamy_residuals().values()) == rep.residual_multipartite

    def test_an_anti_observer_probe_holds_the_smallest_residual(self):
        """The paper's minimal probe: anti-Leo or anti-Nadia, within 1e-12, wherever the probes are finite.

        Over the grids of test_residual_multipartite_is_the_smallest_probe_residual, out to s = 20 with zero
        and tiny accelerations.
        """
        accels = [0.0, 1e-12, 1e-6, 0.1, 1.0, 4.0]
        for axes in ((np.linspace(0, 6, 13), np.linspace(0, 3, 13), np.array([0.0, 1e-6, 0.4, 2.5])),
                     (np.linspace(0, 20, 41), accels, accels)):
            s, l, n = np.meshgrid(*axes, indexing="ij")
            probes = ea._monogamy_residuals(ea.double_report_columns(s, l, n), ea.MONOGAMY_PROBES["double"])
            anti, observer = np.minimum(probes["Lbar"], probes["Nbar"]), np.minimum(probes["L"], probes["N"])
            finite = np.isfinite(anti) & np.isfinite(observer)
            assert finite.sum() > s.size // 2
            assert np.all(anti[finite] <= observer[finite] + 1e-12)

    @pytest.mark.parametrize("report,field,value,message", [
        (ea.single_observer_report(1.0, 1.0), "m_ar", 0.5, "m_ar = 0.5 at s=1.0, r=1.0"),
        (ea.single_observer_report(1.0, 1.0), "tau_ar", 100.0, "monogamy residual at probe A = "),
        (ea.double_observer_report(1.0, 0.8, 0.8), "tripartite_upper_bound", -1.0,
         "tripartite_upper_bound = -1.0 at s=1.0, l=0.8, n=0.8"),
        (ea.double_observer_report(1.0, 0.4, 1.7), "r_eff", math.inf, None),
        (ea.double_observer_report(1.0, 0.4, 1.7), "r_eff", math.nan, "r_eff = nan at s=1.0, l=0.4, n=1.7"),
        (ea.double_observer_report(0.0, 0.4, 1.7), "r_eff", math.nan, None),
        (ea.single_observer_report(1.0, 1.0), "s", 1, None),
        (ea.single_observer_report(1.0, 1.0), "m_ar", 0, "m_ar = 0.0 at s=1.0, r=1.0"),
    ])
    def test_validate_is_the_kernel_check(self, report, field, value, message):
        """validate runs the kernels' check on the report's fields: same invariants, same message, ints too."""
        report = dataclasses.replace(report, **{field: value})
        if message is None:  # r_eff may diverge, and is undefined at s = 0
            report.validate()
            return
        with pytest.raises(ea.InconsistencyError, match=re.escape(message)):
            report.validate()

    def test_validate_tolerance_is_the_kernels(self):
        """At s = 0, r = 1.55 the probe R residual is -3.6e-15: tol = 0 rejects it, in validate and kernel alike."""
        rep = ea.single_observer_report(0.0, 1.55)
        assert -1e-14 < rep.monogamy_residuals()["R"] < 0
        rep.validate()
        for check in (lambda: rep.validate(0.0), lambda: ea.single_report_columns(0.0, 1.55, tol=0.0),
                      lambda: ea.single_report_columns(np.array([0.0, 0.0]), np.array([1.0, 1.55]), tol=0.0)):
            with pytest.raises(ea.InconsistencyError, match=r"probe R = -3\.5\d*e-15 at s=0\.0, r=1\.55"):
                check()

    def test_report_dict_round_trip(self):
        d = ea.single_observer_report(1.0, 0.5).to_dict()
        assert d["s"] == 1.0 and "tau_ar" in d

    @pytest.mark.parametrize("report", [ea.single_observer_report(1.0, 0.5),
                                        ea.double_observer_report(1.0, 0.8, 0.8),
                                        ea.double_observer_report(1.0, 0.4, 1.7)],
                             ids=["single", "double-equal", "double-unequal"])
    def test_to_dict_is_a_fresh_copy_of_the_fields(self, report):
        d = report.to_dict()
        reference = dataclasses.asdict(report)
        assert d == reference and list(d) == list(reference)
        assert all(type(v) in (float, bool, type(None)) for v in d.values())
        d["s"] = -1.0
        assert report.s == 1.0 and report.to_dict() == reference


class TestClosedFormNumericDuality:
    """Every closed-form m agrees with the covariance-matrix evaluation."""

    def test_single_scenario(self):
        worst = 0.0
        for s in GRID:
            for r in GRID:
                sigma = build_single_observer_cm(s, r)
                worst = max(worst, abs(ea.m_alice_rob(s, r) - two_mode_m(reduce(sigma, (0, 1)))))
                worst = max(worst, abs(math.cosh(2 * r) - two_mode_m(reduce(sigma, (1, 2)))))
                for probe, closed in zip(range(3), ea.one_vs_rest_m_single(s, r)):
                    worst = max(worst, abs(closed - pure_one_vs_rest_m(sigma, probe)))
        assert worst < 1e-8

    def test_double_scenario(self):
        worst = 0.0
        for s in COARSE:
            for l in COARSE:
                for n in COARSE:
                    sigma = build_double_observer_cm(s, l, n)
                    pw = ea.pairwise_m_double(s, l, n)
                    worst = max(worst, abs(pw.m_l_n - two_mode_m(reduce(sigma, (1, 2)))))
                    worst = max(worst, abs(pw.m_l_lbar - two_mode_m(reduce(sigma, (0, 1)))))
                    worst = max(worst, abs(pw.m_n_nbar - two_mode_m(reduce(sigma, (2, 3)))))
                    for probe, closed in zip(range(4), ea.one_vs_rest_m_double(s, l, n)):
                        worst = max(worst, abs(closed - pure_one_vs_rest_m(sigma, probe)))
        assert worst < 1e-8

    def test_crossed_pairs_separable_from_cm(self):
        from rindlercv.info_measures import ppt_separable
        for s in COARSE:
            sigma = build_double_observer_cm(s, 0.75, 1.25)
            for pair in ((1, 3), (0, 2), (0, 3)):
                assert ppt_separable(reduce(sigma, pair), (0,))


class TestOneObserverIsLeoInertial:
    """The single report is the double report at l = 0: two derivations of one state, not two transcriptions.

    Each closed form also has an mpmath transcription below, which checks its
    digits but not its derivation; this comparison checks the derivations.
    """

    @staticmethod
    def points():
        rng = np.random.default_rng(2007)
        s, r = rng.uniform(0.0, 20.0, (2, 4000))
        edges = np.array([0.0, 1e-8, 1.0, 12.0, 20.0])  # (1, 12): the pair the old clamp declared separable
        return np.concatenate([s, np.repeat(edges, 5)]), np.concatenate([r, np.tile(edges, 5)])

    def test_single_report_is_the_double_report_at_rest(self):
        s, r = self.points()
        one, two = ea.single_report_columns(s, r), ea.double_report_columns(s, 0.0, r)
        for single, double in (("m_a_vs_rest", "m_l_vs_rest"), ("m_r_vs_rest", "m_n_vs_rest"),
                               ("m_rbar_vs_rest", "m_nbar_vs_rest"), ("m_r_rbar", "m_n_nbar"),
                               ("tau_r_rbar", "tau_n_nbar")):
            assert one[single].tobytes() == two[double].tobytes(), (single, double)
        ulps = np.abs(one["m_ar"] - two["m_l_n"]) / np.spacing(np.maximum(one["m_ar"], two["m_l_n"]))
        assert ulps.max() <= 8
        for single, double in (("tau_ar", "tau_l_n"), ("mutual_info_ar", "mutual_info_ln")):
            deviation = np.abs(one[single] - two[double]) / np.maximum(1.0, np.abs(one[single]))
            assert deviation.max() <= 1e-13, (single, double)

    def test_classical_deficit_is_the_double_reports_difference(self):
        """D(a, s) is I(Leo|Nadia) with Leo inertial minus I(Leo|Nadia) at l = n = a."""
        s, a = self.points()
        at_rest = ea.double_report_columns(s, 0.0, a)["mutual_info_ln"]
        equal = ea.double_report_columns(s, a, a)["mutual_info_ln"]
        np.testing.assert_allclose(ea.classical_deficit(a, s), at_rest - equal, rtol=0.0, atol=1e-13)


def mp_m_leo_nadia(s, l, n):
    """The Leo-Nadia m-parameter in 40-digit arithmetic, from the uncancelled closed form."""
    s, l, n = mp.mpf(s), mp.mpf(l), mp.mpf(n)
    if mp.tanh(s) <= mp.sinh(l) * mp.sinh(n):
        return mp.mpf(1)
    num = (2 * mp.cosh(2 * l) * mp.cosh(2 * n) * mp.cosh(s) ** 2 + 3 * mp.cosh(2 * s)
           - 4 * mp.sinh(l) * mp.sinh(n) * mp.sinh(2 * s) - 1)
    den = 2 * ((mp.cosh(2 * l) + mp.cosh(2 * n)) * mp.cosh(s) ** 2 - 2 * mp.sinh(s) ** 2
               + 2 * mp.sinh(l) * mp.sinh(n) * mp.sinh(2 * s))
    return num / den


def mp_entropy_f(x):
    """f(x) = ((x+1)/2) log((x+1)/2) - ((x-1)/2) log((x-1)/2), 0 at x = 1."""
    if x <= 1:
        return mp.mpf(0)
    return (x + 1) / 2 * mp.log((x + 1) / 2) - (x - 1) / 2 * mp.log((x - 1) / 2)


def mp_two_mode_mutual_info(a, b, c):
    """Mutual information of the two-mode state with local roots a, b and correlation c (Seralian form)."""
    seralian, det = a * a + b * b - 2 * c * c, (a * b - c * c) ** 2
    root = mp.sqrt(seralian ** 2 - 4 * det)
    eta_plus, eta_minus = mp.sqrt((seralian + root) / 2), mp.sqrt((seralian - root) / 2)
    return mp_entropy_f(a) + mp_entropy_f(b) - mp_entropy_f(eta_minus) - mp_entropy_f(eta_plus)


def mp_mutual_info_ln(s, l, n):
    """The Leo-Nadia mutual information from the uncancelled Seralian formula."""
    s, l, n = mp.mpf(s), mp.mpf(l), mp.mpf(n)
    return mp_two_mode_mutual_info(mp.cosh(2 * s) * mp.cosh(l) ** 2 + mp.sinh(l) ** 2,
                                   mp.cosh(2 * s) * mp.cosh(n) ** 2 + mp.sinh(n) ** 2,
                                   mp.sinh(2 * s) * mp.cosh(l) * mp.cosh(n))


def mp_contangle(m):
    """arccosh^2 m, 0 for a separable m <= 1."""
    return mp.acosh(m) ** 2 if m > 1 else mp.mpf(0)


def mp_m_alice_rob(s, r):
    s, r = mp.mpf(s), mp.mpf(r)
    return ((2 * mp.sinh(r) ** 2 + (mp.cosh(2 * r) + 3) * mp.cosh(2 * s))
            / (2 * mp.cosh(2 * s) * mp.sinh(r) ** 2 + mp.cosh(2 * r) + 3))


def mp_mutual_info_ar(s, r):
    """Alice-Rob mutual information from their two-mode covariance matrix, Seralian form."""
    s, r = mp.mpf(s), mp.mpf(r)
    return mp_two_mode_mutual_info(mp.cosh(2 * s), mp.cosh(2 * s) * mp.cosh(r) ** 2 + mp.sinh(r) ** 2,
                                   mp.sinh(2 * s) * mp.cosh(r))


def mp_residual_tripartite(s, r):
    """The smallest one-vs-rest residual over all three probes: Alice, Rob and anti-Rob."""
    s, r = mp.mpf(s), mp.mpf(r)
    tau_ar, tau_r_rbar = mp_contangle(mp_m_alice_rob(s, r)), 4 * r * r
    m_r = mp.cosh(2 * s) * mp.cosh(r) ** 2 + mp.sinh(r) ** 2
    m_rbar = mp.cosh(r) ** 2 + mp.cosh(2 * s) * mp.sinh(r) ** 2
    return min(4 * s * s - tau_ar, mp_contangle(m_r) - tau_ar - tau_r_rbar, mp_contangle(m_rbar) - tau_r_rbar)


def mp_tau_max_ar(r):
    """The Alice-Rob contangle as s -> inf, where m_AR -> 1 + 2 / sinh^2 r; inf at r = 0."""
    r = mp.mpf(r)
    return mp.inf if r == 0 else mp_contangle(1 + 2 / mp.sinh(r) ** 2)


def mp_tripartite_upper_bound(s, a):
    """The smaller pure-ansatz candidate, with K = (1 + x) / (1 - x) and x = tanh^2 s / cosh^2 a."""
    s, a = mp.mpf(s), mp.mpf(a)
    x = mp.tanh(s) ** 2 / mp.cosh(a) ** 2
    k = (1 + x) / (1 - x)
    return min(mp_contangle(mp.cosh(a) ** 2 + k * mp.sinh(a) ** 2) - 4 * a * a,
               mp_contangle(k) - mp_contangle(mp_m_leo_nadia(s, a, a)))


def mp_residual_multipartite(s, a):
    """The smallest one-vs-rest residual over the probes anti-Leo and Leo (Nadia's mirror them) at l = n = a."""
    s, a = mp.mpf(s), mp.mpf(a)
    tau_l_lbar, tau_l_n = 4 * a * a, mp_contangle(mp_m_leo_nadia(s, a, a))
    m_lbar = mp.cosh(a) ** 2 + mp.cosh(2 * s) * mp.sinh(a) ** 2
    m_l = mp.sinh(a) ** 2 + mp.cosh(2 * s) * mp.cosh(a) ** 2
    return min(mp_contangle(m_lbar) - tau_l_lbar, mp_contangle(m_l) - tau_l_lbar - tau_l_n)


def mp_r_effective(s, l, n):
    """arccosh[cosh l cosh n sinh s / (sinh s - cosh s sinh l sinh n)], inf past the death threshold."""
    s, l, n = mp.mpf(s), mp.mpf(l), mp.mpf(n)
    den = mp.sinh(s) - mp.cosh(s) * mp.sinh(l) * mp.sinh(n)
    return mp.inf if den <= 0 else mp.acosh(mp.cosh(l) * mp.cosh(n) * mp.sinh(s) / den)


def worst_oracle_error(fn, oracle, points, dps=80):
    """The largest |fn - oracle| / max(1, |oracle|) over the points in dps-digit arithmetic, and where.

    Where the oracle diverges, fn must return inf.
    """
    worst = (0.0, None)
    with mp.workdps(dps):
        for point in points:
            value, ref = fn(*point), oracle(*point)
            if mp.isinf(ref):
                error = 0.0 if value == math.inf else math.inf
            else:
                error = float(abs(value - ref) / max(1, abs(ref)))
            worst = max(worst, (error, point), key=lambda w: w[0])
    return worst


ORACLE_ACCELS = [0.0, 1e-6, 1e-3, 0.1, 1.0, 4.0]
# every ordered pair, plus the near-equal pairs (a, a(1 + 1e-7)) and (0, 1e-12),
# where a - b and a + b - 2c cancel if formed by subtraction
ORACLE_PAIRS = ([(l, n) for l in ORACLE_ACCELS for n in ORACLE_ACCELS]
                + [(a, a * (1 + 1e-7)) for a in ORACLE_ACCELS[1:]] + [(0.0, 1e-12)])
ORACLE_S = np.linspace(0.0, 20.0, 41).tolist()
ORACLE_S_ACCEL = [(s, a) for s in ORACLE_S for a in ORACLE_ACCELS]
ORACLE_FORMS = [  # name, oracle, points
    ("r_effective", mp_r_effective, [(s, l, n) for s in ORACLE_S[1:] for l, n in ORACLE_PAIRS]),  # undefined at s = 0
    ("m_alice_rob", mp_m_alice_rob, ORACLE_S_ACCEL), ("mutual_info_ar", mp_mutual_info_ar, ORACLE_S_ACCEL),
    ("residual_tripartite", mp_residual_tripartite, ORACLE_S_ACCEL),
    ("tau_max_ar", mp_tau_max_ar, [(a,) for a in ORACLE_ACCELS]),
    ("tripartite_upper_bound", mp_tripartite_upper_bound, ORACLE_S_ACCEL),
    ("residual_multipartite", mp_residual_multipartite, ORACLE_S_ACCEL)]


class TestLargeSqueezing:
    """The closed forms hold out to s = 20, at exactly zero acceleration too."""

    @pytest.mark.parametrize("name,oracle", [("mutual_info_ln_general", mp_mutual_info_ln),
                                             ("m_leo_nadia", mp_m_leo_nadia)],
                             ids=["mutual_info_ln_general", "m_leo_nadia"])
    def test_leo_nadia_mpmath_oracle_grid(self, name, oracle):
        worst = worst_oracle_error(getattr(ea, name), oracle, [(s, l, n) for s in ORACLE_S for l, n in ORACLE_PAIRS])
        assert worst[0] <= 1e-13, worst

    @pytest.mark.parametrize("name,oracle,points", ORACLE_FORMS, ids=[form[0] for form in ORACLE_FORMS])
    def test_mpmath_oracle_grid(self, name, oracle, points):
        worst = worst_oracle_error(getattr(ea, name), oracle, points)
        assert worst[0] <= 1e-13, worst

    @pytest.mark.parametrize("s,l,n", [(200.0, 0.5, 0.6), (300.0, 0.0, 1e-6), (349.0, 4.0, 4.0), (340.0, 8.0, 8.0),
                                       (351.5, 4.0, 4.0), (351.5, 4.0, 3.5)])
    def test_mutual_info_ln_general_far_out(self, s, l, n):
        """eta_+ is never squared, and sqrt det sigma_LN and a + b + 2c are summed at exact scales.

        The Seralian oracle cancels eta_+^2 / eta_-^2 (some 610 digits at s = 351.5 where l != n) to reach eta_-.
        """
        worst = worst_oracle_error(ea.mutual_info_ln_general, mp_mutual_info_ln, [(s, l, n)], dps=800)
        assert worst[0] <= 1e-13, worst

    @pytest.mark.parametrize("s,l,n", [(12.0, 0.0, 0.0), (20.0, 0.0, 0.0), (12.0, 0.0, 1e-6),
                                       (20.0, 0.05, 0.1), (8.0, 0.3, 0.3)])
    def test_m_leo_nadia_mpmath_oracle(self, s, l, n):
        assert ea.m_leo_nadia(s, l, n) == pytest.approx(float(mp_m_leo_nadia(s, l, n)), rel=1e-13)

    @pytest.mark.parametrize("s", [8.0, 12.0, 20.0])
    def test_tripartite_bound_vanishes_at_zero_acceleration(self, s):
        assert abs(ea.tripartite_upper_bound(s, 0.0)) <= 1e-12

    @pytest.mark.parametrize("s", [7.0, 8.0, 12.0, 20.0])
    @pytest.mark.parametrize("l,n", [(0.0, 0.0), (0.0, 0.5)])
    def test_zero_acceleration_reports_validate(self, s, l, n):
        rep = ea.double_observer_report(s, l, n)
        rep.validate()
        if l == n == 0.0:
            assert rep.m_l_n == pytest.approx(math.cosh(2 * s), rel=1e-12)


CONTANGLE_ACCELS = [0.0, 1e-6, 1e-3, 0.5, 1.0]
CONTANGLE_S = [0.0, 0.5, 1.0, 3.0, 8.0, 20.0, 50.0, 100.0, 200.0, 300.0, 350.0]
# report kernel -> (tau column, m column, its 420-digit oracle in the kernel's parameters)
CONTANGLE_COLUMNS = {
    "single": [("tau_ar", "m_ar", lambda s, r: mp_contangle(mp_m_alice_rob(s, r))),
               ("tau_r_rbar", "m_r_rbar", lambda s, r: 4 * mp.mpf(r) ** 2)],
    "double": [("tau_l_lbar", "m_l_lbar", lambda s, l, n: 4 * mp.mpf(l) ** 2),
               ("tau_n_nbar", "m_n_nbar", lambda s, l, n: 4 * mp.mpf(n) ** 2),
               ("tau_l_n", "m_l_n", lambda s, l, n: mp_contangle(mp_m_leo_nadia(s, l, n)))],
}


def contangle_grids():
    """The single and double report columns over CONTANGLE_S x CONTANGLE_ACCELS (x CONTANGLE_ACCELS)."""
    s, r = (g.ravel() for g in np.meshgrid(CONTANGLE_S, CONTANGLE_ACCELS, indexing="ij"))
    s3, l, n = (g.ravel() for g in np.meshgrid(CONTANGLE_S, CONTANGLE_ACCELS, CONTANGLE_ACCELS, indexing="ij"))
    return {"single": ((s, r), ea.single_report_columns(s, r)),
            "double": ((s3, l, n), ea.double_report_columns(s3, l, n))}


class TestOneContangle:
    """Every report contangle is contangle_from_m of its m column, and holds out to s = 350."""

    def test_tau_columns_are_contangle_from_m_bit_for_bit(self):
        for scenario, (_, columns) in contangle_grids().items():
            for tau, m, _ in CONTANGLE_COLUMNS[scenario]:
                assert columns[tau].tolist() == contangle_from_m(columns[m]).tolist(), tau
        lam, nu = np.meshgrid(np.geomspace(0.01, 50.0, 23), np.geomspace(0.01, 50.0, 19))
        columns = ea.frequency_report_columns(lam, nu, 2 * math.pi, s=np.linspace(0.0, 30.0, 23)[None, :])
        for tau, m in (("tau_ln_infinite", "m_ln_infinite"), ("tau_l_n", "m_l_n")):
            assert columns[tau].tolist() == contangle_from_m(columns[m]).tolist(), tau

    def test_contangle_columns_mpmath_oracle_to_s_350(self):
        """The uncancelled oracle m_leo_nadia needs some 400 digits at s = 350."""
        with mp.workdps(420):
            for scenario, (params, columns) in contangle_grids().items():
                for tau, _, oracle in CONTANGLE_COLUMNS[scenario]:
                    for i, point in enumerate(zip(*params)):
                        ref = oracle(*(mp.mpf(float(p)) for p in point))
                        assert abs(columns[tau][i] - ref) <= 1e-13 * max(1, abs(ref)), (tau, point)

    def test_wedge_contangle_past_overflow(self):
        """m = cosh 400: (m - 1)(m + 1) overflows, (2 arcsinh sqrt((m - 1)/2))^2 does not."""
        assert ea.contangle_r_rbar(200.0).contangle == 160000.0
        assert ea.single_observer_report(1.0, 200.0).tau_r_rbar == 160000.0


def mp_margin(lam, nu, accel):
    """e^{-w lam} + e^{-w nu} - 1 with w = 2 pi / accel, the 1 taken with expm1."""
    lam, nu, w = mp.mpf(lam), mp.mpf(nu), 2 * mp.pi / mp.mpf(accel)
    return mp.exp(-w * max(lam, nu)) + mp.expm1(-w * min(lam, nu))


MARGIN_FREQS = [1e-300, 1e-20, 1e-8, 0.01, 0.5, 3.0, 1e300]


class TestSeparabilityMargin:
    @pytest.mark.parametrize("accel", [20.0, 2 * math.pi, 0.5])
    def test_mpmath_oracle_with_mirrored_points(self, accel):
        """Relative to the margin itself: e^{-w lam} + e^{-w nu} - 1 lost every digit where w lam was tiny."""
        lam, nu = (g.ravel() for g in np.meshgrid(MARGIN_FREQS, MARGIN_FREQS))
        _, margin, separable = ea.frequency_condition(lam, nu, accel)
        _, mirrored, _ = ea.frequency_condition(nu, lam, accel)
        assert margin.tolist() == mirrored.tolist()
        with mp.workdps(60):
            for x, y, value, verdict in zip(lam, nu, margin, separable):
                ref = mp_margin(x, y, accel)
                assert abs(value - ref) <= 1e-13 * abs(ref), (x, y)
                assert verdict == (ref >= 0)

    def test_no_warning_at_the_zero_margin_product(self):
        condition, margin, separable = ea.frequency_condition(1e-300, 1e300, 20.0)
        assert margin == pytest.approx(-2 * math.pi / 20.0 * 1e-300, rel=1e-15)
        assert condition == -math.inf and not separable


class TestArrayForms:
    """Array arguments give, element by element, the bits of the scalar calls."""

    S = np.array([0.0, 0.3, 1.0, 2.5, 12.0])
    A = np.array([0.0, 0.2, 0.79, 1.5, 4.0])

    TWO_PARAMETER_FORMS = [
        ("m_alice_rob", None), ("residual_tripartite", None), ("mutual_info_ar", None),
        ("m_ln_equal_accel", "m_l_n"), ("residual_multipartite", "residual_multipartite"),
        ("tripartite_upper_bound", "tripartite_upper_bound"), ("mutual_info_ln", "mutual_info_ln"),
        ("classical_deficit", "deficit")]

    @pytest.mark.parametrize("name,column", TWO_PARAMETER_FORMS, ids=[name for name, _ in TWO_PARAMETER_FORMS])
    def test_two_parameter_forms(self, name, column):
        """Also, at l = n = a, the double report's column holds the bits of the public function."""
        fn = getattr(ea, name)
        if name == "classical_deficit":  # takes (a, s)
            fn = lambda s, a, deficit=fn: deficit(a, s)
        s, a = np.meshgrid(self.S, self.A, indexing="ij")
        expected = [[fn(float(x), float(y)) for y in self.A] for x in self.S]
        assert fn(s, a).tolist() == expected
        if column is not None:
            assert ea.double_report_columns(s, a, a)[column].tolist() == expected

    @pytest.mark.parametrize("name", ["m_leo_nadia", "mutual_info_ln_general", "r_effective"])
    def test_three_parameter_forms(self, name):
        fn = getattr(ea, name)
        s = self.S[1:, None, None]
        out = fn(s, self.A[None, :, None], self.A[None, None, ::-1])
        assert out.shape == (4, 5, 5)
        for (i, j, k), value in np.ndenumerate(out):
            assert value == fn(float(s[i, 0, 0]), float(self.A[j]), float(self.A[::-1][k]))

    def test_frequency_condition(self):
        """Floats in, (float, float, bool) out; arrays give, element by element, the bits of the point calls."""
        point = ea.frequency_condition(0.7, 1.3, 2 * math.pi)
        assert [type(value) for value in point] == [float, float, bool]
        lam, nu = np.meshgrid(self.A[1:], [0.3, 1.0, 12.0], indexing="ij")
        condition, margin, separable = ea.frequency_condition(lam, nu, 2 * math.pi)
        expected = [[ea.frequency_condition(float(x), float(y), 2 * math.pi) for x, y in zip(*row)]
                    for row in zip(lam, nu)]
        assert np.stack([condition, margin], axis=-1).tolist() == [[list(c[:2]) for c in row] for row in expected]
        assert separable.tolist() == [[c[2] for c in row] for row in expected]
        assert ea.frequency_separability(0.7, 1.3, 2 * math.pi) is point[2]

    def test_deficit_argument_order(self):
        assert ea.classical_deficit(self.A, 1.5).tolist() == [ea.classical_deficit(a, 1.5) for a in self.A]

    def test_negative_element_named(self):
        with pytest.raises(ValueError, match="-0.5"):
            ea.m_alice_rob(np.array([1.0, -0.5]), 0.3)

    def test_report_columns_match_reports(self):
        cols = ea.single_report_columns(self.S[:, None], self.A[None, :])
        for (i, j), _ in np.ndenumerate(cols["tau_ar"]):
            rep = ea.single_observer_report(float(self.S[i]), float(self.A[j])).to_dict()
            assert {k: v[i, j] for k, v in cols.items()} == rep

    def test_report_columns_reject_non_finite(self):
        with pytest.raises(ea.InconsistencyError, match=r"at s=400\.0, r=0\.5"):
            ea.single_report_columns(np.array([1.0, 400.0]), 0.5)

    @pytest.mark.parametrize("name,args,message", [
        ("m_leo_nadia", (400.0, 0.0, 0.0), "m_leo_nadia undefined at s=400.0, l=0.0, n=0.0"),
        ("residual_multipartite", (400.0, 0.5), "residual_multipartite undefined at s=400.0, a=0.5"),
        ("m_alice_rob", (400.0, 0.0), "m_alice_rob undefined at s=400.0, r=0.0"),
    ])
    def test_overflowing_closed_forms_raise_without_a_warning(self, name, args, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ea.InconsistencyError, match=f"^{re.escape(message)}$"):
                getattr(ea, name)(*args)
            assert ea.one_vs_rest_m_single(400.0, 0.5)[0] == math.inf  # an overflow that is no NaN stays inf


# Valid points of every scenario: (kernel, point arguments); r_eff is undefined at s = 0, and
# m_ln_infinite overflows to inf where lam / accel is large
POINT_CHECK_CASES = {
    "single": ("single_report_columns", (1.0, 0.5)),
    "double-equal": ("double_report_columns", (1.0, 0.8, 0.8)),
    "double-unequal": ("double_report_columns", (1.0, 0.4, 1.7)),
    "double-s0": ("double_report_columns", (0.0, 1.0, 2.0)),
    "frequency": ("frequency_report_columns", (1.0, 0.8, 6.2832)),
    "frequency-s": ("frequency_report_columns", (1.0, 0.8, 6.2832, 2.0)),
    "frequency-overflow": ("frequency_report_columns", (12.5875, 1.325, 0.01)),  # m_ln_infinite = inf may stay
}
REPORT_CLASSES = {"single_report_columns": ea.SingleObserverReport,
                  "double_report_columns": ea.DoubleObserverReport}


def recorded_check(monkeypatch, kernel: str, args) -> tuple:
    """The columns and the check arguments (tol aside) that a report kernel hands to _check_columns."""
    calls = []
    check = ea._check_columns

    def record(columns, *rest):
        calls.append((dict(columns), rest[:-1]))
        return check(columns, *rest)
    with monkeypatch.context() as patch:
        patch.setattr(ea, "_check_columns", record)
        getattr(ea, kernel)(*args)
    return calls[0]


def check_outcome(columns: dict, check_args: tuple, tol: float) -> Optional[str]:
    """None when the check passes, else the InconsistencyError's message."""
    try:
        ea._check_columns(columns, *check_args, tol)
    except ea.InconsistencyError as exc:
        return str(exc)
    return None


def injections(point: dict, tol: float, seed: int) -> list:
    """Each float cell of a point made NaN, +-inf or just below its floor, then 150 seeded sets of 2 or 3 of them."""
    bad = {}
    for name, cell in point.items():
        if cell is None or isinstance(cell, (bool, np.bool_)):
            continue
        below = (1.0 - 2.0 * min(tol, ea.M_CLAMP_TOL) if name.startswith("m_") else
                 -2.0 * tol if name in ea._NONNEGATIVE else None)
        bad[name] = [math.nan, math.inf, -math.inf] + ([] if below is None else [below])
    rng = random.Random(seed)
    singles = [{name: value} for name, values in bad.items() for value in values]
    return singles + [{name: rng.choice(bad[name]) for name in rng.sample(sorted(bad), rng.choice((2, 3)))}
                      for _ in range(150)]


class TestPointCheck:
    """A point's check is the grid check, in the same pass over the cells."""

    @pytest.mark.parametrize("case", list(POINT_CHECK_CASES))
    @pytest.mark.parametrize("tol", [0.0, 1e-9, math.inf])  # at tol = inf a residual's floor -inf admits -inf
    def test_point_check_is_the_grid_check(self, monkeypatch, case, tol):
        """One to three cells made NaN, +-inf or just below their floor: the 0-d call and a 2-point call whose
        faulty point comes first both pass, or both raise naming the same field, value and point."""
        kernel, args = POINT_CHECK_CASES[case]
        point, point_args = recorded_check(monkeypatch, kernel, args)
        grid, grid_args = recorded_check(monkeypatch, kernel, [np.array([a, a]) for a in args])
        outcomes = set()
        for cells in injections(point, tol, seed=list(POINT_CHECK_CASES).index(case)):
            columns = {name: grid[name].copy() for name in cells}
            for name, value in cells.items():
                columns[name][0] = value
            at_point = check_outcome({**point, **cells}, point_args, tol)
            on_grid = check_outcome({**grid, **columns}, grid_args, tol)
            assert at_point == on_grid, cells
            # the first injected field, in field order, that fails on its own is named ("<field> = <value>",
            # without the point, which an injected parameter changes); the monogamy residuals come after the fields
            alone = [check_outcome({**point, name: cells[name]}, point_args, tol) for name in point if name in cells]
            failing = [message.split(" at ")[0] for message in alone if message and not message.startswith("mono")]
            if failing:
                assert at_point.split(" at ")[0] == failing[0], cells
            outcomes.add(at_point is None)
        assert outcomes == {True, False}  # each case has cells that pass and cells that fail

    @pytest.mark.parametrize("value", [-1.0, -math.inf, math.nan, math.inf])
    def test_masked_cells_are_skipped(self, monkeypatch, value):
        """A masked cell, where a field is undefined, passes whatever its data holds, finite data below its floor
        included; the same value in an unmasked cell is reported."""
        grid, grid_args = recorded_check(monkeypatch, "double_report_columns",
                                         (np.array([1.0, 1.0]), np.array([0.4, 0.8]), np.array([1.7, 0.8])))
        for name in ("tripartite_upper_bound", "deficit"):
            masked = grid[name].copy()
            masked.data[0] = value
            assert masked.mask.tolist() == [True, False]
            assert check_outcome({**grid, name: masked}, grid_args, 1e-9) is None
            masked.data[1] = value
            message = check_outcome({**grid, name: masked}, grid_args, 1e-9)
            if name == "tripartite_upper_bound" or value != value or abs(value) == math.inf:
                assert message == f"{name} = {value!r} at s=1.0, l=0.8, n=0.8"
            else:  # deficit has no floor: a finite negative value passes
                assert message is None

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_grid_gives_empty_columns(self, shape):
        empty = np.zeros(shape)
        for kernel, args, fields in (
                (ea.single_report_columns, (empty, empty), dataclasses.fields(ea.SingleObserverReport)),
                (ea.double_report_columns, (empty, empty, empty), dataclasses.fields(ea.DoubleObserverReport)),
                (ea.frequency_report_columns, (empty + 1.0, empty + 1.0, empty + 1.0), None),
                (ea.frequency_report_columns, (empty + 1.0, empty + 1.0, empty + 1.0, empty), None)):
            columns = kernel(*args)
            if fields is not None:
                assert list(columns) == [f.name for f in fields]
            assert all(np.shape(column) == shape for column in columns.values())

    @pytest.mark.parametrize("case", list(POINT_CHECK_CASES))
    def test_point_report_is_plain_values_in_field_order(self, case):
        kernel, args = POINT_CHECK_CASES[case]
        report = getattr(ea, kernel)(*args)
        assert {type(v) for v in report.values()} <= {float, bool, type(None)}
        if kernel in REPORT_CLASSES:
            assert list(report) == [f.name for f in dataclasses.fields(REPORT_CLASSES[kernel])]
        else:
            assert list(report) == list(ea.frequency_report_columns(*[np.array([a]) for a in args]))
