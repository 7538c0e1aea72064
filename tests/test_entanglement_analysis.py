import math

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
        for s in COARSE:
            for a in COARSE:
                gamma = ea.tripartite_bound_ansatz_cm(s, a)
                assert is_pure(gamma)
                assert is_bona_fide(gamma)
                sigma = reduce(build_double_observer_cm(s, a, a), (0, 1, 2))
                min_eig = np.linalg.eigvalsh(sigma.mat - gamma.mat).min()
                assert min_eig >= -1e-9

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

    def test_report_dict_round_trip(self):
        d = ea.single_observer_report(1.0, 0.5).to_dict()
        assert d["s"] == 1.0 and "tau_ar" in d


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


class TestLargeSqueezing:
    """The closed forms hold out to s = 20, at exactly zero acceleration too."""

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


class TestArrayForms:
    """Array arguments give, element by element, the bits of the scalar calls."""

    S = np.array([0.0, 0.3, 1.0, 2.5, 12.0])
    A = np.array([0.0, 0.2, 0.79, 1.5, 4.0])

    @pytest.mark.parametrize("name", ["m_alice_rob", "residual_tripartite", "mutual_info_ar",
                                      "m_ln_equal_accel", "residual_multipartite",
                                      "tripartite_upper_bound", "mutual_info_ln"])
    def test_two_parameter_forms(self, name):
        fn = getattr(ea, name)
        s, a = np.meshgrid(self.S, self.A, indexing="ij")
        expected = [[fn(float(x), float(y)) for y in self.A] for x in self.S]
        assert fn(s, a).tolist() == expected

    @pytest.mark.parametrize("name", ["m_leo_nadia", "mutual_info_ln_general", "r_effective"])
    def test_three_parameter_forms(self, name):
        fn = getattr(ea, name)
        s = self.S[1:, None, None]
        out = fn(s, self.A[None, :, None], self.A[None, None, ::-1])
        assert out.shape == (4, 5, 5)
        for (i, j, k), value in np.ndenumerate(out):
            assert value == fn(float(s[i, 0, 0]), float(self.A[j]), float(self.A[::-1][k]))

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
