import itertools
import math
import re
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rindlercv import entanglement_analysis as ea
from rindlercv.info_measures import contangle_from_m, two_mode_m
from rindlercv.phase_space import (CovMatrix, apply_congruence, is_bona_fide, is_pure, reduce, symplectic_eigenvalues,
                                   two_mode_squeezer, vacuum_cm)
from rindlercv.rindler_frames import (
    accel_to_squeezing,
    build_double_observer_cm,
    build_single_observer_cm,
    double_observer_blocks,
    pure_one_vs_rest_m,
    single_observer_blocks,
    squeezing_to_ratio,
    unruh_temperature,
)

mp.mp.dps = 40

GRID = np.arange(0.25, 3.01, 0.25)


class TestUnruhMap:
    def test_inertial_limit(self):
        # frequency ten times the acceleration: essentially no thermalization
        assert accel_to_squeezing(1.0, 10.0) < 1e-13

    def test_half_boltzmann_factor(self):
        # exp(-2 pi w / accel) = 1/2  ->  cosh r = sqrt 2
        accel = 2 * math.pi / math.log(2.0)
        oracle = float(mp.acosh(mp.sqrt(2)))  # 0.88137358701954302523
        assert accel_to_squeezing(accel, 1.0) == pytest.approx(oracle, rel=1e-12)

    @given(st.floats(0.05, 50.0), st.floats(0.05, 50.0))
    @settings(max_examples=60, deadline=None)
    @example(accel=0.32421875, freq=38.0)  # exp(-2 pi freq / accel) is subnormal here
    @example(accel=0.05, freq=11.75)  # r itself is subnormal here
    def test_round_trip(self, accel, freq):
        r = accel_to_squeezing(accel, freq)
        if r == 0.0:  # underflow for very small accel/freq ratios
            return
        if r >= sys.float_info.min:
            assert squeezing_to_ratio(r) == pytest.approx(freq / accel, rel=1e-10)
            return
        # past freq / accel of about 225 r is subnormal, with fewer than 53 bits, so no float code
        # round-trips it to 1e-10: r must instead be within one subnormal step of the exact map
        x = mp.mpf(math.pi * (freq / accel))
        assert abs(r - mp.asinh(mp.exp(-x) / mp.sqrt(1 - mp.exp(-2 * x)))) <= mp.mpf(2) ** -1074

    @pytest.mark.parametrize("accel,freq", [(0.32421875, 38.0), (1.0, 100.0), (6.0, 1e-6), (2.0, 1.0)])
    def test_mpmath_oracle(self, accel, freq):
        # the oracle takes the same double pi * freq / accel, so only the map itself is tested
        x = mp.mpf(math.pi * (freq / accel))
        oracle = mp.asinh(mp.exp(-x) / mp.sqrt(1 - mp.exp(-2 * x)))
        assert accel_to_squeezing(accel, freq) == pytest.approx(float(oracle), rel=4e-16)

    @pytest.mark.parametrize("r", [1e-8, 0.5, 5.0, 10.0, 15.0, 19.0, 20.0, 30.0])
    def test_ratio_mpmath_oracle(self, r):
        """-ln tanh r to 2 eps where the old -log(tanh r) lost every digit (r >= 19), and round-trips to r."""
        with mp.workdps(80):
            oracle = -mp.log(mp.tanh(mp.mpf(r))) / mp.pi
            assert abs(squeezing_to_ratio(r) - oracle) <= 2 * sys.float_info.epsilon * oracle
        assert accel_to_squeezing(1.0, squeezing_to_ratio(r)) == pytest.approx(r, rel=1e-14)

    @pytest.mark.parametrize("r", [5e-324, 1e-300, 0.5, 20.0, 354.0, 355.0, 400.0, 1e300])
    def test_ratio_is_never_negative(self, r):
        ratio = squeezing_to_ratio(r)
        assert ratio >= 0.0 and math.copysign(1.0, ratio) == 1.0

    def test_array_form_is_the_scalar_form(self):
        freqs = np.array([1e-6, 0.3, 1.0, 38.0, 200.0])
        rs = accel_to_squeezing(np.array([[0.32421875], [6.0]]), freqs)
        assert rs.shape == (2, 5)
        for row, accel in zip(rs, (0.32421875, 6.0)):
            assert row.tolist() == [accel_to_squeezing(accel, f) for f in freqs]
        with pytest.raises(ValueError):
            accel_to_squeezing(1.0, np.array([1.0, 0.0]))

    def test_monotone_in_acceleration(self):
        rs = [accel_to_squeezing(a, 1.0) for a in (0.5, 1.0, 2.0, 10.0)]
        assert rs == sorted(rs)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            accel_to_squeezing(0.0, 1.0)
        with pytest.raises(ValueError):
            accel_to_squeezing(1.0, -2.0)
        with pytest.raises(ValueError):
            squeezing_to_ratio(0.0)

    def test_temperature(self):
        assert unruh_temperature(2 * math.pi) == pytest.approx(1.0, rel=1e-15)


class TestSingleObserverState:
    def test_no_acceleration_factorizes(self):
        sigma = build_single_observer_cm(0.8, 0.0).mat
        pair = apply_congruence(two_mode_squeezer(0.8, 0, 1, 2), vacuum_cm(2)).mat
        np.testing.assert_allclose(sigma[:4, :4], pair, atol=1e-12)
        np.testing.assert_allclose(sigma[4:, 4:], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(sigma[:4, 4:], 0.0, atol=1e-12)

    def test_no_inertial_entanglement_factorizes(self):
        sigma = build_single_observer_cm(0.0, 1.1).mat
        pair = apply_congruence(two_mode_squeezer(1.1, 0, 1, 2), vacuum_cm(2)).mat
        np.testing.assert_allclose(sigma[2:, 2:], pair, atol=1e-12)
        np.testing.assert_allclose(sigma[:2, :2], np.eye(2), atol=1e-12)

    def test_blocks_match_composition_on_grid(self):
        worst = 0.0
        for s in GRID:
            for r in GRID:
                dev = np.abs(build_single_observer_cm(s, r).mat
                             - single_observer_blocks(s, r).mat).max()
                worst = max(worst, dev)
        assert worst < 1e-10

    def test_wedge_marginal_determinant(self):
        bracket = float(mp.cosh(1) ** 2 + mp.cosh(2) * mp.sinh(1) ** 2)  # 7.57705820900412166
        red = reduce(build_single_observer_cm(1.0, 1.0), (2,))
        assert np.linalg.det(red.mat) == pytest.approx(bracket ** 2, rel=1e-12)

    @pytest.mark.parametrize("s", [0.25, 1.0, 2.5])
    @pytest.mark.parametrize("r", [0.25, 1.0, 2.5])
    def test_pure_and_physical(self, s, r):
        sigma = build_single_observer_cm(s, r)
        assert is_bona_fide(sigma)
        np.testing.assert_allclose(symplectic_eigenvalues(sigma), 1.0, atol=1e-8)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            build_single_observer_cm(-0.1, 1.0)
        with pytest.raises(ValueError):
            single_observer_blocks(1.0, -0.1)


class TestDoubleObserverState:
    def test_no_acceleration_factorizes(self):
        sigma = build_double_observer_cm(0.9, 0.0, 0.0).mat
        pair = apply_congruence(two_mode_squeezer(0.9, 0, 1, 2), vacuum_cm(2)).mat
        np.testing.assert_allclose(sigma[2:6, 2:6], pair, atol=1e-12)
        np.testing.assert_allclose(sigma[0:2, 0:2], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(sigma[6:8, 6:8], np.eye(2), atol=1e-12)

    def test_no_inertial_entanglement_gives_two_wedge_pairs(self):
        sigma = build_double_observer_cm(0.0, 0.6, 1.4).mat
        # Leo pair occupies modes (Lbar, L) = (0, 1); squeezer order is immaterial
        pair_l = apply_congruence(two_mode_squeezer(0.6, 1, 0, 2), vacuum_cm(2)).mat
        pair_n = apply_congruence(two_mode_squeezer(1.4, 0, 1, 2), vacuum_cm(2)).mat
        np.testing.assert_allclose(sigma[:4, :4], pair_l, atol=1e-12)
        np.testing.assert_allclose(sigma[4:, 4:], pair_n, atol=1e-12)
        np.testing.assert_allclose(sigma[:4, 4:], 0.0, atol=1e-12)

    def test_blocks_match_composition_on_grid(self):
        worst = 0.0
        for s in GRID[1::2]:
            for l in GRID[1::2]:
                for n in GRID[1::2]:
                    dev = np.abs(build_double_observer_cm(s, l, n).mat
                                 - double_observer_blocks(s, l, n).mat).max()
                    worst = max(worst, dev)
        assert worst < 1e-10

    def test_wedge_pair_contangle_from_cm(self):
        # reduced (Lbar, L) state carries the acceleration entanglement cosh(2l)
        sigma = build_double_observer_cm(1.0, 0.5, 0.5)
        assert two_mode_m(reduce(sigma, (0, 1))) == pytest.approx(math.cosh(1.0), rel=1e-9)

    @pytest.mark.parametrize("s,l,n", [(0.25, 0.5, 1.0), (1.5, 2.0, 0.75), (2.5, 2.5, 2.5)])
    def test_pure_and_physical(self, s, l, n):
        sigma = build_double_observer_cm(s, l, n)
        assert is_bona_fide(sigma)
        np.testing.assert_allclose(symplectic_eigenvalues(sigma), 1.0, atol=1e-8)


class TestPureOneVsRest:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r", [0.0, 0.9, 2.3])
    def test_alice_probe(self, s, r):
        sigma = build_single_observer_cm(s, r)
        assert pure_one_vs_rest_m(sigma, 0) == pytest.approx(math.cosh(2 * s), rel=1e-10)

    @pytest.mark.parametrize("s,a", [(0.5, 0.5), (1.0, 1.5), (2.0, 2.5)])
    def test_antileo_probe(self, s, a):
        sigma = build_double_observer_cm(s, a, a)
        expected = math.cosh(a) ** 2 + math.cosh(2 * s) * math.sinh(a) ** 2
        assert pure_one_vs_rest_m(sigma, 0) == pytest.approx(expected, rel=1e-10)

    def test_decoupled_wedge_at_zero_acceleration(self):
        sigma = build_double_observer_cm(1.0, 0.0, 0.0)
        assert pure_one_vs_rest_m(sigma, 0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_mixed_state(self):
        mixed = reduce(build_single_observer_cm(1.0, 1.0), (0, 1))
        with pytest.raises(ValueError):
            pure_one_vs_rest_m(mixed, 0)

    def test_rejects_a_probe_out_of_range(self):
        """A probe is a mode index as check_mode_set takes it, with its messages; so is each index of a block."""
        sigma = build_single_observer_cm(1.0, 1.0)
        for probe, message in [(5, r"^mode indices \(5,\) out of range for 3 modes$"),
                               (-1, r"^mode indices \(-1,\) out of range for 3 modes$"),
                               (1.0, r"^mode indices must be integers, got 1\.0$")]:
            with pytest.raises(ValueError, match=message):
                pure_one_vs_rest_m(sigma, probe)
        pair = reduce(sigma, (1, 2))
        with pytest.raises(ValueError, match=r"^mode indices \(5,\) out of range for 2 modes$"):
            pair.block(5, 5)
        with pytest.raises(ValueError, match=r"^mode indices must be integers, got 1\.0$"):
            pair.block(0, 1.0)
        assert pair.block(np.int64(1), 0).tolist() == pair.mat[2:4, 0:2].tolist()

    def test_one_purity_rule(self):
        """On 451 built states, s in {0, 0.5, ..., 20} with single r in {0.5, 1} and double l, n in {0, 0.5, 1},
        is_pure answers True exactly where the one-vs-rest m answers, and where either refuses both raise the
        same "... not resolvable at this squeezing"; no state, pure by construction, reads mixed."""
        states = [build(s, *accelerations) for s in np.arange(0.0, 20.25, 0.5).tolist()
                  for build, grid in ((build_single_observer_cm, [(0.5,), (1.0,)]),
                                      (build_double_observer_cm, itertools.product((0.0, 0.5, 1.0), repeat=2)))
                  for accelerations in grid]
        assert len(states) == 451
        refused = 0
        for sigma in states:
            try:
                pure = is_pure(sigma)
            except ValueError as error:
                assert "not resolvable at this squeezing" in str(error)
                with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                    pure_one_vs_rest_m(sigma, 0)
                refused += 1
                continue
            assert pure
            assert pure_one_vs_rest_m(sigma, 0) >= 1.0
        assert 0 < refused < len(states)

    def test_unresolvable_purity_is_named_as_such(self):
        """From s = 7 at r = 0.5 the purity check fails within the resolution eps * max|sigma|^2: the message says so.

        A mixed state stays "not pure" however large its entries: 1e5 * I has
        every symplectic eigenvalue 1e5, far beyond its floor of 2.2e-6.
        """
        assert pure_one_vs_rest_m(build_single_observer_cm(6.0, 0.5), 0) == pytest.approx(math.cosh(12.0), rel=1e-10)
        for s in (7.0, 8.0, 12.0, 20.0):
            with pytest.raises(ValueError, match=r"purity not resolvable at this squeezing \(eps \* max\|sigma\|\^2 ="):
                pure_one_vs_rest_m(build_single_observer_cm(s, 0.5), 0)
        for mixed in (2 * np.eye(6), 1e5 * np.eye(6)):
            with pytest.raises(ValueError, match="global state must be pure"):
                pure_one_vs_rest_m(CovMatrix(mixed), 0)


class TestStructuralInvariants:
    def test_triangle_inequality_all_probes(self):
        for s in GRID:
            for r in GRID:
                ms = [pure_one_vs_rest_m(build_single_observer_cm(s, r), k) for k in range(3)]
                for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                    assert abs(ms[i] - ms[j]) + 1.0 <= ms[k] + 1e-9
                    assert ms[k] <= ms[i] + ms[j] - 1.0 + 1e-9

    def test_left_edge_saturation(self):
        for s in GRID:
            for r in GRID:
                sigma = build_single_observer_cm(s, r)
                m_a = pure_one_vs_rest_m(sigma, 0)
                m_r = pure_one_vs_rest_m(sigma, 1)
                m_rbar = pure_one_vs_rest_m(sigma, 2)
                assert m_rbar == pytest.approx(m_r - m_a + 1.0, abs=1e-10)

    def test_alice_vs_rest_independent_of_acceleration(self):
        base = pure_one_vs_rest_m(build_single_observer_cm(1.3, 0.0), 0)
        for r in (0.5, 1.5, 3.0):
            assert pure_one_vs_rest_m(build_single_observer_cm(1.3, r), 0) == pytest.approx(base, rel=1e-12)

    @given(st.floats(0.1, 2.5), st.floats(0.0, 2.5), st.floats(0.0, 2.5))
    @settings(max_examples=40, deadline=None)
    def test_group_bipartition_preserves_inertial_contangle(self, s, l, n):
        # the (anti-Leo, Leo) vs (Nadia, anti-Nadia) split keeps tau = 4 s^2
        sigma = build_double_observer_cm(s, l, n)
        m_group = math.sqrt(np.linalg.det(reduce(sigma, (0, 1)).mat))
        assert contangle_from_m(m_group) == pytest.approx(4 * s * s, rel=1e-7, abs=1e-9)


def outcome(call):
    """call()'s matrix as bytes, or the type and message of the ValueError it raised; a numpy warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call().mat.tobytes()
        except ValueError as exc:
            return type(exc), str(exc)


def composition_points():
    """Seeded pairs in [0, 20]^2, then a grid from 0 out to 1e300, where squeezers, states or blocks overflow."""
    edges = (0.0, 1e-300, 0.5, 1.0, 12.0, 100.0, 178.0, 300.0, 355.0, 356.0, 400.0, 800.0, 1e300)
    rng = np.random.default_rng(2007)
    return [tuple(p) for p in rng.uniform(0.0, 20.0, (1000, 2)).tolist()] + [(x, y) for x in edges for y in edges]


class TestOneComposition:
    """Every scenario state is the two-observer state or a reduction of it with one observer inertial."""

    @pytest.mark.parametrize("single,double", [(build_single_observer_cm, build_double_observer_cm),
                                               (single_observer_blocks, double_observer_blocks)],
                             ids=["composition", "blocks"])
    def test_one_observer_is_the_two_observer_state_with_leo_inertial(self, single, double):
        """(A, R, anti-R) are (L, N, anti-N) at l = 0, bit for bit, refusals included."""
        for s, r in composition_points():
            assert outcome(lambda: single(s, r)) == outcome(lambda: reduce(double(s, 0.0, r), (1, 2, 3))), (s, r)

    @pytest.mark.parametrize("single", [build_single_observer_cm, single_observer_blocks])
    def test_one_observer_names_its_own_parameters(self, single):
        with pytest.raises(ValueError, match=r"^r must be finite and nonnegative, got -0.5$"):
            single(1.0, -0.5)
        with pytest.raises(ValueError, match=r"^s must be finite and nonnegative, got inf$"):
            single(math.inf, 0.5)

    def test_bound_ansatz_is_the_two_observer_state_with_nadia_inertial(self):
        """The ansatz at (s, a) is (anti-L, L, N) at inertial squeezing t and n = 0, bit for bit, refusals included.

        Where sech s underflows at sinh a = 0 (s past about 710), t is infinite: its squeezer overflows, as it
        did when the ansatz composed its own chain.
        """
        for s, a in composition_points():
            t = ea._evaluate(ea._bound_ansatz_t, s=s, a=a)
            expected = ((ValueError, "symplectic matrix entries must be finite") if t == math.inf
                        else outcome(lambda: reduce(build_double_observer_cm(t, a, 0.0), (0, 1, 2))))
            assert outcome(lambda: ea.tripartite_bound_ansatz_cm(s, a)) == expected, (s, a)
