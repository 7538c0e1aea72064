import ast
import itertools
import math
import pathlib
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindlercv import entanglement_analysis as ea
from rindlercv import phase_space, rindler_frames
from rindlercv.phase_space import (
    CovMatrix,
    SympTransform,
    apply_congruence,
    check_mode_set,
    is_bona_fide,
    is_pure,
    partial_transpose,
    reduce,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_marginals,
    two_mode_squeezer,
    vacuum_cm,
)
from rindlercv.rindler_frames import (build_double_observer_cm, build_single_observer_cm, double_observer_blocks,
                                     single_observer_blocks)

from conftest import assert_symplectic, random_physical_cm, random_symplectic

COSH1 = 1.5430806348152437  # cosh(1), 17 digits
SINH1 = 1.1752011936438014  # sinh(1)


def tms_cm(s: float) -> CovMatrix:
    return apply_congruence(two_mode_squeezer(s, 0, 1, 2), vacuum_cm(2))


class TestSymplecticForm:
    def test_one_mode(self):
        np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_direct_sum(self):
        omega = symplectic_form(2)
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(omega[:2, :2], block)
        np.testing.assert_array_equal(omega[2:, 2:], block)
        np.testing.assert_array_equal(omega[:2, 2:], np.zeros((2, 2)))

    def test_orthogonality_three_modes(self):
        omega = symplectic_form(3)
        np.testing.assert_allclose(omega @ omega.T, np.eye(6), atol=0)
        np.testing.assert_allclose(omega @ omega, -np.eye(6), atol=0)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestTwoModeSqueezer:
    def test_zero_squeezing_is_identity(self):
        S = two_mode_squeezer(0.0, 0, 1, 2)
        np.testing.assert_array_equal(S.mat, np.eye(4))

    def test_unit_squeezing_entries(self):
        S = two_mode_squeezer(1.0, 0, 1, 2).mat
        np.testing.assert_allclose(np.diag(S), COSH1, rtol=1e-15)
        np.testing.assert_allclose(S[0, 2], SINH1, rtol=1e-15)
        np.testing.assert_allclose(S[1, 3], -SINH1, rtol=1e-15)
        np.testing.assert_allclose(S[2, 0], SINH1, rtol=1e-15)
        np.testing.assert_allclose(S[3, 1], -SINH1, rtol=1e-15)

    def test_inverse_squeezing(self):
        S = two_mode_squeezer(0.7, 0, 1, 2)
        Sinv = two_mode_squeezer(-0.7, 0, 1, 2)
        np.testing.assert_allclose(S.mat @ Sinv.mat, np.eye(4), atol=1e-14)

    def test_embedding_leaves_other_modes_alone(self):
        S = two_mode_squeezer(0.9, 0, 2, 4).mat
        np.testing.assert_array_equal(S[2:4, 2:4], np.eye(2))
        np.testing.assert_array_equal(S[6:8, 6:8], np.eye(2))

    @pytest.mark.parametrize("r", [-2.5, -0.3, 0.0, 0.4, 3.0])
    def test_symplectic_condition(self, r):
        assert_symplectic(two_mode_squeezer(r, 1, 2, 3).mat)

    def test_equal_modes_rejected(self):
        with pytest.raises(ValueError, match=r"^mode indices must be distinct, got \(1, 1\)$"):
            two_mode_squeezer(1.0, 1, 1, 3)

    def test_out_of_range_mode_rejected(self):
        with pytest.raises(ValueError):
            two_mode_squeezer(1.0, 0, 3, 3)


class TestCongruence:
    def test_identity_congruence(self):
        sigma = tms_cm(0.8)
        out = apply_congruence(SympTransform(np.eye(4)), sigma)
        np.testing.assert_array_equal(out.mat, sigma.mat)

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.0])
    def test_squeezed_vacuum_blocks(self, s):
        sigma = tms_cm(s).mat
        c2, s2 = math.cosh(2 * s), math.sinh(2 * s)
        expected = np.array([
            [c2, 0, s2, 0],
            [0, c2, 0, -s2],
            [s2, 0, c2, 0],
            [0, -s2, 0, c2],
        ])
        np.testing.assert_allclose(sigma, expected, atol=1e-12)

    def test_spectrum_preserved_under_symplectic(self, rng):
        for _ in range(120):
            n = int(rng.integers(2, 5))
            sigma = random_physical_cm(n, rng)
            S = random_symplectic(n, rng)
            before = symplectic_eigenvalues(sigma)
            after = symplectic_eigenvalues(S.mat @ sigma @ S.mat.T)
            np.testing.assert_allclose(after, before, rtol=1e-8, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_congruence(two_mode_squeezer(1.0, 0, 1, 2), vacuum_cm(3))


class TestVacuum:
    @pytest.mark.parametrize("n", [1, 3])
    def test_identity(self, n):
        np.testing.assert_array_equal(vacuum_cm(n).mat, np.eye(2 * n))

    def test_pure_spectrum(self):
        np.testing.assert_allclose(symplectic_eigenvalues(vacuum_cm(3)), np.ones(3), atol=0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            vacuum_cm(0)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_one_shared_read_only_instance_per_size(self, n):
        assert vacuum_cm(n) is vacuum_cm(n)
        assert not vacuum_cm(n).mat.flags.writeable
        with pytest.raises(ValueError):
            vacuum_cm(n).mat[0, 0] = 2.0
        np.testing.assert_array_equal(vacuum_cm(n).mat, np.eye(2 * n))


class TestReduce:
    def test_keep_all_is_identity(self):
        sigma = build_single_observer_cm(0.7, 0.4)
        np.testing.assert_array_equal(reduce(sigma, (0, 1, 2)).mat, sigma.mat)

    @pytest.mark.parametrize("s", [0.4, 1.0, 2.2])
    def test_single_mode_of_squeezed_pair(self, s):
        red = reduce(tms_cm(s), (0,))
        np.testing.assert_allclose(red.mat, math.cosh(2 * s) * np.eye(2), atol=1e-12)

    def test_wedge_partner_of_scenario_state(self):
        # anti-Rob reduction at s = r = 1: [cosh^2 1 + cosh 2 sinh^2 1] I
        bracket = 7.5770582090041217
        red = reduce(build_single_observer_cm(1.0, 1.0), (2,))
        np.testing.assert_allclose(red.mat, bracket * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(red.mat), bracket ** 2, rtol=1e-12)

    @given(st.sets(st.integers(0, 3), min_size=1, max_size=4),
           st.sets(st.integers(0, 3), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_reduction_composes(self, big, small):
        small = small & big
        if not small:
            return
        sigma = build_double_observer_cm(0.8, 0.5, 0.3)
        via_big = reduce(reduce(sigma, sorted(big)), [sorted(big).index(m) for m in sorted(small)])
        direct = reduce(sigma, sorted(small))
        np.testing.assert_array_equal(via_big.mat, direct.mat)

    def test_bad_keep_sets(self):
        sigma = vacuum_cm(2)
        with pytest.raises(ValueError):
            reduce(sigma, ())
        with pytest.raises(ValueError):
            reduce(sigma, (0, 2))


class TestPartialTranspose:
    def test_involution(self, rng):
        for _ in range(25):
            sigma = random_physical_cm(3, rng)
            out = partial_transpose(partial_transpose(sigma, (1,)), (1,)).mat
            np.testing.assert_array_equal(out, CovMatrix(sigma).mat)

    def test_vacuum_invariant(self):
        np.testing.assert_array_equal(partial_transpose(vacuum_cm(2), (0,)).mat, np.eye(4))

    def test_squeezed_pair_spectrum(self):
        # transposing one mode of the s=1 pair exposes eigenvalues e^{-2s}, e^{2s}
        pt = partial_transpose(tms_cm(1.0), (1,))
        etas = symplectic_eigenvalues(pt)
        np.testing.assert_allclose(etas, [math.exp(-2.0), math.exp(2.0)], rtol=1e-12)
        # sign pattern of the off-diagonal block flips
        np.testing.assert_allclose(pt.mat[0:2, 2:4], math.sinh(2.0) * np.eye(2), atol=1e-12)

    def test_full_or_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            partial_transpose(vacuum_cm(2), (0, 1))
        with pytest.raises(ValueError):
            partial_transpose(vacuum_cm(2), ())


class TestSymplecticEigenvalues:
    @pytest.mark.parametrize("s,r", [(0.3, 0.2), (1.0, 1.0), (2.5, 0.7), (0.6, 2.9)])
    def test_scenario_state_is_pure(self, s, r):
        etas = symplectic_eigenvalues(build_single_observer_cm(s, r))
        np.testing.assert_allclose(etas, np.ones(3), atol=1e-8)

    @pytest.mark.parametrize("s", [0.5, 1.3])
    @pytest.mark.parametrize("r", [0.4, 2.0])
    def test_alice_rob_reduction_spectrum(self, s, r):
        sigma = build_single_observer_cm(s, r)
        etas = symplectic_eigenvalues(reduce(sigma, (0, 1)))
        eta_plus = math.cosh(r) ** 2 + math.cosh(2 * s) * math.sinh(r) ** 2
        np.testing.assert_allclose(etas, [1.0, eta_plus], rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("s,a", [(0.7, 0.5), (1.5, 1.0)])
    def test_leo_nadia_reduction_degenerate(self, s, a):
        sigma = build_double_observer_cm(s, a, a)
        red = reduce(sigma, (1, 2))
        etas = symplectic_eigenvalues(red)
        quarter_root = np.linalg.det(red.mat) ** 0.25
        np.testing.assert_allclose(etas, [quarter_root, quarter_root], rtol=1e-9)

    def test_non_symmetric_rejected(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError):
            symplectic_eigenvalues(bad)

    def test_failed_pairing_names_the_rounding_floor(self):
        """At s = 12 the Leo-Nadia reduction's moduli pair only to eps * max|sigma|^2 (3.9e4): rounding, so said."""
        red = reduce(double_observer_blocks(12.0, 0.0, 1e-3), (1, 2))
        with pytest.raises(ValueError, match=r"^symplectic spectrum not resolvable at this squeezing "
                                             r"\(eps \* max\|sigma\|\^2 = 3\.9e\+04\): "
                                             r"could not pair symplectic eigenvalues 0\.839\d* vs 0\.861\d*$"):
            symplectic_eigenvalues(red)


class TestBonaFide:
    def test_vacuum(self):
        assert is_bona_fide(vacuum_cm(1))

    def test_uncertainty_violation(self):
        assert not is_bona_fide(CovMatrix(0.5 * np.eye(2)))

    @pytest.mark.parametrize("s", [0.25, 1.5, 2.5])
    @pytest.mark.parametrize("r", [0.25, 1.5, 2.5])
    def test_scenario_states_physical(self, s, r):
        assert is_bona_fide(build_single_observer_cm(s, r))
        assert is_bona_fide(build_double_observer_cm(s, r, 0.5 * r))

    def test_deep_squeezing_corner_physical_to_float_resolution(self):
        assert is_bona_fide(build_single_observer_cm(3.0, 3.0))
        assert is_bona_fide(build_double_observer_cm(3.0, 3.0, 3.0))

    def test_every_pure_built_state_is_bona_fide(self):
        """420 built states: single (s, r) and double (s, l, n) over the squeezings below, l and n in {0, 0.5, 1, 3}.

        A few deep ones have a spectrum that cannot be paired; both predicates raise on those.
        """
        squeezings = [0, 0.25, 0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 8, 10, 20]
        states = [build_single_observer_cm(s, r) for s in squeezings for r in squeezings]
        states += [build_double_observer_cm(s, l, n) for s in squeezings for l in (0, 0.5, 1, 3) for n in (0, 0.5, 1, 3)]
        assert len(states) == 420
        contradictions = []
        for k, sigma in enumerate(states):
            try:
                symplectic_eigenvalues(sigma)
            except ValueError:
                continue
            if is_pure(sigma) and not is_bona_fide(sigma):
                contradictions.append(k)
        assert contradictions == []

    @given(st.floats(0.0, 4.0), st.floats(-1.0, 1.0), st.floats(-3e-6, 3e-6), st.floats(-3e-6, 3e-6))
    @settings(max_examples=80, deadline=None)
    def test_pure_implies_bona_fide_near_unit_spectra(self, r, z, d1, d2):
        """S diag(1 + d1, 1 + d1, 1 + d2, 1 + d2) S^T with S a two-mode and a local squeezer."""
        S = two_mode_squeezer(r, 0, 1, 2).mat @ np.diag([math.exp(z), math.exp(-z), 1.0, 1.0])
        sigma = CovMatrix(S @ np.diag([1 + d1, 1 + d1, 1 + d2, 1 + d2]) @ S.T)
        assert is_bona_fide(sigma) or not is_pure(sigma)

    @pytest.mark.parametrize("mat", [np.diag([-1.0, -1.0, 1.0, 1.0]), np.diag([-1.0, 1.0, 1.0, 1.0]),
                                     np.diag([0.5, 0.5, 1.0, 1.0]), -np.eye(4)],
                             ids=["diag(-1,-1,1,1)", "diag(-1,1,1,1)", "diag(0.5,0.5,1,1)", "-I"])
    def test_not_positive_definite_is_not_physical(self, mat):
        """sigma + i Omega >= 0 needs sigma > 0, whatever |eig(Omega sigma)| says."""
        assert not is_bona_fide(CovMatrix(mat))
        assert not is_pure(CovMatrix(mat))
        assert not is_bona_fide(mat) and not is_pure(mat)

    @pytest.mark.parametrize("s", [12.0, 20.0])
    def test_deeply_squeezed_states_failing_cholesky_stay_bona_fide(self, s):
        """Rounding leaves these just indefinite: -6.0e-6 and -11, inside 32 eps max|sigma|."""
        sigma = build_single_observer_cm(s, 0.5)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sigma.mat)
        assert np.linalg.eigvalsh(sigma.mat)[0] < 0.0
        assert is_bona_fide(sigma)

    def test_determinant_at_least_one(self, rng):
        for _ in range(40):
            sigma = random_physical_cm(int(rng.integers(1, 4)), rng)
            assert np.linalg.det(sigma) >= 1.0 - 1e-9


class TestContainers:
    def test_symmetrization_below_tolerance(self):
        mat = np.eye(2)
        mat[0, 1] = 1e-13
        cov = CovMatrix(mat)
        assert cov.mat[0, 1] == cov.mat[1, 0]

    def test_asymmetry_rejected(self):
        mat = np.eye(2)
        mat[0, 1] = 1e-6
        with pytest.raises(ValueError):
            CovMatrix(mat)

    def test_covariance_is_immutable(self):
        cov = vacuum_cm(1)
        with pytest.raises(ValueError):
            cov.mat[0, 0] = 2.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            CovMatrix(np.eye(3))

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError):
            SympTransform(2.0 * np.eye(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_symplectic_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SympTransform(np.full((2, 2), bad))
        with pytest.raises(ValueError, match="finite"):
            two_mode_squeezer(bad, 0, 1, 2)

    def test_symmetrization_keeps_huge_entries(self, recwarn):
        cov = CovMatrix(np.diag([1e308, 1e308, 1.0, 1.0]))
        assert cov.mat.diagonal().tolist() == [1e308, 1e308, 1.0, 1.0]
        assert not recwarn.list

    def test_symmetrization_matches_the_sum_form_on_normal_floats(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            mat = rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-30, 30)
            mat = mat + mat.T
            mat[0, 1] += 1e-14 * abs(mat).max()  # an asymmetry below the tolerance
            assert np.array_equal(CovMatrix(mat).mat, 0.5 * (mat + mat.T))

    @pytest.mark.parametrize("make", [lambda: CovMatrix(np.eye(2)), lambda: two_mode_squeezer(0.5, 0, 1, 2)],
                             ids=["CovMatrix", "SympTransform"])
    def test_equality_and_hashing_are_by_identity(self, make):
        a, b = make(), make()
        assert np.array_equal(a.mat, b.mat)
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b} and len({a, b}) == 2
        assert {a: 1}[a] == 1

    def test_purity_predicate(self):
        assert is_pure(tms_cm(1.0))
        assert not is_pure(reduce(build_single_observer_cm(1.0, 1.0), (0, 1)))


def seeded_states(count: int = 12):
    """Scenario states at seeded (s, r) and (s, l, n) points, with two-mode reductions of each."""
    rng = np.random.default_rng(9)
    states = []
    for _ in range(count):
        s, r, l, n = rng.uniform(0.0, 3.0, 4)
        single, double = build_single_observer_cm(s, r), build_double_observer_cm(s, l, n)
        states += [single, reduce(single, (0, 1)), double, reduce(double, (1, 2))]
    return states


def fresh(cov):
    """A new state with cov's matrix and route and nothing memoised: the reduction to every mode."""
    return reduce(cov, range(cov.n_modes))


class TestMemo:
    """A CovMatrix computes its spectrum and each partial transpose once and reuses them."""

    def test_memo_matches_a_fresh_state_bit_for_bit(self):
        """Against a fresh state of the same route; a state of more than two modes takes the public route too."""
        for cov in seeded_states():
            first = symplectic_eigenvalues(cov)
            same_route = [fresh] + ([lambda cov: CovMatrix(cov.mat)] if cov.n_modes > 2 else [])
            for modes in [(0,), (1,)] + ([(0, 1)] if cov.n_modes > 2 else []):
                pt = partial_transpose(cov, modes)
                for other in same_route:
                    fresh_pt = partial_transpose(other(cov), modes)
                    assert pt.mat.tobytes() == fresh_pt.mat.tobytes()
                    assert symplectic_eigenvalues(pt).tobytes() == symplectic_eigenvalues(fresh_pt).tobytes()
                    assert symplectic_eigenvalues(pt).tobytes() == symplectic_eigenvalues(other(pt)).tobytes()
            assert symplectic_eigenvalues(cov).tobytes() == first.tobytes()
            for other in same_route:
                assert first.tobytes() == symplectic_eigenvalues(other(cov)).tobytes()
                assert is_pure(cov) == is_pure(other(cov))

    def test_marginals_match_a_fresh_state_and_separate_determinants_bit_for_bit(self):
        for cov in seeded_states():
            for pair in ([(0, 1), (1, 2), (0, 2)] if cov.n_modes == 3 else
                         [(0, 1), (1, 2), (2, 3), (0, 3)] if cov.n_modes == 4 else [(0, 1)]):
                red = reduce(cov, pair)
                kept, public = two_mode_marginals(red), two_mode_marginals(CovMatrix(red.mat))
                assert type(kept) is tuple and all(type(v) is float for v in kept + public)
                assert two_mode_marginals(red) is kept
                assert np.array(two_mode_marginals(fresh(red))).tobytes() == np.array(kept).tobytes()
                separate = (math.sqrt(np.linalg.det(red.block(0, 0))), math.sqrt(np.linalg.det(red.block(1, 1))),
                            float(np.linalg.det(red.block(0, 1))))
                for other in (two_mode_marginals(red.mat), separate):
                    assert np.array(other).tobytes() == np.array(public).tobytes()
                # the factor's a, b and D_1 D_2 c^2 against the blocks' determinants
                np.testing.assert_allclose(kept, public, rtol=1e-13)

    def test_marginals_need_two_modes(self):
        with pytest.raises(ValueError, match="two-mode"):
            two_mode_marginals(vacuum_cm(3))

    def test_mutating_a_returned_spectrum_changes_nothing_later(self):
        cov = build_double_observer_cm(1.1, 0.4, 0.7)
        etas = symplectic_eigenvalues(cov)
        expected = etas.copy()
        etas[:] = -1.0
        np.testing.assert_array_equal(symplectic_eigenvalues(cov), expected)
        assert symplectic_eigenvalues(cov).flags.writeable

    def test_mutating_a_symplectic_form_changes_nothing_later(self):
        omega = symplectic_form(2)
        omega[:] = 7.0
        np.testing.assert_array_equal(symplectic_form(2), [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        assert symplectic_form(2).flags.writeable
        assert_symplectic(two_mode_squeezer(0.8, 0, 1, 2).mat)
        np.testing.assert_allclose(symplectic_eigenvalues(tms_cm(0.8)), [1.0, 1.0], atol=1e-12)

    def test_transposes_are_keyed_by_the_sorted_mode_set(self):
        cov = build_single_observer_cm(0.9, 0.6)
        pt0 = partial_transpose(cov, (0,))
        assert partial_transpose(cov, [0]) is pt0
        assert partial_transpose(cov, np.array([0])) is pt0
        pt1 = partial_transpose(cov, (1,))
        assert pt1 is not pt0 and pt1.mat.tobytes() != pt0.mat.tobytes()
        assert partial_transpose(cov, (1, 0)) is partial_transpose(cov, [0, 1])
        for modes in ((0,), (1,), (0, 1)):
            assert partial_transpose(cov, modes).mat.tobytes() == partial_transpose(cov.mat, modes).mat.tobytes()
        with pytest.raises(ValueError, match="distinct"):
            partial_transpose(cov, (0, 0))
        with pytest.raises(ValueError, match="proper subset"):
            partial_transpose(cov, (0, 1, 2))

    def test_threads_sharing_a_state_get_identical_results(self):
        """More threads than cores race on fresh states; every one gets the same transpose object and bits."""
        def work(cov):
            pt = partial_transpose(cov, [0])
            return pt, (symplectic_eigenvalues(cov).tobytes(), symplectic_eigenvalues(pt).tobytes(), is_pure(cov))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cov in seeded_states(6):
                barrier, results = threading.Barrier(6), [None] * 6

                def run(k, cov=cov, barrier=barrier, results=results):
                    barrier.wait(timeout=10)
                    results[k] = work(cov)
                threads = [threading.Thread(target=run, args=(k,)) for k in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                assert len({id(pt) for pt, _ in results}) == 1
                expected = work(fresh(cov))[1]
                assert all(values == expected for _, values in results)
        finally:
            sys.setswitchinterval(interval)


class TestValidationMessages:
    """Every constructed matrix is still validated, with the same messages."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_covariance(self, bad):
        mat = np.eye(4)
        mat[2, 3] = mat[3, 2] = bad
        with pytest.raises(ValueError, match="^covariance matrix entries must be finite$"):
            CovMatrix(mat)

    def test_asymmetric_covariance(self):
        mat = np.eye(4)
        mat[0, 3] = 1e-6
        with pytest.raises(ValueError, match=r"^covariance matrix not symmetric \(asymmetry 1\.000e-06\)$"):
            CovMatrix(mat)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 2)])
    def test_non_square_covariance(self, shape):
        with pytest.raises(ValueError, match=r"^covariance matrix must be square, got shape"):
            CovMatrix(np.ones(shape))

    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_odd_or_empty_covariance(self, size):
        with pytest.raises(ValueError, match=r"^covariance matrix must be 2Nx2N with N >= 1"):
            CovMatrix(np.eye(size))

    @pytest.mark.parametrize("mat", [2.0 * np.eye(4), np.full((2, 2), 1.0)])
    def test_non_symplectic(self, mat):
        with pytest.raises(ValueError, match=r"^matrix does not preserve the symplectic form \(defect"):
            SympTransform(mat)

    def test_symplectic_check_past_an_overflowing_square(self):
        """Past max|S| = 1.3e154, where max|S|^2 overflows, the defect of S / max|S| is still tested."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^matrix does not preserve the symplectic form \(defect 1\.000e\+00"):
                SympTransform(np.diag([1e160, 1e160, 1.0, 1.0]))
            assert two_mode_squeezer(400.0, 0, 1, 2).mat[0, 0] == np.cosh(400.0)  # cosh r = sinh r: symplectic

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (0, 0), (4,)])
    def test_bad_symplectic_shape(self, shape):
        with pytest.raises(ValueError, match=r"^symplectic matrix must be 2Nx2N, got shape"):
            SympTransform(np.ones(shape))


# The plain expressions the shared constants replace: each result must equal theirs bit for bit.
def plain_squeezer(r, i, j, n_modes):
    c, s = np.cosh(r), np.sinh(r)
    out = np.eye(2 * n_modes)
    xi, pi, xj, pj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
    out[xi, xi] = out[pi, pi] = out[xj, xj] = out[pj, pj] = c
    out[xi, xj] = out[xj, xi] = s
    out[pi, pj] = out[pj, pi] = -s
    return SympTransform(out)


def plain_double_observer_blocks(s, l, n):
    """The four-mode closed form assembled block by block, each 2x2 block a scalar times I or Z = diag(1, -1)."""
    i2, z2 = np.eye(2), np.diag([1.0, -1.0])

    def local_bar(x):  # anti-observer marginal
        return (math.cosh(x) ** 2 + ch2s * math.sinh(x) ** 2) * i2

    def local(x):  # observer marginal
        return (math.cosh(x) ** 2 * ch2s + math.sinh(x) ** 2) * i2

    def wedge_pair(x):  # observer with own anti-observer
        return (chs2 * math.sinh(2 * x)) * z2

    def bar_cross(x, y):  # anti-observer of x with the other observer y
        return (math.cosh(y) * sh2s * math.sinh(x)) * i2

    try:
        ch2s, sh2s, chs2 = math.cosh(2 * s), math.sinh(2 * s), math.cosh(s) ** 2
        with np.errstate(invalid="ignore"):  # inf times a 0 of I or Z: a NaN that CovMatrix refuses
            blocks = {
                (0, 0): local_bar(l), (1, 1): local(l), (2, 2): local(n), (3, 3): local_bar(n),
                (0, 1): wedge_pair(l), (0, 2): bar_cross(l, n), (0, 3): (sh2s * math.sinh(l) * math.sinh(n)) * z2,
                (1, 2): (math.cosh(l) * math.cosh(n) * sh2s) * z2, (1, 3): bar_cross(n, l), (2, 3): wedge_pair(n),
            }
    except OverflowError:
        raise ValueError("covariance matrix entries must be finite") from None
    out = np.zeros((8, 8))
    for (i, j), blk in blocks.items():
        out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blk
        if i != j:
            out[2 * j:2 * j + 2, 2 * i:2 * i + 2] = blk.T
    return CovMatrix(out)


def plain_quad_indices(modes):
    return np.array([q for m in sorted(modes) for q in (2 * m, 2 * m + 1)])


def plain_partial_transpose(cov, modes):
    flip = np.ones(2 * cov.n_modes)
    for m in modes:
        flip[2 * m + 1] = -1.0
    return CovMatrix(flip[:, None] * cov.mat * flip[None, :])


def plain_spectrum(cov):
    """Spectrum with the skew part formed as 0.5 * (skew - skew.T) and pairs averaged as 0.5 * (lo + hi)."""
    chol = np.linalg.cholesky(cov.mat)
    skew = chol.T @ symplectic_form(cov.n_modes) @ chol
    mags = np.linalg.svd(0.5 * (skew - skew.T), compute_uv=False)[::-1].tolist()
    return np.array([0.5 * (mags[2 * k] + mags[2 * k + 1]) for k in range(cov.n_modes)])


def plain_check_mode_set(modes, n_modes):
    out = tuple(map(int, modes))
    if not out:
        raise ValueError("mode index set must be nonempty")
    if len(set(out)) != len(out):
        raise ValueError(f"mode indices must be distinct, got {out}")
    ordered = sorted(out)
    if ordered[0] < 0 or ordered[-1] >= n_modes:
        raise ValueError(f"mode indices {out} out of range for {n_modes} modes")
    return tuple(ordered)


# s, l and n from 0 out to 1e300, across the points where cosh, sinh and their products leave the float range
OVERFLOW_EDGES = (0.0, 1e-300, 0.5, 20.0, 177.0, 178.0, 300.0, 355.0, 356.0, 400.0, 800.0, 1e300)


def constant_points():
    """(s, a, b): seeded s in [0, 3] with accelerations in [0.01, 3], then s up to 20 with exact zeros."""
    rng = np.random.default_rng(13)
    points = [(s, a, b) for s, a, b in zip(rng.uniform(0.0, 3.0, 40), *rng.uniform(0.01, 3.0, (2, 40)))]
    return points + [(s, a, b) for s in (0.0, 1.0, 6.0, 12.0, 20.0) for a in (0.0, 0.5) for b in (0.0, 2.0)]


class TestSharedConstants:
    """The per-size and per-mode-set constants change no output bit, and no caller can write to them."""

    def test_builders_and_squeezers_match_eye_started_squeezers_bit_for_bit(self):
        for s, a, b in constant_points():
            for r, i, j, n in ((s, 0, 1, 3), (a, 1, 2, 3), (s, 1, 2, 4), (a, 1, 0, 4), (b, 2, 3, 4)):
                assert two_mode_squeezer(r, i, j, n).mat.tobytes() == plain_squeezer(r, i, j, n).mat.tobytes()
            single = apply_congruence(plain_squeezer(a, 1, 2, 3),
                                      apply_congruence(plain_squeezer(s, 0, 1, 3), CovMatrix(np.eye(6))))
            double = apply_congruence(plain_squeezer(a, 1, 0, 4), apply_congruence(
                plain_squeezer(b, 2, 3, 4), apply_congruence(plain_squeezer(s, 1, 2, 4), CovMatrix(np.eye(8)))))
            assert build_single_observer_cm(s, a).mat.tobytes() == single.mat.tobytes()
            assert build_double_observer_cm(s, a, b).mat.tobytes() == double.mat.tobytes()

            t = ea._evaluate(ea._bound_ansatz_t, s=s, a=a)
            ansatz = apply_congruence(plain_squeezer(a, 1, 0, 3),
                                      apply_congruence(plain_squeezer(t, 1, 2, 3), CovMatrix(np.eye(6))))
            assert ea.tripartite_bound_ansatz_cm(s, a).mat.tobytes() == ansatz.mat.tobytes()

    @pytest.mark.parametrize("i,j,n_modes", [(0, 1, 2), (1, 0, 4), (2, 3, 4)])
    def test_squeezer_check_refuses_what_the_product_test_refuses(self, i, j, n_modes):
        """On its two entries, the squeezer's check passes and fails with the generic product test, message and all."""
        edges = [0.0, 1e-300, 0.5, 20.0, 400.0, 709.7, 710.5, 800.0, math.inf]
        refused = 0
        for r in [*edges, *(-r for r in edges), math.nan]:
            with np.errstate(over="ignore"):
                try:
                    expected = plain_squeezer(r, i, j, n_modes).mat.tobytes()
                except ValueError as exc:
                    expected = str(exc)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    out = two_mode_squeezer(r, i, j, n_modes)
                except ValueError as exc:
                    assert str(exc) == expected, r
                    refused += 1
                    continue
            assert out.mat.tobytes() == expected, r
            assert not out.mat.flags.writeable
        assert refused == 7  # +-710.5, +-800, +-inf and nan: cosh r overflows or is NaN

    def test_blocks_match_the_per_block_assembly_bit_for_bit(self):
        """X and D X D give the per-block assembly's bits and refusals, with x-p entries exactly 0."""
        points = [*constant_points(), *itertools.product(OVERFLOW_EDGES, repeat=3)]
        momentum = np.array([1.0, -1.0, 1.0, -1.0])  # the diagonal of D
        refused = 0
        for params in points:
            try:
                expected = plain_double_observer_blocks(*params).mat.tobytes()
            except ValueError as exc:
                expected = str(exc)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    mat = double_observer_blocks(*params).mat
                except ValueError as exc:
                    assert str(exc) == expected, params
                    refused += 1
                    continue
            assert mat.tobytes() == expected, params
            assert not mat[0::2, 1::2].any() and not mat[1::2, 0::2].any()
            assert mat[1::2, 1::2].tobytes() == (momentum[:, None] * mat[0::2, 0::2] * momentum).tobytes(), params
        assert 0 < refused < len(points) - len(constant_points())

    @staticmethod
    def states():
        for s, a, b in constant_points():
            yield from (build_single_observer_cm(s, a), build_double_observer_cm(s, a, b),
                        single_observer_blocks(s, a), double_observer_blocks(s, a, b))

    def test_reduce_and_partial_transpose_match_the_plain_expressions_bit_for_bit(self):
        for cov in self.states():
            n = cov.n_modes
            subsets = [tuple(m for m in range(n) if bits >> m & 1) for bits in range(1, 2 ** n)]
            for keep in subsets:
                idx = plain_quad_indices(keep)
                assert reduce(cov, keep).mat.tobytes() == CovMatrix(cov.mat[idx][:, idx]).mat.tobytes()
            for modes in subsets[:-1]:  # every proper subset
                plain = plain_partial_transpose(cov, modes)
                assert partial_transpose(CovMatrix(cov.mat), modes).mat.tobytes() == plain.mat.tobytes()

    def test_marginals_match_stacked_determinants_bit_for_bit(self):
        for cov in self.states():
            for pair in [(i, j) for i in range(cov.n_modes) for j in range(i + 1, cov.n_modes)]:
                red = reduce(cov, pair)
                det_1, det_2, det_eps = np.linalg.det(np.stack([red.block(0, 0), red.block(1, 1),
                                                                red.block(0, 1)])).tolist()
                plain = (math.sqrt(det_1), math.sqrt(det_2), det_eps)
                assert np.array(two_mode_marginals(CovMatrix(red.mat))).tobytes() == np.array(plain).tobytes()

    def test_spectrum_matches_the_plain_skew_and_pairing_bit_for_bit(self):
        checked = 0
        for cov in self.states():
            try:
                plain = plain_spectrum(cov)
            except np.linalg.LinAlgError:  # the eigvals fallback, which the halving does not touch
                continue
            checked += 1
            assert symplectic_eigenvalues(CovMatrix(cov.mat)).tobytes() == plain.tobytes()
        assert checked >= 160

    def test_shared_constants_are_read_only(self):
        for n_modes in (1, 2, 3, 4):
            shared = [phase_space._omega(n_modes), phase_space._identity(n_modes), vacuum_cm(n_modes).mat,
                      phase_space._quad_indices(tuple(range(n_modes)))]
            shared += [phase_space._flip_mask((m,), n_modes) for m in range(n_modes)]
            for arr in shared:
                before = arr.copy()
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 7
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[-1] = 7
                np.testing.assert_array_equal(arr, before)
        for arr in (rindler_frames._SYMMETRIC, rindler_frames._MOMENTUM_SIGNS):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7
        # what callers get is their own: a squeezer's matrix is a copy, not the shared identity
        assert not np.shares_memory(two_mode_squeezer(0.0, 0, 1, 2).mat, phase_space._identity(2))

    def test_the_mask_is_the_momentum_reversal(self):
        np.testing.assert_array_equal(phase_space._flip_mask((0, 2), 3),
                                      np.outer([1, -1, 1, 1, 1, -1], [1, -1, 1, 1, 1, -1]))
        np.testing.assert_array_equal(phase_space._quad_indices((1, 3)), [2, 3, 6, 7])


def derived_states(cov):
    """Every reduction and every proper partial transpose of cov."""
    n = cov.n_modes
    subsets = [tuple(m for m in range(n) if bits >> m & 1) for bits in range(1, 2 ** n)]
    yield from (reduce(cov, keep) for keep in subsets)
    yield from (partial_transpose(cov, modes) for modes in subsets[:-1])


def assert_validation_changes_nothing(derived):
    assert not derived.mat.flags.writeable
    assert CovMatrix(derived.mat).mat.tobytes() == derived.mat.tobytes()


@st.composite
def symmetric_matrices(draw):
    """Exactly symmetric 2N x 2N matrices, N = 1..3, of finite entries (subnormals and -0.0 included)."""
    size = 2 * draw(st.integers(1, 3))
    entries = draw(st.lists(st.floats(-1e300, 1e300), min_size=size * (size + 1) // 2,
                            max_size=size * (size + 1) // 2))
    mat = np.zeros((size, size))
    mat[np.triu_indices(size)] = entries
    return mat + np.triu(mat, 1).T


class TestValidatedOnce:
    """Reductions and partial transposes are exact images of a validated matrix: validation would change nothing."""

    def test_validating_a_derived_state_again_returns_its_bits(self):
        for cov in TestSharedConstants.states():
            for derived in derived_states(cov):
                assert_validation_changes_nothing(derived)

    @given(symmetric_matrices())
    @settings(max_examples=200, deadline=None)
    def test_validating_a_derived_matrix_again_returns_its_bits(self, mat):
        for derived in derived_states(CovMatrix(mat)):
            assert_validation_changes_nothing(derived)

    def test_a_reduction_is_the_exact_submatrix_where_revalidation_would_round(self):
        """An input asymmetric by 1e-323 leaves 5e-324 in the validated matrix, which halving rounds to 0."""
        mat = np.eye(4)
        mat[0, 3] = 1e-323
        cov = CovMatrix(mat)
        assert cov.mat[0, 3] == cov.mat[3, 0] == 5e-324
        assert CovMatrix(cov.mat).mat[0, 3] == 0.0
        assert reduce(cov, (0, 1)).mat.tobytes() == cov.mat.tobytes()
        assert partial_transpose(cov, (0,)).mat[0, 3] == 5e-324


class TestCheckModeSet:
    """check_mode_set keeps the plain function's verdicts and messages; its cache is bounded."""

    INPUTS = [
        lambda: (1, 0), lambda: [2, 0], lambda: (np.int64(1), np.int32(2)), lambda: np.array([2, 1]),
        lambda: (m for m in (0, 2)), lambda: iter([1]), lambda: range(3), lambda: (1.0,), lambda: (True,),
        lambda: (0, 0), lambda: [np.int64(1), 1], lambda: (3,), lambda: (-1, 0), lambda: [0, 5], lambda: (),
        lambda: [], lambda: (m for m in ()), lambda: ([0],), lambda: (None,), lambda: ("1",), lambda: (np.nan,),
        lambda: (np.array(1),),
    ]

    @staticmethod
    def verdict(check, modes, n_modes=3):
        try:
            out = check(modes, n_modes)
        except (ValueError, TypeError) as exc:
            return type(exc), str(exc)
        assert all(type(m) is int for m in out)
        return out

    @pytest.mark.parametrize("make", INPUTS)
    def test_same_verdicts_and_messages_as_the_plain_function(self, make):
        expected = self.verdict(plain_check_mode_set, make())
        for _ in range(3):  # cold, then from the cache
            assert self.verdict(check_mode_set, make()) == expected

    def test_cache_is_bounded_and_keeps_no_errors(self):
        cached = phase_space._cached_mode_set
        cached.cache_clear()
        for bad in ((0, 0), (9,), (), (None,)):
            for _ in range(2):
                with pytest.raises((ValueError, TypeError)):
                    check_mode_set(bad, 3)
        assert cached.cache_info().currsize == 0
        for k in range(1, 3 * phase_space.MODE_SET_CACHE):
            assert check_mode_set((k, 0), k + 1) == (0, k)
        assert 0 < cached.cache_info().currsize <= phase_space.MODE_SET_CACHE
        assert check_mode_set((1, 0), 2) == (0, 1)


class TestOverflow:
    """Entries near the float range give a ValueError or a finite value, never a warning or NaN."""

    def test_overflowing_marginal_determinant_is_named(self):
        from rindlercv.info_measures import squeezed_thermal_m, two_mode_m
        s, l = 0.1, 354.5  # the thermal squeezed family at (s, l, n) = (0.1, 354.5, 0)
        a = math.cosh(l) ** 2 * math.cosh(2 * s) + math.sinh(l) ** 2
        b, c = math.cosh(2 * s), math.cosh(l) * math.sinh(2 * s)
        cov = CovMatrix(np.block([[a * np.eye(2), c * np.diag([1.0, -1.0])],
                                  [c * np.diag([1.0, -1.0]), b * np.eye(2)]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for measure in (two_mode_marginals, squeezed_thermal_m, two_mode_m):
                with pytest.raises(ValueError, match=r"^a 2x2 block determinant overflows \(det sigma_1 = inf"):
                    measure(cov)
            # large entries whose determinants stay finite give the value
            root_1, root_2, det_eps = two_mode_marginals(CovMatrix(np.diag([1e154, 1e154, 2.0, 2.0])))
        assert (root_1, root_2, det_eps) == (pytest.approx(1e154, rel=1e-13), pytest.approx(2.0, rel=1e-15), 0.0)

    @pytest.mark.parametrize("build,args,message", [
        (build_double_observer_cm, (400, 0.5, 0.5), "covariance matrix entries must be finite"),
        (build_single_observer_cm, (400, 0.0), "covariance matrix entries must be finite"),
        (build_single_observer_cm, (0, 800), "symplectic matrix entries must be finite"),
        (build_double_observer_cm, (0, 0.5, 800), "symplectic matrix entries must be finite"),
        (double_observer_blocks, (300, 0, 300), "covariance matrix entries must be finite"),
        (double_observer_blocks, (400, 0.5, 0.5), "covariance matrix entries must be finite"),
        (single_observer_blocks, (300, 300), "covariance matrix entries must be finite"),
        (single_observer_blocks, (400, 0.5), "covariance matrix entries must be finite"),
        (two_mode_squeezer, (800.0, 0, 1, 2), "symplectic matrix entries must be finite"),
        (two_mode_squeezer, (-800.0, 0, 1, 2), "symplectic matrix entries must be finite"),
    ])
    def test_overflowing_squeezing_raises_without_a_warning(self, build, args, message):
        """A squeezer past cosh r = inf, or a chain whose products overflow, is refused with a ValueError alone."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(*args)

    @pytest.mark.parametrize("blocks,n_params", [(double_observer_blocks, 3), (single_observer_blocks, 2)])
    def test_blocks_over_an_overflow_grid(self, blocks, n_params):
        """The closed-form blocks give a finite state or the builders' ValueError, from 0 out to 1e300."""
        refused = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for params in itertools.product(OVERFLOW_EDGES, repeat=n_params):
                try:
                    assert np.isfinite(blocks(*params).mat).all()
                except ValueError as exc:
                    assert str(exc) == "covariance matrix entries must be finite", params
                    refused += 1
        assert 0 < refused < len(OVERFLOW_EDGES) ** n_params

    def test_huge_spectrum_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            etas = symplectic_eigenvalues(CovMatrix(np.diag([1e308, 1e308, 1.02, 1.02])))
        assert etas.tolist() == [1.02, 1e308]


class TestOneGate:
    """Whether a matrix is a state, and whether a value is resolved, is decided in phase_space alone."""

    FLOOR_INTERNALS = {"FLOOR_FACTOR", "_EPS", "_not_resolvable", "_NotPhysical", "_lowest_eigenvalue", "_bounds",
                       "_rounding_floor", "_indefinite", "EIGEN_FLOOR_EPS"}

    def test_no_other_module_reads_the_floor_internals(self):
        """No import, attribute or name of the gate's floor internals, nor the string of its memo key, outside it."""
        package = pathlib.Path(phase_space.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            if path.name == "phase_space.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom) else {
                    getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None)}
                found += [(path.name, name) for name in self.FLOOR_INTERNALS & names]
        assert found == []

    def test_one_floor_factor(self):
        """src holds one floor factor: FLOOR_FACTOR, and no literal 32 anywhere else."""
        package = pathlib.Path(phase_space.__file__).parent
        literals = [(path.name, node.lineno) for path in sorted(package.glob("*.py"))
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 32]
        source = (package / "phase_space.py").read_text(encoding="utf-8").splitlines()
        assert literals == [("phase_space.py", source.index("FLOOR_FACTOR = 32") + 1)]


class TestValidationBypasses:
    """Only the named constructors wrap a matrix without validating it; a new one fails here until it is named."""

    BYPASSES = [("phase_space.py", "_wrap")]

    @classmethod
    def owners(cls, node, owner=None):
        """The innermost function around each ``__new__`` reference below node (None at module level)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from cls.owners(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "__new__":
                yield owner
            yield from cls.owners(child, owner)

    def test_object_new_only_in_the_named_constructors(self):
        package = pathlib.Path(phase_space.__file__).parent
        found = [(path.name, owner) for path in sorted(package.glob("*.py"))
                 for owner in self.owners(ast.parse(path.read_text(encoding="utf-8")))]
        assert found == self.BYPASSES
