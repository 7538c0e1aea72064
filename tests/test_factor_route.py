"""The spectra of built states from their x-quadrature factor, against a 60-digit squeezer chain.

``build_double_observer_cm`` and everything reduced or partially transposed from it carry the factor S_x
of X = S_x S_x^T; a pair's symplectic spectrum is read off two of its rows with a derived error bound.
The oracle here composes the same three squeezers in mpmath and takes |eig(X_A D_A)| of each pair by the
plain quadratic formula, so it shares neither the factor route's case split nor its Cauchy-Binet minors.
"""

import functools
import warnings

import mpmath as mp
import numpy as np
import pytest

from rindlercv import entanglement_analysis as ea
from rindlercv import info_measures
from rindlercv.info_measures import FAMILY_RTOL, log_negativity, mutual_information, ppt_separable, two_mode_m
from rindlercv.phase_space import CovMatrix, partial_transpose, reduce, symplectic_eigenvalues
from rindlercv.rindler_frames import build_double_observer_cm, build_single_observer_cm, double_observer_blocks

ORACLE_S = [0.5 * k for k in range(41)]
ORACLE_ACCELERATIONS = (0.0, 1e-6, 1e-3, 0.1, 1.0, 3.0)
SIGNS = (1, -1, 1, -1)  # D of the four-mode state (anti-Leo, Leo, Nadia, anti-Nadia)
PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


@functools.cache
def mp_squeezer(r):
    """(cosh r, sinh r) at 60 digits."""
    with mp.workdps(60):
        return mp.cosh(mp.mpf(r)), mp.sinh(mp.mpf(r))


def mp_factor(s, l, n):
    """S_x = L_x N_x I_x of the four-mode chain at 60 digits, as rows of mpf; zeros are skipped in the products."""
    def block(r, i, j):
        c, sh = mp_squeezer(r)
        out = [[mp.mpf(int(p == q)) for q in range(4)] for p in range(4)]
        out[i][i] = out[j][j] = c
        out[i][j] = out[j][i] = sh
        return out

    def product(x, y):
        return [[mp.fsum(x[p][k] * y[k][q] for k in range(4) if x[p][k] and y[k][q]) for q in range(4)]
                for p in range(4)]
    with mp.workdps(60):
        return product(block(l, 0, 1), product(block(n, 2, 3), block(s, 1, 2)))


def mp_gram(rows):
    """X = S_x S_x^T at the caller's precision (60 digits here), as a dict over (i, j), i <= j."""
    return {(i, j): mp.fsum(x * y for x, y in zip(rows[i], rows[j])) for i in range(4) for j in range(i, 4)}


def mp_pair_spectrum(gram, i, j, sign_i, sign_j):
    """Ascending |eig(X_A D_A)| of the pair (i, j) at the caller's precision (60 digits here): X_A = [[a, c], [c, b]]
    from X, D_A = diag(sign_i, sign_j)."""
    a, b, c = gram[i, i], gram[j, j], gram[i, j]
    trace, det = a * sign_i + b * sign_j, (a * b - c * c) * sign_i * sign_j
    root = mp.sqrt(trace * trace - 4 * det)  # real: X_A D_A is similar to a symmetric matrix
    return sorted((abs(trace + root) / 2, abs(trace - root) / 2))


def factor_spectrum(cov):
    """The factor route's spectrum of a pair, and its error bounds."""
    etas = symplectic_eigenvalues(cov)
    return etas.tolist(), cov.__dict__["_bounds"]


class TestSpectrumOracle:
    def test_every_pair_and_its_partial_transpose_within_the_derived_bound(self):
        """s in {0, 0.5, ..., 20}, accelerations {0, 1e-6, 1e-3, 0.1, 1, 3}: every pair of both builders."""
        checked, worst = 0, 0.0
        with mp.workdps(60):
            for s in ORACLE_S:
                for l in ORACLE_ACCELERATIONS:
                    for n in ORACLE_ACCELERATIONS:
                        gram = mp_gram(mp_factor(s, l, n))
                        double = build_double_observer_cm(s, l, n)
                        single = build_single_observer_cm(s, n) if l == 0.0 else None
                        for i, j in PAIRS:
                            refs = {flip: mp_pair_spectrum(gram, i, j, SIGNS[i] * flip, SIGNS[j]) for flip in (1, -1)}
                            states = [reduce(double, (i, j))]
                            if single is not None and i > 0:  # the single state's modes are (1, 2, 3)
                                states.append(reduce(single, (i - 1, j - 1)))
                            for state in states:
                                for cov, flip in ((state, 1), (partial_transpose(state, (0,)), -1)):
                                    etas, bounds = factor_spectrum(cov)
                                    for eta, bound, exact in zip(etas, bounds, refs[flip]):
                                        error = abs(mp.mpf(eta) - exact)
                                        assert error <= bound, ((s, l, n), (i, j), flip, eta, float(exact), bound)
                                        worst = max(worst, float(error / bound))
                                        checked += 1
        assert checked == len(ORACLE_S) * 6 * 6 * 6 * 2 * 2 + len(ORACLE_S) * 6 * 3 * 2 * 2
        assert worst > 1e-6  # the bounds are not vacuous: some error comes within a million of its bound

    def test_matching_signs_are_relatively_accurate(self):
        """A partial transpose of a state's pair, and every (0, 2) and (1, 3) state pair, has no cancellation."""
        for s in (0.0, 10.0, 20.0):
            for l, n in ((0.0, 1e-6), (3.0, 1.0), (1e-3, 0.1)):
                sigma = build_double_observer_cm(s, l, n)
                for pair in PAIRS:
                    red = reduce(sigma, pair)
                    for cov in (red, partial_transpose(red, (1,))):
                        if cov.__dict__["_factor"][1][0] == cov.__dict__["_factor"][1][1]:
                            etas, bounds = factor_spectrum(cov)
                            assert all(bound <= 1e-13 * eta for eta, bound in zip(etas, bounds))


def plain_chain(s, l, n):
    """The four-mode state as three 8x8 squeezers compose it on the vacuum, each congruence then symmetrised."""
    def squeezer(r, i, j):
        out = np.eye(8)
        c, sh = float(np.cosh(r)), float(np.sinh(r))
        out[2 * i, 2 * i] = out[2 * i + 1, 2 * i + 1] = out[2 * j, 2 * j] = out[2 * j + 1, 2 * j + 1] = c
        out[2 * i, 2 * j] = out[2 * j, 2 * i] = sh
        out[2 * i + 1, 2 * j + 1] = out[2 * j + 1, 2 * i + 1] = -sh
        return out
    first, *rest = squeezer(s, 1, 2), squeezer(n, 2, 3), squeezer(l, 1, 0)
    arr = first @ first.T
    for S in rest:
        arr = 0.5 * arr + 0.5 * arr.T
        arr = S @ arr @ S.T
    return CovMatrix(arr)


def test_state_bits_are_the_plain_8x8_chain():
    """The x-block chain and its momentum-sign mirror give the 8x8 chain's bits, zero signs included."""
    rng = np.random.default_rng(29)
    points = [tuple(p) for p in rng.uniform(0.0, 20.0, (2000, 3))]
    points += [(s, l, n) for s in (0.0, 1e-300, 0.5, 20.0) for l in (0.0, 1e-300, 2.0) for n in (0.0, 1e-6, 3.0)]
    for point in points:
        assert build_double_observer_cm(*point).mat.tobytes() == plain_chain(*point).mat.tobytes(), point


def exact_m(s, l, n):
    """The Leo-Nadia m of the thermal squeezed family at 60 digits, 1 where tanh s <= sinh l sinh n."""
    with mp.workdps(60):
        s, l, n = mp.mpf(s), mp.mpf(l), mp.mpf(n)
        shl, shn, chs2, sh2s = mp.sinh(l), mp.sinh(n), mp.cosh(s) ** 2, mp.sinh(2 * s)
        if mp.tanh(s) <= shl * shn:
            return mp.mpf(1)
        num = 2 * mp.cosh(2 * l) * mp.cosh(2 * n) * chs2 + 3 * mp.cosh(2 * s) - 4 * shl * shn * sh2s - 1
        return max(num / (4 + 4 * (shl ** 2 + shn ** 2) * chs2 + 4 * shl * shn * sh2s), mp.mpf(1))


class TestMOracle:
    def test_every_m_is_within_its_bound_or_refused(self, monkeypatch):
        """two_mode_m of the Leo-Nadia pair over the oracle grid, against the 60-digit m.

        A thermal m lies within the derived bound of its inversion; a pure or GMEMMS one, where an
        acceleration is 0 and the state is of that family exactly, and a separable one within FAMILY_RTOL.
        Tiny nonzero accelerations that the GMEMMS form takes are off by its spectrum tolerance, not by
        rounding (ROADMAP finding B), and are not compared.  Every refusal names the rounding floor.
        """
        bounds = []
        inversion_error = info_measures._inversion_error

        def recording(*args):
            error = inversion_error(*args)
            bounds.append(error / args[5])
            return error
        monkeypatch.setattr(info_measures, "_inversion_error", recording)
        outcomes, worst = {"thermal": 0, "exact family": 0, "refused": 0}, 0.0
        for s in ORACLE_S:
            for l in ORACLE_ACCELERATIONS:
                for n in ORACLE_ACCELERATIONS:
                    red = reduce(build_double_observer_cm(s, l, n), (1, 2))
                    bounds.clear()
                    try:
                        m = two_mode_m(red)
                    except ValueError as exc:
                        assert "not resolvable at this squeezing" in str(exc), ((s, l, n), exc)
                        outcomes["refused"] += 1
                        continue
                    exact = exact_m(s, l, n)
                    error = float(abs(mp.mpf(m) - exact) / exact)
                    if bounds:
                        assert error <= bounds[-1], ((s, l, n), m, float(exact), bounds[-1])
                        worst = max(worst, error / bounds[-1])
                        outcomes["thermal"] += 1
                    elif l == 0.0 or n == 0.0 or min(l, n) >= 0.1:
                        assert error <= FAMILY_RTOL, ((s, l, n), m, float(exact))
                        outcomes["exact family"] += 1
        assert min(outcomes.values()) > 50, outcomes
        assert worst > 1e-3  # the bounds are not vacuous

    def test_a_pure_pair_past_its_bound_refuses(self):
        """At (12, 0, 0) the Leo-Nadia pair is pure, but the bound on eta+ (|a - b| cancels) exceeds PURITY_TOL."""
        red = reduce(build_double_observer_cm(12.0, 0.0, 0.0), (1, 2))
        with pytest.raises(ValueError, match=r"^two-mode family not resolvable at this squeezing \(eps"):
            two_mode_m(red)


class TestMended:
    """Built states whose spectra the Cholesky route lost to rounding now read right."""

    @pytest.mark.parametrize("pair, eta", [((0, 3), 3.72469910), ((1, 2), 3.65289000)])
    def test_deep_separable_pairs_read_separable(self, pair, eta):
        """At (20, 3, 1) both pairs' partial transposes have eta- far above 1: m = 1, no refusal."""
        red = reduce(build_double_observer_cm(20.0, 3.0, 1.0), pair)
        assert ppt_separable(red, (0,))
        assert two_mode_m(red) == 1.0
        assert log_negativity(red, (0,)) == 0.0
        with mp.workdps(60):
            exact = mp_pair_spectrum(mp_gram(mp_factor(20.0, 3.0, 1.0)), *pair, -SIGNS[pair[0]], SIGNS[pair[1]])[0]
        assert symplectic_eigenvalues(partial_transpose(red, (0,)))[0] == pytest.approx(float(exact), rel=1e-13)
        assert float(exact) == pytest.approx(eta, rel=1e-8)

    def test_deep_mutual_information_matches_its_closed_form(self):
        red = reduce(build_double_observer_cm(12.0, 0.0, 1e-3), (1, 2))
        assert mutual_information(red, (0,)) == pytest.approx(ea.mutual_info_ln_general(12.0, 0.0, 1e-3), rel=1e-10)

    @pytest.mark.parametrize("point", [(11.0, 0.5, 0.3), (16.0, 0.5, 0.3), (20.0, 0.5, 0.3), (18.0, 0.1, 0.1),
                                       (12.0, 0.0, 1e-3)])
    def test_deep_m_matches_its_closed_form(self, point):
        """m within FAMILY_RTOL, as its derived bound guarantees, where the Cholesky route's 4x4 determinant
        refused: the thermal inversion on det X, with no cancellation, and at l = 0 the GMEMMS form."""
        red = reduce(build_double_observer_cm(*point), (1, 2))
        assert two_mode_m(red) == pytest.approx(float(exact_m(*point)), rel=FAMILY_RTOL)

    def test_deep_wedge_pair_reads_entangled(self):
        """The (Rob, anti-Rob) pair at (s, r) = (2, 10): the partial transpose decides, as Simon's test says."""
        red = reduce(build_single_observer_cm(2.0, 10.0), (1, 2))
        assert not ppt_separable(red, (0,))
        with mp.workdps(60):
            exact = mp_pair_spectrum(mp_gram(mp_factor(2.0, 0.0, 10.0)), 2, 3, -SIGNS[2], SIGNS[3])[0]
        assert log_negativity(red, (0,)) == pytest.approx(float(-mp.log(exact)), rel=1e-13)

    def test_near_pure_pair_answers_on_the_partial_transpose_and_refuses_on_the_state(self):
        """At (10, 1e-6, 1e-6) the Leo-Nadia state's eta+ cancels in |a - b|, so entropies refuse by its
        bound; the partial transpose has no cancellation, so the log-negativity reads."""
        red = reduce(build_double_observer_cm(10.0, 1e-6, 1e-6), (1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^physicality not resolvable at this squeezing \(eps \* max"):
                mutual_information(red, (0,))
            with mp.workdps(60):
                exact = mp_pair_spectrum(mp_gram(mp_factor(10.0, 1e-6, 1e-6)), 1, 2, -SIGNS[1], SIGNS[2])[0]
            assert log_negativity(red, (0,)) == pytest.approx(float(-mp.log(exact)), rel=1e-13)


class TestRoutes:
    """Which states take the factor route: the built ones' pairs; the rest keep Cholesky and SVD."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        for name in ("cholesky", "svd", "det"):
            def counting(*args, original=getattr(np.linalg, name), name=name, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    def test_a_built_pair_takes_no_factorisation(self, monkeypatch):
        calls = self.counted(monkeypatch)
        red = reduce(build_single_observer_cm(1.3, 0.7), (0, 1))
        two_mode_m(red), mutual_information(red, (0,)), log_negativity(red, (1,))
        assert calls == []

    @pytest.mark.parametrize("state", [lambda: CovMatrix(reduce(build_double_observer_cm(1.2, 0.6, 0.9), (1, 2)).mat),
                                       lambda: reduce(double_observer_blocks(1.2, 0.6, 0.9), (1, 2)),
                                       lambda: build_single_observer_cm(1.2, 0.6)],
                             ids=["public", "blocks", "three-mode"])
    def test_every_other_state_keeps_cholesky_and_svd(self, monkeypatch, state):
        cov = state()
        calls = self.counted(monkeypatch)
        symplectic_eigenvalues(cov)
        assert calls == ["cholesky", "svd"]
        assert "_bounds" not in cov.__dict__

    def test_the_routes_agree(self):
        rng = np.random.default_rng(31)
        for s, l, n in zip(*rng.uniform(0.0, 3.0, (3, 50))):
            for pair in PAIRS:
                red = reduce(build_double_observer_cm(s, l, n), pair)
                for cov in (red, partial_transpose(red, (0,))):
                    # within the general route's rounding floor, about eps * max|sigma|^2
                    np.testing.assert_allclose(symplectic_eigenvalues(cov), symplectic_eigenvalues(CovMatrix(cov.mat)),
                                               rtol=1e-14, atol=32 * np.finfo(float).eps * abs(cov.mat).max() ** 2)
