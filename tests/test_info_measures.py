import itertools
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindlercv import phase_space
from rindlercv.info_measures import (
    GMEMMS_SPECTRUM_TOL,
    M_CLAMP_TOL,
    InconsistencyError,
    MeasureReport,
    check_monogamy,
    contangle_from_cm,
    contangle_from_m,
    entropy_of_entanglement,
    entropy_term_f,
    log_negativity,
    mutual_information,
    ppt_separable,
    squeezed_thermal_m,
    two_mode_m,
    von_neumann_entropy,
    _above_one,
    _contangle,
    _entropy_f,
)
from rindlercv.phase_space import (PURITY_TOL, CovMatrix, SympTransform, apply_congruence, is_bona_fide,
                                   partial_transpose, reduce, symplectic_eigenvalues, two_mode_marginals,
                                   two_mode_squeezer, vacuum_cm)
from rindlercv.rindler_frames import build_double_observer_cm, build_single_observer_cm, double_observer_blocks

from conftest import single_mode_rotation, single_mode_squeeze

mp.mp.dps = 40


def mp_f(x) -> float:
    """High-precision oracle for the entropy kernel."""
    x = mp.mpf(x)
    return float((x + 1) / 2 * mp.log((x + 1) / 2) - (x - 1) / 2 * mp.log((x - 1) / 2))


def tms_cm(s: float) -> CovMatrix:
    return apply_congruence(two_mode_squeezer(s, 0, 1, 2), vacuum_cm(2))


class TestContangleFromM:
    def test_separable_point(self):
        assert contangle_from_m(1.0) == 0.0

    def test_inertial_pair_value(self):
        # m = cosh 2s at s = 1 carries contangle 4
        assert contangle_from_m(math.cosh(2.0)) == pytest.approx(4.0, abs=1e-14)

    def test_wedge_pair_value(self):
        assert contangle_from_m(math.cosh(1.0)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 3.5, 5.0])
    def test_four_t_squared_identity(self, t):
        assert contangle_from_m(math.cosh(2 * t)) == pytest.approx(4 * t * t, rel=1e-10)

    def test_monotone(self):
        values = [contangle_from_m(m) for m in (1.0, 1.2, 2.0, 10.0, 1e4)]
        assert values == sorted(values)
        assert values[1] > 0

    def test_clamp_window(self):
        assert contangle_from_m(1.0 - 5e-10) == 0.0

    def test_below_floor_raises(self):
        with pytest.raises(InconsistencyError):
            contangle_from_m(1.0 - 1e-6)


class TestEntropyKernel:
    def test_pure_point(self):
        assert entropy_term_f(1.0) == 0.0

    def test_high_precision_value(self):
        assert entropy_term_f(math.cosh(2.0)) == pytest.approx(mp_f(mp.cosh(2)), rel=1e-14)

    def test_increasing(self):
        xs = [1.0, 1.5, 3.0, 10.0, 1e3]
        fs = [entropy_term_f(x) for x in xs]
        assert fs == sorted(fs)

    def test_asymptotic_form(self):
        x = 1e6
        assert abs(entropy_term_f(x) - math.log(x * math.e / 2)) < 1e-6

    def test_stable_at_huge_argument(self):
        x = 1e17
        assert entropy_term_f(x) == pytest.approx(math.log(x / 2) + 1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy_term_f(0.5)


def mp_g(m):
    """arccosh^2 m, 0 at m = 1."""
    return mp.acosh(m) ** 2 if m > 1 else mp.mpf(0)


# m from 1 + 1e-15 to 1e300: where m - 1 cancels, and where (m - 1)(m + 1) would overflow
ONE_KERNEL_ARGS = np.concatenate([1.0 + np.geomspace(1e-15, 1.0, 60), np.geomspace(2.0, 1e300, 90)])


# the edges of the floor rule of g and f: 1 - M_CLAMP_TOL and 1, each with its neighbouring floats, and beyond
FLOOR_RULE_EDGES = [y for x in (1.0 - M_CLAMP_TOL, 1.0) for y in (np.nextafter(x, 0.0), x, np.nextafter(x, 2.0))]
FLOOR_RULE_EDGES += [math.nan, math.inf, 1e300]


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def outcome(face, x) -> tuple:
    """The bits of face(x), one value or a one-element array, or the type and message of its error."""
    try:
        value = face(x)
    except ValueError as exc:
        return type(exc), str(exc)
    return (bits(value if np.ndim(value) == 0 else value[0]),)


class TestOneKernel:
    """g and f exist once: the checked faces of one kernel each, for floats and arrays alike."""

    @pytest.mark.parametrize("face,oracle", [(contangle_from_m, mp_g), (entropy_term_f, mp_f)],
                             ids=["contangle_from_m", "entropy_term_f"])
    def test_mpmath_oracle(self, face, oracle):
        """Within 1e-15 x max(1, |ref|) from 1 + 1e-15 to 1e300; f cancels some 300 digits at 1e300."""
        worst = 0.0
        with mp.workdps(420):
            for x in ONE_KERNEL_ARGS:
                ref = oracle(mp.mpf(float(x)))
                worst = max(worst, float(abs(face(float(x)) - ref) / max(1, abs(ref))))
        assert worst <= 1e-15

    @pytest.mark.parametrize("face,kernel", [(contangle_from_m, _contangle), (entropy_term_f, _entropy_f)],
                             ids=["contangle_from_m", "entropy_term_f"])
    def test_float_and_array_calls_agree_bit_for_bit(self, face, kernel):
        """Also at the edges of the floor rule, where a float is decided apart from an array."""
        values = [face(float(x)) for x in ONE_KERNEL_ARGS]
        assert all(type(v) is float for v in values)
        out = face(ONE_KERNEL_ARGS)
        assert isinstance(out, np.ndarray) and out.tolist() == values
        assert face(np.array([1.0 - 5e-10, 1.0])).tolist() == [0.0, 0.0]
        for x in FLOOR_RULE_EDGES:
            assert outcome(face, float(x)) == outcome(face, np.array([x])), x
            with np.errstate(all="ignore"):  # the kernel itself, past the face's checks: NaN and inf reach the rule
                assert bits(kernel(np.float64(x))) == bits(kernel(np.array([x]))[0]), x
            expected = bits(_above_one(np.array([x]), np.array([2.5]))[0])  # a NaN x keeps the value
            assert bits(_above_one(np.float64(x), 2.5)) == bits(_above_one(float(x), 2.5)) == expected, x

    @pytest.mark.parametrize("face", [contangle_from_m, entropy_term_f], ids=["contangle_from_m", "entropy_term_f"])
    @pytest.mark.parametrize("x", [1.0, 1.0 - 5e-10, np.array([1.0]), np.array([1.0 - 5e-10, 1.0, 2.0])],
                             ids=["1.0", "1-5e-10", "array-1.0", "array-mixed"])
    def test_floor_is_quiet_and_zero(self, face, x):
        """The kernels warn only on their masked x <= 1 branch, which the face silences."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = face(x)
        if np.ndim(x) == 0:
            assert type(out) is float and out == 0.0
        else:
            assert out.tolist() == [0.0 if v <= 1.0 else face(float(v)) for v in x]

    def test_array_below_floor_names_the_first_value(self):
        with pytest.raises(InconsistencyError, match=r"m-parameter 0\.5 below the separability floor"):
            contangle_from_m(np.array([2.0, 0.5, 0.25]))
        with pytest.raises(ValueError, match=r"needs x >= 1, got 0\.5"):
            entropy_term_f(np.array([2.0, 0.5]))


@pytest.mark.parametrize("fn,value", [
    (entropy_of_entanglement, math.nan), (entropy_of_entanglement, math.inf),
    (contangle_from_m, math.nan), (contangle_from_m, math.inf), (contangle_from_m, -math.inf),
    (entropy_term_f, math.nan), (entropy_term_f, math.inf),
    (contangle_from_m, np.array([2.0, math.nan])), (entropy_term_f, np.array([2.0, math.inf])),
], ids=lambda v: getattr(v, "__name__", None) or str(v).replace(" ", ""))
def test_information_functions_reject_non_finite_input(fn, value):
    """A ValueError that names the bad value, where a NaN used to come back."""
    bad = float(value if np.ndim(value) == 0 else value[1])
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        fn(value)


class TestMutualInformation:
    def test_product_vacuum(self):
        assert mutual_information(vacuum_cm(2), (0,)) == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_pure_pair_twice_entropy(self, s):
        expected = 2 * entropy_term_f(math.cosh(2 * s))
        assert mutual_information(tms_cm(s), (0,)) == pytest.approx(expected, rel=1e-12)

    def test_saturation_at_extreme_acceleration(self):
        red = reduce(build_single_observer_cm(1.0, 15.0), (0, 1))
        assert mutual_information(red, (0,)) == pytest.approx(entropy_term_f(math.cosh(2.0)), abs=1e-4)

    def test_invariant_under_local_symplectics(self, rng):
        red = reduce(build_single_observer_cm(0.8, 0.6), (0, 1))
        base = mutual_information(red, (0,))
        for _ in range(30):
            mode = int(rng.integers(2))
            local = (single_mode_rotation(rng.uniform(0, 2 * np.pi), mode, 2).mat
                     @ single_mode_squeeze(rng.uniform(-1.5, 1.5), mode, 2).mat)
            sig = local @ red.mat @ local.T
            assert mutual_information(sig, (0,)) == pytest.approx(base, abs=1e-8)

    def test_needs_two_modes(self):
        with pytest.raises(ValueError):
            mutual_information(vacuum_cm(3), (0,))

    def test_split_selects_one_mode(self):
        with pytest.raises(ValueError, match="^split must select exactly one of the two modes$"):
            mutual_information(vacuum_cm(2), (0, 1))

    @pytest.mark.parametrize("mat", [np.diag([-1.0, -1.0, 1.0, 1.0]), np.diag([-1.0, 1.0, 1.0, 1.0]),
                                     np.diag([0.5, 0.5, 1.0, 1.0]), -np.eye(4)],
                             ids=["diag(-1,-1,1,1)", "diag(-1,1,1,1)", "diag(0.5,0.5,1,1)", "-I"])
    def test_unphysical_state_rejected(self, mat):
        """Neither a 'math domain error' nor 0: sigma > 0 fails, or a symplectic eigenvalue (a float) lies below 1."""
        for call in (lambda: mutual_information(mat, (0,)), lambda: von_neumann_entropy(mat)):
            with pytest.raises(ValueError, match=r"^state is not physical \((covariance matrix not positive definite"
                                                 r"|min symplectic eigenvalue [\d.e+-]+)\)$"):
                call()

    def test_pure_state_doubles_entanglement_entropy(self):
        s = 1.3
        mi = mutual_information(tms_cm(s), (1,))
        assert mi == pytest.approx(2 * entropy_of_entanglement(s), abs=1e-9)


class TestPptAndNegativity:
    def test_vacuum_separable(self):
        assert ppt_separable(vacuum_cm(2), (0,))
        assert log_negativity(vacuum_cm(2), (1,)) == 0.0

    def test_weakly_squeezed_pair_entangled(self):
        assert not ppt_separable(tms_cm(0.1), (0,))

    def test_squeezed_pair_negativity(self):
        assert log_negativity(tms_cm(1.0), (1,)) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("s", [0.3, 1.2, 2.4])
    def test_pure_pair_negativity_is_2s(self, s):
        assert log_negativity(tms_cm(s), (0,)) == pytest.approx(2 * s, abs=1e-9)

    def test_alice_antirob_reduction_separable(self):
        for s in np.arange(0.5, 3.01, 0.5):
            for r in np.arange(0.5, 3.01, 0.5):
                red = reduce(build_single_observer_cm(s, r), (0, 2))
                assert ppt_separable(red, (0,))
                assert log_negativity(red, (0,)) == 0.0

    def test_zero_negativity_iff_separable(self):
        states = [
            (tms_cm(0.4), True),
            (reduce(build_single_observer_cm(1.0, 0.7), (0, 1)), True),
            (reduce(build_single_observer_cm(1.0, 0.7), (0, 2)), True),
            (reduce(build_double_observer_cm(2.0, 1.0, 1.0), (1, 2)), True),
            (vacuum_cm(2), True),
        ]
        # deep Leo-Nadia reductions: the measures answer together or refuse together
        deep = [reduce(build_double_observer_cm(*point), (1, 2)) for point in ((12, 0, 1e-3), (16, 0.5, 0.3),
                                                                                (20, 0.5, 0.3))]
        verdicts = []
        for sigma in [sigma for sigma, _ in states] + deep:
            try:
                separable = ppt_separable(sigma, (0,))
            except ValueError:
                with pytest.raises(ValueError):
                    log_negativity(sigma, (0,))
                verdicts.append(None)
                continue
            assert (log_negativity(sigma, (0,)) == 0.0) == separable
            verdicts.append(separable)
        assert verdicts[-3:] == [False, False, False]

    @pytest.mark.parametrize("measure", [ppt_separable, log_negativity], ids=["ppt_separable", "log_negativity"])
    def test_ppt_measures_refuse_a_positive_definite_non_state(self, measure):
        """0.5 I is positive definite with eta- = 0.5: Simon's criterion does not apply to it."""
        with pytest.raises(ValueError, match=r"^state is not physical \(min symplectic eigenvalue 0\.5"):
            measure(0.5 * np.eye(4), (0,))

    def test_bipartition_validation(self):
        sigma = build_double_observer_cm(1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            ppt_separable(sigma, (0, 1))  # 2x2 split not covered by the criterion
        with pytest.raises(ValueError):
            log_negativity(sigma, ())
        with pytest.raises(ValueError, match="^cannot transpose every mode; pick a proper subset$"):
            ppt_separable(vacuum_cm(2), (0, 1))


def mp_entropy_of_entanglement(s):
    """f(cosh 2s) = cosh^2 s ln cosh^2 s - sinh^2 s ln sinh^2 s, as ln cosh^2 s + sinh^2 s log1p(1/sinh^2 s)."""
    s = mp.mpf(s)
    if s == 0:
        return mp.mpf(0)
    y = mp.sinh(s) ** 2
    return mp.log(mp.cosh(s) ** 2) + y * mp.log1p(1 / y)


class TestEntropyOfEntanglement:
    def test_zero_squeezing(self):
        assert entropy_of_entanglement(0.0) == 0.0

    def test_mpmath_oracle(self):
        """Within 1e-15 x max(1, |ref|) far past s ~ 355, where cosh 2s overflows."""
        worst = 0.0
        with mp.workdps(60):
            for s in (0.0, 1e-8, 1e-3, 0.5, 1.0, 2.0, 5.0, 10.0, 19.99, 20.0, 20.01, 100.0,
                      354.0, 356.0, 400.0, 700.0, 1e6):
                ref = mp_entropy_of_entanglement(s)
                worst = max(worst, float(abs(entropy_of_entanglement(s) - ref) / max(1, abs(ref))))
        assert worst <= 1e-15

    @pytest.mark.parametrize("s", [1e-3, 0.5, 3.0, 20.0, 50.0])
    def test_uncancelled_oracle(self, s):
        """The direct definition f(cosh 2s), evaluated with enough digits to cancel."""
        with mp.workdps(80):
            ref = mp_f(mp.cosh(2 * mp.mpf(s)))
        assert abs(entropy_of_entanglement(s) - ref) <= 1e-15 * max(1.0, ref)

    def test_finite_far_out(self):
        assert entropy_of_entanglement(1e300) == 2e300

    def test_unit_squeezing(self):
        assert entropy_of_entanglement(1.0) == pytest.approx(mp_f(mp.cosh(2)), rel=1e-14)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.7])
    def test_matches_reduced_entropy(self, s):
        red = reduce(tms_cm(s), (0,))
        assert von_neumann_entropy(red) == pytest.approx(entropy_of_entanglement(s), abs=1e-10)


class TestMonogamy:
    def test_two_party_saturation(self):
        assert check_monogamy(4.0, [4.0]) == 0.0

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            check_monogamy(-0.5, [0.0])

    def test_probe_alice_nonnegative_on_grid(self):
        from rindlercv.entanglement_analysis import contangle_ar
        for s in np.arange(0.5, 3.01, 0.5):
            for r in np.arange(0.5, 3.01, 0.5):
                tau_rest = contangle_from_m(math.cosh(2 * s))
                residual = check_monogamy(tau_rest, [contangle_ar(s, r).contangle, 0.0])
                assert residual >= -1e-9

    @pytest.mark.parametrize("scenario,n_params,high", [("single", 2, 5.0), ("double", 3, 3.0)])
    def test_residual_is_the_reports_bit_for_bit(self, scenario, n_params, high):
        """The pairwise contangles are subtracted one by one, as the reports do: a sum first was an ulp off."""
        from rindlercv import entanglement_analysis as ea
        build = getattr(ea, f"{scenario}_observer_report")
        for params in np.random.default_rng(5).uniform(0.0, high, (500, n_params)).tolist():
            report = build(*params)
            residuals = report.monogamy_residuals()
            for probe, (m, taus) in ea.MONOGAMY_PROBES[scenario].items():
                tau_rest = contangle_from_m(getattr(report, m))
                assert check_monogamy(tau_rest, [getattr(report, tau) for tau in taus]) == residuals[probe], params

    def test_four_mode_probe_positive(self):
        from rindlercv.entanglement_analysis import residual_multipartite
        for s in (0.5, 1.5):
            for a in (0.5, 2.0):
                assert residual_multipartite(s, a) > 0


class TestMeasureReport:
    def test_from_m_flags_separable(self):
        rep = MeasureReport.from_m(1.0, "closed_form")
        assert rep.separable and rep.contangle == 0.0

    def test_entangled_report(self):
        rep = MeasureReport.from_m(math.cosh(2.0), "numeric_cm")
        assert not rep.separable
        assert rep.contangle == pytest.approx(4.0, abs=1e-13)
        assert rep.source == "numeric_cm"


class TestTwoModeFamilies:
    def test_pure_m_matches_marginal(self):
        assert two_mode_m(tms_cm(1.0)) == pytest.approx(math.cosh(2.0), rel=1e-12)

    def test_gmemms_reductions(self):
        from rindlercv.entanglement_analysis import m_leo_nadia
        sigma = build_single_observer_cm(2.0, 0.5)
        assert two_mode_m(reduce(sigma, (1, 2))) == pytest.approx(math.cosh(1.0), rel=1e-10)
        assert two_mode_m(reduce(sigma, (0, 1))) == pytest.approx(m_leo_nadia(2.0, 0.0, 0.5), rel=1e-10)

    def test_dispatch_is_the_branch_formulas_over_seeded_reductions(self):
        """two_mode_m is its branch formulas bit for bit on every two-mode reduction of both scenarios.

        (a + b) / 2 on a pure state, 1 or (a + b) / (2 + |a - b|) on a saturating one, and
        squeezed_thermal_m (its value or its error) otherwise; s = 0 and exact-zero accelerations included.
        """

        def outcome(measure, cov):
            try:
                return measure(cov)
            except ValueError as exc:
                return str(exc)

        rng = np.random.default_rng(19)
        params = [(s, l * scale, n * scale) for s, l, n in zip(np.r_[0.0, rng.uniform(0.0, 6.0, 59)],
                                                               *rng.uniform(0.0, 3.0, (2, 60)))
                  for scale in (1.0, 1e-6, 0.0)]
        routes = set()
        for s, l, n in params:
            for sigma in (build_single_observer_cm(s, l), build_double_observer_cm(s, l, n)):
                for pair in itertools.combinations(range(sigma.n_modes), 2):
                    red = reduce(sigma, pair)
                    eta_minus, eta_plus = symplectic_eigenvalues(red)
                    if max(abs(eta_minus - 1.0), abs(eta_plus - 1.0)) <= PURITY_TOL:
                        route, (a, b, _) = "pure", two_mode_marginals(red)
                        expected = 0.5 * (a + b)
                    elif abs(eta_minus - 1.0) <= GMEMMS_SPECTRUM_TOL:
                        route, (a, b, _) = "saturating", two_mode_marginals(red)
                        expected = 1.0 if ppt_separable(red, (0,)) else (a + b) / (2.0 + abs(a - b))
                    else:
                        route, expected = "thermal", outcome(squeezed_thermal_m, reduce(sigma, pair))
                    routes.add(route)
                    assert outcome(two_mode_m, red) == expected, (s, l, n, pair, route)
        assert routes == {"pure", "saturating", "thermal"}

    def test_thermal_inversion_matches_closed_form(self):
        from rindlercv.entanglement_analysis import m_leo_nadia
        red = reduce(build_double_observer_cm(1.2, 0.6, 0.9), (1, 2))
        assert squeezed_thermal_m(red) == pytest.approx(m_leo_nadia(1.2, 0.6, 0.9), rel=1e-9)

    def test_thermal_route_is_the_report_kernel_over_seeded_reductions(self):
        """two_mode_m of 3000 Leo-Nadia reductions within 1e-10 x max(1, m) of m_leo_nadia.

        Accelerations start at 0.01: below that the GMEMMS_SPECTRUM_TOL dispatch
        takes some thermal states for saturating ones (off by up to about 1e-4).
        """
        from rindlercv.entanglement_analysis import m_leo_nadia
        rng = np.random.default_rng(12)
        worst = 0.0
        for s, l, n in zip(rng.uniform(0.0, 3.0, 3000), *rng.uniform(0.01, 3.0, (2, 3000))):
            m = m_leo_nadia(s, l, n)
            worst = max(worst, abs(two_mode_m(reduce(build_double_observer_cm(s, l, n), (1, 2))) - m) / max(1.0, m))
        assert worst <= 1e-10

    def test_thermal_overflowing_inversion_raises_value_error(self):
        """At s = 20 the pure Leo-Nadia reduction's (a+1)(b+1) - c^2 rounds to 0: u is infinite."""
        red = reduce(double_observer_blocks(20.0, 0.0, 0.0), (1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="thermal squeezed inversion overflows"):
                squeezed_thermal_m(red)

    @pytest.mark.parametrize("s,l,n", [(20.0, 0.5, 0.3), (20.0, 2.0, 0.0), (40.0, 0.1, 0.1)])
    def test_unresolvable_separability_is_named_as_such(self, s, l, n):
        """Entangled reductions whose PPT eigenvalue below 1 is lost to rounding raise, not read m = 1."""
        from rindlercv.entanglement_analysis import m_leo_nadia
        assert m_leo_nadia(s, l, n) > 1.1
        red = reduce(double_observer_blocks(s, l, n), (1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for measure in (lambda c: ppt_separable(c, (0,)), squeezed_thermal_m, two_mode_m):
                with pytest.raises(ValueError, match=r"^separability not resolvable at this squeezing \(32 eps eta"):
                    measure(red)

    @pytest.mark.parametrize("build", [build_double_observer_cm, double_observer_blocks],
                             ids=["build_double_observer_cm", "double_observer_blocks"])
    def test_rounding_floors_are_named(self, build):
        """At (s, l, n) = (10, 1e-6, 1e-6) the Leo-Nadia reduction's eta- and its partial transpose's eta-
        both read 0.0, deep inside the floor eps * max|sigma|^2 = 13: no math domain error, no unphysical state."""
        red = reduce(build(10.0, 1e-6, 1e-6), (1, 2))
        floor = r" not resolvable at this squeezing \(eps \* max\|sigma\|\^2 = 13\.1\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if build is double_observer_blocks:
                with pytest.raises(ValueError, match="^log negativity" + floor):
                    log_negativity(red, (0,))
            else:  # the factor route's partial transpose has no cancellation (see test_factor_route.py)
                assert log_negativity(red, (0,)) > 0.0
            for entropic in (lambda: mutual_information(red, (0,)), lambda: von_neumann_entropy(red)):
                with pytest.raises(ValueError, match="^physicality" + floor):
                    entropic()

    #: Where the general route refuses before its family test: the moduli of the spectrum do not pair.
    UNPAIRED = {(18.0, 0.1, 0.1): ("symplectic spectrum", ": could not pair symplectic eigenvalues ")}

    @pytest.mark.parametrize("point, floor", [((10.0, 1e-6, 1e-6), "13.1"), ((12.0, 0.0, 1e-3), "3.9e+04"),
                                              ((18.0, 0.1, 0.1), "1.05e+15"), ((9.0, 1e-6, 1e-6), "0.239"),
                                              ((11.0, 0.5, 0.3), "1.15e+03")])
    def test_thermal_form_floor_is_named(self, point, floor):
        """A family test that fails within the rounding of a 4x4 determinant, 32 eps max|sigma|^4, names the floor.

        The built states' matrices, as public states, take the general route; the built states themselves
        answer where their derived bounds allow (test_factor_route.py) and name the floor where not (below).
        At (18, 0.1, 0.1) the general route refuses earlier, at the same floor, in ``UNPAIRED``.
        """
        what, detail = self.UNPAIRED.get(point, ("thermal squeezed form", "$"))
        red = CovMatrix(reduce(build_double_observer_cm(*point), (1, 2)).mat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{what} not resolvable at this squeezing "
                                                 rf"\(eps \* max\|sigma\|\^2 = {re.escape(floor)}\){detail}"):
                two_mode_m(red)

    @pytest.mark.parametrize("point, floor", [((10.0, 1e-6, 1e-6), "13.1"), ((9.0, 1e-6, 1e-6), "0.239")])
    def test_thermal_inversion_bound_is_named(self, point, floor):
        """A built state's thermal m whose derived error bound exceeds FAMILY_RTOL names the floor: the inverted
        sinh^2 l and sinh^2 n are near 0, so the rounding of a - u is large beside them."""
        red = reduce(build_double_observer_cm(*point), (1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^thermal squeezed form not resolvable at this squeezing "
                                                 rf"\(eps \* max\|sigma\|\^2 = {re.escape(floor)}\)$"):
                two_mode_m(red)

    def test_non_family_state_is_named(self):
        """An entangled state with c+ != -c- fails the family test far above its rounding."""
        sigma = np.array([[3, 0, 2.5, 0], [0, 3, 0, -2], [2.5, 0, 3, 0], [0, -2, 0, 3]])
        with pytest.raises(ValueError, match=r"^state is not of thermal squeezed form \(c\+ != -c-\)$"):
            two_mode_m(sigma)

    def test_resolvable_separability_keeps_its_verdict(self):
        """Below s = 3 the verdict is the plain eta- >= 1 - tol test; past it, det eps >= 0 still reads separable."""
        rng = np.random.default_rng(21)
        verdicts = set()
        for s, l, n in zip(rng.uniform(0.0, 3.0, 300), *rng.uniform(0.0, 3.0, (2, 300))):
            for cov in (reduce(build_double_observer_cm(s, l, n), (1, 2)),
                        reduce(double_observer_blocks(s, l, n), (0, 3))):
                plain = bool(symplectic_eigenvalues(partial_transpose(cov, (0,))).min() >= 1.0 - 1e-9)
                assert ppt_separable(cov, (0,)) is plain
                verdicts.add(plain)
        assert verdicts == {True, False}
        # a separable verdict far above the floor stands however large the floor
        assert ppt_separable(CovMatrix(1e12 * np.eye(4)), (0,)) is True
        # past s = 3, a pair with det eps >= 0 is separable by Simon's criterion, within the floor or not:
        # anti-Leo with the vacuum anti-Nadia has eta- = 1 exactly and a floor of 7.9e-9 at s = 5
        for s in (5.0, 10.0, 20.0):
            product = reduce(build_double_observer_cm(s, 3.0, 0.0), (0, 3))
            assert 32 * np.finfo(float).eps * symplectic_eigenvalues(partial_transpose(product, (0,))).max() > 1e-9
            assert ppt_separable(product, (0,)) is True
            assert two_mode_m(product) == 1.0

    def test_overflowing_state_determinant_is_named(self):
        """At s = 109 det sigma overflows but no 2x2 determinant does; at s = 100 the family's (ab - c^2)^2 does."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the determinant of the state overflows \(det sigma = inf\)"):
                squeezed_thermal_m(reduce(double_observer_blocks(109.0, 0.0, 0.0), (1, 2)))
            with pytest.raises(ValueError, match=r"^the family determinant \(ab - c\^2\)\^2 overflows \(ab - c\^2 = "):
                squeezed_thermal_m(reduce(double_observer_blocks(100.0, 1e-6, 1e-6), (1, 2)))

    @pytest.mark.parametrize("measure", [squeezed_thermal_m, two_mode_m, two_mode_marginals,
                                         lambda sigma: mutual_information(sigma, (0,))])
    def test_one_two_mode_gate(self, measure):
        with pytest.raises(ValueError, match=r"needs a two-mode state, got 3 modes"):
            measure(build_single_observer_cm(1.0, 0.5))

    def test_thermal_rejects_positive_correlations(self):
        red = reduce(build_single_observer_cm(1.0, 1.0), (0, 2))  # separable, det eps > 0
        assert squeezed_thermal_m(red) == 1.0  # resolved by the PPT gate first

    def test_thermal_refuses_positive_correlations_read_entangled(self):
        """x-x correlation c_x and p-p correlation 1 put eta- at 0.99989, below 1 but within the floor
        32 eps max|sigma|^2 = 7e-3, so the gate passes it as a state to float resolution.  Its partial transpose
        reads entangled, though det eps > 0 would make a state separable (Simon): the family refuses it."""
        a = 1e6
        c_x = a - (1.0 - 1e-4) ** 2 / a  # eta-^2 = a (a - c_x) = (1 - 1e-4)^2 where the p-p correlation is 0
        mat = np.diag([a, a, a, a])
        mat[0, 2] = mat[2, 0] = c_x
        mat[1, 3] = mat[3, 1] = 1.0
        cov = CovMatrix(mat)
        assert is_bona_fide(cov) and not ppt_separable(cov, (0,)) and two_mode_marginals(cov)[2] > 0.0
        with pytest.raises(ValueError, match=r"^entangled two-mode states need det eps < 0$"):
            squeezed_thermal_m(cov)

    def test_thermal_refuses_invariants_outside_the_family(self):
        """Every state with blocks a I, b I and c Z has (a - 1)(b + 1) >= c^2, which keeps sinh^2 l >= 0; here c^2
        exceeds it by 100, which puts eta- at 0.9999, within the floor 32 eps max|sigma|^2 = 7e-3 of 1."""
        a, b = 1e4, 1e6
        c = math.sqrt((a - 1.0) * (b + 1.0) + 100.0)
        z = np.diag([1.0, -1.0])
        cov = CovMatrix(np.block([[a * np.eye(2), c * z], [c * z, b * np.eye(2)]]))
        assert is_bona_fide(cov) and symplectic_eigenvalues(cov)[0] < 1.0 - 1e-5
        for measure in (squeezed_thermal_m, two_mode_m):
            with pytest.raises(ValueError, match=r"^invariants fall outside the thermal squeezed family$"):
                measure(cov)

    def test_dispatch_routes(self):
        assert two_mode_m(tms_cm(0.7)) == pytest.approx(math.cosh(1.4), rel=1e-10)
        sigma3 = build_single_observer_cm(1.0, 1.0)
        assert two_mode_m(reduce(sigma3, (1, 2))) == pytest.approx(math.cosh(2.0), rel=1e-9)
        sigma4 = build_double_observer_cm(2.0, 1.0, 1.0)
        assert two_mode_m(reduce(sigma4, (1, 2))) == 1.0  # past the death threshold

    @pytest.mark.parametrize("measure", [two_mode_m, contangle_from_cm, squeezed_thermal_m,
                                         lambda sigma: ppt_separable(sigma, (0,)),
                                         lambda sigma: log_negativity(sigma, (0,)),
                                         lambda sigma: mutual_information(sigma, (0,))],
                             ids=["two_mode_m", "contangle_from_cm", "squeezed_thermal_m", "ppt_separable",
                                  "log_negativity", "mutual_information"])
    def test_every_measure_refuses_a_matrix_that_is_not_positive_definite(self, measure):
        """No indefinite matrix is a state, not even diag(-1, -1, 1, 1), whose symplectic spectrum is (1, 1)."""
        for mat in (np.diag([-1.0, -1.0, 1.0, 1.0]), np.diag([-1.0, 1.0, 1.0, 1.0]), -np.eye(4)):
            with pytest.raises(ValueError, match=r"^state is not physical \(covariance matrix not positive definite"):
                measure(mat)

    def test_contangle_from_cm_report(self):
        rep = contangle_from_cm(tms_cm(1.0))
        assert rep.source == "numeric_cm"
        assert rep.contangle == pytest.approx(4.0, abs=1e-10)


class TestMemoisedState:
    """Measures on a state whose spectrum and partial transposes are memoised equal a fresh state's."""

    @staticmethod
    def measures(cov):
        return (two_mode_m(cov), mutual_information(cov, (0,)), log_negativity(cov, (0,)),
                log_negativity(cov, [1]), ppt_separable(cov, (1,)), von_neumann_entropy(cov))

    def test_bit_identical_to_a_fresh_state(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s, r, l, n = rng.uniform(0.0, 3.0, 4)
            single, double = build_single_observer_cm(s, r), build_double_observer_cm(s, l, n)
            for cov in (reduce(single, (0, 1)), reduce(single, (1, 2)), reduce(single, (0, 2)),
                        reduce(double, (1, 2)), reduce(double, (0, 1))):
                first = self.measures(cov)
                assert self.measures(cov) == first
                assert self.measures(reduce(cov, (0, 1))) == first  # a fresh state of the same route

    @staticmethod
    def four_value_mutual_information(cov):
        """The mutual information as one array call of f over (a, b, eta-, eta+)."""
        a, b, _ = two_mode_marginals(cov)
        f_a, f_b, f_minus, f_plus = entropy_term_f(np.array([a, b, *np.maximum(symplectic_eigenvalues(cov), 1.0)]))
        return float(f_a + f_b - (f_minus + f_plus))

    def test_mutual_information_is_the_four_value_array_sum_bit_for_bit(self):
        rng = np.random.default_rng(11)
        families = {"pure": 0, "gmemms": 0, "thermal": 0, "clamped": 0}
        for _ in range(40):
            s, r, l, n = rng.uniform(0.0, 3.0, 4)
            single, double = build_single_observer_cm(s, r), build_double_observer_cm(s, l, n)
            states = [reduce(single, (0, 1)), reduce(single, (1, 2)), reduce(single, (0, 2)),
                      reduce(double, (1, 2)), reduce(double, (0, 1)), tms_cm(s)]
            for cov in states:
                etas = symplectic_eigenvalues(cov)
                families["pure" if abs(etas - 1.0).max() <= 1e-6 else
                         "gmemms" if abs(etas[0] - 1.0) <= 1e-6 else "thermal"] += 1
                families["clamped"] += bool(etas[0] < 1.0)
                expected = self.four_value_mutual_information(reduce(cov, (0, 1)))
                for split in ((0,), (1,)):
                    assert np.float64(mutual_information(cov, split)).tobytes() == np.float64(expected).tobytes()
        assert min(families.values()) > 0, families

    @pytest.mark.parametrize("s,l,n", [(1.2, 0.6, 0.9), (0.7, 0.01, 2.9), (2.0, 1.0, 1.0), (1.5, 0.0, 0.0)])
    def test_at_most_two_determinant_calls_per_library_point(self, monkeypatch, s, l, n):
        """None: the factor's rows give the marginals, det eps and det sigma = (det X)^2."""
        calls = []
        det = np.linalg.det

        def counting(*args, **kwargs):
            calls.append(1)
            return det(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "det", counting)
        ln = reduce(build_double_observer_cm(s, l, n), (1, 2))
        two_mode_m(ln), mutual_information(ln, (0,)), log_negativity(ln, (0,))
        assert calls == []

    @pytest.mark.parametrize("s,l,n", [(1.2, 0.6, 0.9), (0.7, 0.01, 2.9), (2.0, 1.0, 1.0), (1.5, 0.0, 0.0)])
    def test_two_cholesky_factorisations_per_library_point(self, monkeypatch, s, l, n):
        """None, and no SVD: sigma_LN's spectrum and its partial transpose's come from the factor's rows.

        Each covariance matrix is validated once, where it enters the numeric
        route: the finished state of the squeezer chain.  Its intermediate
        states are not validated, and the reduction and the partial transpose
        are exact images of a validated matrix, so they are not validated
        again.  Each of the three squeezers is checked once, on its two
        entries, through the shared symplectic verdict, and none runs the
        generic product test of ``SympTransform.__post_init__``.
        """
        calls = []
        built = {CovMatrix: 0, SympTransform: 0}
        verdicts = []
        verdict = phase_space._symplectic_verdict
        for name in ("cholesky", "svd"):
            def counting(*args, original=getattr(np.linalg, name), name=name, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        for cls in built:
            def post_init(self, validate=cls.__post_init__, cls=cls):
                built[cls] += 1
                validate(self)
            monkeypatch.setattr(cls, "__post_init__", post_init)

        def counting_verdict(*args):
            verdicts.append(1)
            verdict(*args)
        monkeypatch.setattr(phase_space, "_symplectic_verdict", counting_verdict)
        ln = reduce(build_double_observer_cm(s, l, n), (1, 2))
        two_mode_m(ln), mutual_information(ln, (0,)), log_negativity(ln, (0,))
        assert calls == []
        assert built == {CovMatrix: 1, SympTransform: 0}
        assert len(verdicts) == 3


@given(st.floats(0.05, 2.5), st.floats(0.05, 2.5))
@settings(max_examples=40, deadline=None)
def test_wedge_contangle_independent_of_inertial_squeezing(s, r):
    # the Rob/anti-Rob entanglement depends on the acceleration alone
    red = reduce(build_single_observer_cm(s, r), (1, 2))
    assert two_mode_m(red) == pytest.approx(math.cosh(2 * r), rel=1e-7)
