"""Covariance-matrix toolkit for continuous-variable correlations in accelerated frames."""

__version__ = "0.1.0"

from .phase_space import (
    CovMatrix,
    SympTransform,
    apply_congruence,
    is_bona_fide,
    is_pure,
    partial_transpose,
    reduce,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezer,
    vacuum_cm,
)
from .info_measures import (
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
    von_neumann_entropy,
)
from .rindler_frames import (
    accel_to_squeezing,
    build_double_observer_cm,
    build_single_observer_cm,
    double_observer_blocks,
    pure_one_vs_rest_m,
    single_observer_blocks,
    squeezing_to_ratio,
    unruh_temperature,
)
from .entanglement_analysis import (
    DoubleObserverReport,
    SingleObserverReport,
    a_star,
    classical_deficit,
    contangle_ar,
    contangle_r_rbar,
    double_observer_report,
    frequency_separability,
    m_ln_equal_accel,
    m_ln_infinite_squeezing,
    mutual_info_ar,
    mutual_info_ln,
    pairwise_m_double,
    r_effective,
    r_star,
    residual_multipartite,
    residual_tripartite,
    single_observer_report,
    tau_max_ar,
    tripartite_upper_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
