"""Classical and elliptic Apostol-Dedekind sums.

Exact-rational Bernoulli/Apostol arithmetic, Eisenstein and Weierstrass
special functions with truncation-error tracking, the elliptic sums and
their reciprocity laws, period-polynomial identities, and a CLI that
verifies all of them numerically.
"""

from .exact import (
    CoprimePair,
    LaurentPoly,
    apostol_sum,
    bernoulli_function,
    bernoulli_number,
    bernoulli_polynomial,
    dim_data,
    g_poly,
    rational_str,
    verify_apostol_reciprocity,
)
from .qseries import (
    ComplexVal,
    LatticePointError,
    NonConvergenceError,
    SeriesPolicy,
    SlowNomeWarning,
    TauPoint,
    eisenstein,
    eisenstein_normalized,
    eisenstein_tau_derivative,
    elliptic_bernoulli,
    parse_tau,
    weierstrass_p_deriv,
    weierstrass_zeta,
    weierstrass_zeta_deriv,
    zeta_odd,
)
from .symbols import (
    EllipticSumResult,
    MachideSpec,
    Route,
    elliptic_apostol_sum,
    expected_constant,
    generating_D,
    generating_R,
    machide_reciprocity_residuals,
    machide_sum,
    proposition31_constant_closed_form,
    proposition31_residual,
    reciprocity_rhs,
)
from .identities import (
    CoefficientVector,
    PeriodData,
    basis_rank,
    c_coefficients,
    eisenstein_period_data,
    random_taus,
    reciprocity_laurent,
    t_weighted,
    verify_eq64_onedim,
    verify_eq73,
    verify_three_term,
)

__version__ = "1.0.0"
