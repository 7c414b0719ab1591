"""Series solutions of linear and cubic Schrodinger-type equations.

The package generates homotopy-perturbation, Adomian-decomposition and plain
Taylor series for u_t + i u_xx = 0, the cubic equation
i u_t + u_xx + g |u|^2 u = 0 and its unit-modulus linear reduction, builds
all three with one exact recursion for the Taylor series of the solution,
checks its terms against the exactly computed series of the closed form, and
measures where such expansions are accurate using independent closed-form,
spectral-grid and eigenexpansion reference solvers.
"""

__version__ = "0.1.0"

from .errors import (
    DivergenceError,
    EvaluationOverflowError,
    InvalidInputError,
    SeriesMirageError,
    UnsupportedEquationError,
)
from .expsum import ExpSum, TimePoly, expsum_diff, tpoly_diff
from .methods import (
    Equation,
    EquationKind,
    SeriesMethod,
    SeriesSolution,
    adm_series,
    adomian_cubic,
    hpm_series,
    partial_sum_eval,
    series_max_term_diff,
    series_residual,
    taylor_series,
)
from .exact import (
    ExactEvaluator,
    closed_form_terms,
    exact_linear,
    exact_reduced_nls,
    exact_solution,
    remainder_closed_form,
)
from .grid import (
    Grid,
    GridState,
    free_propagate_spectral,
    gaussian_packet,
    l2_norm,
    sample,
    spectral_dxx,
    split_step_nls,
    sup_error,
)
from .operators import (
    OperatorSpec,
    diagonal_operator,
    eigen_project,
    exact_evolve,
    laplacian_dirichlet,
    series_evolve,
)
from .diagnostics import (
    ErrorRow,
    ErrorTable,
    NormClass,
    classify_normalizability,
    truncation_error_table,
    unit_modulus_deviation,
)

__all__ = [
    "DivergenceError",
    "EvaluationOverflowError",
    "InvalidInputError",
    "SeriesMirageError",
    "UnsupportedEquationError",
    "ExpSum",
    "TimePoly",
    "expsum_diff",
    "tpoly_diff",
    "Equation",
    "EquationKind",
    "SeriesMethod",
    "SeriesSolution",
    "adm_series",
    "adomian_cubic",
    "hpm_series",
    "partial_sum_eval",
    "series_max_term_diff",
    "series_residual",
    "taylor_series",
    "ExactEvaluator",
    "closed_form_terms",
    "exact_linear",
    "exact_reduced_nls",
    "exact_solution",
    "remainder_closed_form",
    "Grid",
    "GridState",
    "free_propagate_spectral",
    "gaussian_packet",
    "l2_norm",
    "sample",
    "spectral_dxx",
    "split_step_nls",
    "sup_error",
    "OperatorSpec",
    "diagonal_operator",
    "eigen_project",
    "exact_evolve",
    "laplacian_dirichlet",
    "series_evolve",
    "ErrorRow",
    "ErrorTable",
    "NormClass",
    "classify_normalizability",
    "truncation_error_table",
    "unit_modulus_deviation",
]
