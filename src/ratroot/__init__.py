"""Exact rational approximations to integer n-th roots.

An n-dimensional integer linear system is iterated whose adjacent-entry
ratios converge to k**(1/n); three exact power engines cross-check each
other, the closed-form spectrum predicts the convergence rate, and a scaled
integer oracle certifies digits of accuracy.
"""

from .core import (
    DegenerateRate,
    DivisionByZero,
    IllConditioned,
    Matrix,
    NonConvergence,
    Params,
    ParamsMismatch,
    PoleEncountered,
    RingPoly,
    StateVector,
    ZeroVector,
)
from .engine import (
    PowerBasisCoeffs,
    apply_power,
    companion_matrix,
    fib_power_chain,
    mat_pow,
    power_basis_coeffs,
    ring_mul,
    ring_one,
    ring_pow_one_plus_x,
)
from .oracle import (
    RootBracket,
    digits_of_accuracy,
    integer_nth_root,
    log10_error_bound,
    nth_root_bracket,
)
from .recursion import (
    ScalarTrajectory,
    Trajectory,
    iterate_linear,
    iterate_scalar_map,
    ratio,
)
from .spectral import (
    Decomposition,
    EigenPair,
    SpectralData,
    convergence_rate,
    decompose,
    eigenvalues,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateRate",
    "DivisionByZero",
    "IllConditioned",
    "Matrix",
    "NonConvergence",
    "Params",
    "ParamsMismatch",
    "PoleEncountered",
    "RingPoly",
    "StateVector",
    "ZeroVector",
    "PowerBasisCoeffs",
    "apply_power",
    "companion_matrix",
    "fib_power_chain",
    "mat_pow",
    "power_basis_coeffs",
    "ring_mul",
    "ring_one",
    "ring_pow_one_plus_x",
    "RootBracket",
    "digits_of_accuracy",
    "integer_nth_root",
    "log10_error_bound",
    "nth_root_bracket",
    "ScalarTrajectory",
    "Trajectory",
    "iterate_linear",
    "iterate_scalar_map",
    "ratio",
    "Decomposition",
    "EigenPair",
    "SpectralData",
    "convergence_rate",
    "decompose",
    "eigenvalues",
]
