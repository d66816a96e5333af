"""Exact rational approximations to integer n-th roots.

An n-dimensional integer linear system is iterated whose adjacent-entry
ratios converge to k**(1/n); an exact ring power is cross-checked against
the naive matrix power, the closed-form spectrum predicts the convergence
rate, and a scaled integer oracle certifies digits of accuracy.

The engine computes in one ring, Z[x]/(x**n - k), whose elements are plain
tuples of n ints: ``ring_pow_one_plus_x`` gives (1 + x)**t, ``apply_power``
applies M**t to a state, and ``power_basis_coeffs`` and ``fib_power_chain``
change ring powers to the basis I, M, ..., M**(n-1) at the output.
``companion_matrix`` and ``mat_pow`` are the matrix reference; a matrix is a
plain tuple of row tuples of ints.

A state is a plain tuple of n ints. ``iterate_linear`` returns the tuple of
states t = 0, 1, ..., steps, and ``iterate_scalar_map`` the tuple of its
Fraction iterates. An adjacent-entry ratio of a state is the raw pair
``state[i - 1], state[i]``, which the oracle takes as it is; the CLI reduces
the convergents it prints with ``engine.reduced_pair``.

The oracle is integer-only: ``nth_root_bracket`` gives the int
floor(k**(1/n) * 10**d), and ``digits_of_ratio(p, q, params, cap)`` and
``log10_error_bound(p, q, params, ref_digits)`` take an integer pair p/q
with q > 0, reduced or not; a Fraction f is passed as
``*f.as_integer_ratio()``.
"""

from .core import (
    IllConditioned,
    NonConvergence,
    Params,
    PoleEncountered,
    UsageError,
    ZeroVector,
)
from .engine import (
    apply_power,
    companion_matrix,
    fib_power_chain,
    mat_pow,
    power_basis_coeffs,
    ring_pow_one_plus_x,
)
from .oracle import (
    digits_of_ratio,
    integer_nth_root,
    log10_error_bound,
    nth_root_bracket,
)
from .recursion import (
    iterate_linear,
    iterate_scalar_map,
)
from .spectral import (
    Decomposition,
    convergence_rate,
    decompose,
)

__version__ = "0.1.0"

__all__ = [
    "IllConditioned",
    "NonConvergence",
    "Params",
    "PoleEncountered",
    "UsageError",
    "ZeroVector",
    "apply_power",
    "companion_matrix",
    "fib_power_chain",
    "mat_pow",
    "power_basis_coeffs",
    "ring_pow_one_plus_x",
    "digits_of_ratio",
    "integer_nth_root",
    "log10_error_bound",
    "nth_root_bracket",
    "iterate_linear",
    "iterate_scalar_map",
    "Decomposition",
    "convergence_rate",
    "decompose",
]
