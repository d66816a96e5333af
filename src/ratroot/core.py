"""Exact-arithmetic domain types shared by every other module.

Arbitrary-precision integers are plain Python ``int``. A state of the linear
iteration is a plain tuple of n ints, entries listed top to bottom;
:func:`check_state` is the one check of a start state. An adjacent-entry
ratio is never formed as a fraction: it stays the integer pair of its two
entries, and ``engine.reduced_pair`` reduces it where it is printed. Only
the scalar map's iterates are ``fractions.Fraction``. :func:`exact_decimal`
is the one context in which ``decimal.Decimal`` arithmetic on integers
runs: ``approx``'s large n = 2 ladders, their certificates and the
rendering of integers past the cutover.
Everything here is immutable and hashable, so values can be shared freely
between threads or processes.
"""
from __future__ import annotations

import contextlib
from collections import namedtuple


class ZeroVector(ArithmeticError):
    """The evolving state collapsed to the all-zero vector.

    Only possible when the iteration matrix is singular (even n with k = 1).
    """

    def __init__(self, t: int):
        self.t = t
        super().__init__(f"state became the zero vector at t={t}")


class PoleEncountered(ArithmeticError):
    """The scalar map hit a zero denominator (r**(n-1) + 1 = 0)."""

    def __init__(self, t: int, value):
        self.t = t
        self.value = value
        super().__init__(f"scalar map pole at step {t}: r = {value}")


class IllConditioned(ArithmeticError):
    """Eigenvector decomposition failed the residual bound."""

    def __init__(self, residual: float, cond: float):
        self.residual = residual
        self.cond = cond
        super().__init__(
            f"decomposition residual {residual:.3e} exceeds bound "
            f"(condition estimate {cond:.3e})"
        )


class NonConvergence(RuntimeError):
    """No certified answer within the step ceiling (exit 3).

    Raised when step doubling passes the ceiling, and when no starting t
    can be chosen: the floating-point rate rounds to 1, k**((n-1)/n) is
    past the float range, or the step count of the target passes it. Each
    is a documented outcome on valid input, not a bug.
    """


class UsageError(ValueError):
    """A request outside the domain of its arguments (exit 1).

    Raised by the checks of every value a ``ratroot`` argv can carry: n, k,
    a start state or its text, a step count, an exponent, a chain length,
    table bounds and ratio index, a digit target and a step ceiling; by
    argparse's own refusals; and by the CLI for an output it cannot write.
    A ValueError, so callers that catch ValueError keep working. Checks
    that no argv reaches (``engine.mat_pow``, the oracle's) stay plain
    ValueError: a failure there is a bug.
    """


class Params(namedtuple("Params", "n k")):
    """Problem instance: approximate the n-th root of k."""

    __slots__ = ()

    def __new__(cls, n: int, k: int):
        if not isinstance(n, int) or n < 2:
            raise UsageError(f"root order n must be an integer >= 2, got {n!r}")
        if not isinstance(k, int) or k < 1:
            raise UsageError(f"radicand k must be an integer >= 1, got {k!r}")
        return super().__new__(cls, n, k)


def check_state(r0, n: int) -> tuple[int, ...]:
    """A start state as a tuple of n ints, at least one of them nonzero.

    An all-zero start is refused as such, whatever its length.
    """
    r0 = tuple(r0)
    if not any(r0):
        raise UsageError("state vector must have at least one nonzero entry")
    if len(r0) != n:
        raise UsageError(f"state length {len(r0)} != n={n}")
    return r0


@contextlib.contextmanager
def exact_decimal():
    """The ``decimal`` module, under a local context in which arithmetic on
    integers is exact: unbounded precision and exponents, and Inexact
    trapped, so a step that would round raises instead. ``decimal`` is
    imported on the first entry, not with this module."""
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        yield decimal
