"""Floating-point eigen-analysis of the iteration matrix.

The characteristic polynomial of M is (1 - y)**n + (-1)**(n+1) * k, so the
eigenvalues come in closed form: 1 + k**(1/n) * exp(2*pi*i*j/n) for
j = 0..n-1. No general eigensolver is involved; double-precision complex is
used throughout and no exactness is claimed here (exact claims live in the
engine and oracle modules).

Eigenvector j has entries (r*w**j)**(n-1-i), r = k**(1/n), w = exp(2*pi*i/n),
so the eigenvector matrix is V = D*F with D = diag(r**(n-1-i)) and F the DFT
matrix: V c = b is solved in closed form, and cond_2(V) = r**(n-1) exactly.

:func:`convergence_rate` is the one place the spectrum becomes a rate, and it
needs only r, so it answers wherever r fits a float. :func:`eigenvector_scale`
is the one check of r**(n-1) against the float range: :func:`decompose` needs
it to build the eigenvectors, and ``approx`` asks it too, as it has no size
bound for powers past it.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .core import IllConditioned, Params, check_state

_SNAP = 1e-13  # relative threshold below which a float component is rounding noise

RESIDUAL_BOUND = 1e-9


class Decomposition(namedtuple("Decomposition", "coefficients values vectors")):
    """Coefficients c expressing a start vector over the eigenvector basis.

    ``values`` are the n eigenvalues, dominant (j = 0) first, and
    ``vectors`` their eigenvectors, entry i of vector j being
    (r*w**j)**(n-1-i), so the last entry is 1 and adjacent entries of the
    dominant vector have ratio k**(1/n).
    """

    __slots__ = ()

    def predict(self, t: int) -> tuple[complex, ...]:
        """Float forecast of the exact state at time t: sum of c_j * value_j**t * vector_j.

        ``predict(0)`` is the reconstruction of the start vector.
        """
        n = len(self.values)
        out = [0j] * n
        for c, value, vector in zip(self.coefficients, self.values, self.vectors):
            w = c * value**t
            for i in range(n):
                out[i] += w * vector[i]
        return tuple(out)


def _real_root(params: Params) -> float:
    """k**(1/n) as a float, exact when k is a perfect n-th power.

    exp(log(k) / n) stands in when k itself is past the float range. Raises
    OverflowError when r is too.
    """
    n, k = params.n, params.k
    try:
        try:
            r = k ** (1.0 / n)
        except OverflowError:
            r = math.exp(math.log(k) / n)
    except OverflowError:
        raise OverflowError(
            f"k**(1/n) is past the floating-point range (n={n}, k of {k.bit_length()} bits)"
        ) from None
    ri = round(r)
    if ri**params.n == params.k:
        return float(ri)
    return r


def eigenvector_scale(params: Params) -> float:
    """r**(n-1), r = k**(1/n): the largest eigenvector entry, and cond_2(V).

    Raises OverflowError when it is past the float range. The eigenvalues
    need only r, so :func:`spectrum` and :func:`convergence_rate` do not
    check it.
    """
    n, k = params.n, params.k
    try:
        return _real_root(params) ** (n - 1)
    except OverflowError:
        raise OverflowError(
            f"k**((n-1)/n) is past the floating-point range (n={n}, k of {k.bit_length()} bits)"
        ) from None


def _snap_component(x: float, scale: float) -> float:
    return 0.0 if abs(x) < _SNAP * scale else x


def spectrum(params: Params) -> tuple[list[complex], list[complex], float]:
    """(bases, values, rate): r*w**j and 1 + r*w**j for j = 0..n-1, snapped.

    Components smaller than rounding noise are snapped to zero so degenerate
    cases (k = 1, even n) come out exact. ``rate`` is the largest subdominant
    modulus over the dominant 1 + r. O(n); no eigenvector is built.
    """
    n = params.n
    r = _real_root(params)
    scale = 1.0 + r
    bases, values = [], []
    for j in range(n):
        theta = 2.0 * math.pi * j / n
        base = complex(
            _snap_component(r * math.cos(theta), scale),
            _snap_component(r * math.sin(theta), scale),
        )
        bases.append(base)
        values.append(complex(_snap_component(1.0 + base.real, scale), base.imag))
    rate = max(abs(v) for v in values[1:]) / scale
    return bases, values, rate


def convergence_rate(params: Params) -> tuple[float, float]:
    """(rho, digits_per_step): subdominant-to-dominant ratio and -log10 of it.

    Takes the n eigenvalues alone, in O(n), so it answers every (n, k) whose
    r = k**(1/n) fits a float. Where rho = 0 (n = 2, k = 1), convergence is
    a single exact step and the rate is (0.0, inf).
    """
    _, _, rho = spectrum(params)
    return rho, (-math.log10(rho) if rho else math.inf)


def decompose(params: Params, r0) -> Decomposition:
    """Solve V c = r0, where V's columns are the eigenvectors.

    r0 is any sequence of n ints, not all zero. The closed-form c gets one
    refinement step; without it the residual for r0 = (1, ..., n) at
    (9, 10**6) is 1.4e-9. Raises IllConditioned (with cond_2(V)) if c cannot
    reconstruct r0 to the residual bound. Raises OverflowError where
    :func:`eigenvector_scale` does.
    """
    n = params.n
    r0 = check_state(r0, n)
    bases, values, _ = spectrum(params)
    cond = eigenvector_scale(params)
    values = tuple(values)
    vectors = tuple(tuple(base ** (n - 1 - i) for i in range(n)) for base in bases)

    def solve(b):  # c = F**-1 D**-1 b, i.e. c_j = (1/n) * sum_i b_i / V[i][j]
        return [sum(bi / vi for bi, vi in zip(b, v)) / n for v in vectors]

    b = [float(e) for e in r0]
    c = solve(b)
    rec = Decomposition(c, values, vectors).predict(0)
    step = solve([bi - ri for bi, ri in zip(b, rec)])
    dec = Decomposition(tuple(ci + di for ci, di in zip(c, step)), values, vectors)
    residual = max(abs(ri - bi) for ri, bi in zip(dec.predict(0), b))
    if not residual < RESIDUAL_BOUND:
        raise IllConditioned(residual, cond)
    return dec
