"""Floating-point eigen-analysis of the iteration matrix.

The characteristic polynomial of M is (1 - y)**n + (-1)**(n+1) * k, so the
eigenvalues come in closed form: 1 + k**(1/n) * exp(2*pi*i*j/n) for
j = 0..n-1. No general eigensolver is involved; double-precision complex is
used throughout and no exactness is claimed here (exact claims live in the
engine and oracle modules).

Eigenvector j has entries (r*w**j)**(n-1-i), r = k**(1/n), w = exp(2*pi*i/n),
so the eigenvector matrix is V = D*F with D = diag(r**(n-1-i)) and F the DFT
matrix: V c = b is solved in closed form, and cond_2(V) = r**(n-1) exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DegenerateRate, IllConditioned, Params, StateVector

_SNAP = 1e-13  # relative threshold below which a float component is rounding noise

RESIDUAL_BOUND = 1e-9


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its eigenvector, normalized so the last entry is 1.

    Entry m from the bottom is (value - 1)**m; adjacent entries of the
    dominant pair therefore all have ratio k**(1/n).
    """

    value: complex
    vector: tuple[complex, ...]


@dataclass(frozen=True)
class SpectralData:
    """All n eigenpairs, the dominant index, and the convergence ratio.

    ``rate`` is (second-largest modulus) / (dominant modulus), in [0, 1).
    """

    params: Params
    pairs: tuple[EigenPair, ...]
    dominant_index: int
    rate: float

    @property
    def dominant(self) -> EigenPair:
        return self.pairs[self.dominant_index]


@dataclass(frozen=True)
class Decomposition:
    """Coefficients c expressing a start vector over the eigenvector basis."""

    coefficients: tuple[complex, ...]
    basis: SpectralData

    def reconstruct(self) -> tuple[complex, ...]:
        return self.predict(0)

    def predict(self, t: int) -> tuple[complex, ...]:
        """Float forecast of the exact state at time t: sum of c_j * value_j**t * vector_j."""
        pairs = self.basis.pairs
        n = len(pairs)
        out = [0j] * n
        for c, p in zip(self.coefficients, pairs):
            w = c * p.value**t
            for i in range(n):
                out[i] += w * p.vector[i]
        return tuple(out)


def _real_root(params: Params) -> float:
    """k**(1/n) as a float, exact when k is a perfect n-th power.

    exp(log(k) / n) stands in when k itself is past the float range. Raises
    OverflowError when r**(n-1), the largest eigenvector entry, is too.
    """
    n, k = params.n, params.k
    try:
        try:
            r = k ** (1.0 / n)
        except OverflowError:
            r = math.exp(math.log(k) / n)
        r ** (n - 1)  # the largest eigenvector entry; raises if it overflows
    except OverflowError:
        raise OverflowError(
            f"k**((n-1)/n) is past the floating-point range (n={n}, k of {k.bit_length()} bits)"
        ) from None
    ri = round(r)
    if ri**params.n == params.k:
        return float(ri)
    return r


def _snap_component(x: float, scale: float) -> float:
    return 0.0 if abs(x) < _SNAP * scale else x


def eigenvalues(params: Params) -> SpectralData:
    """Closed-form eigen-decomposition of the iteration matrix.

    Eigenvalue j is 1 + k**(1/n) * exp(2*pi*i*j/n); components smaller than
    rounding noise are snapped to zero so degenerate cases (k = 1, even n)
    come out exact.
    """
    n = params.n
    r = _real_root(params)
    scale = 1.0 + r
    pairs = []
    for j in range(n):
        theta = 2.0 * math.pi * j / n
        base = complex(
            _snap_component(r * math.cos(theta), scale),
            _snap_component(r * math.sin(theta), scale),
        )
        value = complex(
            _snap_component(1.0 + base.real, scale),
            base.imag,
        )
        vector = tuple(base ** (n - 1 - i) for i in range(n))
        pairs.append(EigenPair(value, vector))
    dominant = 0  # j = 0 gives the real positive 1 + k**(1/n)
    rate = max(abs(p.value) for i, p in enumerate(pairs) if i != dominant) / scale
    return SpectralData(params, tuple(pairs), dominant, rate)


def convergence_rate(params: Params) -> tuple[float, float]:
    """(rho, digits_per_step): subdominant-to-dominant ratio and -log10 of it.

    Raises DegenerateRate when rho = 0 (n = 2, k = 1), where convergence is
    a single exact step.
    """
    rho = eigenvalues(params).rate
    if rho == 0.0:
        raise DegenerateRate(f"all subdominant eigenvalues vanish for {params}")
    return rho, -math.log10(rho)


def _solve(pairs: tuple[EigenPair, ...], b) -> list[complex]:
    """c = F**-1 D**-1 b, i.e. c_j = (1/n) * sum_i b_i / V[i][j]."""
    return [sum(bi / vi for bi, vi in zip(b, p.vector)) / len(b) for p in pairs]


def decompose(params: Params, r0: StateVector) -> Decomposition:
    """Solve V c = r0, where V's columns are the eigenvectors.

    The closed-form c gets one refinement step; without it the residual for
    r0 = (1, ..., n) at (9, 10**6) is 1.4e-9. Raises IllConditioned (with
    cond_2(V)) if c cannot reconstruct r0 to the residual bound.
    """
    if len(r0) != params.n:
        raise ValueError(f"state length {len(r0)} != n={params.n}")
    data = eigenvalues(params)
    b = [float(e) for e in r0.entries]
    c = _solve(data.pairs, b)
    rec = Decomposition(tuple(c), data).reconstruct()
    step = _solve(data.pairs, [bi - ri for bi, ri in zip(b, rec)])
    dec = Decomposition(tuple(ci + di for ci, di in zip(c, step)), data)
    residual = max(abs(ri - bi) for ri, bi in zip(dec.reconstruct(), b))
    if not residual < RESIDUAL_BOUND:
        raise IllConditioned(residual, _real_root(params) ** (params.n - 1))
    return dec
