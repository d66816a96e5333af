"""Construction of the iteration matrix and exact evaluation of its powers.

For parameters (n, k) the iteration matrix is M = I + S, where S is the
k-weighted cyclic shift: k in the top-right corner, ones on the first
subdiagonal, zeros elsewhere. S**n = k*I, so the span of I, S, ..., S**(n-1)
multiplies exactly like Z[x]/(x**n - k) with S playing x; applying M to a
column vector is multiplication by (1 + x). That one O(n) step of M is
:func:`step_one_plus_x`; the ladder, ``table`` and the linear trajectory all
take it.

Three power routes are kept on purpose. ``naive`` repeated multiplication is
the trusted oracle, ``binary`` squaring is the general fast path, and the
quotient-ring route is the production path used by :func:`apply_power`. They
must agree exactly, always.

The ring route computes (1 + x)**t with a left-to-right ladder: per bit of t
one square by the squaring kernel :func:`_sqrmod`, and on a set bit one
:func:`step_one_plus_x`. The kernel squares schoolbook up to SQR_CUTOVER
coefficients (each cross product once, about half the products of a general
multiply) and splits longer polynomials Karatsuba-style into three
half-length squares, so every big-integer product stays at coefficient size.
The general ring product and the power-basis product (modulo
(y - 1)**n - k) share one schoolbook multiply, :func:`_mulmod`. The change
to the power basis, x = y - 1, is a Taylor shift done with subtractions only.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add, sub

from .core import Matrix, Params, ParamsMismatch, RingPoly, StateVector, ZeroVector


def companion_matrix(params: Params) -> Matrix:
    """Iteration matrix M: ones on diagonal and first subdiagonal, k top-right."""
    n, k = params.n, params.k
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    for i in range(1, n):
        rows[i][i - 1] = 1
    rows[0][n - 1] += k
    return Matrix(tuple(tuple(r) for r in rows))


def mat_pow(a: Matrix, t: int, method: str = "binary") -> Matrix:
    """a**t exactly; ``naive`` multiplies t-1 times, ``binary`` squares."""
    if t < 0:
        raise ValueError(f"exponent must be nonnegative, got {t}")
    if method == "naive":
        if t == 0:
            return Matrix.identity(a.n)
        acc = a
        for _ in range(t - 1):
            acc = acc * a
        return acc
    if method == "binary":
        acc = Matrix.identity(a.n)
        base = a
        while t:
            if t & 1:
                acc = acc * base
            t >>= 1
            if t:
                base = base * base
        return acc
    raise ValueError(f"unknown method {method!r}; expected 'naive' or 'binary'")


def ring_one(params: Params) -> RingPoly:
    return RingPoly((1,) + (0,) * (params.n - 1), params)


def _mulmod(a, b, fold) -> tuple[int, ...]:
    """Schoolbook a*b of length-n sequences modulo a monic degree-n polynomial
    whose nonzero low terms are the (i, q) pairs ``fold``: x**n = -sum(q*x**i).
    """
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for m in range(2 * n - 2, n - 1, -1):
        c = prod[m]
        if c:
            for i, q in fold:
                prod[m - n + i] -= c * q
    return tuple(prod[:n])


def ring_mul(a: RingPoly, b: RingPoly) -> RingPoly:
    """Product in Z[x]/(x**n - k): schoolbook multiply, fold x**m -> k*x**(m-n)."""
    if a.params != b.params:
        raise ParamsMismatch(f"operands built over {a.params} and {b.params}")
    return RingPoly(_mulmod(a.coeffs, b.coeffs, ((0, -a.params.k),)), a.params)


# Squares of at most this many coefficients run schoolbook; longer ones split.
# The ladder time is flat for cutovers 8-16 (BENCH_9.json); splitting down to
# 4 coefficients is slower, as the split's extra additions and calls then
# cost more than the products they save.
SQR_CUTOVER = 12


def _square(a) -> list[int]:
    """The full 2n - 1 coefficients of a*a for a length-n sequence a.

    Up to SQR_CUTOVER coefficients, schoolbook: each cross product ai*aj
    (i < j) formed once and doubled, plus the diagonal ai**2. Above it,
    Karatsuba: with h = ceil(n/2), a = lo + x**h * hi, and
    a*a = lo**2 + x**h * ((lo + hi)**2 - lo**2 - hi**2) + x**(2h) * hi**2.
    The middle term costs a third half-length square instead of a general
    product lo*hi, so about n**1.585 coefficient products are formed instead
    of n(n+1)/2, each still at coefficient size.
    """
    n = len(a)
    if n <= SQR_CUTOVER:
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(i + 1, n):
                    prod[i + j] += ai * a[j]
        prod = [c + c for c in prod]
        for i, ai in enumerate(a):
            prod[2 * i] += ai * ai
        return prod
    h = (n + 1) // 2
    lo, hi = a[:h], a[h:]
    lo2, hi2 = _square(lo), _square(hi)
    mid = _square([*map(add, lo, hi), *lo[len(hi):]])
    prod = lo2 + [0] + hi2
    for i, c in enumerate(map(sub, mid, lo2)):
        prod[h + i] += c
    for i, c in enumerate(hi2):
        prod[h + i] -= c
    return prod


def _sqrmod(a, k) -> list[int]:
    """a*a in Z[x]/(x**n - k) for a length-n sequence a.

    The full square comes from :func:`_square` (schoolbook up to
    SQR_CUTOVER coefficients, Karatsuba above), then x**m folds to
    k*x**(m-n).
    """
    n = len(a)
    prod = _square(a)
    for m in range(n - 1):
        prod[m] += k * prod[m + n]
    return prod[:n]


def step_one_plus_x(c, k) -> list[int]:
    """c*(1 + x) in Z[x]/(x**n - k): c0 <- c0 + k*c(n-1), ci <- ci + c(i-1).

    Read as a state vector, c -> M c: one step of the iteration in O(n).
    """
    return [c[0] + k * c[-1], *map(add, c[1:], c)]


def ring_pow_one_plus_x(params: Params, t: int) -> RingPoly:
    """(1 + x)**t in Z[x]/(x**n - k), by a left-to-right ladder.

    For each bit of t from the top the accumulator is squared, and on a set
    bit stepped once by :func:`step_one_plus_x`. Coefficient i is entry i+1
    of M**t applied to the first standard basis vector.
    """
    if t < 0:
        raise ValueError(f"exponent must be nonnegative, got {t}")
    k = params.k
    c = ring_one(params).coeffs
    for bit in f"{t:b}":
        c = _sqrmod(c, k)
        if bit == "1":
            c = step_one_plus_x(c, k)
    return RingPoly(c, params)


def apply_power(params: Params, t: int, r0: StateVector) -> StateVector:
    """Evolve r0 by t steps in one shot: M**t r0 via the quotient ring.

    Entry i of a state corresponds to the coefficient of x**(i-1), so the
    result is (1 + x)**t times the polynomial image of r0, mapped back.
    Raises ZeroVector if the result vanishes (singular M, even n with k=1).
    """
    if len(r0) != params.n:
        raise ValueError(f"state length {len(r0)} != n={params.n}")
    if t < 0:
        raise ValueError(f"exponent must be nonnegative, got {t}")
    pt = ring_mul(ring_pow_one_plus_x(params, t), RingPoly(r0.entries, params))
    if all(c == 0 for c in pt.coeffs):
        raise ZeroVector(t)
    return StateVector(pt.coeffs, t=t)


@dataclass(frozen=True)
class PowerBasisCoeffs:
    """Coefficients a with M**t = sum(a[i] * M**i for i < n)."""

    coeffs: tuple[int, ...]
    t: int
    params: Params

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.params.n:
            raise ValueError(
                f"expected {self.params.n} coefficients, got {len(self.coeffs)}"
            )


def power_basis_coeffs(params: Params, t: int) -> PowerBasisCoeffs:
    """Expand M**t over the matrix-power basis I, M, ..., M**(n-1).

    Takes the ring coefficients b of (1 + x)**t and substitutes x = y - 1
    (M = I + S), which is the alternating binomial transform

        a[m] = sum over i >= m of b[i] * C(i, m) * (-1)**(i - m),

    computed as an in-place Taylor shift by -1 (Horner's scheme, one pass
    per degree): n(n-1)/2 subtractions and no multiplications.

    The result equals the remainder of y**t modulo the monic characteristic
    polynomial (y - 1)**n - k, the unique such expansion since M has n
    distinct eigenvalues.
    """
    a = list(ring_pow_one_plus_x(params, t).coeffs)
    n = params.n
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            a[i] -= a[i + 1]
    return PowerBasisCoeffs(tuple(a), t, params)


def _charpoly_tail(params: Params) -> tuple[tuple[int, int], ...]:
    """Nonzero low terms (i, q[i]), i < n, of the monic (y - 1)**n - k."""
    n = params.n
    q = [comb(n, i) * (-1 if (n - i) & 1 else 1) for i in range(n)]
    q[0] -= params.k
    return tuple((i, qi) for i, qi in enumerate(q) if qi)


def fib_power_chain(
    params: Params, chain_length: int
) -> list[tuple[int, PowerBasisCoeffs]]:
    """Exponents 2, 3, 5, 8, ... with basis coefficients composed pairwise.

    Entry i is M**F_i where F_i = F_{i-1} + F_{i-2}; each coefficient vector
    past the first two is the product of its two predecessors reduced in the
    power basis, never a fresh exponentiation.
    """
    if chain_length < 1:
        raise ValueError(f"chain length must be >= 1, got {chain_length}")
    fold = _charpoly_tail(params)
    chain = [(2, power_basis_coeffs(params, 2))]
    if chain_length >= 2:
        chain.append((3, power_basis_coeffs(params, 3)))
    while len(chain) < chain_length:
        (e2, c2), (e1, c1) = chain[-2], chain[-1]
        e = e1 + e2
        coeffs = _mulmod(c1.coeffs, c2.coeffs, fold)
        chain.append((e, PowerBasisCoeffs(coeffs, e, params)))
    return chain
