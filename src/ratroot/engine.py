"""Construction of the iteration matrix and exact evaluation of its powers.

For parameters (n, k) the iteration matrix is M = I + S, where S is the
k-weighted cyclic shift: k in the top-right corner, ones on the first
subdiagonal, zeros elsewhere. S**n = k*I, so the span of I, S, ..., S**(n-1)
multiplies exactly like Z[x]/(x**n - k) with S playing x; applying M to a
column vector is multiplication by (1 + x). That one O(n) step of M is
:func:`step_one_plus_x`; the ladder, ``table`` and the linear trajectory all
take it.

The engine has one ring. An element of Z[x]/(x**n - k) is a plain tuple of
n ints, entry i the coefficient of x**i, and every product is reduced by one
rule, x**m -> k*x**(m-n) (:func:`_fold`).

Two power routes are kept on purpose. :func:`mat_pow`, repeated matrix
multiplication, is the trusted reference, and the quotient-ring route is the
production path. They share no multiply and must agree exactly, always.
:func:`apply_power` runs the ring route in one shot; ``table``, ``selftest``
and the engine-agreement check use it. ``approx`` keeps the ring power
between its step-doubling attempts: it builds (1 + x)**t by the ladder
once, squares it by :func:`square_ring` on each doubling, and forms each
attempt's state by :func:`apply_ring_power`, the product apply_power uses.

The ring route computes (1 + x)**t with a left-to-right ladder: per bit of t
one square by the squaring kernel :func:`_sqrmod`, and on a set bit one
:func:`step_one_plus_x`. The kernel squares schoolbook up to SQR_CUTOVER
coefficients (each cross product once, about half the products of a general
multiply) and splits longer polynomials Karatsuba-style into three
half-length squares, so every big-integer product stays at coefficient size.
The one general product, :func:`_mulmod`, is schoolbook; it applies a
power to a start vector and composes the ``--fib`` chain.

The power basis I, M, ..., M**(n-1) appears only at the output: a ring
element is changed to it, x = y - 1, by one Taylor shift done with
subtractions only (:func:`power_basis_coeffs`, and once per entry of
:func:`fib_power_chain`).

For n = 2 the coefficient pair is the whole ring element, and ``approx``
and ``table`` print it reduced. The content of (1 + x)**t is a power of
two, so :func:`primitive_pair` reduces it by shifts, and no gcd of
full-size entries is ever taken.
"""
from __future__ import annotations

from operator import add, sub

from .core import Matrix, Params, ZeroVector, check_state


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


def mat_pow(a: Matrix, t: int) -> Matrix:
    """a**t exactly, by t repeated multiplications: the trusted reference."""
    if t < 0:
        raise ValueError(f"exponent must be nonnegative, got {t}")
    acc = Matrix.identity(a.n)
    for _ in range(t):
        acc = acc * a
    return acc


def _fold(prod, k) -> list[int]:
    """Reduce a full product of 2n - 1 coefficients modulo x**n - k.

    The one reduction rule of the engine: x**m folds to k*x**(m-n).
    """
    n = (len(prod) + 1) // 2
    for m in range(n - 1):
        prod[m] += k * prod[m + n]
    return prod[:n]


def _mulmod(a, b, k) -> tuple[int, ...]:
    """a*b in Z[x]/(x**n - k) for length-n sequences a and b, schoolbook."""
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return tuple(_fold(prod, k))


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
    SQR_CUTOVER coefficients, Karatsuba above) and is reduced by
    :func:`_fold`.
    """
    return _fold(_square(a), k)


def step_one_plus_x(c, k) -> list[int]:
    """c*(1 + x) in Z[x]/(x**n - k): c0 <- c0 + k*c(n-1), ci <- ci + c(i-1).

    Read as a state vector, c -> M c: one step of the iteration in O(n).
    """
    return [c[0] + k * c[-1], *map(add, c[1:], c)]


def ring_pow_one_plus_x(params: Params, t: int) -> tuple[int, ...]:
    """(1 + x)**t in Z[x]/(x**n - k), by a left-to-right ladder.

    For each bit of t from the top the accumulator is squared, and on a set
    bit stepped once by :func:`step_one_plus_x`. Coefficient i is entry i+1
    of M**t applied to the first standard basis vector.
    """
    if t < 0:
        raise ValueError(f"exponent must be nonnegative, got {t}")
    k = params.k
    c = [1] + [0] * (params.n - 1)
    for bit in f"{t:b}":
        c = _sqrmod(c, k)
        if bit == "1":
            c = step_one_plus_x(c, k)
    return tuple(c)


def primitive_pair(c) -> tuple[int, int]:
    """(a, b) / gcd(a, b) for a + b*x = (1 + x)**t in Z[x]/(x**2 - k).

    For n = 2 the state M**t (1, 1) is (1 + x)**(t + 1), so this is the
    reduced convergent a/b. The content of (1 + x)**t is a power of two, so
    it is shifted off (the smaller trailing-zero count of a and b) and no
    gcd of full-size entries runs. Proof: if an odd prime p divided both a
    and b, then (1 + x)**t would vanish modulo p, and so would its norm
    (1 - k)**t; so p divides k - 1. But then x**2 = 1 modulo p, so
    (1 + x)**2 = 2*(1 + x) and (1 + x)**t = 2**(t-1)*(1 + x) for t >= 1,
    which does not vanish modulo p (nor does 1 at t = 0).
    """
    a, b = c
    low = a | b
    s = (low & -low).bit_length() - 1
    return a >> s, b >> s


def square_ring(params: Params, c) -> tuple[int, ...]:
    """c*c in Z[x]/(x**n - k) by the ladder's squaring kernel.

    For c = (1 + x)**t this is (1 + x)**(2t), what the ladder for 2t would
    build from the same c: one square, no fresh ladder.
    """
    return tuple(_sqrmod(c, params.k))


def apply_ring_power(params: Params, c, r0, t: int) -> tuple[int, ...]:
    """M**t r0 from the ring power c = (1 + x)**t.

    r0 is any sequence of n ints, not all zero. Entry i of a state
    corresponds to the coefficient of x**(i-1), so the result is c times
    the polynomial image of r0, read back as a tuple.
    Raises ZeroVector(t) if the result vanishes (singular M, even n with
    k=1).
    """
    pt = _mulmod(c, check_state(r0, params.n), params.k)
    if not any(pt):
        raise ZeroVector(t)
    return pt


def apply_power(params: Params, t: int, r0) -> tuple[int, ...]:
    """Evolve the state r0 by t steps in one shot: M**t r0 via the quotient ring.

    r0 is checked first, then (1 + x)**t is built by the ladder and applied
    by :func:`apply_ring_power`.
    """
    r0 = check_state(r0, params.n)
    return apply_ring_power(params, ring_pow_one_plus_x(params, t), r0, t)


def _to_power_basis(c) -> tuple[int, ...]:
    """Ring coefficients c of p(x) to the coefficients of p(y - 1).

    With x = S = M - I this expands p(S) over I, M, ..., M**(n-1). It is
    the alternating binomial transform

        a[m] = sum over i >= m of c[i] * C(i, m) * (-1)**(i - m),

    computed as an in-place Taylor shift by -1 (Horner's scheme, one pass
    per degree): n(n-1)/2 subtractions and no multiplications.
    """
    a = list(c)
    n = len(a)
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            a[i] -= a[i + 1]
    return tuple(a)


def power_basis_coeffs(params: Params, t: int) -> tuple[int, ...]:
    """Coefficients a with M**t = sum(a[i] * M**i for i < n).

    The Taylor shift of (1 + x)**t. The result equals the remainder of y**t
    modulo the monic characteristic polynomial (y - 1)**n - k, the unique
    such expansion since M has n distinct eigenvalues.
    """
    return _to_power_basis(ring_pow_one_plus_x(params, t))


def fib_power_chain(
    params: Params, chain_length: int
) -> list[tuple[int, tuple[int, ...]]]:
    """Exponents 2, 3, 5, 8, ... with the basis coefficients of each M**F_i.

    F_i = F_{i-1} + F_{i-2}. Each ring power (1 + x)**F_i past the first two
    is the product of its two predecessors, never a fresh exponentiation;
    each is then Taylor-shifted once into the power basis.
    """
    if chain_length < 1:
        raise ValueError(f"chain length must be >= 1, got {chain_length}")
    chain = [(e, ring_pow_one_plus_x(params, e)) for e in (2, 3)[:chain_length]]
    while len(chain) < chain_length:
        (e2, c2), (e1, c1) = chain[-2], chain[-1]
        chain.append((e1 + e2, _mulmod(c1, c2, params.k)))
    return [(e, _to_power_basis(c)) for e, c in chain]
