"""Shared test utilities kept independent of the code under test."""

from fractions import Fraction
from math import comb


def bareiss_det(rows) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n identity as a tuple of row tuples."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_apply(a, v) -> tuple[int, ...]:
    """The matrix-vector product a v, for a matrix a given as a tuple of row tuples."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_comb(terms) -> tuple[tuple[int, ...], ...]:
    """The sum of c*a over the pairs (c, a), square matrices of one size."""
    terms = list(terms)
    n = len(terms[0][1])
    return tuple(tuple(sum(c * a[i][j] for c, a in terms) for j in range(n)) for i in range(n))


def brute_floor_root(m: int, n: int) -> int:
    """Exhaustive floor(m**(1/n)): walk r upward until (r+1)**n exceeds m."""
    r = 0
    while (r + 1) ** n <= m:
        r += 1
    return r


def bisect_nth_root(m: int, n: int) -> int:
    """floor(m**(1/n)) by pure-integer binary search; shares no step with Newton."""
    if m < 2 or n == 1:
        return m
    hi = 1
    while hi**n <= m:
        hi <<= 1
    lo = hi >> 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**n <= m:
            lo = mid
        else:
            hi = mid
    return lo


def farther_end_error(candidate, n: int, k: int, digits: int) -> Fraction:
    """Fraction distance from candidate to the farther end of the bisected
    width-10**-digits bracket around k**(1/n)."""
    scale = 10**digits
    lo = bisect_nth_root(k * scale**n, n)
    candidate = Fraction(candidate)
    return max(abs(candidate - Fraction(lo, scale)), abs(candidate - Fraction(lo + 1, scale)))


def scan_digits_of_accuracy(candidate, n: int, k: int, cap: int, guard: int) -> int:
    """Reference digit certificate: Fraction error, bisected bracket, step scan.

    The error bound is the Fraction distance to the farther endpoint of the
    width-10**-(cap + guard) bracket; d then steps up from 0 one power of
    ten at a time while that bound is below 10**-(d+1).
    """
    err = farther_end_error(candidate, n, k, cap + guard)
    num, den = err.numerator, err.denominator
    d = 0
    while d < cap and num * 10 ** (d + 1) < den:
        d += 1
    return d


def loop_format_decimal(f, places: int) -> str:
    """Decimal expansion by long division, one digit per step, truncated."""
    sign = "-" if f < 0 else ""
    a = -f if f < 0 else f
    whole, rem = divmod(a.numerator, a.denominator)
    if places == 0:
        return f"{sign}{whole}"
    digits = []
    for _ in range(places):
        rem *= 10
        d, rem = divmod(rem, a.denominator)
        digits.append(str(d))
    return f"{sign}{whole}." + "".join(digits)


def step_pow_one_plus_x(params, t: int, c=None) -> tuple[int, ...]:
    """c*(1 + x)**t in Z[x]/(x**n - k) by t single multiplies by 1 + x.

    c defaults to 1. Each step maps c to (c0 + k*c[n-1], c1 + c0, ...,
    c[n-1] + c[n-2]).
    """
    c = list(c) if c is not None else [1] + [0] * (params.n - 1)
    for _ in range(t):
        c = [c[i] + (params.k * c[-1] if i == 0 else c[i - 1]) for i in range(params.n)]
    return tuple(c)


def alternating_binomial_transform(b) -> tuple[int, ...]:
    """Coefficients of p(y - 1) for p(x) = sum(b[i] * x**i), by the explicit sum.

    a[m] = sum over i >= m of b[i] * C(i, m) * (-1)**(i - m).
    """
    a = [0] * len(b)
    for i, bi in enumerate(b):
        if bi:
            for m in range(i + 1):
                term = bi * comb(i, m)
                a[m] += -term if (i - m) & 1 else term
    return tuple(a)


def charpoly_tail(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Nonzero low terms (i, q[i]), i < n, of the monic (y - 1)**n - k."""
    q = [comb(n, i) * (-1 if (n - i) & 1 else 1) for i in range(n)]
    q[0] -= k
    return tuple((i, qi) for i, qi in enumerate(q) if qi)


def mulmod_monic(a, b, fold) -> tuple[int, ...]:
    """Schoolbook a*b of length-n sequences modulo a monic degree-n polynomial
    whose nonzero low terms are the (i, q) pairs ``fold``: y**n = -sum(q*y**i).
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


def fib_chain_in_power_basis(n: int, k: int, chain_length: int):
    """(F_i, coefficients of y**F_i mod (y - 1)**n - k) for F = 2, 3, 5, 8, ...

    Every product is reduced by the characteristic polynomial of M, so the
    coefficients expand M**F_i over I, M, ..., M**(n-1) without the ring
    Z[x]/(x**n - k). The chain starts from y and composes pairwise.
    """
    fold = charpoly_tail(n, k)
    y = (0, 1) + (0,) * (n - 2)
    y2 = mulmod_monic(y, y, fold)
    chain = [(2, y2), (3, mulmod_monic(y2, y, fold))][:chain_length]
    while len(chain) < chain_length:
        (e2, c2), (e1, c1) = chain[-2], chain[-1]
        chain.append((e1 + e2, mulmod_monic(c1, c2, fold)))
    return chain
