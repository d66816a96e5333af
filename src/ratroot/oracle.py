"""Ground truth for accuracy claims, independent of the iteration machinery.

Everything here is scaled integer arithmetic: the n-th root of k is pinned
between consecutive integers at a power-of-ten scale (``math.isqrt`` once
per factor 2 of n, then a precision-doubling integer Newton root of the
odd order left), and a candidate p/q, any integer pair with q > 0, is
measured by one integer distance to the farther end of that bracket.
``digits_of_ratio`` certifies digits by exact comparison of that distance,
so no floating point decides a certificate at any digit count;
``log10_error_bound`` takes its logarithm for rate fits.

``certified_floor`` answers the one question ``approx`` asks, whether a
pair certifies its whole target, without taking a root: the bracket is
never formed, and two exact n-th powers tell whether its bottom lies in
the window the pair allows. It reads only p, q, n and k, and reads a pair
of ints or of exact ``Decimal``s alike.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .core import Params, exact_decimal

GUARD_DIGITS = 5  # bracket is kept this much finer than any tested threshold


def integer_nth_root(m: int, n: int) -> int:
    """floor(m**(1/n)): one ``math.isqrt`` per factor 2 of n, then integer Newton.

    For n = 2b, floor(m**(1/n)) = floor(isqrt(m)**(1/b)), since an integer
    r has r**b <= isqrt(m) exactly when r**(2b) <= m. So each factor 2 of n
    is one ``math.isqrt``, and integer Newton takes only an odd order n >= 3.

    Newton starts above the root and doubles its precision (Brent &
    Zimmermann, *Modern Computer Arithmetic*, 1.5.2). With
    s = bit_length(m) // (2n) and r = floor((m >> n*s)**(1/n)), found by
    this same function, the start is (r + 1) << s: (r + 1)**n >=
    (m >> n*s) + 1, so the start's n-th power exceeds m, and about two
    full-size Newton steps remain. Where s = 0 the start is
    2**ceil(bit_length(m) / n). That start alone can be twice the root, and
    Newton shrinks it by only about (n-1)/n per full-size step from there,
    so without the doubling the cost of a large root grows linearly in n.
    x -> ((n-1)*x + m // x**(n-1)) // n decreases strictly while x**n > m
    and never drops below floor(m**(1/n)) (AM-GM; the floors cancel), so
    the first step that fails to decrease x stops on the floor root.
    """
    if m < 0:
        raise ValueError(f"radicand must be nonnegative, got {m}")
    if n < 1:
        raise ValueError(f"root order must be >= 1, got {n}")
    while not n & 1:
        m, n = math.isqrt(m), n >> 1
    if m < 2 or n == 1:
        return m
    s = m.bit_length() // (2 * n)
    # m >> n*s keeps at least n*s >= 3 bits, so the recursion reaches Newton
    x = (integer_nth_root(m >> n * s, n) + 1) << s if s else 1 << -(-m.bit_length() // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


@lru_cache
def nth_root_bracket(params: Params, d: int) -> int:
    """lo = floor(k**(1/n) * 10**d), so lo/10**d <= k**(1/n) < (lo+1)/10**d.

    The bracket is certified by construction. The last 128 are kept
    (``lru_cache``'s default size): one process serving many distinct
    (n, k, d) holds a bounded set.
    """
    if d < 0:
        raise ValueError(f"digit count must be nonnegative, got {d}")
    return integer_nth_root(params.k * 10 ** (params.n * d), params.n)


def _bracket_distance(p: int, q: int, params: Params, e: int) -> int:
    """q * 10**e times the distance from p/q to the farther end of the e bracket.

    With lo = nth_root_bracket(params, e) and S = 10**e that is
    max(|p*S - lo*q|, |p*S - (lo+1)*q|), which is at least q/2 > 0. It
    bounds q*S*|p/q - k**(1/n)| from above. Needs q > 0.
    """
    if q <= 0:
        raise ValueError(f"denominator must be positive, got {q}")
    ps = p * 10**e
    lq = nth_root_bracket(params, e) * q
    return max(abs(ps - lq), abs(ps - lq - q))


def digits_of_ratio(p: int, q: int, params: Params, cap: int) -> int:
    """Largest d <= cap with |p/q - k**(1/n)| < 10**(-d), else 0; needs q > 0.

    Decided exactly: the true root lies inside a bracket GUARD_DIGITS finer
    than any tested threshold, and the candidate's distance to the farther
    bracket endpoint bounds its distance to the root from above. The result
    is therefore a certificate, marginally conservative (by at most the
    bracket width), and saturates at cap for exact roots.

    With e = cap + GUARD_DIGITS that distance is num / (q * 10**e), num
    from :func:`_bracket_distance`. The answer is the first d failing
    num * 10**(d+1) < q * 10**e, clamped to cap. Since d <= cap < e,
    num * 10**d < q * 10**e is num < q * 10**(e - d), a product with a
    short power of ten once d is near cap. A guess from the bit lengths
    (log10(2) ~ 30103/100000) is moved onto the answer with that same
    integer comparison, a step or two each way. Scaling p and q by a common
    factor scales num and q alike, so the pair need not be reduced; a
    ``Fraction`` f is certified as ``digits_of_ratio(*f.as_integer_ratio(), ...)``.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    e = cap + GUARD_DIGITS
    num = _bracket_distance(p, q, params, e)
    d = min(cap, max(0, e + (q.bit_length() - num.bit_length()) * 30103 // 100000))
    while d > 0 and num >= q * 10 ** (e - d):
        d -= 1
    while d < cap and num < q * 10 ** (e - d - 1):
        d += 1
    return d


def log10_error_bound(p: int, q: int, params: Params, ref_digits: int) -> float:
    """log10 of a certified upper bound on |p/q - k**(1/n)|; needs q > 0.

    The bound is the distance to the farther endpoint of the ref_digits
    bracket, the one :func:`digits_of_ratio` compares, so it is only a sharp
    error measure while the true error is well above the bracket width
    10**(-ref_digits). The pair need not be reduced. Used for rate fits.
    """
    num = _bracket_distance(p, q, params, ref_digits)
    return math.log10(num) - math.log10(q) - ref_digits


def certified_floor(p, q, params: Params, d: int):
    """floor(p * 10**d / q) if ``digits_of_ratio(p, q, params, d) == d``, else None.

    No root is taken. With G = 10**GUARD_DIGITS, S = 10**(d + GUARD_DIGITS),
    f = floor(p*S/q) and c = ceil(p*S/q), ``digits_of_ratio`` reaches its
    cap d exactly when both ends of its bracket [lo, lo + 1]/S,
    lo = floor(k**(1/n)*S), lie closer than G/S to p/q, that is when
    f - G + 1 <= lo < c + G - 1. Since lo >= 0, lo >= a holds exactly when
    max(a, 0)**n <= k*S**n, and lo < b exactly when k*S**n < max(b, 0)**n;
    without the clamps an even n would turn a negative bound positive. The
    same division gives the answer: floor(p*10**d/q) = f // G. Needs q > 0
    and d >= 1, as ``digits_of_ratio`` does.

    The pair is read in its own exact type, int or integral
    ``decimal.Decimal``, and the floor comes back in that type. A Decimal
    pair is worked under ``core.exact_decimal``, whatever the caller's
    context, with G and S as 1E+5 and 1E+(d + 5), so p*S is no product of
    digits; libmpdec divides p*S by q faster than CPython 3.11's
    schoolbook ``divmod`` once the quotient and q both have thousands of
    digits. Decimal division truncates toward zero, so a Decimal p must be
    nonnegative.
    """
    if q <= 0 or d < 1:
        raise ValueError(f"need a positive denominator and d >= 1, got q={q}, d={d}")
    if isinstance(q, int):
        return _floor_in_window(p, q, params, 10**GUARD_DIGITS, 10 ** (d + GUARD_DIGITS))
    if p < 0:
        raise ValueError("a Decimal numerator must be nonnegative")
    with exact_decimal() as decimal:
        one = decimal.Decimal(1)
        return _floor_in_window(p, q, params, one.scaleb(GUARD_DIGITS),
                                one.scaleb(d + GUARD_DIGITS))


def _floor_in_window(p, q, params: Params, g, s):
    """:func:`certified_floor`'s test, with G = g and S = s of p's type."""
    f, rem = divmod(p * s, q)
    n = params.n
    ok = max(f - g + 1, 0) ** n <= params.k * s**n < max(f + (rem > 0) + g - 1, 0) ** n
    return f // g if ok else None
