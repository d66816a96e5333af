"""Ground truth for accuracy claims, independent of the iteration machinery.

Everything here is scaled integer arithmetic: the n-th root of k is pinned
between consecutive integers at a power-of-ten scale (``math.isqrt`` once
per factor 2 of n, then an integer Newton root of the odd order left), and
a candidate p/q, any integer pair with q > 0, is measured by one integer
distance to the farther end of that bracket. ``digits_of_ratio`` certifies
digits by exact comparison of that distance, so no floating point decides a
certificate at any digit count; ``log10_error_bound`` takes its logarithm
for rate fits.

The Newton root doubles its precision (Brent & Zimmermann, *Modern
Computer Arithmetic*, 1.5.2): the floor root of m with its low n*s bits
dropped, taken the same way, is the root's top half. One more than that,
shifted left by s bits, overestimates the root, and from there about two
full-size Newton steps remain.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .core import Params

GUARD_DIGITS = 5  # bracket is kept this much finer than any tested threshold


def integer_nth_root(m: int, n: int) -> int:
    """floor(m**(1/n)): one ``math.isqrt`` per factor 2 of n, then integer Newton.

    For n = 2b, floor(m**(1/n)) = floor(isqrt(m)**(1/b)), since an integer
    r has r**b <= isqrt(m) exactly when r**(2b) <= m. So each factor 2 of n
    is one ``math.isqrt``, and integer Newton takes only an odd order n >= 3.

    Newton starts above the root. With s = bit_length(m) // (2n) and
    r = floor((m >> n*s)**(1/n)), found recursively, the start is
    (r + 1) << s: (r + 1)**n >= (m >> n*s) + 1, so the start's n-th power
    exceeds m. Where s = 0 the start is 2**ceil(bit_length(m) / n).
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
    return _newton_root(m, n)


def _newton_root(m: int, n: int) -> int:
    """floor(m**(1/n)) for m >= 2, n >= 3, as ``integer_nth_root`` describes."""
    s = m.bit_length() // (2 * n)
    if s:
        # m >> n*s keeps at least n*s >= 3 bits, so the recursion stays in range
        x = (_newton_root(m >> (n * s), n) + 1) << s
    else:
        x = 1 << -(-m.bit_length() // n)
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
