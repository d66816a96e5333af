"""Long division of big integers: ``divmod_big``, the one entry point.

CPython 3.12 and later divide large ints subquadratically, but 3.10 and
3.11 divide by schoolbook, in time proportional to the product of the
lengths of the quotient and the divisor. There, once both pass DIV_LIMIT
bits, :func:`divmod_big` runs Burnikel & Ziegler's recursive division
(*Fast Recursive Division*, MPI-I-98-1-022, 1998; Brent & Zimmermann,
*Modern Computer Arithmetic*, 1.4.3), which does the work in a few
products that CPython forms by Karatsuba. Its users are
``render.format_int``'s split, the certificate of ``oracle.certified_floor``,
which re-checks every quotient found recursively by one product, and the
n >= 3 reducer ``engine.reduced_pair``.
"""
from __future__ import annotations

import sys

# Bits of the divisor and of the quotient from which 3.10 and 3.11 recurse.
# Swept on format_int's split of 4k-32k-bit ints: on CPython 3.11.7 limits
# of 3,000-4,000 bits are the fastest, 1,500-2,500 up to 1.17x and
# 5,000-8,000 up to 1.12x slower. On 3.10.13 1,500-2,500 are up to 1.32x
# slower, and 5,000-8,000 read 0.90-1.06 of 3,500's time (BENCH_47.json).
DIV_LIMIT = 3500

NATIVE = sys.version_info >= (3, 12)  # builtin divmod is subquadratic


def recurses(a: int, b: int) -> bool:
    """Whether :func:`divmod_big` divides a by b recursively: below CPython
    3.12, where b and the quotient (by length) both pass DIV_LIMIT bits."""
    bits = b.bit_length()
    return not NATIVE and bits > DIV_LIMIT and a.bit_length() - bits > DIV_LIMIT


def divmod_big(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0: by :func:`_divmod_recursive` where
    :func:`recurses` holds, else by builtin ``divmod``."""
    return _divmod_recursive(a, b) if recurses(a, b) else divmod(a, b)


def _divmod_recursive(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0, by recursive division.

    b is shifted left until its length is m * 2**h bits with m <= DIV_LIMIT,
    a by the same amount, and a is divided block by block of that length,
    from the top, by :func:`_div2n1n`.
    """
    n = b.bit_length()
    h = ((n - 1) // DIV_LIMIT).bit_length()  # the least h with ceil(n / 2**h) <= DIV_LIMIT
    size = -(-n >> h) << h
    shift = size - n
    a, b = a << shift, b << shift
    # b's top bit is set, and a's top block of `size` bits, block `top`,
    # holds at most size - 1 bits, so it is below b
    top = a.bit_length() // size
    mask = (1 << size) - 1
    q, r = 0, a >> top * size
    for i in range(top - 1, -1, -1):
        digit, r = _div2n1n(r << size | (a >> i * size) & mask, b, size)
        q = q << size | digit
    return q, r >> shift


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for 0 <= a < b * 2**n, where b has exactly n bits."""
    if n & 1 or n <= DIV_LIMIT:
        return divmod(a, b)
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div3n2n(a >> n, a >> h & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for a = a12 * 2**n + a3 < b * 2**n and b = b1 * 2**n + b2.

    b1 has exactly n bits, and a3 and b2 fewer. So a12's top n bits are at
    most b1, and the quotient is below 2**n. The quotient of a12 by b1, or
    2**n - 1 where those top bits equal b1, is at most 2 above the true
    one, so the remainder is corrected at most twice.
    """
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r
