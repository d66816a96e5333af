"""Rendering: the decimal digits of every int and fraction ratroot prints.

Every int in a decimal, ``chpow`` or ``trace`` cell, and in every
fraction, is rendered by ``format_int``, which equals ``str``;
``format_fraction`` renders each half of a fraction by it, on its own, and
``format_decimal`` and ``approx``'s certified cell put the point in by
``_point_at``. ``format_int`` has three ranges. Up to 3,986 bits (below
10**1200) it is ``str``, quadratic in CPython 3.11. The other two are radix
conversions of Brent & Zimmermann, *Modern Computer Arithmetic*, 1.7. Up
to ``INT_STR_CUTOVER`` bits the integer is split at the powers 10**E,
E = 600 * 2**j, and ``str`` writes each leaf below 10**600. As
10**E = 5**E * 2**E, a split divides n >> E by a cached 5**E, a divisor 30%
shorter than 10**E, and passes n's low E bits to the remainder;
``division.divmod_big`` divides recursively on CPython 3.10 and 3.11. On
3.11.7 that takes 0.68-0.76 of ``str``'s time from 5k to 8k bits and
0.42-0.64 from 10k to 32k, and 0.64-0.90 of the time of the split by 10**E
(BENCH_47.json). Above the cutover it is split in halves with shifts and
recombined in exact ``decimal`` arithmetic, which is subquadratic and does
no integer division.

An ``approx`` n = 2 attempt whose reduced q is predicted to pass the
cutover holds no int to convert: its ladder runs on exact ``Decimal``
coefficients, is certified in them and is written by ``str``, linear in a
``Decimal``'s length (``cli.build_approx``, which reads ``INT_STR_CUTOVER``
here at each call). For n >= 3 the ``Decimal`` ladder alone costs more than
the conversion, so those answers stay ints.

``format_int`` is the only code that converts a large int to decimal
digits, so it is the only code that meets CPython's int/str digit limit
(CVE-2020-10735): an integer that ``str`` refuses takes the split, whose
leaves are below every limit CPython accepts (640 digits or more), and the
``decimal`` path and ``approx``'s ``Decimal`` answers are not covered by it.
The limit is never changed, so output is the same under any limit and argv
is parsed under the one the interpreter has.

``decimal`` is imported only for an integer past the cutover.
"""
from __future__ import annotations

from functools import cache

from .core import exact_decimal
from .division import divmod_big

# Bit length above which format_int leaves its split at powers of ten for
# the decimal path, and above which an approx n = 2 attempt's predicted
# reduced q puts its ladder on Decimals. With its divisions by powers of
# five, recursive on 3.10 and 3.11, the split takes 0.49-0.97 of the
# decimal path's time from 2**15 to 2**18 bits on CPython 3.11.7, and on
# 3.12.1 0.54-0.79 up to 112k bits and 0.94-1.19 from 2**17 (two runs on
# random ints, BENCH_47.json), so the cutover could move up; that is a timed claim of
# its own, and the trigger stays here. On approx's n = 2 answers the
# Decimal ladder takes 1.06-1.17 of the int path's time below 2**15 bits
# of q and 0.32-0.52 above; with the trigger at 2**15.5 or 2**16 bits
# approx-wide takes 1.03 or 1.07 of its time at 2**15 (BENCH_46.json).
INT_STR_CUTOVER = 2**15
# Digits of a leaf of format_int's split, the largest round size below the
# lowest int/str digit limit CPython accepts (640), so str writes every leaf
# under any limit. On random ints of 4.5k-32k bits (CPython 3.11.7) leaves
# of 300, 900 and 1,200 digits are no faster (BENCH_45.json).
_LEAF_DIGITS = 600
_STR_BITS = (10 ** (2 * _LEAF_DIGITS)).bit_length() - 1  # 3,986: below two leaves


def format_int(n: int) -> str:
    """str(n), subquadratic from 3,987 bits, under any int/str digit limit.

    Up to 3,986 bits (just under 10**1200, two leaves) this is str(n),
    unless the int/str digit limit refuses n. Up to INT_STR_CUTOVER bits
    |n| is split by :func:`_split_str` at powers of ten, which on CPython
    3.11.7 takes 0.75 of str's time at 6k bits, 0.68 at 8k, 0.54 at 16k
    and 0.42 at 32k (BENCH_47.json). Past the cutover n takes
    :func:`_decimal_str`.
    """
    bits = n.bit_length()
    if bits <= _STR_BITS:
        try:
            return str(n)
        except ValueError:  # past the int/str digit limit
            pass
    elif bits > INT_STR_CUTOVER:
        return _decimal_str(n)
    return ("-" if n < 0 else "") + _split_str(abs(n))


@cache
def _five_power(j: int) -> int:
    """5**E(j), E(j) = _LEAF_DIGITS * 2**j: the odd part of P(j) = 10**E(j),
    the j-th power of format_int's split.

    Built on first use, per process, and cached by j, so threads that race
    to build one get equal values. Integers of at most INT_STR_CUTOVER bits
    need j = 0 to 4, the largest 5**9600 (about 22 kbit).
    """
    return 5**_LEAF_DIGITS if j == 0 else _five_power(j - 1) ** 2


def _split_at(n: int, j: int) -> tuple[int, int]:
    """divmod(n, P(j)) for n >= 0: as 10**E = 5**E * 2**E, the quotient is
    (n >> E) // 5**E, and the low E bits of n pass to the remainder."""
    e = _LEAF_DIGITS << j
    hi, lo = divmod_big(n >> e, _five_power(j))
    return hi, lo << e | n & ((1 << e) - 1)


def _split_str(n: int) -> str:
    """str(n) for n >= 0, by division at the powers P(j), ..., P(0).

    The level j is the largest with P(j) <= n, estimated from n's bit
    length; n < P(j) exactly when n >> E(j) < 5**E(j). A level above n is
    skipped, and a high part still at least P(j) is split again, so the
    digits do not depend on the estimate. Every piece left for str is
    below P(0) = 10**_LEAF_DIGITS.
    """
    if n >> _LEAF_DIGITS < _five_power(0):
        return str(n)
    j = (n.bit_length() // (_five_power(0).bit_length() + _LEAF_DIGITS)).bit_length() - 1
    while n >> (_LEAF_DIGITS << j) < _five_power(j):
        j -= 1
    hi, lo = _split_at(n, j)
    return _split_str(hi) + _padded_str(lo, j)


def _padded_str(n: int, j: int) -> str:
    """str(n) for 0 <= n < P(j), zero-padded to _LEAF_DIGITS * 2**j digits."""
    if j == 0:
        return str(n).zfill(_LEAF_DIGITS)
    hi, lo = _split_at(n, j - 1)
    return _padded_str(hi, j - 1) + _padded_str(lo, j - 1)


def _decimal_str(n: int) -> str:
    """str(n) via decimal, at n's own bit length.

    |n| is split at half its bit length, each half is converted to a
    Decimal the same way down to pieces of at most _STR_BITS bits, which
    ``Decimal(int)`` converts, and the halves are recombined as lo + hi * 2**w;
    the powers 2**w are formed once, in one dict. The context has unbounded
    precision and traps Inexact, so every step is exact; no int/str digit
    limit applies there. It is kept out of :func:`format_int`, every call
    of which would otherwise create the closures' cells: 135 to 206 ns a
    call on CPython 3.11.7, 1.2% of ``table-long``.
    """
    powers: dict[int, decimal.Decimal] = {}

    def pow2(w: int) -> decimal.Decimal:
        if w not in powers:
            if w <= _STR_BITS:
                powers[w] = decimal.Decimal(1 << w)
            else:
                powers[w] = pow2(w >> 1) * pow2(w - (w >> 1))
        return powers[w]

    def convert(m: int, w: int) -> decimal.Decimal:
        # m < 2**w
        if w <= _STR_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * pow2(half)

    with exact_decimal() as decimal:
        return ("-" if n < 0 else "") + str(convert(abs(n), n.bit_length()))


def format_fraction(p: int, q: int) -> str:
    """p/q as written; the pair is not reduced here."""
    return f"{format_int(p)}/{format_int(q)}"


def format_decimal(p: int, q: int, places: int) -> str:
    """Exact decimal expansion of p/q, q > 0, places >= 0, truncated (not rounded) toward zero."""
    return ("-" if p < 0 else "") + _point_at(format_int(abs(p) * 10**places // q), places)


def _point_at(digits: str, places: int) -> str:
    """m / 10**places, from the digits of m >= 0, with places digits after the point."""
    digits = digits.zfill(places + 1)
    return f"{digits[:-places]}.{digits[-places:]}" if places else digits
