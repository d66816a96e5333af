"""Construction of the iteration matrix and exact evaluation of its powers.

For parameters (n, k) the iteration matrix is M = I + S, where S is the
k-weighted cyclic shift: k in the top-right corner, ones on the first
subdiagonal, zeros elsewhere. S**n = k*I, so the span of I, S, ..., S**(n-1)
multiplies exactly like Z[x]/(x**n - k) with S playing x; applying M to a
column vector is multiplication by (1 + x). That one O(n) step of M is
:func:`step_one_plus_x`; the ladder, ``table`` and the linear trajectory all
take it.

The engine has one ring. An element of Z[x]/(x**n - k) is a plain tuple of
n ints, entry i the coefficient of x**i, and the one product of two ring
elements, :func:`square_ring`'s square, is reduced by one rule,
x**m -> k*x**(m-n).

Two power routes are kept on purpose. :func:`mat_pow`, repeated matrix
multiplication, is the trusted reference, and the quotient-ring route is the
production path. They share no multiply and must agree exactly, always. A
matrix is a plain tuple of row tuples of ints (:func:`companion_matrix`).
:func:`apply_power` runs the ring route in one shot; ``table``, ``selftest``
and the engine-agreement check use it. ``approx`` keeps the ring power
between its step-doubling attempts: it builds (1 + x)**t by the ladder
once, squares it by :func:`square_ring` on each doubling, and reads each
attempt's convergent off that power by :func:`ones_pair`. The all-ones
start is 1 + x + ... + x**(n-1), so entries 1 and 2 of M**t (1, ..., 1)
are two sums of the coefficients of (1 + x)**t, formed in O(n) with one
product by k each; the other n - 2 entries are never formed.

The ring route starts (1 + x)**t from a binomial row. I and S commute, so
(I + S)**m = sum of C(m, j)*S**j, and with S**n = k*I coefficient i of
(1 + x)**m is sum over l of C(m, i + l*n)*k**l: the binomial row folded once
(:func:`_binomial_row`, small-factor steps and no coefficient products). The
row covers m0, the longest leading run of the bits of t with m0 <= 2*n*n.
A left-to-right ladder takes the remaining bits: per bit one square by the
squaring kernel :func:`square_ring`, and on a set bit one
:func:`step_one_plus_x`. The kernel squares schoolbook up to SQR_CUTOVER
coefficients and splits longer polynomials Karatsuba-style into three
half-length squares. Its schoolbook leaves form squares only, each cross
term 2*ai*aj as (ai + aj)**2 - ai**2 - aj**2, as CPython squares a big int
in about 0.57-0.74 of the time of a general product of the same size (1 to
120 kbit, BENCH_21.json). So every big-integer product of the ladder is a
square at coefficient size, and no power is formed as the product of two
others: each entry of the ``--fib`` chain runs its own ladder. No general
product of two ring elements is formed anywhere. :func:`apply_power` applies
(1 + x)**t to a start vector r0 as the polynomial r0(S): by Horner's scheme
in x, per entry of r0 one shift by x and one multiple of the power by that
entry.

The power basis I, M, ..., M**(n-1) appears only at the output: a ring
element is changed to it, x = y - 1, by one Taylor shift done with
subtractions only (:func:`power_basis_coeffs`, once per entry of
:func:`fib_power_chain`).

``approx`` and ``table`` print each convergent reduced by
:func:`reduced_pair`, the one reducer. For n >= 3 it divides by the gcd.
For n = 2 the coefficient pair is the whole ring element, whose content is
a power of two, so it is reduced by shifts and no gcd of full-size entries
is ever taken.

The ladder is duck-typed in its coefficients. :func:`ring_pow_one_plus_x`
converts its binomial row to the type it is handed, and the square and the
step run on that type unchanged, so over exact ``decimal.Decimal``
coefficients (a context with unbounded precision that traps Inexact) it
builds the same power. It also takes a reduction, run on the row and after
each bit. ``approx``'s decimal twin uses both: for n = 2 the all-ones state
M**t (1, 1) is (1 + x)**(t + 1), so the ladder for t + 1 over ``Decimal``s,
reduced by :func:`halved` after every bit, ends on the pair
:func:`reduced_pair` gives, and each coefficient prints in linear time.
"""
from __future__ import annotations

import math
from operator import add, sub

from .core import Params, UsageError, ZeroVector, check_state


def companion_matrix(params: Params) -> tuple[tuple[int, ...], ...]:
    """Iteration matrix M: ones on diagonal and first subdiagonal, k top-right."""
    n, k = params.n, params.k
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    for i in range(1, n):
        rows[i][i - 1] = 1
    rows[0][n - 1] += k
    return tuple(tuple(r) for r in rows)


def mat_pow(a, t: int) -> tuple[tuple[int, ...], ...]:
    """a**t exactly, by t repeated multiplications: the trusted reference.

    a is a square, nonempty tuple of row tuples, and so is the result; the
    products start from the identity.
    """
    if t < 0:
        raise ValueError(f"exponent must be nonnegative, got {t}")
    n = len(a)
    if not n or any(len(r) != n for r in a):
        raise ValueError("matrix must be square and nonempty")
    acc = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    cols = tuple(zip(*a))
    for _ in range(t):
        acc = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in acc)
    return acc


# Squares of at most this many coefficients run schoolbook; longer ones split.
# In-process chpow-wide ring time is lowest at 8, within 2.5% for cutovers
# 6-10, 1-5% higher at 12 and 14, and higher again at 16 (BENCH_21.json): a
# leaf's cross term costs three additions beside its square, so splitting
# pays from shorter lengths than it did with products at the leaves (flat for
# 8-16, BENCH_9.json).
SQR_CUTOVER = 8


def _square(a) -> list[int]:
    """The full 2n - 1 coefficients of a*a for a length-n sequence a.

    Up to SQR_CUTOVER coefficients, schoolbook with squares only: the n
    squares ai**2 are formed once, and each cross term 2*ai*aj (i < j) is
    (ai + aj)**2 - ai**2 - aj**2, so n(n+1)/2 squares and no general
    product. Above it, Karatsuba, by the same identity on halves: with
    h = ceil(n/2), a = lo + x**h * hi, and
    a*a = lo**2 + x**h * ((lo + hi)**2 - lo**2 - hi**2) + x**(2h) * hi**2.
    The middle term costs a third half-length square instead of a general
    product lo*hi, so about n**1.585 coefficient squares are formed instead
    of n(n+1)/2, each still at coefficient size.
    """
    n = len(a)
    if n <= SQR_CUTOVER:
        sq = [ai * ai for ai in a]
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            for j in range(i + 1, n):
                s = ai + a[j]
                prod[i + j] += s * s - sq[i] - sq[j]
            prod[2 * i] += sq[i]
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


def square_ring(c, k) -> list[int]:
    """c*c in Z[x]/(x**n - k) for a length-n sequence c: the ladder's square.

    The full square of 2n - 1 coefficients comes from :func:`_square`
    (Karatsuba above SQR_CUTOVER coefficients, down to schoolbook leaves
    that form squares only). It is reduced by the engine's one rule,
    x**m -> k*x**(m-n): coefficient m + n folds onto coefficient m. For
    c = (1 + x)**t this is (1 + x)**(2t), what the ladder for 2t would
    build from the same c.
    """
    prod, n = _square(c), len(c)
    for m in range(n - 1):
        prod[m] += k * prod[m + n]
    return prod[:n]


def step_one_plus_x(c, k) -> list[int]:
    """c*(1 + x) in Z[x]/(x**n - k): c0 <- c0 + k*c(n-1), ci <- ci + c(i-1).

    Read as a state vector, c -> M c: one step of the iteration in O(n).
    """
    return [c[0] + k * c[-1], *map(add, c[1:], c)]


def _binomial_row(n: int, k: int, m: int) -> list[int]:
    """(1 + x)**m in Z[x]/(x**n - k), from the binomial row of (I + S)**m.

    (1 + x)**m = sum of C(m, j)*x**j, and x**j folds to k**(j // n)*x**(j % n),
    so coefficient i is sum over l of C(m, i + l*n)*k**l. The first half of
    the row comes from C(m, j) = C(m, j-1)*(m - j + 1) // j, the rest is its
    mirror, and each residue class j = i (mod n) is summed by Horner's
    scheme in k from its top term down. No product of two coefficients is
    formed.
    """
    half = [1]
    c = 1
    for j in range(1, m // 2 + 1):
        c = c * (m - j + 1) // j
        half.append(c)
    row = half + half[:(m + 1) // 2][::-1]
    acc = []
    for i in range(n):
        a = 0
        for b in reversed(row[i::n]):
            a = a * k + b
        acc.append(a)
    return acc


def _same(c):
    return c


def ring_pow_one_plus_x(params: Params, t: int, kind=int, reduce=_same) -> tuple:
    """(1 + x)**t in Z[x]/(x**n - k): a binomial row, then a ladder.

    The longest prefix m0 of the bits of t with m0 <= 2*n*n is built
    directly by :func:`_binomial_row`. For each remaining bit of t,
    from the top, the accumulator is squared by :func:`square_ring`, and on a
    set bit stepped once by :func:`step_one_plus_x`. Coefficient i is entry
    i+1 of M**t applied to the first standard basis vector.

    The coefficients are of type ``kind``: the row is converted to it, and
    the square and the step run on it unchanged, so ``decimal.Decimal``
    gives the same power as int under a context that keeps every
    operation exact. ``reduce`` maps the accumulator, a list, to a list; it
    runs on the row and after each bit's square and step. With the default
    the result is the power itself; a reduction that divides out a common
    factor returns the power divided by that factor.
    """
    if t < 0:
        raise UsageError(f"exponent must be nonnegative, got {t}")
    n, k = params.n, params.k
    # A row of m terms costs about m/2 exact divisions by small ints and m
    # Horner steps; each square it replaces costs about n**1.585 coefficient
    # squares, which at short coefficients are bound by interpreter overhead.
    # In-process chpow-wide ring time is lowest at 2n**2 (BENCH_21.json sweeps
    # n**2, 1.5n**2, 2n**2, 3n**2 and 4n**2).
    rest = 0
    while t >> rest > 2 * n * n:
        rest += 1
    c = reduce([*map(kind, _binomial_row(n, k, t >> rest))])
    for i in range(rest - 1, -1, -1):
        c = square_ring(c, k)
        if t >> i & 1:
            c = step_one_plus_x(c, k)
        c = reduce(c)
    return tuple(c)


def reduced_pair(p: int, q: int, n: int) -> tuple[int, int]:
    """p/q in lowest terms, for two adjacent entries of M**t (1, ..., 1).

    The one reducer of a convergent. Every entry of such a state is
    positive, as M is nonnegative with a unit diagonal, so q > 0 and no sign
    needs fixing. For n >= 3 the pair is divided by its gcd.

    For n = 2 the state is p + q*x = (1 + x)**(t + 1) in Z[x]/(x**2 - k),
    and the content of (1 + x)**m is a power of two, so it is shifted off
    (the smaller trailing-zero count of p and q) and no gcd of full-size
    entries runs. Proof: if an odd prime r divided both coefficients of
    (1 + x)**m, then (1 + x)**m would vanish modulo r, and so would its norm
    (1 - k)**m; so r divides k - 1. But then x**2 = 1 modulo r, so
    (1 + x)**2 = 2*(1 + x) and (1 + x)**m = 2**(m-1)*(1 + x) for m >= 1,
    which does not vanish modulo r (nor does 1 at m = 0).
    """
    if n == 2:
        low = p | q
        s = (low & -low).bit_length() - 1
        return p >> s, q >> s
    g = math.gcd(p, q)
    return p // g, q // g


def halved(c):
    """The coefficients c halved while all are even: the n = 2 content rule
    of :func:`reduced_pair`, for any exact type with ``%`` and ``//``.

    The rule has two forms. ``reduced_pair`` shifts ints once, as the
    content of (1 + x)**m grows to m/2 to m - 1 bits for odd k. This loop is
    the ladder's reduction for ``approx``'s decimal twin (run on exact
    ``Decimal``s after every bit), where the content a step adds is only a
    few bits, so the ladder ends on the reduced pair.
    """
    while not any(a % 2 for a in c):
        c = [a // 2 for a in c]
    return c


def ones_pair(params: Params, c) -> tuple[int, int]:
    """Entries 1 and 2 of M**t (1, ..., 1), from the ring power c = (1 + x)**t.

    The all-ones start is 1 + x + ... + x**(n-1), and with x**n = k its
    product by c has coefficient 0 equal to c0 + k*(c1 + ... + c(n-1)) and
    coefficient 1 equal to c0 + c1 + k*(c2 + ... + c(n-1)). Both are
    positive, as every entry of M**t (1, ..., 1) is.
    """
    k = params.k
    c0, c1, *rest = c
    tail = sum(rest)
    return c0 + k * (c1 + tail), c0 + c1 + k * tail


def apply_power(params: Params, t: int, r0) -> tuple[int, ...]:
    """Evolve the state r0 by t steps in one shot: M**t r0 via the quotient ring.

    r0 is any sequence of n ints, not all zero; it is checked first. Entry
    i of a state corresponds to the coefficient of x**(i-1), so r0 acts as
    the polynomial r0(S), and M**t r0 = r0(S) (I + S)**t e1 is r0(x) times
    c = (1 + x)**t, built by the ladder. That product is evaluated by
    Horner's scheme in x, from the top entry of r0 down: each step shifts
    the partial result by x (one product by k, where x**n folds to k) and
    adds r*c for the next entry r, so n**2 products of an entry of r0 by a
    coefficient of c and no product of two coefficients. Raises
    ZeroVector(t) if the result vanishes (singular M, even n with k=1).
    """
    r0 = check_state(r0, params.n)
    c, k = ring_pow_one_plus_x(params, t), params.k
    pt = [0] * params.n
    for r in reversed(r0):  # pt <- x*pt + r*c
        pt = [k * pt[-1] + r * c[0], *(a + r * b for a, b in zip(pt, c[1:]))]
    if not any(pt):
        raise ZeroVector(t)
    return tuple(pt)


def power_basis_coeffs(params: Params, t: int) -> tuple[int, ...]:
    """Coefficients a with M**t = sum(a[i] * M**i for i < n).

    The ring coefficients c of (1 + x)**t = p(x) are changed to those of
    p(y - 1): with x = S = M - I this expands p(S) over I, M, ..., M**(n-1).
    It is the alternating binomial transform

        a[m] = sum over i >= m of c[i] * C(i, m) * (-1)**(i - m),

    computed as an in-place Taylor shift by -1 (Horner's scheme, one pass
    per degree): n(n-1)/2 subtractions and no multiplications. The result
    equals the remainder of y**t modulo the monic characteristic polynomial
    (y - 1)**n - k, the unique such expansion since M has n distinct
    eigenvalues.
    """
    a = list(ring_pow_one_plus_x(params, t))
    n = len(a)
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            a[i] -= a[i + 1]
    return tuple(a)


def fib_power_chain(
    params: Params, chain_length: int
) -> list[tuple[int, tuple[int, ...]]]:
    """Exponents 2, 3, 5, 8, ... with the basis coefficients of each M**F_i.

    F_i = F_{i-1} + F_{i-2}. Each entry is :func:`power_basis_coeffs` of
    its exponent: its own ladder, not a product of its two predecessors.
    """
    if chain_length < 1:
        raise UsageError(f"chain length must be >= 1, got {chain_length}")
    chain = []
    e1, e2 = 2, 3
    for _ in range(chain_length):
        chain.append((e1, power_basis_coeffs(params, e1)))
        e1, e2 = e2, e1 + e2
    return chain
