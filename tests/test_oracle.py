import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratroot import engine, spectral
from ratroot.core import Params, exact_decimal
from ratroot.oracle import (
    GUARD_DIGITS,
    certified_floor,
    digits_of_ratio,
    integer_nth_root,
    log10_error_bound,
    nth_root_bracket,
)

from _helpers import bisect_nth_root, brute_floor_root, farther_end_error, scan_digits_of_accuracy


def test_integer_nth_root_examples():
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(26, 3) == 2
    assert integer_nth_root(2 * 10**10, 2) == 141421
    # certify the last one by exact multiplication
    assert 141421**2 <= 2 * 10**10 < 141422**2


def test_integer_nth_root_edges():
    assert integer_nth_root(0, 4) == 0
    assert integer_nth_root(1, 7) == 1
    assert integer_nth_root(5, 1) == 5
    with pytest.raises(ValueError):
        integer_nth_root(-1, 2)
    with pytest.raises(ValueError):
        integer_nth_root(4, 0)


@given(st.integers(0, 10**6), st.integers(2, 6))
@settings(max_examples=200)
def test_integer_nth_root_defining_inequality(m, n):
    r = integer_nth_root(m, n)
    assert r**n <= m < (r + 1) ** n


def test_integer_nth_root_matches_exhaustive_search():
    # small slice here; the acceptance suite covers m < 10**4, n <= 5
    for n in range(1, 5):
        for m in range(0, 800):
            assert integer_nth_root(m, n) == brute_floor_root(m, n), (m, n)


# even n takes one isqrt per factor 2, then Newton for the odd part (none
# for 2, 4, 8 and 16; 3 for 6, 12 and 24)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12, 16, 24])
def test_integer_nth_root_at_powers_past_100k_bits(n):
    r = 3 ** (100_000 // n) + 12345  # r**n has over 158k bits
    for delta, want in ((-1, r - 1), (0, r), (1, r)):
        m = r**n + delta
        got = integer_nth_root(m, n)
        assert got == want, (n, delta)
        assert got**n <= m < (got + 1) ** n


def test_integer_nth_root_first_precision_levels():
    # m of 2n-1 .. 6n bits: the half-precision shift s = bits // (2n) is 0, 1, 2 and 3
    shifts = set()
    for n in range(3, 13):
        cases = set()
        for bits in range(2 * n - 1, 6 * n + 1):
            cases.update((1 << (bits - 1), (1 << bits) - 1, 5 << (bits - 3)))
        r = 1
        while r**n < 1 << (6 * n):
            cases.update(m for m in (r**n - 1, r**n, r**n + 1) if 2 * n - 1 <= m.bit_length())
            r += 1
        for m in sorted(cases):
            shifts.add(m.bit_length() // (2 * n))
            assert integer_nth_root(m, n) == bisect_nth_root(m, n), (m, n)
    assert {0, 1, 2} <= shifts


@st.composite
def radicands(draw):
    """(m, n) with m up to ~6000 bits, often at r**n - 1, r**n or r**n + 1."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        m = draw(st.integers(0, 2 ** draw(st.integers(0, 6000))))
    else:
        r = draw(st.integers(0, 2 ** draw(st.integers(0, 6000 // n))))
        m = max(0, r**n + draw(st.sampled_from((-1, 0, 1))))
    return m, n


@given(radicands())
@example(((2**200 - 1) ** 12 - 1, 12))
@example(((3**500) ** 7, 7))
@example(((10**7 + 1) ** 3 + 1, 3))
@settings(max_examples=300, deadline=None)
def test_integer_nth_root_matches_bisection(case):
    m, n = case
    assert integer_nth_root(m, n) == bisect_nth_root(m, n)


def test_bracket_cache_is_bounded():
    for k in range(10**6, 10**6 + 200):
        nth_root_bracket(Params(4, k), 3)
    assert nth_root_bracket.cache_info().currsize <= 128


def test_bracket_examples():
    lo = nth_root_bracket(Params(2, 2), 5)
    # an int, so the lru_cache hands every caller an immutable value
    assert type(lo) is int and lo == 141421
    assert nth_root_bracket(Params(3, 27), 4) == 30000
    assert nth_root_bracket(Params(2, 2), 0) == 1


@given(st.integers(2, 6), st.integers(1, 50), st.integers(0, 30))
@settings(max_examples=150)
def test_bracket_invariant_exact(n, k, d):
    lo = nth_root_bracket(Params(n, k), d)
    scaled = k * 10 ** (n * d)
    assert lo**n <= scaled < (lo + 1) ** n


@pytest.mark.parametrize("params", [Params(2, 2), Params(3, 17), Params(5, 7)])
def test_brackets_nest(params):
    prev = nth_root_bracket(params, 0)
    for d in range(1, 51):
        cur = nth_root_bracket(params, d)
        # lo/10**d .. (lo+1)/10**d sits inside the bracket one digit coarser
        assert 10 * prev <= cur
        assert cur + 1 <= 10 * (prev + 1)
        prev = cur


def test_digits_of_accuracy_examples():
    p22 = Params(2, 2)
    assert digits_of_ratio(99, 70, p22, 40) == 4
    assert digits_of_ratio(3, 2, p22, 40) == 1
    assert digits_of_ratio(3, 1, Params(3, 27), 40) == 40


def test_digits_of_accuracy_zero_when_far():
    assert digits_of_ratio(1, 1, Params(3, 2), 40) == 0
    assert digits_of_ratio(10, 1, Params(2, 2), 40) == 0


def test_digits_of_accuracy_requires_positive_cap():
    with pytest.raises(ValueError):
        digits_of_ratio(1, 1, Params(2, 2), 0)


@given(st.integers(1, 35))
@settings(max_examples=40)
def test_digits_of_accuracy_detects_planted_error(d):
    # candidate = root bracket bottom + 10**-(d+1) has error just under 10**-d
    params = Params(2, 2)
    cand = Fraction(nth_root_bracket(params, 60), 10**60) + Fraction(1, 10 ** (d + 1))
    got = digits_of_ratio(*cand.as_integer_ratio(), params, 50)
    assert got in (d, d + 1)  # the planted offset dominates, up to bracket slack


@st.composite
def certificate_cases(draw):
    """(candidate, params, cap): exact roots, far candidates, or an error
    planted at 10**-d, exactly or one unit of 10**-(cap + GUARD_DIGITS + 3)
    either side, off either bracket endpoint."""
    n = draw(st.integers(2, 7))
    cap = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(("exact", "far", "planted")))
    if kind == "exact":
        r = draw(st.integers(1, 30))
        return Fraction(r), Params(n, r**n), cap
    params = Params(n, draw(st.integers(2, 60)))
    if kind == "far":
        cand = Fraction(draw(st.integers(-(10**9), 10**9)), draw(st.integers(1, 10**9)))
        return cand, params, cap
    e = cap + GUARD_DIGITS
    lo = nth_root_bracket(params, e)
    d = draw(st.integers(0, e + 2))
    nudge = Fraction(draw(st.sampled_from((-1, 0, 1))), 10 ** (e + 3))
    offset = Fraction(1, 10**d) + nudge
    if draw(st.booleans()):
        cand = Fraction(lo, 10**e) + offset
    else:
        cand = Fraction(lo + 1, 10**e) - offset
    return cand, params, cap


@given(certificate_cases())
@settings(max_examples=300, deadline=None)
def test_digits_of_accuracy_matches_step_scan(case):
    cand, params, cap = case
    want = scan_digits_of_accuracy(cand, params.n, params.k, cap, GUARD_DIGITS)
    assert digits_of_ratio(*cand.as_integer_ratio(), params, cap) == want


@given(certificate_cases(), st.integers(1, 10**30))
@settings(max_examples=300, deadline=None)
def test_digits_of_ratio_ignores_a_common_factor(case, g):
    cand, params, cap = case
    p, q = cand.numerator, cand.denominator
    assert digits_of_ratio(g * p, g * q, params, cap) == digits_of_ratio(p, q, params, cap)


@given(certificate_cases(), st.integers(1, 10**30))
@settings(max_examples=300, deadline=None)
def test_log10_error_bound_matches_fraction_distance(case, g):
    cand, params, cap = case
    p, q = cand.numerator, cand.denominator
    ref = cap + GUARD_DIGITS
    err = farther_end_error(cand, params.n, params.k, ref)
    want = math.log10(err.numerator) - math.log10(err.denominator)
    assert abs(log10_error_bound(g * p, g * q, params, ref) - want) < 1e-9


@pytest.mark.parametrize(
    "fn, q",
    [(digits_of_ratio, 0), (digits_of_ratio, -7), (log10_error_bound, 0), (log10_error_bound, -7)],
    ids=["0", "-7", "log10_error_bound-0", "log10_error_bound--7"],
)
def test_digits_of_ratio_requires_positive_denominator(fn, q):
    with pytest.raises(ValueError, match="denominator must be positive"):
        fn(10, q, Params(2, 2), 5)


def test_digits_of_accuracy_monotone_in_cap():
    p = Params(2, 2)
    assert digits_of_ratio(99, 70, p, 2) == 2  # capped below true accuracy
    assert digits_of_ratio(99, 70, p, 4) == 4
    assert digits_of_ratio(99, 70, p, 80) == 4


def test_log10_error_bound_tracks_true_error():
    err = abs(Fraction(99, 70) - Fraction(nth_root_bracket(Params(2, 2), 40), 10**40))
    expected = math.log10(err.numerator) - math.log10(err.denominator)
    got = log10_error_bound(99, 70, Params(2, 2), 40)
    assert abs(got - expected) < 1e-9
    assert -4.2 < got < -4.0


@st.composite
def floor_cases(draw):
    """(p, q, params, d): p/q placed on either edge of certified_floor's
    window or one unit off it, with p*S % q zero or not; tiny, negative and
    far ratios; perfect powers drawn on purpose."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        k = draw(st.integers(1, integer_nth_root(10**4, n))) ** n
    else:
        k = draw(st.integers(1, 10**4))
    params, d = Params(n, k), draw(st.integers(1, 60))
    g, s = 10**GUARD_DIGITS, 10 ** (d + GUARD_DIGITS)
    kind = draw(st.sampled_from(("low-edge", "high-edge", "tiny", "far")))
    if kind == "tiny":  # |p*S/q| < G, so f - G + 1 <= 0
        return draw(st.integers(-10, 10)), draw(st.integers(s, s * 10**4)), params, d
    if kind == "far":
        return draw(st.integers(-(10**30), 10**30)), draw(st.integers(1, 10**30)), params, d
    lo = nth_root_bracket(params, d + GUARD_DIGITS)
    exact = draw(st.booleans())  # p*S % q == 0, so c = f
    # lo = f - G + 1 on the low edge, lo = c + G - 2 on the high edge
    f = lo + g - 1 if kind == "low-edge" else lo - g + 2 - (not exact)
    f += draw(st.sampled_from((-1, 0, 1)))
    if exact:
        m = draw(st.integers(1, 10**6))
        return f * m, s * m, params, d
    q = draw(st.integers(s + 1, s * 10**3))
    return f * q // s + 1, q, params, d  # the least p with p*S > f*q


@given(floor_cases())
@example((-(10**10), 1, Params(2, 2), 1))  # a negative bound at even n
@example((5, 10**6 * 7, Params(4, 81), 1))
@settings(max_examples=300, deadline=None)
def test_certified_floor_certifies_where_digits_of_ratio_reaches_d(case):
    p, q, params, d = case
    got = certified_floor(p, q, params, d)
    assert (got is not None) == (digits_of_ratio(p, q, params, d) == d)
    if got is not None:
        assert got == p * 10**d // q


@pytest.mark.parametrize("params", [Params(2, 2), Params(3, 17), Params(5, 7), Params(4, 81)])
@pytest.mark.parametrize("d", [1, 12, 45])
def test_certified_floor_window_edges(params, d):
    # the window is f - G + 1 <= lo < c + G - 1, c = f + (p*S % q > 0):
    # each edge certifies, and one unit past it does not
    g, s = 10**GUARD_DIGITS, 10 ** (d + GUARD_DIGITS)
    lo, q = nth_root_bracket(params, d + GUARD_DIGITS), 7 * s
    for f, rem, certifies in ((lo + g - 1, 0, True), (lo + g, 0, False),
                              (lo - g + 2, 0, True), (lo - g + 1, 0, False),
                              (lo - g + 1, 3, True), (lo - g, 3, False)):
        p, r = divmod(f * q + rem * s, s)
        assert r == 0 and divmod(p * s, q) == (f, rem * s)
        got = certified_floor(p, q, params, d)
        assert got == (f // g if certifies else None), (f - lo, rem)
        assert (digits_of_ratio(p, q, params, d) == d) == certifies, (f - lo, rem)


@pytest.mark.parametrize("q, d", [(0, 5), (-7, 5), (7, 0), (7, -1)])
def test_certified_floor_refuses_what_digits_of_ratio_refuses(q, d):
    with pytest.raises(ValueError):
        certified_floor(10, q, Params(2, 2), d)
    with pytest.raises(ValueError):
        digits_of_ratio(10, q, Params(2, 2), d)


def _n2_pairs(k, t):
    """The n = 2 entry pair of M**t (1, 1) as ints, and as exact Decimals
    off the halved Decimal ladder, as approx reads each."""
    params = Params(2, k)
    ints = engine.ones_pair(params, engine.ring_pow_one_plus_x(params, t))
    with exact_decimal() as exact:
        power = engine.ring_pow_one_plus_x(params, t, exact.Decimal, engine.halved)
        return ints, engine.ones_pair(params, power)


@given(st.builds(lambda j, r: 8 * j + r, st.integers(0, 1250), st.integers(1, 8)),
       st.integers(1, 300), st.floats(0.5, 1.5))
@example(7, 200, 0.5)  # a miss
@example(7, 200, 1.5)  # a certificate
@settings(max_examples=80, deadline=None)
def test_certified_floor_reads_an_exact_decimal_pair_as_its_int_pair(k, d, u):
    # k in every class mod 8, and a step from half to one and a half times
    # the one the rate predicts for d digits, so pairs that certify and
    # pairs that miss; the Decimal pair, off the halved ladder, is the int
    # pair over a power of two (a ratio's certificate does not see a common
    # factor), and its floor is a Decimal of the same digits
    rate = spectral.convergence_rate(Params(2, k))[1]
    (p, q), pair = _n2_pairs(k, int(d / rate * u) if rate < math.inf else 0)
    want, got = certified_floor(p, q, Params(2, k), d), certified_floor(*pair, Params(2, k), d)
    assert (want is None) == (got is None)
    if got is not None:
        assert isinstance(got, decimal.Decimal) and str(got) == str(want)


def test_certified_floor_works_a_decimal_pair_exactly_under_the_default_context():
    # under a fresh context of 28 digits, in which p*S and the division would
    # round, a Decimal pair still certifies exactly as its int pair does, and
    # the caller's context is left as it was: at (2, 2) and 200 digits the
    # state at t = 200 misses and the one at t = 300 certifies
    params, d = Params(2, 2), 200
    with decimal.localcontext(decimal.Context()) as ctx:
        assert ctx.prec == 28
        results = []
        for t in (200, 300):
            (p, q), _ = _n2_pairs(2, t)
            want = certified_floor(p, q, params, d)
            got = certified_floor(decimal.Decimal(p), decimal.Decimal(q), params, d)
            assert (want is None) == (got is None) and str(got) == str(want), t
            results.append(got)
        assert results[0] is None and results[1] is not None
        assert decimal.getcontext() is ctx and ctx.prec == 28 and not ctx.flags[decimal.Inexact]


def test_certified_floor_refuses_a_negative_decimal_numerator():
    # Decimal division truncates toward zero, so a negative p would be
    # floored wrong; it is refused instead
    with pytest.raises(ValueError, match="nonnegative"):
        certified_floor(decimal.Decimal(-10), decimal.Decimal(7), Params(2, 2), 5)
