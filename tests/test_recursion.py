import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ratroot.core import Params, PoleEncountered, ZeroVector
from ratroot.engine import apply_power
from ratroot.oracle import digits_of_ratio, integer_nth_root, log10_error_bound, nth_root_bracket
from ratroot.recursion import enclosure, iterate_linear, iterate_scalar_map


def ones(n):
    return (1,) * n


def test_iterate_linear_reproduces_the_opening_table():
    states = iterate_linear(Params(2, 2), ones(2), 5)
    assert states == (
        (1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70),
    )
    assert len(states) == 6


def test_iterate_linear_zero_vector_abort():
    with pytest.raises(ZeroVector) as exc:
        iterate_linear(Params(2, 1), (-1, 1), 1)
    assert exc.value.t == 1


def test_iterate_linear_zero_steps():
    states = iterate_linear(Params(3, 4), [2, 0, -1], 0)
    assert len(states) == 1
    assert states[0] == (2, 0, -1)


def test_iterate_linear_validates_inputs():
    with pytest.raises(ValueError):
        iterate_linear(Params(3, 2), ones(2), 4)
    with pytest.raises(ValueError):
        iterate_linear(Params(2, 2), ones(2), -1)


@given(
    st.builds(Params, st.integers(2, 5), st.integers(1, 12)),
    st.integers(0, 25),
    st.one_of(st.just(ones(5)), st.tuples(*[st.integers(-9, 9)] * 5)),
)
@example(Params(2, 1), 3, (-1, 1, 0, 0, 0))
@example(Params(4, 1), 5, (-1, 1, -1, 1, 0))
@example(Params(3, 2), 25, (2, 0, -1, 0, 0))
@settings(max_examples=80, deadline=None)
def test_iterate_linear_matches_one_shot_power(params, t_max, entries):
    # the first n drawn entries are the start: all ones, or any nonzero
    # start in -9..9 (zeros included)
    r0 = entries[: params.n]
    assume(any(r0))
    try:
        states = iterate_linear(params, r0, t_max)
    except ZeroVector as exc:
        # the singular case (even n, k = 1): the one-shot power vanishes at
        # the same step and not one step earlier
        z = exc.t
        with pytest.raises(ZeroVector) as one_shot:
            apply_power(params, z, r0)
        assert one_shot.value.t == z
        assert any(apply_power(params, z - 1, r0))
        return
    for t in (0, t_max // 2, t_max):
        assert states[t] == apply_power(params, t, r0)


def test_scalar_map_reproduces_square_root_ratios():
    ratios = iterate_scalar_map(Params(2, 2), Fraction(1), 2)
    assert ratios == (Fraction(1), Fraction(3, 2), Fraction(7, 5))


def test_scalar_map_fixed_point():
    ratios = iterate_scalar_map(Params(2, 4), Fraction(2), 5)
    assert all(r == 2 for r in ratios)


def test_scalar_map_cube_root_example():
    ratios = iterate_scalar_map(Params(3, 2), Fraction(1), 2)
    assert ratios == (Fraction(1), Fraction(3, 2), Fraction(14, 13))


def test_scalar_map_pole():
    with pytest.raises(PoleEncountered) as exc:
        iterate_scalar_map(Params(2, 5), Fraction(-1), 3)
    assert exc.value.t == 0
    assert exc.value.value == -1


def test_scalar_map_no_pole_for_odd_n():
    # r**(n-1) + 1 > 0 whenever n - 1 is even, so any start is safe
    ratios = iterate_scalar_map(Params(3, 2), Fraction(-1), 4)
    assert len(ratios) == 5


def test_scalar_map_validates_steps():
    with pytest.raises(ValueError):
        iterate_scalar_map(Params(2, 2), Fraction(1), -1)


@given(
    st.integers(-60, 60),
    st.integers(1, 60),
    st.integers(1, 10),
    st.integers(0, 14),
)
@settings(max_examples=80, deadline=None)
def test_square_root_case_scalar_equals_linear_ratios(num, den, k, steps):
    # the n = 2 scalar map and the linear system are the same projective map
    params = Params(2, k)
    try:
        scal = iterate_scalar_map(params, Fraction(num, den), steps)
    except PoleEncountered as exc:
        # the linear side must hit the matching undefined ratio one step later
        try:
            states = iterate_linear(params, (num, den), exc.t + 1)
        except ZeroVector as zv:
            assert zv.t == exc.t + 1
            return
        assert states[exc.t + 1][1] == 0
        return
    states = iterate_linear(params, (num, den), steps)
    for t, r in enumerate(scal):
        assert Fraction(*states[t]) == r


def test_scalar_map_attracts_only_below_the_derivative_bound():
    # r* = k**(1/n) attracts only when u = k**((n-1)/n) < 2/(n-2); for n = 3
    # that is k < 2**1.5. At (3, 3) the map from 1 is an exact 2-cycle.
    assert iterate_scalar_map(Params(3, 3), Fraction(1), 4) == (1, 2, 1, 2, 1)
    # at (3, 2) the error falls by log10 of |(1 - 2u) / (1 + u)|, about
    # 0.075 digits a step, from 1 (-0.585 to -1.636 over 14 steps)
    params = Params(3, 2)
    errors = [log10_error_bound(r.numerator, r.denominator, params, 60)
              for r in iterate_scalar_map(params, Fraction(1), 14)]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    u = 2 ** (2 / 3)
    rate = math.log10(abs((1 - 2 * u) / (1 + u)))
    assert abs((errors[-1] - errors[0]) / 14 - rate) < 0.005


@given(st.integers(1, 9), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_scalar_map_fixes_exact_roots(m, n):
    params = Params(n, m**n)
    ratios = iterate_scalar_map(params, Fraction(m), 3)
    assert all(r == m for r in ratios)


@pytest.mark.parametrize("k", [2, 3, 5, 10, 17])
@pytest.mark.parametrize("start", [(1, 1), (3, 1), (1, 4)])
def test_digits_monotone_for_square_roots(k, start):
    # for n = 2 the error falls at step t exactly when r_t > sqrt(k) - 2, as
    # |e_{t+1}| / |e_t| = (sqrt(k) - 1) / (r_t + 1); for these k <= 17 and
    # starts that fails only at steps 0 and 2, so past the 10-step burn-in
    # the error falls at every step and certified digits never drop
    params = Params(2, k)
    states = iterate_linear(params, start, 90)
    digits = [digits_of_ratio(*s, params, 75) for s in states[10:]]
    assert digits == sorted(digits)


def _closer(a, b, k):
    """|a - sqrt(k)| < |b - sqrt(k)| for distinct positive fractions a and b,
    each a pair (p, q), decided in integers: for a > b it holds exactly when
    (a + b)**2 < 4k, and for a < b exactly when (a + b)**2 > 4k."""
    (pa, qa), (pb, qb) = a, b
    twice_mean, four_k = (pa * qb + pb * qa) ** 2, 4 * k * (qa * qb) ** 2
    return twice_mean < four_k if pa * qb > pb * qa else twice_mean > four_k


NON_SQUARES = [k for k in range(2, 61) if math.isqrt(k) ** 2 != k]


@pytest.mark.parametrize("k", NON_SQUARES)
def test_square_root_error_falls_exactly_when_the_ratio_passes_root_k_minus_2(k):
    # the ratio map gives |e_{t+1}| / |e_t| = (sqrt(k) - 1) / (r_t + 1), so
    # the error falls at step t exactly when r_t = p/q > sqrt(k) - 2, that is
    # (p + 2q)**2 > k*q**2; no step holds the error, as sqrt(k) is irrational
    states = iterate_linear(Params(2, k), ones(2), 80)
    for t in range(80):
        p, q = states[t]
        falls = _closer(states[t + 1], states[t], k)
        assert falls == ((p + 2 * q) ** 2 > k * q * q), (k, t)


def test_square_root_error_rises_from_step_2_to_3_at_k_22():
    # "the n = 2 error falls at every step from t = 1" holds up to k = 21
    # alone: at k = 22, r_2 = 67/25 is below sqrt(22) - 2, so from the
    # all-ones start the error rises from step 2 to step 3
    states = iterate_linear(Params(2, 22), ones(2), 3)
    assert states[2] == (67, 25)
    assert _closer(states[2], states[3], 22)
    for k in NON_SQUARES[:NON_SQUARES.index(22)]:
        states = iterate_linear(Params(2, k), ones(2), 80)
        assert all(_closer(states[t + 1], states[t], k) for t in range(1, 80)), k


@pytest.mark.parametrize("n,k", [(3, 2), (3, 17), (5, 7)])
def test_digits_monotone_with_stride_for_higher_roots(n, k):
    # complex subdominant pairs oscillate, so single-step dips of a few
    # digits occur; over a 30-step stride the trend always wins
    params = Params(n, k)
    states = iterate_linear(params, ones(n), 150)
    digits = [digits_of_ratio(s[0], s[1], params, 75) for s in states]
    for t in range(10, 121):
        assert digits[t + 30] >= digits[t], (t, digits[t], digits[t + 30])


@pytest.mark.parametrize("k", [2, 3, 5])
def test_sign_basin_prefers_positive_root(k):
    # integer starts cannot sit on the negative root's eigenvector (its slope
    # is irrational), so every trajectory leaves the negative root behind
    params = Params(2, k)
    neg_mid = -Fraction(2 * nth_root_bracket(params, 30) + 1, 2 * 10**30)
    for start in [(-41, 29), (-50, 35), (7, -5), (-1, 1), (-49, -50)]:
        states = iterate_linear(params, start, 120)
        # the entries may both be negative; Fraction moves the sign to p
        assert digits_of_ratio(*Fraction(*states[120]).as_integer_ratio(), params, 20) == 20
        for t in range(50, 121):
            assert abs(Fraction(*states[t]) - neg_mid) > 1


# --- Collatz-Wielandt enclosures ---------------------------------------------

def _le(a, b):
    """a <= b for fractions given as pairs with positive denominators."""
    return a[0] * b[1] <= b[0] * a[1]


def test_enclosure_is_the_smallest_and_largest_quotient():
    # (3, 2) at (2, 2): the wrapped quotient 2*2/3 and the ratio 3/2
    assert enclosure(Params(2, 2), (3, 2)) == ((4, 3), (3, 2))
    # (3, 5): quotients 5*1/4, 4/2, 2/1; the two equal ones keep the first
    assert enclosure(Params(3, 5), (4, 2, 1)) == ((5, 4), (4, 2))
    # all equal: the eigenvector of (2, 4), both ends 2
    assert enclosure(Params(2, 4), (2, 1)) == ((4, 2), (4, 2))


def test_enclosure_takes_a_negative_state_as_its_negation():
    assert enclosure(Params(3, 7), (-5, -3, -2)) == enclosure(Params(3, 7), (5, 3, 2))


@pytest.mark.parametrize("state", [(1, 0), (0, 1), (2, -1), (-2, 1), (0, 0), (1, 1, 1)])
def test_enclosure_refuses_a_state_without_one_strict_sign(state):
    with pytest.raises(ValueError):
        enclosure(Params(2, 3), state)


_positive_starts = st.lists(st.integers(1, 10**6), min_size=8, max_size=8)
_params = st.builds(Params, st.integers(2, 8), st.integers(1, 10**4))


@given(_params, _positive_starts, st.integers(0, 200))
@example(Params(2, 4), [1] * 8, 60)
@example(Params(3, 8), [5, 1, 9, 1, 1, 1, 1, 1], 0)
@example(Params(8, 1), [1, 2, 3, 4, 5, 6, 7, 8], 200)
@settings(max_examples=60, deadline=2000)
def test_enclosure_holds_the_root(params, start, t):
    lo, hi = enclosure(params, apply_power(params, t, start[: params.n]))
    assert _le(lo, hi)
    # lo <= r < (bracket + 1) / 10**e and hi >= r >= bracket / 10**e
    e = 80
    bracket = nth_root_bracket(params, e)
    assert lo[0] * 10**e < (bracket + 1) * lo[1]
    assert hi[0] * 10**e >= bracket * hi[1]


@given(_params, _positive_starts, st.integers(1, 60))
@settings(max_examples=60, deadline=2000)
def test_enclosures_nest_along_a_trajectory(params, start, steps):
    ends = [enclosure(params, s) for s in iterate_linear(params, start[: params.n], steps)]
    for (lo, hi), (next_lo, next_hi) in zip(ends, ends[1:]):
        assert _le(lo, next_lo) and _le(next_hi, hi)


@given(_params, st.integers(0, 400))
@example(Params(2, 4), 120)
@example(Params(3, 2), 300)
@settings(max_examples=60, deadline=2000)
def test_every_ratio_certifies_what_both_ends_certify(params, t):
    # every ratio lies between the ends, and the distance to the farther
    # end of the oracle's bracket is convex, so no ratio certifies fewer
    # digits than the worse end: the iteration and the oracle, which share
    # no code, must agree on that
    x = apply_power(params, t, ones(params.n))
    floor = min(digits_of_ratio(*end, params, 60) for end in enclosure(params, x))
    for i in range(1, params.n):
        assert digits_of_ratio(x[i - 1], x[i], params, 60) >= floor


def _quotients(params, x):
    """The n quotients (Sx)_i / x_i of x as unreduced pairs, i = 0 first."""
    return [(params.k * x[-1], x[0]), *zip(x, x[1:])]


def _eq(a, b):
    return a[0] * b[1] == b[0] * a[1]


# entries of 1 and 2 and small k make adjacent quotients equal often, so an
# end that stays put is drawn as well as one that moves
_small_params = st.builds(Params, st.integers(2, 8),
                          st.one_of(st.integers(1, 9), st.integers(1, 10**4)))
_small_or_positive_starts = st.one_of(st.lists(st.integers(1, 2), min_size=8, max_size=8),
                                      _positive_starts)


@given(_small_params, _small_or_positive_starts, st.one_of(st.just(0), st.integers(0, 12)))
@example(Params(5, 5), [1] * 8, 2)  # both ends stay
@example(Params(3, 7), [1] * 8, 0)  # the lower end stays
@example(Params(3, 1), [4, 2, 1, 1, 1, 1, 1, 1], 0)  # the upper end stays
@example(Params(3, 8), [4, 2, 1, 1, 1, 1, 1, 1], 0)  # an eigenvector
@settings(max_examples=200, deadline=None)
def test_an_end_stays_put_exactly_where_two_adjacent_quotients_sit_on_it(params, start, t):
    # quotient i of Mx is the mediant of quotients i and i - 1 of x, taken
    # cyclically, with quotient n - 1 weighted by k at i = 0
    n, k = params.n, params.k
    x = apply_power(params, t, start[:n])
    y = apply_power(params, 1, x)
    qx, qy = _quotients(params, x), _quotients(params, y)
    assert qy[0] == (qx[0][0] + k * qx[-1][0], qx[0][1] + k * qx[-1][1])
    for i in range(1, n):
        assert qy[i] == (qx[i][0] + qx[i - 1][0], qx[i][1] + qx[i - 1][1])
    (lo, hi), (next_lo, next_hi) = enclosure(params, x), enclosure(params, y)
    assert _le(lo, next_lo) and _le(next_hi, hi)
    for end, next_end in [(lo, next_lo), (hi, next_hi)]:
        sits = any(_eq(qx[i], end) and _eq(qx[i - 1], end) for i in range(n))
        assert _eq(end, next_end) == sits


# every step of the all-ones trajectory whose enclosure keeps its width, for
# n 2-10, k 2-120 not a perfect n-th power and t < 120; each is at t < n - 1
# (checked exhaustively as well for n 2-12, k 2-400 and t < 200)
ALL_ONES_STAYS = [
    (5, 5, 2), (6, 5, 2), (6, 17, 3), (7, 5, 2), (7, 17, 3), (7, 49, 4), (8, 5, 2),
    (8, 9, 5), (8, 17, 3), (8, 49, 4), (9, 5, 2), (9, 9, 5), (9, 17, 3), (9, 49, 4),
    (10, 5, 2), (10, 9, 5), (10, 17, 3), (10, 49, 4),
]


def test_all_ones_enclosure_narrows_at_every_step_from_n_minus_1():
    stays = []
    for n in range(2, 11):
        for k in range(2, 121):
            if integer_nth_root(k, n) ** n == k:
                continue
            params = Params(n, k)
            ends = [enclosure(params, s) for s in iterate_linear(params, ones(n), 120)]
            stays += [(n, k, t) for t in range(120)
                      if _eq(ends[t][0], ends[t + 1][0]) and _eq(ends[t][1], ends[t + 1][1])]
    assert stays == ALL_ONES_STAYS
    assert all(t < n - 1 for n, _, t in stays)


def test_all_ones_enclosure_keeps_its_width_at_5_5_from_t_2_to_3():
    # the width need not fall at every step: [4/4, 16/8], then [8/8, 24/12]
    states = iterate_linear(Params(5, 5), ones(5), 3)
    assert enclosure(Params(5, 5), states[2]) == ((4, 4), (16, 8))
    assert enclosure(Params(5, 5), states[3]) == ((8, 8), (24, 12))
