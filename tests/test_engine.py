import decimal
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ratroot import engine
from ratroot.core import Params, ZeroVector
from ratroot.engine import (
    SQR_CUTOVER,
    apply_power,
    companion_matrix,
    fib_power_chain,
    mat_pow,
    ones_pair,
    power_basis_coeffs,
    reduced_pair,
    ring_pow_one_plus_x,
    square_ring,
    step_one_plus_x,
)

from _helpers import (
    alternating_binomial_transform,
    bareiss_det,
    fib_chain_in_power_basis,
    identity,
    mat_apply,
    mat_comb,
    mulmod_monic,
    step_pow_one_plus_x,
)

params_st = st.builds(Params, st.integers(2, 6), st.integers(1, 20))


def cyclic_matrix(params):
    """S = M - I, the k-weighted cyclic shift."""
    return mat_comb([(1, companion_matrix(params)), (-1, identity(params.n))])


def test_companion_matrix_examples():
    assert companion_matrix(Params(2, 2)) == ((1, 2), (1, 1))
    assert companion_matrix(Params(3, 5)) == ((1, 0, 5), (1, 1, 0), (0, 1, 1))
    assert companion_matrix(Params(2, 1)) == ((1, 1), (1, 1))


def test_cyclic_matrix_examples():
    assert cyclic_matrix(Params(2, 2)) == ((0, 2), (1, 0))
    assert cyclic_matrix(Params(2, 1)) == ((0, 1), (1, 0))


def test_cyclic_cubed_is_k_times_identity():
    s = cyclic_matrix(Params(3, 2))
    assert mat_pow(s, 3) == ((2, 0, 0), (0, 2, 0), (0, 0, 2))


@given(params_st)
@settings(max_examples=60)
def test_cyclic_nth_power_property(params):
    s = cyclic_matrix(params)
    assert mat_pow(s, params.n) == mat_comb([(params.k, identity(params.n))])


def test_mat_pow_examples():
    m = companion_matrix(Params(2, 2))
    assert mat_pow(m, 0) == ((1, 0), (0, 1))
    assert mat_pow(m, 2) == ((3, 4), (2, 3))
    p5 = mat_pow(m, 5)
    assert p5 == ((41, 58), (29, 41))
    assert mat_apply(p5, (1, 1)) == (99, 70)


def test_mat_pow_rejects_bad_arguments():
    m = identity(2)
    with pytest.raises(ValueError):
        mat_pow(m, -1)


def test_square_ring_examples():
    x2 = (0, 0, 1)
    assert square_ring(x2, 2) == [0, 2, 0]  # x**4 = k*x at n=3, k=2

    one_plus_x = (1, 1)
    assert square_ring(one_plus_x, 2) == [3, 2]

    p = (4, -1, 7)
    assert apply_power(Params(3, 2), 0, p) == p  # (1 + x)**0 = 1 times p


# lengths 2-64, with both sides of the squaring kernel's cutover
mul_n_st = st.one_of(st.integers(2, 64), st.sampled_from([SQR_CUTOVER, SQR_CUTOVER + 1]))
big_coeff_st = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**300), 10**300))


@given(
    mul_n_st.flatmap(lambda n: st.lists(big_coeff_st, min_size=n, max_size=n)),
    st.integers(1, 10**6),
    st.integers(0, 300),
)
@settings(max_examples=40, deadline=None)
def test_apply_power_matches_cyclic_shift_sum(a, k, t):
    # M**t a = sum(a_i * S**i b) with b = (1 + x)**t: S = M - I is
    # multiplication by x, and b is built by t single steps
    assume(any(a))
    n = len(a)
    params = Params(n, k)
    s = cyclic_matrix(params)
    want = [0] * n
    shifted = step_pow_one_plus_x(params, t)
    for ai in a:
        want = [w + ai * c for w, c in zip(want, shifted)]
        shifted = mat_apply(s, shifted)
    if not any(want):
        with pytest.raises(ZeroVector):
            apply_power(params, t, a)
    else:
        assert apply_power(params, t, a) == tuple(want)


def test_ring_pow_examples():
    assert ring_pow_one_plus_x(Params(3, 9), 0) == (1, 0, 0)
    # (1+x)**5 with x**2 = 2 equals the first column of M**5
    assert ring_pow_one_plus_x(Params(2, 2), 5) == (41, 29)
    assert mat_apply(mat_pow(companion_matrix(Params(2, 2)), 5), (1, 0)) == (41, 29)
    # degree < n, no reduction: (1+x)**2 at n=3
    assert ring_pow_one_plus_x(Params(3, 2), 2) == (1, 2, 1)
    assert mat_apply(mat_pow(companion_matrix(Params(3, 2)), 2), (1, 0, 0)) == (1, 2, 1)


@given(params_st, st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_ring_pow_matches_matrix_first_column(params, t):
    e1 = (1,) + (0,) * (params.n - 1)
    column = mat_apply(mat_pow(companion_matrix(params), t), e1)
    assert ring_pow_one_plus_x(params, t) == column


@given(params_st, st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_ring_pow_is_a_homomorphism(params, s, t):
    combined = ring_pow_one_plus_x(params, s + t)
    split = apply_power(params, s, ring_pow_one_plus_x(params, t))
    assert combined == split


# half the exponents sit on a ladder edge: 0, 1, 2**j - 1, 2**j, 2**j + 1
ladder_t_st = st.one_of(
    st.integers(0, 3000),
    st.builds(lambda j, d: max(0, 2**j + d), st.integers(0, 11), st.integers(-1, 1)),
)


@given(st.builds(Params, st.integers(2, 64), st.integers(1, 10**6)), ladder_t_st)
@settings(max_examples=100, deadline=None)
def test_ring_pow_matches_repeated_step(params, t):
    assert ring_pow_one_plus_x(params, t) == step_pow_one_plus_x(params, t)


@given(st.integers(2, 8), st.builds(lambda j, r: 8 * j + r, st.integers(0, 1250),
                                    st.integers(1, 8)), st.integers(0, 1000))
@settings(max_examples=80, deadline=None)
def test_ring_pow_over_exact_decimals_is_the_int_ladder(n, k, t):
    # the kernels are duck-typed: the same ladder on Decimal coefficients, in
    # a context where no step rounds, prints the int ladder's bytes
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        power = ring_pow_one_plus_x(Params(n, k), t, decimal.Decimal)
    assert {type(c) for c in power} == {decimal.Decimal}
    assert tuple(map(str, power)) == tuple(map(str, ring_pow_one_plus_x(Params(n, k), t)))


# k - 1 = 2*3*5*7*11 for 2311 and 2*3*5*7*11*13 for 30031; 2**1024 + 1 is
# past the float range, and its k - 1 is a power of two
primitive_k_st = st.one_of(
    st.sampled_from([1, 2, 3, 4, 9, 2311, 7531, 30031, 2**1024 + 1]),
    st.integers(1, 10**6),
)


@given(primitive_k_st, ladder_t_st)
@settings(max_examples=100, deadline=None)
def test_n2_reduction_is_the_ring_power_over_its_gcd(k, t):
    if k > 10**6:
        # 512 bits a step, and the reference gcd is quadratic (5 s at t = 3000)
        t %= 257
    a, b = ring_pow_one_plus_x(Params(2, k), t)
    g = gcd(a, b)
    assert reduced_pair(a, b, 2) == (a // g, b // g)


def test_n3_reduction_divides_by_a_long_gcd_and_skips_a_gcd_of_1(monkeypatch):
    # n >= 3: a 5k-bit gcd of 25k-bit entries is divided out by
    # divmod_big, past its recursive threshold; a 35-bit gcd by builtin
    # division, and a coprime pair is returned with no division at all
    calls, true = [], engine.divmod_big
    monkeypatch.setattr(engine, "divmod_big", lambda a, b: calls.append(b) or true(a, b))
    p, q, g = 3**12500 + 2, 7**8900, 11**1450
    assert gcd(p, q) == 1 and g.bit_length() > 5000
    assert reduced_pair(p * g, q * g, 3) == (p, q)
    assert calls == [g, g]
    calls.clear()
    assert reduced_pair(p * 11**10, q * 11**10, 5) == (p, q) and calls == []
    assert reduced_pair(p, q, 4) == (p, q) and calls == []


# lengths on both sides of the schoolbook/Karatsuba cutover, odd and even
sqr_n_st = st.one_of(
    st.integers(1, 80),
    st.sampled_from([SQR_CUTOVER, SQR_CUTOVER + 1, 2 * SQR_CUTOVER + 1]),
)
edge = 10**300


def _cycle(pattern, n):
    return (pattern * n)[:n]


# the schoolbook leaves form each cross term as (ai + aj)**2 - ai**2 - aj**2:
# sums that cancel (ai = -aj), equal coefficients, and zeros between large
# coefficients of both signs, each at the leaf's longest length and at 2
@given(sqr_n_st.flatmap(lambda n: st.lists(big_coeff_st, min_size=n, max_size=n)),
       st.integers(1, 10**6))
@example([edge] * SQR_CUTOVER, 10**6)
@example([-edge, edge] * (SQR_CUTOVER // 2) + [-edge], 10**6)
@example([edge, 0, -1] * SQR_CUTOVER, 1)
@example(_cycle([edge, -edge], SQR_CUTOVER), 10**6)
@example([-edge, edge], 10**6)
@example([-edge] * SQR_CUTOVER, 3)
@example([edge, edge], 3)
@example(_cycle([edge, 0, 0, -edge - 1, 0], SQR_CUTOVER), 2)
@example([0, -edge], 2)
@settings(max_examples=150, deadline=None)
def test_square_ring_matches_general_multiply(a, k):
    assert square_ring(a, k) == list(mulmod_monic(a, a, ((0, -k),)))  # x**n = k


@pytest.mark.parametrize("n", [2, 8, 64])
def test_ring_pow_matches_repeated_step_at_t6000(n):
    params = Params(n, 7)
    assert ring_pow_one_plus_x(params, 6000) == step_pow_one_plus_x(params, 6000)


# the binomial start covers t up to 2*n*n; past it the ladder takes over
# (2n**2 + 1 is one square and a step past a row of n**2, 4n**2 + 1 the same
# past a row of 2n**2)
@pytest.mark.parametrize("n", [2, 3, 8, 64])
@pytest.mark.parametrize("k", [1, 2, 10**6, 2**1024 + 1], ids=["1", "2", "1e6", "2**1024+1"])
def test_ring_pow_matches_repeated_step_at_row_edges(n, k):
    params = Params(n, k)
    stepped, done = None, 0
    for t in (n * n, 2 * n * n - 1, 2 * n * n, 2 * n * n + 1, 4 * n * n + 1):
        stepped, done = step_pow_one_plus_x(params, t - done, stepped), t
        assert ring_pow_one_plus_x(params, t) == stepped


@given(st.builds(Params, st.integers(2, 8), st.integers(1, 50)), st.integers(0, 150))
@settings(max_examples=40, deadline=None)
def test_square_ring_doubles_the_ladder(params, t):
    # approx's step doubling: squaring (1 + x)**t is the ladder for 2t, and
    # the pair read off it is the first two entries of the reference matrix
    # power applied to the all-ones start
    doubled = tuple(square_ring(ring_pow_one_plus_x(params, t), params.k))
    assert doubled == ring_pow_one_plus_x(params, 2 * t)
    ones = (1,) * params.n
    state = mat_apply(mat_pow(companion_matrix(params), 2 * t), ones)
    assert ones_pair(params, doubled) == state[:2]


def _edge_exponents(n):
    # 0, 1, 2**j +- 1 (2**j + 1 ends the ladder on a step after a square),
    # 2*n*n (the longest row-only t) and 2*n*n + 1 (one square past a row)
    edges = {0, 1, 2 * n * n, 2 * n * n + 1}
    edges.update(2**j + d for j in range(1, 12) for d in (-1, 1))
    return st.sampled_from(sorted(edges))


@given(
    st.builds(Params, st.integers(2, 12), st.integers(1, 10**6)).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(0, 3000) | _edge_exponents(p.n))
    )
)
@example((Params(2, 1), 0))
@example((Params(12, 10**6), 3000))
@settings(max_examples=80, deadline=None)
def test_ones_pair_is_the_head_of_the_all_ones_state(case):
    # the pair approx certifies: entries 1 and 2 of M**t (1, ..., 1), read
    # off (1 + x)**t in O(n) instead of the n**2 products apply_power forms
    params, t = case
    ones = (1,) * params.n
    pair = ones_pair(params, ring_pow_one_plus_x(params, t))
    assert pair == apply_power(params, t, ones)[:2]


def test_apply_power_examples():
    assert apply_power(Params(2, 2), 5, (1, 1)) == (99, 70)
    r0 = (4, -2, 9)
    assert apply_power(Params(3, 7), 0, r0) == r0
    got = apply_power(Params(3, 2), 2, [1, 1, 1])
    assert got == (7, 5, 4)
    assert type(got) is tuple


def test_apply_power_zero_vector():
    with pytest.raises(ZeroVector) as exc:
        apply_power(Params(2, 1), 1, (-1, 1))
    assert exc.value.t == 1


def test_apply_power_rejects_bad_arguments():
    with pytest.raises(ValueError):
        apply_power(Params(3, 2), 1, (1, 1))
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        apply_power(Params(3, 2), -1, (1, 1, 1))


@given(params_st, st.integers(0, 50), st.lists(st.integers(-9, 9), min_size=2, max_size=6))
@settings(max_examples=80, deadline=None)
def test_engine_agreement_random(params, t, entries):
    entries = tuple((entries + [1] * params.n)[: params.n])
    if all(e == 0 for e in entries):
        entries = entries[:-1] + (1,)
    m = companion_matrix(params)
    try:
        via_ring = apply_power(params, t, entries)
    except ZeroVector:
        return  # singular matrix annihilated the start; nothing to compare
    assert via_ring == mat_apply(mat_pow(m, t), entries)


@given(params_st, st.lists(st.integers(1, 9), min_size=2, max_size=6), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_positive_starts_stay_positive(params, entries, t):
    entries = tuple((entries + [1] * params.n)[: params.n])
    got = apply_power(params, t, entries)
    assert all(e > 0 for e in got)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 5), (5, 3)])
def test_cayley_hamilton_rearranged_form(n, k):
    # M**n - sum_i C(n,i) (-1)**(n-1-i) M**i - ((-1)**(n-1) + k) I = 0
    params = Params(n, k)
    m = companion_matrix(params)
    rest = [(comb(n, i) * (-1) ** (n - 1 - i), mat_pow(m, i)) for i in range(1, n)]
    rest.append(((-1) ** (n - 1) + k, identity(n)))
    assert mat_pow(m, n) == mat_comb(rest)


@given(params_st, st.lists(st.integers(-(10**30), 10**30), min_size=6, max_size=6))
@settings(max_examples=100)
def test_step_one_plus_x_is_one_matrix_step(params, entries):
    c = tuple(entries[: params.n])
    assert tuple(step_one_plus_x(c, params.k)) == mat_apply(companion_matrix(params), c)


@given(params_st)
@settings(max_examples=60)
def test_determinant_closed_form(params):
    m = companion_matrix(params)
    assert bareiss_det(m) == 1 + (-1) ** (params.n + 1) * params.k


def test_power_basis_coeffs_small_exponents_are_delta():
    params = Params(3, 2)
    assert power_basis_coeffs(params, 0) == (1, 0, 0)
    assert power_basis_coeffs(params, 1) == (0, 1, 0)
    assert power_basis_coeffs(params, 2) == (0, 0, 1)


@given(params_st, st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_power_basis_reconstruction(params, t):
    m = companion_matrix(params)
    coeffs = power_basis_coeffs(params, t)
    # M**t = sum_i a_i M**i
    assert mat_pow(m, t) == mat_comb((a, mat_pow(m, i)) for i, a in enumerate(coeffs))


@given(st.builds(Params, st.integers(2, 64), st.integers(1, 10**6)), ladder_t_st)
@settings(max_examples=60, deadline=None)
def test_power_basis_coeffs_match_binomial_transform(params, t):
    b = ring_pow_one_plus_x(params, t)
    assert power_basis_coeffs(params, t) == alternating_binomial_transform(b)


def test_fib_power_chain_values():
    chain = fib_power_chain(Params(2, 2), 3)
    assert chain == [
        (2, (1, 2)),
        (3, (2, 5)),
        (5, (12, 29)),
    ]


def test_fib_power_chain_base_case():
    chain = fib_power_chain(Params(3, 11), 1)
    assert len(chain) == 1
    assert chain[0][0] == 2
    assert chain[0][1] == power_basis_coeffs(Params(3, 11), 2)


def test_fib_power_chain_matches_direct_expansion():
    params = Params(3, 2)
    chain = fib_power_chain(params, 6)
    assert [e for e, _ in chain] == [2, 3, 5, 8, 13, 21]
    for e, a in chain:
        assert a == power_basis_coeffs(params, e)


@given(
    st.builds(Params, st.integers(2, 64), st.integers(1, 10**6)),
    st.integers(1, 12),
)
@settings(max_examples=40, deadline=None)
def test_fib_power_chain_matches_power_basis_composition(params, chain_length):
    chain = fib_power_chain(params, chain_length)
    assert chain == fib_chain_in_power_basis(params.n, params.k, chain_length)
    for e, a in chain:
        assert a == power_basis_coeffs(params, e)


# at n = 64 all 15 exponents (up to 1597) are binomial rows; at n = 8 the
# exponents past 2*n*n = 128 are a binomial row and then a ladder of squares
@pytest.mark.parametrize("n,k", [(64, 50), (8, 2)])
def test_fib_power_chain_matches_power_basis_composition_at_15(n, k):
    assert fib_power_chain(Params(n, k), 15) == fib_chain_in_power_basis(n, k, 15)


def test_fib_power_chain_forms_no_general_product(monkeypatch):
    # each entry runs its own ladder, even past the binomial row's 2*n*n
    def no_product(params, t, r0):
        raise AssertionError("fib_power_chain formed a general product")

    monkeypatch.setattr(engine, "apply_power", no_product)
    assert fib_power_chain(Params(8, 2), 15) == fib_chain_in_power_basis(8, 2, 15)


def test_fib_power_chain_rejects_empty():
    with pytest.raises(ValueError):
        fib_power_chain(Params(2, 2), 0)
