import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratroot import division
from ratroot.division import DIV_LIMIT, divmod_big


# the recursive path is called directly, so every interpreter runs it,
# CPython 3.12 and later included, where divmod_big itself calls divmod.
# Divisors of DIV_LIMIT/2 to 8 * DIV_LIMIT bits take 0 to 3 levels of
# halving; a lower limit takes the same code through more levels on
# shorter operands.
@given(st.sampled_from([DIV_LIMIT, 200, 64]), st.floats(0.4, 8.5), st.floats(0, 9),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=2000)
def test_recursive_division_matches_divmod(limit, divisor_scale, quotient_scale, rng):
    b_bits = max(1, int(divisor_scale * limit))
    b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
    a = rng.getrandbits(b_bits + int(quotient_scale * limit))
    with mock.patch.object(division, "DIV_LIMIT", limit):
        assert division._divmod_recursive(a, b) == divmod(a, b)


def _edge_pairs():
    rng = random.Random(20261022)

    def draw(bits):
        return rng.getrandbits(bits) | 1 << (bits - 1)

    pairs = []
    for b_bits in (DIV_LIMIT - 1, DIV_LIMIT + 1, 2 * DIV_LIMIT + 1, 5 * DIV_LIMIT + 3,
                   8 * DIV_LIMIT - 1):
        b = draw(b_bits)
        q = draw(b_bits + 17)
        top_ones = ((1 << 64) - 1) << (b_bits - 64) | rng.getrandbits(b_bits - 64)
        cases = {
            "a-is-b-1": (b - 1, b), "a-is-0": (0, b), "a-below-b": (draw(b_bits - 5), b),
            "b-a-power-of-two": (draw(3 * b_bits), 1 << (b_bits - 1)),
            "exact-quotient": (q * b, b), "remainder-b-1": (q * b + b - 1, b),
            "every-bit-set": ((1 << 3 * b_bits) - 1, (1 << b_bits) - 1),
            "top-word-all-ones": (draw(2 * b_bits + 1), top_ones),
            "top-word-all-ones-remainder-b-1": (top_ones * q + top_ones - 1, top_ones),
        }
        pairs += [pytest.param(a, b, id=f"{name}-{b_bits}") for name, (a, b) in cases.items()]
    return pairs


@pytest.mark.parametrize("a,b", _edge_pairs())
def test_recursive_division_edges(a, b):
    assert division._divmod_recursive(a, b) == divmod(a, b)
    assert divmod_big(a, b) == divmod(a, b)


def test_divmod_big_recurses_only_on_long_divisions():
    # below 3.12 divmod_big takes the recursive path exactly where both the
    # divisor and the quotient pass DIV_LIMIT bits, and from 3.12 never
    calls = []

    def recording(a, b):
        calls.append((a, b))
        return divmod(a, b)

    short, long = 1 << DIV_LIMIT - 1 | 1, 1 << DIV_LIMIT + 1 | 1
    cases = [(short << DIV_LIMIT + 8, short), (long << DIV_LIMIT - 8, long),
             (long << DIV_LIMIT + 8, long)]
    with mock.patch.object(division, "_divmod_recursive", recording):
        for native in (False, True):
            with mock.patch.object(division, "NATIVE", native):
                for a, b in cases:
                    calls.clear()
                    assert divmod_big(a, b) == divmod(a, b)
                    assert division.recurses(a, b) == (calls == [(a, b)])
                    assert division.recurses(a, b) == (not native and b == long
                                                       and a.bit_length() > 2 * DIV_LIMIT)
