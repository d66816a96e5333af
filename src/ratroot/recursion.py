"""The two root-approximating iterations, exposed as exact rational sequences.

The linear iteration evolves an integer vector one matrix application at a
time; ratios of adjacent entries converge to k**(1/n). A state is a tuple of
n ints and a trajectory is the tuple of states t = 0, 1, ..., so the index
of a state is its step. Ratio i of a state is the raw pair
(state[i-1], state[i]): the oracle takes it unreduced, and
``engine.reduced_pair`` reduces it where it is printed. The scalar iteration applies the rational map
r -> (r + k) / (r**(n-1) + 1), whose fixed points satisfy r**n = k, and
returns its iterates as a tuple of Fractions. For n = 2 the two produce
identical ratio sequences; for n >= 3 they are genuinely different systems,
and nothing here conflates them. They need not share a limit: the map's
derivative at r* = k**(1/n) is (1 - (n-1)*u) / (1 + u) with
u = k**((n-1)/n), so r* attracts only when u < 2/(n-2). For n >= 3 and
k >= 2 that holds at (3, 2) alone, where the error falls by about 0.075
digits a step; elsewhere r* repels, and (3, 3) from 1 is the 2-cycle
1, 2, 1, 2, ...

For n = 2 the error e_t = r_t - sqrt(k) of a positive ratio obeys
e_{t+1} = e_t * (1 - sqrt(k)) / (r_t + 1), so it falls at step t exactly
when r_t > sqrt(k) - 2, that is (p + 2q)**2 > k*q**2 for r_t = p/q. From
the all-ones start it falls at every step t >= 1 for k <= 21, but not for
larger k: r_2 = (3k + 1)/(k + 3) is below sqrt(k) - 2 from k = 22 on, so
the error rises from step 2 to step 3.

The linear iteration also certifies its own limit, with no oracle and no
limit argument. M = I + S, where S, the k-weighted cyclic shift
(Sx)_0 = k*x_{n-1}, (Sx)_i = x_{i-1}, is nonnegative and irreducible with
Perron root k**(1/n). By the Collatz-Wielandt formula (Horn & Johnson,
*Matrix Analysis*, 8.1) the smallest and the largest of the n quotients
(Sx)_i / x_i of a positive state x, the wrapped k*x_{n-1}/x_0 and the
adjacent ratios x_{i-1}/x_i, bracket k**(1/n): :func:`enclosure` returns
them. The brackets nest along a trajectory: if Sx >= m*x, then
S(Mx) = M(Sx) >= m*Mx, as M is nonnegative and commutes with S, so the lower
end never falls and, likewise, the upper end never rises. Every ratio of
every later state therefore lies inside the enclosure of an earlier one.
"""
from __future__ import annotations

from .core import Params, PoleEncountered, UsageError, ZeroVector, check_state
from .engine import step_one_plus_x


def iterate_linear(params: Params, r0, steps: int) -> tuple[tuple[int, ...], ...]:
    """Evolve r0 step by step; state t of the result is M**t r0.

    r0 is any sequence of n ints, not all zero, and each state is a tuple.
    One O(n) step of M per step (:func:`engine.step_one_plus_x`), so traces
    see each state.
    Raises ZeroVector (with the offending t) if the state vanishes, which
    requires a singular matrix: even n with k = 1.
    """
    state = check_state(r0, params.n)
    if steps < 0:
        raise UsageError(f"steps must be nonnegative, got {steps}")
    states = [state]
    for t in range(1, steps + 1):
        state = tuple(step_one_plus_x(state, params.k))
        if not any(state):
            raise ZeroVector(t)
        states.append(state)
    return tuple(states)


def iterate_scalar_map(params: Params, r0: Fraction, steps: int) -> tuple[Fraction, ...]:
    """Iterate r -> (r + k) / (r**(n-1) + 1) exactly from r0: r_0, ..., r_steps.

    Raises PoleEncountered (with step index and value) if some iterate makes
    the denominator zero; that needs r = -1 with even n. Beware that for
    n >= 3 the iterates' numerators and denominators roughly double in digit
    count every step.
    """
    if steps < 0:
        raise UsageError(f"steps must be nonnegative, got {steps}")
    from fractions import Fraction

    n, k = params.n, params.k
    r = Fraction(r0)
    ratios = [r]
    for t in range(steps):
        den = r ** (n - 1) + 1
        if den == 0:
            raise PoleEncountered(t, r)
        r = (r + k) / den
        ratios.append(r)
    return tuple(ratios)


def enclosure(params: Params, state) -> tuple[tuple[int, int], tuple[int, int]]:
    """The smallest and the largest of the n quotients (Sx)_i / x_i of state x.

    Each is an unreduced pair (p, q) with q > 0: k*x[n-1]/x[0] and
    x[i-1]/x[i] for i = 1..n-1, compared exactly by cross-multiplication.
    k**(1/n) lies between the two, and so does every quotient of every
    later state of the trajectory (see the module docstring). A state whose
    entries are all negative is taken as its negation; any other state with
    a zero entry or entries of both signs raises ValueError.
    """
    x = check_state(state, params.n)
    if all(e < 0 for e in x):
        x = tuple(-e for e in x)
    elif not all(e > 0 for e in x):
        raise ValueError(f"an enclosure needs entries of one strict sign, got {x}")
    quotients = [(params.k * x[-1], x[0]), *zip(x, x[1:])]
    lo = hi = quotients[0]
    for p, q in quotients[1:]:
        if p * lo[1] < lo[0] * q:
            lo = (p, q)
        elif p * hi[1] > hi[0] * q:
            hi = (p, q)
    return lo, hi
