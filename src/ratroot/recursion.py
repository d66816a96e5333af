"""The two root-approximating iterations, exposed as exact rational sequences.

The linear iteration evolves an integer vector one matrix application at a
time; ratios of adjacent entries converge to k**(1/n). The scalar iteration
applies the rational map r -> (r + k) / (r**(n-1) + 1), whose fixed points
satisfy r**n = k. For n = 2 the two produce identical ratio sequences; for
n >= 3 they are genuinely different systems (observed to share the limit),
and nothing here conflates them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import DivisionByZero, Params, PoleEncountered, StateVector, ZeroVector
from .engine import step_one_plus_x


@dataclass(frozen=True)
class Trajectory:
    """States t = 0, 1, ..., t_max of the linear iteration from origin."""

    params: Params
    origin: StateVector
    states: tuple[StateVector, ...]


@dataclass(frozen=True)
class ScalarTrajectory:
    """Ratios r_0, r_1, ..., r_steps of the scalar map."""

    params: Params
    ratios: tuple[Fraction, ...]


def iterate_linear(params: Params, r0: StateVector, t_max: int) -> Trajectory:
    """Evolve r0 step by step, recording every intermediate state.

    One O(n) step of M per step (:func:`engine.step_one_plus_x`), so traces
    see each state.
    Raises ZeroVector (with the offending t) if the state vanishes, which
    requires a singular matrix: even n with k = 1.
    """
    if len(r0) != params.n:
        raise ValueError(f"state length {len(r0)} != n={params.n}")
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    states = [StateVector(r0.entries, t=0)]
    entries = states[0].entries
    for t in range(1, t_max + 1):
        entries = step_one_plus_x(entries, params.k)
        if all(e == 0 for e in entries):
            raise ZeroVector(t)
        states.append(StateVector(entries, t=t))
    return Trajectory(params, states[0], tuple(states))


def ratio(state: StateVector, i: int = 1) -> Fraction:
    """Reduced fraction entries[i] / entries[i+1], with 1-based index i."""
    if not 1 <= i <= len(state) - 1:
        raise ValueError(f"ratio index must be in 1..{len(state) - 1}, got {i}")
    num, den = state.entries[i - 1], state.entries[i]
    if den == 0:
        raise DivisionByZero(state.entries, i, t=state.t)
    return Fraction(num, den)


def iterate_scalar_map(params: Params, r0: Fraction, steps: int) -> ScalarTrajectory:
    """Iterate r -> (r + k) / (r**(n-1) + 1) exactly from r0.

    Raises PoleEncountered (with step index and value) if some iterate makes
    the denominator zero; that needs r = -1 with even n. Beware that for
    n >= 3 the iterates' numerators and denominators roughly double in digit
    count every step.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    n, k = params.n, params.k
    r = Fraction(r0)
    ratios = [r]
    for t in range(steps):
        den = r ** (n - 1) + 1
        if den == 0:
            raise PoleEncountered(t, r)
        r = (r + k) / den
        ratios.append(r)
    return ScalarTrajectory(params, tuple(ratios))
