"""Reference checks shared by ``ratroot selftest`` and the acceptance suite.

``selftest`` runs acceptance C1, C2, C4 and C5 (2,2) from the same code as
the acceptance suite, at smaller sizes, and prints one PASS or FAIL line
per group (:func:`run_selftest`). Each check raises AssertionError on
failure. They reach the engine, the oracle, the builders and the renderer
through module attributes, so a patched function is what they check.

Only ``selftest`` imports this module, so no other command compiles it.
"""
from __future__ import annotations

from . import cli, engine, oracle, recursion, render, spectral
from .core import Params, ZeroVector


def check_opening_table():
    """table(2, 2, 0..5) is the opening table, exactly: its fractions, their
    truncated decimals and their certified digits. And every cell that
    table(3, 2, 0..300) freezes is the cell of its own row's fraction. And
    table(2, 3, 0..5)'s fractions are in lowest terms. And on each row of
    that cube root table the two certifiers agree at its digit count and
    one more: ``oracle.certified_floor`` gives floor(p * 10**d / q) exactly
    where ``oracle.digits_of_ratio`` certifies d digits, and None elsewhere.
    And ``approx``'s (2, 9185) answer at 91 digits, whose reduced pair passes
    INT_STR_CUTOVER and so is built on ``Decimal``s, prints the bytes
    ``format_fraction`` gives for the reduced pair of the integer ladder.

    Each digit count d is the largest with |p/q - 2**0.5| < 10**-d: the
    errors are 0.41, 0.086, 0.014, 0.0025, 0.00042 and 0.000072. The cube
    root table freezes its decimal cell at step 31 and its digits cell at
    step 143, so a wrong enclosure or a wrong freeze shows as a cell that
    its own fraction does not give. Every state of k = 2 has content 1, but
    (1 + x)**2 = 4 + 2x at k = 3 has content 2, so only the (2, 3) column
    and the odd k = 9185 show a wrong n = 2 reduction.
    """
    got = [row[1:] for row in cli.build_table(Params(2, 2), 0, 5, 1).rows]
    want = [["1/1", "1.000000", "0"], ["3/2", "1.500000", "1"], ["7/5", "1.400000", "1"],
            ["17/12", "1.416666", "2"], ["41/29", "1.413793", "3"], ["99/70", "1.414285", "4"]]
    assert got == want, f"fraction, decimal and digits columns {got} != {want}"
    got = [row[1] for row in cli.build_table(Params(2, 3), 0, 5, 1).rows]
    want = ["1/1", "2/1", "5/3", "7/4", "19/11", "26/15"]
    assert got == want, f"(2, 3) fraction column {got} != {want}"
    params = Params(3, 2)
    cap = cli.TABLE_DIGITS_CAP
    for t, fraction, decimal, digits in cli.build_table(params, 0, 300, 1).rows:
        p, q = map(int, fraction.split("/"))
        own = [render.format_decimal(p, q, cli.TABLE_DECIMAL_PLACES),
               str(oracle.digits_of_ratio(p, q, params, cap))]
        assert [decimal, digits] == own, f"(3, 2) step {t} cells {[decimal, digits]} != {own}"
        for d in (max(int(digits), 1), min(int(digits) + 1, cap)):
            want = p * 10**d // q if oracle.digits_of_ratio(p, q, params, d) == d else None
            got = oracle.certified_floor(p, q, params, d)
            assert got == want, f"(3, 2) step {t}: certified_floor at {d} digits {got} != {want}"
    params = Params(2, 9185)
    record = cli.build_approx(params, 91)
    t = int(record.meta["t_used"])
    p, q = engine.reduced_pair(*engine.ones_pair(params, engine.ring_pow_one_plus_x(params, t)), 2)
    assert q.bit_length() > render.INT_STR_CUTOVER, f"(2, 9185) at t={t} is not past the cutover"
    assert record.rows[0][1] == render.format_fraction(p, q), (
        f"(2, 9185) Decimal fraction wrong at t={t}"
    )


def check_cayley_hamilton(n_max: int):
    """(M - I)**n = k*I exactly for n = 2..n_max, k in (1, 2, 3, 5, 10, 16)."""
    for n in range(2, n_max + 1):
        for k in (1, 2, 3, 5, 10, 16):
            m = engine.companion_matrix(Params(n, k))
            s = tuple(tuple(a - (i == j) for j, a in enumerate(row)) for i, row in enumerate(m))
            k_id = tuple(tuple(k * (i == j) for j in range(n)) for i in range(n))
            assert engine.mat_pow(s, n) == k_id, (
                f"(M - I)**{n} != {k}*I at n={n}, k={k}"
            )


def check_engine_agreement(seed: int, cases: int):
    """Naive matrix and ring powers agree exactly on random (n, k, t, r0),
    and on one fixed case whose ladder squares past ``engine.SQR_CUTOVER``;
    so do M**t and its power-basis expansion, and the Fibonacci chain of
    (3, 2) is the basis coefficients of its exponents.

    The random cases draw n <= 6 and t <= 50, so no square there is longer
    than the cutover. The fixed case is n = 9, t = 2*9**2 + 1: the binomial
    row of 81, then one Karatsuba square of 9 coefficients.
    """
    import random

    def agree(params, t, entries):
        m = engine.companion_matrix(params)
        power = engine.mat_pow(m, t)  # trusted reference
        naive = tuple(sum(a * x for a, x in zip(row, entries)) for row in power)
        ring = engine.apply_power(params, t, entries)
        assert naive == ring, (
            f"engines disagree at n={params.n}, k={params.k}, t={t}, r0={entries}"
        )
        a = engine.power_basis_coeffs(params, t)
        powers = [sum(engine.mat_pow(m, i), ()) for i in range(params.n)]  # M**i, row by row
        basis = tuple(sum(ai * x for ai, x in zip(a, entry)) for entry in zip(*powers))
        assert basis == sum(power, ()), f"power basis wrong at n={params.n}, k={params.k}, t={t}"

    rng = random.Random(seed)
    done = 0
    while done < cases:
        n = rng.randint(2, 6)
        k = rng.randint(1, 20)
        t = rng.randint(0, 50)
        entries = tuple(rng.randint(-9, 9) for _ in range(n))
        if all(e == 0 for e in entries):
            continue
        try:
            agree(Params(n, k), t, entries)
        except ZeroVector:
            continue  # singular matrix annihilated this start; excluded
        done += 1
    agree(Params(9, 7), 2 * 9**2 + 1, (3, -1, 4, -1, 5, -9, 2, -6, 5))
    chain = [(e, engine.power_basis_coeffs(Params(3, 2), e)) for e in (2, 3, 5, 8, 13, 21)]
    assert engine.fib_power_chain(Params(3, 2), 6) == chain, "Fibonacci chain wrong at (3, 2)"


def check_rate_slope(expected_dps: float):
    """Digits per step of (2, 2) over t in [50, 150] within 5% of expected_dps.

    The error of each raw entry pair is the oracle's bracket distance, the
    one its certificates compare.
    """
    params = Params(2, 2)
    states = recursion.iterate_linear(params, (1, 1), 150)
    e50 = oracle.log10_error_bound(*states[50], params, 160)
    e150 = oracle.log10_error_bound(*states[150], params, 160)
    measured = (e50 - e150) / 100
    assert abs(measured - expected_dps) <= 0.05 * expected_dps, (
        f"measured {measured:.6f} digits/step vs predicted {expected_dps:.6f}"
    )


def run_selftest() -> int:
    """Run the shared checks at smoke sizes; print one PASS/FAIL line each."""
    groups = [
        ("table-reproduction", check_opening_table),
        ("cayley-hamilton", lambda: check_cayley_hamilton(6)),
        ("engine-agreement", lambda: check_engine_agreement(20240501, 50)),
        ("rate-check-2-2", lambda: check_rate_slope(spectral.convergence_rate(Params(2, 2))[1])),
    ]
    failed = False
    for name, fn in groups:
        try:
            fn()
        except AssertionError as exc:
            failed = True
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return 3 if failed else 0
