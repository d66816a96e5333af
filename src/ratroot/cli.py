"""Command-line surface: approximation runs, tables, traces, eigen reports,
power-basis coefficient dumps, benchmarks, and a fast self-test.

Each command is declared once, in ``build_parser``: one ``_add_command``
call names it with its builder, and the flags added to the returned
subparser follow. ``main`` calls the builder argparse stores on the parsed
namespace; only ``selftest`` is special-cased.

Output goes to stdout (plain aligned text, CSV, or JSON), errors to stderr.
Exit codes: 0 success, 1 usage error, 2 domain error (zero vector, scalar-map
pole, undefined ratio, ``eig`` past the float range), 3 non-convergence or
self-test failure. All commands are byte-deterministic except ``bench``,
whose timing columns necessarily vary run to run.

``selftest`` runs acceptance C1, C2, C4 and C5 (2,2) from the same code as
the acceptance suite (the ``check_*`` functions here), at smaller sizes.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import engine, oracle, recursion, spectral
from .core import (
    DegenerateRate,
    DivisionByZero,
    Matrix,
    NonConvergence,
    Params,
    PoleEncountered,
    StateVector,
    ZeroVector,
)

TABLE_DECIMAL_PLACES = 6
TABLE_DIGITS_CAP = 40
APPROX_BURN_IN = 10
DEFAULT_MAX_T = 10**6

# Entry bit length grows linearly in t, about t*log2(1 + k**(1/n)) bits, so
# memory is the only ceiling on exponents.
GROWTH_NOTE = "entry size grows ~ t*log2(1 + k**(1/n)) bits; t is bounded only by memory"

CONVERGENT_COLUMNS = ("t", "fraction", "decimal", "digits")


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def format_decimal(f: Fraction, places: int) -> str:
    """Exact decimal expansion, truncated (not rounded) toward zero."""
    if places < 0:
        raise ValueError(f"places must be nonnegative, got {places}")
    sign = "-" if f < 0 else ""
    a = -f if f < 0 else f
    whole, frac = divmod(a.numerator * 10**places // a.denominator, 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def _convergent_row(t: int, frac: Fraction, places: int, digits: int) -> list[str]:
    """One CONVERGENT_COLUMNS row: step, reduced fraction, truncated decimal, certified digits."""
    return [str(t), format_fraction(frac), format_decimal(frac, places), str(digits)]


@dataclass
class OutputRecord:
    """Rendered-ready payload: run metadata plus stringified rows."""

    command: str
    meta: dict[str, str]
    columns: list[str]
    rows: list[list[str]]
    fmt: str = "plain"

    def render(self) -> str:
        if self.fmt == "plain":
            return self._render_plain()
        if self.fmt == "csv":
            return self._render_csv()
        if self.fmt == "json":
            return self._render_json()
        raise ValueError(f"unknown format {self.fmt!r}")

    def _render_plain(self) -> str:
        lines = [f"# command = {self.command}"]
        lines.extend(f"# {key} = {value}" for key, value in self.meta.items())
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows), 0)
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        def line(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        lines.append(line(self.columns))
        lines.extend(line(r) for r in self.rows)
        return "\n".join(lines) + "\n"

    def _render_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def _render_json(self) -> str:
        obj = {
            "command": self.command,
            "meta": self.meta,
            "columns": self.columns,
            "rows": self.rows,
        }
        return json.dumps(obj, indent=2) + "\n"


def _ones(params: Params) -> StateVector:
    return StateVector((1,) * params.n, t=0)


def build_table(params: Params, t0: int, t1: int, index: int) -> OutputRecord:
    """Rows (t, reduced fraction, 6-place decimal, certified digits).

    Jumps to t0 in one shot, then takes one O(n) step of M per row, so only
    the current state is held.
    """
    if not 0 <= t0 <= t1:
        raise ValueError(f"need 0 <= t0 <= t1, got t0={t0}, t1={t1}")
    if not 1 <= index <= params.n - 1:
        raise ValueError(f"ratio index must be in 1..{params.n - 1}, got {index}")
    entries = engine.apply_power(params, t0, _ones(params)).entries
    rows = []
    for t in range(t0, t1 + 1):
        if t > t0:
            entries = engine.step_one_plus_x(entries, params.k)
        frac = recursion.ratio(StateVector(entries, t=t), index)
        digits = oracle.digits_of_accuracy(frac, params, TABLE_DIGITS_CAP)
        rows.append(_convergent_row(t, frac, TABLE_DECIMAL_PLACES, digits))
    meta = {
        "n": str(params.n),
        "k": str(params.k),
        "t0": str(t0),
        "t1": str(t1),
        "index": str(index),
    }
    return OutputRecord("table", meta, list(CONVERGENT_COLUMNS), rows)


def build_trace_linear(params: Params, start: tuple[int, ...], steps: int) -> OutputRecord:
    traj = recursion.iterate_linear(params, StateVector(start, t=0), steps)
    columns = ["t"] + [f"x{i + 1}" for i in range(params.n)]
    rows = [[str(s.t), *(str(e) for e in s.entries)] for s in traj.states]
    meta = {
        "mode": "linear",
        "n": str(params.n),
        "k": str(params.k),
        "start": ",".join(str(e) for e in start),
        "steps": str(steps),
    }
    return OutputRecord("trace", meta, columns, rows)


def build_trace_scalar(params: Params, r0: Fraction, steps: int) -> OutputRecord:
    st = recursion.iterate_scalar_map(params, r0, steps)
    rows = [[str(t), format_fraction(r)] for t, r in enumerate(st.ratios)]
    meta = {
        "mode": "scalar",
        "n": str(params.n),
        "k": str(params.k),
        "start": format_fraction(Fraction(r0)),
        "steps": str(steps),
    }
    return OutputRecord("trace", meta, ["t", "ratio"], rows)


def build_eig(params: Params) -> OutputRecord:
    data = spectral.eigenvalues(params)
    meta = {
        "n": str(params.n),
        "k": str(params.k),
        "dominant_index": str(data.dominant_index),
    }
    try:
        rho, dps = spectral.convergence_rate(params)
        meta["rho"] = repr(rho)
        meta["digits_per_step"] = repr(dps)
        meta["degenerate"] = "false"
    except DegenerateRate:
        meta["rho"] = repr(0.0)
        meta["digits_per_step"] = "inf"
        meta["degenerate"] = "true"
    rows = []
    for j, pair in enumerate(data.pairs):
        rows.append(
            [
                str(j),
                repr(pair.value.real),
                repr(pair.value.imag),
                repr(abs(pair.value)),
                "true" if j == data.dominant_index else "false",
            ]
        )
    return OutputRecord("eig", meta, ["j", "re", "im", "modulus", "dominant"], rows)


def build_chpow(params: Params, t: int, fib: int | None) -> OutputRecord:
    """Basis coefficients a with M**t = sum a_i M**i; --fib dumps the chain."""
    columns = ["t"] + [f"a{i}" for i in range(params.n)]
    if fib is not None:
        chain = engine.fib_power_chain(params, fib)
        rows = [[str(e), *(str(c) for c in bc.coeffs)] for e, bc in chain]
    else:
        bc = engine.power_basis_coeffs(params, t)
        rows = [[str(t), *(str(c) for c in bc.coeffs)]]
    meta = {
        "n": str(params.n),
        "k": str(params.k),
        "basis": "a_i multiplies the i-th matrix power (a0 is the identity coefficient)",
    }
    if fib is not None:
        meta["fib_chain_length"] = str(fib)
    else:
        meta["t"] = str(t)
    return OutputRecord("chpow", meta, columns, rows)


def build_approx(params: Params, target_digits: int, max_t: int = DEFAULT_MAX_T) -> OutputRecord:
    """Smallest-effort certified approximation of k**(1/n) to target_digits.

    Perfect powers (including k = 1) are answered exactly. Otherwise the
    spectral rate picks a starting t, the all-ones start is evolved in one
    shot, and t doubles until the oracle certifies the target; exceeding
    max_t raises NonConvergence. So does a k whose float rate rounds to 1,
    or whose k**((n-1)/n) overflows a float: no starting t can be chosen there.
    """
    if target_digits < 1:
        raise ValueError(f"target digits must be >= 1, got {target_digits}")
    meta = {
        "n": str(params.n),
        "k": str(params.k),
        "target_digits": str(target_digits),
    }
    root = oracle.integer_nth_root(params.k, params.n)
    if root**params.n == params.k:
        t, frac = 0, Fraction(root)
        achieved = oracle.digits_of_accuracy(frac, params, target_digits)
        meta["exact"] = "true"
    else:
        try:
            rho, dps = spectral.convergence_rate(params)
            why = "the floating-point rate rounds to 1"
        except OverflowError as exc:
            dps, why = 0.0, str(exc)
        if not dps > 0:
            raise NonConvergence(
                f"no starting t within ceiling {max_t} can be chosen for "
                f"{target_digits} digits: {why}"
            )
        t = math.ceil(target_digits / dps) + APPROX_BURN_IN
        while True:
            if t > max_t:
                raise NonConvergence(
                    f"needed t={t} exceeds ceiling {max_t} for {target_digits} digits"
                )
            state = engine.apply_power(params, t, _ones(params))
            frac = recursion.ratio(state, 1)
            achieved = oracle.digits_of_accuracy(frac, params, target_digits)
            if achieved >= target_digits:
                break
            t *= 2
        meta.update({"exact": "false", "rho": repr(rho), "digits_per_step": repr(dps)})
    meta.update({"t_used": str(t), "achieved": str(achieved)})
    rows = [_convergent_row(t, frac, target_digits, achieved)]
    return OutputRecord("approx", meta, list(CONVERGENT_COLUMNS), rows)


# The three routes to M**t applied to a start; the naive one is the trusted
# reference. engine.* is looked up at each call, so a patched engine is what
# bench and check_engine_agreement run.
POWER_ROUTES = ("naive", "binary", "ring")


def _power(route: str, params: Params, t: int, entries: tuple[int, ...]) -> tuple[int, ...]:
    if route == "ring":
        return engine.apply_power(params, t, StateVector(entries)).entries
    return engine.mat_pow(engine.companion_matrix(params), t, method=route).apply(entries)


def build_bench(params: Params, t: int, repeat: int) -> OutputRecord:
    """Time the three power engines on the same (n, k, t); results must agree."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    start = _ones(params).entries
    rows = []
    results = []
    for route in POWER_ROUTES:
        best = math.inf
        for _ in range(repeat):
            t0 = time.perf_counter()
            value = _power(route, params, t, start)
            best = min(best, time.perf_counter() - t0)
        results.append(value)
        rows.append([route, str(t), f"{best * 1e3:.3f}"])
    agree = results[0] == results[1] == results[2]
    meta = {
        "n": str(params.n),
        "k": str(params.k),
        "t": str(t),
        "repeat": str(repeat),
        "agree": "true" if agree else "false",
        "note": "timings vary run to run; all other commands are byte-deterministic",
    }
    return OutputRecord("bench", meta, ["method", "t", "best_ms"], rows)


# --- checks shared by selftest and the acceptance suite ----------------------
#
# Each raises AssertionError on failure. Acceptance C1, C2, C4 and C5 (2,2)
# run them at the suite's sizes, selftest at smaller ones. They reach the
# engine through module attributes, so a patched engine is what they check.

def check_opening_table():
    """The fraction column of table(2, 2, 0..5) is the opening table, exactly."""
    got = [row[1] for row in build_table(Params(2, 2), 0, 5, 1).rows]
    want = ["1/1", "3/2", "7/5", "17/12", "41/29", "99/70"]
    assert got == want, f"fraction column {got} != {want}"


def check_cayley_hamilton(n_max: int):
    """(M - I)**n = k*I exactly for n = 2..n_max, k in (1, 2, 3, 5, 10, 16)."""
    for n in range(2, n_max + 1):
        for k in (1, 2, 3, 5, 10, 16):
            m = engine.companion_matrix(Params(n, k))
            got = engine.mat_pow(m - Matrix.identity(n), n, method="binary")
            assert got == Matrix.identity(n).scale(k), (
                f"(M - I)**{n} != {k}*I at n={n}, k={k}"
            )


def check_engine_agreement(seed: int, cases: int):
    """Naive, binary and ring powers agree exactly on random (n, k, t, r0)."""
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
            results = [_power(route, Params(n, k), t, entries) for route in POWER_ROUTES]
        except ZeroVector:
            continue  # singular matrix annihilated this start; excluded
        assert results[0] == results[1] == results[2], (
            f"engines disagree at n={n}, k={k}, t={t}, r0={entries}"
        )
        done += 1


def check_rate_slope(expected_dps: float):
    """Digits per step of (2, 2) over t in [50, 150] within 5% of expected_dps."""
    params = Params(2, 2)
    traj = recursion.iterate_linear(params, _ones(params), 150)
    e50 = oracle.log10_error_bound(recursion.ratio(traj.states[50], 1), params, 160)
    e150 = oracle.log10_error_bound(recursion.ratio(traj.states[150], 1), params, 160)
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


# --- argument parsing --------------------------------------------------------

class _UsageError(Exception):
    pass


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_command(subs, name: str, help: str, build):
    """Add command ``name`` with the common flags.

    ``build(args, params)`` reads the command's flags and returns the job, a
    zero-argument callable that makes its OutputRecord. argv text is
    converted in ``build``, under the int/str digit limit; only the job runs
    with the limit lifted.
    """
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(build=build)
    sub.add_argument("--n", type=int, required=True, help="root order (>= 2)")
    sub.add_argument("--k", type=int, required=True, help="radicand (>= 1)")
    sub.add_argument(
        "--format",
        choices=("plain", "csv", "json"),
        default="plain",
        help="output format (default plain)",
    )
    sub.add_argument("--out", help="write the payload to FILE instead of stdout")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="ratroot",
        description="Exact rational approximations to k**(1/n) by integer power iteration. "
        + GROWTH_NOTE + ".",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_command(subs, "approx", "certified approximation to a digit target",
                     lambda a, params: partial(build_approx, params, a.digits, a.max_t))
    p.add_argument("--digits", type=int, required=True, help="decimal digits to certify")
    p.add_argument(
        "--max-t",
        type=int,
        default=DEFAULT_MAX_T,
        help=f"step-doubling ceiling (default {DEFAULT_MAX_T})",
    )

    p = _add_command(subs, "table", "per-step convergents from the all-ones start",
                     lambda a, params: partial(build_table, params, a.t0, a.t1, a.index))
    p.add_argument("--t0", type=int, default=0, help="first step (default 0)")
    p.add_argument("--t1", type=int, default=10, help="last step (default 10)")
    p.add_argument("--index", type=int, default=1, help="adjacent-ratio index, 1..n-1")

    p = _add_command(subs, "trace", "raw states or scalar-map iterates", _trace_job)
    p.add_argument("--mode", choices=("linear", "scalar"), required=True)
    p.add_argument(
        "--start",
        help="comma-separated integers (linear) or a fraction p/q (scalar); "
        "default all ones / 1",
    )
    p.add_argument("--steps", type=int, default=10, help="steps to iterate (default 10)")

    _add_command(subs, "eig", "eigenvalues, dominant pair, convergence rate",
                 lambda a, params: partial(build_eig, params))

    p = _add_command(
        subs, "chpow", "matrix power expanded over I, M, ..., M**(n-1)",
        lambda a, params: partial(build_chpow, params, 2 if a.t is None else a.t, a.fib),
    )
    # --t defaults to None: argparse sees no conflict when a value is the default object
    exponent = p.add_mutually_exclusive_group()
    exponent.add_argument("--t", type=int, help="exponent to expand (default 2)")
    exponent.add_argument(
        "--fib",
        type=int,
        help="emit a chain of this length with exponents 2, 3, 5, 8, ...",
    )

    p = _add_command(subs, "bench", "time the three power engines",
                     lambda a, params: partial(build_bench, params, a.t, a.repeat))
    p.add_argument("--t", type=int, default=256, help="exponent to benchmark (default 256)")
    p.add_argument("--repeat", type=int, default=3, help="best-of repetitions (default 3)")

    subs.add_parser("selftest", help="run the fast acceptance subset")

    return parser


def _trace_job(args, params: Params):
    if args.mode == "linear":
        start = _parse_linear_start(args.start, params)
        return partial(build_trace_linear, params, start, args.steps)
    return partial(build_trace_scalar, params, _parse_scalar_start(args.start), args.steps)


def _parse_linear_start(text: str | None, params: Params) -> tuple[int, ...]:
    if text is None:
        return (1,) * params.n
    try:
        entries = tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad linear start {text!r}: {exc}") from None
    return entries


def _parse_scalar_start(text: str | None) -> Fraction:
    if text is None:
        return Fraction(1)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar start {text!r}: {exc}") from None


@contextlib.contextmanager
def _int_str_limit_lifted():
    """Lift CPython's int/str digit limit (CVE-2020-10735) for the block.

    Only the program's own integers may be converted inside: argv text is
    parsed before the block. Interpreters without the limit (CPython
    before 3.10.7) have no setter, and nothing is changed there.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command == "selftest":
        return run_selftest()
    try:
        job = args.build(args, Params(args.n, args.k))
        with _int_str_limit_lifted():
            record = job()
            record.fmt = args.format
            payload = record.render()
    except (ZeroVector, PoleEncountered, DivisionByZero, OverflowError) as exc:
        print(f"ratroot: error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"ratroot: error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"ratroot: error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            Path(args.out).write_text(payload)
        except OSError as exc:
            print(f"ratroot: error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
