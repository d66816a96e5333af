import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratroot.cli import (
    build_approx,
    build_chpow,
    build_table,
    build_trace_linear,
    format_decimal,
    format_fraction,
    main,
)
from ratroot.core import NonConvergence, Params, StateVector
from ratroot.engine import apply_power
from ratroot.recursion import ratio

from _helpers import loop_format_decimal


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_format_decimal_truncates_toward_zero():
    assert format_decimal(Fraction(17, 12), 6) == "1.416666"
    assert format_decimal(Fraction(-17, 12), 6) == "-1.416666"
    assert format_decimal(Fraction(99, 70), 6) == "1.414285"
    assert format_decimal(Fraction(3), 4) == "3.0000"
    assert format_decimal(Fraction(7, 2), 0) == "3"


@given(
    st.integers(-(10**80), 10**80),
    st.integers(1, 10**80),
    st.integers(0, 120),
)
@settings(max_examples=300)
def test_format_decimal_matches_long_division(num, den, places):
    f = Fraction(num, den)
    assert format_decimal(f, places) == loop_format_decimal(f, places)


def test_format_fraction_round_trips():
    for f in (Fraction(1), Fraction(-3, 7), Fraction(99, 70)):
        assert Fraction(format_fraction(f)) == f


def test_table_fraction_column_matches_opening_table():
    record = build_table(Params(2, 2), 0, 5, 1)
    assert [row[1] for row in record.rows] == [
        "1/1", "3/2", "7/5", "17/12", "41/29", "99/70",
    ]


def test_table_single_row_csv_example(capsys):
    rc, out, _ = run_cli(
        capsys, "table", "--n", "3", "--k", "2", "--t0", "0", "--t1", "0", "--format", "csv"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,fraction,decimal,digits"
    assert lines[1] == "0,1/1,1.000000,0"


def test_table_csv_round_trip(capsys):
    rc, out, _ = run_cli(
        capsys, "table", "--n", "2", "--k", "2", "--t1", "8", "--format", "csv"
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "fraction", "decimal", "digits"]
    record = build_table(Params(2, 2), 0, 8, 1)
    for parsed, built in zip(rows[1:], record.rows):
        assert Fraction(parsed[1]) == Fraction(built[1])
        assert parsed == built


def test_table_json_round_trip(capsys):
    rc, out, _ = run_cli(
        capsys, "table", "--n", "3", "--k", "17", "--t1", "12", "--format", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["command"] == "table"
    assert obj["columns"] == ["t", "fraction", "decimal", "digits"]
    record = build_table(Params(3, 17), 0, 12, 1)
    assert obj["rows"] == record.rows
    # big integers survive as exact strings
    for row in obj["rows"]:
        assert Fraction(row[1]).denominator > 0


def test_trace_linear_single_step():
    record = build_trace_linear(Params(2, 2), (1, 1), 1)
    assert record.rows == [["0", "1", "1"], ["1", "3", "2"]]


def test_trace_scalar_fixed_point(capsys):
    rc, out, _ = run_cli(
        capsys, "trace", "--mode", "scalar", "--n", "2", "--k", "4",
        "--start", "2/1", "--steps", "5", "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert all(row[1] == "2/1" for row in rows)


def test_trace_scalar_cube_root(capsys):
    rc, out, _ = run_cli(
        capsys, "trace", "--mode", "scalar", "--n", "3", "--k", "2",
        "--start", "1/1", "--steps", "2", "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[1] for r in rows] == ["1/1", "3/2", "14/13"]


def test_trace_defaults_to_all_ones(capsys):
    rc, out, _ = run_cli(
        capsys, "trace", "--mode", "linear", "--n", "3", "--k", "2",
        "--steps", "2", "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[-1] == ["2", "7", "5", "4"]


def test_eig_degenerate_is_flagged(capsys):
    rc, out, _ = run_cli(capsys, "eig", "--n", "2", "--k", "1", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["meta"]["degenerate"] == "true"
    assert obj["meta"]["digits_per_step"] == "inf"
    moduli = sorted(float(row[3]) for row in obj["rows"])
    assert moduli == [0.0, 2.0]


def test_eig_reports_rate(capsys):
    rc, out, _ = run_cli(capsys, "eig", "--n", "2", "--k", "2", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert float(obj["meta"]["rho"]) == pytest.approx(0.17157287525381, abs=1e-9)
    dominant = [row for row in obj["rows"] if row[4] == "true"]
    assert len(dominant) == 1
    assert float(dominant[0][1]) == pytest.approx(2.414213562373095, abs=1e-12)


def test_chpow_single_exponent():
    record = build_chpow(Params(2, 2), 5, None)
    assert record.rows == [["5", "12", "29"]]
    record = build_chpow(Params(3, 2), 0, None)
    assert record.rows == [["0", "1", "0", "0"]]


def test_chpow_fib_chain(capsys):
    rc, out, _ = run_cli(
        capsys, "chpow", "--n", "2", "--k", "2", "--fib", "4", "--format", "csv"
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[0] for r in rows] == ["2", "3", "5", "8"]
    assert rows[2] == ["5", "12", "29"]


def test_approx_reaches_target(capsys):
    rc, out, _ = run_cli(
        capsys, "approx", "--n", "2", "--k", "2", "--digits", "4", "--format", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert int(obj["meta"]["achieved"]) >= 4
    assert obj["meta"]["exact"] == "false"
    frac = Fraction(obj["rows"][0][1])
    assert abs(frac - Fraction(2) ** Fraction(1, 2)) < Fraction(1, 10**4)


def test_approx_perfect_power_is_exact(capsys):
    rc, out, _ = run_cli(
        capsys, "approx", "--n", "3", "--k", "27", "--digits", "10", "--format", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["meta"]["exact"] == "true"
    assert obj["rows"][0][1] == "3/1"
    assert obj["rows"][0][2] == "3.0000000000"
    assert obj["meta"]["achieved"] == "10"


def test_approx_degenerate_unit_radicand(capsys):
    rc, out, _ = run_cli(
        capsys, "approx", "--n", "2", "--k", "1", "--digits", "5", "--format", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["meta"]["exact"] == "true"
    assert obj["rows"][0][1] == "1/1"


def test_approx_certifies_thirty_digits():
    record = build_approx(Params(3, 2), 30)
    frac = Fraction(record.rows[0][1])
    from ratroot.oracle import digits_of_accuracy

    assert digits_of_accuracy(frac, Params(3, 2), 30) == 30


def test_approx_non_convergence_ceiling():
    with pytest.raises(NonConvergence):
        build_approx(Params(3, 2), 30, max_t=50)


@pytest.mark.parametrize(
    "n,k", [(2, 10**35 + 1), (3, 10**400 + 3)], ids=["rate-rounds-to-1", "k-past-float-range"]
)
def test_approx_huge_radicand_is_non_convergence(capsys, n, k):
    # the float rate rounds to 1, or k**(1/n) overflows a float: no t fits
    rc, out, err = run_cli(capsys, "approx", "--n", str(n), "--k", str(k), "--digits", "5")
    assert rc == 3 and out == ""
    assert err.startswith("ratroot: error: no starting t within ceiling 1000000"), err


def test_eig_past_float_range_of_k(capsys):
    # k = 2**1024 does not fit a float, but its cube root does
    rc, out, err = run_cli(capsys, "eig", "--n", "3", "--k", str(2**1024))
    assert rc == 0 and err == ""
    assert "# rho = 1.0" in out


def test_approx_past_float_range_of_k_reports_the_rate(capsys):
    rc, out, err = run_cli(capsys, "approx", "--n", "3", "--k", str(2**1024 + 1), "--digits", "5")
    assert rc == 3 and out == ""
    assert err.rstrip().endswith("the floating-point rate rounds to 1"), err


def test_eig_past_float_range_of_root_is_domain_error(capsys):
    # k**(1/2) = 2**1050 is past the float range too
    rc, out, err = run_cli(capsys, "eig", "--n", "2", "--k", str(2**2100))
    assert rc == 2 and out == ""
    assert err.startswith("ratroot: error: ") and "floating-point range" in err, err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("t", ["5", "2"])
def test_chpow_t_and_fib_are_exclusive(capsys, t):
    # "2" is the documented default of --t, and must conflict all the same
    rc, out, err = run_cli(capsys, "chpow", "--n", "2", "--k", "2", "--t", t, "--fib", "3")
    assert rc == 1 and out == ""
    assert "not allowed with argument --t" in err, err


def test_table_rejects_index_before_the_power(capsys, monkeypatch):
    from ratroot import engine

    def no_power(*args):
        pytest.fail("apply_power ran before the index was checked")

    monkeypatch.setattr(engine, "apply_power", no_power)
    rc, out, err = run_cli(
        capsys, "table", "--n", "2", "--k", "2", "--t0", "1000000", "--t1", "1000000",
        "--index", "5",
    )
    assert rc == 1 and out == ""
    assert "ratio index must be in 1..1, got 5" in err, err


def test_cli_exit_codes(capsys):
    # usage: bad n
    rc, _, err = run_cli(capsys, "table", "--n", "1", "--k", "2")
    assert rc == 1 and "root order" in err
    # usage: unknown flag
    rc, _, err = run_cli(capsys, "table", "--n", "2", "--k", "2", "--bogus")
    assert rc == 1
    # usage: missing required
    rc, _, err = run_cli(capsys, "table", "--n", "2")
    assert rc == 1
    # usage: bad table bounds
    rc, _, err = run_cli(capsys, "table", "--n", "2", "--k", "2", "--t0", "5", "--t1", "2")
    assert rc == 1
    # domain: zero vector
    rc, _, err = run_cli(
        capsys, "trace", "--mode", "linear", "--n", "2", "--k", "1",
        "--start=-1,1", "--steps", "3",
    )
    assert rc == 2 and "zero vector" in err
    # domain: scalar pole
    rc, _, err = run_cli(
        capsys, "trace", "--mode", "scalar", "--n", "2", "--k", "2",
        "--start=-1", "--steps", "2",
    )
    assert rc == 2 and "pole" in err
    # non-convergence ceiling
    rc, _, err = run_cli(
        capsys, "approx", "--n", "3", "--k", "2", "--digits", "30", "--max-t", "10"
    )
    assert rc == 3 and "ceiling" in err


def _int_str_limit():
    """The interpreter's int/str digit limit, or None where it has none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else None


@contextlib.contextmanager
def _int_str_limit_set(limit):
    """Run the block at this int/str digit limit (0 lifts it), then restore."""
    saved = _int_str_limit()
    if saved is None:
        yield
        return
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture
def default_int_str_limit():
    """The interpreter's default int/str digit limit, in force for the test."""
    default = getattr(sys.int_info, "default_max_str_digits", None)
    with _int_str_limit_set(default):
        yield default


@pytest.mark.parametrize("n,k,digits", [(5, 7, 1000), (2, 2, 10000)])
def test_approx_renders_past_int_str_limit(capsys, default_int_str_limit, n, k, digits):
    argv = ["approx", "--n", str(n), "--k", str(k), "--digits", str(digits)]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert _int_str_limit() == default_int_str_limit
    rc, out, err = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0, err
    assert _int_str_limit() == default_int_str_limit
    obj = json.loads(out)
    assert json.dumps(obj, indent=2) + "\n" == out
    with _int_str_limit_set(0):
        frac = Fraction(obj["rows"][0][1])
        decimal = Fraction(obj["rows"][0][2])
    p, q, scale = frac.numerator, frac.denominator, 10**digits
    assert (p * scale - q) ** n < k * (q * scale) ** n < (p * scale + q) ** n
    assert decimal <= frac < decimal + Fraction(1, scale)
    assert obj["meta"]["achieved"] == str(digits)


def test_table_jumps_to_large_t0(capsys, default_int_str_limit):
    # t0 is reached in one shot; rows past the int/str limit still round-trip
    rc, out, err = run_cli(
        capsys, "table", "--n", "2", "--k", "2", "--t0", "20000", "--t1", "20002",
        "--format", "json",
    )
    assert rc == 0, err
    obj = json.loads(out)
    assert json.dumps(obj, indent=2) + "\n" == out
    assert [row[0] for row in obj["rows"]] == ["20000", "20001", "20002"]
    params, ones = Params(2, 2), StateVector((1, 1))
    with _int_str_limit_set(0):
        for row in obj["rows"]:
            t = int(row[0])
            assert Fraction(row[1]) == ratio(apply_power(params, t, ones), 1)


def test_trace_start_stays_under_int_str_limit(capsys, default_int_str_limit):
    # argv text is parsed before the limit is lifted for the program's own output
    if default_int_str_limit is None:
        pytest.skip("this interpreter has no int/str digit limit")
    start = "1" * (default_int_str_limit + 1)
    rc, _, err = run_cli(
        capsys, "trace", "--mode", "linear", "--n", "2", "--k", "2", "--start", f"{start},1"
    )
    assert rc == 1 and "bad linear start" in err
    rc, _, err = run_cli(
        capsys, "trace", "--mode", "scalar", "--n", "2", "--k", "2", "--start", f"{start}/1"
    )
    assert rc == 1 and "bad scalar start" in err
    assert _int_str_limit() == default_int_str_limit


def test_cli_help_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "--help")
    assert rc == 0
    assert "approx" in out


def test_cli_import_leaves_numpy_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys, ratroot.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "False\n", out.stderr


def test_selftest_passes(capsys):
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines)


def test_selftest_catches_sabotaged_engine(capsys, monkeypatch):
    # a wrong ring reduction must trip the engine-agreement group
    from ratroot import engine
    from ratroot.core import RingPoly

    true_mul = engine.ring_mul

    def corrupt_mul(a, b):
        out = true_mul(a, b)
        return RingPoly((out.coeffs[0] + 1,) + out.coeffs[1:], out.params)

    monkeypatch.setattr(engine, "ring_mul", corrupt_mul)
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 3
    assert any(line.startswith("FAIL engine-agreement") for line in out.splitlines())


def test_selftest_catches_sabotaged_square(capsys, monkeypatch):
    # a wrong squaring kernel must trip the engine-agreement group
    from ratroot import engine

    true_sqr = engine._sqrmod

    def corrupt_sqr(a, k):
        out = true_sqr(a, k)
        return [out[0] + 1, *out[1:]]

    monkeypatch.setattr(engine, "_sqrmod", corrupt_sqr)
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 3
    assert any(line.startswith("FAIL engine-agreement") for line in out.splitlines())


def test_selftest_catches_sabotaged_companion_matrix(capsys, monkeypatch):
    # a wrong iteration matrix must trip the cayley-hamilton group
    from ratroot import engine
    from ratroot.core import Matrix

    true_companion = engine.companion_matrix

    def corrupt_companion(params):
        rows = [list(row) for row in true_companion(params).rows]
        rows[0][0] += 1
        return Matrix(rows)

    monkeypatch.setattr(engine, "companion_matrix", corrupt_companion)
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 3
    assert any(line.startswith("FAIL cayley-hamilton") for line in out.splitlines())


def test_selftest_catches_sabotaged_rate(capsys, monkeypatch):
    # a predicted rate 10% low must trip the rate-check group
    from ratroot import spectral

    true_rate = spectral.convergence_rate

    def low_rate(params):
        rho, dps = true_rate(params)
        return rho, 0.9 * dps

    monkeypatch.setattr(spectral, "convergence_rate", low_rate)
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 3
    assert any(line.startswith("FAIL rate-check-2-2") for line in out.splitlines())


def test_selftest_catches_sabotaged_step(capsys, monkeypatch):
    # a wrong O(n) step of M must trip the engine-agreement group
    from ratroot import engine

    true_step = engine.step_one_plus_x

    def corrupt_step(c, k):
        out = true_step(c, k)
        return [out[0] + 1, *out[1:]]

    monkeypatch.setattr(engine, "step_one_plus_x", corrupt_step)
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 3
    assert any(line.startswith("FAIL engine-agreement") for line in out.splitlines())


def test_output_is_deterministic(capsys):
    rc1, out1, _ = run_cli(capsys, "table", "--n", "5", "--k", "7", "--t1", "25", "--format", "json")
    rc2, out2, _ = run_cli(capsys, "table", "--n", "5", "--k", "7", "--t1", "25", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    rc1, out1, _ = run_cli(capsys, "eig", "--n", "6", "--k", "11")
    rc2, out2, _ = run_cli(capsys, "eig", "--n", "6", "--k", "11")
    assert out1 == out2
    rc1, out1, _ = run_cli(capsys, "selftest")
    rc2, out2, _ = run_cli(capsys, "selftest")
    assert out1 == out2


def test_out_flag_writes_payload_verbatim(tmp_path, capsys):
    target = tmp_path / "payload.csv"
    rc, out, _ = run_cli(
        capsys, "table", "--n", "2", "--k", "2", "--t1", "5",
        "--format", "csv", "--out", str(target),
    )
    assert rc == 0
    assert out == ""  # payload redirected
    rc, expected, _ = run_cli(capsys, "table", "--n", "2", "--k", "2", "--t1", "5", "--format", "csv")
    assert target.read_bytes() == expected.encode()


def test_out_flag_unwritable_path_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    rc, out, err = run_cli(capsys, "table", "--n", "2", "--k", "2", "--out", str(target))
    assert rc == 1 and out == ""
    assert err.startswith(f"ratroot: error: cannot write {target}"), err
    assert not target.exists()


def test_bench_engines_agree(capsys):
    rc, out, _ = run_cli(
        capsys, "bench", "--n", "3", "--k", "2", "--t", "64", "--repeat", "1", "--format", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["meta"]["agree"] == "true"
    assert [row[0] for row in obj["rows"]] == ["naive", "binary", "ring"]
