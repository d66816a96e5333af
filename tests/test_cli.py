import contextlib
import csv
import decimal
import errno
import io
import json
import os
import random
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import grid
from ratroot import checks, cli, core, engine, oracle, recursion, render, spectral
from ratroot.cli import (
    build_approx,
    build_chpow,
    build_parser,
    build_table,
    build_trace_linear,
    main,
)
from ratroot.core import NonConvergence, Params
from ratroot.engine import apply_power
from ratroot.render import INT_STR_CUTOVER, format_decimal, format_fraction, format_int

from _helpers import loop_format_decimal


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_format_decimal_truncates_toward_zero():
    assert format_decimal(17, 12, 6) == "1.416666"
    assert format_decimal(-17, 12, 6) == "-1.416666"
    assert format_decimal(99, 70, 6) == "1.414285"
    assert format_decimal(3, 1, 4) == "3.0000"
    assert format_decimal(7, 2, 0) == "3"


@given(
    st.integers(-(10**80), 10**80),
    st.integers(1, 10**80),
    st.integers(0, 120),
)
@settings(max_examples=300)
def test_format_decimal_matches_long_division(num, den, places):
    # the pair need not be reduced: the expansion is of the value num/den
    assert format_decimal(num, den, places) == loop_format_decimal(Fraction(num, den), places)


def test_format_fraction_round_trips():
    for f in (Fraction(1), Fraction(-3, 7), Fraction(99, 70)):
        assert Fraction(format_fraction(f.numerator, f.denominator)) == f


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


def test_trace_linear_json_columns(capsys):
    rc, out, _ = run_cli(
        capsys, "trace", "--mode", "linear", "--n", "3", "--k", "2", "--format", "json"
    )
    assert rc == 0
    assert json.loads(out)["columns"] == ["t", "x1", "x2", "x3"]


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


@st.composite
def _eig_params(draw):
    # perfect powers, k = 1 among them, are drawn on purpose
    n = draw(st.integers(2, 12))
    k = draw(st.one_of(st.just(1), st.integers(1, 10**6),
                       st.integers(1, round(10 ** (6 / n))).map(lambda b: b**n)))
    return Params(n, k)


@given(_eig_params())
@settings(max_examples=200)
def test_eig_prints_the_one_rate(params):
    meta = cli.build_eig(params).meta
    rho, digits_per_step = spectral.convergence_rate(params)
    assert (meta["rho"], meta["digits_per_step"]) == (repr(rho), repr(digits_per_step))
    assert meta["degenerate"] == ("true" if rho == 0.0 else "false")
    assert (rho == 0.0) == (params == (2, 1))


def test_table_digits_fall_from_step_3_to_4_at_the_cube_root_of_2():
    # for n >= 3 the printed ratio need not improve at every step
    rows = build_table(Params(3, 2), 3, 4, 1).rows
    assert [(row[1], row[3]) for row in rows] == [("5/4", "2"), ("11/9", "1")]


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


@pytest.mark.parametrize("n,k,digits,t_used", [
    (3, 9973, 150, 10170),  # one miss; a 41 kbit q
    (3, 1000001, 2, 1276),  # two misses
    (2, 1000001, 1, 9296),  # three misses; an 83 kbit q
    (2, 9185, 91, 20102),  # one miss; an odd k and a 113 kbit q
    (2, 1001, 30, 2206),  # one miss; an odd k and an 11 kbit q
])
def test_approx_runs_one_ladder_per_request(capsys, monkeypatch, n, k, digits, t_used):
    # a miss squares the last attempt's power instead of rebuilding it. An
    # n = 2 attempt whose reduced q passes INT_STR_CUTOVER runs on Decimals:
    # the first such attempt builds its ladder afresh, and no int ladder runs
    # when the first attempt is one. So there is at most one ladder per
    # number type, and none at t_used + 1 (the retired decimal twin's)
    true_ladder = engine.ring_pow_one_plus_x
    params = Params(n, k)
    ladders = []

    def counting_ladder(params, t, *args):
        ladders.append((t, args[0] if args else int))
        return true_ladder(params, t, *args)

    monkeypatch.setattr(engine, "ring_pow_one_plus_x", counting_ladder)
    rc, out, err = run_cli(
        capsys, "approx", "--n", str(n), "--k", str(k), "--digits", str(digits),
        "--format", "json",
    )
    assert rc == 0, err
    assert json.loads(out)["meta"]["t_used"] == str(t_used)
    first = ladders[0][0]
    attempts = [first << i for i in range((t_used // first).bit_length())]
    assert attempts[-1] == t_used and first < t_used, ladders
    past = [n == 2 and engine.reduced_pair(*engine.ones_pair(params, true_ladder(params, t)),
                                           n)[1].bit_length() > INT_STR_CUTOVER
            for t in attempts]
    want = [(t, decimal.Decimal if big else int) for i, (t, big) in enumerate(zip(attempts, past))
            if i == 0 or big and not past[i - 1]]
    assert ladders == want


def _count_reductions(monkeypatch):
    """Patch engine.reduced_pair to record each (p, q, n) it is given."""
    true_reducer = engine.reduced_pair
    reduced = []

    def counting_reducer(p, q, n):
        reduced.append((p, q, n))
        return true_reducer(p, q, n)

    monkeypatch.setattr(engine, "reduced_pair", counting_reducer)
    return reduced


def test_approx_reduces_only_the_certified_attempt(capsys, monkeypatch):
    # (3, 9973): t = 5085 misses the target and t = 10170 certifies; only it
    # is reduced. (2, 1001): t = 1103 misses and t = 2206 certifies.
    # (2, 9366): t = 14717 misses and t = 29434 certifies, both on Decimals
    # past INT_STR_CUTOVER, whose ladder engine.halved reduces, so
    # reduced_pair never runs
    reduced = _count_reductions(monkeypatch)
    for n, k, digits, t_used in ((3, 9973, 150, 10170), (2, 1001, 30, 2206),
                                 (2, 9366, 132, 29434)):
        reduced.clear()
        rc, out, err = run_cli(
            capsys, "approx", "--n", str(n), "--k", str(k), "--digits", str(digits),
            "--format", "json",
        )
        assert rc == 0, err
        assert json.loads(out)["meta"]["t_used"] == str(t_used)
        state = apply_power(Params(n, k), t_used, (1,) * n)
        assert reduced == ([] if k == 9366 else [(state[0], state[1], n)]), (n, k)


@pytest.mark.parametrize("digits", [30, 1500, 20000])
@pytest.mark.parametrize("k", [2, 27], ids=["root", "perfect-power"])
def test_approx_takes_no_root_but_ks_own(capsys, monkeypatch, default_int_str_limit, k, digits):
    # every attempt, and the perfect power's answer, is certified by two
    # exact n-th powers: the one root taken is integer_nth_root(k, n), and
    # neither the oracle's bracket nor its digit count is formed
    calls = {"integer_nth_root": [], "nth_root_bracket": [], "digits_of_ratio": []}
    for name, seen in calls.items():
        def spy(*args, seen=seen, true_fn=getattr(oracle, name)):
            seen.append(args[:2])
            return true_fn(*args)

        monkeypatch.setattr(oracle, name, spy)
    rc, out, err = run_cli(
        capsys, "approx", "--n", "3", "--k", str(k), "--digits", str(digits), "--format", "json",
    )
    assert rc == 0, err
    assert calls == {"integer_nth_root": [(k, 3)], "nth_root_bracket": [], "digits_of_ratio": []}
    record = json.loads(out)
    assert record["meta"]["achieved"] == str(digits)
    _, fraction, decimal, achieved = record["rows"][0]
    with _int_str_limit_set(0):
        p, q = map(int, fraction.split("/"))
        assert decimal == format_decimal(p, q, digits) and achieved == str(digits)


@pytest.mark.parametrize("n, k, index", [(2, 2, 1), (4, 7, 3)])
def test_table_reduces_each_row_once(capsys, monkeypatch, n, k, index):
    # one reduction per row, of the row's own adjacent entries
    reduced = _count_reductions(monkeypatch)
    rc, _, err = run_cli(
        capsys, "table", "--n", str(n), "--k", str(k), "--t0", "3", "--t1", "9",
        "--index", str(index),
    )
    assert rc == 0, err
    states = [apply_power(Params(n, k), t, (1,) * n) for t in range(3, 10)]
    assert reduced == [(s[index - 1], s[index], n) for s in states]


# --- table rows built in forked children -------------------------------------

SPLIT_TABLES = [(2, 2, 0, 40, 1), (2, 7, 13, 60, 1)] + [(4, 3, 5, 50, i) for i in (1, 2, 3)]


def _table_argv(n, k, t0, t1, index, fmt="plain"):
    return ["table", "--n", str(n), "--k", str(k), "--t0", str(t0), "--t1", str(t1),
            "--index", str(index), "--format", fmt]


def _sequential_bytes(capsys, monkeypatch, argv):
    """stdout of argv with one usable CPU, so built in this process alone."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        m.setattr(os, "fork", _no_fork)
        rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    return out


def _no_fork():
    raise AssertionError("os.fork called")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Split every table into up to three spans; list the children forked."""
    monkeypatch.setattr(cli, "TABLE_SPLIT_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("n, k, t0, t1, index", SPLIT_TABLES)
def test_split_table_prints_the_sequential_bytes(capsys, monkeypatch, forks, fmt,
                                                  n, k, t0, t1, index):
    argv = _table_argv(n, k, t0, t1, index, fmt)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert len(forks) == 2
    _assert_no_child_left()
    assert out == _sequential_bytes(capsys, monkeypatch, argv)


def _no_kill(pid, sig):
    raise AssertionError(f"os.kill({pid}, {sig}) called")


@pytest.mark.parametrize("sigchld", ["default", "ignored"])
@pytest.mark.parametrize("fault, spans_built_here", [
    ("none", 1),
    ("fork fails", 2),
    ("child exits 1 before its rows", 2),
    ("child sends a row short", 2),
    ("child cuts its last row short", 2),
    ("every child exits 1 after its rows", 1),
])
def test_split_table_builds_a_failed_childs_span_itself(capsys, monkeypatch, forks, fault,
                                                        spans_built_here, sigchld):
    # three spans; where the first fork fails or the first child's lines are
    # not whole, this process builds that span itself, and whole lines are
    # taken whatever the exit status. Where SIGCHLD is ignored the kernel
    # reaps each child, so every wait reports ECHILD; no child is signalled
    import signal

    parent, rows, counted_fork, exit = os.getpid(), cli._table_rows, os.fork, os._exit
    pipe, waitpid = os.pipe, os.waitpid
    built_here, write_ends, echild = [], [], []

    def fork():
        if forks or fault != "fork fails":
            return counted_fork()
        forks.append(None)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def recorded_pipe():
        r, w = pipe()
        write_ends.append(w)
        return r, w

    def faulty_rows(params, first, last, index):
        built = rows(params, first, last, index)
        if os.getpid() == parent:
            built_here.append(first)
        elif len(forks) == 1:  # in the first child, whose pid list holds only its 0
            if fault == "child exits 1 before its rows":
                exit(1)
            if fault == "child sends a row short":
                built.pop()
            if fault == "child cuts its last row short":  # as if killed mid-line
                text = "".join("\t".join(row) + "\n" for row in built)
                os.write(write_ends[0], text[:-2].encode("ascii"))
                exit(1)
        return built

    def spied_waitpid(pid, options):
        try:
            return waitpid(pid, options)
        except ChildProcessError:
            echild.append(pid)
            raise

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "waitpid", spied_waitpid)
    monkeypatch.setattr(os, "kill", _no_kill)
    monkeypatch.setattr(cli, "_table_rows", faulty_rows)
    if fault == "every child exits 1 after its rows":
        monkeypatch.setattr(os, "_exit", lambda status: exit(1))
    argv = _table_argv(4, 3, 5, 50, 2, "csv")
    disposition = signal.SIG_IGN if sigchld == "ignored" else signal.SIG_DFL
    previous = signal.signal(signal.SIGCHLD, disposition)
    try:
        rc, out, err = run_cli(capsys, *argv)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert rc == 0, err
    assert len(forks) == 2 and len(built_here) == spans_built_here
    assert echild == ([pid for pid in forks if pid] if sigchld == "ignored" else [])
    _assert_no_child_left()
    monkeypatch.setattr(cli, "_table_rows", rows)
    assert out == _sequential_bytes(capsys, monkeypatch, argv)


def test_one_usable_cpu_or_a_second_thread_never_forks(capsys, monkeypatch):
    import threading

    monkeypatch.setattr(cli, "TABLE_SPLIT_WORK", 1)
    monkeypatch.setattr(os, "fork", _no_fork)
    argv = _table_argv(3, 7, 0, 60, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert run_cli(capsys, *argv) == (0, out, "")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("n, k, t0, t1, spans", [
    (3, 7, 0, 1057, [(0, 1057)]),  # one row below TABLE_SPLIT_WORK
    (3, 7, 0, 1058, [(0, 712), (713, 1058)]),  # at it
    (2, 3, 0, 1400, [(0, 914), (915, 1400)]),  # the tail starts on an odd step
    (4, 3, 700, 2600, [(700, 2018), (2019, 2600)]),  # the child jumps past t0
])
def test_identity_grid_tables_cross_the_split(monkeypatch, n, k, t0, t1, spans):
    # tools/grid.py runs these tables to compare the split with the
    # sequential loop; a retuned cost model must move them too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._table_spans(Params(n, k), t0, t1) == spans


@pytest.mark.parametrize("n, k, t0, t1", [(2, 2, 0, 10000), (3, 7, 0, 2000), (6, 50, 999, 3000)])
def test_table_spans_tile_the_steps_with_shorter_tails(monkeypatch, n, k, t0, t1):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    spans = cli._table_spans(Params(n, k), t0, t1)
    assert 2 <= len(spans) <= 8
    assert [a for a, _ in spans] == [t0] + [b + 1 for _, b in spans[:-1]]
    assert spans[-1][1] == t1
    lengths = [b - a + 1 for a, b in spans]
    assert lengths == sorted(lengths, reverse=True), spans


def test_table_spans_past_the_float_range_stay_one_span(monkeypatch):
    # the cost estimate overflows a float; the split is skipped, not the table
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._table_spans(Params(2, 2), 5, 10**200) == [(5, 10**200)]


# --- table cells frozen by the enclosure --------------------------------------

def _wide_enclosure(params, state):
    """An enclosure of every root that fixes no cell: 0 and k + 1."""
    return (0, 1), (params.k + 1, 1)


def _one_process_rows(monkeypatch, params, t0, t1, index, enclosure=None):
    """build_table's rows with one usable CPU, under ``enclosure`` if given."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        m.setattr(os, "fork", _no_fork)
        if enclosure is not None:
            m.setattr(recursion, "enclosure", enclosure)
        return build_table(params, t0, t1, index).rows


def _spy_cells(monkeypatch, params, t1):
    """Record each value the table passes to format_decimal and to
    digits_of_ratio, as a Fraction, and the step of each enclosure."""
    steps = {s: t for t, s in enumerate(recursion.iterate_linear(params, (1,) * params.n, t1))}
    calls = {"decimal": [], "digits": [], "enclosure": []}
    decimal, digits, enclosure = cli.format_decimal, oracle.digits_of_ratio, recursion.enclosure

    def spied_decimal(p, q, places):
        calls["decimal"].append(Fraction(p, q))
        return decimal(p, q, places)

    def spied_digits(p, q, params, cap):
        calls["digits"].append(Fraction(p, q))
        return digits(p, q, params, cap)

    def spied_enclosure(params, state):
        calls["enclosure"].append(steps[tuple(state)])
        return enclosure(params, state)

    monkeypatch.setattr(cli, "format_decimal", spied_decimal)
    monkeypatch.setattr(oracle, "digits_of_ratio", spied_digits)
    monkeypatch.setattr(recursion, "enclosure", spied_enclosure)
    return calls


def _rows_passed(rows, values):
    """The steps of the rows whose fraction is among values."""
    values = set(values)
    return [int(row[0]) for row in rows if Fraction(row[1]) in values]


def _check_steps(start, count):
    """The first count enclosure steps of a span whose first check is at start."""
    steps = [start]
    while len(steps) < count:
        steps.append(steps[-1] + max(8, (steps[-1] - start) // 4))
    return steps


@st.composite
def _tables(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.one_of(st.integers(1, 10**4), st.integers(1, 12).map(lambda m: m**n)))
    t1 = draw(st.integers(0, 400))
    return Params(n, k), draw(st.integers(0, t1)), t1, draw(st.integers(1, n - 1))


@given(_tables())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_frozen_cells_are_the_cells_of_every_row(monkeypatch, table):
    # in one span and split three ways, the rows equal those of an enclosure
    # that never freezes a cell; perfect powers (m**n) are drawn on purpose
    never_frozen = _one_process_rows(monkeypatch, *table, enclosure=_wide_enclosure)
    assert _one_process_rows(monkeypatch, *table) == never_frozen
    with monkeypatch.context() as m:
        m.setattr(cli, "TABLE_SPLIT_WORK", 1)
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert build_table(*table).rows == never_frozen
    _assert_no_child_left()


def test_a_wide_enclosure_keeps_the_cells_row_by_row(monkeypatch):
    # the first two enclosures are too wide to fix a cell, so the rows
    # after them keep their own cells; the third, 16 rows after the first,
    # freezes the decimal cell, and checks go on until the digits cell freezes
    params, t1 = Params(2, 2), 200
    never_frozen = _one_process_rows(monkeypatch, params, 0, t1, 1, enclosure=_wide_enclosure)
    calls = _spy_cells(monkeypatch, params, t1)
    true_enclosure = recursion.enclosure  # the spy, which counts this call first

    def enclosure(params, state):
        ends = true_enclosure(params, state)
        return _wide_enclosure(params, state) if len(calls["enclosure"]) <= 2 else ends

    rows = _one_process_rows(monkeypatch, params, 0, t1, 1, enclosure=enclosure)
    assert rows == never_frozen
    start = next(int(row[0]) for row in rows if int(row[3]) > cli.TABLE_DECIMAL_PLACES)
    checks = calls["enclosure"]
    assert checks == _check_steps(start, len(checks)) and len(checks) > 3
    assert _rows_passed(rows, calls["decimal"]) == list(range(start + 17))
    assert _rows_passed(rows, calls["digits"]) == list(range(checks[-1] + 1))
    assert checks[-1] < t1


@pytest.mark.parametrize("n, k, index, decimals, certificates, checks", [
    (2, 3, 1, 15, 85, 8),
    (5, 7, 3, 86, 536, 17),
])
def test_a_large_table_freezes_its_cells(monkeypatch, n, k, index, decimals, certificates,
                                         checks):
    # of 2001 rows, only those before each freeze format their decimal or
    # certify their fraction; the rest of these counts are the two ends of
    # each enclosure. A freeze that stops engaging moves them to 2001 or more.
    calls = _spy_cells(monkeypatch, Params(n, k), 2000)
    _one_process_rows(monkeypatch, Params(n, k), 0, 2000, index)
    assert [len(calls[c]) for c in ("decimal", "digits", "enclosure")] == [
        decimals, certificates, checks]


def test_a_root_on_a_decimal_boundary_freezes_only_the_digits(monkeypatch):
    # 4**(1/2) = 2: each enclosure of (2, 4) is r and 4/r, on both sides of
    # 2, so its ends print 1.999999 and 2.000000 and the decimal cell never
    # freezes; both ends come within 10**-40 of 2, so the digits cell does
    params, t1 = Params(2, 4), 300
    never_frozen = _one_process_rows(monkeypatch, params, 0, t1, 1, enclosure=_wide_enclosure)
    calls = _spy_cells(monkeypatch, params, t1)
    rows = _one_process_rows(monkeypatch, params, 0, t1, 1)
    assert rows == never_frozen
    assert _rows_passed(rows, calls["decimal"]) == list(range(t1 + 1))
    last = calls["enclosure"][-1]
    assert _rows_passed(rows, calls["digits"]) == list(range(last + 1)) and last < t1
    lo, hi = recursion.enclosure(params, engine.apply_power(params, last, (1, 1)))
    assert lo[0] < 2 * lo[1] and hi[0] > 2 * hi[1]


# --- the byte-identity grid, tools/grid.py ------------------------------------

GRID_DIGESTS = Path(__file__).resolve().parent / "identity_grid.sha256"


def _grid_changes(argvs, pinned):
    """The pinned lines of the commands whose blanked grid entry changed."""
    return [line for argv, line in zip(argvs, pinned, strict=True)
            if line != f"{grid.digest(argv, *grid.replay(argv))}  {' '.join(argv)}"]


def _grid_table_spans(argv, code):
    """The spans of a grid ``table`` command's steps, given its exit code;
    none where it prints no rows: it asks for help, or it is refused."""
    if code != 0 or "--help" in argv:
        return []
    args = build_parser().parse_args(argv)
    return cli._table_spans(Params(args.n, args.k), args.t0, args.t1)


def test_identity_grid_matches_its_digests(monkeypatch, request):
    # the one place where tier-1 pins output bytes; after a deliberate output
    # change, regenerate the digests with
    # python3 tools/grid.py --sha256 > tests/identity_grid.sha256
    monkeypatch.setenv("COLUMNS", "80")  # so --help never wraps at a terminal's width
    pinned = GRID_DIGESTS.read_text().splitlines()
    limit = _int_str_limit()
    for each in (limit, 640, 0) if limit is not None else (None,):
        with _int_str_limit_set(each):
            assert _grid_changes(grid.GRID, pinned) == [], f"int/str limit {each}"
            assert _int_str_limit() == each
    tables = [(argv, line) for argv, line in zip(grid.GRID, pinned) if argv[0] == "table"]
    with monkeypatch.context() as m:  # one usable CPU: the sequential loop alone
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        m.setattr(os, "fork", _no_fork)
        assert _grid_changes(*zip(*tables)) == []
    forks = request.getfixturevalue("forks")  # every table split three ways
    for argv, line in tables:
        forks.clear()
        code, out, err = grid.replay(argv)
        assert f"{grid.digest(argv, code, out, err)}  {' '.join(argv)}" == line
        spans = _grid_table_spans(argv, code)
        if spans:  # it prints rows: one child per span after the first
            assert len(forks) == len(spans) - 1 >= 1, (argv, spans, forks)
        else:
            assert forks == [], argv
    _assert_no_child_left()


def test_grid_blanks_only_what_libm_computes(capsys):
    # approx: only the rho and digits_per_step values, so t_used, the
    # fraction and the decimal still enter the digest
    rho, dps = spectral.convergence_rate(Params(3, 2))
    for fmt in ("plain", "json"):
        _, out, _ = run_cli(capsys, "approx", "--n", "3", "--k", "2", "--digits", "10",
                            "--format", fmt)
        assert out.count(repr(rho)) == out.count(repr(dps)) == 1
        assert grid.blank(out) == out.replace(repr(rho), "~").replace(repr(dps), "~")
    # JSON that json.dumps would not write back byte for byte is kept whole
    assert grid.blank(out.replace("\n", " \n", 1)) == out.replace("\n", " \n", 1)
    # eig: every cell but re, im and modulus, every meta value but the rate
    eig = ["eig", "--n", "3", "--k", "2", "--format"]
    meta = "# n = 3\n# k = 2\n# dominant_index = 0\n# rho = ~\n# digits_per_step = ~\n"
    assert grid.blank(run_cli(capsys, *eig, "plain")[1]) == (
        "# command = eig\n" + meta + "# degenerate = false\n"
        "j  re  im  modulus  dominant\n"
        "0  ~  ~  ~  true\n1  ~  ~  ~  false\n2  ~  ~  ~  false\n"
    )
    assert grid.blank(run_cli(capsys, *eig, "csv")[1]) == (
        "j,re,im,modulus,dominant\r\n0,~,~,~,true\r\n1,~,~,~,false\r\n2,~,~,~,false\r\n"
    )
    blanked = json.loads(grid.blank(run_cli(capsys, *eig, "json")[1]))
    assert blanked["meta"] == {"n": "3", "k": "2", "dominant_index": "0", "rho": "~",
                               "digits_per_step": "~", "degenerate": "false"}
    assert blanked["rows"] == [[str(j), "~", "~", "~", str(j == 0).lower()] for j in range(3)]


@given(
    st.lists(st.integers(1, 10**30), min_size=3, max_size=6),
    st.integers(1, 5),
)
def test_reduced_pair_matches_fraction(state, index):
    # n >= 3 pairs are reduced by a gcd, to the terms Fraction gives; the
    # states M**t (1, ..., 1) it is given have positive entries only
    index = min(index, len(state) - 1)
    p, q = state[index - 1], state[index]
    frac = Fraction(p, q)
    assert engine.reduced_pair(p, q, len(state)) == (frac.numerator, frac.denominator)


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
    from ratroot.oracle import digits_of_ratio

    assert digits_of_ratio(*frac.as_integer_ratio(), Params(3, 2), 30) == 30


def test_approx_non_convergence_ceiling():
    with pytest.raises(NonConvergence):
        build_approx(Params(3, 2), 30, max_t=50)


@pytest.mark.parametrize("k", [2, 4], ids=["iterated", "perfect-power"])
def test_approx_rejects_negative_ceiling(capsys, k):
    # refused up front on both paths, like a digit target below 1
    rc, out, err = run_cli(
        capsys, "approx", "--n", "2", "--k", str(k), "--digits", "5", "--max-t", "-3"
    )
    assert rc == 1 and out == ""
    assert err == "ratroot: error: max t must be >= 0, got -3\n", err


def test_approx_ceiling_admits_its_own_t_used(capsys):
    # --max-t at the t that certifies changes nothing; one below it refuses
    argv = ("approx", "--n", "3", "--k", "2", "--digits", "30")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    t_used = int(out.split("# t_used = ", 1)[1].split("\n", 1)[0])
    rc, at_ceiling, err = run_cli(capsys, *argv, "--max-t", str(t_used))
    assert rc == 0 and at_ceiling == out, err
    rc, below, err = run_cli(capsys, *argv, "--max-t", str(t_used - 1))
    assert rc == 3 and below == ""
    assert f"exceeds ceiling {t_used - 1}" in err, err


def test_approx_zero_ceiling_still_means_no_steps(capsys):
    argv = ("approx", "--n", "2", "--digits", "5", "--max-t", "0")
    rc, out, _ = run_cli(capsys, *argv, "--k", "4")
    assert rc == 0 and "# exact = true" in out
    rc, out, err = run_cli(capsys, *argv, "--k", "2")
    assert rc == 3 and out == ""
    assert "exceeds ceiling 0" in err, err


@pytest.mark.parametrize(
    "n,k", [(2, 10**35 + 1), (3, 10**400 + 3)], ids=["rate-rounds-to-1", "k-past-float-range"]
)
def test_approx_huge_radicand_is_non_convergence(capsys, n, k):
    # the float rate rounds to 1, or k**(1/n) overflows a float: no t fits
    rc, out, err = run_cli(capsys, "approx", "--n", str(n), "--k", str(k), "--digits", "5")
    assert rc == 3 and out == ""
    assert err.startswith("ratroot: error: no starting t within ceiling 1000000"), err


def test_eig_builds_no_eigenvectors(capsys, monkeypatch):
    # eig prints eigenvalues only, so it must not pay O(n**2) for the vectors
    from ratroot import spectral

    _, want, _ = spectral.spectrum(Params(5, 7))

    def no_vectors(params, r0):
        pytest.fail("eig built the eigenvectors")

    monkeypatch.setattr(spectral, "decompose", no_vectors)
    rc, out, _ = run_cli(capsys, "eig", "--n", "5", "--k", "7", "--format", "json")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [complex(float(r[1]), float(r[2])) for r in rows] == want
    assert [r[4] for r in rows] == ["true"] + ["false"] * 4


def test_eig_past_float_range_of_k(capsys):
    # k = 2**1024 does not fit a float, but its cube root does
    rc, out, err = run_cli(capsys, "eig", "--n", "3", "--k", str(2**1024))
    assert rc == 0 and err == ""
    assert "# rho = 1.0" in out


def test_approx_past_float_range_of_k_reports_the_rate(capsys):
    rc, out, err = run_cli(capsys, "approx", "--n", "3", "--k", str(2**1024 + 1), "--digits", "5")
    assert rc == 3 and out == ""
    assert err.rstrip().endswith("the floating-point rate rounds to 1"), err


def test_approx_digits_past_float_range_is_non_convergence(capsys):
    # target_digits / dps would overflow a float; no step count can be chosen
    rc, out, err = run_cli(capsys, "approx", "--n", "3", "--k", "2", "--digits", str(10**400))
    assert rc == 3 and out == ""
    assert err.startswith("ratroot: error: no starting t within ceiling 1000000"), err
    assert err.rstrip().endswith("the step count passes the float range"), err
    assert len(err.splitlines()) == 1


def test_eig_past_float_range_of_eigenvectors(capsys):
    # r = k**(1/300) ~ 12.7 fits a float though r**299 does not; eig prints
    # only the values 1 + r*w**j, so it answers
    rc, out, err = run_cli(capsys, "eig", "--n", "300", "--k", str(2**1100), "--format", "json")
    assert rc == 0 and err == ""
    obj = json.loads(out)
    assert len(obj["rows"]) == 300
    assert obj["meta"]["degenerate"] == "false"
    assert 0 < float(obj["meta"]["rho"]) < 1


def test_approx_past_float_range_of_eigenvectors_is_non_convergence(capsys):
    # the rate approx reads keeps refusing where r**(n-1) overflows
    rc, out, err = run_cli(capsys, "approx", "--n", "300", "--k", str(2**1100), "--digits", "1")
    assert rc == 3 and out == ""
    assert err == (
        "ratroot: error: no starting t within ceiling 1000000 can be chosen for 1 digits: "
        "k**((n-1)/n) is past the floating-point range (n=300, k of 1101 bits)\n"
    )


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
    # usage: all-zero linear start
    rc, out, err = run_cli(
        capsys, "trace", "--mode", "linear", "--n", "2", "--k", "2", "--start", "0,0"
    )
    assert rc == 1 and out == ""
    assert "nonzero entry" in err, err
    # usage: linear start of the wrong length
    rc, out, err = run_cli(
        capsys, "trace", "--mode", "linear", "--n", "3", "--k", "2", "--start", "1,1"
    )
    assert rc == 1 and out == ""
    assert "state length" in err, err
    # non-convergence ceiling
    rc, _, err = run_cli(
        capsys, "approx", "--n", "3", "--k", "2", "--digits", "30", "--max-t", "10"
    )
    assert rc == 3 and "ceiling" in err
    # usage: negative step count, named the same in both trace modes
    for mode in ("linear", "scalar"):
        rc, out, err = run_cli(
            capsys, "trace", "--mode", mode, "--n", "2", "--k", "2", "--steps", "-3"
        )
        assert rc == 1 and out == ""
        assert "ratroot: error: steps must be nonnegative, got -3" in err, err
    # usage: bench is no longer a command
    rc, out, err = run_cli(capsys, "bench", "--n", "3", "--k", "2")
    assert rc == 1 and out == ""
    assert "invalid choice: 'bench'" in err, err


# The CLI exit contract: a valid request exits 0, 2 (domain error) or 3
# (non-convergence), never 1; malformed argv exits 1. Every nonzero exit
# prints nothing to stdout and exactly one "ratroot: error:" line to stderr.
# main runs in-process with stdout and stderr redirected, not through capsys,
# which hypothesis would share between examples.

HUGE_K = 2**1024 + 1  # past the float range: approx exits 3


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _assert_one_error_line(out, err):
    assert out == ""
    assert err.startswith("ratroot: error: ") and err.endswith("\n"), err
    assert err.count("\n") == 1, err


_valid_n = st.integers(2, 8)
_valid_k = st.one_of(st.integers(1, 10**4), st.just(HUGE_K))
_format = st.sampled_from(("plain", "csv", "json"))


def _common_flags(n, k, fmt):
    return [f"--n={n}", f"--k={k}", f"--format={fmt}"]


def _start_flag(draw, text):
    """--start as one token or two: a negative start parses either way."""
    return [f"--start={text}"] if draw(st.booleans()) else ["--start", text]


@st.composite
def _valid_argv(draw):
    n = draw(_valid_n)
    common = _common_flags(n, draw(_valid_k), draw(_format))
    command = draw(st.sampled_from(
        ("approx", "table", "linear", "scalar", "eig", "chpow-t", "chpow-fib")
    ))
    if command == "approx":
        flags = ["approx", f"--digits={draw(st.integers(1, 60))}"]
    elif command == "table":
        t1 = draw(st.integers(0, 80))
        flags = ["table", f"--t0={draw(st.integers(0, t1))}", f"--t1={t1}",
                 f"--index={draw(st.integers(1, n - 1))}"]
    elif command == "linear":
        start = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        flags = ["trace", "--mode=linear", *_start_flag(draw, ",".join(map(str, start))),
                 f"--steps={draw(st.integers(0, 6))}"]
    elif command == "scalar":
        p, q = draw(st.integers(-5, 5)), draw(st.integers(1, 5))
        flags = ["trace", "--mode=scalar", *_start_flag(draw, f"{p}/{q}"),
                 f"--steps={draw(st.integers(0, 5))}"]
    elif command == "eig":
        flags = ["eig"]
    elif command == "chpow-t":
        flags = ["chpow", f"--t={draw(st.integers(0, 500))}"]
    else:
        flags = ["chpow", f"--fib={draw(st.integers(1, 12))}"]
    return flags + common


@given(_valid_argv())
@settings(max_examples=100, deadline=None)
def test_valid_requests_keep_the_exit_contract(argv):
    rc, out, err = _run_captured(argv)
    assert rc in (0, 2, 3), (rc, err)
    if rc:
        _assert_one_error_line(out, err)
    else:
        assert out and err == ""


@pytest.mark.parametrize("mode,n,start", [
    ("linear", 2, "-1,1"), ("linear", 3, "-2,0,1"), ("scalar", 3, "-5/1"), ("scalar", 2, "-.5"),
])
def test_negative_start_after_a_space_parses_as_with_equals(mode, n, start):
    # argparse's own negative-number pattern admits only plain ints and
    # decimals, so "-1,1" and "-5/1" after a space read as options
    common = ["trace", "--mode", mode, "--n", str(n), "--k", "2", "--steps", "2"]
    spaced = _run_captured(common + ["--start", start])
    joined = _run_captured(common + [f"--start={start}"])
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1] and spaced[2] == ""


@st.composite
def _malformed_argv(draw):
    case = draw(st.sampled_from((
        "n", "k", "t0>t1", "index", "zero-start", "start-length", "linear-text",
        "scalar-text", "digits", "max-t", "t", "steps", "fib",
    )))
    n = draw(st.integers(-3, 1) if case == "n" else _valid_n)
    k = draw(st.integers(-3, 0) if case == "k" else _valid_k)
    common = _common_flags(n, k, draw(_format))
    if case in ("n", "k"):
        command = draw(st.sampled_from((
            ["approx", "--digits=5"], ["table"], ["trace", "--mode=linear"],
            ["trace", "--mode=scalar"], ["eig"], ["chpow"],
        )))
        return command + common
    if case == "t0>t1":
        t1 = draw(st.integers(0, 80))
        return ["table", f"--t0={draw(st.integers(t1 + 1, t1 + 5))}", f"--t1={t1}"] + common
    if case == "index":
        index = draw(st.one_of(st.integers(-3, 0), st.integers(n, n + 3)))
        return ["table", f"--index={index}"] + common
    if case == "zero-start":
        zeros = ",".join("0" * draw(st.integers(1, 9)))
        return ["trace", "--mode=linear", f"--start={zeros}"] + common
    if case == "start-length":
        length = draw(st.integers(1, 9).filter(lambda m: m != n))
        return ["trace", "--mode=linear", "--start=" + ",".join("1" * length)] + common
    if case == "linear-text":
        text = draw(st.sampled_from(("", "x", "1,,1", "1.5,1", "1/2,1")))
        return ["trace", "--mode=linear", f"--start={text}"] + common
    if case == "scalar-text":
        text = draw(st.sampled_from(("", "x", "1/0", "1//2", "1,1")))
        return ["trace", "--mode=scalar", f"--start={text}"] + common
    if case == "digits":
        return ["approx", f"--digits={draw(st.integers(-3, 0))}"] + common
    if case == "max-t":
        return ["approx", "--digits=5", f"--max-t={draw(st.integers(-9, -1))}"] + common
    if case == "t":
        return ["chpow", f"--t={draw(st.integers(-9, -1))}"] + common
    if case == "steps":
        mode = draw(st.sampled_from(("linear", "scalar")))
        return ["trace", f"--mode={mode}", f"--steps={draw(st.integers(-9, -1))}"] + common
    return ["chpow", f"--fib={draw(st.integers(-3, 0))}"] + common


@given(_malformed_argv())
@settings(max_examples=100, deadline=None)
def test_malformed_requests_exit_1(argv):
    rc, out, err = _run_captured(argv)
    assert rc == 1, (rc, err)
    _assert_one_error_line(out, err)


@pytest.mark.parametrize("error", [ValueError("a bug"), OSError(errno.EIO, "a bug")],
                         ids=["ValueError", "OSError"])
def test_a_build_error_outside_the_exit_codes_propagates(capsys, monkeypatch, error):
    # only the types in cli.EXIT_CODES are refusals: a plain ValueError is a
    # bug, not a usage error, and an OSError raised while building is not a
    # stdout that cannot be written
    def broken(*args):
        raise error

    monkeypatch.setattr(cli, "build_approx", broken)
    with pytest.raises(type(error)) as raised:
        main(["approx", "--n", "2", "--k", "2", "--digits", "5"])
    assert raised.value is error
    assert capsys.readouterr() == ("", "")


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


def _assert_format_int_is_str(x):
    # The reference str runs with the int/str limit lifted; format_int runs
    # at the lowest limit CPython takes, at the default limit (as it does in
    # main) and with the limit lifted, for every size: at 640 str refuses
    # 641 to 1,200 digits, which then take the split at powers of ten.
    with _int_str_limit_set(0):
        want = str(x)
    for limit in (640, getattr(sys.int_info, "default_max_str_digits", 0), 0):
        with _int_str_limit_set(limit):
            got = format_int(x)
        assert got == want, f"format_int differs from str at {x.bit_length()} bits, limit {limit}"


def test_format_int_edges_match_str():
    rng = random.Random(20261018)
    values = [0, 1]
    for bits in range(INT_STR_CUTOVER - 3, INT_STR_CUTOVER + 4):
        values += [2**bits - 1, 2**bits, 2**bits + 1, rng.getrandbits(bits) | 1 << (bits - 1)]
    # 10**9864 is the first power of ten past the cutover; 10**78900 is ~2**18 bits
    for m in (9863, 9864, 9865, 40000, 78900):
        values += [10**m - 1, 10**m, 10**m + 1]
    # the default int/str limit is 4300 digits: str refuses 10**4300. It
    # converts an int of 14,286 to 14,400 bits in full before it refuses it,
    # and refuses one of 14,401 bits or more without converting it
    values += [10**4300 - 1, 10**4300]
    for bits in (14284, 14285, 14286, 14400, 14401):
        values += [2**bits - 1, 1 << (bits - 1), rng.getrandbits(bits) | 1 << (bits - 1)]
    # the split at P(j) = 10**(600 * 2**j): each power and its neighbours,
    # the last bit length str writes (2**3986 < 10**1200, two leaves), and
    # zero runs that cross a leaf, which the lower halves must pad
    for j in range(4):
        values += [10 ** (600 * 2**j) - 1, 10 ** (600 * 2**j), 10 ** (600 * 2**j) + 1]
    values += [2**3986 - 1, 2**3986 + 1, 10**1800 + 1, 7 * 10**2400 + 10**599,
               10**4799 + 10**600 - 1]
    for x in values:
        _assert_format_int_is_str(x)
        _assert_format_int_is_str(-x)


@given(st.integers(0, 2**18), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=40, deadline=None)
def test_format_int_matches_str(bits, rng, negative):
    x = rng.getrandbits(bits)
    _assert_format_int_is_str(-x if negative else x)


@given(st.integers(3980, INT_STR_CUTOVER + 8), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=40, deadline=None)
def test_format_int_split_matches_str(bits, rng, negative):
    # the bit lengths of the split at powers of ten, and its edges on both sides
    x = rng.getrandbits(bits) | 1 << (bits - 1)
    _assert_format_int_is_str(-x if negative else x)


@given(st.sampled_from([4, 5]), st.integers(-16, 16), st.randoms(use_true_random=False),
       st.booleans())
@settings(max_examples=30, deadline=None)
def test_format_int_decimal_path_matches_str_where_its_pieces_straddle_str_bits(j, delta, rng,
                                                                                negative):
    # 3,986 * 2**j bits and a few either side, past the cutover: _decimal_str
    # halves n j times into pieces of 3,985 to 3,987 bits, so Decimal(int)
    # converts some of them and the rest are halved once more
    bits = render._STR_BITS * 2**j + delta
    assert INT_STR_CUTOVER < bits <= 2**17
    x = rng.getrandbits(bits) | 1 << (bits - 1)
    _assert_format_int_is_str(-x if negative else x)


def test_split_is_exact_when_its_level_estimate_overshoots(monkeypatch):
    # with 300-digit leaves P(1) = 10**600 has 1,994 bits, twice P(0)'s 997,
    # so a 1,994-bit n below 10**600 gets level 1 from its bit length, above
    # n: the split must step down, not write a zero high part
    monkeypatch.setattr(render, "_LEAF_DIGITS", 300)
    render._five_power.cache_clear()
    try:
        values = [2**1993, 2**1993 + 10**300 + 1, 10**600 - 1, 10**600, 10**600 + 1,
                  10**1200 - 1, 10**1200 + 10**299, 3**5000]
        for x in values:
            with _int_str_limit_set(0):
                want = str(x)
            with _int_str_limit_set(640):
                assert render._split_str(x) == want, x.bit_length()
    finally:
        render._five_power.cache_clear()


def _fraction_pairs_past_the_cutover():
    rng = random.Random(20261019)

    def draw(bits):
        return rng.getrandbits(bits) | 1 << (bits - 1)

    b = INT_STR_CUTOVER + 5000
    return {
        "widths-equal": (draw(b), draw(b)),
        "p-1-bit-wider": (draw(b + 1), draw(b)),
        "q-63-bits-wider": (draw(b), draw(b + 63)),
        "p-63-bits-wider": (draw(2 * b + 63), draw(2 * b)),
        "straddles-2**b": (2**b - 1, 2**b + 1),
        "straddles-the-cutover": (draw(INT_STR_CUTOVER), draw(INT_STR_CUTOVER + 1)),
        "negative-numerator": (-draw(b + 63), draw(b)),
    }


FRACTION_PAIRS_PAST_THE_CUTOVER = _fraction_pairs_past_the_cutover()


@pytest.fixture
def format_int_calls(monkeypatch):
    """The int of every render.format_int call made in the test."""
    true_format_int = render.format_int
    calls = []

    def spy(n):
        calls.append(n)
        return true_format_int(n)

    monkeypatch.setattr(render, "format_int", spy)
    return calls


@pytest.mark.parametrize("case", FRACTION_PAIRS_PAST_THE_CUTOVER)
def test_format_fraction_renders_each_half_past_the_cutover(format_int_calls, case):
    # each half goes through format_int on its own, past the cutover at its
    # own width; the output is str's at any int/str digit limit
    p, q = FRACTION_PAIRS_PAST_THE_CUTOVER[case]
    with _int_str_limit_set(0):
        want = f"{p}/{q}"
    for limit in (640, getattr(sys.int_info, "default_max_str_digits", 0)):
        format_int_calls.clear()
        with _int_str_limit_set(limit):
            got = format_fraction(p, q)
        assert got == want, limit
        assert format_int_calls == [p, q], limit


def test_format_fraction_below_the_cutover_renders_each_half_alone(format_int_calls):
    # below the cutover each half is format_int's; at limit 640 str refuses
    # both, and each takes the split at powers of ten at its own width
    p, q = 3**20000, -(7**9000)
    assert max(p.bit_length(), q.bit_length()) <= INT_STR_CUTOVER
    with _int_str_limit_set(0):
        want = f"{p}/{q}"
    with _int_str_limit_set(640):
        assert format_fraction(p, q) == want
    assert format_int_calls == [p, q]


def test_oracle_runs_under_the_interpreters_limit(capsys, monkeypatch, default_int_str_limit):
    # nothing lifts the int/str limit around the engine or the oracle
    if default_int_str_limit is None:
        pytest.skip("this interpreter has no int/str digit limit")
    true_certifier = oracle.certified_floor
    seen = []

    def spy(*args):
        seen.append(sys.get_int_max_str_digits())
        return true_certifier(*args)

    monkeypatch.setattr(oracle, "certified_floor", spy)
    rc, _, err = run_cli(capsys, "approx", "--n", "3", "--k", "2", "--digits", "30")
    assert rc == 0, err
    assert seen and set(seen) == {default_int_str_limit}


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
    params, ones = Params(2, 2), (1, 1)
    with _int_str_limit_set(0):
        for row in obj["rows"]:
            t = int(row[0])
            assert Fraction(row[1]) == Fraction(*apply_power(params, t, ones))


def test_trace_start_stays_under_int_str_limit(capsys, default_int_str_limit):
    # argv text is parsed under the interpreter's limit, which main never changes
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


# stdlib modules that ratroot.cli imports only on the paths that use them
# (fractions also loads numbers and decimal)
DEFERRED_MODULES = ("json", "csv", "decimal", "fractions", "numbers", "random", "signal")


def _run_bare(code):
    """stdout of code run by a fresh ``python -S`` with ratroot on its path.

    -S: site itself may import pathlib; only what ratroot loads counts.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_import_leaves_heavy_modules_unloaded():
    heavy = {"numpy", "dataclasses", "inspect", "pathlib", "ratroot.checks", *DEFERRED_MODULES}
    code = f"import sys, ratroot.cli; print(sorted({heavy!r} & set(sys.modules)))"
    assert _run_bare(code) == "[]\n"


def test_hot_paths_leave_deferred_modules_unloaded():
    # plain output of integers at or below INT_STR_CUTOVER needs none of them,
    # nor does a table split over forked children (with two usable CPUs);
    # --digits 6000 renders a 6,001-digit decimal cell (about 19.9 kbit),
    # past the default int/str limit, by the split at powers of ten; the
    # (2, 1000) answer at 89 digits has a 32,680-bit reduced q, just below
    # the trigger of approx's Decimal ladder, which its 90-digit answer
    # passes; --digits 20000 renders integers past the cutover. Only selftest
    # loads ratroot.checks
    code = textwrap.dedent(f"""
        import io, sys
        from ratroot.cli import main
        stdout, sys.stdout = sys.stdout, io.StringIO()
        def loaded(*argvs):
            for argv in argvs:
                assert main(argv.split()) == 0, argv
            print(*(m for m in {(*DEFERRED_MODULES, "ratroot.checks")!r} if m in sys.modules),
                  file=stdout)
        loaded("approx --n 3 --k 2 --digits 30", "table --n 2 --k 2 --t1 40",
               "table --n 3 --k 7 --t1 1100", "chpow --n 5 --k 7 --fib 12",
               "approx --n 2 --k 2 --digits 6000", "approx --n 2 --k 1000 --digits 89")
        loaded("approx --n 2 --k 1000 --digits 90")
        loaded("approx --n 2 --k 2 --digits 20000")
    """)
    small, trigger, large = (set(line.split()) for line in _run_bare(code).splitlines())
    assert small == set()
    assert "decimal" in trigger and "decimal" in large
    assert not {"json", "csv", "fractions", "random"} & (trigger | large)
    assert "ratroot.checks" not in small | trigger | large


def test_selftest_alone_loads_the_checks():
    code = ("import sys\nfrom ratroot.cli import main\n"
            "rc = main(['selftest'])\nprint(rc, 'ratroot.checks' in sys.modules)")
    assert _run_bare(code).splitlines() == [
        "PASS table-reproduction", "PASS cayley-hamilton", "PASS engine-agreement",
        "PASS rate-check-2-2", "0 True"]


def test_cli_import_builds_no_parser():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import ratroot.cli as c; print(c.build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "0\n", out.stderr


def test_parser_is_built_once():
    assert build_parser() is build_parser()


# successes, help, usage errors and a mutually exclusive pair, in one process
PARSER_SEQUENCE = [
    ["approx", "--n", "3", "--k", "2", "--digits", "20"],
    ["--help"],
    ["chpow", "--help"],
    ["table", "--n", "2"],
    ["chpow", "--n", "3", "--k", "2", "--t", "5", "--fib", "3"],
    ["chpow", "--n", "3", "--k", "2", "--fib", "3"],
    ["trace", "--mode", "linear", "--n", "3", "--k", "2", "--start", "1,2,3"],
    ["nosuch"],
    ["approx", "--n", "3", "--k", "2", "--digits", "20"],
]


def test_shared_parser_matches_a_fresh_parser_per_call(capsys):
    shared = [run_cli(capsys, *argv) for argv in PARSER_SEQUENCE]
    fresh = []
    for argv in PARSER_SEQUENCE:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 1, 1, 0, 0, 1, 0]
    assert shared == fresh


# --- approx's n = 2 ladder on exact Decimals ----------------------------------

# k in each class mod 8: for n = 2 the content of (1 + x)**t is 1 at even k
# and grows with t at odd k
k_mod8_st = st.builds(lambda j, r: 8 * j + r, st.integers(0, 1250), st.integers(1, 8))


def _two_content(c):
    """The largest s with 2**s dividing every int in c (none all zero)."""
    low = 0
    for a in c:
        low |= a
    return (low & -low).bit_length() - 1


@given(st.integers(2, 8), k_mod8_st, st.integers(0, 1000))
@settings(max_examples=80, deadline=None)
def test_halved_decimal_ladder_is_the_int_power_over_its_two_content(n, k, t):
    # the Decimal ladder holds the power with its common factor of two taken
    # out at every step, so it ends at the int power shifted by its common
    # trailing zeros; at n = 2 the pair approx reads off it and halves is
    # reduced_pair's pair of M**t (1, 1), and so is the halved ladder for
    # t + 1
    params = Params(n, k)
    power = engine.ring_pow_one_plus_x(params, t)
    s = _two_content(power)
    with core.exact_decimal():
        halved = engine.ring_pow_one_plus_x(params, t, decimal.Decimal, engine.halved)
        assert tuple(map(str, halved)) == tuple(str(a >> s) for a in power)
        if n == 2:
            want = tuple(map(str, engine.reduced_pair(*engine.ones_pair(params, power), 2)))
            pair = engine.halved(engine.ones_pair(params, halved))
            assert tuple(map(str, pair)) == want
            pair = engine.ring_pow_one_plus_x(params, t + 1, decimal.Decimal, engine.halved)
            assert tuple(map(str, pair)) == want


@given(st.integers(2, 8), k_mod8_st, st.integers(1, 60), st.sampled_from(["plain", "csv", "json"]))
@settings(max_examples=60, deadline=None)
def test_approx_prints_the_same_with_the_decimal_ladder_forced_on_and_off(n, k, digits, fmt):
    # the Decimal ladder (which replaced the decimal twin) forced on and off
    # through its trigger: a cutover of 0 puts every inexact n = 2 request
    # on one Decimal ladder from its first attempt, and a cutover past every
    # answer puts none there; every byte must match
    argv = ["approx", "--n", str(n), "--k", str(k), "--digits", str(digits), "--format", fmt]
    kinds = []
    true_ladder = engine.ring_pow_one_plus_x

    def counting_ladder(params, t, *args):
        kinds.append(args[0] if args else int)
        return true_ladder(params, t, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "ring_pow_one_plus_x", counting_ladder)
        m.setattr(render, "INT_STR_CUTOVER", 0)
        on = grid.replay(argv)
        forced = kinds.copy()
        kinds.clear()
        m.setattr(render, "INT_STR_CUTOVER", 2**40)
        off = grid.replay(argv)
    assert on == off and on[0] == 0, on
    exact = any(r**n == k for r in range(1, 101))  # k <= 10007
    assert forced == ([] if exact else [decimal.Decimal] if n == 2 else [int]), (forced, exact)
    assert kinds == ([] if exact else [int]), kinds


@pytest.mark.parametrize("n,k,digits,cutover", [
    (3, 9973, 150, INT_STR_CUTOVER),  # a 41 kbit q
    *((n, 7, 30, 0) for n in range(3, 9)),  # every answer past a cutover of 0
])
def test_approx_never_runs_the_twin_for_n_above_2(capsys, monkeypatch, n, k, digits, cutover):
    # no Decimal ladder (which replaced the decimal twin) runs for n >= 3,
    # whatever the cutover, and no attempt is certified on Decimals
    true_ladder, true_floor = engine.ring_pow_one_plus_x, oracle.certified_floor
    kinds = []

    def counting_ladder(params, t, *args):
        kinds.append(args[0] if args else int)
        return true_ladder(params, t, *args)

    def int_floor(p, q, params, d):
        assert isinstance(q, int), type(q)
        return true_floor(p, q, params, d)

    monkeypatch.setattr(oracle, "certified_floor", int_floor)
    monkeypatch.setattr(render, "INT_STR_CUTOVER", cutover)
    monkeypatch.setattr(engine, "ring_pow_one_plus_x", counting_ladder)
    rc, _, err = run_cli(capsys, "approx", "--n", str(n), "--k", str(k), "--digits", str(digits))
    assert rc == 0, err
    assert kinds == [int]


def _bumped(seq):
    """seq with its first entry one more, as the same sequence type."""
    return type(seq)([seq[0] + 1, *seq[1:]])


def _bumped_corner(matrix):
    """matrix with its top-left entry one more."""
    return (_bumped(matrix[0]), *matrix[1:])


def _after(true, change):
    """true with change applied to every result."""
    return lambda *args: change(true(*args))


def _bracket_ends(params, state):
    lo = oracle.nth_root_bracket(params, 45)
    return (lo, 10**45), (lo + 1, 10**45)


# id: (module, attribute, the corruption built from the true function, the
# selftest groups that must print FAIL, and whether they must be the only
# FAIL lines, in order)
SABOTAGES = {
    # a wrong ring route
    "engine": (engine, "apply_power", lambda f: _after(f, _bumped), ["engine-agreement"], False),
    # a wrong squaring kernel
    "square": (engine, "square_ring", lambda f: _after(f, _bumped), ["engine-agreement"], False),
    # a wrong square past the schoolbook cutover, though no random case
    # squares that many coefficients
    "karatsuba": (engine, "_square",
                  lambda f: lambda a: _bumped(f(a)) if len(a) > engine.SQR_CUTOVER else f(a),
                  ["engine-agreement"], False),
    # an n = 2 convergent left unreduced; every k = 2 state has content 1, so
    # only a k = 3 row shows it
    "reduction": (engine, "reduced_pair",
                  lambda f: lambda p, q, n: (p, q) if n == 2 else f(p, q, n),
                  ["table-reproduction"], False),
    # a Decimal ladder that keeps the power-of-two content; its odd-k
    # answer carries one
    "decimal_ladder_halving": (engine, "halved", lambda f: lambda c: c, ["table-reproduction"],
                               False),
    # a wrong binomial start of the ladder
    "binomial_row": (engine, "_binomial_row", lambda f: _after(f, _bumped), ["engine-agreement"],
                     False),
    # a wrong iteration matrix
    "companion_matrix": (engine, "companion_matrix", lambda f: _after(f, _bumped_corner),
                         ["cayley-hamilton"], False),
    # a predicted rate 10% low
    "rate": (spectral, "convergence_rate", lambda f: _after(f, lambda r: (r[0], 0.9 * r[1])),
             ["rate-check-2-2"], False),
    # a wrong O(n) step of M
    "step": (engine, "step_one_plus_x", lambda f: _after(f, _bumped), ["engine-agreement"], False),
    # a wrong power-basis expansion
    "power_basis": (engine, "power_basis_coeffs", lambda f: _after(f, _bumped),
                    ["engine-agreement"], False),
    # a chain that starts one Fibonacci number early
    "fib_chain": (engine, "fib_power_chain",
                  lambda f: lambda params, length: [(1, engine.power_basis_coeffs(params, 1)),
                                                    *f(params, length - 1)],
                  ["engine-agreement"], False),
    # a wrong matrix reference trips both checks that reach it, and no other
    "matrix_power": (engine, "mat_pow", lambda f: _after(f, _bumped_corner),
                     ["cayley-hamilton", "engine-agreement"], True),
    # a certifier that claims one digit too many
    "certifier": (oracle, "digits_of_ratio", lambda f: _after(f, lambda d: d + 1),
                  ["table-reproduction"], False),
    # a certified_floor that certifies every pair, or returns a floor one too
    # high
    "certified_floor-every-pair": (oracle, "certified_floor",
                                   lambda f: lambda p, q, params, d: p * 10**d // q,
                                   ["table-reproduction"], False),
    "certified_floor-wrong-floor": (oracle, "certified_floor",
                                    lambda f: _after(f, lambda x: None if x is None else x + 1),
                                    ["table-reproduction"], False),
    # an enclosure of the oracle's own 45-digit bracket certifies the cap at
    # once, so the digits cell freezes at the first check, rows before the
    # cap; the table group must see those rows' own certificates differ
    "enclosure": (recursion, "enclosure", lambda f: _bracket_ends, ["table-reproduction"], False),
}


@pytest.mark.parametrize("sabotage", SABOTAGES)
def test_selftest_catches_sabotaged(capsys, monkeypatch, sabotage):
    # selftest reaches the code through module attributes, so a corrupted
    # attribute must make its groups print FAIL and the run exit 3
    module, attribute, corrupt, groups, only = SABOTAGES[sabotage]
    monkeypatch.setattr(module, attribute, corrupt(getattr(module, attribute)))
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 3
    failed = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL ")]
    if only:
        assert failed == [f"FAIL {group}" for group in groups]
    else:
        assert all(f"FAIL {group}" in failed for group in groups), failed


def test_cayley_hamilton_check_reaches_n_max(monkeypatch):
    # a reference wrong only at n = n_max must fail the check: a loop that
    # stopped one n early would pass it
    true_pow = engine.mat_pow

    def corrupt_at_n_max(a, t):
        (p00, *row0), *rows = true_pow(a, t)
        return ((p00 + (len(a) == 5), *row0), *rows)

    monkeypatch.setattr(engine, "mat_pow", corrupt_at_n_max)
    checks.check_cayley_hamilton(4)
    with pytest.raises(AssertionError, match="at n=5, k=1"):
        checks.check_cayley_hamilton(5)


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


@pytest.mark.parametrize("argv", [
    ["table", "--n", "2", "--k", "2", "--t1", "3000"],
    ["table", "--n", "3", "--k", "7", "--t1", "3000", "--format", "csv"],
    ["table", "--n", "2", "--k", "2", "--t1", "3000", "--format", "json"],
], ids=["plain", "csv", "json"])
def test_payload_is_written_without_a_whole_copy(tmp_path, capsys, argv):
    # the rows are held once as cells and written line by line; a payload
    # joined into one string before writing would peak at over 3x the file
    target = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        rc = main([*argv, "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    size = target.stat().st_size
    assert peak <= 2 * size, (peak, size)


def test_failed_run_writes_nothing(tmp_path, capsys):
    target = tmp_path / "x"
    rc, out, err = run_cli(
        capsys, "trace", "--mode", "linear", "--n", "2", "--k", "1",
        "--start=-1,1", "--steps", "3", "--out", str(target),
    )
    assert rc == 2 and out == ""
    assert "zero vector" in err, err
    assert not target.exists()


def test_out_flag_unwritable_path_exits_1(tmp_path, capsys):
    # an empty path is no path: it is refused, not taken to mean stdout
    target = tmp_path / "missing" / "x.csv"
    for path in [str(target), ""]:
        rc, out, err = run_cli(capsys, "table", "--n", "2", "--k", "2", "--out", path)
        assert rc == 1 and out == ""
        assert err.startswith(f"ratroot: error: cannot write {path}"), err
    assert not target.exists()  # not Path(""), which is the working directory


def _cli_process(argv, unbuffered, stdout, **popen):
    """``python -m ratroot.cli argv`` started with PYTHONUNBUFFERED set either
    way, writing to stdout, with its stderr piped; ``popen`` goes to Popen."""
    return _python_process(["-m", "ratroot.cli", *argv], unbuffered, stdout, **popen)


def _python_process(args, unbuffered, stdout, **popen):
    """``python args`` with ratroot importable, as :func:`_cli_process`."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "PYTHONUNBUFFERED": "1" if unbuffered else ""}
    return subprocess.Popen([sys.executable, *args], env=env,
                            stdout=stdout, stderr=subprocess.PIPE, **popen)


# a 7 MB answer whose reader stops after one line, and three commands whose
# reader is gone before the first byte; each with stdout buffered and not
CLOSED_READERS = [
    pytest.param(argv, lines, unbuffered, id=name + "-unbuffered" * unbuffered)
    for unbuffered in (False, True)
    for name, argv, lines in [
        *((fmt, ["table", "--n", "2", "--k", "2", "--t1", "3000", "--format", fmt], 1)
          for fmt in ("plain", "csv", "json")),
        ("selftest", ["selftest"], 0),
        ("help", ["--help"], 0),
        ("approx-help", ["approx", "--help"], 0),
    ]
]


@pytest.mark.parametrize("argv, lines, unbuffered", CLOSED_READERS)
def test_closed_stdout_pipe_exits_141_silently(argv, lines, unbuffered):
    # the write fails with EPIPE, which ends the run as SIGPIPE would, with
    # no traceback
    r, w = os.pipe()
    if not lines:
        os.close(r)
    proc = _cli_process(argv, unbuffered, w)
    os.close(w)
    if lines:
        with open(r, "rb") as reader:
            assert reader.readline()
    assert proc.communicate(timeout=60)[1] == b""
    assert proc.returncode == 141


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["approx", "--n", "2", "--k", "2", "--digits", "5"],
                                  ["selftest"], ["--help"], ["approx", "--help"]],
                         ids=["approx", "selftest", "help", "approx-help"])
def test_full_stdout_exits_1_with_one_error_line(argv, unbuffered):
    # any write error on stdout but a closed reader is reported as --out's are
    with open("/dev/full", "wb") as full:
        proc = _cli_process(argv, unbuffered, full)
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1
    assert err == f"ratroot: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_stdout_leaves_a_library_callers_fd_1(unbuffered):
    # main refuses the write as the CLI does, then hands fd 1 back as it found
    # it; the caller's exit flush finds nothing left to write
    code = ("import os\n"
            "from ratroot import cli\n"
            "before = os.fstat(1)\n"
            "rc = cli.main(['approx', '--n', '2', '--k', '2', '--digits', '5'])\n"
            "assert rc == 1, rc\n"
            "assert os.path.samestat(before, os.fstat(1)), os.fstat(1)\n")
    with open("/dev/full", "wb") as full:
        proc = _python_process(["-c", code], unbuffered, full)
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 0, err
    assert err == f"ratroot: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("argv, rc", [
    (["approx", "--n", "2", "--k", "2", "--digits", "5"], 1),
    (["approx", "--n", "2", "--k", "2", "--digits", "5", "--out", "OUT"], 0),
    (["--help"], 0),
    (["selftest"], 0),
], ids=["record", "out", "help", "selftest"])
def test_no_stdout_refuses_only_a_record_bound_there(tmp_path, argv, rc):
    # started with fd 1 closed, so sys.stdout is None: a record for stdout is
    # refused as /dev/full's is; --out needs no stdout, argparse sends help
    # to stderr, and selftest's answer is its exit status
    target = tmp_path / "out.txt"
    argv = [str(target) if a == "OUT" else a for a in argv]
    proc = _cli_process(argv, False, None, preexec_fn=lambda: os.close(1))
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == rc, err
    if rc:
        assert err == f"ratroot: error: cannot write stdout: {os.strerror(errno.EBADF)}\n"
    if "--out" in argv:
        assert target.read_text().startswith("# command = approx\n")


def _readme_cli_lines():
    """The ``ratroot ...`` lines of the sh block under "## CLI", as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("ratroot ")]


def test_readme_cli_examples_run_as_written(capsys):
    argvs = _readme_cli_lines()
    assert len(argvs) == 8
    rows = {}
    for argv in argvs:
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 0, (argv, err)
        # plain output: "# key = value" lines, the column header, then rows
        rows[" ".join(argv)] = [line.split() for line in out.splitlines()
                                if not line.startswith("#")][1:]
    # the claims in the block's comments: M**5 = 12*I + 29*M, and the chain
    # of length 5 has exponents 2, 3, 5, 8, 13
    assert rows["chpow --n 2 --k 2 --t 5"] == [["5", "12", "29"]]
    fib = rows["chpow --n 2 --k 2 --fib 5"]
    assert [row[0] for row in fib] == ["2", "3", "5", "8", "13"]
