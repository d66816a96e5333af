"""Command-line surface: approximation runs, tables, traces, eigen reports,
power-basis coefficient dumps, and a fast self-test.

Each command is declared once, in ``build_parser``: one ``_add_command``
call names it with its builder, and the flags added to the returned
subparser follow. ``main`` calls the builder argparse stores on the parsed
namespace; only ``selftest`` is special-cased. The parser is built once per
process, on the first ``main`` call, and shared read-only after that:
parsing keeps its state in the namespace it returns, not on the parser.

Output goes to stdout or the ``--out`` file (plain aligned text, CSV, or
JSON), errors to stderr. Every row is built before the first byte is
written, so a run that fails writes nothing and creates no ``--out`` file;
the rows are then written line by line and never joined into one string.
``table --n 2 --k 2 --t1 10000`` (a 77 MB answer) peaks at about 56 MB RSS
this way, in its largest process (``RUSAGE_CHILDREN``'s ``ru_maxrss``, so
its forked child counts), against 276 MB joined (CPython 3.11.7).

Exit codes: 0 success, 1 usage error (``core.UsageError``: an argument
outside its domain, argparse's refusals included) or an ``--out`` file or
stdout that cannot be written, 2 domain error (zero vector, scalar-map
pole, ``eig`` past the float range), 3 non-convergence or self-test
failure, 141 stdout closed by its reader before the answer was written
(the status a shell reports for a process ended by SIGPIPE; nothing goes
to stderr), for every command, ``selftest`` and ``--help`` included.
``EXIT_CODES`` maps each refusal to its code, and ``main`` prints its one
``ratroot: error:`` line; any other exception is a bug, which ``main``
does not catch, and the run ends with its traceback. After a failed stdout
write ``main`` leaves fd 1 as it found it, so a program that calls it
keeps its own stdout.
Every command is byte-deterministic: the same argv gives the same stdout and
exit code.

A large ``table`` is built on every usable CPU. When ``os.fork`` exists,
more than one CPU is usable, no second thread runs and the table's
estimated work reaches ``TABLE_SPLIT_WORK`` (6.5-12 ms of work on a 2-core
Xeon, so tables of a few hundred rows stay in one process), its steps
are cut into one contiguous span per usable CPU, balanced by estimated row
cost: rows grow with t, so later spans hold fewer of them. This process
builds the first span; a forked child builds each later one, jumping to its
first step by ``engine.apply_power``, and sends its rows back over a pipe.
A span is taken from its child's lines alone, and only when they are
whole; a span whose fork fails or whose lines are not whole is built here
instead. Output, exit codes and "a run that fails writes nothing" are the
same on every path: no child writes to stdout or ``--out``, and every
child is reaped before ``main`` returns. ``approx``, ``chpow`` and
``trace`` run in one process; each is one ladder or one trajectory.

``approx`` and ``table`` print each convergent as the pair that
``engine.reduced_pair`` reduces; neither builds a ``Fraction``.

``approx`` certifies each attempt by ``oracle.certified_floor``, and
``table`` by ``oracle.digits_of_ratio``.

``table`` freezes its decimal and digits cells once ``recursion.enclosure``
proves them for every later row (``_table_rows``); the output is the same
as without the freeze.

Every int and fraction is written by ``render``, whose docstring gives the
three ranges of ``format_int``, CPython's int/str digit limit, and
``approx``'s ``Decimal`` ladder past ``render.INT_STR_CUTOVER``.

``selftest`` runs the reference checks of ``checks``, which the acceptance
suite runs at its own sizes.

Start-up: ``import ratroot.cli`` loads ``argparse`` and the package, the
small ``division`` and ``render`` modules included; ``checks`` is imported
by ``selftest`` alone. Six stdlib modules are imported where they are
first used: ``json`` by ``--format json``, ``csv`` by ``--format csv``,
``decimal`` by ``format_int`` for an integer past the cutover and by
``approx``'s ``Decimal`` ladder, ``fractions`` (which loads ``decimal``) by
``trace --mode scalar``, ``random`` by ``selftest``, and ``signal`` when an
exception leaves a split ``table`` whose children must be killed. A plain
``approx``, ``table`` or ``chpow`` loads none of them unless it renders an
integer past the cutover: ``approx --n 2 --k 2 --digits 6000`` loads none
for its 6,001-digit decimal cell (about 19.9 kbit), which the split
renders although the default limit refuses it to ``str``.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import errno
import math
import os
import re
import sys
from collections import namedtuple
from functools import cache

from . import engine, oracle, recursion, render, spectral
from .core import (NonConvergence, Params, PoleEncountered, UsageError, ZeroVector,
                   exact_decimal)
# the builders call these through this module's globals, where
# perfbench/worker.py wraps format_fraction and format_decimal to time them
from .render import format_decimal, format_fraction, format_int

TABLE_DECIMAL_PLACES = 6
TABLE_DIGITS_CAP = 40
APPROX_BURN_IN = 10
DEFAULT_MAX_T = 10**6

# Entry bit length grows linearly in t, about t*log2(1 + k**(1/n)) bits, so
# memory is the only ceiling on exponents.
GROWTH_NOTE = "entry size grows ~ t*log2(1 + k**(1/n)) bits; t is bounded only by memory"

CONVERGENT_COLUMNS = ("t", "fraction", "decimal", "digits")

# table's estimate of a row's cost, in squared bits (see _table_spans). On a
# 2-core Xeon under CPython 3.11.7 a row takes about 4 us plus 2.1e-6 us per
# squared bit for n = 2, and twice that per squared bit for n >= 3. Forking
# a child, reading its rows back and reaping it cost 1-3 ms there, so a
# table stays in one process below TABLE_SPLIT_WORK: tables at it take
# 6.5-12 ms in one process, and 0.73-0.90 of that split over two CPUs.
TABLE_ROW_BASE = 2e6
TABLE_SPLIT_WORK = 4e9

class OutputRecord(namedtuple("OutputRecord", "command meta columns rows")):
    """Ready-to-write payload: run metadata plus stringified rows."""

    __slots__ = ()

    def write(self, fmt: str, out) -> None:
        """Write the payload to the text stream out, a line at a time.

        fmt is one of the --format choices, which argparse has checked.
        """
        if fmt == "plain":
            self._write_plain(out)
        elif fmt == "csv":
            self._write_csv(out)
        else:
            self._write_json(out)

    def _write_plain(self, out) -> None:
        out.write(f"# command = {self.command}\n")
        for key, value in self.meta.items():
            out.write(f"# {key} = {value}\n")
        line = "  ".join(f"{{:<{max(map(len, col))}}}" for col in zip(self.columns, *self.rows))
        for cells in (self.columns, *self.rows):
            out.write(line.format(*cells).rstrip() + "\n")

    def _write_csv(self, out) -> None:
        import csv

        writer = csv.writer(out)
        writer.writerow(self.columns)
        writer.writerows(self.rows)

    def _write_json(self, out) -> None:
        import json

        json.dump(self._asdict(), out, indent=2)  # keys in field order
        out.write("\n")


def build_table(params: Params, t0: int, t1: int, index: int) -> OutputRecord:
    """Rows (t, reduced fraction, 6-place decimal, certified digits).

    The steps t0..t1 are cut into contiguous spans (:func:`_table_spans`):
    one span, unless the table is large and more than one CPU is usable.
    Every span is built by :func:`_table_rows`, the first here and each
    later one in a forked child (:func:`_span_rows`), so the rows are the
    same on every path.
    """
    if not 0 <= t0 <= t1:
        raise UsageError(f"need 0 <= t0 <= t1, got t0={t0}, t1={t1}")
    if not 1 <= index <= params.n - 1:
        raise UsageError(f"ratio index must be in 1..{params.n - 1}, got {index}")
    rows = _span_rows(params, _table_spans(params, t0, t1), index)
    meta = {
        "n": str(params.n),
        "k": str(params.k),
        "t0": str(t0),
        "t1": str(t1),
        "index": str(index),
    }
    return OutputRecord("table", meta, list(CONVERGENT_COLUMNS), rows)


def _table_rows(params: Params, first: int, last: int, index: int) -> list[list[str]]:
    """The table rows of steps first..last.

    Jumps to ``first`` in one shot, then takes one O(n) step of M per row,
    so only the current state is held.

    The decimal and digits cells freeze once the iteration proves them for
    every later row. ``recursion.enclosure`` brackets the ratio of this
    step and, by Collatz-Wielandt, of every later one, so a cell that both
    ends of a bracket give is the cell of every later row: the fractions
    with one truncated decimal form an interval, and so do the fractions
    that certify the cap. The ends are measured by ``format_decimal`` and
    ``oracle.digits_of_ratio`` themselves, so the freeze needs no precision
    of its own.
    The first bracket is taken at the first row that certifies more than
    TABLE_DECIMAL_PLACES digits; while a cell is unfrozen the next comes 8
    rows later, then every max(8, (t - first bracket) // 4) rows, until the
    digits cell freezes. A frozen row still steps, reduces and renders its
    fraction. Every span decides on its own, so the rows are the same
    however the table is split.
    """
    places, cap = TABLE_DECIMAL_PLACES, TABLE_DIGITS_CAP
    entries = engine.apply_power(params, first, (1,) * params.n)
    rows = []
    decimal = digits = None  # a cell, once an enclosure fixes it for every later row
    start = check = None  # the steps of the first and the next enclosure
    for t in range(first, last + 1):
        if t > first:
            entries = engine.step_one_plus_x(entries, params.k)
        p, q = engine.reduced_pair(entries[index - 1], entries[index], params.n)
        if digits is None:
            certified = oracle.digits_of_ratio(p, q, params, cap)
            if start is None and certified > places:
                start = check = t
            if t == check:
                lo, hi = recursion.enclosure(params, entries)
                if decimal is None:
                    cell = format_decimal(*lo, places)
                    decimal = cell if cell == format_decimal(*hi, places) else None
                if all(oracle.digits_of_ratio(*end, params, cap) == cap for end in (lo, hi)):
                    digits = str(cap)
                check = t + max(8, (t - start) // 4)
        rows.append([str(t), format_fraction(p, q), decimal or format_decimal(p, q, places),
                     digits or str(certified)])
    return rows


def _table_spans(params: Params, t0: int, t1: int) -> list[tuple[int, int]]:
    """Steps t0..t1 as contiguous (first, last) spans of about equal cost.

    The row of step t is estimated to cost TABLE_ROW_BASE + w*b**2, with
    b = t*log2(1 + k**(1/n)) its entries' bit length: ``str`` and, for
    n >= 3, the gcd are quadratic in b, so w is 1 for n = 2 and 2 for
    n >= 3. Later rows cost more, so later spans are shorter.

    The table is one span when its estimated work is below
    TABLE_SPLIT_WORK, when one CPU is usable, where ``os.fork`` does not
    exist, or when a second thread runs (a fork copies only the calling
    thread; threads are seen through ``threading``). Otherwise it gets one
    span per usable CPU, but at most one more than the whole multiples of
    TABLE_SPLIT_WORK its work reaches, so every span pays for its fork.
    """
    try:
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")
    if cpus < 2 or not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return [(t0, t1)]
    lr = math.log2(params.k) / params.n  # log2(r); log2(1 + r) = lr + log2(1 + 1/r)
    w = (lr + math.log2(1 + 2**-lr)) ** 2 * (1 if params.n == 2 else 2)

    def work(t):  # the estimated cost of the rows of steps 0..t-1
        return TABLE_ROW_BASE * t + w * t**3 / 3

    try:
        base, total = work(t0), work(t1 + 1) - work(t0)
    except OverflowError:  # t past the float range: no such table can finish
        return [(t0, t1)]
    count = min(cpus, 1 + int(total // TABLE_SPLIT_WORK))
    firsts = [t0]
    for i in range(1, count):  # the first step whose rows before pass i/count of the work
        first = bisect.bisect_left(range(t1 + 1), total * i / count, firsts[-1] + 1,
                                   key=lambda t: work(t) - base)
        if first <= t1:
            firsts.append(first)
    return [(a, b - 1) for a, b in zip(firsts, firsts[1:] + [t1 + 1])]


def _span_rows(params: Params, spans, index: int) -> list[list[str]]:
    """The rows of all spans: the first built here, each later one in a
    forked child.

    A child builds its span with :func:`_table_rows`, taking the oracle's
    bracket itself, writes each row to its pipe as one line of tab-separated
    cells (no cell holds a tab or a newline), and ends by ``os._exit``, so
    it never flushes this process's stdio buffers or returns into its
    caller. This process builds the first span, then reads the children's
    pipes in span order. A span is taken from its child's lines alone, and
    only when they are whole: one line per step, the last ending in a
    newline. The child builds every row before its first write, so whole
    lines are its rows whatever its exit status, which the wait therefore
    never reads. A span whose fork fails or whose lines are too few or cut
    short is built here instead. Every child is reaped before this returns
    or raises; a child still running when an exception leaves is killed.
    Where SIGCHLD is ignored the kernel reaps each child itself and the wait
    reports ECHILD; such a child is never signalled, as its pid may be
    another's by then. SIGCHLD's disposition is left as the caller set it.
    """
    children = []  # [pid, read pipe, first, last]; pid None once reaped
    try:
        for first, last in spans[1:]:
            children.append([*_fork_span(params, first, last, index), first, last])
        rows = _table_rows(params, *spans[0], index)
        for child in children:
            pid, pipe, first, last = child
            span, line = [], ""  # line: the last one read, whole if it ends in a newline
            if pid is not None:
                for line in pipe:  # split as read, so no line outlives its cells
                    span.append(line[:-1].split("\t"))
                with contextlib.suppress(ChildProcessError):  # reaped for us: SIGCHLD ignored
                    os.waitpid(pid, 0)
                child[0] = None
            if len(span) != last - first + 1 or not line.endswith("\n"):
                span = _table_rows(params, first, last, index)
            rows += span
        return rows
    finally:
        for pid, pipe, _, _ in children:
            if pipe is not None:
                pipe.close()
            with contextlib.suppress(ChildProcessError):  # reaped for us: never signalled
                if pid is not None and os.waitpid(pid, os.WNOHANG)[0] == 0:  # still running
                    import signal

                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _fork_span(params: Params, first: int, last: int, index: int):
    """(pid, read end) of a forked child that writes the rows first..last
    to a pipe, or (None, None) where the pipe or the fork fails. The read
    end is an ASCII text file that splits lines at newlines alone.

    This process closes the write end right after the fork, so no later
    child holds it, and the pipe's end of file waits on this child alone.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None, None
    if pid:
        os.close(w)
        return pid, open(r, encoding="ascii", newline="\n")
    status = 1
    try:
        os.close(r)
        rows = _table_rows(params, first, last, index)
        with open(w, "w", encoding="ascii", newline="\n") as pipe:
            for row in rows:
                pipe.write("\t".join(row) + "\n")
        status = 0
    finally:
        os._exit(status)


def build_trace_linear(params: Params, start: tuple[int, ...], steps: int) -> OutputRecord:
    states = recursion.iterate_linear(params, start, steps)
    columns = ["t"] + [f"x{i + 1}" for i in range(params.n)]
    rows = [[str(t), *map(format_int, s)] for t, s in enumerate(states)]
    meta = {
        "mode": "linear",
        "n": str(params.n),
        "k": str(params.k),
        "start": ",".join(str(e) for e in start),
        "steps": str(steps),
    }
    return OutputRecord("trace", meta, columns, rows)


def build_trace_scalar(params: Params, r0: Fraction, steps: int) -> OutputRecord:
    ratios = recursion.iterate_scalar_map(params, r0, steps)
    rows = [[str(t), format_fraction(r.numerator, r.denominator)] for t, r in enumerate(ratios)]
    meta = {
        "mode": "scalar",
        "n": str(params.n),
        "k": str(params.k),
        "start": format_fraction(ratios[0].numerator, ratios[0].denominator),
        "steps": str(steps),
    }
    return OutputRecord("trace", meta, ["t", "ratio"], rows)


def build_eig(params: Params) -> OutputRecord:
    """The n eigenvalues, dominant (j = 0) first, in O(n): no eigenvector is built.

    ``rho`` and ``digits_per_step`` are ``spectral.convergence_rate``'s, read
    off the same eigenvalues, so ``eig`` answers whenever r = k**(1/n) fits
    a float, even where the eigenvectors would not. ``degenerate`` marks
    rho = 0 (n = 2, k = 1), where convergence is a single exact step.
    """
    _, values, _ = spectral.spectrum(params)
    rho, dps = spectral.convergence_rate(params)
    meta = {
        "n": str(params.n),
        "k": str(params.k),
        "dominant_index": "0",
        "rho": repr(rho),
        "digits_per_step": repr(dps),
        "degenerate": "true" if rho == 0.0 else "false",
    }
    rows = [
        [str(j), repr(v.real), repr(v.imag), repr(abs(v)), "true" if j == 0 else "false"]
        for j, v in enumerate(values)
    ]
    return OutputRecord("eig", meta, ["j", "re", "im", "modulus", "dominant"], rows)


def build_chpow(params: Params, t: int, fib: int | None) -> OutputRecord:
    """Basis coefficients a with M**t = sum a_i M**i; --fib dumps the chain."""
    columns = ["t"] + [f"a{i}" for i in range(params.n)]
    if fib is not None:
        chain = engine.fib_power_chain(params, fib)
    else:
        chain = [(t, engine.power_basis_coeffs(params, t))]
    rows = [[str(e), *map(format_int, a)] for e, a in chain]
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
    shot, and t doubles until ``oracle.certified_floor`` certifies the
    target; exceeding max_t raises NonConvergence. So does a k whose float
    rate rounds to 1, or a target whose step count passes the float range,
    or a k whose k**((n-1)/n) overflows a float (``spectral.eigenvector_scale``
    refuses it here, as no size bound is known for its powers): no starting
    t can be chosen there.

    Only the first attempt runs the ladder for (1 + x)**t; each doubling
    squares the last attempt's power, and each attempt's entry pair is read
    off that power by ``engine.ones_pair``. Each attempt is certified on
    its unreduced pair, which has the certificate of the reduced fraction;
    only the attempt that certifies is reduced. The certificate's one
    division, floor(p * 10**target_digits / q), is the decimal cell, and
    ``achieved`` is the target: no root but k's own is taken, and no digit
    count is measured.

    The ladder holds ints until an n = 2 attempt's reduced q is predicted
    to pass ``render.INT_STR_CUTOVER`` bits, read at each call. That q has
    about (t + 1)*b - bit_length(k)/2 bits: a step adds log2(1 + k**(1/2))
    = 1 - log2(1 - rho) bits, less the 1, 1/2 or 0 bits of content
    ``engine.reduced_pair`` takes off for k = 1, 3 and 0 or 2 mod 4. That
    attempt builds its ladder afresh on exact ``Decimal``s
    (``core.exact_decimal``), and later attempts square it; no int power is
    converted. ``engine.halved`` reduces the power after every step and
    each pair before it is certified, the certificate and the floor are
    ``Decimal``s, and ``str`` writes the answer.
    """
    if target_digits < 1:
        raise UsageError(f"target digits must be >= 1, got {target_digits}")
    if max_t < 0:
        raise UsageError(f"max t must be >= 0, got {max_t}")
    meta = {
        "n": str(params.n),
        "k": str(params.k),
        "target_digits": str(target_digits),
    }
    root, as_text = oracle.integer_nth_root(params.k, params.n), format_int
    if root**params.n == params.k:
        t, p, q = 0, root, 1
        floor = oracle.certified_floor(root, 1, params, target_digits)
        meta["exact"] = "true"
    else:
        try:
            spectral.eigenvector_scale(params)
            rho, dps = spectral.convergence_rate(params)
            why = "the floating-point rate rounds to 1"
        except OverflowError as exc:
            dps, why = 0.0, str(exc)
        if dps > 0 and target_digits >= dps * sys.float_info.max:
            # target_digits / dps below would overflow; refused like a rate of 1
            why = f"at {dps!r} digits per step the step count passes the float range"
            dps = 0.0
        if not dps > 0:
            raise NonConvergence(
                f"no starting t within ceiling {max_t} can be chosen for "
                f"{target_digits} digits: {why}"
            )
        t, power, floor = math.ceil(target_digits / dps) + APPROX_BURN_IN, None, None
        # the bits a step adds to an n = 2 attempt's reduced q, and the
        # (t + 1)*b past which that q passes INT_STR_CUTOVER
        b = (1, 0, 1, 0.5)[params.k % 4] - math.log2(1 - rho) if params.n == 2 else 0
        big = render.INT_STR_CUTOVER + params.k.bit_length() / 2
        while floor is None:
            if power is not None:
                t *= 2
            if t > max_t:
                raise NonConvergence(
                    f"needed t={t} exceeds ceiling {max_t} for {target_digits} digits"
                )
            if as_text is format_int and (t + 1) * b > big:
                as_text, power = str, None
            if as_text is format_int:
                power = (engine.ring_pow_one_plus_x(params, t) if power is None
                         else engine.square_ring(power, params.k))
                p, q = engine.ones_pair(params, power)
            else:
                with exact_decimal() as decimal:
                    power = (engine.ring_pow_one_plus_x(params, t, decimal.Decimal, engine.halved)
                             if power is None
                             else engine.halved(engine.square_ring(power, params.k)))
                    p, q = engine.halved(engine.ones_pair(params, power))
            floor = oracle.certified_floor(p, q, params, target_digits)
        if as_text is format_int:
            p, q = engine.reduced_pair(p, q, params.n)
        meta.update({"exact": "false", "rho": repr(rho), "digits_per_step": repr(dps)})
    meta.update({"t_used": str(t), "achieved": str(target_digits)})
    rows = [[str(t), f"{as_text(p)}/{as_text(q)}",
             render._point_at(as_text(floor), target_digits), str(target_digits)]]
    return OutputRecord("approx", meta, list(CONVERGENT_COLUMNS), rows)


# --- argument parsing --------------------------------------------------------

class _CliParser(argparse.ArgumentParser):
    """Raises argparse's own usage errors as UsageError, so ``main`` reports
    them as every other refusal, not under the subparser's ``prog``.

    argparse reads a token that starts with "-" as an option unless it
    looks like a negative number, and its own pattern admits only plain ints
    and decimals. Here "-" then a digit (or ".digit") is a value, so
    ``--start -1,1`` and ``--start -5/1`` parse as with ``--start=``.
    Help is written here, not by argparse, which from CPython 3.11 drops a
    failed write; so a failed ``--help`` write reaches ``_to_stdout`` as
    every other stdout write does, buffered or not. Subparsers are made by
    this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        (file or sys.stdout or sys.stderr).write(self.format_help())


def _add_command(subs, name: str, help: str, build):
    """Add command ``name`` with the common flags.

    ``build(args, params)`` reads the command's flags and returns its
    OutputRecord.
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


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="ratroot",
        description="Exact rational approximations to k**(1/n) by integer power iteration. "
        + GROWTH_NOTE + ".",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_command(subs, "approx", "certified approximation to a digit target",
                     lambda a, params: build_approx(params, a.digits, a.max_t))
    p.add_argument("--digits", type=int, required=True, help="decimal digits to certify")
    p.add_argument(
        "--max-t",
        type=int,
        default=DEFAULT_MAX_T,
        help=f"step-doubling ceiling (default {DEFAULT_MAX_T})",
    )

    p = _add_command(subs, "table", "per-step convergents from the all-ones start",
                     lambda a, params: build_table(params, a.t0, a.t1, a.index))
    p.add_argument("--t0", type=int, default=0, help="first step (default 0)")
    p.add_argument("--t1", type=int, default=10, help="last step (default 10)")
    p.add_argument("--index", type=int, default=1, help="adjacent-ratio index, 1..n-1")

    p = _add_command(subs, "trace", "raw states or scalar-map iterates", _build_trace)
    p.add_argument("--mode", choices=("linear", "scalar"), required=True)
    p.add_argument(
        "--start",
        help="comma-separated integers (linear) or a fraction p/q (scalar); "
        "default all ones / 1",
    )
    p.add_argument("--steps", type=int, default=10, help="steps to iterate (default 10)")

    _add_command(subs, "eig", "eigenvalues, dominant pair, convergence rate",
                 lambda a, params: build_eig(params))

    p = _add_command(
        subs, "chpow", "matrix power expanded over I, M, ..., M**(n-1)",
        lambda a, params: build_chpow(params, 2 if a.t is None else a.t, a.fib),
    )
    # --t defaults to None: argparse sees no conflict when a value is the default object
    exponent = p.add_mutually_exclusive_group()
    exponent.add_argument("--t", type=int, help="exponent to expand (default 2)")
    exponent.add_argument(
        "--fib",
        type=int,
        help="emit a chain of this length with exponents 2, 3, 5, 8, ...",
    )

    subs.add_parser("selftest", help="run the fast acceptance subset")

    return parser


def _build_trace(args, params: Params) -> OutputRecord:
    if args.mode == "linear":
        return build_trace_linear(params, _parse_linear_start(args.start, params), args.steps)
    return build_trace_scalar(params, _parse_scalar_start(args.start), args.steps)


def _parse_linear_start(text: str | None, params: Params) -> tuple[int, ...]:
    if text is None:
        return (1,) * params.n
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad linear start {text!r}: {exc}") from None


def _parse_scalar_start(text: str | None) -> Fraction:
    from fractions import Fraction

    if text is None:
        return Fraction(1)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad scalar start {text!r}: {exc}") from None


# The exit code of each refusal. Any other exception is a bug: ``main``
# lets it propagate, and the run ends with its traceback.
EXIT_CODES = {UsageError: 1, ZeroVector: 2, PoleEncountered: 2, OverflowError: 2,
              NonConvergence: 3}


class _ReaderGone(Exception):
    """stdout's reader closed it before the answer was written."""


def main(argv=None) -> int:
    """Run the command ``argv`` names and return its exit code.

    A refusal, an exception of a type in EXIT_CODES, prints its one
    ``ratroot: error:`` line to stderr and returns its code; a stdout whose
    reader is gone returns 141 and prints nothing. Every other exception
    propagates.
    """
    try:
        return _run(argv)
    except _ReaderGone:
        return 141  # as SIGPIPE would end the run, silently
    except tuple(EXIT_CODES) as exc:
        print(f"ratroot: error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


def _run(argv) -> int:
    try:
        args = _to_stdout(build_parser().parse_args, argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command == "selftest":
        from .checks import run_selftest

        return _to_stdout(run_selftest)
    record = args.build(args, Params(args.n, args.k))
    if args.out is not None:
        try:
            with open(args.out, "w") as f:
                record.write(args.format, f)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    elif sys.stdout is None:  # the process started with fd 1 closed
        raise UsageError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    else:
        _to_stdout(record.write, args.format, sys.stdout)
    return 0


def _to_stdout(write, *args):
    """write(*args), which may write to stdout, then a flush of stdout.

    Every byte ``main`` writes to stdout (argparse's help, ``selftest``'s
    lines, the record) is written through here, and nothing else is. On a
    write error, what the failed write left buffered is flushed to devnull,
    so that the flush at interpreter exit does not raise again, and fd 1 is
    then restored, so a library caller keeps its own stdout; then a reader
    that is gone raises _ReaderGone and any other error a UsageError.
    """
    try:
        try:
            return write(*args)
        finally:  # also after --help, which leaves parse_args by SystemExit
            if sys.stdout is not None:  # None when the process starts with fd 1 closed
                sys.stdout.flush()
    except OSError as exc:
        fd = sys.stdout.fileno()
        saved, devnull = os.dup(fd), os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        sys.stdout.flush()
        os.dup2(saved, fd)
        os.close(saved)
        if isinstance(exc, BrokenPipeError):
            raise _ReaderGone from None
        raise UsageError(f"cannot write stdout: {exc.strerror}") from None


if __name__ == "__main__":
    sys.exit(main())
