#!/usr/bin/env python3
"""Byte-identity grid: a fixed list of ratroot commands, replayed in-process.

    python3 tools/grid.py [CHECKOUT] > grid.txt
    python3 tools/grid.py --sha256 > tests/identity_grid.sha256

The first form prints, for each command, a ``### <command>`` header, its
stdout, each line of its stderr marked ``stderr> `` and its exit code as
``rc=N``. Run it in two checkouts, or under two interpreters, and diff the
outputs; any difference is a change in behaviour. The second form prints
one sha256 per command, of the same text with the values libm computes
blanked (see ``blank``); tier-1 replays the grid against that file.

CHECKOUT defaults to the repository holding this script; ratroot is
imported from its src/. Every command runs through ``cli.main`` in this one
process, so the caches of one command (the parser, the oracle's brackets)
are warm for the next; the output must not depend on that. ``COLUMNS`` is
pinned to 80, so ``--help`` never wraps at the width of a terminal.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FORMS = ["approx --digits 30", "table --t1 40 --format csv",
          "trace --mode linear --steps 25 --format json", "trace --mode scalar --steps 6",
          "eig", "eig --format json", "chpow --t 300", "chpow --fib 12 --format json"]

# Each command is one string, split on spaces; no argument holds a space.
_COMMANDS = [
    # approx, table, trace, eig and chpow over n 2-8 and k 1, 2, 7, 1000
    *(f"{form} --n {n} --k {k}" for n in range(2, 9) for k in (1, 2, 7, 1000) for form in _FORMS),
    "--help",
    *(f"{c} --help" for c in ("approx", "table", "trace", "eig", "chpow", "selftest")),
    "selftest",
    # integers past the rendering cutover of 2**15 bits
    "approx --n 2 --k 9366 --digits 132",
    "approx --n 3 --k 9973 --digits 150 --format json",
    "approx --n 2 --k 2 --digits 50000",
    "chpow --n 2 --k 3 --t 200000",
    "table --n 2 --k 2 --t0 100000 --t1 100002",
    *(f"chpow --fib 15 --format csv --n {n} --k 50" for n in (16, 33)),
    # n = 2 answers past the cutover, built on a ladder of exact Decimals,
    # for k = 1, 3, 5 and 7 mod 8 (9366 above is even)
    "approx --n 2 --k 9185 --digits 91",
    "approx --n 2 --k 4099 --digits 120 --format csv",
    "approx --n 2 --k 5077 --digits 100 --format json",
    "approx --n 2 --k 8191 --digits 80",
    # the last ratio index
    *(f"table --k 7 --t1 40 --index {n - 1} --format csv --n {n}" for n in (3, 5, 8)),
    # traces from explicit starts, three of them refused
    "trace --mode linear --n 3 --k 2 --start 2,0,-1 --steps 25 --format csv",
    "trace --mode linear --n 2 --k 1 --start=-1,1 --steps 3",
    "trace --mode linear --n 2 --k 2 --start 0,0",
    "trace --mode linear --n 3 --k 2 --start 1,1",
    "trace --mode scalar --n 3 --k 2 --start 3/7 --steps 5 --format json",
    # argv that argparse itself refuses
    "approx --n 2 --k 2",
    "approx --n x --k 2 --digits 5",
    "table --n 2 --k 2 --bogus",
    "chpow --n 2 --k 2 --t 5 --fib 3",
    "bogus --n 2 --k 2",
    # n = 2 convergents whose entry pairs carry a common factor; the fifth
    # approx is refused because its rate rounds to 1
    *(f"approx --n 2 {a}" for a in ("--k 7531 --digits 145", "--k 2311 --digits 200 --format json",
                                    "--k 1000001 --digits 3", "--k 3 --digits 20000",
                                    "--k 100000000000000000000000000000001 --digits 5")),
    "table --n 2 --k 1 --t1 30",
    "table --n 2 --k 4 --t1 30 --format csv",
    "table --n 2 --k 9 --t0 3 --t1 50 --format json",
    "table --n 2 --k 7531 --t0 1000 --t1 1010",
    "table --n 2 --k 2311 --t1 300 --format csv",
    # chpow whose ring power starts from a binomial row of up to 2n**2: at
    # n 64, t 4096, 4097 and 6000 are rows alone; t 4609 at n 48 and 8193 at
    # n 64 are one square past a row of n**2
    *(f"chpow --n 48 --k 30 --t {t}" for t in (4609, 6000)),
    *(f"chpow --n 64 --k 50 --t {t}" for t in (4096, 4097, 6000, 8193)),
    "chpow --n 64 --k 50 --fib 15 --format json",
    # large outputs, one in each format and from the n >= 3 reduction
    "table --n 2 --k 2 --t1 3000 --format json",
    "table --n 3 --k 7 --t1 2000 --format csv",
    "table --n 5 --k 40 --t1 1500 --index 3",
    "trace --mode linear --n 2 --k 3 --steps 2000 --format json",
    # heavy approx answers certified by n-th powers of 6k-10k digits
    # (n 4, 5, 6 and 8); about 40 kbit fractions at n 6
    *(f"approx {a}" for a in ("--n 4 --k 7 --digits 1500", "--n 6 --k 42 --digits 1499",
                              "--n 8 --k 3 --digits 1200", "--n 5 --k 21 --digits 1399")),
    # tables that cross the split into spans built by forked children (with
    # two usable CPUs): a child that jumps past --t0, a table at the split
    # threshold and one row below it, a tail span that starts on an odd step
    "table --n 4 --k 3 --t0 700 --t1 2600 --index 2",
    *(f"table --n 3 --k 7 --t1 {t1}" for t1 in (1058, 1057)),
    "table --n 2 --k 3 --t1 1400 --format csv",
    # chpow at the squaring kernel's Karatsuba splits and the binomial row's
    # edges: n 12 and 13 one split deep, 25 two, 33 and 64 three
    *(f"chpow --n {n} --k 7 --t 5000" for n in (12, 13, 25, 33, 64)),
    *(f"chpow --n 64 --k 50 --t {t}" for t in (3000, 8192)),
    "chpow --n 64 --k 50 --fib 15 --format csv",
    "table --n 2 --k 7531 --t0 1000 --t1 1010 --format csv",
    # step doubling two and three times (t_used 1276 and 9296)
    "approx --n 3 --k 1000001 --digits 2",
    "approx --n 2 --k 1000001 --digits 1",
    # integers below and above the cutover; 14,385-14,386 bits at n 6,
    # which str converts in full before it refuses them at the default limit
    *(f"approx --n 2 --k 2 --digits {d}" for d in (2000, 20000)),
    "approx --n 6 --k 50 --digits 515",
    # argv that ratroot's own checks refuse after argparse accepts it
    "table --n 1 --k 2",
    "eig --n 2 --k 0",
    "table --n 2 --k 2 --t0 5 --t1 2",
    "table --n 3 --k 2 --index 3",
    "approx --n 2 --k 2 --digits 0",
    "approx --n 2 --k 2 --digits 5 --max-t -1",
    "chpow --n 2 --k 2 --t -1",
    "chpow --n 2 --k 2 --fib 0",
    *(f"trace --mode {mode} --n 2 --k 2 --steps -3" for mode in ("linear", "scalar")),
    "trace --mode linear --n 2 --k 2 --start x",
    "trace --mode scalar --n 2 --k 2 --start 1/0",
    # r = k**(1/300) fits a float and r**299 does not: eig answers, while
    # approx refuses, as it has no size bound for such powers
    *(f"{c} --n 300 --k {2**1100}" for c in ("eig", "approx --digits 1")),
]
GRID = [command.split() for command in _COMMANDS]


def replay(argv: list[str]) -> tuple[int | str, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)``, run in this process.

    A crash is an output like any other: its exit code is the exception.
    """
    from ratroot import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def text(argv: list[str], code: int | str, out: str, err: str) -> str:
    """One command's entry in the grid."""
    marked = re.sub(r"(?m)^(?!\Z)", "stderr> ", err)  # as sed 's/^/stderr> /'
    return f"### {' '.join(argv)}\n{out}{marked}rc={code}\n"


_LIBM = "~"
_LIBM_META = ("rho", "digits_per_step")
_EIG_FLOATS = slice(1, 4)  # eig's re, im and modulus cells


def blank(out: str) -> str:
    """out with each value that libm computes replaced by ``~``.

    CPython does not promise libm results bit-identical across platforms,
    so the digests leave out ``approx``'s and ``eig``'s ``rho`` and
    ``digits_per_step`` and ``eig``'s ``re``, ``im`` and ``modulus`` cells;
    every other byte stays. A plain ``eig`` table pads its columns to the
    floats' widths, so its lines are joined again with two spaces. JSON is
    blanked only where ``json.dumps(..., indent=2)`` writes it back byte for
    byte.
    """
    if out.startswith("{"):
        try:
            obj = json.loads(out)
        except ValueError:
            return out
        if json.dumps(obj, indent=2) + "\n" != out:
            return out
        for key in _LIBM_META:
            if key in obj["meta"]:
                obj["meta"][key] = _LIBM
        if obj["command"] == "eig":
            for row in obj["rows"]:
                row[_EIG_FLOATS] = [_LIBM] * 3
        return json.dumps(obj, indent=2) + "\n"
    out = re.sub(rf"(?m)^# ({'|'.join(_LIBM_META)}) = .*$", rf"# \1 = {_LIBM}", out)
    if out.startswith("# command = eig\n"):
        lines = out.splitlines(keepends=True)
        head = [line for line in lines if line.startswith("# ")]
        cells = [line.split() for line in lines[len(head):]]
        return "".join(head) + _eig_rows(cells, "  ", "\n")
    if out.startswith("j,re,im,modulus,dominant\r\n"):
        return _eig_rows([line.split(",") for line in out.splitlines()], ",", "\r\n")
    return out


def _eig_rows(cells: list[list[str]], sep: str, end: str) -> str:
    """eig's column header, then its rows with the floats blanked."""
    for row in cells[1:]:
        row[_EIG_FLOATS] = [_LIBM] * 3
    return "".join(sep.join(row) + end for row in cells)


def digest(argv: list[str], code: int | str, out: str, err: str) -> str:
    """sha256 of the command's grid entry, from its ``replay``, with its libm
    values blanked."""
    return hashlib.sha256(text(argv, code, blank(out), err).encode()).hexdigest()


def main(args: list[str]) -> int:
    sha256 = args[:1] == ["--sha256"]
    src = (Path(args[-1] if args[sha256:] else ROOT) / "src").resolve()
    sys.path.insert(0, str(src))
    from ratroot import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ratroot imported from {cli.__file__}, not from {src}")
    os.environ["COLUMNS"] = "80"
    for argv in GRID:
        if sha256:
            entry = f"{digest(argv, *replay(argv))}  {' '.join(argv)}\n"
        else:
            entry = text(argv, *replay(argv))
        sys.stdout.buffer.write(entry.encode())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
