"""Output checker for the benchmark; it shares no code with ``ratroot``.

``check(argv, stdout)`` judges the plain-format output of one successful
``ratroot`` request and returns ``None`` when it is right, else a reason.

- ``approx``: the certificate ``|p/q - k**(1/n)| < 10**-d`` is decided by
  exact integer inequalities, and the truncated decimal column is redone
  by integer division.
- ``table``: every row's ratio comes from this module's own n-term
  recurrence, and every certified-digits entry is checked both ways.
- ``chpow``: ``y**t mod ((y - 1)**n - k)`` is recomputed modulo a prime.

Big integers are parsed and printed with CPython's int/str length limit
lifted, and the limit is restored before returning, so the program under
test never runs with the limit lifted.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from math import comb, gcd

# Documented shape of the CLI's table output.
TABLE_DECIMAL_PLACES = 6
TABLE_DIGITS_CAP = 40
# The oracle's bracket is this many digits finer than its cap, so a
# certificate may fall short of the true digit count only within 10**-(cap+5).
BRACKET_GUARD = 5
PRIME = (1 << 61) - 1


class Mismatch(Exception):
    pass


@contextmanager
def unlimited_int_strings():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def parse_plain(text: str) -> tuple[dict[str, str], list[str], list[str]]:
    """Meta lines, column names and unsplit rows of a plain-format payload."""
    lines = text.splitlines()
    head = 0
    meta = {}
    while head < len(lines) and lines[head].startswith("# "):
        key, _, value = lines[head][2:].partition(" = ")
        meta[key] = value
        head += 1
    _expect(head < len(lines), "no header row")
    return meta, lines[head].split(), lines[head + 1:]


def options(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _fraction(text: str) -> tuple[int, int]:
    p, sep, q = text.partition("/")
    _expect(sep == "/", f"not a fraction: {text[:40]}")
    return int(p), int(q)


def iroot(m: int, n: int) -> int:
    """floor(m ** (1/n)) for m >= 1, by integer Newton iteration from above."""
    x = 1 << -(-m.bit_length() // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


class Root:
    """k**(1/n) with a bracket lo/scale <= root < (lo+1)/scale.

    The bracket settles most comparisons with one multiply each; the rest
    fall back to exact n-th powers.
    """

    def __init__(self, n: int, k: int, digits: int = 0):
        self.n, self.k = n, k
        self.scale = 10**digits
        self.lo = iroot(k * self.scale**n, n)

    def within(self, p: int, q: int, a: int, b: int) -> bool:
        """|p/q - root| < a/b for p, q, a, b > 0, decided exactly."""
        den, x = q * self.scale, p * self.scale
        to_lo, to_hi = x - q * self.lo, x - q * (self.lo + 1)
        err_hi = max(abs(to_lo), abs(to_hi))  # den * |p/q - root| is in [err_lo, err_hi]
        err_lo = 0 if to_lo >= 0 >= to_hi else min(abs(to_lo), abs(to_hi))
        if err_hi * b < a * den:
            return True
        if err_lo * b >= a * den:
            return False
        # Scaled by q*b: p*b - q*a < root*q*b < p*b + q*a, compared as n-th powers.
        lo, mid, hi = p * b - q * a, self.k * (q * b) ** self.n, p * b + q * a
        return (lo <= 0 or lo**self.n < mid) and mid < hi**self.n


def certificate_ok(p: int, q: int, d: int, cap: int, root: Root) -> bool:
    """d is what an exact certifier capped at ``cap`` may report for p/q.

    Sound: the error is below 10**-d (nothing is claimed at d = 0). Tight:
    below the cap, the error is at least 10**-(d+1) less the bracket width.
    """
    if d < 0 or d > cap:
        return False
    if d and not root.within(p, q, 1, 10**d):
        return False
    scale = 10 ** (cap + BRACKET_GUARD)
    return d == cap or not root.within(p, q, scale // 10 ** (d + 1) - 1, scale)


def decimal(p: int, q: int, places: int) -> str:
    """p/q > 0 truncated to ``places`` decimals."""
    whole, frac = divmod(p * 10**places // q, 10**places)
    return f"{whole}.{frac:0{places}d}" if places else str(whole)


def _check_approx(opts, meta, columns, rows):
    n, k, target = int(opts["n"]), int(opts["k"]), int(opts["digits"])
    _expect(columns == ["t", "fraction", "decimal", "digits"], "approx columns")
    _expect(len(rows) == 1, "approx must print one row")
    _expect([meta.get(key) for key in ("n", "k", "target_digits")] == [str(n), str(k), str(target)],
            "approx meta")
    t, frac, dec, digits = rows[0].split()
    p, q = _fraction(frac)
    _expect(q > 0 and p > 0 and gcd(p, q) == 1, "fraction not reduced and positive")
    _expect(t == meta.get("t_used") and digits == meta.get("achieved"), "row disagrees with meta")
    _expect(int(digits) == target, f"certified {digits} digits, asked for {target}")
    _expect(Root(n, k).within(p, q, 1, 10**target), f"{frac[:30]}... is not within 10**-{target}")
    _expect(dec == decimal(p, q, target), "decimal column")


def _linear_components(n: int, k: int, index: int, t1: int):
    """Entries index and index+1 of M**t (1, ..., 1) for t = 0..t1.

    The first n states are stepped directly (M = I + S); later ones follow
    the recurrence of the characteristic polynomial (y - 1)**n - k, which
    every entry sequence satisfies.
    """
    x = [1] * n
    head = []
    for _ in range(min(n, t1 + 1)):
        head.append((x[index - 1], x[index]))
        x = [x[0] + k * x[-1]] + [x[i] + x[i - 1] for i in range(1, n)]
    c = [-comb(n, j) * (-1) ** (n - j) for j in range(n)]
    c[0] += k
    for col in (0, 1):
        seq = [h[col] for h in head]
        while len(seq) <= t1:
            seq.append(sum(cj * s for cj, s in zip(c, seq[-n:])))
        yield seq


def _check_table(opts, meta, columns, rows):
    n, k, index = int(opts["n"]), int(opts["k"]), int(opts["index"])
    t0, t1 = int(opts["t0"]), int(opts["t1"])
    _expect(columns == ["t", "fraction", "decimal", "digits"], "table columns")
    _expect([meta.get(key) for key in ("n", "k", "t0", "t1", "index")]
            == [str(v) for v in (n, k, t0, t1, index)], "table meta")
    _expect(len(rows) == t1 - t0 + 1, "table row count")
    root = Root(n, k, TABLE_DIGITS_CAP + BRACKET_GUARD + 10)
    num, den = _linear_components(n, k, index, t1)
    for t, line in zip(range(t0, t1 + 1), rows):
        row = line.split()
        g = gcd(num[t], den[t])
        p, q = num[t] // g, den[t] // g
        _expect(row[:3] == [str(t), f"{p}/{q}", decimal(p, q, TABLE_DECIMAL_PLACES)],
                f"table row t={t}")
        _expect(certificate_ok(p, q, int(row[3]), TABLE_DIGITS_CAP, root), f"digits at t={t}")


def _powmod_charpoly(n: int, k: int, e: int) -> list[int]:
    """y**e modulo ((y - 1)**n - k, PRIME), low coefficient first."""
    tail = [comb(n, i) * (-1) ** (n - i) for i in range(n)]  # monic, degree n
    tail[0] -= k

    def mul(a, b):
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for m in range(2 * n - 2, n - 1, -1):
            c = prod[m] % PRIME
            if c:
                for i in range(n):
                    prod[m - n + i] -= c * tail[i]
        return [v % PRIME for v in prod[:n]]

    acc, base = [1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)
    while e:
        if e & 1:
            acc = mul(acc, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return acc


def _check_chpow(opts, meta, columns, rows):
    n, k = int(opts["n"]), int(opts["k"])
    _expect(columns == ["t"] + [f"a{i}" for i in range(n)], "chpow columns")
    _expect(meta.get("n") == str(n) and meta.get("k") == str(k), "chpow meta")
    if "fib" in opts:
        exps = [2, 3]
        while len(exps) < int(opts["fib"]):
            exps.append(exps[-1] + exps[-2])
        exps = exps[: int(opts["fib"])]
    else:
        exps = [int(opts["t"])]
    rows = [line.split() for line in rows]
    _expect([row[0] for row in rows] == [str(e) for e in exps], "chpow exponents")
    for e, row in zip(exps, rows):
        got = [int(a) % PRIME for a in row[1:]]
        _expect(got == _powmod_charpoly(n, k, e), f"chpow coefficients at t={e}")


_CHECKS = {"approx": _check_approx, "table": _check_table, "chpow": _check_chpow}


def check(argv: list[str], stdout: str) -> str | None:
    """None if ``stdout`` is a right answer to ``argv``, else the reason."""
    try:
        with unlimited_int_strings():
            _CHECKS[argv[0]](options(argv), *parse_plain(stdout))
    except (Mismatch, ValueError, IndexError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
