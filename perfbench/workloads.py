"""Seeded request generators for the benchmark workloads.

Each workload turns a seed into a list of ``ratroot`` argv lists. The
parameters of request i are read off point i of a Halton sequence, one
prime base per parameter, shifted by a random offset drawn from the seed
(a Cranley-Patterson rotation). A cyclic parameter (n) instead steps
through its values, and each of its values gets its own offsets, so the
requests of one n are spread evenly and independently of the other n's.
Every prefix of such a list covers the parameter ranges evenly, so runs
see nearly the same mix of request sizes whatever the seed. That keeps
run-to-run spread low without fixing the inputs.

No two requests of one list share ``(n, k)``. The oracle caches brackets
per ``(n, k)`` for the life of the process, so repeated pairs would get
cross-request cache hits that a one-shot ``ratroot`` process never gets.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# Longer than any run up to --seconds 20 (approx-wide needs the most).
# Lists are shorter where a workload has fewer distinct (n, k) pairs.
MAX_POINTS = 5000
PRIMES = (2, 3, 5, 7, 11)


@dataclass(frozen=True)
class Dim:
    """An integer parameter on [lo, hi], uniform or log-uniform.

    A cyclic parameter steps through its values in turn instead, from a
    seeded starting point.
    """

    lo: int
    hi: int
    log: bool = False
    cyclic: bool = False

    def at(self, u: float) -> int:
        """Inverse CDF at u in [0, 1)."""
        if self.log:
            x = math.exp(math.log(self.lo) + u * (math.log(self.hi + 1) - math.log(self.lo)))
        else:
            x = self.lo + u * (self.hi - self.lo + 1)
        return min(self.hi, int(x))

    def point(self, i: int, shift: float, base: int | None) -> int:
        """Value for request i: shifted van der Corput point, or next in cycle."""
        if self.cyclic:
            levels = self.hi - self.lo + 1
            return self.lo + (i + int(shift * levels)) % levels
        return self.at((radical_inverse(i, base) + shift) % 1.0)


UNIT = Dim(0, 999)  # a parameter that argv() maps itself


@dataclass(frozen=True)
class Workload:
    name: str
    dims: dict[str, Dim]  # must hold "n" and "k"; first entries get the best-spread bases
    argv: Callable[[dict[str, int]], list[str]]
    rate: float  # requests per second (scaled) at the commit that added the benchmark


def _approx(v):
    return ["approx", "--n", str(v["n"]), "--k", str(v["k"]), "--digits", str(v["digits"])]


def _table(v):
    index = 1 + v["index"] * (v["n"] - 1) // 1000  # uniform over 1..n-1
    return ["table", "--n", str(v["n"]), "--k", str(v["k"]), "--t0", "0", "--t1", str(v["t1"]),
            "--index", str(index)]


def _chpow(v):
    head = ["chpow", "--n", str(v["n"]), "--k", str(v["k"])]
    if v["fib"] < 250:  # one request in four: chain length 8..15
        return head + ["--fib", str(8 + v["fib"] * 8 // 250)]
    return head + ["--t", str(v["t"])]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("approx-deep",
                 {"digits": Dim(100, 1500, log=True), "n": Dim(2, 6, cyclic=True), "k": Dim(2, 50)},
                 _approx, 13.2),
        Workload("approx-wide",
                 {"digits": Dim(10, 150), "n": Dim(2, 8, cyclic=True), "k": Dim(2, 10**4, log=True)},
                 _approx, 216.0),
        Workload("table-long",
                 {"t1": Dim(300, 2000, log=True), "n": Dim(2, 6, cyclic=True), "k": Dim(2, 50),
                  "index": UNIT}, _table, 18.5),
        Workload("chpow-wide",
                 {"n": Dim(8, 64, log=True), "t": Dim(1000, 6000), "fib": UNIT, "k": Dim(2, 50)},
                 _chpow, 119.5),
    )
}


def radical_inverse(i: int, base: int) -> float:
    """Point i of the van der Corput sequence in ``base``."""
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _free_pair(n: int, k: int, used: set, w: Workload) -> tuple[int, int] | None:
    """The unused (n, k) nearest to the drawn one: nearest k first, then n."""
    for n_step in range(w.dims["n"].hi - w.dims["n"].lo + 1):
        for cand_n in dict.fromkeys((n + n_step, n - n_step)):
            if not w.dims["n"].lo <= cand_n <= w.dims["n"].hi:
                continue
            for k_step in range(w.dims["k"].hi - w.dims["k"].lo + 1):
                for cand_k in dict.fromkeys((k + k_step, k - k_step)):
                    if w.dims["k"].lo <= cand_k <= w.dims["k"].hi and (cand_n, cand_k) not in used:
                        return cand_n, cand_k
    return None


def requests(name: str, seed: int, limit: int = MAX_POINTS) -> list[list[str]]:
    """argv lists from the first ``limit`` points; same seed, same list.

    A point whose (n, k) is taken moves to the nearest free k, or when its n
    has none left, to the nearest n that has one. The list ends when every
    pair is used.
    """
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    cycle = next((dim for dim in w.dims.values() if dim.cyclic), Dim(0, 0, cyclic=True))
    shifts = {key: [rng.random() for _ in range(cycle.hi - cycle.lo + 1)] for key in w.dims}
    bases = dict(zip((key for key, dim in w.dims.items() if not dim.cyclic), PRIMES))
    used: set[tuple[int, int]] = set()
    out: list[list[str]] = []
    for i in range(1, limit + 1):
        level = cycle.point(i, shifts["n"][0], None) - cycle.lo
        v = {key: dim.point(i, shifts[key][0 if dim.cyclic else level], bases.get(key))
             for key, dim in w.dims.items()}
        pair = _free_pair(v["n"], v["k"], used, w)
        if pair is None:
            break
        used.add(pair)
        v["n"], v["k"] = pair
        out.append(w.argv(v))
    return out
