"""Tests of the benchmark itself: generator, checker, tracing, metric names.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    first = workloads.requests(name, 11, limit=300)
    assert first == workloads.requests(name, 11, limit=300)
    assert first != workloads.requests(name, 12, limit=300)
    pairs = [(argv[2], argv[4]) for argv in first]
    assert len(pairs) == len(set(pairs)), "a list repeats an (n, k) pair"


def test_requests_stay_in_range():
    for argv in workloads.requests("approx-deep", 3):
        n, k, digits = (int(argv[i]) for i in (2, 4, 6))
        assert 2 <= n <= 6 and 2 <= k <= 50 and 100 <= digits <= 1500
    chpow = workloads.requests("chpow-wide", 3, limit=400)
    fib = [argv for argv in chpow if "--fib" in argv]
    assert 0.2 < len(fib) / len(chpow) < 0.3
    assert all(8 <= int(argv[6]) <= 15 for argv in fib)


def _answer(argv: list[str]) -> str:
    from ratroot import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _bump_first_numerator(text: str) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        cells = line.split()
        if not line.startswith("#") and len(cells) > 1 and "/" in cells[1]:
            p, q = cells[1].split("/")
            lines[i] = line.replace(cells[1], f"{int(p) + 1}/{q}", 1)
            return "".join(lines)
    raise AssertionError("no fraction cell")


@pytest.mark.parametrize("argv", [
    ["approx", "--n", "5", "--k", "7", "--digits", "300"],
    ["approx", "--n", "3", "--k", "8", "--digits", "20"],  # exact root
    ["table", "--n", "3", "--k", "2", "--t0", "0", "--t1", "60", "--index", "2"],
])
def test_checker_accepts_answer_and_rejects_bumped_numerator(argv):
    limit = sys.get_int_max_str_digits()
    good = _answer(argv)
    assert check.check(argv, good) is None
    assert check.check(argv, _bump_first_numerator(good)) is not None
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv", [
    ["chpow", "--n", "9", "--k", "5", "--t", "1200"],
    ["chpow", "--n", "8", "--k", "3", "--fib", "9"],
])
def test_checker_rejects_bumped_chpow_coefficient(argv):
    good = _answer(argv)
    assert check.check(argv, good) is None
    lines = good.splitlines()
    cells = lines[-1].split()
    cells[2] = str(int(cells[2]) + 1)
    bumped = "\n".join(lines[:-1] + ["  ".join(cells)]) + "\n"
    assert check.check(argv, bumped) is not None


def test_checker_rejects_overstated_table_digits():
    argv = ["table", "--n", "2", "--k", "2", "--t0", "0", "--t1", "30", "--index", "1"]
    good = _answer(argv)
    row = good.splitlines()[-1]
    worse = good.replace(row, row.rsplit(" ", 1)[0] + " " + str(int(row.split()[-1]) + 1))
    assert check.check(argv, worse) is not None


@pytest.fixture(scope="module")
def traced_run():
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "table-long", "--seed", "5",
           "--requests", "3", "--trace"]
    env = run._env()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_span_self_times_sum_to_no_more_than_wall(traced_run):
    assert traced_run["outcomes"] == ["exit 0"] * 3
    for layers, wall in zip(traced_run["layers"], traced_run["latencies_s"]):
        selfs = [secs for _, secs, _, _ in layers.values()]
        assert all(s >= 0 for s in selfs)
        assert sum(selfs) <= wall
        assert layers[worker.ROOT_SPAN][0] == 1


def test_metric_names_match_benchmark_json(traced_run):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    imports = {"import.numpy_s": 0.1, "import.ratroot_s": 0.1}
    traced_run["scaled_s"] = traced_run["latencies_s"]
    layers = run.layer_metrics(traced_run, traced_run, imports)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert all(layers[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])


def test_speed_factors_follow_local_reference_time():
    samples = [(t / 10, 0.002 if t < 50 else 0.004) for t in range(100)]
    fast, slow = speed.speed_factors([(1.0, 1.1), (8.0, 8.2)], samples)
    assert fast == pytest.approx(speed.REF_NOMINAL_S / 0.002)
    assert slow == pytest.approx(fast / 2)


def test_end_to_end_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    r = {"scaled_s": [0.01 * (i + 1) for i in range(20)], "outcomes": ["exit 0"] * 19 + ["exit 1"],
         "peak_rss_kb": 30000}
    metrics = run.e2e_metrics(0.2, r)
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert metrics["success_frac"]["value"] == 0.95


def test_bracket_comparisons_agree_with_exact_powers():
    import random

    def exact(p, q, a, b, n, k):
        lo, mid, hi = p * b - q * a, k * (q * b) ** n, p * b + q * a
        return (lo <= 0 or lo**n < mid) and mid < hi**n

    rng = random.Random(4)
    for _ in range(400):
        n, k = rng.randint(2, 6), rng.randint(2, 50)
        root = check.Root(n, k, rng.choice([0, 3, 20, 55]))
        q = rng.randint(1, 10**rng.randint(1, 30))
        p = check.iroot(k * q**n, n) + rng.randint(-3, 3)
        a, b = 1, 10 ** rng.randint(0, 40)
        if p > 0:
            assert root.within(p, q, a, b) == exact(p, q, a, b, n, k)
    assert [check.iroot(m, 3) for m in (1, 7, 8, 26, 27, 10**30)] == [1, 1, 2, 2, 3, 10**10]
