"""Benchmark for ratroot: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports ``ratroot`` from ``src/`` of the
checkout it lives in, never from an installed copy.

With ``--trace 0`` it times a fresh ``import ratroot.cli`` several times,
then runs the workload untraced in a fresh interpreter (``worker.py``) and
prints the end-to-end metrics. A run is ``--seconds`` of requests at the
rate the workload had when the benchmark was added (see ``run_length``). With ``--trace 1`` it runs the workload with
every layer traced, replays the same requests untraced to price the
tracing, and prints the per-layer metrics. Every output is checked.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload, prints each metric with its unit, and ends with one JSON object
keyed by workload.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
# A bare interpreter start-up on the 2-core Xeon sandbox at its fastest.
BARE_NOMINAL_S = 0.031
# At least 24 samples beyond the 90th percentile. The traced run needs fewer.
MIN_REQUESTS = 245
TRACED_MIN_REQUESTS = 20
IMPORTTIME_RUNS = 5
DEADLINE_S = 170  # the whole run, set-up included
PAYLOAD_UNITS = {"result_bits": "bit", "out_bits": "bit", "operand_bits": "bit",
                 "state_bits": "bit", "output_bytes": "B"}


class BenchError(Exception):
    pass


def _env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _run(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    if proc.returncode:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_seconds(deadline: float) -> float:
    """Time of a fresh ``import ratroot.cli``, in units of a bare start-up.

    Each import is paired with a start of an interpreter that imports
    nothing, run just before it; the median ratio of the pairs is scaled by
    BARE_NOMINAL_S. Start-up is mostly loading files and linking numpy; the
    reference computation of ``speed.py`` tracks it poorly, the bare
    start-up well.
    """
    cmd = [sys.executable, "-c", "import ratroot.cli"]
    bare = [sys.executable, "-c", "pass"]
    _run(cmd, deadline)  # writes the bytecode cache
    ratios = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        _run(bare, deadline)
        mid = time.perf_counter()
        _run(cmd, deadline)
        ratios.append((time.perf_counter() - mid) / (mid - start))
    return statistics.median(ratios) * BARE_NOMINAL_S


def import_seconds(deadline: float) -> dict[str, float]:
    """numpy's and the rest of ratroot.cli's import time, from -X importtime."""
    numpy, rest = [], []
    for _ in range(IMPORTTIME_RUNS):
        err = _run([sys.executable, "-X", "importtime", "-c", "import ratroot.cli"],
                   deadline).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        numpy.append(cumulative.get("numpy", 0.0))
        rest.append(cumulative["ratroot.cli"] - numpy[-1])
    return {"import.numpy_s": statistics.median(numpy),
            "import.ratroot_s": statistics.median(rest)}


def run_worker(name: str, seed: int, requests: int, deadline: float,
               trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--requests", str(requests)]
    if trace:
        cmd.append("--trace")
    out = json.loads(_run(cmd, deadline).stdout.splitlines()[-1])
    out["scaled_s"] = [t * f for t, f in zip(out["latencies_s"], out["factors"])]
    return out


def run_length(name: str, seconds: float, least: int) -> int:
    """Requests in a run: ``seconds`` of work at the workload's recorded rate.

    Every run of a workload then does the same work however fast the host
    is at the time, so the mix of request sizes never depends on its speed.
    """
    return max(least, round(seconds * workloads.WORKLOADS[name].rate))


def _summary(runs: list[dict], metrics: dict) -> dict:
    outcomes = [o for r in runs for o in r["outcomes"]]
    for bad in (b for r in runs for b in r["bad"]):
        print(f"perfbench: wrong output for {' '.join(bad['argv'])}: {bad['reason']}",
              file=sys.stderr)
    return {
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": sum(o != "exit 0" for o in outcomes),
        "metrics": metrics,
    }


def e2e_metrics(setup: float, r: dict) -> dict:
    """End-to-end figures of one untraced worker run; times scaled."""
    lat = r["scaled_s"]
    ok = r["outcomes"].count("exit 0")
    values = {
        "setup_s": (setup, "s"),
        "throughput_rps": (ok / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "success_frac": (ok / len(lat), "frac"),
        "peak_rss_mb": (r["peak_rss_kb"] / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> dict:
    setup = setup_seconds(deadline)
    r = run_worker(name, seed, run_length(name, seconds, MIN_REQUESTS), deadline)
    return _summary([r], e2e_metrics(setup, r))


def layer_metrics(traced: dict, replay: dict, imports: dict[str, float]) -> dict:
    """Per-request layer figures of a traced run; times scaled like latencies."""
    m = len(traced["outcomes"])
    names = [worker.ROOT_SPAN] + [f"{mod}.{attr}" for mod, attr, _ in worker.TRACED]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    payload = dict.fromkeys(names, 0)
    hits = 0
    approx_requests = approx_attempts = 0
    for layers, factor, command in zip(traced["layers"], traced["factors"], traced["commands"]):
        for name, (n_calls, secs, size, no_root) in layers.items():
            calls[name] += n_calls
            self_s[name] += secs * factor
            payload[name] += size
            if name == "oracle.nth_root_bracket":
                hits += no_root
        if command == "approx":
            approx_requests += 1
            approx_attempts += layers.get("engine.apply_power", [0])[0]
    values = {}
    for name in names:
        if name != worker.ROOT_SPAN:
            values[f"{name}.calls"] = (calls[name] / m, "count/req")
        values[f"{name}.self_s"] = (self_s[name] / m, "s/req")
    for mod, attr, kind in worker.TRACED:
        name = f"{mod}.{attr}"
        if kind:
            values[f"{name}.{kind}"] = (payload[name] / max(calls[name], 1), PAYLOAD_UNITS[kind])
    bracket_calls = calls["oracle.nth_root_bracket"]
    values["oracle.nth_root_bracket.hit_ratio"] = (hits / max(bracket_calls, 1), "frac")
    values["approx.attempts"] = (approx_attempts / max(approx_requests, 1), "count/req")
    values["approx.useful_ratio"] = (approx_requests / max(approx_attempts, 1), "frac")
    values["request.wall_s"] = (sum(traced["scaled_s"]) / m, "s/req")
    values["trace_overhead_frac"] = (sum(traced["scaled_s"]) / sum(replay["scaled_s"]) - 1, "frac")
    for key, secs in imports.items():
        values[key] = (secs, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced(name: str, seed: int, seconds: float, deadline: float) -> dict:
    imports = import_seconds(deadline)
    n = run_length(name, seconds / 2, TRACED_MIN_REQUESTS)
    t = run_worker(name, seed, n, deadline, trace=True)
    r = run_worker(name, seed, n, deadline)
    return _summary([t, r], layer_metrics(t, r, imports))


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "ratroot" / "cli.py").is_file():
        raise BenchError(f"no ratroot sources under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    return (traced if trace else end_to_end)(name, seed, seconds, deadline)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
