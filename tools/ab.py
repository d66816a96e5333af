#!/usr/bin/env python3
"""Paired A/B timing of two ratroot trees, interleaved request by request.

    python3 tools/ab.py TREE_A TREE_B --workload NAME [--seed N] [--rounds R] [--requests M]
    python3 tools/ab.py TREE_A TREE_B --argv-file FILE [--seed N] [--rounds R] [--requests M]

R and M are at least 1. The requests are the first M of the workload's list in
``perfbench/workloads.py`` of the checkout holding this script, or of FILE,
which holds one JSON list of argument strings per line (``approx_big.jsonl``
beside this script is a fixed set of large ``approx`` requests); nothing
under ``perfbench/`` is changed or run. Each round starts one fresh worker
per tree, a ``python3`` process that imports ratroot from that tree's
``src/``, so no cache (the oracle's brackets, the parser) carries from one
round to the next. Each request goes to both workers in turn, in an order
drawn per request from a seeded coin. A worker times ``cli.main(argv)`` by
the wall clock, so work that ratroot does in forked children counts, with
the request's stdout and stderr captured in memory by ``grid.replay``, and
answers with that time and a sha256 digest of the exit code, stderr and
stdout.

Per round it prints B against A: the ratio of the summed times, the median
and the geometric mean of the per-request ratios, the ratio of the 90th
percentiles of the request times (taken as ``perfbench/run.py`` takes
``latency_p90_ms``; with one request, that request's ratio), and the
number of requests whose digests differ, which must be 0 for trees meant
to print the same bytes. Below 1, B is faster. A summary line follows the
rounds: the median and the min-max over rounds of the sum, median and p90
ratios. Quote those, not one round: in an A/A of ``approx_big.jsonl`` the
round sum ratios spread by 17% while the median ratios stay within 0.7%
(CPython 3.11.7, 2 CPUs), as one slow stretch of the host weighs on the
sum of a few large requests. The last line is one JSON object holding
every round, with the ``sys.version`` of each of its two workers, and that
summary, so a result says which interpreter it timed. The exit status is
1 when any digest differs, and 141, with nothing on stderr, when stdout's reader closes it
before the last line (as ``ratroot.cli`` does); every worker is closed
first.

A/A (the same tree on both sides) gives the noise floor to quote beside a
claim. Interleaving pairs each request with its counterpart seconds apart,
so drift of the host's speed mostly cancels, which run-against-run
comparisons of whole benchmark runs do not get.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import grid

ROOT = Path(__file__).resolve().parent.parent


def serve(tree: str) -> int:
    """Worker: write its ``sys.version`` as one JSON line, then answer each
    argv line on stdin with one [seconds, digest] line."""
    src = (Path(tree) / "src").resolve()
    sys.path.insert(0, str(src))
    from ratroot import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ratroot imported from {cli.__file__}, not from {src}")
    sys.stdout.write(json.dumps(sys.version) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        argv = json.loads(line)
        start = time.perf_counter()
        code, out, err = grid.replay(argv)
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(f"{code}\0{err}\0{out}".encode())
        sys.stdout.write(json.dumps([seconds, digest.hexdigest()]) + "\n")
        sys.stdout.flush()
    return 0


def run_round(trees: list[str], requests: list[list[str]], rng: random.Random) -> dict:
    """One round over fresh workers: B/A ratios, the digest mismatches and
    each worker's ``sys.version``."""
    workers = [
        subprocess.Popen([sys.executable, __file__, "--serve", tree], stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, text=True)
        for tree in trees
    ]
    times = ([], [])
    mismatches = 0
    try:
        versions = []
        for tree, worker in zip(trees, workers):
            line = worker.stdout.readline()
            if not line:
                raise RuntimeError(f"worker for {tree} ended before its first request")
            versions.append(json.loads(line))
        for argv in requests:
            answers = [None, None]
            for side in rng.sample((0, 1), 2):
                workers[side].stdin.write(json.dumps(argv) + "\n")
                workers[side].stdin.flush()
                line = workers[side].stdout.readline()
                if not line:
                    raise RuntimeError(f"worker for {trees[side]} ended at {' '.join(argv)}")
                answers[side] = json.loads(line)
            for side in (0, 1):
                times[side].append(answers[side][0])
            mismatches += answers[0][1] != answers[1][1]
    finally:
        for worker in workers:
            worker.stdin.close()
            worker.wait(timeout=60)
            worker.stdout.close()
    ratios = [b / a for a, b in zip(*times)]
    return {
        "sum_ratio": sum(times[1]) / sum(times[0]),
        "median_ratio": statistics.median(ratios),
        "geomean_ratio": statistics.geometric_mean(ratios),
        "p90_ratio": p90(times[1]) / p90(times[0]),
        "mismatches": mismatches,
        "sum_s": [sum(times[0]), sum(times[1])],
        "python": versions,
    }


def summarize(rounds: list[dict]) -> dict:
    """The median, min and max over the rounds of each of the sum, median
    and p90 ratios."""
    summary = {}
    for key in ("sum_ratio", "median_ratio", "p90_ratio"):
        values = [r[key] for r in rounds]
        summary[key] = {"median": statistics.median(values), "min": min(values),
                        "max": max(values)}
    return summary


def p90(times: list[float]) -> float:
    """The 90th percentile of the times, or the one time there is."""
    return statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]


def positive_int(text: str) -> int:
    """An argparse type: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--serve"]:
        return serve(argv[1])
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", help="checkout timed as A (the parent)")
    ap.add_argument("tree_b", help="checkout timed as B (the change)")
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    source.add_argument("--argv-file", help="one JSON argv list per line, in place of --workload")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed, and seed of the order coin (default 1)")
    ap.add_argument("--rounds", type=positive_int, default=5,
                    help="rounds of fresh workers (default 5)")
    ap.add_argument("--requests", type=positive_int, default=245,
                    help="requests per round, from the head of the list (default 245)")
    args = ap.parse_args(argv)
    if args.workload is not None:
        source, requests = {"workload": args.workload}, workloads.requests(args.workload, args.seed)
    else:
        source, requests = {"argv_file": args.argv_file}, read_argv_file(ap, args.argv_file)
    requests = requests[:args.requests]
    rng = random.Random(f"ab/{args.workload or args.argv_file}/{args.seed}")
    rounds = []
    for i in range(args.rounds):
        r = run_round([args.tree_a, args.tree_b], requests, rng)
        rounds.append(r)
        if not emit(f"round {i + 1}: sum {r['sum_ratio']:.3f}  median {r['median_ratio']:.3f}  "
                    f"geomean {r['geomean_ratio']:.3f}  p90 {r['p90_ratio']:.3f}  "
                    f"mismatches {r['mismatches']}"):
            return 141
    summary = summarize(rounds)
    if not emit("summary: " + "  ".join(
            f"{key.split('_')[0]} {s['median']:.3f} ({s['min']:.3f}-{s['max']:.3f})"
            for key, s in summary.items())):
        return 141
    if not emit(json.dumps({**source, "seed": args.seed, "requests": len(requests),
                            "trees": [args.tree_a, args.tree_b], "rounds": rounds,
                            "summary": summary})):
        return 141
    return 1 if any(r["mismatches"] for r in rounds) else 0


def read_argv_file(ap: argparse.ArgumentParser, path: str) -> list[list[str]]:
    """The argv lists of FILE, one JSON list of strings per nonblank line;
    any other file is refused through ``ap.error`` (exit 2)."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        ap.error(f"argument --argv-file: cannot read {path}: {exc.strerror}")
    requests = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            argv = json.loads(line)
        except ValueError:
            argv = None
        if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
            ap.error(f"argument --argv-file: line {number} of {path} is not a JSON list of strings")
        requests.append(argv)
    if not requests:
        ap.error(f"argument --argv-file: {path} holds no request")
    return requests


def emit(line: str) -> bool:
    """Write one line to stdout and flush it; False if its reader is gone.

    Then fd 1 points at devnull, so the flush at exit does not raise again.
    """
    try:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
