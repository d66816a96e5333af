"""Workload process: one closed-loop client calling ``ratroot.cli.main``.

    python3 perfbench/worker.py --workload NAME --seed N --requests M [--trace]

The requests of one workload run in this process, one at a time, each
timed from the call to ``cli.main(argv)`` until it returns. Between
requests, with the clock stopped, the output is checked and the machine's
current speed is sampled (see ``speed.py``). The run is the first M
requests of the workload's list. With ``--trace`` the traced functions of
each ratroot module are wrapped in spans first.

The last stdout line is one JSON object: per-request times, speed factors
and outcomes, check failures, peak RSS and, when traced, per-request layer
figures.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from speed import sample_speed, speed_factors  # noqa: E402

# (module, attribute, payload kind) of every traced layer boundary. The
# payload kind names a size taken from the call's arguments or result once
# the request has ended; None records only calls and time.
TRACED = [
    ("oracle", "integer_nth_root", "result_bits"),
    ("oracle", "nth_root_bracket", None),
    ("oracle", "digits_of_accuracy", None),
    ("engine", "apply_power", "out_bits"),
    ("engine", "ring_mul", "operand_bits"),
    ("engine", "power_basis_coeffs", None),
    ("engine", "fib_power_chain", None),
    ("recursion", "iterate_linear", "state_bits"),
    ("recursion", "ratio", None),
    ("spectral", "convergence_rate", None),
    ("cli", "build_parser", None),
    ("cli", "format_fraction", None),
    ("cli", "format_decimal", None),
    ("cli", "render", "output_bytes"),
]
ROOT_SPAN = "cli.main"
SAMPLE_EVERY_S = 0.05  # how often to sample the machine's speed


def _max_bits(obj) -> int:
    """Largest integer bit length inside a ratroot value (ints, states, polys)."""
    if isinstance(obj, int):
        return abs(obj).bit_length()
    for attr in ("entries", "coeffs"):
        if hasattr(obj, attr):
            return _max_bits(getattr(obj, attr))
    if isinstance(obj, (tuple, list)):
        return max((_max_bits(x) for x in obj), default=0)
    return 0


PAYLOADS = {
    "result_bits": lambda args, result: _max_bits(result),
    "out_bits": lambda args, result: _max_bits(result),
    "operand_bits": lambda args, result: _max_bits(args[:2]),
    "state_bits": lambda args, result: sum(
        abs(e).bit_length() for s in result.states for e in s.entries
    ),
    "output_bytes": lambda args, result: len(result.encode()),
}


class Tracer:
    """Spans kept in memory as (name, start, end, parent index, payload)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, payload: str | None):
        spans, stack = self.spans, self.stack

        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1] if stack else -1
                spans[idx] = (name, start, end, parent, (payload, args, result))

        return span

    def install(self, cli) -> None:
        """Replace each traced module attribute by its span wrapper."""
        owners = {"oracle": cli.oracle, "engine": cli.engine, "recursion": cli.recursion,
                  "spectral": cli.spectral, "cli": cli}
        for mod, attr, payload in TRACED:
            owner = cli.OutputRecord if attr == "render" else owners[mod]
            fn = getattr(owner, attr, None)
            if fn is not None:  # a later version may have dropped it
                setattr(owner, attr, self.wrap(f"{mod}.{attr}", fn, payload))

    def fold(self) -> dict:
        """Per-layer figures of the spans recorded so far, which are dropped.

        Each name maps to [calls, self seconds, payload sum, calls that
        started no ``oracle.integer_nth_root``].
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        started_root = [False] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "oracle.integer_nth_root":
                    started_root[parent] = True
        out: dict[str, list] = {}
        for i, (name, start, end, _, (payload, args, result)) in enumerate(spans):
            t = out.setdefault(name, [0, 0.0, 0, 0])
            t[0] += 1
            t[1] += end - start - child_time[i]
            if payload:
                t[2] += PAYLOADS[payload](args, result)
            t[3] += not started_root[i]
        spans.clear()
        return out


class Sink:
    """Write-only text stream that keeps the strings it is given, uncopied.

    A CLI writing to a file holds its payload once; so does this.
    """

    def __init__(self):
        self.parts: list[str] = []

    def write(self, s: str) -> int:
        self.parts.append(s)
        return len(s)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def _judge(argv, code, out: str, err: str) -> str | None:
    """None if the request's result is acceptable, else why it is wrong."""
    if code == 0:
        return check.check(argv, out)
    if code in (1, 2, 3) and err.startswith("ratroot: error:"):
        return None  # a documented refusal: failed, but not wrong
    return f"exit {code!r}: {err[:200]!r}"


def run(name: str, seed: int, requests: int, trace: bool) -> dict:
    from ratroot import cli

    src = (HERE.parent / "src").resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ratroot imported from {cli.__file__}, not from {src}")
    tracer = Tracer() if trace else None
    main = cli.main
    if tracer:
        tracer.install(cli)
        main = tracer.wrap(ROOT_SPAN, cli.main, None)
    reqs = workloads.requests(name, seed)[:requests]
    intervals, outcomes, bad, layers, samples = [], [], [], [], []
    sample_speed(samples)
    for argv in reqs:
        out, err = Sink(), Sink()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # a crash is a failed and wrong request
                code = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        intervals.append((start, end))
        if time.perf_counter() - samples[-1][0] >= SAMPLE_EVERY_S:
            sample_speed(samples)
        text = out.text()
        del out  # the check must not hold a second copy of a large payload
        reason = _judge(argv, code, text, err.text())
        del text
        outcomes.append(f"exit {code}" if reason is None else "wrong")
        if reason:
            bad.append({"argv": argv, "reason": reason})
        if tracer:
            layers.append(tracer.fold())
    sample_speed(samples)
    result = {
        "commands": [argv[0] for argv in reqs],
        "outcomes": outcomes,
        "latencies_s": [end - start for start, end in intervals],
        "factors": speed_factors(intervals, samples),
        "bad": bad[:5],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["layers"] = layers
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--requests", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.requests, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
