import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ab
import grid

ROOT = Path(__file__).resolve().parents[1]


def _ab(tree_a, tree_b, workload, requests=12, rounds=2):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(tree_a), str(tree_b),
         "--workload", workload, "--rounds", str(rounds), "--requests", str(requests)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stderr == "", proc.stderr
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_ab_of_one_tree_reads_one():
    # chpow-wide's first 120 requests sum to about 0.3 s a side (2-CPU Xeon,
    # CPython 3.11.7), and their round ratios read 0.97-1.03 there; a stall
    # would have to last about as long as a whole side to leave the window
    rc, result = _ab(ROOT, ROOT, "chpow-wide", requests=120)
    assert rc == 0
    assert result["requests"] == 120 and len(result["rounds"]) == 2
    for r in result["rounds"]:
        assert r["mismatches"] == 0
        # loose: short requests on a shared host
        for key in ("sum_ratio", "median_ratio", "geomean_ratio", "p90_ratio"):
            assert 0.5 < r[key] < 2, (key, r)


def test_ab_catches_a_tree_with_different_output(tmp_path):
    shutil.copytree(ROOT / "src" / "ratroot", tmp_path / "src" / "ratroot",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ratroot" / "cli.py"
    text = cli.read_text()
    assert "APPROX_BURN_IN = 10\n" in text
    cli.write_text(text.replace("APPROX_BURN_IN = 10\n", "APPROX_BURN_IN = 11\n"))
    rc, result = _ab(ROOT, tmp_path, "approx-wide", requests=6, rounds=1)
    assert rc == 1
    assert result["rounds"][0]["mismatches"] > 0


def test_ab_exits_141_when_its_reader_leaves():
    # the reader takes the first round's line and closes the pipe: the next
    # line ends the run as SIGPIPE would, with status 141 and nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
         "--workload", "approx-wide", "--rounds", "3", "--requests", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().startswith(b"round 1: ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("flag,value", [("--requests", "0"), ("--requests", "-244"),
                                        ("--rounds", "0"), ("--rounds", "-1")])
def test_ab_refuses_counts_below_one(capsys, monkeypatch, flag, value):
    # a count below 1 would time a slice from the list's end, or divide by an
    # empty sum: argparse refuses it with exit 2 before any worker starts
    monkeypatch.setattr(sys, "path", list(sys.path))

    def no_worker(*args, **kwargs):
        pytest.fail("a worker started")

    monkeypatch.setattr(subprocess, "Popen", no_worker)
    with pytest.raises(SystemExit) as exc:
        ab.main([str(ROOT), str(ROOT), "--workload", "approx-wide", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least 1, got {int(value)}" in capsys.readouterr().err


class _FakeWorker:
    """Stands in for an ab worker process: records each argv line it is sent
    and answers it at once with one fixed time and digest."""

    def __init__(self, args, **kwargs):
        self.tree = args[-1]
        self.seen = []
        self.stdin = self.stdout = self

    def write(self, line):
        self.seen.append(json.loads(line))

    def readline(self):
        return json.dumps([0.001, "digest"]) + "\n"

    def flush(self):
        pass

    def close(self):
        pass

    def wait(self, timeout=None):
        return 0


@pytest.fixture
def fake_workers(monkeypatch):
    """The workers ab.main starts, each a _FakeWorker; sys.path is restored."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    workers = []

    def start(args, **kwargs):
        workers.append(_FakeWorker(args, **kwargs))
        return workers[-1]

    monkeypatch.setattr(subprocess, "Popen", start)
    return workers


@pytest.mark.parametrize("count", [None, "1"])
def test_ab_times_the_requests_of_an_argv_file(capsys, fake_workers, tmp_path, count):
    # each line is one request, blank lines are skipped, and --requests takes
    # the head of the list; both workers of every round see every request
    requests = [["approx", "--n", "2", "--k", "2", "--digits", "5"], ["eig", "--n", "3", "--k", "2"]]
    path = tmp_path / "requests.jsonl"
    path.write_text(json.dumps(requests[0]) + "\n\n" + json.dumps(requests[1]) + "\n")
    argv = [str(ROOT), str(tmp_path), "--argv-file", str(path), "--rounds", "2"]
    rc = ab.main(argv + (["--requests", count] if count else []))
    assert rc == 0
    want = requests[:int(count)] if count else requests
    assert [w.tree for w in fake_workers] == [str(ROOT), str(tmp_path)] * 2
    assert all(w.seen == want for w in fake_workers)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["round 1", "round 2", "summary"]
    result = json.loads(lines[-1])
    assert result["argv_file"] == str(path) and "workload" not in result
    assert result["requests"] == len(want) and len(result["rounds"]) == 2


class _SlowTailWorker(_FakeWorker):
    """A fake worker whose i-th request takes i ms, and twice that for
    requests 1, 9 and 10 when it serves the tree named ``slow``."""

    def readline(self):
        i = len(self.seen)
        slow = self.tree.endswith("slow") and i in (1, 9, 10)
        return json.dumps([0.001 * i * (2 if slow else 1), "digest"]) + "\n"


@pytest.mark.parametrize("count", [1, 10])
def test_ab_p90_ratio_is_the_ratio_of_the_90th_percentiles(capsys, monkeypatch, tmp_path, count):
    # B's 90th-percentile time over A's: 19.8 ms over 9.9 ms for ten
    # requests (perfbench's quantiles), and the one request's ratio for one;
    # the sum and median ratios read something else
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(subprocess, "Popen", lambda args, **kwargs: _SlowTailWorker(args))
    path = tmp_path / "requests.jsonl"
    path.write_text((json.dumps(["eig", "--n", "3", "--k", "2"]) + "\n") * 10)
    rc = ab.main([str(ROOT), str(tmp_path / "slow"), "--argv-file", str(path), "--rounds", "1",
                  "--requests", str(count)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    (r,) = json.loads(lines[-1])["rounds"]
    assert r["p90_ratio"] == pytest.approx(2)
    assert "  p90 2.000  " in lines[0]
    if count == 10:
        assert r["sum_ratio"] == pytest.approx(75 / 55) and r["median_ratio"] == 1


def test_ab_summarizes_the_rounds(capsys, monkeypatch, tmp_path):
    # B takes 1, 3 and 2 times A's time in rounds 1 to 3, so each of the sum,
    # median and p90 ratios has median 2 and range 1-3 over the rounds, in
    # the summary line and in the JSON
    monkeypatch.setattr(sys, "path", list(sys.path))
    factors = iter([1, 3, 2])

    class Worker(_FakeWorker):
        def __init__(self, args, **kwargs):
            super().__init__(args, **kwargs)
            self.seconds = 0.001 * (next(factors) if self.tree.endswith("slow") else 1)

        def readline(self):
            return json.dumps([self.seconds, "digest"]) + "\n"

    monkeypatch.setattr(subprocess, "Popen", Worker)
    path = tmp_path / "requests.jsonl"
    path.write_text((json.dumps(["eig", "--n", "3", "--k", "2"]) + "\n") * 4)
    rc = ab.main([str(ROOT), str(tmp_path / "slow"), "--argv-file", str(path), "--rounds", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["round 1", "round 2", "round 3",
                                                           "summary"]
    assert lines[3] == ("summary: sum 2.000 (1.000-3.000)  median 2.000 (1.000-3.000)  "
                        "p90 2.000 (1.000-3.000)")
    result = json.loads(lines[-1])
    assert [r["sum_ratio"] for r in result["rounds"]] == pytest.approx([1, 3, 2])
    assert list(result["summary"]) == ["sum_ratio", "median_ratio", "p90_ratio"]
    for summary in result["summary"].values():
        assert summary == pytest.approx({"median": 2, "min": 1, "max": 3})


@pytest.mark.parametrize("source,message", [
    ([], "one of the arguments --workload --argv-file is required"),
    (["--workload", "approx-wide", "--argv-file", "x.jsonl"], "not allowed with argument"),
    (["--argv-file", "{missing}"], "cannot read"),
    (["--argv-file", "{empty}"], "holds no request"),
    (["--argv-file", "{bad}"], "line 2 of"),
])
def test_ab_refuses_a_bad_request_source(capsys, fake_workers, tmp_path, source, message):
    # --workload and --argv-file exclude each other, one of them is required,
    # and a file that is not one JSON list of strings per line is refused:
    # argparse exits 2 before any worker starts
    files = {"missing": tmp_path / "missing.jsonl", "empty": tmp_path / "empty.jsonl",
             "bad": tmp_path / "bad.jsonl"}
    files["empty"].write_text("\n")
    files["bad"].write_text('["approx", "--n", "2"]\n["approx", 2]\n')
    source = [a.format(**files) for a in source]
    with pytest.raises(SystemExit) as exc:
        ab.main([str(ROOT), str(ROOT), *source])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert fake_workers == []


def test_approx_big_list_holds_n2_answers_past_the_cutover_in_every_class_mod_8(monkeypatch):
    # every line is an approx argv the parser accepts; its n = 2 requests at
    # k <= 50 run a Decimal ladder (a reduced q past INT_STR_CUTOVER) for k
    # in each class mod 8
    from ratroot import cli, engine

    requests = ab.read_argv_file(None, ROOT / "tools" / "approx_big.jsonl")
    parsed = [cli.build_parser().parse_args(argv) for argv in requests]
    assert {args.command for args in parsed} == {"approx"}
    true_ladder = engine.ring_pow_one_plus_x
    classes = set()

    def counting_ladder(params, t, *args):
        if args:
            classes.add(params.k % 8)
        return true_ladder(params, t, *args)

    monkeypatch.setattr(engine, "ring_pow_one_plus_x", counting_ladder)
    for argv, args in zip(requests, parsed):
        if args.n == 2 and args.k <= 50:
            assert grid.replay(argv)[0] == 0, argv
    assert classes == set(range(8))
