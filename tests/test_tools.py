import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ab

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
        for key in ("sum_ratio", "median_ratio", "geomean_ratio"):
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
