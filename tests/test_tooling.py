"""The benchmark harness and the scripts under scripts/ run against the
current API: each is started as its own process, as a user would."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(argv, cwd, timeout=300):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable] + argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_benchmark_selfcheck(tmp_path):
    # run from a directory of links, so the run records land in tmp_path
    for name in ("src", "benchmark", "BENCHMARK.json"):
        (tmp_path / name).symlink_to(ROOT / name)
    out = _run(["benchmark/selfcheck.py"], cwd=tmp_path)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "selfcheck: ok" in out.stdout


def test_make_tables(tmp_path):
    out = _run([str(ROOT / "scripts" / "make_tables.py")], cwd=tmp_path)
    assert out.returncode == 0, out.stderr


def test_bench_sweep(tmp_path):
    out = _run([str(ROOT / "scripts" / "bench_sweep.py"),
                "--sizes", "64", "--k", "2", "--sigma", "16"], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("correct: True") == 4  # one run per backend
