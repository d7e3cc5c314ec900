"""The benchmark's correctness gate, run as a test: one untraced pass per
workload must reproduce the result digest and operation count recorded in
bench/expected.json, so output drift fails here and not first in a bench run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_one_bench_pass_matches_the_recorded_digest(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from run import child_env

    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), workload, "1", "0"],
        cwd=BENCH_DIR.parent, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["errors"] == [] and out["failed"] == 0, out["errors"]
    assert (out["digest"], out["attempted"]) == (EXPECTED[workload]["digest"], EXPECTED[workload]["attempted"])
