"""modgraph benchmark: closed-loop workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload named --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check [--workload graph-ladder]

Workloads (see bench/BASELINE.json for why each exists and its seed figures):
  named           `modgraph verify --family named --jsonl FILE`, in-process
  census-64       every spec of family_specs(64): build, context, 11 checks
  lattice-ladder  enumeration and order queries on (Z/4)^3, F3^4, F2^5
  graph-ladder    graph build, walks and exact solvers on F2^4, (Z/4)^3, F3^4

A run spends `--seconds` on passes.  Each pass is a fresh interpreter
(bench/worker.py) that runs the whole workload once, closed loop: the next
instance or rung starts when the previous one has finished.  One process and
one thread do all the work.  The run repeats passes while the next one is
expected to end within `--seconds`, and reports medians over passes.
Set-up (import plus input generation) is also sampled in extra processes
that stop before building anything.

`--seed` permutes instance and rung order.  Every pass is checked against
digests recorded from the seed commit (bench/expected.json); the digests do
not depend on order.  A mismatch, an error, or traced counts that differ
between passes makes the run fail: it prints `"correct": false` with no
metrics and exits 1.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics from the traced ones
(bench/tracing.py), with the tracing overhead.  The last stdout line is one
JSON object with keys correct, attempted, failed and metrics; full records
and spans go to .bench_out/ in the checkout.

`--self-check` shows that two traced runs (on different seeds) give equal
counts and that a tampered expected digest fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import STAGES, stage_of
from worker import RUNNERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = tuple(RUNNERS)
# Fixed here, not read from modgraph, so that metric names stay the same
# whatever a later version of the program calls its checks and statuses.
CHECK_IDS = (
    "C1-pair-count",
    "C2-low-degree",
    "C3-length-additivity",
    "C4-small-degree-maximal",
    "C5-structured-shapes",
    "C6-socle-cliques",
    "C7-overline-coloring",
    "C8-complement-coloring",
    "C9-triangle-free",
    "C10-connectivity",
    "C11-structure-report",
)
STATUSES = ("PASS", "FAIL", "VACUOUS", "APPLICABILITY-FAILED", "SKIPPED")

SETUP_ONLY_SAMPLES = 3
# No pass starts after this many seconds, so a run ends well within 180 s.
LAST_PASS_START_S = 120.0
RUN_LIMIT_S = 175.0


class RunFailed(Exception):
    """A pass crashed, timed out, or gave results that differ from the seed's."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MODGRAPH_CAPS", None)  # caps come from the workload, not the caller
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, traced: bool, deadline: float, setup_only=False) -> dict:
    argv = [sys.executable, str(WORKER), workload, str(seed), "1" if traced else "0"]
    if setup_only:
        argv.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} pass did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RunFailed(f"{workload} pass exited with {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def check_pass(workload: str, res: dict, expected: dict) -> None:
    want = expected[workload]
    problems = list(res["errors"])
    if res["digest"] != want["digest"]:
        problems.append(f"result digest {res['digest']} != expected {want['digest']}")
    if res["attempted"] != want["attempted"]:
        problems.append(f"{res['attempted']} operations, expected {want['attempted']}")
    if problems:
        raise RunFailed(f"{workload}: " + "; ".join(problems))


def count_metrics(res: dict) -> dict:
    """The per-layer counts of one traced pass."""
    c = res["trace"]["counts"]
    out = {
        "rings.constructed": c.get("rings.construct", 0),
        "modules.constructed": c.get("modules.construct", 0),
        "modules.constructed_derived": c.get("modules.constructed_derived", 0),
        "modules.close_subset_calls": c.get("modules.close_subset", 0),
        "specs.build_instance_calls": c.get("specs.build_instance", 0),
        "lattice.enumerations": c.get("lattice.enumerate", 0),
        "lattice.submodules": c.get("lattice.submodules", 0),
        "lattice.order_calls": c.get("lattice.order", 0),
        "lattice.struct_calls": c.get("lattice.struct", 0),
        "graphs.built": c.get("graphs.build", 0),
        "graphs.vertices": c.get("graphs.vertices", 0),
        "graphs.edges": c.get("graphs.edges", 0),
        "graphs.walk_calls": c.get("graphs.walk", 0),
        "graphs.coloring_calls": c.get("graphs.coloring", 0),
        "solvers.clique_calls": c.get("solvers.clique", 0),
        "solvers.maximal_cliques_calls": c.get("solvers.maximal_cliques", 0),
        "solvers.chromatic_calls": c.get("solvers.chromatic", 0),
        "solvers.refusals": c.get("solvers.refusals", 0),
        "trace.spans": res["spans"],
    }
    for status in STATUSES:
        out[f"checks.reports.{status.lower()}"] = res["statuses"].get(status, 0)
    return out


def time_metrics(res: dict) -> dict:
    """The per-layer self times (seconds) and stage shares (%) of one traced pass."""
    self_s, incl = res["trace"]["self"], res["trace"]["incl"]
    out = {
        "rings.construct_s": self_s.get("rings.construct", 0.0),
        "modules.construct_s": self_s.get("modules.construct", 0.0),
        "modules.close_subset_s": self_s.get("modules.close_subset", 0.0),
        "specs.build_instance_s": incl.get("specs.build_instance", 0.0),
        "specs.self_s": self_s.get("specs.build_instance", 0.0),
        "lattice.enumerate_s": self_s.get("lattice.enumerate", 0.0),
        "lattice.order_s": self_s.get("lattice.order", 0.0),
        "lattice.struct_s": self_s.get("lattice.struct", 0.0),
        "graphs.build_s": self_s.get("graphs.build", 0.0),
        "graphs.walk_s": self_s.get("graphs.walk", 0.0),
        "graphs.coloring_s": self_s.get("graphs.coloring", 0.0),
        "solvers.clique_s": self_s.get("solvers.clique", 0.0),
        "solvers.maximal_cliques_s": self_s.get("solvers.maximal_cliques", 0.0),
        "solvers.chromatic_s": self_s.get("solvers.chromatic", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.wall_s": res["wall_s"],
    }
    for cid in CHECK_IDS:
        out[f"checks.{cid}_s"] = self_s.get(f"checks.{cid}", 0.0)
    stage_s = dict.fromkeys(STAGES, 0.0)
    for name, secs in self_s.items():
        stage_s[stage_of(name)] += secs
    for stage, secs in stage_s.items():
        out[f"share.{stage}"] = 100 * secs / res["wall_s"]
    out["share.outside_spans"] = 100 - sum(out[f"share.{s}"] for s in STAGES)
    return out


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(workload: str, seed: int, seconds: float, traced: bool, expected: dict) -> dict:
    """Run passes for `seconds` and return the run record; raises RunFailed."""
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    setups = [
        spawn(workload, seed, False, deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_ONLY_SAMPLES)
    ]
    plain: list[dict] = []
    traced_passes: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        trace_this = traced and len(traced_passes) < len(plain)
        began = time.monotonic()
        res = spawn(workload, seed, trace_this, deadline)
        longest = max(longest, time.monotonic() - began)
        check_pass(workload, res, expected)
        (traced_passes if trace_this else plain).append(res)
        setups.append(res["setup_s"])
        enough = bool(plain) and (bool(traced_passes) or not traced)
        now = time.monotonic()
        if enough and (now - start + longest > seconds or now - t0 > LAST_PASS_START_S):
            break
    counts = [count_metrics(r) for r in traced_passes]
    for other in counts[1:]:
        if other != counts[0]:
            diff = {k: (counts[0][k], other[k]) for k in other if other[k] != counts[0][k]}
            raise RunFailed(f"{workload}: traced counts differ between passes: {diff}")
    passes = plain + traced_passes
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "passes": len(plain),
        "traced_passes": len(traced_passes),
        "setup_samples": len(setups),
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "caps": plain[0]["caps"],
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "platform": platform.platform(),
        },
    }
    wall = statistics.median(r["wall_s"] for r in plain)
    if traced:
        metrics = median_of([time_metrics(r) for r in traced_passes])
        metrics.update(counts[0])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        metrics["failed_frac"] = record["failed"] / record["attempted"]
        record["tracing_overhead_s"] = metrics["trace.overhead_s"]
    else:
        # A unit is what the closed loop waits on: an instance of census-64,
        # a rung of a ladder, the whole command of named.  Units keep their
        # order across the passes of a run, so each gets its median time.
        unit_ms = [statistics.median(times) for times in zip(*(r["units_ms"] for r in plain))]
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "instance_p50_ms": percentile(unit_ms, 50),
            "instance_p95_ms": percentile(unit_ms, 95),
        }
        record["units_per_pass"] = len(unit_ms)
        record["pass_wall_s"] = [r["wall_s"] for r in plain]
        record["pass_units_ms"] = [r["units_ms"] for r in plain]
        record["failed_frac"] = record["failed"] / record["attempted"]
    record["metrics"] = metrics
    return record


def load_expected() -> dict:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def unit_of(name: str) -> str:
    if name.startswith("share."):
        return "%"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name == "failed_frac":
        return "ratio"
    return "count"


def report(record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2, sort_keys=True))
    print(
        f"# workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"passes={record['passes']}+{record['traced_passes']} traced "
        f"setup_samples={record['setup_samples']}"
    )
    print("# env " + json.dumps({**record["env"], "caps": record["caps"]}, sort_keys=True))
    for key, value in record["metrics"].items():
        print(f"{key:<36} {value:.6g} {unit_of(key)}")
    if "failed_frac" in record:
        print(f"{'failed_frac':<36} {record['failed_frac']:.6g} ratio "
              f"({record['failed']}/{record['attempted']})")
    result = {
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in record["metrics"].items()},
    }
    print(json.dumps(result))


def self_check(workloads: list[str], seed: int, expected: dict) -> int:
    ok = True
    for workload in workloads:
        first = measure(workload, seed, 0, True, expected)
        second = measure(workload, seed + 1, 0, True, expected)
        counts = {k: v for k, v in first["metrics"].items() if unit_of(k) == "count"}
        again = {k: v for k, v in second["metrics"].items() if unit_of(k) == "count"}
        same = counts == again and first["attempted"] == second["attempted"]
        print(f"{workload}: traced counts on seeds {seed} and {seed + 1} "
              f"{'equal' if same else 'DIFFER'} ({len(counts)} counts)")
        ok &= same
        tampered = {**expected, workload: {**expected[workload], "digest": "0" * 64}}
        try:
            measure(workload, seed, 0, False, tampered)
            caught = False
        except RunFailed as exc:
            caught = "digest" in str(exc)
        print(f"{workload}: tampered expected digest {'caught' if caught else 'NOT caught'}")
        ok &= caught
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modgraph" / "__init__.py").is_file():
        print(f"error: no modgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = load_expected()
    if args.self_check:
        return self_check([args.workload] if args.workload else list(WORKLOADS), args.seed, expected)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        # The run itself is the one operation known to have been attempted.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
