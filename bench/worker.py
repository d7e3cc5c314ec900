"""One pass of one benchmark workload, run in a fresh interpreter.

    python3 bench/worker.py <workload> <seed> <traced 0|1> [--setup-only]

A fresh process per pass keeps passes independent: no field table, cache or
allocator state survives from one pass to the next, and ru_maxrss is the
peak of this pass alone.  The pass prints one JSON object as the last line
of stdout: set-up and wall time, per-unit times, peak RSS, operation counts,
the order-independent result digest and, when traced, the per-span summary.

`bench/run.py` starts these processes; run it, not this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# The exact-solver vertex cap is raised here, and only here, so that the
# graph ladder's largest rung (n=210) is solved instead of refused.
LADDER_MAX_EXACT_VERTICES = 256

# Rungs are regular modules R^k given as (label, ring spec, k).
LATTICE_RUNGS = (
    ("Z4^3", {"kind": "zmod", "n": 4}, 3),
    ("F3^4", {"kind": "gf", "p": 3, "k": 1}, 4),
    ("F2^5", {"kind": "gf", "p": 2, "k": 1}, 5),
)
GRAPH_RUNGS = (
    ("F2^4", {"kind": "gf", "p": 2, "k": 1}, 4),
    ("Z4^3", {"kind": "zmod", "n": 4}, 3),
    ("F3^4", {"kind": "gf", "p": 3, "k": 1}, 4),
)
# chi and chi_c on F3^4 did not finish within 120 s at the seed.
CHROMATIC_RUNGS = ("F2^4", "Z4^3")


def gaussian_subspace_count(q: int, n: int) -> int:
    """Number of subspaces of F_q^n: the sum of Gaussian binomials [n, k]_q."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


# Lattice sizes of F_q^n rungs, checked against Gaussian binomials.
GAUSSIAN_RUNGS = {"F2^4": (2, 4), "F2^5": (2, 5), "F3^4": (3, 4)}


def digest(records) -> str:
    """sha256 of the sorted canonical JSON lines, so input order is irrelevant."""
    lines = sorted(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def report_record(report_json: dict) -> dict:
    """A check report without its timing field, if it has one."""
    return {k: v for k, v in report_json.items() if k != "seconds"}


class Pass:
    """Operation counts, per-unit times and result records of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.units_ms: list[float] = []
        self.records: list[dict] = []
        self.statuses: dict[str, int] = {}

    def count_reports(self, reports: list[dict]) -> None:
        for rep in reports:
            self.attempted += 1
            status = rep["status"]
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status in ("SKIPPED", "FAIL"):
                self.failed += 1
            self.records.append(report_record(rep))

    def call(self, what: str, fn):
        """One invariant call; a raised exception counts as a failed operation
        and is recorded in the digest, so it also breaks correctness."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # any refusal or failure is a measured outcome
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return f"error:{type(exc).__name__}"


def rung_spec(make_spec, ring: dict, k: int) -> dict:
    module = {"kind": "regular"}
    for _ in range(k - 1):
        module = {"kind": "direct_sum", "left": module, "right": {"kind": "regular"}}
    return make_spec(ring, module)


def setup(workload: str, seed: int):
    """Import modgraph and generate this workload's inputs; nothing is built."""
    import modgraph
    import modgraph.zoo as zoo

    rng = random.Random(seed)
    if workload == "named":
        specs = zoo.named_instance_specs()
        rng.shuffle(specs)
        # The CLI reads the zoo through this function; serve it in seed order.
        zoo.named_instance_specs = lambda: list(specs)
        return specs
    if workload == "census-64":
        specs = zoo.family_specs(64)
        rng.shuffle(specs)
        return specs
    rungs = LATTICE_RUNGS if workload == "lattice-ladder" else GRAPH_RUNGS
    specs = [(label, rung_spec(modgraph.make_spec, ring, k)) for label, ring, k in rungs]
    rng.shuffle(specs)
    return specs


def run_named(specs, p: Pass, caps) -> None:
    # The CLI builds its own caps from MODGRAPH_CAPS, which the benchmark clears.
    import modgraph.cli

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"named-{os.getpid()}.jsonl"
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = modgraph.cli.main(["verify", "--family", "named", "--jsonl", str(path)])
    p.units_ms.append((time.perf_counter() - start) * 1e3)
    try:
        reports = [json.loads(line) for line in path.read_text().splitlines() if line]
    finally:
        path.unlink(missing_ok=True)
    if code != 0:
        p.errors.append(f"verify --family named exited with {code}")
    p.count_reports(reports)


def run_census(specs, p: Pass, caps) -> None:
    import modgraph.checks as checks
    import modgraph.specs
    import modgraph.zoo as zoo

    for spec in specs:
        start = time.perf_counter()
        ctx = zoo.InstanceContext(modgraph.specs.build_instance(spec, caps), caps)
        reports, _ = checks.run_suite([ctx], None, caps)
        p.units_ms.append((time.perf_counter() - start) * 1e3)
        p.count_reports([r.to_json() for r in reports])


def workload_caps(workload: str):
    """The caps a workload runs under: the defaults, except on the ladders."""
    from modgraph.caps import Caps

    if workload.endswith("-ladder"):
        return Caps(max_exact_vertices=LADDER_MAX_EXACT_VERTICES)
    return Caps()


def run_lattice_ladder(specs, p: Pass, caps) -> None:
    import modgraph.lattice as lattice
    import modgraph.specs

    for label, spec in specs:
        start = time.perf_counter()
        inst = modgraph.specs.build_instance(spec, caps)
        p.attempted += 1  # an enumeration that raises ends the pass
        lat = lattice.enumerate_submodules(inst.module, caps)
        record = {
            "rung": label,
            "submodules": len(lat),
            "simples": [i for i in range(len(lat)) if p.call("is_simple", lambda: lat.is_simple(i))],
            "maximal": p.call("maximal_indices", lat.maximal_indices),
            "socle_size": p.call("socle_index", lambda: lat.subs[lat.socle_index()].size),
            "length": p.call("composition_length", lat.composition_length),
            "goldie": p.call("goldie_dimension", lambda: lat.goldie_dimension()[0]),
        }
        p.units_ms.append((time.perf_counter() - start) * 1e3)
        p.records.append(record)


def run_graph_ladder(specs, p: Pass, caps) -> None:
    import modgraph.graphs as graphs
    import modgraph.lattice as lattice
    import modgraph.specs

    def number(value):
        return "inf" if value == graphs.INF else int(value)

    for label, spec in specs:
        start = time.perf_counter()
        inst = modgraph.specs.build_instance(spec, caps)
        lat = lattice.enumerate_submodules(inst.module, caps)
        g = graphs.build_graph(lat)
        record = {
            "rung": label,
            "submodules": len(lat),
            "order": g.n,
            "edges": sum(a.bit_count() for a in g.adj) // 2,
            "degrees": p.call("degrees", g.degrees),
            "diameter": p.call("diameter", lambda: number(g.diameter())),
            "girth": p.call("girth", lambda: number(g.girth())),
            "connected": p.call("is_connected", g.is_connected),
            "triangle_free": p.call("is_triangle_free", g.is_triangle_free),
            "shape": p.call("classify_shape", lambda: g.classify_shape().tag),
            "omega": p.call("omega", lambda: g.clique_number(caps)[0]),
            "omega_c": p.call("omega_c", lambda: g.complement_clique_number(caps)[0]),
        }
        if label in CHROMATIC_RUNGS:
            record["chi"] = p.call("chi", lambda: g.chromatic(caps)[0])
            record["chi_c"] = p.call("chi_c", lambda: g.complement_chromatic(caps)[0])
        p.units_ms.append((time.perf_counter() - start) * 1e3)
        p.records.append(record)


RUNNERS = {
    "named": run_named,
    "census-64": run_census,
    "lattice-ladder": run_lattice_ladder,
    "graph-ladder": run_graph_ladder,
}


def gaussian_errors(records) -> list[str]:
    errors = []
    for rec in records:
        if rec.get("rung") in GAUSSIAN_RUNGS:
            want = gaussian_subspace_count(*GAUSSIAN_RUNGS[rec["rung"]])
            if rec["submodules"] != want:
                errors.append(f"{rec['rung']}: {rec['submodules']} submodules, Gaussian count {want}")
    return errors


def main(argv: list[str]) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    setup_only = "--setup-only" in argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    specs = setup(workload, seed)
    setup_s = time.perf_counter() - T_START
    out: dict = {"setup_s": setup_s}
    if not setup_only:
        tracer = None
        if traced:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        p = Pass()
        caps = workload_caps(workload)
        start = time.perf_counter()
        RUNNERS[workload](specs, p, caps)
        wall_s = time.perf_counter() - start
        out.update(
            wall_s=wall_s,
            caps=dataclasses.asdict(caps),
            units_ms=p.units_ms,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=p.attempted,
            failed=p.failed,
            errors=p.errors + gaussian_errors(p.records),
            statuses=p.statuses,
            digest=digest(p.records),
        )
        if tracer is not None:
            out["trace"] = tracer.summary()
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{workload}.json"
            spans_path.write_text(json.dumps({"seed": seed, "spans": tracer.dump_spans()}))
            out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
