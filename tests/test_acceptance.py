"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All assertions are exact; no tolerances apply anywhere in this suite.
"""

import json
import subprocess
import sys

import pytest

from modgraph.checks import APPLICABILITY_FAILED, FAIL, PASS, run_suite
from modgraph.lattice import enumerate_submodules
from modgraph.solvers import chromatic_number, max_clique

from .oracles import (
    brute_chromatic,
    brute_max_clique,
    brute_submodules_grow,
    brute_submodules_subsets,
    subspace_count,
)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def all_contexts(named_contexts, family16_contexts):
    return named_contexts + family16_contexts


def test_criterion_01_selfsum_graph_order(ctx_by_id):
    cases = {
        2: "gf(2,1)^2/selfsum",
        3: "gf(3,1)^2/selfsum",
        4: "gf(2,2)^2/selfsum",
        5: "gf(5,1)^2/selfsum",
    }
    got = {q: ctx_by_id[name].graph.n for q, name in cases.items()}
    _verdict(
        "01 doubled-simple order", all(got[q] == q + 1 for q in cases),
        f"|G(S+S)| over F_q: {got} (expected q+1 each)",
    )


def test_criterion_02_matrix_ring_null_shape(ctx_by_id):
    ok, seen = True, {}
    for q in (2, 3):
        g = ctx_by_id[f"M2(F{q})/regular"].graph
        shape = g.classify_shape()
        seen[q] = (shape.tag, shape.order)
        ok = ok and shape.tag == "null" and shape.order == q + 1
    _verdict("02 matrix-ring shape", ok, f"shapes {seen} (expected null of order q+1)")


def test_criterion_03_local_algebra_star_shape(ctx_by_id):
    ok, seen = True, {}
    for p in (2, 3):
        g = ctx_by_id[f"polyquot(F{p},x^2,x*y,y^2)/regular"].graph
        seen[p] = (g.classify_shape().tag, g.n, g.is_star_graph())
        ok = ok and g.is_star_graph() and g.n == p + 2
    _verdict("03 local-algebra star", ok, f"(shape, order, star) {seen} (expected star of order p+2)")


def test_criterion_04_triangular_degree_contract(ctx_by_id):
    ok = True
    lines = []
    for q, name in [(4, "triangular(F4,F2)/regular"), (9, "triangular(F9,F3)/regular")]:
        ctx = ctx_by_id[name]
        g, lat = ctx.graph, ctx.lattice
        maximal_vertices = [i - 1 for i in lat.maximal_indices()]  # vertex v is member v + 1
        small = [v for v in maximal_vertices if g.degree(v) < g.n - 1]
        here = len(small) == 1
        t = small[0]
        dt, dtc = g.degree(t), g.complement_degree(t)
        from modgraph.checks import check_small_degree_maximal, check_structured_shapes

        c4 = check_small_degree_maximal(ctx)
        c5 = check_structured_shapes(ctx)
        item = next(v for v in c4.details.values() if isinstance(v, dict))
        here = (
            here
            and dt == 2
            and dtc == q
            and g.n == q + 3
            and c4.status == PASS
            and c5.status == PASS
            and item["g_T"] == 1
            and item["g_T_over_inner"] == 0
            and dt == 2 * item["g_T"] == 2 * item["g_T_over_inner"] + 2
        )
        lines.append(f"{name}: deg(T)={dt}, deg_c={dtc}, alpha={g.n}")
        ok = ok and here
    _verdict("04 triangular contract", ok, "; ".join(lines))


def _zero_fail(tag, desc, contexts, check_id, extra=None):
    reports, _ = run_suite(contexts, [check_id])
    fails = [r for r in reports if r.status == FAIL]
    passes = sum(r.status == PASS for r in reports)
    detail = f"{len(reports)} reports, {passes} PASS, {len(fails)} FAIL"
    if extra:
        detail += f"; {extra(reports)}"
    ok = not fails and passes > 0
    _verdict(tag, ok, detail + ("" if not fails else f"; first: {fails[0].witness}"))
    return reports


def test_criterion_05_low_degree_dichotomies(all_contexts):
    _zero_fail("05 low-degree dichotomies", "", all_contexts, "C2-low-degree")


def test_criterion_06_maximal_cliques_are_overlines(all_contexts):
    _zero_fail("06 socle maximal cliques", "", all_contexts, "C6-socle-cliques")


def test_criterion_07_clique_equals_chromatic(all_contexts):
    # C7 reads omega and chi off the overlines; the exact solvers check them
    graphs = {ctx.instance_id: ctx.graph for ctx in all_contexts}

    def exact(report):
        g = graphs[report.instance_id]
        return g.clique_number()[0], g.chromatic()[0]

    def constructions(reports):
        built = [r for r in reports if r.status == PASS]
        agree = all((r.details["omega"], r.details["chi"]) == exact(r) for r in built)
        return f"{len(built)} constructions, omega and chi matching the exact solvers: {agree}"

    reports = _zero_fail("07 socle coloring", "", all_contexts, "C7-overline-coloring", constructions)
    built = [r for r in reports if r.status == PASS]
    assert built and all(
        exact(r) == (r.details["omega"], r.details["chi"]) == (r.details["construction_colors"],) * 2 for r in built
    )


def test_criterion_08_complement_equality_and_gaps(all_contexts):
    reports, _ = run_suite(all_contexts, ["C8-complement-coloring"])
    fails = [r for r in reports if r.status == FAIL]
    gaps = [r for r in reports if r.status == APPLICABILITY_FAILED]
    tri_gap = any(r.instance_id == "triangular(F4,F2)/regular" for r in gaps)
    equal = [r for r in reports if r.status in (PASS, APPLICABILITY_FAILED)]
    all_equal = all(r.details["omega_c"] == r.details["chi_c"] for r in equal)
    # C8 reads omega_c and chi_c off the atom certificate: the exact solvers,
    # run on the complement rows, must agree with every value it reports
    graphs = {ctx.instance_id: ctx.graph for ctx in all_contexts}
    exact = True
    for r in reports:
        if "omega_c" not in r.details:
            continue
        g = graphs[r.instance_id]
        comp = g.complement_adj()
        omega_c, witness = max_clique(g.n, comp)
        exact = exact and r.details["omega_c"] == omega_c
        if "chi_c" in r.details:
            exact = exact and r.details["chi_c"] == chromatic_number(g.n, comp, witness)[0]
    ok = not fails and all_equal and exact and len(gaps) >= 1 and tri_gap
    _verdict(
        "08 complement equality", ok,
        f"{len(equal)} instances with omega<=omega_c, all omega_c=chi_c: {all_equal}; "
        f"omega_c and chi_c matching the exact solvers: {exact}; "
        f"{len(gaps)} construction gaps (triangular(F4,F2) included: {tri_gap})",
    )


def test_criterion_09_triangle_free_classification(all_contexts):
    reports = _zero_fail("09 triangle-free trichotomy", "", all_contexts, "C9-triangle-free")
    tf = [r for r in reports if r.details.get("triangle_free")]
    girth_ok = all(
        ctx.graph.girth() == float("inf")
        for ctx in all_contexts
        if ctx.graph.is_triangle_free()
    )
    assert girth_ok
    print(f"  ({len(tf)} triangle-free instances, all with infinite girth)")


def test_criterion_10_connectivity(all_contexts):
    _zero_fail("10 connectivity", "", all_contexts, "C10-connectivity")


def test_criterion_11_oracle_equivalence(all_contexts):
    from modgraph.modules import direct_sum, regular_module
    from modgraph.rings import ring_gf

    lattice_checked = graph_checked = 0
    seen_sizes = set()
    for ctx in all_contexts:
        m = ctx.module
        if m.size <= 32 and (m.size, ctx.instance_id) not in seen_sizes:
            got = sorted((s.members for s in ctx.lattice.subs), key=lambda t: (len(t), t))
            assert got == brute_submodules_grow(m), ctx.instance_id
            if m.size <= 12:
                assert got == brute_submodules_subsets(m), ctx.instance_id
            lattice_checked += 1
        g = ctx.graph
        if g.n <= 12:
            assert max_clique(g.n, g.adj)[0] == brute_max_clique(g.n, g.adj)[0], ctx.instance_id
            chi, _ = chromatic_number(g.n, g.adj, max_clique(g.n, g.adj)[1])
            assert chi == brute_chromatic(g.n, g.adj), ctx.instance_id
            graph_checked += 1
    gauss_ok = True
    for q in (2, 3):
        reg = regular_module(ring_gf(q, 1))
        space = reg
        for d in (1, 2, 3):
            if d > 1:
                space = direct_sum(space, reg)
            gauss_ok = gauss_ok and len(enumerate_submodules(space)) == subspace_count(d, q)
    _verdict(
        "11 oracle equivalence", lattice_checked > 20 and graph_checked > 30 and gauss_ok,
        f"{lattice_checked} lattices vs brute force, {graph_checked} graphs vs brute force, "
        f"Gaussian-binomial counts ok: {gauss_ok}",
    )


def test_criterion_12_byte_determinism(tmp_path):
    spec = {"version": 1, "ring": {"kind": "zmod", "n": 12}, "module": {"kind": "regular"}}
    path = tmp_path / "z12.json"
    path.write_text(json.dumps(spec))
    jsonl = tmp_path / "reports.jsonl"

    def run(cmd):
        jsonl.unlink(missing_ok=True)
        out = subprocess.run(
            [sys.executable, "-m", "modgraph.cli", *cmd], capture_output=True, check=True,
        ).stdout
        return out, jsonl.read_bytes() if jsonl.exists() else None

    outputs = {}
    for label, cmd in (
        ("graph-json", ["graph", str(path), "--format", "json"]),
        ("graph-dot", ["graph", str(path), "--format", "dot"]),
        ("invariants", ["invariants", str(path)]),
        ("verify-jsonl", ["verify", str(path), "--jsonl", str(jsonl)]),
    ):
        runs = [run(cmd) for _ in range(2)]
        outputs[label] = runs[0] == runs[1]
    _verdict("12 determinism", all(outputs.values()), f"byte-identical reruns: {outputs}")
