import hashlib
import json
import sys
from collections import Counter

import pytest

from modgraph import checks, graphs, lattice, modules, rings, solvers
from modgraph.caps import Caps
from modgraph.checks import (
    ALL_CHECKS,
    APPLICABILITY_FAILED,
    FAIL,
    PASS,
    VACUOUS,
    check_complement_coloring,
    check_connectivity,
    check_length_additivity,
    check_low_degree,
    check_overline_coloring,
    check_pair_count,
    check_small_degree_maximal,
    check_socle_cliques,
    check_structured_shapes,
    check_triangle_free,
    render_summary,
    reports_to_jsonl,
    run_suite,
)
from modgraph.errors import SpecError
from modgraph.lattice import enumerate_submodules, prime_radical, section_hom_count
from modgraph.modules import regular_module
from modgraph.specs import build_instance, make_spec
from modgraph.zoo import InstanceContext, contexts, family_specs, named_instance_specs

from .oracles import brute_residue_is_division


@pytest.fixture(scope="module")
def named_reports(named_contexts):
    return run_suite(named_contexts)


def test_no_failures_on_named_instances(named_reports):
    reports, summary = named_reports
    assert not summary.failed
    assert all(r.status != FAIL for r in reports)


def test_every_check_has_a_nonvacuous_instance(named_reports):
    reports, summary = named_reports
    assert not summary.warnings
    for cid, counts in summary.counts.items():
        assert set(counts) != {VACUOUS}, cid


def test_c4_nonvacuous_on_triangular(ctx_by_id):
    rep = check_small_degree_maximal(ctx_by_id["triangular(F4,F2)/regular"])
    assert rep.status == PASS
    item = rep.details["<[[0,1],[0,0]],[[0,0],[0,1]]>"]
    assert item["deg"] == 2 and item["deg_c"] == 4
    assert item["end_size"] == 4
    assert item["deg_formula_adjusted"] and not item["deg_formula_stated"]
    assert item["g_T"] == 1 and item["g_T_over_inner"] == 0


def test_c4_vacuous_on_mixed_sum(ctx_by_id):
    rep = check_small_degree_maximal(ctx_by_id["zmod(4)/sum(quot(regular;2),regular)"])
    assert rep.status == VACUOUS


def test_c4_handles_simple_maximal_ideals(ctx_by_id):
    rep = check_small_degree_maximal(ctx_by_id["M2(F2)/regular"])
    assert rep.status == PASS
    items = [v for k, v in rep.details.items() if isinstance(v, dict)]
    assert items and all(it.get("t_simple") for it in items)


def test_c5_exact_counts(ctx_by_id):
    for q, name in [(4, "triangular(F4,F2)/regular"), (9, "triangular(F9,F3)/regular")]:
        rep = check_structured_shapes(ctx_by_id[name])
        assert rep.status == PASS
        assert rep.details["deg_T"] == 2
        assert rep.details["alpha"] == q + 3
        assert rep.details["zero_meet_count"] == q
    rep = check_structured_shapes(ctx_by_id["M2(F3)/regular"])
    assert rep.status == PASS and rep.details["alpha"] == 4


def test_c5_reads_the_corner_ring_off_the_socle_interval():
    # [Soc(R), R] is the lattice of left ideals of the corner ring, whose own
    # regular lattice is enumerated here for comparison
    specs = [s for s in named_instance_specs() + family_specs(128) if s["ring"]["kind"] == "triangular"]
    assert len(specs) == 8
    for ctx in contexts(specs):
        spec, lat = ctx.instance.spec["ring"], ctx.lattice
        soc = lat.socle_index()
        assert lat.subs[soc].size == (spec["p"] ** spec["k"]) ** 2, ctx.instance_id
        corner = enumerate_submodules(regular_module(rings.ring_gf(spec["p"], spec["subfield_degree"])))
        assert lat.interval_size(soc, lat.full_index) == len(corner), ctx.instance_id
        rep = check_structured_shapes(ctx)
        assert rep.status == PASS and rep.details["proper_ideals_of_subring"] == len(corner) - 1


def test_c1_counts(ctx_by_id):
    rep = check_pair_count(ctx_by_id["gf(3,1)^2/selfsum"])
    assert rep.status == PASS
    assert rep.details == {
        "iso_count": 2,
        "alpha": 4,
        "end_size": 3,
        "whole_module_end_plus_one": 82,
    }
    rep2 = check_pair_count(ctx_by_id["zmod(6)/sum(quot(regular;2),quot(regular;3))"])
    assert rep2.status == PASS and rep2.details["alpha"] == 2
    rep3 = check_pair_count(ctx_by_id["zmod(12)/regular"])
    assert rep3.status == VACUOUS


def test_c2_records_degree_one_counterexample(ctx_by_id):
    rep = check_low_degree(ctx_by_id["zmod(12)/regular"])
    assert rep.status == PASS
    assert rep.details["degree_one_without_star"] == ["<4>"]
    star = check_low_degree(ctx_by_id["polyquot(F2,x^2,x*y,y^2)/regular"])
    assert star.status == PASS and star.details["predicted_order"] == 4


def test_c6_matches_overlines(ctx_by_id):
    rep = check_socle_cliques(ctx_by_id["triangular(F4,F2)/regular"])
    assert rep.status == PASS and rep.details["maximal_cliques"] == 5
    assert check_socle_cliques(ctx_by_id["zmod(12)/regular"]).status == VACUOUS


def _overline_checks(ctx):
    return check_socle_cliques(ctx), check_overline_coloring(ctx)


def test_c6_fails_at_an_outside_vertex_that_is_not_uniform(monkeypatch, named_contexts):
    # C6 and C7 read "the socle trace of N is simple" as "N is uniform"; a
    # vertex not containing the socle that loses uniformity must be named in
    # a FAIL by both
    mutated = 0
    for ctx in named_contexts:
        if check_socle_cliques(ctx).status != PASS:
            continue
        fresh = InstanceContext(ctx.instance, ctx.caps)
        g, lat = fresh.graph, fresh.lattice
        soc = lat.socle_index()
        real = lat.is_uniform
        for v in range(g.n):
            if lat.leq(soc, v + 1):
                continue
            monkeypatch.setattr(lat, "is_uniform", lambda i, bad=v + 1: i != bad and real(i))
            reports = _overline_checks(fresh)
            monkeypatch.undo()
            want = (FAIL, f"socle trace of {g.vertex_label(v)} is not simple")
            assert [(r.status, r.witness) for r in reports] == [want] * 2, (ctx.instance_id, v)
            mutated += 1
    assert mutated >= 10


def test_c6_and_c7_fail_at_a_tampered_adjacency(named_contexts):
    # facts 2 and 3 of _overline_cliques read the adjacency: each is broken
    # once on a copy of it, and C6 and C7 must both FAIL with its witness
    broken = Counter()
    for ctx in named_contexts:
        if check_socle_cliques(ctx).status != PASS:
            continue
        lat, g = ctx.lattice, ctx.graph
        above = g.vertices_of(lat.above(lat.socle_index()))
        outside = [v for v in range(g.n) if not above >> v & 1]
        atom_of = {v: lat.covers_in(lat.zero_index, v + 1)[0] for v in outside}

        def tampered(adj):
            fresh = InstanceContext(ctx.instance, ctx.caps)
            fresh.graph.adj = adj
            return fresh

        # 2: two outside vertices over distinct atoms made to meet
        u, w = next((u, w) for u in outside for w in outside if u < w and atom_of[u] != atom_of[w])
        adj = list(g.adj)
        adj[u] |= 1 << w
        adj[w] |= 1 << u
        want = f"intersecting pair with distinct socle traces: {g.vertex_label(u)}, {g.vertex_label(w)}"
        assert [(r.status, r.witness) for r in _overline_checks(tampered(adj))] == [(FAIL, want)] * 2
        broken[2] += 1
        # 3: an overline loses the edge from its atom to a vertex above it
        wide = [a for a in lat.atom_indices() if g.vertices_of(lat.above(a)).bit_count() > 1]
        if not wide:  # the socle is M: every overline is its atom alone
            continue
        a = wide[0]
        x, y = a - 1, next(v for v in solvers.iter_bits(g.vertices_of(lat.above(a))) if v != a - 1)
        adj = list(g.adj)
        adj[x] &= ~(1 << y)
        adj[y] &= ~(1 << x)
        lo, hi = sorted((x, y))
        want = f"overline of {lat.describe(a)} is not a clique: {g.vertex_label(lo)}, {g.vertex_label(hi)} do not meet"
        assert [(r.status, r.witness) for r in _overline_checks(tampered(adj))] == [(FAIL, want)] * 2
        broken[3] += 1
    assert broken == {2: 14, 3: 7}


def test_c6_and_c7_pass_past_the_vertex_cap(named_reports):
    # they read no vertex cap: with the cap at 0 they report as under the default
    capped, summary = run_suite(
        contexts(named_instance_specs(), Caps(max_exact_vertices=0)),
        ["C6-socle-cliques", "C7-overline-coloring"],
    )
    default = [r for r in named_reports[0] if r.check_id in ("C6-socle-cliques", "C7-overline-coloring")]
    assert reports_to_jsonl(capped) == reports_to_jsonl(default)
    assert summary.counts == {cid: {PASS: 14, VACUOUS: 11} for cid in ("C6-socle-cliques", "C7-overline-coloring")}


def test_c6_and_c7_call_no_exact_solver(monkeypatch, named_contexts):
    def solved(*args):
        raise AssertionError("an exact solver ran")

    for real in (solvers.max_clique, solvers.max_cliques, solvers.chromatic_number):
        for name, mod in list(sys.modules.items()):
            if name.startswith("modgraph") and getattr(mod, real.__name__, None) is real:
                monkeypatch.setattr(mod, real.__name__, solved)
    fresh = [InstanceContext(ctx.instance, ctx.caps) for ctx in named_contexts]
    reports, summary = run_suite(fresh, ["C6-socle-cliques", "C7-overline-coloring"])
    assert {cid: counts.get(PASS) for cid, counts in summary.counts.items()} == {
        "C6-socle-cliques": 14, "C7-overline-coloring": 14,
    }
    assert not summary.failed


def test_c6_overlines_are_the_bron_kerbosch_cliques(named_contexts, family16_contexts):
    # the certificate against an exact enumeration of the maximal cliques,
    # with the vertex cap lifted, on the zoo, the census and R+R over it
    pair = {"kind": "direct_sum", "left": {"kind": "regular"}, "right": {"kind": "regular"}}
    sums = contexts(make_spec(spec["ring"], pair) for spec in family_specs(16))
    compared = 0
    for ctx in [*named_contexts, *family16_contexts, *sums]:
        rep = check_socle_cliques(ctx)
        if rep.status != PASS:
            continue
        g, lat = ctx.graph, ctx.lattice
        overlines = checks._overline_cliques(g, lat, lat.socle_index())
        cliques = solvers.max_cliques(g.n, g.adj, Caps(max_exact_vertices=g.n))
        assert {sum(1 << v for v in c) for c in cliques} == set(overlines), ctx.instance_id
        assert rep.details["maximal_cliques"] == len(cliques)
        compared += 1
    assert compared == 14 + 3 + 18


def _detached_section_by_meets(lat, n_idx, s_idx):
    """The per-vertex scan: a cover pair B < A with A & N = 0, tested on the
    member bitsets, and A/B a copy of S."""
    n_bits, s_sub, zero = lat.subs[n_idx].bits, lat.subs[s_idx], lat.subs[lat.zero_index]
    for b_idx, b_sub in enumerate(lat.subs):
        for a_idx in lat.covers_in(b_idx, lat.full_index):
            a_sub = lat.subs[a_idx]
            if (a_sub.bits & n_bits == 1 and a_sub.size // b_sub.size == s_sub.size
                    and section_hom_count(a_sub, b_sub, s_sub, zero) > 1):
                return True
    return False


def test_detached_section_depends_on_the_atom_alone(named_contexts, family16_contexts):
    # for a uniform N with atom S, A meets N in 0 exactly when S is not in A
    answers = Counter()
    for ctx in [*named_contexts, *family16_contexts]:
        lat = ctx.lattice
        for i in lat.nontrivial_indices():
            if lat.is_uniform(i):
                (s,) = lat.covers_in(lat.zero_index, i)
                got = checks._has_detached_section(lat, s)
                assert got == _detached_section_by_meets(lat, i, s), (ctx.instance_id, i)
                answers[got] += 1
    assert answers[True] > 50 and answers[False] > 50


def test_c7_and_c8_statuses(ctx_by_id):
    c7 = check_overline_coloring(ctx_by_id["triangular(F4,F2)/regular"])
    assert c7.status == PASS
    assert c7.details == {"omega": 3, "chi": 3, "construction_colors": 3}
    c8 = check_complement_coloring(ctx_by_id["triangular(F4,F2)/regular"])
    assert c8.status == APPLICABILITY_FAILED
    assert c8.details["omega_c"] == c8.details["chi_c"] == 5
    c8_chain = check_complement_coloring(ctx_by_id["zmod(8)/regular"])
    assert c8_chain.status == VACUOUS


def test_c9_ring_cases(ctx_by_id):
    rep = check_triangle_free(ctx_by_id["zmod(8)/regular"])
    assert rep.status == PASS
    assert rep.details["case"] == "chain" and rep.details["ring_case"] == "chain-radical"
    star = check_triangle_free(ctx_by_id["polyquot(F2,x^2,x*y,y^2)/regular"])
    assert star.details["ring_case"] == "radical-pair-maximal"
    semi = check_triangle_free(ctx_by_id["M2(F2)/regular"])
    assert semi.details["ring_case"] == "semisimple-pair"
    z12 = check_triangle_free(ctx_by_id["zmod(12)/regular"])
    assert z12.status == PASS and z12.details["case"] is None


def test_c9_residue_of_a_radical_pair_is_a_division_ring(named_contexts):
    # a product of two rings has two maximal left ideals, so of size:128 only
    # the base rings can have the radical as their one maximal left ideal
    base = [s for s in family_specs(128) if s["ring"]["kind"] != "product"]
    reached = []
    for ctx in [*named_contexts, *contexts(base)]:
        rep = check_triangle_free(ctx)
        if "ring_residue_size" in rep.details:
            reached.append(ctx.instance_id)
            ring, rad = ctx.ring, ctx.lattice.subs[prime_radical(ctx.lattice)]
            assert brute_residue_is_division(ring.add, ring.mul, rad.members), ctx.instance_id
            assert rep.details["ring_residue_size"] == ring.size // rad.size
    assert len(reached) == 5 and "polyquot(F5,x^2,x*y,y^2)/regular" in reached


def test_c9_runs_past_the_exact_vertex_cap():
    # the triangle scan is a bit test on the adjacency rows, not a clique
    # search, so the 372 vertices of F2^5 do not skip C9 under the default caps
    module = {"kind": "regular"}
    for _ in range(4):
        module = {"kind": "direct_sum", "left": module, "right": {"kind": "regular"}}
    ctx = InstanceContext(build_instance(make_spec({"kind": "gf", "p": 2, "k": 1}, module)))
    (report,), _ = run_suite([ctx], ["C9-triangle-free"])
    assert ctx.graph.n == 372
    assert report.status == PASS and report.details["triangle_free"] is False


def test_c9_fail_witness_is_the_triangle_found(monkeypatch, ctx_by_id):
    ctx = ctx_by_id["zmod(12)/regular"]
    monkeypatch.setattr(checks, "_module_case", lambda lat: ("chain", None))
    report = check_triangle_free(ctx)
    g, tri = ctx.graph, ctx.graph.triangle()
    assert all(g.adj[u] >> v & 1 for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])))
    labels = ", ".join(g.vertex_label(v) for v in tri)
    assert report.status == FAIL and report.witness == f"case chain claimed but triangle exists: {labels}"


def test_c10_connectivity(ctx_by_id):
    rep = check_connectivity(ctx_by_id["zmod(6)/sum(quot(regular;2),quot(regular;3))"])
    assert rep.status == PASS and rep.details["connected"] is False
    rep2 = check_connectivity(ctx_by_id["zmod(12)/regular"])
    assert rep2.details["connected"] is True and rep2.details["diameter"] == 2


def test_c11_structure_report(ctx_by_id):
    rep = ALL_CHECKS["C11-structure-report"](ctx_by_id["triangular(F4,F2)/regular"])
    assert rep.status == PASS
    entry = rep.details["small_degree_maximal"][0]
    assert entry["inner_simple_unique"] and entry["inner_isomorphic_to_complement"]
    assert entry["end_size"] == 4
    assert rep.details["double_simple_image"] is not None
    z8 = ALL_CHECKS["C11-structure-report"](ctx_by_id["zmod(8)/regular"])
    assert z8.details["double_simple_image"] is None


def test_reports_are_replayable_and_deterministic(named_contexts):
    subset = [c for c in named_contexts if c.instance_id.startswith("zmod")]
    first, _ = run_suite(subset, ["C9-triangle-free", "C10-connectivity"])
    second, _ = run_suite(subset, ["C9-triangle-free", "C10-connectivity"])
    assert reports_to_jsonl(first) == reports_to_jsonl(second)


def test_jsonl_round_trip(named_contexts):
    reports, _ = run_suite(named_contexts[:2], ["C1-pair-count"])
    lines = reports_to_jsonl(reports).strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"check", "instance", "status", "witness", "details"}


def test_summary_rendering(named_reports):
    reports, summary = named_reports
    text = render_summary(reports, summary)
    assert "C9-triangle-free" in text
    assert text.strip().endswith("ok")


def test_unknown_check_id_rejected(named_contexts):
    with pytest.raises(SpecError, match="unknown check id 'C99-nope'"):
        run_suite(named_contexts[:1], ["C99-nope"])


def test_empty_check_selection_rejected():
    # only None selects every check
    with pytest.raises(SpecError, match="no check id selected"):
        run_suite(contexts(family_specs(4)), [])


def test_repeated_check_id_rejected(named_contexts):
    with pytest.raises(SpecError, match="repeated check id 'C1-pair-count'"):
        run_suite(named_contexts[:1], ["C1-pair-count", "C10-connectivity", "C1-pair-count"])


def test_reports_carry_the_id_their_check_is_registered_under(monkeypatch, ctx_by_id):
    monkeypatch.setitem(ALL_CHECKS, "C0-alias", check_connectivity)
    reports, summary = run_suite([ctx_by_id["zmod(8)/regular"]], ["C10-connectivity", "C0-alias"])
    assert [r.check_id for r in reports] == ["C0-alias", "C10-connectivity"]
    alias, own = (r.to_json() for r in reports)
    assert alias == {**own, "check": "C0-alias"} and own["status"] == PASS
    assert list(summary.counts) == ["C10-connectivity", "C0-alias"]


def test_vacuous_warning_fires(ctx_by_id):
    chains = [ctx_by_id["zmod(4)/regular"], ctx_by_id["zmod(8)/regular"]]
    (first, second), summary = run_suite(chains, ["C1-pair-count"])
    assert summary.warnings
    # a verdict without details gives each report a dict of its own
    assert first.details == second.details == {} and first.details is not second.details


# sha256 of the bytes `verify --family named --jsonl` and `--family size:16
# --jsonl` write; a change to either digest is a change to the check output
JSONL_SHA256 = {
    "named": "4d109ccb9f9662ded5aa2b2355e07afd294bd8b6f7349d8b2a7fa5131aa80335",
    "size:16": "76f750e0e12f8aceef86154fb1afbb998ee3091b72b3ea89dba8608d1f54a31b",
}


def test_check_output_is_pinned(named_reports, family16_contexts):
    jsonl = {
        "named": reports_to_jsonl(named_reports[0]),
        "size:16": reports_to_jsonl(run_suite(family16_contexts)[0]),
    }
    got = {family: hashlib.sha256(text.encode()).hexdigest() for family, text in jsonl.items()}
    assert got == JSONL_SHA256


def test_suite_reads_each_structural_fact_once(monkeypatch, named_contexts, family16_contexts):
    # atoms come from the order kernel, so no check re-proves one simple;
    # omega is the one exact solve per graph, and omega_c and chi_c come
    # from the atom certificate, so no chromatic number is searched
    def reproved(sub):
        raise AssertionError("an atom was proved simple again")

    monkeypatch.setattr(lattice, "_check_simple_sub", reproved)
    # products and sections are asked of the lattice by index, and
    # isomorphism and |End(S)| are read off section classes: no check closes
    # an element set or counts a hom, under any name it was imported as
    def closed(*args):
        raise AssertionError("a check closed an element set")

    def counted(*args):
        raise AssertionError("a check counted homs")

    for real, stand_in in [(modules.close_subset, closed), (lattice.section_hom_count, counted)]:
        for name, mod in list(sys.modules.items()):
            if name.startswith("modgraph") and getattr(mod, real.__name__, None) is real:
                monkeypatch.setattr(mod, real.__name__, stand_in)
    solved = []
    real_max_clique = graphs.max_clique
    monkeypatch.setattr(graphs, "max_clique", lambda *args: solved.append(1) or real_max_clique(*args))

    def colored(*args):
        raise AssertionError("a check searched a chromatic number")

    monkeypatch.setattr(graphs, "chromatic_number", colored)
    # C11's detached-section scan runs once per atom, not once per vertex
    scanned = Counter()
    real_scan = checks._has_detached_section
    monkeypatch.setattr(
        checks, "_has_detached_section", lambda lat, s: scanned.update([s]) or real_scan(lat, s)
    )
    for ctx in [*named_contexts, *family16_contexts]:
        fresh = InstanceContext(ctx.instance, ctx.caps)
        solved.clear()
        scanned.clear()
        reports, summary = run_suite([fresh])
        assert not summary.failed and len(reports) == len(ALL_CHECKS), ctx.instance_id
        assert len(solved) <= 1, ctx.instance_id
        assert max(scanned.values(), default=0) <= 1, ctx.instance_id
        assert set(scanned) <= set(fresh.lattice.atom_indices()), ctx.instance_id


def test_checks_build_no_ring_module_or_lattice(monkeypatch, named_contexts, family16_contexts):
    # every fact a check needs is read off the instance's own lattice and graph
    prebuilt = [*named_contexts, *family16_contexts]
    for ctx in prebuilt:
        ctx.graph
    built = Counter()

    def counted_init(cls):
        real_init = cls.__init__

        def init(self, *args, **kwargs):
            built[cls.__name__] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    def counted_enumerate(*args, **kwargs):
        built["Lattice"] += 1
        return enumerate_submodules(*args, **kwargs)

    counted_init(rings.FiniteRing)
    counted_init(modules.FiniteModule)
    for name, mod in list(sys.modules.items()):
        if name.startswith("modgraph") and getattr(mod, "enumerate_submodules", None) is enumerate_submodules:
            monkeypatch.setattr(mod, "enumerate_submodules", counted_enumerate)
    reports, summary = run_suite(prebuilt)
    assert not summary.failed and len(reports) == len(prebuilt) * len(ALL_CHECKS)
    assert built == Counter()


def test_length_additivity_catches_a_wrong_kernel_height(named_contexts):
    # C3 reads l(N) and l(M/N) off containment alone, so a kernel height that
    # is off at any one member must make it fail
    mutated = 0
    for ctx in named_contexts:
        fresh = InstanceContext(ctx.instance, ctx.caps)
        lat = fresh.lattice
        if check_length_additivity(fresh).status != PASS:
            continue
        heights = lat.chain_lengths()
        for i in lat.nontrivial_indices():
            heights[i] += 1
            report = check_length_additivity(fresh)
            heights[i] -= 1
            assert report.status == FAIL and "kernel height" in report.witness, (ctx.instance_id, i)
            mutated += 1
    assert mutated > 100
