"""Executable checks for the finitely-instantiable classification statements.

One function per statement family; each takes a per-instance context and
returns a CheckReport with status PASS, FAIL (with a replayable witness),
VACUOUS (hypotheses unmet), or APPLICABILITY-FAILED (a structural
construction did not apply even though the statement itself verified).

Statements whose hypotheses demand infinite cardinalities are checked at the
level of their finite combinatorial content; pure-infinitude clauses are
recorded as metadata, never asserted.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .caps import Caps
from .errors import CapExceeded
from .graphs import (
    ApplicabilityFailure,
    IntersectionGraph,
    color_by_overline,
    color_complement_by_uniform_clique,
    homogeneous_socle_pair,
)
from .lattice import Lattice, find_double_simple_image, ideal_product, prime_radical
from .solvers import iter_bits
from .zoo import InstanceContext

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"
APPLICABILITY_FAILED = "APPLICABILITY-FAILED"
SKIPPED = "SKIPPED"


@dataclass
class CheckReport:
    check_id: str
    instance_id: str
    status: str
    witness: str | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "instance": self.instance_id,
            "status": self.status,
            "witness": self.witness,
            "details": self.details,
        }


# -- shared structural helpers -------------------------------------------------


def _module_case(lat: Lattice) -> tuple[str | None, int | None]:
    """(case, pair_iso): the shape of M that the classifications single out.
    case is "chain" (a chain of length at most 3), "semisimple-pair" (the
    socle is a direct pair of simples and equals M), "socle-maximal" (such a
    socle is the only maximal submodule) or None.  pair_iso is
    #Hom(S, S') - 1 for the socle pair when the socle has length 2, else None."""
    pair = lat.socle_pair
    pair_iso = None if pair is None else lat.hom_count(*pair) - 1
    if lat.is_chain() and lat.composition_length() <= 3:
        return "chain", pair_iso
    if pair is not None:
        soc = lat.socle_index()
        if soc == lat.full_index:
            return "semisimple-pair", pair_iso
        if lat.maximal_indices() == [soc]:
            return "socle-maximal", pair_iso
    return None, pair_iso


def _small_degree_maximals(g: IntersectionGraph, lat: Lattice) -> list[int]:
    """Vertices of the maximal submodules T with deg(T) < deg_c(T); vertex v
    of the graph is lattice member v + 1."""
    return [
        i - 1 for i in lat.maximal_indices()
        if 0 < i <= g.n and g.degree(i - 1) < g.complement_degree(i - 1)
    ]


# -- C1: order of the graph of a direct pair of simples -------------------------


def check_pair_count(ctx: InstanceContext) -> CheckReport:
    lat = ctx.lattice
    case, iso = _module_case(lat)
    if case != "semisimple-pair":
        return CheckReport("C1-pair-count", ctx.instance_id, VACUOUS)
    pair = lat.socle_pair
    alpha = ctx.graph.n
    details = {"iso_count": iso, "alpha": alpha}
    ok = alpha == iso + 2
    if iso > 0:
        ends = lat.hom_count(pair[0], pair[0])
        details["end_size"] = ends
        ok = ok and alpha == ends + 1
        # the whole-module endomorphism reading would give |End(S)|^4 + 1
        # here; recorded so the discrepancy with the summand reading is visible
        details["whole_module_end_plus_one"] = ends**4 + 1
    status = PASS if ok else FAIL
    witness = None if ok else f"alpha={alpha}, |Iso|={iso}"
    return CheckReport("C1-pair-count", ctx.instance_id, status, witness, details)


# -- C2: degree-0 and degree-1 classification ----------------------------------


def check_low_degree(ctx: InstanceContext) -> CheckReport:
    g, lat = ctx.graph, ctx.lattice
    cid = "C2-low-degree"
    if g.n == 0:
        return CheckReport(cid, ctx.instance_id, VACUOUS)
    details: dict = {}

    deg0 = {v for v in range(g.n) if g.degree(v) == 0}
    pred0 = {
        v for v in range(g.n)
        if g.n == 1 or g.vertex_is_simple(v) and lat.simple_complement(v + 1) is not None
    }
    if deg0 != pred0:
        bad = sorted(deg0 ^ pred0)[0]
        return CheckReport(
            cid, ctx.instance_id, FAIL, f"degree-0 dichotomy fails at {g.vertex_label(bad)}",
            {"degree": g.degree(bad)},
        )
    # per-vertex degree-1 dichotomy: the unique neighbour is comparable; an
    # inner neighbour forces the two-vertex graph; an outer one forces N simple
    deg1 = [v for v in range(g.n) if g.degree(v) == 1]
    for v in deg1:
        u = g.adj[v].bit_length() - 1
        inner, outer = lat.leq(u + 1, v + 1), lat.leq(v + 1, u + 1)
        if not (inner or outer):
            return CheckReport(
                cid, ctx.instance_id, FAIL,
                f"unique neighbour of {g.vertex_label(v)} is not comparable",
            )
        if inner and g.n != 2:
            return CheckReport(
                cid, ctx.instance_id, FAIL,
                f"inner unique neighbour at {g.vertex_label(v)} but more than two vertices",
            )
        if outer and not g.vertex_is_simple(v):
            return CheckReport(
                cid, ctx.instance_id, FAIL,
                f"degree-1 vertex {g.vertex_label(v)} below its neighbour is not simple",
            )
    # stars are the chains of length 3 and the socle pairs that are the only
    # maximal submodule
    star = g.is_star_graph()
    case, iso = _module_case(lat)
    structure = case == "socle-maximal" or case == "chain" and lat.composition_length() == 3
    predicted = iso + 3 if case == "socle-maximal" else 2
    details.update({"has_degree_1": bool(deg1), "star": star})
    if star != structure:
        return CheckReport(cid, ctx.instance_id, FAIL, "star classification mismatch", details)
    if star:
        details["predicted_order"] = predicted
        if not deg1:
            return CheckReport(cid, ctx.instance_id, FAIL, "star graph without degree-1 vertex", details)
        if g.n != predicted:
            return CheckReport(
                cid, ctx.instance_id, FAIL,
                f"star order {g.n} != predicted {predicted}", details,
            )
    elif deg1:
        # a degree-1 vertex without star shape: possible at finite scale
        # (its neighbour need not be the unique maximal submodule); recorded,
        # not a failure of the per-vertex dichotomy
        details["degree_one_without_star"] = [g.vertex_label(v) for v in deg1]
    return CheckReport(cid, ctx.instance_id, PASS, None, details)


# -- C3: length additivity over every nontrivial submodule ----------------------


def check_length_additivity(ctx: InstanceContext) -> CheckReport:
    lat = ctx.lattice
    cid = "C3-length-additivity"
    if not lat.nontrivial_indices():
        return CheckReport(cid, ctx.instance_id, VACUOUS)
    # the kernel reads covers off its heights l(N), presuming Jordan-Dedekind;
    # this tests its consequence l(N) + l(M/N) = l(M), l(M/N) read off containment
    total = lat.composition_length()
    heights, chain_up = lat.longest_chains
    for i in lat.nontrivial_indices():
        if heights[i] + chain_up[i] != total:
            return CheckReport(
                cid, ctx.instance_id, FAIL,
                f"l(M)={total} != kernel height {heights[i]} + l(M/N)={chain_up[i]} at N={lat.describe(i)}",
            )
    return CheckReport(cid, ctx.instance_id, PASS, None, {"length": total})


# -- C4: maximal submodules with degree below complement degree ------------------


def check_small_degree_maximal(ctx: InstanceContext) -> CheckReport:
    g, lat = ctx.graph, ctx.lattice
    cid = "C4-small-degree-maximal"
    cands, degenerate = [], []
    for v in _small_degree_maximals(g, lat):
        # the statement's argument needs a second complement of T, so the
        # finite hypothesis is deg(T) < deg_c(T) with deg_c(T) >= 2; a lone
        # complement admits non-isomorphic two-simple sums
        if g.complement_degree(v) >= 2:
            cands.append(v)
        else:
            degenerate.append(g.vertex_label(v))
    if not cands:
        return CheckReport(
            cid, ctx.instance_id, VACUOUS,
            None, {"degenerate_complement": degenerate} if degenerate else {},
        )
    details: dict = {"maximal_candidates": [g.vertex_label(v) for v in cands]}
    if degenerate:
        details["degenerate_complement"] = degenerate
    for v in cands:
        t_lat = v + 1
        dt, dtc = g.degree(v), g.complement_degree(v)
        item = {"deg": dt, "deg_c": dtc}
        details[g.vertex_label(v)] = item

        def fail(msg: str) -> CheckReport:
            return CheckReport(cid, ctx.instance_id, FAIL, f"T={lat.describe(t_lat)}: {msg}", details)

        # (1)(i) a simple complement S
        s_lat = lat.simple_complement(t_lat)
        if s_lat is None:
            return fail("no simple complement")
        # (1)(ii) complement degree counts the endomorphisms of S
        ends = lat.hom_count(s_lat, s_lat)
        item["end_size"] = ends
        if dtc != ends:
            return fail(f"deg_c={dtc} != |End(S)|={ends}")
        # (1)(iii) unique simple inside T, isomorphic to S (hence essential in T)
        inner_atoms = lat.covers_in(lat.zero_index, t_lat)
        if len(inner_atoms) != 1:
            return fail(f"{len(inner_atoms)} simple submodules inside T")
        sp_lat = inner_atoms[0]
        if lat.hom_count(sp_lat, s_lat) < 2:
            return fail("inner simple not isomorphic to the complement")
        # (1)(iv) no quotient of T by a nontrivial submodule contains a copy of
        # S: the simples of T/N are A/N for the covers A of N inside [N, T]
        s_class = lat.section_class(s_lat, lat.zero_index)
        below_t = lat.interval(lat.zero_index, t_lat) ^ (1 << t_lat) ^ (1 << lat.zero_index)
        for n_idx in iter_bits(below_t):
            if any(lat.section_class(a, n_idx) == s_class for a in lat.covers_in(n_idx, t_lat)):
                return fail(f"T/{lat.describe(n_idx)} contains a copy of S")
        # (2)(i) socle is the direct pair, essential
        soc = lat.socle_index()
        if lat.join_index(sp_lat, s_lat) != soc or not lat.is_essential(soc):
            return fail("socle is not the essential direct pair")
        # (2)(ii) submodules meeting T stay inside it or split off S
        for u in iter_bits(g.adj[v]):
            if lat.leq(u + 1, t_lat):
                continue
            mt = lat.meet_index(u + 1, t_lat)
            if lat.join_index(mt, s_lat) != u + 1:
                return fail(f"N={lat.describe(u + 1)} neither inside T nor (N&T)+S")
        # (2)(iii) recorded under both counting conventions; |G(X/Y)| is
        # |[Y, X]| - 2 (here and below Y < X, so the interval has two ends)
        g_mod_sp = lat.interval_size(sp_lat, lat.full_index) - 2
        item["g_mod_inner_simple"] = g_mod_sp
        item["deg_formula_stated"] = dt == g_mod_sp + 1
        item["deg_formula_adjusted"] = dt == g_mod_sp
        if not (item["deg_formula_stated"] or item["deg_formula_adjusted"]):
            return fail(f"deg(T)={dt} matches neither |G(M/S')|+1 nor |G(M/S')|  (|G|={g_mod_sp})")
        # (2)(iv) deg(T) = 2|G(T)| = 2|G(T/S')| + 2; the second form counts S'
        # as a nontrivial submodule of T, so it presumes T is not simple
        g_t = lat.interval_size(lat.zero_index, t_lat) - 2
        item["g_T"] = g_t
        if sp_lat == t_lat:
            item["t_simple"] = True
            if not (dt == 2 * g_t == 0):
                return fail(f"simple T should have deg 0, got deg={dt}, |G(T)|={g_t}")
        else:
            g_t_over = lat.interval_size(sp_lat, t_lat) - 2
            item["g_T_over_inner"] = g_t_over
            if not (dt == 2 * g_t == 2 * g_t_over + 2):
                return fail(f"deg(T)={dt} but |G(T)|={g_t}, |G(T/S')|={g_t_over}")
    return CheckReport(cid, ctx.instance_id, PASS, None, details)


# -- C5: shapes of the two structured ring families ------------------------------


def check_structured_shapes(ctx: InstanceContext) -> CheckReport:
    cid = "C5-structured-shapes"
    spec = ctx.instance.spec
    kind = spec["ring"]["kind"]
    if spec["module"] != {"kind": "regular"} or kind not in ("matrix", "triangular"):
        return CheckReport(cid, ctx.instance_id, VACUOUS)
    g, lat = ctx.graph, ctx.lattice
    q = int(spec["ring"]["p"]) ** int(spec["ring"]["k"])
    details = {"q": q, "alpha": g.n}
    if kind == "matrix":
        if int(spec["ring"]["m"]) != 2:
            return CheckReport(cid, ctx.instance_id, VACUOUS)
        ok = g.n == q + 1 and g.is_null_graph()
        witness = None if ok else f"expected null graph on {q + 1} vertices"
        return CheckReport(cid, ctx.instance_id, PASS if ok else FAIL, witness, details)
    # triangular over a subfield: Soc(R) = [[D,D],[0,0]], and R acts on
    # R/Soc(R) through the corner entry c, so by the correspondence theorem
    # [Soc(R), R] is the lattice of left ideals of the corner ring
    frak_n = lat.interval_size(lat.socle_index(), lat.full_index) - 1
    details["proper_ideals_of_subring"] = frak_n
    # the socle is also a maximal left ideal here (it has prime index and is
    # essential, so its degree is alpha-1); the classification's T is the
    # unique maximal left ideal below full degree
    maximals = [i - 1 for i in lat.maximal_indices()]
    small = [v for v in maximals if g.degree(v) < g.n - 1]
    details["maximal_count"] = len(maximals)
    if len(small) != 1:
        return CheckReport(
            cid, ctx.instance_id, FAIL,
            f"{len(small)} non-essential maximal left ideals", details,
        )
    t_vertex = small[0]
    dt = g.degree(t_vertex)
    details["strict_degree_gap"] = dt < g.complement_degree(t_vertex)
    # the vertices meeting T in 0 are its non-neighbours
    zero_meets = list(iter_bits((1 << g.n) - 1 & ~g.adj[t_vertex] & ~(1 << t_vertex)))
    details.update({"deg_T": dt, "zero_meet_count": len(zero_meets)})
    ok = (
        dt == 2 * frak_n == 2
        and g.complement_degree(t_vertex) == q
        and g.n == q + 3
        and len(zero_meets) == q
        and all(g.vertex_is_simple(v) for v in zero_meets)
        and all(lat.join_index(v + 1, t_vertex + 1) == lat.full_index for v in zero_meets)
    )
    witness = None if ok else "triangular shape contract failed"
    return CheckReport(cid, ctx.instance_id, PASS if ok else FAIL, witness, details)


# -- C6: trichotomy and maximal cliques under a homogeneous socle pair -----------


def check_socle_cliques(ctx: InstanceContext) -> CheckReport:
    """Vertices N outside the socle have simple traces N & Soc(M), equal when
    they meet, and the maximal cliques are the overlines.  Soc(N) = N & Soc(M),
    so the trace is simple exactly when N is uniform, and is then N's one atom."""
    cid = "C6-socle-cliques"
    g, lat = ctx.graph, ctx.lattice
    structure = homogeneous_socle_pair(lat)
    if structure is None:
        return CheckReport(cid, ctx.instance_id, VACUOUS)
    details: dict = {}
    outside = (1 << g.n) - 1 & ~g.vertices_of(lat.above(structure["socle"]))
    for v in iter_bits(outside):
        if not g.vertex_is_uniform(v):
            return CheckReport(
                cid, ctx.instance_id, FAIL,
                f"socle trace of {g.vertex_label(v)} is not simple",
            )
    for v in iter_bits(outside):
        (atom,) = lat.covers_in(lat.zero_index, v + 1)
        # the outside vertices u > v meeting v and not containing its atom
        other = g.adj[v] & outside & ~g.vertices_of(lat.above(atom)) & ~((2 << v) - 1)
        if other:
            return CheckReport(
                cid, ctx.instance_id, FAIL,
                f"intersecting pair with distinct socle traces: "
                f"{g.vertex_label(v)}, {g.vertex_label((other & -other).bit_length() - 1)}",
            )
    got = {frozenset(c) for c in g.maximal_cliques(ctx.caps)}
    want = {frozenset(g.overline(a)) for a in g.simple_vertices()}
    details["maximal_cliques"] = len(got)
    if got != want:
        return CheckReport(
            cid, ctx.instance_id, FAIL,
            f"maximal cliques != containment cliques ({len(got)} vs {len(want)})",
            details,
        )
    return CheckReport(cid, ctx.instance_id, PASS, None, details)


# -- C7: clique number equals chromatic number under the socle structure ----------


def check_overline_coloring(ctx: InstanceContext) -> CheckReport:
    cid = "C7-overline-coloring"
    g, lat = ctx.graph, ctx.lattice
    if homogeneous_socle_pair(lat) is None:
        return CheckReport(cid, ctx.instance_id, VACUOUS)
    omega, _ = g.clique_number(ctx.caps)
    chi, _ = g.chromatic(ctx.caps)
    details = {"omega": omega, "chi": chi}
    if omega != chi:
        return CheckReport(cid, ctx.instance_id, FAIL, f"omega={omega} != chi={chi}", details)
    result = color_by_overline(g)
    if isinstance(result, ApplicabilityFailure):
        details["construction"] = result.reason
        return CheckReport(cid, ctx.instance_id, APPLICABILITY_FAILED, result.witness, details)
    details["construction_colors"] = result.count
    if result.count != omega:
        return CheckReport(
            cid, ctx.instance_id, FAIL,
            f"construction used {result.count} colors but omega={omega}", details,
        )
    return CheckReport(cid, ctx.instance_id, PASS, None, details)


# -- C8: complement clique/chromatic equality -------------------------------------


def check_complement_coloring(ctx: InstanceContext) -> CheckReport:
    cid = "C8-complement-coloring"
    g = ctx.graph
    omega, _ = g.clique_number(ctx.caps)
    omega_c, _ = g.complement_clique_number(ctx.caps)
    if omega > omega_c:
        return CheckReport(cid, ctx.instance_id, VACUOUS, None, {"omega": omega, "omega_c": omega_c})
    chi_c, _ = g.complement_chromatic(ctx.caps)
    details = {"omega": omega, "omega_c": omega_c, "chi_c": chi_c}
    if omega_c != chi_c:
        return CheckReport(cid, ctx.instance_id, FAIL, f"omega_c={omega_c} != chi_c={chi_c}", details)
    result = color_complement_by_uniform_clique(g)
    if isinstance(result, ApplicabilityFailure):
        details["construction"] = result.reason
        details["uniform_clique_size"] = len(result.extra.get("clique", ()))
        return CheckReport(cid, ctx.instance_id, APPLICABILITY_FAILED, result.witness, details)
    details["construction_colors"] = result.count
    details["uniform_clique_size"] = len(result.extra["clique"])
    details["chain_bound_holds"] = result.count <= len(result.extra["clique"]) <= omega
    return CheckReport(cid, ctx.instance_id, PASS, None, details)


# -- C9: triangle-free classification ----------------------------------------------


def _ring_trichotomy(ctx: InstanceContext) -> tuple[str | None, dict]:
    lat = ctx.lattice
    rad = prime_radical(lat)
    details: dict = {"radical_size": lat.subs[rad].size}
    nontrivial = lat.nontrivial_indices()
    if len(nontrivial) == 0:
        # R_R simple: Ra = R for every a != 0, so each a != 0 has a left
        # inverse, and a finite ring is Dedekind-finite, so R is a division ring
        details["division_ring"] = True
        return "division", details
    if len(nontrivial) == 1:
        return ("chain-radical", details) if nontrivial[0] == rad else (None, details)
    if len(nontrivial) == 2 and lat.is_chain():
        ok = set(nontrivial) == {rad, ideal_product(lat, rad, rad)}
        return ("chain-radical", details) if ok else (None, details)
    soc = lat.socle_index()
    if rad == lat.zero_index and soc == lat.full_index and lat.composition_length() == 2:
        # a pair of isomorphic simples, or exactly two non-isomorphic ones
        atoms = lat.atom_indices()
        if len({lat.section_class(a, lat.zero_index) for a in atoms}) == 1:
            ends = details["end_size"] = lat.hom_count(atoms[0], atoms[0])
            if ctx.graph.n == ends + 1:
                return "semisimple-pair", details
        elif len(atoms) == 2 and ctx.graph.n == 2:
            return "semisimple-pair", details
        return None, details
    if rad == soc and lat.maximal_indices() == [soc] and lat.length_of(soc) == 2:
        if ideal_product(lat, rad, rad) != lat.zero_index:
            return None, details
        # rad is the only maximal left ideal, so [rad, R], the lattice of left
        # ideals of R/rad, has two members: R/rad is a division ring
        residue = details["residue_size"] = ctx.ring.size // details["radical_size"]
        # and the section M/rad is simple: each atom must be a copy of it
        top = lat.section_class(lat.full_index, rad)
        if any(lat.section_class(a, lat.zero_index) != top for a in lat.atom_indices()):
            return None, details
        if ctx.graph.n != residue + 2:
            return None, details
        return "radical-pair-maximal", details
    return None, details


def check_triangle_free(ctx: InstanceContext) -> CheckReport:
    cid = "C9-triangle-free"
    g, lat = ctx.graph, ctx.lattice
    tri = g.triangle()
    labels = ", ".join(map(g.vertex_label, tri or ()))
    if tri and not all(g.adj[u] >> v & 1 for u, v in combinations(tri, 2)):
        return CheckReport(cid, ctx.instance_id, FAIL, f"triangle scan gave a non-triangle: {labels}")
    tf_scan = tri is None
    case, pair_iso = _module_case(lat)
    details: dict = {"case": case}
    if pair_iso is not None:
        details["pair_iso"] = pair_iso
    details["triangle_free"] = tf_scan
    if tf_scan != (case is not None):
        if tf_scan:
            witness = "triangle-free but no structural case applies"
        else:
            witness = f"case {case} claimed but triangle exists: {labels}"
        return CheckReport(cid, ctx.instance_id, FAIL, witness, details)
    if tf_scan:
        if g.girth() != float("inf"):
            return CheckReport(cid, ctx.instance_id, FAIL, "triangle-free but has a cycle", details)
        shape = g.classify_shape()
        details["shape"] = shape.tag
        if case == "chain":
            expected_ok = shape.tag in ("null", "complete") and g.n <= 2
        elif case == "semisimple-pair":
            expected_ok = shape.tag == "null" and g.n == pair_iso + 2
        else:  # socle-maximal
            expected_ok = g.is_star_graph() and g.n == pair_iso + 3
        if not expected_ok:
            return CheckReport(cid, ctx.instance_id, FAIL, f"shape {shape.tag} unexpected for {case}", details)
    if ctx.module.is_regular:
        ring_case, ring_details = _ring_trichotomy(ctx)
        details["ring_case"] = ring_case
        details.update({f"ring_{k}": v for k, v in ring_details.items()})
        if tf_scan != (ring_case is not None):
            return CheckReport(
                cid, ctx.instance_id, FAIL,
                "ring trichotomy disagrees with triangle-freeness", details,
            )
    return CheckReport(cid, ctx.instance_id, PASS, None, details)


# -- C10: connectivity and diameter --------------------------------------------------


def check_connectivity(ctx: InstanceContext) -> CheckReport:
    cid = "C10-connectivity"
    g, lat = ctx.graph, ctx.lattice
    split = _module_case(lat)[0] == "semisimple-pair"
    connected = g.is_connected()
    details = {"connected": connected, "sum_of_two_simples": split}
    if connected == split:
        return CheckReport(cid, ctx.instance_id, FAIL, "connectivity criterion violated", details)
    if connected and g.n >= 2:
        diam = g.diameter()
        details["diameter"] = diam
        if diam > 2:
            return CheckReport(cid, ctx.instance_id, FAIL, f"diameter {diam} > 2", details)
    return CheckReport(cid, ctx.instance_id, PASS, None, details)


# -- C11: structural predicates recorded as metadata ----------------------------------


def check_structure_report(ctx: InstanceContext) -> CheckReport:
    cid = "C11-structure-report"
    g, lat = ctx.graph, ctx.lattice
    maximal = []
    for v in _small_degree_maximals(g, lat):
        s_lat = lat.simple_complement(v + 1)
        inner = lat.covers_in(lat.zero_index, v + 1)
        entry = {
            "T": lat.describe(v + 1),
            "splits_off_simple": s_lat is not None,
            "inner_simple_unique": len(inner) == 1,
        }
        if s_lat is not None and len(inner) == 1:
            entry["inner_isomorphic_to_complement"] = lat.hom_count(inner[0], s_lat) > 1
            entry["end_size"] = lat.hom_count(s_lat, s_lat)
            entry["alpha"] = g.n
        maximal.append(entry)
    witness = find_double_simple_image(lat)
    if witness is not None:
        k = witness["kernel"]
        witness = {"kernel": lat.describe(k), "kernel_size": lat.subs[k].size,
                   "quotient_size": ctx.module.size // lat.subs[k].size}
    # the facts of a uniform vertex N depend only on its atom S
    per_vertex, per_atom = [], {}
    for v in range(g.n):
        inner = lat.covers_in(lat.zero_index, v + 1)
        entry = {"N": lat.describe(v + 1), "deg": g.degree(v), "unique_simple": len(inner) == 1}
        if len(inner) == 1:
            (s,) = inner
            if s not in per_atom:
                per_atom[s] = {
                    "end_size": lat.hom_count(s, s),
                    # S <= N < M, so [S, M] has two ends
                    "g_mod_simple": lat.interval_size(s, lat.full_index) - 2,
                    "detached_section": _has_detached_section(lat, s),
                }
            entry.update(per_atom[s])
        per_vertex.append(entry)
    details = {"small_degree_maximal": maximal, "double_simple_image": witness, "vertices": per_vertex}
    return CheckReport(cid, ctx.instance_id, PASS, None, details)


def _has_detached_section(lat: Lattice, s_idx: int) -> bool:
    """For any N whose only atom is S: is there a pair B < A with A meeting N
    trivially and A/B a copy of S?  A nonzero A & N contains an atom of N,
    which is S, so A meets N trivially exactly when S is not inside A, and
    the answer depends on S alone.  A/B is simple exactly when A covers B,
    and a copy of S exactly when its class is S's; copies have S's size."""
    subs, s_class = lat.subs, lat.section_class(s_idx, lat.zero_index)
    return any(
        lat.section_class(a, b) == s_class
        for b, b_sub in enumerate(subs)
        for a in lat.covers_in(b, lat.full_index)
        if subs[a].size // b_sub.size == subs[s_idx].size and not lat.leq(s_idx, a)
    )


# -- suite runner -----------------------------------------------------------------------


ALL_CHECKS = {
    "C1-pair-count": check_pair_count,
    "C2-low-degree": check_low_degree,
    "C3-length-additivity": check_length_additivity,
    "C4-small-degree-maximal": check_small_degree_maximal,
    "C5-structured-shapes": check_structured_shapes,
    "C6-socle-cliques": check_socle_cliques,
    "C7-overline-coloring": check_overline_coloring,
    "C8-complement-coloring": check_complement_coloring,
    "C9-triangle-free": check_triangle_free,
    "C10-connectivity": check_connectivity,
    "C11-structure-report": check_structure_report,
}


@dataclass
class SuiteSummary:
    counts: dict
    warnings: list[str]

    @property
    def failed(self) -> bool:
        return any(c.get(FAIL, 0) for c in self.counts.values())


def run_suite(contexts, check_ids=None, caps: Caps | None = None):
    """Run the selected checks over instance contexts.

    Returns (reports, summary); reports are ordered by (instance, check).
    Per-instance cap errors become SKIPPED entries rather than aborting.
    Each context carries its own caps, so caps is not read here.
    """
    ids = list(check_ids) if check_ids else list(ALL_CHECKS)
    for cid in ids:
        if cid not in ALL_CHECKS:
            raise KeyError(f"unknown check id {cid!r}")
    reports: list[CheckReport] = []
    for ctx in contexts:
        for cid in ids:
            try:
                rep = ALL_CHECKS[cid](ctx)
            except CapExceeded as exc:
                rep = CheckReport(cid, ctx.instance_id, SKIPPED, str(exc))
            reports.append(rep)
    reports.sort(key=lambda r: (r.instance_id, r.check_id))
    counts: dict[str, Counter] = {cid: Counter() for cid in ids}
    for rep in reports:
        counts[rep.check_id][rep.status] += 1
    warnings = [
        f"check {cid} was VACUOUS on every instance"
        for cid, cnt in counts.items()
        if cnt and set(cnt) == {VACUOUS}
    ]
    return reports, SuiteSummary({k: dict(v) for k, v in counts.items()}, warnings)


def reports_to_jsonl(reports) -> str:
    return "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in reports) + "\n"


def render_summary(reports, summary: SuiteSummary) -> str:
    lines = []
    width = max((len(r.check_id) for r in reports), default=10)
    for cid, cnt in summary.counts.items():
        parts = " ".join(f"{k}={v}" for k, v in sorted(cnt.items()))
        lines.append(f"{cid:<{width}}  {parts}")
    for rep in reports:
        if rep.status == FAIL:
            lines.append(f"FAIL {rep.check_id} on {rep.instance_id}: {rep.witness}")
    for w in summary.warnings:
        lines.append(f"warning: {w}")
    total = sum(sum(c.values()) for c in summary.counts.values())
    lines.append(f"{total} reports, {'FAIL' if summary.failed else 'ok'}")
    return "\n".join(lines) + "\n"
