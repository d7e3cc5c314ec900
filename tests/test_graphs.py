import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modgraph import checks, graphs, solvers
from modgraph.caps import Caps
from modgraph.errors import CapExceeded, ConstructionError
from modgraph.graphs import (
    ApplicabilityFailure,
    Coloring,
    IntersectionGraph,
    build_graph,
    color_by_overline,
    color_complement_by_uniform_clique,
    homogeneous_socle_pair,
)
from modgraph.lattice import enumerate_submodules
from modgraph.modules import direct_sum, regular_module
from modgraph.rings import ring_gf, ring_zmod
from modgraph.solvers import iter_bits
from modgraph.specs import make_spec
from modgraph.zoo import contexts

from .oracles import (
    brute_adjacency,
    brute_chromatic,
    brute_distances,
    brute_girth,
    brute_is_proper,
    brute_is_star,
    brute_max_clique,
    subspace_clique,
)
from .test_lattice import vector_space, zmod_sum
from .test_solvers import PETERSEN, complete, cycle, graph_from_edges

INF = math.inf


def graph_of(module):
    return build_graph(enumerate_submodules(module))


def test_z12_graph_matches_hand_computation(z12_module):
    g = graph_of(z12_module)
    assert g.n == 4
    by_size = {g.vertices[v].size: v for v in range(g.n)}
    s6, s4, s3, s2 = by_size[2], by_size[3], by_size[4], by_size[6]
    assert set(g.edges()) == {(s6, s3), (s6, s2), (s4, s2), (s3, s2)}
    assert g.degree(s2) == 3 and g.degree(s4) == 1
    assert g.clique_number()[0] == 3
    assert g.chromatic()[0] == 3
    assert g.girth() == 3
    assert g.diameter() == 2
    assert g.is_connected()
    assert g.classify_shape().tag == "other"


def test_degree_complement_identity(named_contexts):
    for ctx in named_contexts:
        g = ctx.graph
        for v in range(g.n):
            assert g.degree(v) + g.complement_degree(v) + 1 == g.n


def test_complete_iff_uniform(named_contexts):
    for ctx in named_contexts:
        g, lat = ctx.graph, ctx.lattice
        if g.n == 0:
            continue
        assert g.is_complete_graph() == lat.is_uniform(lat.full_index), ctx.instance_id


def test_null_iff_unique_or_pair_of_simples(named_contexts):
    for ctx in named_contexts:
        g, lat = ctx.graph, ctx.lattice
        if g.n == 0:
            continue
        atoms = lat.atom_indices()
        pair = any(
            lat.subs[a].bits & lat.subs[b].bits == 1
            and lat.join_index(a, b) == lat.full_index
            for a in atoms
            for b in atoms
            if a < b
        )
        assert g.is_null_graph() == (g.n == 1 or pair), ctx.instance_id


def test_complement_invariants_need_no_search_and_no_cap(monkeypatch):
    # omega_c = chi_c = #atoms is read off the atom certificate, so F2^4,
    # one vertex past the default cap, gets both with the solvers gone
    def searched(*args):
        raise AssertionError("an exact solver ran on the complement")

    monkeypatch.setattr(graphs, "max_clique", searched)
    monkeypatch.setattr(graphs, "chromatic_number", searched)
    g = graph_of(vector_space(2, 1, 4))
    assert g.n == 65  # one past the default cap
    assert g.complement_clique_number()[0] == g.complement_chromatic()[0] == 15
    with pytest.raises(CapExceeded, match="max_exact_vertices=64"):
        g.clique_number()


@pytest.mark.parametrize("solve", ["complement_clique_number", "complement_chromatic"])
def test_vertex_cap_is_checked_before_the_complement_is_built(monkeypatch, solve):
    # past the cap, the exact solver refuses before any complement row is
    # built; the complement invariant, which needs no cap, builds them once
    g = graph_of(vector_space(2, 1, 4))
    assert g.n == 65  # one past the default cap
    built = []
    complement_adj = g.complement_adj
    monkeypatch.setattr(g, "complement_adj", lambda: built.append(1) or complement_adj())
    with pytest.raises(CapExceeded, match="max_exact_vertices=64"):
        g.clique_number()
    assert not built
    for _ in range(2):
        assert getattr(g, solve)()[0] == 15
    assert len(built) == 1


@pytest.mark.parametrize("fault", ["join two atoms", "part a vertex from its first atom"])
def test_atom_certificate_is_checked_on_the_complement_rows(ctx_by_id, fault):
    # one edge toggled in a copy of the adjacency: two atoms that meet are no
    # clique of the complement, and a vertex that misses its first atom makes
    # that atom's color improper, so the certificate refuses to answer
    lat = ctx_by_id["triangular(F4,F2)/regular"].lattice
    g = IntersectionGraph(lat)
    u, v = (a - 1 for a in lat.atom_indices()[:2])
    if fault != "join two atoms":
        v = next(iter_bits(g.vertices_of(lat.above(u + 1)) & ~(1 << u)))
    assert bool(g.adj[u] >> v & 1) == (fault != "join two atoms")
    g.adj = list(g.adj)
    g.adj[u] ^= 1 << v
    g.adj[v] ^= 1 << u
    for solve in (g.complement_clique_number, g.complement_chromatic):
        with pytest.raises(ConstructionError, match="complement"):
            solve()


def test_atom_certificate_matches_brute_force_and_exact_solvers(named_contexts, family16_contexts):
    # omega_c and chi_c of the certificate against the exact solvers, cap
    # lifted, on every named, size:16 and R+R over size:16 graph, and against
    # brute force on the complement of every named and size:16 graph of at
    # most 10 vertices
    selfsum = {"kind": "direct_sum", "left": {"kind": "regular"}, "right": {"kind": "regular"}}
    sums = list(contexts([make_spec(c.instance.spec["ring"], selfsum) for c in family16_contexts]))
    brute = 0
    for ctx in [*named_contexts, *family16_contexts, *sums]:
        g = ctx.graph
        comp = g.complement_adj()
        omega_c, atoms = g.complement_clique_number()
        chi_c, coloring = g.complement_chromatic()
        assert omega_c == chi_c == len(atoms) == coloring.count, ctx.instance_id
        caps = Caps(max_exact_vertices=g.n)
        omega, witness = solvers.max_clique(g.n, comp, caps)
        assert omega == omega_c, ctx.instance_id
        assert solvers.chromatic_number(g.n, comp, witness, caps)[0] == chi_c, ctx.instance_id
        if g.n <= 10 and ctx not in sums:
            assert brute_max_clique(g.n, comp)[0] == omega_c, ctx.instance_id
            assert brute_chromatic(g.n, comp) == chi_c, ctx.instance_id
            brute += 1
    assert len(sums) == len(family16_contexts) and brute >= 70


def test_complement_clique_bounded_by_complement_chromatic(named_contexts):
    for ctx in named_contexts:
        g = ctx.graph
        assert g.complement_clique_number()[0] <= g.complement_chromatic()[0]


def test_shape_classification_small_cases():
    assert graph_of(regular_module(ring_zmod(4))).classify_shape().tag == "null"  # K1 = N1
    assert graph_of(regular_module(ring_zmod(8))).classify_shape().tag == "complete"  # K2
    assert graph_of(regular_module(ring_zmod(6))).classify_shape().tag == "null"  # N2


def test_named_shapes(ctx_by_id):
    assert ctx_by_id["M2(F2)/regular"].graph.classify_shape() .tag == "null"
    assert ctx_by_id["M2(F2)/regular"].graph.n == 3
    star = ctx_by_id["polyquot(F2,x^2,x*y,y^2)/regular"].graph
    assert star.classify_shape().tag == "star" and star.n == 4
    assert ctx_by_id["zmod(12)/regular"].graph.classify_shape().tag == "other"


def test_star_center_is_socle(ctx_by_id):
    ctx = ctx_by_id["polyquot(F3,x^2,x*y,y^2)/regular"]
    g, lat = ctx.graph, ctx.lattice
    assert g.is_star_graph()
    center = g.degrees().index(g.n - 1)
    assert center + 1 == lat.socle_index()  # vertex v is lattice member v + 1


def test_girth_and_diameter():
    assert graph_of(regular_module(ring_zmod(8))).girth() == INF
    z12 = graph_of(regular_module(ring_zmod(12)))
    assert z12.girth() == 3
    z6 = graph_of(regular_module(ring_zmod(6)))
    assert not z6.is_connected()
    assert z6.diameter() == INF


def walk_graph(n, adj):
    """An IntersectionGraph over a given adjacency; the walks and shape
    tests read only n, adj and the degrees stored at build."""
    g = IntersectionGraph.__new__(IntersectionGraph)
    g.n, g.adj = n, list(adj)
    g._degrees = [row.bit_count() for row in adj]
    return g


def assert_walks_match_distances(n, adj, label=None):
    dist = brute_distances(n, adj)
    far = max((d for row in dist for d in row), default=0)
    g = walk_graph(n, adj)
    assert g.is_connected() == (far != INF), label
    assert g.diameter() == far, label


@st.composite
def random_graph(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return n, graph_from_edges(n, edges)


@st.composite
def near_star(draw):
    """A star on n vertices with at most one vertex pair flipped."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return 0, []
    centre = draw(st.integers(0, n - 1))
    edges = {(min(centre, v), max(centre, v)) for v in range(n) if v != centre}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs and draw(st.booleans()):
        edges ^= {draw(st.sampled_from(pairs))}
    return n, graph_from_edges(n, edges)


@given(st.one_of(random_graph(), near_star()))
@example((0, []))
@example((1, [0]))
@example((2, [0, 0]))  # two isolated vertices
@example((2, complete(2)))  # K2, the two-vertex star
@example((4, graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])))
@example((4, graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])))
@settings(max_examples=150, deadline=None)
def test_star_by_degrees_matches_pairwise_oracle(graph):
    n, adj = graph
    assert walk_graph(n, adj).is_star_graph() == brute_is_star(n, adj)


def test_walks_match_distance_oracle_on_zoo_and_census(named_contexts, family16_contexts):
    for ctx in [*named_contexts, *family16_contexts]:
        assert_walks_match_distances(ctx.graph.n, ctx.graph.adj, ctx.instance_id)


@given(random_graph())
@example((0, []))
@example((1, [0]))
@example((2, [0, 0]))
@example((4, graph_from_edges(4, [(0, 1), (2, 3)])))  # two components
@example((4, graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])))  # P4, diameter 3
@example((5, graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])))  # P5, diameter 4
@example((4, complete(4)))  # K4, diameter 1
@settings(max_examples=150, deadline=None)
def test_walks_match_oracles_on_random_graphs(graph):
    n, adj = graph
    assert_walks_match_distances(n, adj)
    assert walk_graph(n, adj).girth() == brute_girth(n, adj)


@pytest.mark.parametrize("n", range(4, 10))
def test_girth_of_triangle_free_cycles(n):
    assert walk_graph(n, cycle(n)).girth() == n == brute_girth(n, cycle(n))


def test_girth_of_petersen():
    g = walk_graph(10, PETERSEN)
    assert g.is_triangle_free() and g.girth() == 5 == brute_girth(10, PETERSEN)
    assert g.diameter() == 2


def test_f2_fourth_power_closed_forms():
    # nontrivial subspaces of V = F_q^4 for q = 2
    q = 2
    reg = regular_module(ring_gf(q, 1))
    space = reg
    for _ in range(3):
        space = direct_sum(space, reg)
    g = graph_of(space)
    caps = Caps(max_exact_vertices=g.n)
    assert g.n == 65
    # hyperplanes pairwise meet, and planes through a fixed line meet each
    # other and every hyperplane
    assert g.clique_number(caps)[0] == (q**3 + q**2 + q + 1) + (q**2 + q + 1) == 22
    # distinct lines meet trivially
    assert g.complement_clique_number(caps)[0] == (q**4 - 1) // (q - 1) == 15
    assert g.diameter() == 2 and g.girth() == 3 and g.is_connected()


def test_adjacency_matches_pairwise_oracle(named_contexts, family16_contexts):
    graphs = [ctx.graph for ctx in [*named_contexts, *family16_contexts]]
    ladder = (vector_space(2, 1, 4), zmod_sum(4, [4, 4, 4]), vector_space(3, 1, 4), vector_space(2, 1, 1))
    graphs += [graph_of(m) for m in ladder]
    assert [g.n for g in graphs[-4:]] == [65, 127, 210, 0]  # F2 is simple: no vertices
    for g in graphs:
        adj = brute_adjacency([sub.members for sub in g.vertices])
        assert g.adj == adj
        assert g.edges() == [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if adj[i] >> j & 1]


def test_diameter_two_needs_no_eccentricity(monkeypatch):
    def eccentricity(self, start):
        raise AssertionError("diameter fell back to a walk per vertex")

    g = graph_of(vector_space(2, 1, 5))
    monkeypatch.setattr(IntersectionGraph, "_eccentricity", eccentricity)
    assert g.n == 372 and g.diameter() == 2


def test_ladder_coloring_needs_no_search(monkeypatch):
    # chi = omega and chi_c = omega_c, certified by a heuristic colouring alone
    def colorable(*args):
        raise AssertionError("chromatic_number fell back to backtracking")

    monkeypatch.setattr(solvers, "_colorable", colorable)
    caps = Caps(max_exact_vertices=256)
    for module, chi, chi_c in ((vector_space(2, 1, 4), 22, 15), (zmod_sum(4, [4, 4, 4]), 92, 7)):
        g = graph_of(module)
        assert g.chromatic(caps)[0] == chi and g.complement_chromatic(caps)[0] == chi_c


@pytest.mark.parametrize("q,dim,omega", [(2, 4, 22), (3, 4, 53), (2, 5, 186)])
def test_max_clique_meets_the_subspace_clique(q, dim, omega):
    # the subspace clique is a lower bound; the exact values are regression values
    clique = subspace_clique(q, dim)
    assert len(clique) == omega
    assert all(len(a & b) > 1 for i, a in enumerate(clique) for b in clique[i + 1:])
    g = graph_of(vector_space(q, 1, dim))
    got, witness = solvers.max_clique(g.n, g.adj, Caps(max_exact_vertices=g.n))
    assert got == omega == len(witness)
    assert all((g.adj[u] >> v) & 1 for i, u in enumerate(witness) for v in witness[i + 1:])


def test_girth_matches_path_oracle(named_contexts):
    for ctx in named_contexts:
        g = ctx.graph
        if g.n > 8:
            continue
        assert g.girth() == brute_girth(g.n, g.adj), ctx.instance_id


def test_triangle_free_agrees_with_clique_number(named_contexts):
    for ctx in named_contexts:
        g = ctx.graph
        assert g.is_triangle_free() == (g.clique_number()[0] <= 2)


def atom_overlines(g):
    """Each atom's overline, the vertices containing it, keyed by the atom's vertex."""
    lat = g.lattice
    return {a - 1: list(iter_bits(g.vertices_of(lat.above(a)))) for a in lat.atom_indices()}


def verified_overlines(module):
    """The graph, its overlines as checks._overline_cliques verifies them, and the socle."""
    lat = enumerate_submodules(module)
    g = build_graph(lat)
    socle = homogeneous_socle_pair(lat)
    overlines = checks._overline_cliques(g, lat, socle)
    assert isinstance(overlines, list), overlines
    return g, overlines, socle


def test_overline_is_a_clique(named_contexts):
    for ctx in named_contexts:
        g = ctx.graph
        for v, over in atom_overlines(g).items():
            assert v in over
            for i, a in enumerate(over):
                for b in over[i + 1:]:
                    assert (g.adj[a] >> b) & 1


def test_overline_examples(triangular_f4, f2_squared):
    g = graph_of(triangular_f4)
    # the simple inside T has overline {S', Soc, T}; the complements get {L, Soc}
    sizes = sorted(len(over) for over in atom_overlines(g).values())
    assert sizes == [2, 2, 2, 2, 3]
    g2 = graph_of(f2_squared)
    for v, over in atom_overlines(g2).items():
        assert over == [v]


def test_overline_requires_simple_vertex(named_contexts):
    # the verified overlines are the up-sets of the simple vertices, in
    # vertex order, and the one simple vertex in each is its own atom
    checked = 0
    for ctx in named_contexts:
        g, lat = ctx.graph, ctx.lattice
        socle = homogeneous_socle_pair(lat)
        if socle is None:
            continue
        overlines = checks._overline_cliques(g, lat, socle)
        simple = [v for v in range(g.n) if g.vertex_is_simple(v)]
        assert overlines == [g.vertices_of(lat.above(v + 1)) for v in simple], ctx.instance_id
        for v, over in zip(simple, overlines):
            assert [u for u in iter_bits(over) if g.vertex_is_simple(u)] == [v]
        checked += 1
    assert checked == 14


def test_homogeneous_socle_gate(z12_module, triangular_f4, f2_squared):
    assert homogeneous_socle_pair(enumerate_submodules(z12_module)) is None  # Z/2 vs Z/3
    assert homogeneous_socle_pair(enumerate_submodules(triangular_f4)) is not None
    assert homogeneous_socle_pair(enumerate_submodules(f2_squared)) is not None


def test_color_by_overline_on_triangular(triangular_f4):
    g, overlines, socle = verified_overlines(triangular_f4)
    coloring = color_by_overline(g, overlines, socle)
    assert isinstance(coloring, Coloring)
    assert coloring.count == 3 == g.clique_number()[0] == len(set(coloring.assignment))
    assert brute_is_proper(g.n, g.adj, list(coloring.assignment))


def test_color_by_overline_on_null_graph(f2_squared):
    g, overlines, socle = verified_overlines(f2_squared)
    coloring = color_by_overline(g, overlines, socle)
    assert isinstance(coloring, Coloring)
    assert coloring.count == 1 and coloring.assignment == (0,) * g.n


def test_color_by_overline_requires_structure(monkeypatch, ctx_by_id):
    # the scheme trusts its overlines, so C7 colors only once the socle
    # structure holds: without it C7 is VACUOUS and never colors
    def colored(*args):
        raise AssertionError("colored without a homogeneous socle pair")

    monkeypatch.setattr(checks, "color_by_overline", colored)
    ctx = ctx_by_id["zmod(12)/regular"]
    assert homogeneous_socle_pair(ctx.lattice) is None
    assert checks.check_overline_coloring(ctx).status == checks.VACUOUS


def test_uniform_clique_complement_coloring_cases(triangular_f4, z2_x_z4):
    g8 = graph_of(regular_module(ring_zmod(8)))
    got = color_complement_by_uniform_clique(g8)
    assert isinstance(got, Coloring)
    assert got.count == 1  # complement of a chain graph has no edges
    assert brute_is_proper(g8.n, g8.complement_adj(), list(got.assignment))
    gt = graph_of(triangular_f4)
    failed = color_complement_by_uniform_clique(gt)
    assert isinstance(failed, ApplicabilityFailure)
    assert failed.witness is not None
    assert len(failed.extra["clique"]) >= 1


def test_export_dot_and_json(z12_module):
    g = graph_of(z12_module)
    dot = g.export("dot")
    assert dot.count("--") == 4
    assert "v0" in dot and dot == g.export("dot")
    payload = json.loads(g.export("json"))
    assert payload["order"] == 4
    assert len(payload["edges"]) == 4
    assert payload["invariants"]["shape"] == "other"
    assert payload["invariants"]["girth"] == 3
    g8 = graph_of(regular_module(ring_zmod(8)))
    assert json.loads(g8.export("json"))["invariants"]["girth"] == "inf"


def test_export_byte_determinism(z12_module):
    a = graph_of(z12_module)
    b = graph_of(regular_module(ring_zmod(12)))
    assert a.export("json") == b.export("json")
    assert a.export("dot") == b.export("dot")
