import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modgraph import solvers
from modgraph.caps import Caps
from modgraph.errors import CapExceeded, ConstructionError
from modgraph.solvers import (
    chromatic_number,
    greedy_coloring,
    is_proper_coloring,
    max_clique,
    max_cliques,
    rlf_coloring,
)

from .oracles import (
    brute_chromatic,
    brute_first_fit,
    brute_is_proper,
    brute_max_clique,
    brute_maximal_cliques,
)


def graph_from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


PETERSEN = graph_from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)

KNOWN = [
    ("c5", 5, cycle(5), 2, 3),
    ("petersen", 10, PETERSEN, 2, 3),
    ("k5", 5, complete(5), 5, 5),
    ("n7", 7, [0] * 7, 1, 1),
    ("star6", 6, graph_from_edges(6, [(0, i) for i in range(1, 6)]), 2, 2),
    ("path4", 4, graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]), 2, 2),
    ("empty", 0, [], 0, 0),
]


@pytest.mark.parametrize("name,n,adj,omega,chi", KNOWN, ids=[k[0] for k in KNOWN])
def test_known_graphs(name, n, adj, omega, chi):
    got_omega, witness = max_clique(n, adj)
    assert got_omega == omega
    assert all((adj[u] >> v) & 1 for i, u in enumerate(witness) for v in witness[i + 1:])
    got_chi, colors = chromatic_number(n, adj, witness)
    assert got_chi == chi
    assert brute_is_proper(n, adj, colors)
    assert len(set(colors)) == chi


@st.composite
def random_graph(draw):
    n = draw(st.integers(1, 9))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1]),
            max_size=n * (n - 1) // 2,
        )
    )
    return n, graph_from_edges(n, edges)


@given(random_graph())
@settings(max_examples=120, deadline=None)
def test_solvers_match_brute_force(g):
    n, adj = g
    omega, witness = max_clique(n, adj)
    assert omega == brute_max_clique(n, adj)[0]
    assert len(witness) == omega
    assert all((adj[u] >> v) & 1 for i, u in enumerate(witness) for v in witness[i + 1:])
    chi, colors = chromatic_number(n, adj, witness)
    assert chi == brute_chromatic(n, adj)
    assert brute_is_proper(n, adj, colors)
    # the backtracking search on its own, which the heuristics usually make unnecessary
    assert solvers._colorable(n, adj, chi - 1) is None
    backtracked = solvers._colorable(n, adj, chi)
    assert brute_is_proper(n, adj, backtracked) and max(backtracked) < chi
    assert sorted(max_cliques(n, adj)) == brute_maximal_cliques(n, adj)


@given(random_graph())
@settings(max_examples=60, deadline=None)
def test_greedy_coloring_always_proper(g):
    # every heuristic chromatic_number tries, with colours 0, 1, ... all used
    n, adj = g
    for heuristic in (greedy_coloring, solvers._first_fit_by_degree, rlf_coloring):
        colors = heuristic(n, adj)
        assert len(colors) == n and brute_is_proper(n, adj, colors)
        assert sorted(set(colors)) == list(range(max(colors) + 1))


@given(random_graph(), st.data())
@settings(max_examples=150, deadline=None)
def test_is_proper_coloring_matches_the_pair_scan(g, data):
    # random colourings with few colours, so that many are improper
    n, adj = g
    colors = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    assert is_proper_coloring(n, adj, colors) == brute_is_proper(n, adj, colors)


@st.composite
def small_graph(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, graph_from_edges(n, [p for p in pairs if draw(st.booleans())])


@given(small_graph())
@example((0, []))
@example((1, [0]))
@settings(max_examples=150, deadline=None)
def test_greedy_coloring_is_first_fit(g):
    n, adj = g
    assert greedy_coloring(n, adj) == brute_first_fit(n, adj)


def test_greedy_coloring_is_first_fit_on_zoo_and_census(named_contexts, family16_contexts):
    for ctx in [*named_contexts, *family16_contexts]:
        g = ctx.graph
        for adj in (g.adj, g.complement_adj()):
            assert greedy_coloring(g.n, adj) == brute_first_fit(g.n, adj), ctx.instance_id


@given(random_graph(), st.data())
@example((1, [0]), None)
@settings(max_examples=100, deadline=None)
def test_renumbered_matches_bitwise_permutation(g, data):
    n, adj = g
    order = list(range(n)) if data is None else data.draw(st.permutations(range(n)))
    naive = []
    for v in order:
        row = 0
        for i, u in enumerate(order):
            if (adj[v] >> u) & 1:
                row |= 1 << i
        naive.append(row)
    assert solvers._renumbered(adj, order) == naive


def test_max_clique_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    full = (1 << n) - 1
    adj = [full & ~(1 << v) for v in range(n)]
    assert max_clique(n, adj, Caps(max_exact_vertices=n)) == (n, list(range(n)))


def test_max_cliques_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    full = (1 << n) - 1
    adj = [full & ~(1 << v) for v in range(n)]
    assert max_cliques(n, adj, Caps(max_exact_vertices=n)) == [list(range(n))]


def test_colorable_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    path = graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    colors = solvers._colorable(n, path, 2)
    assert colors is not None and brute_is_proper(n, path, colors)
    assert solvers._colorable(3, complete(3), 2) is None


def test_crown_graph_needs_two_colors():
    # u_i ~ w_j for i != j, numbered u_0, w_0, u_1, w_1, ...: first-fit in
    # index or degree order takes one colour per pair, 600 in all
    n = 1200
    adj = graph_from_edges(n, [(2 * i, 2 * j + 1) for i in range(n // 2) for j in range(n // 2) if i != j])
    assert max(greedy_coloring(n, adj)) + 1 == n // 2
    chi, colors = chromatic_number(n, adj, [0, 3], Caps(max_exact_vertices=n))
    assert chi == 2 and brute_is_proper(n, adj, colors)


def test_max_clique_matches_oracles_on_zoo_and_census(named_contexts, family16_contexts):
    # max_clique searches a degree-ordered renumbering; the value and the
    # witness, read back in the caller's numbering, must agree with
    # Bron-Kerbosch and with the subset scan on the graph and its complement
    checked = 0
    for ctx in [*named_contexts, *family16_contexts]:
        g = ctx.graph
        for adj in (g.adj, g.complement_adj()):
            omega, witness = max_clique(g.n, adj)
            assert omega == max((len(c) for c in max_cliques(g.n, adj)), default=0), ctx.instance_id
            if g.n <= 16:
                assert omega == brute_max_clique(g.n, adj)[0], ctx.instance_id
            assert len(witness) == omega and witness == sorted(set(witness)), ctx.instance_id
            assert all((adj[u] >> v) & 1 for i, u in enumerate(witness) for v in witness[i + 1:])
            checked += 1
    assert checked == 2 * (len(named_contexts) + len(family16_contexts))


def test_omega_never_exceeds_chi():
    for _, n, adj, _, _ in KNOWN:
        if n == 0:
            continue
        assert max_clique(n, adj)[0] <= chromatic_number(n, adj, max_clique(n, adj)[1])[0]


def test_vertex_cap_enforced():
    n = 70
    with pytest.raises(CapExceeded):
        max_clique(n, [0] * n)
    assert max_clique(n, [0] * n, Caps(max_exact_vertices=128))[0] == 1


def test_improper_greedy_coloring_is_caught(monkeypatch):
    # fewer colours than the clique number, and as many colours as it
    monkeypatch.setattr(solvers, "greedy_coloring", lambda n, adj: [0] * n)
    with pytest.raises(ConstructionError, match="improper"):
        chromatic_number(4, complete(4), max_clique(4, complete(4))[1])
    monkeypatch.setattr(solvers, "greedy_coloring", lambda n, adj: [v % 2 for v in range(n)])
    with pytest.raises(ConstructionError, match="improper"):
        chromatic_number(5, cycle(5), [0, 1])


def test_deterministic_witnesses():
    n, adj = 6, complete(6)
    assert max_clique(n, adj) == max_clique(n, adj)
    clique = max_clique(n, adj)[1]
    assert chromatic_number(n, adj, clique) == chromatic_number(n, adj, clique)
    assert max_cliques(5, cycle(5)) == max_cliques(5, cycle(5))


def test_chromatic_number_takes_its_lower_bound_from_the_caller(monkeypatch):
    def solved_again(*args):
        raise AssertionError("chromatic_number solved omega itself")

    monkeypatch.setattr(solvers, "max_clique", solved_again)
    # any clique is a valid lower bound; the answer stays exact
    for clique in ([0, 1], [3], []):
        chi, colors = chromatic_number(5, cycle(5), clique)
        assert chi == 3 and brute_is_proper(5, cycle(5), colors)
    for not_a_clique in ([0, 2], [1, 1], [0, 5], [-1]):
        with pytest.raises(ConstructionError, match="not a clique"):
            chromatic_number(5, cycle(5), not_a_clique)
