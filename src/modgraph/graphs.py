"""Intersection graphs of submodule lattices.

Vertices are the nontrivial submodules in canonical lattice order, which
puts 0 first and M last, so vertex v is lattice member v + 1.  Two
vertices are adjacent exactly when their intersection is nonzero, that is,
when they share a nonzero element.  So the adjacency is built by element
incidence: the lattice records, for each element, the bitset of members
holding it, and a vertex's row is the OR of those bitsets over its nonzero
elements, sum |N_i| ORs in all instead of a test per vertex pair.  The
degrees are stored when the rows are built, and the shape tests read them
(a star is the degree sequence n - 1 ones and n - 1).  Containment is read
off the lattice's up-sets, shifted by one to vertex numbering: the overline
of a simple vertex is its up-set, and meeting in 0 is non-adjacency.  Walks
run on the adjacency bitsets a whole frontier at a time (one step ORs the
masks of every frontier vertex), which gives connectivity.
The diameter first tests "diameter <= 2" directly: for each vertex, OR the
rows of its neighbours, highest degree first, until every vertex is
reached; only when some vertex falls short (diameter >= 3, a disconnected
graph, or n <= 1) does it take the largest eccentricity.  Girth is 3 as
soon as a triangle exists, and only triangle-free graphs get a per-vertex
BFS.  Exact invariants delegate to the branch-and-bound solvers; each graph
tests the vertex cap before anything is built, solves omega, omega_c, chi and
chi_c once, and starts chi and chi_c from the omega and omega_c witnesses.
The two structural coloring schemes never return an improper coloring,
reporting an applicability failure instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .caps import Caps
from .errors import ConstructionError, StructureError
from .lattice import Lattice
from .solvers import (
    by_degree,
    chromatic_number,
    is_proper_coloring,
    iter_bits,
    max_clique,
    max_cliques,
)

INF = math.inf


@dataclass(frozen=True)
class GraphShape:
    tag: str  # null | complete | star | other
    order: int


@dataclass
class Coloring:
    assignment: tuple[int, ...]
    count: int
    tag: str  # exact | greedy | overline | uniform-complement
    extra: dict = field(default_factory=dict)


@dataclass
class ApplicabilityFailure:
    reason: str
    witness: str | None = None
    extra: dict = field(default_factory=dict)


class IntersectionGraph:
    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        self.module = lattice.module
        # vertex v is lattice member v + 1: canonical order puts 0 first and M last
        self.vertices = lattice.subs[1:-1]
        self.n = len(self.vertices)
        # holders[x]: the vertices containing element x, none for x = 0
        holders = [0] + [self.vertices_of(h) for h in lattice._holders[1:]]
        self.adj = [
            reduce(or_, map(holders.__getitem__, sub.members)) & ~(1 << i)
            for i, sub in enumerate(self.vertices)
        ]
        self._degrees = [row.bit_count() for row in self.adj]
        self._solved: dict[str, tuple] = {}

    def vertices_of(self, members: int) -> int:
        """A bitset of lattice members as a bitset of vertices: drop 0 and M."""
        return members >> 1 & (1 << self.n) - 1

    # -- basic invariants --------------------------------------------------

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def complement_degree(self, v: int) -> int:
        return self.n - 1 - self._degrees[v]

    def degrees(self) -> list[int]:
        return list(self._degrees)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.adj) for j in iter_bits(row & ~((2 << i) - 1))]

    def complement_adj(self) -> list[int]:
        full = (1 << self.n) - 1
        return [full & ~self.adj[v] & ~(1 << v) for v in range(self.n)]

    def _solve_once(self, key: str, solve, caps: Caps):
        # refused before solve() builds anything, such as the complement rows;
        # a remembered answer still honours the caller's cap
        caps.check_vertices(self.n)
        if key not in self._solved:
            self._solved[key] = solve()
        return self._solved[key]

    def clique_number(self, caps: Caps = Caps()) -> tuple[int, list[int]]:
        return self._solve_once("omega", lambda: max_clique(self.n, self.adj, caps), caps)

    def maximal_cliques(self, caps: Caps = Caps()) -> list[list[int]]:
        return max_cliques(self.n, self.adj, caps)

    def chromatic(self, caps: Caps = Caps()) -> tuple[int, Coloring]:
        return self._solve_once("chi", lambda: self._color(self.adj, self.clique_number(caps)[1], caps), caps)

    def complement_clique_number(self, caps: Caps = Caps()) -> tuple[int, list[int]]:
        return self._solve_once("omega_c", lambda: max_clique(self.n, self.complement_adj(), caps), caps)

    def complement_chromatic(self, caps: Caps = Caps()) -> tuple[int, Coloring]:
        def solve():
            return self._color(self.complement_adj(), self.complement_clique_number(caps)[1], caps)

        return self._solve_once("chi_c", solve, caps)

    def _color(self, adj: list[int], clique: list[int], caps: Caps) -> tuple[int, Coloring]:
        k, colors = chromatic_number(self.n, adj, clique, caps)
        return k, Coloring(tuple(colors), k, "exact")

    # -- walks -------------------------------------------------------------

    def _eccentricity(self, start: int) -> float:
        """Largest distance from start, or INF when some vertex is out of reach."""
        seen = frontier = 1 << start
        depth = 0
        while True:
            reach = 0
            for u in iter_bits(frontier):
                reach |= self.adj[u]
            frontier = reach & ~seen
            if not frontier:
                return depth if seen == (1 << self.n) - 1 else INF
            seen |= frontier
            depth += 1

    def is_connected(self) -> bool:
        return self.n <= 1 or self._eccentricity(0) != INF

    def diameter(self) -> float:
        """Largest distance, or INF when disconnected.  First test whether
        the neighbours of each vertex reach every vertex (diameter <= 2);
        only when that fails take the largest eccentricity."""
        n, adj = self.n, self.adj
        full = (1 << n) - 1
        order = by_degree(n, adj)
        if n > 1 and all(self._reaches_all_in_two(v, order) for v in range(n)):
            return 1 if all(adj[v] | 1 << v == full for v in range(n)) else 2
        return max(map(self._eccentricity, range(n)), default=0)

    def _reaches_all_in_two(self, v: int, order: list[int]) -> bool:
        """Is every vertex within distance 2 of v?  ORs the neighbours'
        rows in the given order, highest degree first so that the widest
        rows come first, and stops once every vertex is reached."""
        adj, full = self.adj, (1 << self.n) - 1
        near, reach = adj[v], adj[v] | 1 << v
        for u in order:
            if reach == full:
                return True
            if near >> u & 1:
                reach |= adj[u]
        return reach == full

    def girth(self) -> float:
        """Shortest cycle length: 3 when there is a triangle, else the
        shortest cycle seen by a BFS from every vertex."""
        if not self.is_triangle_free():
            return 3
        best = INF
        for s in range(self.n):
            dist = [-1] * self.n
            parent = [-1] * self.n
            dist[s] = 0
            queue = [s]
            while queue:
                nxt = []
                for u in queue:
                    for w in iter_bits(self.adj[u]):
                        if dist[w] < 0:
                            dist[w] = dist[u] + 1
                            parent[w] = u
                            nxt.append(w)
                        elif w != parent[u]:
                            best = min(best, dist[u] + dist[w] + 1)
                queue = nxt
        return best

    def triangle(self) -> tuple[int, int, int] | None:
        """(u, v, w) for the first edge u-v whose ends share a neighbour w, else None."""
        adj = self.adj
        for u in range(self.n):
            for v in iter_bits(adj[u]):
                common = adj[u] & adj[v]
                if common:
                    return u, v, (common & -common).bit_length() - 1
        return None

    def is_triangle_free(self) -> bool:
        """No edge whose ends have a common neighbour."""
        return self.triangle() is None

    # -- shapes --------------------------------------------------------------

    def edge_count(self) -> int:
        return sum(self._degrees) // 2

    def is_null_graph(self) -> bool:
        return self.edge_count() == 0

    def is_complete_graph(self) -> bool:
        return self.n >= 1 and self.edge_count() == self.n * (self.n - 1) // 2

    def is_star_graph(self) -> bool:
        """One vertex adjacent to all others, no other edges; includes the
        two-vertex case.  That is the degree sequence n - 1 ones and n - 1."""
        n = self.n
        return n >= 2 and sorted(self._degrees) == [1] * (n - 1) + [n - 1]

    def classify_shape(self) -> GraphShape:
        """Priority at the overlapping small orders: null > complete > star."""
        if self.is_null_graph():
            return GraphShape("null", self.n)
        if self.is_complete_graph():
            return GraphShape("complete", self.n)
        if self.is_star_graph():
            return GraphShape("star", self.n)
        return GraphShape("other", self.n)

    # -- submodule-aware pieces ----------------------------------------------

    def vertex_is_simple(self, v: int) -> bool:
        return self.lattice.is_simple(v + 1)

    def vertex_is_uniform(self, v: int) -> bool:
        return self.lattice.is_uniform(v + 1)

    def simple_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.vertex_is_simple(v)]

    def overline(self, v: int) -> list[int]:
        """All vertices containing the simple vertex v, its up-set; always a clique."""
        if not self.vertex_is_simple(v):
            raise StructureError("overline is defined for simple vertices only")
        return list(iter_bits(self.vertices_of(self.lattice.above(v + 1))))

    def vertex_label(self, v: int) -> str:
        return self.lattice.describe(v + 1)

    # -- export ----------------------------------------------------------------

    def export(self, fmt: str) -> str:
        if fmt == "dot":
            lines = ["graph intersection {"]
            for v in range(self.n):
                lines.append(f'  v{v} [label="v{v} {self.vertex_label(v)} size={self.vertices[v].size}"];')
            for i, j in self.edges():
                lines.append(f"  v{i} -- v{j};")
            lines.append("}")
            return "\n".join(lines) + "\n"
        if fmt == "json":
            payload = {
                "order": self.n,
                "vertices": [
                    {
                        "id": f"v{v}",
                        "generators": [self.module.label(g) for g in self.lattice.gens(v + 1)],
                        "size": self.vertices[v].size,
                    }
                    for v in range(self.n)
                ],
                "edges": [[i, j] for i, j in self.edges()],
                "invariants": self.basic_invariants(),
            }
            return json.dumps(payload, sort_keys=True, indent=2) + "\n"
        raise ConstructionError(f"unknown export format {fmt!r}")

    def basic_invariants(self) -> dict:
        """The walk invariants, JSON-ready: an infinite diameter or girth reads "inf"."""
        walks = {"diameter": self.diameter(), "girth": self.girth()}
        return {
            "connected": self.is_connected(),
            "degrees": self.degrees(),
            **{key: "inf" if x == INF else int(x) for key, x in walks.items()},
            "shape": self.classify_shape().tag,
        }


def build_graph(lattice: Lattice) -> IntersectionGraph:
    return IntersectionGraph(lattice)


# -- structural socle gate ----------------------------------------------------


def homogeneous_socle_pair(lattice: Lattice) -> dict | None:
    """Detect Soc(M) = S + S' with S, S' isomorphic simples and Soc essential.

    Returns {socle, pair} as lattice indices, or None when the structure is
    absent.  This is the shared hypothesis of the clique/coloring statements.
    Two distinct atoms of a length-2 socle are a direct pair, and they are
    its only atoms unless they are isomorphic, so the first pair decides.
    """
    pair, soc = lattice.socle_pair, lattice.socle_index()
    if pair is None or not lattice.is_essential(soc) or lattice.hom_count(*pair) < 2:
        return None
    return {"socle": soc, "pair": pair}


def color_by_overline(graph: IntersectionGraph) -> Coloring | ApplicabilityFailure:
    """Structural coloring when the socle is a homogeneous direct pair.

    One maximal containment clique over a simple N gets distinct colors;
    every other simple reuses the colors of that clique outside the
    above-socle part.  Proper with clique-number many colors whenever the
    disjointness facts behind the scheme hold.
    """
    lat = graph.lattice
    structure = homogeneous_socle_pair(lat)
    if structure is None:
        raise StructureError("socle is not an essential homogeneous direct pair of simples")
    above = graph.vertices_of(lat.above(structure["socle"]))
    atom_vertices = graph.simple_vertices()
    over = {a: graph.overline(a) for a in atom_vertices}
    star = max(atom_vertices, key=lambda a: len(over[a]))
    colors = [-1] * graph.n
    for c, v in enumerate(over[star]):
        colors[v] = c
    pool = [colors[v] for v in over[star] if not above >> v & 1]
    for a in atom_vertices:
        if a == star:
            continue
        rest = [v for v in over[a] if not above >> v & 1]
        if len(rest) > len(pool):
            return ApplicabilityFailure(
                "containment clique larger than the chosen one",
                witness=graph.vertex_label(a),
            )
        for v, c in zip(rest, pool):
            colors[v] = c
    if any(c < 0 for c in colors):
        v = colors.index(-1)
        return ApplicabilityFailure("vertex not covered by any containment clique",
                                    witness=graph.vertex_label(v))
    if not is_proper_coloring(graph.n, graph.adj, colors):
        return ApplicabilityFailure("scheme produced an improper coloring")
    return Coloring(tuple(colors), len(over[star]), "overline")


def color_complement_by_uniform_clique(
    graph: IntersectionGraph,
) -> Coloring | ApplicabilityFailure:
    """Color the complement graph by least intersecting member of a maximal
    clique of uniform vertices (greedy in canonical order).

    Fails, with the witness vertex, when some vertex meets no clique member;
    statement checks must then fall back to the exact solvers.
    """
    clique: list[int] = []
    for v in range(graph.n):
        if graph.vertex_is_uniform(v) and all((graph.adj[u] >> v) & 1 for u in clique):
            clique.append(v)
    extra = {"clique": tuple(clique)}
    if graph.n == 0:
        return Coloring((), 0, "uniform-complement", extra)
    if not clique:
        return ApplicabilityFailure("no uniform vertices", extra=extra)
    raw = []
    for v in range(graph.n):
        hit = next((t for t, u in enumerate(clique) if u == v or graph.adj[u] >> v & 1), None)
        if hit is None:
            return ApplicabilityFailure(
                "vertex meets no member of the uniform clique",
                witness=graph.vertex_label(v),
                extra=extra,
            )
        raw.append(hit)
    used = sorted(set(raw))
    renum = {t: i for i, t in enumerate(used)}
    colors = [renum[t] for t in raw]
    if not is_proper_coloring(graph.n, graph.complement_adj(), colors):
        return ApplicabilityFailure("scheme produced an improper complement coloring", extra=extra)
    return Coloring(tuple(colors), len(used), "uniform-complement", extra)
