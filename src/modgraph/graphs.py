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
of an atom, the vertices containing it, is its up-set, and meeting in 0 is
non-adjacency.  Walks run on the adjacency bitsets a whole frontier at a
time (one step ORs the masks of every frontier vertex), which gives
connectivity.
The diameter first tests "diameter <= 2" directly: for each vertex, OR the
rows of its neighbours, highest degree first, until every vertex is
reached; only when some vertex falls short (diameter >= 3, a disconnected
graph, or n <= 1) does it take the largest eccentricity.  Girth is 3 as
soon as a triangle exists, and only triangle-free graphs get a per-vertex
BFS.  omega and chi are solved once each, under the vertex cap, by the
branch-and-bound solvers, chi from the omega witness; omega_c = chi_c =
#atoms is a certificate checked on the complement rows, and no search.
The overline coloring trusts the overlines its caller verified; the
uniform-clique complement coloring reports an applicability failure in
place of an improper coloring.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

from .caps import Caps
from .errors import ConstructionError
from .lattice import Lattice
from .solvers import (
    by_degree,
    chromatic_number,
    is_proper_coloring,
    iter_bits,
    max_clique,
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
    tag: str  # exact | atom | overline | uniform-complement
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
        # a remembered answer still honours the caller's cap
        caps.check_vertices(self.n)
        if key not in self._solved:
            self._solved[key] = solve()
        return self._solved[key]

    def clique_number(self, caps: Caps = Caps()) -> tuple[int, list[int]]:
        return self._solve_once("omega", lambda: max_clique(self.n, self.adj, caps), caps)

    def chromatic(self, caps: Caps = Caps()) -> tuple[int, Coloring]:
        def solve():
            k, colors = chromatic_number(self.n, self.adj, self.clique_number(caps)[1], caps)
            return k, Coloring(tuple(colors), k, "exact")

        return self._solve_once("chi", solve, caps)

    @cached_property
    def _atom_certificate(self) -> tuple[list[int], Coloring]:
        """The atoms, as vertices, and each vertex colored by the first atom
        below it, both checked on the complement rows: omega_c = chi_c = #atoms.
        Distinct atoms meet in 0, so they are a clique of the complement.  Each
        vertex holds an atom, and two vertices of one color meet in theirs.
        A simple module has no vertex, and both are empty."""
        lat, comp = self.lattice, self.complement_adj()
        atoms = lat.atom_indices() if self.n else []
        colors, rest = [0] * self.n, (1 << self.n) - 1
        for c, over in enumerate(self.vertices_of(lat.above(a)) for a in atoms):
            for v in iter_bits(over & rest):
                colors[v] = c
            rest &= ~over
        clique = self.vertices_of(sum(1 << a for a in atoms))
        if any(clique & ~comp[a - 1] & ~(1 << a - 1) for a in atoms) or not is_proper_coloring(self.n, comp, colors):
            raise ConstructionError("the atoms are not a clique, or not a proper coloring, of the complement")
        return [a - 1 for a in atoms], Coloring(tuple(colors), len(atoms), "atom")

    def complement_clique_number(self, caps: Caps = Caps()) -> tuple[int, list[int]]:
        """omega_c and the atoms; caps is unused, as the certificate is no search."""
        atoms, _ = self._atom_certificate
        return len(atoms), atoms

    def complement_chromatic(self, caps: Caps = Caps()) -> tuple[int, Coloring]:
        """chi_c and the first-atom coloring; caps is unused, as for omega_c."""
        _, coloring = self._atom_certificate
        return coloring.count, coloring

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


def homogeneous_socle_pair(lattice: Lattice) -> int | None:
    """Detect Soc(M) = S + S' with S, S' isomorphic simples and Soc essential.

    Returns the socle's lattice index, or None when the structure is absent.
    This is the shared hypothesis of the clique/coloring statements.  Two
    distinct atoms of a length-2 socle are a direct pair, and they are its
    only atoms unless they are isomorphic, so the first pair decides.
    """
    pair, soc = lattice.socle_pair, lattice.socle_index()
    if pair is None or not lattice.is_essential(soc) or lattice.hom_count(*pair) < 2:
        return None
    return soc


def color_by_overline(graph: IntersectionGraph, overlines: list[int], socle: int) -> Coloring:
    """Color by the overlines (vertex bitsets) of a homogeneous socle pair:
    the largest gets distinct colors, and each other overline reuses, in
    vertex order, its colors outside the socle's up-set, which all overlines
    share.  Proper, with as many colors as the largest overline has vertices,
    for the overlines checks._overline_cliques verifies; callers check it."""
    above = graph.vertices_of(graph.lattice.above(socle))
    star = max(overlines, key=int.bit_count)
    colors = [-1] * graph.n
    for c, v in enumerate(iter_bits(star)):
        colors[v] = c
    pool = [colors[v] for v in iter_bits(star & ~above)]
    for over in overlines:
        for v, c in zip(iter_bits(over & ~above), pool):
            colors[v] = c
    return Coloring(tuple(colors), star.bit_count(), "overline")


def color_complement_by_uniform_clique(graph: IntersectionGraph) -> Coloring | ApplicabilityFailure:
    """Color the complement by least intersecting member of the greedy clique
    of uniform vertices, read off the first atom: vertex 0, a smallest
    nonzero submodule, is an atom a.  A uniform vertex meets a only by
    containing it, so the clique is the uniform vertices above a, and a
    vertex meets a member exactly when it contains a.  So the vertices above
    a take one color, and the scheme fails at the first vertex not above a."""
    if graph.n == 0:  # a simple or zero module
        return Coloring((), 0, "uniform-complement", {"clique": ()})
    above = graph.vertices_of(graph.lattice.above(1))
    extra = {"clique": tuple(v for v in iter_bits(above) if graph.vertex_is_uniform(v))}
    missed = (1 << graph.n) - 1 & ~above
    if missed:
        witness = graph.vertex_label((missed & -missed).bit_length() - 1)
        return ApplicabilityFailure("vertex meets no member of the uniform clique", witness, extra)
    colors = (0,) * graph.n
    if not is_proper_coloring(graph.n, graph.complement_adj(), colors):
        return ApplicabilityFailure("scheme produced an improper complement coloring", extra=extra)
    return Coloring(colors, 1, "uniform-complement", extra)
