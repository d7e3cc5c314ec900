"""Exact clique and coloring solvers on bitset adjacency.

Graphs are given as (n, adj) where adj[v] is an int bitmask of neighbours.
All searches use fixed canonical orders, so witnesses are deterministic.
The maximum-clique search first renumbers the vertices by degree, highest
first with ties broken by index (the initial order of Tomita-Seki's MCQ),
and maps its witness back to the caller's numbering, sorted.  The
renumbering permutes each row as a bit string (format, pick, parse), so it
costs O(n) steps in C per row instead of one Python step per edge.  The
search keeps its frames on an explicit stack, so no Python recursion depth
grows with the clique.  The chromatic number takes its lower bound, a
clique, from the caller.  The exact solvers refuse graphs above a vertex
cap instead of silently approximating.
"""

from __future__ import annotations

from operator import itemgetter

from .caps import Caps
from .errors import CapExceeded, ConstructionError


def iter_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_cap(n: int, caps: Caps | None) -> None:
    cap = (caps or Caps()).max_exact_vertices
    if n > cap:
        raise CapExceeded(f"{n} vertices exceeds the exact-solver cap max_exact_vertices={cap}")


def by_degree(n: int, adj: list[int]) -> list[int]:
    """Vertices by degree descending, ties by index."""
    return sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))


def _renumbered(adj: list[int], order: list[int]) -> list[int]:
    """The rows of adj for the vertices in order, with vertex order[i]
    renamed i.  Each row is written as a bit string, permuted by one
    itemgetter call and parsed back."""
    n = len(order)
    # the string holds bit k at position n-1-k, highest bit first
    pick = itemgetter(*[n - 1 - u for u in reversed(order)])
    return [int("".join(pick(format(adj[v], f"0{n}b"))), 2) for v in order]


def max_clique(n: int, adj: list[int], caps: Caps | None = None) -> tuple[int, list[int]]:
    """Maximum clique by branch and bound with a greedy coloring bound, on
    the degree-ordered renumbering of the graph."""
    check_cap(n, caps)
    if n == 0:
        return 0, []
    orig = by_degree(n, adj)  # vertex i of the search is vertex orig[i]
    adj = _renumbered(adj, orig)
    best: list[int] = []

    def color_bound(cand: int) -> list[tuple[int, int]]:
        # greedy color classes; vertices emitted with their class number
        order = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                avail &= ~adj[v] & ~(1 << v)
                rest &= ~(1 << v)
        return order

    # one frame per vertex of the current clique, plus the root: the colored
    # candidates still to branch on (taken from the end) and the candidate set
    current: list[int] = []
    everything = (1 << n) - 1
    frames = [[color_bound(everything), everything]]
    while frames:
        frame = frames[-1]
        order, cand = frame
        # colors rise along the list, so once the last fails the bound, all do
        if order and len(current) + order[-1][1] > len(best):
            v, _ = order.pop()
            frame[1] = cand & ~(1 << v)
            current.append(v)
            sub = cand & adj[v]
            if sub:
                frames.append([color_bound(sub), sub])
                continue
            if len(current) > len(best):
                best = current[:]
            current.pop()
            continue
        frames.pop()
        if frames:
            current.pop()
    return len(best), sorted(orig[v] for v in best)


def max_cliques(n: int, adj: list[int], caps: Caps | None = None) -> list[list[int]]:
    """All maximal cliques (Bron-Kerbosch with pivot), sorted canonically."""
    check_cap(n, caps)
    out: list[list[int]] = []

    def bk(r: list[int], p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(sorted(r))
            return
        pux = p | x
        pivot = max(iter_bits(pux), key=lambda u: (p & adj[u]).bit_count())
        for v in iter_bits(p & ~adj[pivot]):
            r.append(v)
            bk(r, p & adj[v], x & adj[v])
            r.pop()
            p &= ~(1 << v)
            x |= 1 << v

    if n:
        bk([], (1 << n) - 1, 0)
    return sorted(out)


def greedy_coloring(n: int, adj: list[int]) -> list[int]:
    """First-fit colouring in index order: each vertex takes the least colour
    that no earlier neighbour has.  It is built one colour class at a time
    over bitsets, which gives the same colouring: class c takes, in index
    order, each vertex left by the earlier classes with no neighbour
    already in c."""
    colors = [-1] * n
    rest = (1 << n) - 1
    color = 0
    while rest:
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            colors[v] = color
            avail &= ~(adj[v] | low)
            rest ^= low
        color += 1
    return colors


def _colorable(n: int, adj: list[int], k: int) -> list[int] | None:
    """Backtracking k-colorability; first feasible assignment in search order.

    Symmetry is broken by allowing at most one brand-new color per vertex.
    """
    colors = [-1] * n
    order = by_degree(n, adj)  # high degree first, to fail fast

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        banned = {colors[u] for u in iter_bits(adj[v]) if colors[u] >= 0}
        limit = min(used + 1, k)
        for c in range(limit):
            if c in banned:
                continue
            colors[v] = c
            if place(i + 1, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    return colors if place(0, 0) else None


def chromatic_number(n: int, adj: list[int], clique: list[int], caps: Caps | None = None) -> tuple[int, list[int]]:
    """Exact chromatic number with a witness coloring.

    Seeded with the caller's clique (max_clique's witness skips every k below
    omega) as lower bound and the greedy upper bound, then k-colorability is
    decided for each k in between.  A list that is not a clique raises, and so
    does a greedy bound below it, which only an improper coloring could give.
    """
    check_cap(n, caps)
    mask = sum(1 << v for v in set(clique) if 0 <= v < n)  # fewer bits: a repeat or a stray vertex
    if mask.bit_count() != len(clique) or any((adj[v] | 1 << v) & mask != mask for v in clique):
        raise ConstructionError("lower bound is not a clique of the graph")
    if n == 0:
        return 0, []
    lower = len(clique)
    greedy = greedy_coloring(n, adj)
    upper = max(greedy) + 1
    if upper < lower:
        raise ConstructionError("solver inconsistency: omega > chi")
    if lower == upper:
        return upper, greedy
    for k in range(lower, upper):
        got = _colorable(n, adj, k)
        if got is not None:
            return k, got
    return upper, greedy


def is_proper_coloring(n: int, adj: list[int], colors: list[int]) -> bool:
    return all(colors[v] != colors[u] for v in range(n) for u in iter_bits(adj[v]) if u > v)
