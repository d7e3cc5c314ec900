"""Exact clique and coloring solvers on bitset adjacency.

Graphs are given as (n, adj) where adj[v] is an int bitmask of neighbours.
All searches use fixed canonical orders, so witnesses are deterministic.
Both exact solvers try a certificate before they search: a clique and a
proper colouring of the same size prove omega and chi at once.

The maximum-clique search renumbers the vertices by degree, highest first
with ties broken by index (the initial order of Tomita-Seki's MCQ), as one
permutation of the adjacency bit matrix in numpy, and maps its witness back
to the caller's numbering, sorted.  Its incumbent starts as the greedy
clique in that order, so when the root's colour bound meets it the search
ends at the root.  The chromatic number takes its lower bound, a clique,
from the caller.  Its upper bound is the best of three heuristic colourings
(first-fit in index order, first-fit in degree order, RLF), each checked
proper by a bitset class test; it backtracks only for the k between the
two.  The clique bound and both first-fit colourings come from one
class-by-class loop, `greedy_classes`.  Every search (max_clique,
max_cliques, _colorable) keeps its frames on an explicit stack, so no
Python recursion depth grows with the graph.  The exact solvers refuse
graphs above the caller's vertex cap (`Caps.check_vertices`) before they
start, instead of silently approximating.
"""

from __future__ import annotations

import numpy as np

from .caps import Caps
from .errors import ConstructionError


def iter_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def by_degree(n: int, adj: list[int]) -> list[int]:
    """Vertices by degree descending, ties by index."""
    return sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))


def _renumbered(adj: list[int], order: list[int]) -> list[int]:
    """The rows of adj for the vertices in order, with vertex order[i]
    renamed i: one permutation of the rows and columns of the bit matrix."""
    n = len(order)
    width = (n + 7) // 8
    raw = b"".join(adj[v].to_bytes(width, "little") for v in order)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(n, width), axis=1, count=n, bitorder="little")
    packed = np.packbits(bits[:, order], axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i * width:(i + 1) * width], "little") for i in range(n)]


def greedy_classes(adj: list[int], cand: int) -> list[tuple[int, int]]:
    """First-fit colouring of the vertices of cand (each takes, in index
    order, the least colour no earlier neighbour has), built one class at a
    time: class c takes, in index order, each vertex left by the earlier
    classes with no neighbour already in c.  Returns the (vertex, c) pairs
    in the order taken, so colours rise along the list."""
    order = []
    color = 0
    rest = cand
    while rest:
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append((v, color))
            avail &= ~(adj[v] | low)
            rest ^= low
        color += 1
    return order


def max_clique(n: int, adj: list[int], caps: Caps = Caps()) -> tuple[int, list[int]]:
    """Maximum clique by branch and bound with a greedy coloring bound, on
    the degree-ordered renumbering of the graph, from a greedy incumbent."""
    caps.check_vertices(n)
    if n == 0:
        return 0, []
    orig = by_degree(n, adj)  # vertex i of the search is vertex orig[i]
    adj = _renumbered(adj, orig)
    best: list[int] = []
    cand = everything = (1 << n) - 1
    while cand:  # the greedy clique: highest degree first among the common neighbours
        v = (cand & -cand).bit_length() - 1
        best.append(v)
        cand &= adj[v]

    # one frame per vertex of the current clique, plus the root: the colored
    # candidates still to branch on (taken from the end) and the candidate set
    current: list[int] = []
    frames = [[greedy_classes(adj, everything), everything]]
    while frames:
        frame = frames[-1]
        order, cand = frame
        # a clique among the candidates of colour <= c has at most c + 1 of
        # them; colors rise along the list, so once the last fails the bound, all do
        if order and len(current) + order[-1][1] >= len(best):
            v, _ = order.pop()
            frame[1] = cand & ~(1 << v)
            current.append(v)
            sub = cand & adj[v]
            if sub:
                frames.append([greedy_classes(adj, sub), sub])
                continue
            if len(current) > len(best):
                best = current[:]
            current.pop()
            continue
        frames.pop()
        if frames:
            current.pop()
    return len(best), sorted(orig[v] for v in best)


def max_cliques(n: int, adj: list[int], caps: Caps = Caps()) -> list[list[int]]:
    """All maximal cliques (Bron-Kerbosch with pivot), sorted canonically.
    The search keeps one frame per clique vertex on an explicit stack."""
    caps.check_vertices(n)
    out: list[list[int]] = []

    def frame(r: list[int], p: int, x: int) -> list | None:
        if p == 0 and x == 0:
            out.append(sorted(r))
            return None
        pivot = max(iter_bits(p | x), key=lambda u: (p & adj[u]).bit_count())
        return [r, p, x, p & ~adj[pivot]]  # the last entry: vertices still to branch on

    frames = [frame([], (1 << n) - 1, 0)] if n else []
    while frames:
        top = frames[-1]
        r, p, x, todo = top
        if not todo:
            frames.pop()
            continue
        low = todo & -todo
        v = low.bit_length() - 1
        top[1:] = p & ~low, x | low, todo ^ low
        child = frame(r + [v], p & adj[v], x & adj[v])
        if child:
            frames.append(child)
    return sorted(out)


def greedy_coloring(n: int, adj: list[int]) -> list[int]:
    """First-fit colouring in index order, as a colour per vertex."""
    colors = [0] * n
    for v, c in greedy_classes(adj, (1 << n) - 1):
        colors[v] = c
    return colors


def _first_fit_by_degree(n: int, adj: list[int]) -> list[int]:
    """First-fit colouring in by_degree order, read back to the caller's numbering."""
    order = by_degree(n, adj)
    colors = [0] * n
    for v, c in zip(order, greedy_coloring(n, _renumbered(adj, order))):
        colors[v] = c
    return colors


def rlf_coloring(n: int, adj: list[int]) -> list[int]:
    """Recursive largest first (Leighton 1979), one colour class at a time.
    A class starts at the uncoloured vertex with the most uncoloured
    neighbours; it then takes, among the vertices it may still take, the one
    with the most neighbours already shut out of the class, ties by fewest
    neighbours it may still take, then by index."""
    colors = [-1] * n
    rest = (1 << n) - 1
    color = 0
    while rest:
        free, shut = rest, 0  # may still join the class; adjacent to the class
        v = max(iter_bits(rest), key=lambda u: (adj[u] & rest).bit_count())
        while True:
            colors[v] = color
            rest ^= 1 << v
            shut |= adj[v] & free
            free &= ~(adj[v] | 1 << v)
            if not free:
                break
            v = max(iter_bits(free), key=lambda u: ((adj[u] & shut).bit_count(), -(adj[u] & free).bit_count()))
        color += 1
    return colors


def _colorable(n: int, adj: list[int], k: int) -> list[int] | None:
    """Backtracking k-colorability; first feasible assignment in search order.

    Vertices are placed in by_degree order (high degree first, to fail fast)
    on an explicit stack, and symmetry is broken by allowing at most one
    brand-new color per vertex.
    """
    colors = [-1] * n
    classes = [0] * k
    order = by_degree(n, adj)
    used = [0] * (n + 1)  # used[i]: colours in use before order[i] is placed
    i = 0
    while 0 <= i < n:
        v = order[i]
        c = colors[v]
        if c >= 0:  # back from a dead end: take v out of its colour
            classes[c] ^= 1 << v
        c += 1
        limit = min(used[i] + 1, k)
        while c < limit and classes[c] & adj[v]:
            c += 1
        if c < limit:
            colors[v] = c
            classes[c] |= 1 << v
            used[i + 1] = max(used[i], c + 1)
            i += 1
        else:
            colors[v] = -1
            i -= 1
    return colors if i == n else None


def chromatic_number(n: int, adj: list[int], clique: list[int], caps: Caps = Caps()) -> tuple[int, list[int]]:
    """Exact chromatic number with a witness coloring.

    The caller's clique (max_clique's witness skips every k below omega) is
    the lower bound.  The heuristic colourings (index first-fit, degree-order
    first-fit, RLF) are tried in turn, each checked proper; the first that
    meets the clique certifies chi with no search.  Otherwise the fewest
    colours among them is the upper bound, and k-colorability is decided for
    each k in between.  A list that is not a clique raises, and so does an
    improper candidate colouring.
    """
    caps.check_vertices(n)
    mask = sum(1 << v for v in set(clique) if 0 <= v < n)  # fewer bits: a repeat or a stray vertex
    if mask.bit_count() != len(clique) or any((adj[v] | 1 << v) & mask != mask for v in clique):
        raise ConstructionError("lower bound is not a clique of the graph")
    if n == 0:
        return 0, []
    lower = len(clique)
    best: list[int] = []
    for heuristic in (greedy_coloring, _first_fit_by_degree, rlf_coloring):
        colors = heuristic(n, adj)
        if not is_proper_coloring(n, adj, colors):
            raise ConstructionError("solver inconsistency: improper heuristic coloring")
        if max(colors) + 1 == lower:
            return lower, colors
        best = min(best or colors, colors, key=max)
    upper = max(best) + 1
    for k in range(lower, upper):
        got = _colorable(n, adj, k)
        if got is not None:
            return k, got
    return upper, best


def is_proper_coloring(n: int, adj: list[int], colors: list[int]) -> bool:
    """No edge inside a colour class: each vertex's row misses its own class."""
    classes: dict[int, int] = {}
    for v in range(n):
        classes[colors[v]] = classes.get(colors[v], 0) | 1 << v
    return all(not adj[v] & classes[colors[v]] for v in range(n))
