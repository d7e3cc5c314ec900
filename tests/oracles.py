"""Independent brute-force oracles the fast implementations are tested against.

Everything here is deliberately naive pure Python: fixpoint loops instead of
frontier bitsets, full subset scans instead of branch and bound.  Keep it
that way; the value of these functions is that they share no code with the
package.
"""

from itertools import combinations, product


def naive_closure(module, seed):
    """Fixpoint closure under addition and ring action, by repeated scans."""
    current = set(int(x) for x in seed) | {0}
    while True:
        nxt = set(current)
        for x in current:
            for y in current:
                nxt.add(int(module.add[x, y]))
            for r in range(module.ring.size):
                nxt.add(int(module.act[r, x]))
        if nxt == current:
            return frozenset(current)
        current = nxt


def _is_closed(module, members):
    s = set(members)
    for x in members:
        for y in members:
            if int(module.add[x, y]) not in s:
                return False
        for r in range(module.ring.size):
            if int(module.act[r, x]) not in s:
                return False
    return True


def brute_submodules_subsets(module):
    """All submodules by scanning every subset containing 0 (carrier <= 16)."""
    m = module.size
    assert m <= 16, "literal subset scan is limited to carriers <= 16"
    out = []
    for mask in range(1, 1 << m, 2):
        members = [i for i in range(m) if (mask >> i) & 1]
        if _is_closed(module, members):
            out.append(tuple(members))
    return sorted(out, key=lambda t: (len(t), t))


def brute_submodules_grow(module):
    """All submodules by closing one extra element at a time from {0}.

    Every submodule K is reached: adding elements of K one by one walks a
    strictly increasing chain of submodules inside K.
    """
    start = naive_closure(module, [])
    found = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for h in frontier:
            for x in range(module.size):
                if x in h:
                    continue
                c = naive_closure(module, set(h) | {x})
                if c not in found:
                    found.add(c)
                    fresh.append(c)
        frontier = fresh
    return sorted((tuple(sorted(h)) for h in found), key=lambda t: (len(t), t))


def brute_max_clique(n, adj):
    best = ()
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            if all((adj[u] >> v) & 1 for u, v in combinations(combo, 2)):
                return size, list(combo)
    return 0, []


def brute_maximal_cliques(n, adj):
    cliques = []
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            if all((adj[u] >> v) & 1 for u, v in combinations(combo, 2)):
                cliques.append(set(combo))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(sorted(c) for c in maximal)


def brute_chromatic(n, adj):
    if n == 0:
        return 0

    def colorable(k):
        colors = [-1] * n

        def go(v):
            if v == n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in range(n) if (adj[v] >> u) & 1):
                    colors[v] = c
                    if go(v + 1):
                        return True
                    colors[v] = -1
            return False

        return go(0)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    return n


def brute_first_fit(n, adj):
    """First-fit colouring in index order: each vertex, one at a time, takes
    the least colour that none of its earlier neighbours has."""
    colors = []
    for v in range(n):
        used = {colors[u] for u in range(v) if (adj[v] >> u) & 1}
        c = 0
        while c in used:
            c += 1
        colors.append(c)
    return colors


def brute_is_proper(n, adj, colors):
    """No edge joins two vertices of one colour, by a scan over all vertex pairs."""
    return all(colors[u] != colors[v] for u, v in combinations(range(n), 2) if (adj[u] >> v) & 1)


def brute_subspaces(q, n):
    """Every subspace of F_q^n (q prime), as a frozenset of coordinate
    tuples, grown from {0} by spanning one more vector at a time."""
    vectors = list(product(range(q), repeat=n))
    start = frozenset([(0,) * n])
    found = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for s in frontier:
            for v in vectors:
                if v in s:
                    continue
                t = frozenset(tuple((a + c * b) % q for a, b in zip(x, v)) for x in s for c in range(q))
                if t not in found:
                    found.add(t)
                    fresh.append(t)
        frontier = fresh
    return found


def subspace_clique(q, n):
    """Proper subspaces of F_q^n that meet pairwise beyond 0: every one of
    dimension > n/2 and, for even n, every one of dimension n/2 through the
    line of (1, 0, ..., 0).  A lower-bound witness for the clique number of
    the intersection graph, not an upper bound."""
    line = frozenset((c,) + (0,) * (n - 1) for c in range(q))
    return [
        s for s in brute_subspaces(q, n)
        if len(s) < q ** n and (len(s) ** 2 > q ** n or (len(s) ** 2 == q ** n and line <= s))
    ]


def gaussian_binomial(n, k, q):
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(d, q):
    return sum(gaussian_binomial(d, k, q) for k in range(d + 1))


def _conjugate(parts):
    """Conjugate partition: entry i counts the parts larger than i."""
    return [sum(1 for x in parts if x > i) for i in range(max(parts, default=0))]


def _partitions_inside(mu, cap=None):
    """Every partition nu with nu_i <= mu_i for all i (nu padded with zeros)."""
    if not mu:
        yield ()
        return
    top = mu[0] if cap is None else min(mu[0], cap)
    for first in range(top, -1, -1):
        for rest in _partitions_inside(mu[1:], first):
            yield (first,) + rest


def abelian_p_group_subgroup_count(p, mu):
    """Number of subgroups of the abelian p-group Z/p^mu_1 x Z/p^mu_2 x ...,
    by Birkhoff's formula (Butler, Subgroup lattices and symmetric
    functions, Mem. AMS 1994): the subgroups of type nu number
    prod_i p^(nu'_(i+1) (mu'_i - nu'_i)) [mu'_i - nu'_(i+1), nu'_i - nu'_(i+1)]_p,
    with ' the conjugate partition, summed over every nu inside mu."""
    mu = sorted(mu, reverse=True)
    mu_c = _conjugate(mu)
    total = 0
    for nu in _partitions_inside(mu):
        nu_c = _conjugate(nu)
        nu_c += [0] * (len(mu_c) + 1 - len(nu_c))
        term = 1
        for i, a in enumerate(mu_c):
            b, c = nu_c[i], nu_c[i + 1]
            term *= p ** (c * (a - b)) * gaussian_binomial(a - c, b - c, p)
        total += term
    return total


def brute_goldie(lattice):
    """Largest direct family of nonzero submodules, by exhaustive extension.

    A family is direct iff each member meets the sum of the earlier ones
    trivially, in any fixed order, so scanning in canonical order is enough.
    """
    subs = lattice.subs
    nonzero = [i for i in range(len(subs)) if subs[i].size > 1]

    def extend(acc_idx, start, depth):
        best = depth
        for pos in range(start, len(nonzero)):
            idx = nonzero[pos]
            if subs[idx].bits & subs[acc_idx].bits == 1:
                best = max(best, extend(lattice.join_index(acc_idx, idx), pos + 1, depth + 1))
        return best

    return extend(lattice.zero_index, 0, 0)


def brute_endomorphism_count(sub):
    """#End of a simple submodule by checking every candidate map completely."""
    module = sub.module
    members = sub.members
    gen = next(x for x in members if x)
    count = 0
    for target in members:
        # phi(r*gen) = r*target must be a well defined additive, action
        # compatible map; verify on the whole carrier
        image = {}
        ok = True
        for r in range(module.ring.size):
            src = int(module.act[r, gen])
            dst = int(module.act[r, target])
            if src in image and image[src] != dst:
                ok = False
                break
            image[src] = dst
        if not ok or set(image) != set(members):
            continue
        for x in members:
            for y in members:
                if image[int(module.add[x, y])] != int(module.add[image[x], image[y]]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def brute_hom_count(s, t):
    """#Hom(S, T) for a cyclic submodule S and a submodule T over one ring:
    for a generator x of S, the number of t in T for which r*x -> r*t is
    well defined.  Each such map is additive and R-linear, and each hom is
    one of them, fixed by the image of x."""
    ring_size = s.module.ring.size
    act_s, act_t = s.module.act, t.module.act
    x = next(x for x in s.members if {int(act_s[r, x]) for r in range(ring_size)} == set(s.members))
    count = 0
    for y in t.members:
        image = {}
        for r in range(ring_size):
            src, dst = int(act_s[r, x]), int(act_t[r, y])
            if image.setdefault(src, dst) != dst:
                break
        else:
            count += 1
    return count


def brute_girth(n, adj):
    """Shortest cycle by DFS over simple paths (small graphs only)."""
    best = [float("inf")]

    def dfs(start, v, visited, length):
        for u in range(n):
            if not (adj[v] >> u) & 1:
                continue
            if u == start and length >= 2:
                best[0] = min(best[0], length + 1)
            elif u not in visited and length + 1 < best[0]:
                visited.add(u)
                dfs(start, u, visited, length + 1)
                visited.remove(u)

    for s in range(n):
        dfs(s, s, {s}, 0)
    return best[0]


def brute_distances(n, adj):
    """All-pairs shortest path lengths by Floyd-Warshall; inf when unreachable."""
    inf = float("inf")
    dist = [[0 if u == v else 1 if (adj[u] >> v) & 1 else inf for v in range(n)] for u in range(n)]
    for w in range(n):
        for u in range(n):
            for v in range(n):
                if dist[u][w] + dist[w][v] < dist[u][v]:
                    dist[u][v] = dist[u][w] + dist[w][v]
    return dist


def brute_covers(subsets):
    """Cover pairs (i, j) of a family of member tuples: subsets[i] is a proper
    subset of subsets[j] and no member of the family lies strictly between."""
    sets = [frozenset(s) for s in subsets]
    return sorted(
        (i, j)
        for i, a in enumerate(sets)
        for j, b in enumerate(sets)
        if a < b and not any(a < c < b for c in sets)
    )


def brute_longest_chain(subsets, lo, hi):
    """Longest strictly increasing chain from subsets[lo] to subsets[hi], by
    trying every member of the family as the next step."""
    sets = [frozenset(s) for s in subsets]

    def longest(i):
        if sets[i] == sets[hi]:
            return 0
        steps = [longest(j) for j in range(len(sets)) if sets[i] < sets[j] <= sets[hi]]
        return 1 + max(steps)

    return longest(lo)


def brute_order(subsets):
    """Order kernel of a family of member tuples as bitsets over family
    indices: (down, up, lower, upper, heights).  down[i] and up[i] hold the
    members below and above i, i included, by pairwise subset tests; lower
    and upper hold the covers found by brute_covers; heights[i] is the
    longest strictly increasing chain from the least member up to i."""
    sets = [frozenset(s) for s in subsets]
    idx = range(len(sets))
    down = [sum(1 << j for j in idx if sets[j] <= sets[i]) for i in idx]
    up = [sum(1 << j for j in idx if sets[i] <= sets[j]) for i in idx]
    covers = brute_covers(subsets)
    lower = [sum(1 << i for i, k in covers if k == j) for j in idx]
    upper = [sum(1 << j for k, j in covers if k == i) for i in idx]
    heights = {}
    for i in sorted(idx, key=lambda i: len(sets[i])):
        heights[i] = max((heights[j] + 1 for j in idx if sets[j] < sets[i]), default=0)
    return down, up, lower, upper, [heights[i] for i in idx]


def _rows(table):
    return [[int(v) for v in row] for row in table]


def _abelian_group(add, n):
    """0 is the identity of a commutative, associative + with inverses."""
    els = range(n)
    return (
        all(add[0][x] == x and add[x][0] == x for x in els)
        and all(add[x][y] == add[y][x] for x in els for y in els)
        and all(0 in add[x] for x in els)
        and all(add[add[x][y]][z] == add[x][add[y][z]] for x in els for y in els for z in els)
    )


def brute_is_ring(add, mul):
    """Every unital ring axiom on element-indexed tables, by O(n^3) scans."""
    add, mul = _rows(add), _rows(mul)
    n = len(add)
    els = range(n)
    if n < 2 or any(len(t) != n or any(len(r) != n or not all(0 <= v < n for v in r) for r in t) for t in (add, mul)):
        return False
    return (
        _abelian_group(add, n)
        and all(mul[1][x] == x and mul[x][1] == x for x in els)
        and all(
            mul[mul[x][y]][z] == mul[x][mul[y][z]]
            and mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
            and mul[add[x][y]][z] == add[mul[x][z]][mul[y][z]]
            for x in els for y in els for z in els
        )
    )


def brute_is_module(add, act, radd, rmul):
    """Every unital left-module axiom of (add, act) over the ring (radd, rmul),
    by scans over all triples; the ring itself is assumed."""
    add, act, radd, rmul = _rows(add), _rows(act), _rows(radd), _rows(rmul)
    m, n = len(add), len(radd)
    els, ring = range(m), range(n)
    if any(len(r) != m or not all(0 <= v < m for v in r) for r in add + act) or len(act) != n:
        return False
    return (
        _abelian_group(add, m)
        and all(act[1][x] == x for x in els)
        and all(act[r][add[x][y]] == add[act[r][x]][act[r][y]] for r in ring for x in els for y in els)
        and all(
            act[radd[r][s]][x] == add[act[r][x]][act[s][x]] and act[rmul[r][s]][x] == act[r][act[s][x]]
            for r in ring for s in ring for x in els
        )
    )


def brute_socle_pair(subsets):
    """The first direct pair of atoms joining to the socle, when the socle
    has composition length 2; None otherwise.  subsets is every submodule,
    as member tuples in canonical order.  The socle is the least member
    containing every atom; a join is the least member containing both."""
    sets = [frozenset(s) for s in subsets]
    zero = sets.index(min(sets, key=len))

    def least_above(union):
        return min((i for i, s in enumerate(sets) if union <= s), key=lambda i: len(sets[i]))

    atoms = [i for i, a in enumerate(sets) if sets[zero] < a and not any(sets[zero] < c < a for c in sets)]
    socle = least_above(frozenset().union(sets[zero], *(sets[i] for i in atoms)))
    if brute_longest_chain(subsets, zero, socle) != 2:
        return None
    for a, b in combinations(atoms, 2):
        if sets[a] & sets[b] == sets[zero] and least_above(sets[a] | sets[b]) == socle:
            return a, b
    return None


def brute_greedy_generators(module, members):
    """Greedy generator list of the submodule with these members: each
    generator is the smallest member outside the closure of the earlier ones,
    which is recomputed from scratch after every pick."""
    gens = []
    span = naive_closure(module, [])
    for x in sorted(int(m) for m in members):
        if x not in span:
            gens.append(x)
            span = naive_closure(module, gens)
    return tuple(gens)


def brute_additive_closure(add, seed):
    """The least set holding 0 and seed that the table add closes, as a
    fixpoint of all pairwise sums."""
    add = _rows(add)
    closure = {0, *seed}
    while True:
        sums = {add[a][b] for a in closure for b in closure}
        if sums <= closure:
            return closure
        closure |= sums


def brute_ideal_product(add, mul, a, b):
    """The product of two ideals given by their members: the sums of the
    products x*y, x in a and y in b, as a fixpoint of adding one more
    product.  add and mul are indexed [x][y]; lists of rows are fastest."""
    products = {int(mul[x][y]) for x in a for y in b}
    closure = {0}
    while True:
        sums = closure | {int(add[c][p]) for c in closure for p in products}
        if sums == closure:
            return closure
        closure = sums


def brute_additive_generators(add):
    """Greedy generators of the table add: each is the least element outside
    the closure of 0 and the earlier ones, recomputed from scratch."""
    gens, closure = [], {0}
    for x in range(len(add)):
        if x not in closure:
            gens.append(x)
            closure = brute_additive_closure(add, gens)
    return tuple(gens)


def brute_adjacency(vertices):
    """Adjacency bitsets of the intersection graph on the given member
    tuples, by testing every ordered pair: i and j are adjacent when they
    share an element other than 0."""
    sets = [frozenset(v) - {0} for v in vertices]
    adj = [0] * len(sets)
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a & b:
                adj[i] |= 1 << j
    return adj


def brute_is_star(n, adj):
    """Is the graph a star: at least two vertices, one of them (the centre)
    adjacent to every other, and no edge between two others?  Tests every
    candidate centre against every pair."""
    for c in range(n):
        others = [v for v in range(n) if v != c]
        if all((adj[c] >> v) & 1 for v in others) and not any(
            (adj[u] >> v) & 1 for u, v in combinations(others, 2)
        ):
            return n >= 2
    return False


def brute_poly_quot_tables(p, variables, relations):
    """Addition and multiplication tables of F_p[variables]/(relations), the
    relations being monomials such as "x^2" or "x*y".  The basis is every
    monomial no relation divides, ordered by degree and then exponents;
    element i has the base-p digits of i as its coefficients, lowest first.
    Products are multiplied out term by term as coefficient dictionaries."""

    def exponents(word):
        expo = [0] * len(variables)
        for factor in word.split("*"):
            name, _, power = factor.partition("^")
            expo[variables.index(name)] += int(power or 1)
        return tuple(expo)

    gens = [exponents(r) for r in relations]

    def vanishes(mono):
        return any(all(a >= b for a, b in zip(mono, g)) for g in gens)

    top = max(max(g) for g in gens)
    basis = sorted(
        (mono for mono in product(range(top + 1), repeat=len(variables)) if not vanishes(mono)),
        key=lambda mono: (sum(mono), mono),
    )
    n = p ** len(basis)

    def poly(i):
        return {mono: i // p**t % p for t, mono in enumerate(basis) if i // p**t % p}

    def index(coef):
        return sum(coef.get(mono, 0) % p * p**t for t, mono in enumerate(basis))

    polys = [poly(i) for i in range(n)]
    add = [[index({m: a.get(m, 0) + b.get(m, 0) for m in basis}) for b in polys] for a in polys]
    mul = []
    for a in polys:
        row = []
        for b in polys:
            coef = {}
            for ma, ca in a.items():
                for mb, cb in b.items():
                    mono = tuple(x + y for x, y in zip(ma, mb))
                    if not vanishes(mono):
                        coef[mono] = coef.get(mono, 0) + ca * cb
            row.append(index(coef))
        mul.append(row)
    return add, mul


def brute_residue_is_division(add, mul, ideal):
    """Is R/J a division ring, J given by its members?  Every r outside J
    must have some s with s*r - 1 in J, that is s*r in 1 + J."""
    add, mul = _rows(add), _rows(mul)
    inside = set(ideal)
    one_plus = {add[1][j] for j in inside}
    return all(
        any(mul[s][r] in one_plus for s in range(len(mul)))
        for r in range(len(mul)) if r not in inside
    )


def brute_gf_tables(p, modulus):
    """Addition and multiplication tables of F_p[x]/(modulus), the modulus a
    monic polynomial given by its coefficients, lowest first.  Element i has
    the base-p digits of i as its coefficients, lowest first.  Products are
    plain polynomial products, reduced by long division."""
    k = len(modulus) - 1
    n = p**k

    def coeffs(i):
        return [i // p**t % p for t in range(k)]

    def index(c):
        return sum(c[t] % p * p**t for t in range(k))

    def reduce(c):
        c = list(c)
        for e in range(len(c) - 1, k - 1, -1):
            lead = c[e]
            for t in range(k + 1):
                c[e - k + t] -= lead * modulus[t]
        return c[:k]

    polys = [coeffs(i) for i in range(n)]
    add = [[index([x + y for x, y in zip(a, b)]) for b in polys] for a in polys]
    mul = []
    for a in polys:
        row = []
        for b in polys:
            prod = [0] * (2 * k - 1)
            for s, x in enumerate(a):
                for t, y in enumerate(b):
                    prod[s + t] += x * y
            row.append(index(reduce(prod)))
        mul.append(row)
    return add, mul


def brute_subfield_image(add, mul, p, sub_modulus):
    """The image of F_p[y]/(sub_modulus) in the field with tables add, mul:
    y goes to the smallest-index root of sub_modulus, found by evaluating it
    at every element in turn, and sum_t c_t y^t to sum_t c_t root^t, the
    constant c_t being element c_t of the field."""
    add, mul = _rows(add), _rows(mul)
    j = len(sub_modulus) - 1

    def evaluate(coeffs, x):
        total, power = 0, 1
        for c in coeffs:
            total = add[total][mul[c][power]]
            power = mul[power][x]
        return total

    root = next(x for x in range(len(add)) if evaluate(sub_modulus, x) == 0)
    return [evaluate([i // p**t % p for t in range(j)], root) for i in range(p**j)]
