"""Finite unital rings as element-indexed operation tables.

Every ring, however it was built, is reduced to the same semantic model:
index 0 is the additive zero, index 1 the unity, and two n x n tables give
addition and multiplication.  Structured builders (matrix, triangular,
product, polynomial quotient) produce tables identical to naive arithmetic
on the structured elements and then renumber so zero/one land on 0/1.
GF(p^k), M_m(GF(p^k)) and F_p[vars]/(monomials) are tabulated as F_p-algebras
from their structure constants (`fields.algebra_tables`).  The builders over
GF(p^k) take p and k and refuse a ring past the cap before the modulus is
sought or any table formed.

Ring and module axioms are verified exactly at construction, at every size,
by one O(n^2 log n) check over additive generators (`module_laws_hold`).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .caps import Caps
from .errors import ConstructionError
from .fields import (
    algebra_tables,
    field_size,
    gf_constants,
    gf_labels,
    gf_tables,
    is_prime,
    subfield_image,
)

TABLE_DTYPE = np.int16


def frozen_table(table: np.ndarray, bound: int) -> np.ndarray:
    """`table` as a read-only C-contiguous TABLE_DTYPE array whose entries
    lie in [0, bound), checked before the cast so that no entry wraps.  A
    read-only array already in that form is shared; a writable one is
    copied, so the caller's own array is never frozen."""
    if table.size and (table.min() < 0 or table.max() >= bound):
        raise ConstructionError("table entry out of range")
    out = np.ascontiguousarray(table, dtype=TABLE_DTYPE)
    if out.flags.writeable and np.may_share_memory(out, table):
        out = out.copy()
    out.flags.writeable = False
    return out


def _additive_generators(add: np.ndarray) -> np.ndarray:
    """Greedy generators of the table `add`: each is the first element outside
    the span of {0} and those before it.  A new generator g extends the span
    S to the sums of S and the multiples g, g+g, ... of g, read off column g
    up to the first multiple in S, in one gather.

    Every sum so marked lies in the closure of the generators under +, and
    each round marks g at least, so for any table the list ends, and the
    generators generate the table.  With + associative and commutative, 0
    its identity and inverses present (callers check all but associativity
    first), S + <g> is that closure, so the generators are the greedy ones."""
    n = add.shape[0]
    in_set = np.zeros(n, dtype=bool)
    in_set[0] = True
    gens, spanned = [], 1
    while spanned < n:
        g = int(in_set.argmin())
        gens.append(g)
        column, multiples, y = add[:, g].tolist(), [], g
        while not in_set[y] and len(multiples) < n:  # bounded, as a bad + may cycle outside S
            multiples.append(y)
            y = column[y]
        in_set[add[multiples][:, in_set]] = True
        spanned = np.count_nonzero(in_set)
    return np.array(gens, dtype=np.intp)


def module_laws_hold(add, act, radd, rmul, ring_gens=None) -> bool:
    """The four laws of a left module (add, act) over the ring (radd, rmul),
    decided exactly though arguments run over additive generators where that
    suffices.  With g the generators of add and s those of radd, and every
    other argument over all elements, the laws are checked in this order:

      1. (x+a)+y = x+(a+y),  a in g;
      3. (r+s)x = rx+sx,     s in s;
      2. r(x+a) = rx+ra,     r in s, a in g;
      4. (rs)x = r(sx),      r, s in s, x in g.

    Callers have checked that 0 is an additive identity, + commutative and
    every element invertible.  When a law holds for all values of its other
    arguments, the values of one argument that satisfy it are closed under
    +, so a law that holds on generators holds for all (with + associative,
    0 is a multiple of any generator).  Law 1 needs no other law for that
    (Light's associativity test, Clifford-Preston I, section 1.2).  Law 3
    needs associative + in ring and module.  Law 2 needs law 1 in a and law
    3 in r.  Law 4 needs, in r, law 3 and the ring's right distributivity;
    in s, laws 2-3 and its left distributivity; in x, law 2.  A ring is its
    own module, (add, mul, add, mul): laws 1, 3 and 2 check its addition
    and both distributive laws before law 4 uses them.  ring_gens, when
    given, are the generators of radd, as the ring's own check found them.
    """
    s = _additive_generators(radd) if ring_gens is None else ring_gens
    g = s if add is radd else _additive_generators(add)
    sums = add[add[g]]  # (a+x)+y, which is (x+a)+y, and is x+(a+y) if swapping x, y fixes it
    flat, scaled = add.ravel(), act.astype(np.intp) * add.shape[0]  # u+v at u * len(add) + v
    sx = act[s]
    sg = sx[:, g]
    return (
        np.array_equal(sums, sums.transpose(0, 2, 1))
        and all(np.array_equal(act[radd[:, t]], flat[scaled + act[t]]) for t in s)
        and np.array_equal(sx[:, add[:, g]], add[sx[:, :, None], sg[:, None, :]])
        and np.array_equal(act[rmul[s][:, s, None], g], sx[:, sg])
    )


class FiniteRing:
    def __init__(
        self,
        add: np.ndarray,
        mul: np.ndarray,
        backend_tag: str,
        labels: list[str] | None = None,
        caps: Caps = Caps(),
    ):
        n = add.shape[0]
        caps.check_size(n, "ring")
        if add.shape != (n, n) or mul.shape != (n, n):
            raise ConstructionError("tables must be square and same size")
        self.size = n
        self.add = frozen_table(add, n)
        self.mul = frozen_table(mul, n)
        self.backend_tag = backend_tag
        self.labels = labels or [str(i) for i in range(n)]
        self._verify()

    # -- axioms ----------------------------------------------------------

    def _verify(self) -> None:
        n, add, mul = self.size, self.add, self.mul
        if n < 2:
            raise ConstructionError("a unital ring needs distinct 0 and 1")
        idx = np.arange(n, dtype=TABLE_DTYPE)
        if not (np.array_equal(add[0], idx) and np.array_equal(add[:, 0], idx)):
            raise ConstructionError("index 0 is not the additive identity")
        if not (np.array_equal(mul[1], idx) and np.array_equal(mul[:, 1], idx)):
            raise ConstructionError("index 1 is not the unity")
        if not np.array_equal(add, add.T):
            raise ConstructionError("addition not commutative")
        if not (add == 0).any(axis=1).all():
            raise ConstructionError("some element has no additive inverse")
        self.add_generators = _additive_generators(add)
        if not module_laws_hold(add, mul, add, mul, self.add_generators):
            raise ConstructionError("associativity/distributivity check failed")

    # -- conveniences ------------------------------------------------------

    def label(self, i: int) -> str:
        return self.labels[i]

    def __repr__(self) -> str:
        return f"FiniteRing({self.backend_tag}, n={self.size})"


def _relabel_unity(add: np.ndarray, mul: np.ndarray, one_raw: int, labels: list[str]):
    """Swap indices 1 and one_raw so the unity sits at 1 (zero is at 0 by
    construction).  Rows and columns are swapped in place, so the tables
    must be the caller's own."""
    if one_raw == 1:
        return add, mul, labels
    swap, perm = [1, one_raw], np.arange(add.shape[0], dtype=TABLE_DTYPE)
    perm[swap] = swap[::-1]
    for table in (add, mul):
        table[swap] = table[swap[::-1]]
        table[:, swap] = table[:, swap[::-1]]
    labels = list(labels)
    labels[1], labels[one_raw] = labels[one_raw], labels[1]
    return perm[add], perm[mul], labels


# -- builders -------------------------------------------------------------


def ring_zmod(n: int, caps: Caps = Caps()) -> FiniteRing:
    if n < 2:
        raise ConstructionError("modulus must be >= 2")
    caps.check_size(n, "ring")
    i = np.arange(n)
    add = (i[:, None] + i[None, :]) % n
    mul = (i[:, None] * i[None, :]) % n
    return FiniteRing(add, mul, "zmod", [str(v) for v in range(n)], caps=caps)


def ring_gf(p: int, k: int, caps: Caps = Caps()) -> FiniteRing:
    field_size(p, k, caps)
    add, mul, labels = gf_tables(p, k)
    return FiniteRing(add, mul, "gf", labels, caps=caps)


def _bracketed(names: list[str], m: int) -> list[str]:
    """"[a0,...,a(m-1)]" for every m-tuple of names, in the order of the
    index sum(names.index(a_t) * len(names)**t)."""
    return ["[" + ",".join(reversed(t)) + "]" for t in product(names, repeat=m)]


def ring_matrix(p: int, k: int, m: int, caps: Caps = Caps()) -> FiniteRing:
    q = field_size(p, k, caps)
    caps.capped_power(q, m * m, "matrix ring")
    # matrix units in row-major order: e_(r,s) e_(s,c) = e_(r,c).  Basis
    # element e*k + a is x^a e_e, so entry e of element i is its base-q digit e
    row, col = np.divmod(np.arange(m * m), m)
    units = np.where(col[:, None] == row, row[:, None] * m + col, -1)[..., None] == np.arange(m * m)
    _, add, mul = algebra_tables(p, np.kron(units, gf_constants(p, k)))
    one_raw = sum(q ** (r * m + r) for r in range(m))
    labels = _bracketed(_bracketed(gf_labels(p, k), m), m)  # rows, then matrices
    add, mul, labels = _relabel_unity(add, mul, one_raw, labels)
    return FiniteRing(add, mul, "matrix", labels, caps=caps)


def ring_triangular(p: int, k: int, j: int, caps: Caps = Caps()) -> FiniteRing:
    """Matrices [[a, b], [0, c]] with a, b in GF(p^k) and c in its degree-j subfield."""
    q = field_size(p, k, caps)
    if j < 1 or k % j:
        raise ConstructionError(f"degree {j} does not divide {k}")
    n = q * q * p**j  # GF(q) fits the cap, so the power stays small
    caps.check_size(n, "triangular ring")
    fa, fm, names = gf_tables(p, k)
    sa, sm, _ = gf_tables(p, j)
    image = subfield_image(p, j, (fa, fm), (sa, sm))
    idx = np.arange(n)
    A, B, C = idx % q, idx // q % q, idx // (q * q)
    c = image[C]  # the corner entry, in GF(q)
    add = fa[A][:, A] + q * fa[B][:, B] + q * q * sa[C][:, C]
    mul = fm[A][:, A] + q * fa.ravel()[q * fm[A][:, B] + fm[B][:, c]] + q * q * sm[C][:, C]
    one_raw = 1 + q * q * 1  # a=1, b=0, c=1
    labels = [f"[[{a},{b}],[0,{names[c]}]]" for c in image for b in names for a in names]
    add, mul, labels = _relabel_unity(add, mul, one_raw, labels)
    return FiniteRing(add, mul, "triangular", labels, caps=caps)


def ring_product(r1: FiniteRing, r2: FiniteRing, caps: Caps = Caps()) -> FiniteRing:
    n1, n2 = r1.size, r2.size
    n = n1 * n2
    caps.check_size(n, "product ring")
    idx = np.arange(n)
    I1, I2 = idx // n2, idx % n2
    add = r2.size * r1.add[I1[:, None], I1[None, :]].astype(np.int64) + r2.add[I2[:, None], I2[None, :]]
    mul = r2.size * r1.mul[I1[:, None], I1[None, :]].astype(np.int64) + r2.mul[I2[:, None], I2[None, :]]
    one_raw = 1 * n2 + 1
    labels = [f"({a},{b})" for a in r1.labels for b in r2.labels]
    add, mul, labels = _relabel_unity(add, mul, one_raw, labels)
    return FiniteRing(add, mul, "product", labels, caps=caps)


# -- polynomial quotients over monomial ideals -----------------------------


def parse_monomial(text: str, variables: list[str]) -> tuple[int, ...]:
    """Parse "x^2", "x*y", "y" into an exponent vector over the given variables."""
    expo = [0] * len(variables)
    for factor in text.replace(" ", "").split("*"):
        if not factor:
            raise ConstructionError(f"empty factor in monomial {text!r}")
        name, caret, power = factor.partition("^")
        if name not in variables:
            raise ConstructionError(f"unknown variable {name!r} in monomial {text!r}")
        if caret and not (power.isascii() and power.isdigit()):
            raise ConstructionError(f"exponent {power!r} in monomial {text!r} is not a decimal number")
        try:
            e = int(power) if caret else 1
        except ValueError:  # more digits than the interpreter converts
            raise ConstructionError(f"exponent of {name!r} has {len(power)} digits, too many to read") from None
        if e < 1:
            raise ConstructionError(f"exponent must be positive in {text!r}")
        expo[variables.index(name)] += e
    if sum(expo) == 0:
        raise ConstructionError(f"monomial {text!r} is constant")
    return tuple(expo)


def _divisible(mono: tuple[int, ...], gen: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(mono, gen))


def monomial_label(mono: tuple[int, ...], variables: list[str]) -> str:
    """The monomial with these exponents as relations are written: "1",
    "x", "x^2", "x*y^3"."""
    if not any(mono):
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, mono) if e)


def monomial_ideal(relations: list[str], variables: list[str] | None = None) -> tuple[list[str], list[tuple[int, ...]]]:
    """The variables (read off the relations when not given) and the minimal
    generators of the monomial ideal the relations span, as exponent vectors
    sorted descending.  A monomial ideal has exactly one minimal generating
    set (Dickson's lemma), so every spelling of one ideal gives one list."""
    if variables is None:
        variables = sorted({f for rel in relations for f in rel.replace(" ", "").split("*") for f in [f.partition("^")[0]]})
    if len(set(variables)) != len(variables):
        raise ConstructionError(f"variables {variables} are not distinct")
    gens = {parse_monomial(r, variables) for r in relations}
    return variables, sorted((g for g in gens if not any(h != g and _divisible(g, h) for h in gens)), reverse=True)


def ring_poly_quot(p: int, relations: list[str], variables: list[str] | None = None, caps: Caps = Caps()) -> FiniteRing:
    """F_p[vars] / (monomial relations), e.g. F_2[x]/(x^3) or F_2[x,y]/(x^2,x*y,y^2).

    The quotient must be finite dimensional; an unbounded monomial basis is
    reported as a closure failure.
    """
    caps.check_characteristic(p)
    if not is_prime(p):
        raise ConstructionError(f"coefficient characteristic {p} is not prime")
    variables, gens = monomial_ideal(relations, variables)
    # finite quotient iff every variable is nilpotent, i.e. some relation is a
    # pure power x_v^b_v of it; otherwise the monomial basis never closes
    bounds = [min((g[v] for g in gens if g[v] == sum(g)), default=0) for v in range(len(variables))]
    for name, b in zip(variables, bounds):
        if not b:
            raise ConstructionError(f"closure failure: no pure power of {name!r} among relations")
    # 1 and each x_v^e with 0 < e < b_v are basis monomials, so the ring has
    # at least p^(1 + sum(b_v - 1)) elements; once that fits the cap, the
    # box of exponents below the bounds holds at most max_ring_size tuples
    caps.capped_power(p, 1 + sum(b - 1 for b in bounds), "quotient ring")
    box = product(*(range(b) for b in bounds))
    basis = sorted((mo for mo in box if not any(_divisible(mo, g) for g in gens)), key=lambda mo: (sum(mo), mo))
    nb = len(basis)
    caps.capped_power(p, nb, "quotient ring")
    # product of basis monomials: its basis position, or -1 when it lies in
    # the ideal, as every monomial outside the ideal is in the basis
    bpos = {mo: t for t, mo in enumerate(basis)}
    prod = np.array([[bpos.get(tuple(map(sum, zip(a, b))), -1) for b in basis] for a in basis])
    D, add, mul = algebra_tables(p, prod[..., None] == np.arange(nb))

    def term(c: int, mo: tuple[int, ...]) -> str:  # c times mo, with no factor 1 written
        return str(c) if not any(mo) else ("" if c == 1 else str(c)) + monomial_label(mo, variables)

    labels = ["+".join(term(c, mo) for c, mo in zip(coords, basis) if c) or "0" for coords in D.tolist()]
    return FiniteRing(add, mul, "poly_quot", labels, caps=caps)


def ring_from_tables(
    add: list[list[int]] | np.ndarray,
    mul: list[list[int]] | np.ndarray,
    labels: list[str] | None = None,
    caps: Caps = Caps(),
) -> FiniteRing:
    return FiniteRing(np.asarray(add), np.asarray(mul), "table", labels, caps=caps)

