"""Finite unital rings as element-indexed operation tables.

Every ring, however it was built, is reduced to the same semantic model:
index 0 is the additive zero, index 1 the unity, and two n x n tables give
addition and multiplication.  Structured builders (matrix, triangular,
product, polynomial quotient) produce tables identical to naive arithmetic
on the structured elements and then renumber so zero/one land on 0/1.

Ring and module axioms are verified exactly at construction, at every size,
by one O(n^2 log n) check over additive generators (`module_laws_hold`).
"""

from __future__ import annotations

import numpy as np

from .caps import Caps, capped_power, check_characteristic
from .errors import CapExceeded, ConstructionError
from .fields import FiniteField, SubfieldEmbedding, is_prime, subfield

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
    the closure of {0} and those before it.  The closure is a fixpoint over
    the table that assumes no law except the commutativity callers checked."""
    in_set = np.zeros(add.shape[0], dtype=bool)
    in_set[0] = True
    gens = []
    while not in_set.all():
        g = in_set.argmin()
        gens.append(g)
        in_set[g] = True
        frontier = np.array([g])
        while frontier.size:
            before = in_set.copy()
            in_set[add[frontier][:, before]] = True
            frontier = np.flatnonzero(in_set > before)  # reached this round
    return np.array(gens, dtype=np.intp)


def module_laws_hold(add, act, radd, rmul) -> bool:
    """The four laws of a left module (add, act) over the ring (radd, rmul),
    decided exactly though one argument runs over additive generators only:

      1. (x+a)+y = x+(a+y)  and  2. r(x+a) = rx+ra,  a over add's generators;
      3. (r+s)x = rx+sx     and  4. (rs)x = r(sx),   s over radd's generators.

    Callers have checked that 0 is an additive identity, + commutative and
    every element invertible.  The elements satisfying a law are closed
    under + and include 0, so a law that holds on generators holds for all.
    Law 1 needs no other law for that (Light's associativity test,
    Clifford-Preston I, section 1.2); law 2 needs law 1; law 3 needs laws
    1-2 and associative ring addition; law 4 needs laws 2-3 and the ring's
    left distributivity.  A ring is its own module, (add, mul, add, mul):
    laws 1-2 check its addition and left distributivity before 3-4 use them.
    """
    g = _additive_generators(add)
    s = g if radd is add else _additive_generators(radd)
    return (
        np.array_equal(add[add[:, g]], add[:, add[g]])
        and np.array_equal(act[:, add[:, g]], add[act[:, :, None], act[:, None, g]])
        and np.array_equal(act[radd[:, s]], add[act[:, None, :], act[None, s, :]])
        and np.array_equal(act[rmul[:, s]], act[:, act[s]])
    )


class FiniteRing:
    def __init__(
        self,
        add: np.ndarray,
        mul: np.ndarray,
        backend_tag: str,
        labels: list[str] | None = None,
        meta: dict | None = None,
        caps: Caps | None = None,
    ):
        caps = caps or Caps()
        n = add.shape[0]
        if n > caps.max_ring_size:
            raise CapExceeded(f"ring size {n} exceeds cap max_ring_size={caps.max_ring_size}")
        if add.shape != (n, n) or mul.shape != (n, n):
            raise ConstructionError("tables must be square and same size")
        self.size = n
        self.add = frozen_table(add, n)
        self.mul = frozen_table(mul, n)
        self.zero = 0
        self.one = 1
        self.backend_tag = backend_tag
        self.labels = labels
        self.meta = meta or {}
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
        if not module_laws_hold(add, mul, add, mul):
            raise ConstructionError("associativity/distributivity check failed")

    # -- conveniences ------------------------------------------------------

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def is_division_ring(self) -> bool:
        for a in range(1, self.size):
            xs = np.flatnonzero(self.mul[a] == 1)
            if not any(self.mul[x, a] == 1 for x in xs):
                return False
        return True

    def __repr__(self) -> str:
        return f"FiniteRing({self.backend_tag}, n={self.size})"


def _relabel_unity(add: np.ndarray, mul: np.ndarray, one_raw: int, labels: list[str]):
    """Swap indices so the unity sits at 1 (zero is at 0 by construction)."""
    n = add.shape[0]
    if one_raw == 1:
        return add, mul, labels
    perm = np.arange(n, dtype=TABLE_DTYPE)
    perm[one_raw], perm[1] = 1, one_raw
    inv = perm  # a transposition is its own inverse
    add2 = perm[add[inv][:, inv]]
    mul2 = perm[mul[inv][:, inv]]
    labels2 = [labels[inv[i]] for i in range(n)]
    return add2, mul2, labels2


# -- builders -------------------------------------------------------------


def ring_zmod(n: int, caps: Caps | None = None) -> FiniteRing:
    caps = caps or Caps()
    if n < 2:
        raise ConstructionError("modulus must be >= 2")
    if n > caps.max_ring_size:
        raise CapExceeded(f"ring size {n} exceeds cap max_ring_size={caps.max_ring_size}")
    i = np.arange(n)
    add = (i[:, None] + i[None, :]) % n
    mul = (i[:, None] * i[None, :]) % n
    return FiniteRing(add, mul, "zmod", [str(v) for v in range(n)], {"n": n}, caps=caps)


def ring_from_field(field: FiniteField, caps: Caps | None = None) -> FiniteRing:
    labels = [field.label(i) for i in range(field.size)]
    meta = {"p": field.p, "k": field.k, "modulus": list(field.modulus)}
    return FiniteRing(field.add_table(), field.mul_table(), "gf", labels, meta, caps=caps)


def _algebra_tables(fa: np.ndarray, fm: np.ndarray, prod: np.ndarray):
    """Tables of the algebra over the field (fa, fm) with basis products
    e_s e_t = e_prod[s,t], or 0 where prod[s,t] is -1.  Element i has the
    base-q digits of i as coordinates, lowest first.  Returns (digits, add,
    mul), digits[i] being the coordinates of element i."""
    q, d = fa.shape[0], prod.shape[0]
    fa, fm = fa.ravel(), fm.ravel()  # entry (a, b) at a * q + b
    weights = q ** np.arange(d)
    digits = np.arange(q**d)[:, None] // weights % q
    add = fa[digits[:, None] * q + digits[None, :]] @ weights
    coords = np.zeros((d,) + add.shape, dtype=np.int64)  # coords[u]: coordinate u of each product
    for s, t in zip(*np.nonzero(prod >= 0)):
        u = prod[s, t]
        coords[u] = fa[coords[u] * q + fm[digits[:, s, None] * q + digits[None, :, t]]]
    return digits, add, np.tensordot(weights, coords, 1)


def ring_matrix(field: FiniteField, m: int, caps: Caps | None = None) -> FiniteRing:
    caps = caps or Caps()
    q = field.size
    n = capped_power(q, m * m, caps.max_ring_size, "matrix ring")
    # matrix units in row-major order: e_(r,s) e_(s,c) = e_(r,c)
    row, col = np.divmod(np.arange(m * m), m)
    prod = np.where(col[:, None] == row[None, :], row[:, None] * m + col[None, :], -1)
    digits, add, mul = _algebra_tables(field.add_table(), field.mul_table(), prod)
    one_raw = sum(q ** (r * m + r) for r in range(m))
    labels = [
        "[" + ",".join("[" + ",".join(map(field.label, entries)) + "]" for entries in matrix) + "]"
        for matrix in digits.reshape(n, m, m).tolist()
    ]
    add, mul, labels = _relabel_unity(add, mul, one_raw, labels)
    meta = {"p": field.p, "k": field.k, "m": m, "q": q}
    return FiniteRing(add, mul, "matrix", labels, meta, caps=caps)


def ring_triangular(delta: FiniteField, j: int, caps: Caps | None = None) -> FiniteRing:
    """Matrices [[a, b], [0, c]] with a, b in delta and c in its degree-j subfield."""
    caps = caps or Caps()
    emb = subfield(delta, j)
    q, w = delta.size, emb.subfield.size
    n = q * q * w
    if n > caps.max_ring_size:
        raise CapExceeded(f"triangular ring size {n} exceeds cap max_ring_size={caps.max_ring_size}")
    fa, fm = delta.add_table(), delta.mul_table()
    sa, sm = emb.subfield.add_table(), emb.subfield.mul_table()
    embarr = np.array(emb.image, dtype=np.int64)
    idx = np.arange(n)
    A = idx % q
    B = (idx // q) % q
    C = idx // (q * q)
    add = (
        fa[A[:, None], A[None, :]].astype(np.int64)
        + q * fa[B[:, None], B[None, :]].astype(np.int64)
        + q * q * sa[C[:, None], C[None, :]].astype(np.int64)
    )
    mul = (
        fm[A[:, None], A[None, :]].astype(np.int64)
        + q * fa[fm[A[:, None], B[None, :]], fm[B[:, None], embarr[C][None, :]]].astype(np.int64)
        + q * q * sm[C[:, None], C[None, :]].astype(np.int64)
    )
    one_raw = 1 + q * q * 1  # a=1, b=0, c=1
    labels = [
        f"[[{delta.label(int(A[i]))},{delta.label(int(B[i]))}],[0,{delta.label(int(embarr[C[i]]))}]]"
        for i in range(n)
    ]
    add, mul, labels = _relabel_unity(add, mul, one_raw, labels)
    meta = {"p": delta.p, "k": delta.k, "q": q, "subfield_degree": j, "subfield_size": w}
    return FiniteRing(add, mul, "triangular", labels, meta, caps=caps)


def ring_product(r1: FiniteRing, r2: FiniteRing, caps: Caps | None = None) -> FiniteRing:
    caps = caps or Caps()
    n1, n2 = r1.size, r2.size
    n = n1 * n2
    if n > caps.max_ring_size:
        raise CapExceeded(f"product ring size {n} exceeds cap max_ring_size={caps.max_ring_size}")
    idx = np.arange(n)
    I1, I2 = idx // n2, idx % n2
    add = r2.size * r1.add[I1[:, None], I1[None, :]].astype(np.int64) + r2.add[I2[:, None], I2[None, :]]
    mul = r2.size * r1.mul[I1[:, None], I1[None, :]].astype(np.int64) + r2.mul[I2[:, None], I2[None, :]]
    one_raw = 1 * n2 + 1
    labels = [f"({r1.label(int(I1[i]))},{r2.label(int(I2[i]))})" for i in range(n)]
    add, mul, labels = _relabel_unity(add, mul, one_raw, labels)
    meta = {"left": r1.backend_tag, "right": r2.backend_tag}
    return FiniteRing(add, mul, "product", labels, meta, caps=caps)


# -- polynomial quotients over monomial ideals -----------------------------


def parse_monomial(text: str, variables: list[str]) -> tuple[int, ...]:
    """Parse "x^2", "x*y", "y" into an exponent vector over the given variables."""
    expo = [0] * len(variables)
    for factor in text.replace(" ", "").split("*"):
        if not factor:
            raise ConstructionError(f"empty factor in monomial {text!r}")
        name, _, power = factor.partition("^")
        if name not in variables:
            raise ConstructionError(f"unknown variable {name!r} in monomial {text!r}")
        e = int(power) if power else 1
        if e < 1:
            raise ConstructionError(f"exponent must be positive in {text!r}")
        expo[variables.index(name)] += e
    if sum(expo) == 0:
        raise ConstructionError(f"monomial {text!r} is constant")
    return tuple(expo)


def _divisible(mono: tuple[int, ...], gen: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(mono, gen))


def ring_poly_quot(
    p: int,
    relations: list[str],
    variables: list[str] | None = None,
    caps: Caps | None = None,
) -> FiniteRing:
    """F_p[vars] / (monomial relations), e.g. F_2[x]/(x^3) or F_2[x,y]/(x^2,x*y,y^2).

    The quotient must be finite dimensional; an unbounded monomial basis is
    reported as a closure failure.
    """
    caps = caps or Caps()
    check_characteristic(p, caps.max_ring_size)
    if not is_prime(p):
        raise ConstructionError(f"coefficient characteristic {p} is not prime")
    if variables is None:
        variables = sorted({f for rel in relations for f in rel.replace(" ", "").split("*") for f in [f.partition("^")[0]]})
    gens = [parse_monomial(r, variables) for r in relations]
    nv = len(variables)
    # finite quotient iff every variable is nilpotent, i.e. some relation is a
    # pure power of it; otherwise the monomial basis never closes
    for v, name in enumerate(variables):
        if not any(g[v] > 0 and all(e == 0 for t, e in enumerate(g) if t != v) for g in gens):
            raise ConstructionError(f"closure failure: no pure power of {name!r} among relations")
    # basis monomials: complement of the monomial ideal, found by BFS from 1
    basis: list[tuple[int, ...]] = []
    seen = set()
    frontier = [(0,) * nv]
    while frontier:
        mono = frontier.pop(0)
        if mono in seen or any(_divisible(mono, g) for g in gens):
            continue
        seen.add(mono)
        basis.append(mono)
        if len(basis) > caps.max_ring_size.bit_length():
            break  # p^len(basis) > cap already, which capped_power reports
        for v in range(nv):
            nxt = tuple(e + (1 if t == v else 0) for t, e in enumerate(mono))
            if nxt not in seen:
                frontier.append(nxt)
    basis.sort(key=lambda mo: (sum(mo), mo))
    bpos = {mo: t for t, mo in enumerate(basis)}
    nb = len(basis)
    n = capped_power(p, nb, caps.max_ring_size, "quotient ring")
    # product of basis monomials: basis position or -1 when it falls in the ideal
    prod = np.full((nb, nb), -1, dtype=np.int64)
    for s in range(nb):
        for t in range(nb):
            mono = tuple(a + b for a, b in zip(basis[s], basis[t]))
            if not any(_divisible(mono, g) for g in gens):
                prod[s, t] = bpos[mono]
    zp = np.arange(p)
    D, add, mul = _algebra_tables((zp[:, None] + zp) % p, (zp[:, None] * zp) % p, prod)

    def mono_label(mo: tuple[int, ...]) -> str:
        if sum(mo) == 0:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, mo) if e)

    labels = []
    for i in range(n):
        parts = [
            (mono_label(basis[t]) if (c == 1 and sum(basis[t]) > 0) else
             (str(c) if sum(basis[t]) == 0 else f"{c}{mono_label(basis[t])}"))
            for t, c in enumerate(D[i])
            if c
        ]
        labels.append("+".join(parts) if parts else "0")
    meta = {"p": p, "variables": list(variables), "relations": list(relations), "basis_dim": nb}
    return FiniteRing(add, mul, "poly_quot", labels, meta, caps=caps)


def ring_from_tables(
    add: list[list[int]] | np.ndarray,
    mul: list[list[int]] | np.ndarray,
    labels: list[str] | None = None,
    caps: Caps | None = None,
) -> FiniteRing:
    return FiniteRing(np.asarray(add), np.asarray(mul), "table", labels, caps=caps)

