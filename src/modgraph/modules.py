"""Finite left modules over table-backed rings, and their submodules.

A module is a carrier 0..m-1 with an addition table and an action table
act[r, x]; index 0 is the module zero.  Submodules are stored as bitsets
over the carrier (Python ints) together with the sorted member tuple, so
identity, meets and containment are cheap bit operations.  Generators are a
fact of the lattice a submodule sits in (`Lattice.gens`), not of the
submodule alone.
"""

from __future__ import annotations

import numpy as np

from .caps import Caps
from .errors import ConstructionError
from .rings import TABLE_DTYPE, FiniteRing, frozen_table, module_laws_hold


class FiniteModule:
    def __init__(
        self,
        ring: FiniteRing,
        add: np.ndarray,
        act: np.ndarray,
        labels: list[str] | None = None,
        meta: dict | None = None,
        caps: Caps = Caps(),
    ):
        m = add.shape[0]
        caps.check_size(m, "module")
        if add.shape != (m, m) or act.shape != (ring.size, m):
            raise ConstructionError("module table shapes inconsistent")
        self.ring = ring
        self.size = m
        self.add = frozen_table(add, m)
        self.act = frozen_table(act, m)
        self.labels = labels or [str(i) for i in range(m)]
        self.meta = meta or {}
        self._verify()

    @property
    def is_regular(self) -> bool:
        """Is this R_R on the ring's own tables, as `regular_module` builds
        it?  A module given copies of them is verified like any other."""
        return self.add is self.ring.add and self.act is self.ring.mul

    def _verify(self) -> None:
        if self.is_regular:
            # R_R: the module axioms are the ring axioms FiniteRing checked
            return
        m, add, act = self.size, self.add, self.act
        idx = np.arange(m, dtype=TABLE_DTYPE)
        if not np.array_equal(add[0], idx):
            raise ConstructionError("index 0 is not the module zero")
        if not np.array_equal(add, add.T):
            raise ConstructionError("module addition not commutative")
        if not (add == 0).any(axis=1).all():
            raise ConstructionError("some module element has no additive inverse")
        if not np.array_equal(act[1], idx):
            raise ConstructionError("unity does not act as identity")
        ring = self.ring
        if not module_laws_hold(add, act, ring.add, ring.mul, ring.add_generators):
            raise ConstructionError("module axiom check failed")

    def label(self, i: int) -> str:
        return self.labels[i]

    def __repr__(self) -> str:
        kind = self.meta.get("kind", "module")
        return f"FiniteModule({kind}, m={self.size}, ring={self.ring.backend_tag})"


def bits_of(members) -> int:
    b = 0
    for x in members:
        b |= 1 << int(x)
    return b


class Submodule:
    """A submodule of a fixed ambient module, identified by its bitset.

    A caller that already holds the bitset passes it as bits, together with
    members as the sorted tuple of Python ints it encodes; neither is
    rebuilt."""

    __slots__ = ("module", "bits", "members")

    def __init__(self, module: FiniteModule, members, bits: int | None = None):
        self.module = module
        if bits is None:
            members = tuple(int(x) for x in members)
            bits = bits_of(members)
        self.members = members
        self.bits = bits

    @property
    def size(self) -> int:
        return len(self.members)

    def __eq__(self, other):
        return isinstance(other, Submodule) and self.module is other.module and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"Submodule(size={self.size}, members={list(self.members)})"


def close_subset(module: FiniteModule, seed) -> np.ndarray:
    """Smallest add- and action-closed subset containing seed and 0."""
    m = module.size
    in_set = np.zeros(m, dtype=bool)
    in_set[0] = True
    seed = [int(x) for x in seed]
    if seed:
        in_set[seed] = True
    frontier = np.flatnonzero(in_set)
    while frontier.size:
        fresh = np.zeros(m, dtype=bool)
        fresh[module.add[np.ix_(frontier, np.flatnonzero(in_set))]] = True
        fresh[module.act[:, frontier]] = True
        fresh &= ~in_set
        in_set |= fresh
        frontier = np.flatnonzero(fresh)
    return np.flatnonzero(in_set)


def submodule_generated(module: FiniteModule, gens) -> Submodule:
    return Submodule(module, close_subset(module, gens))


def cyclic_members(module: FiniteModule, x: int) -> np.ndarray:
    """Rx for a unital action; already add- and action-closed."""
    hit = np.zeros(module.size, dtype=bool)
    hit[module.act[:, x]] = True
    return np.flatnonzero(hit)


# -- constructions ---------------------------------------------------------


def regular_module(ring: FiniteRing, caps: Caps = Caps()) -> FiniteModule:
    return FiniteModule(
        ring, ring.add, ring.mul, labels=ring.labels, meta={"kind": "regular"}, caps=caps
    )


def direct_sum(m1: FiniteModule, m2: FiniteModule, caps: Caps = Caps()) -> FiniteModule:
    if m1.ring is not m2.ring:
        raise ConstructionError("direct sum needs modules over the same ring")
    s1, s2 = m1.size, m2.size
    m = s1 * s2
    caps.check_size(m, "direct sum")
    idx = np.arange(m)
    I1, I2 = idx // s2, idx % s2
    add = s2 * m1.add[np.ix_(I1, I1)].astype(np.int64) + m2.add[np.ix_(I2, I2)]
    act = s2 * m1.act[:, I1].astype(np.int64) + m2.act[:, I2]
    labels = [f"({a}|{b})" for a in m1.labels for b in m2.labels]
    return FiniteModule(m1.ring, add, act, labels, {"kind": "direct_sum"}, caps=caps)


def quotient(
    module: FiniteModule, kernel, caps: Caps = Caps()
) -> tuple[FiniteModule, np.ndarray]:
    """Quotient by a submodule; returns (module, projection index map).

    Coset representatives are the minimal member index per coset, so the
    quotient is deterministic.
    """
    members = kernel.members if isinstance(kernel, Submodule) else tuple(int(x) for x in kernel)
    mem = np.array(sorted(members), dtype=np.int64)
    closed = close_subset(module, mem)
    if not np.array_equal(closed, mem):
        raise ConstructionError("kernel is not a submodule")
    rep = module.add[:, mem].min(axis=1).astype(np.int64)
    reps = np.flatnonzero(rep == np.arange(module.size))  # each coset's least element
    pos = np.full(module.size, -1, dtype=np.int64)
    pos[reps] = np.arange(len(reps))
    proj = pos[rep]
    add = proj[module.add[np.ix_(reps, reps)]]
    act = proj[module.act[:, reps]]
    labels = [module.labels[r] + "~" for r in reps.tolist()]
    q = FiniteModule(module.ring, add, act, labels, {"kind": "quotient"}, caps=caps)
    return q, proj


def custom_module(
    ring: FiniteRing,
    add,
    act,
    labels: list[str] | None = None,
    caps: Caps = Caps(),
) -> FiniteModule:
    return FiniteModule(ring, np.asarray(add), np.asarray(act), labels, {"kind": "custom"}, caps=caps)


def submodule_as_module(sub: Submodule, caps: Caps = Caps()) -> FiniteModule:
    """The submodule re-indexed as a standalone module over the same ring."""
    parent = sub.module
    mem = np.array(sub.members, dtype=np.int64)
    pos = np.full(parent.size, -1, dtype=np.int64)
    pos[mem] = np.arange(len(mem))
    add = pos[parent.add[np.ix_(mem, mem)]]
    act = pos[parent.act[:, mem]]
    if add.min() < 0 or act.min() < 0:
        raise ConstructionError("member set is not closed")
    labels = [parent.labels[x] for x in sub.members]
    return FiniteModule(parent.ring, add, act, labels, {"kind": "submodule"}, caps=caps)
