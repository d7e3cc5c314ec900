"""Exhaustive submodule lattices and structure theory built on them.

Enumeration is by cyclic extension (Lux, Mueller and Ringe, "Peakword
condensation and submodule lattices", J. Symb. Comp. 1994), S -> S + Rx,
made isomorph-free by canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): each member N != 0 has one
canonical parent, the span S of all its greedy generators but the last,
x, and is built from that (S, x) only, so every member is found exactly
once, and every member is reached (`enumerate_submodules` says why).  The
members found wait in levels by size, and the smallest level is extended
next, whole: each parent is smaller than its child, so every member of the
level is already known.  One level runs as a few numpy kernels over all
its members at once, cut into batches of at most _BATCH_CELLS array cells
so memory stays bounded.  The canonical order is (size, member tuple), and
all vertex numbering downstream derives from it: a level, once complete, is
sorted by member tuple and its members' bitsets and member tuples go to
their `Submodule`s, so the members come out in canonical order.

Each lattice computes its order kernel once, on first use: the up-sets,
from the canonical parent (S, x) of each member N = S + Rx with no
pairwise comparison of members, and heights, levels and atoms from the
up-sets.
Quotient and section facts are read off it as intervals: by the
correspondence theorem Lat(B/A) is the interval [A, B], so no quotient
module is built and no lattice is enumerated again to answer them.

Generators are a lattice fact too: `gens(i)` is the greedy generator list
of member i (each generator the smallest element not yet generated), those
of its canonical parent and then x, as the enumeration recorded them;
`describe(i)` labels a member by it.  No member is closed again to find
them.

The socle facts the checks share live here too: `socle_pair` and the atom
hom counts `hom_count(a, b)`, read off the atoms the order kernel knows, so
no atom is proved simple again.  `section_class(a, b)` is the annihilator of
a simple section N_a/N_b, and sections are isomorphic exactly when their
classes are equal, so checks compare classes.  |End(S)| is read off the
class of S too, by its size and the size of S, so no hom is counted.

Also here: Goldie dimension, composition length, the double-simple-image
search, and, on the lattice of R_R, ideal products and the prime radical of
a finite ring (= Jacobson radical, the meet of the maximal left ideals).  A
product of left ideals is the join of the cyclic left ideals R(xy), so
products and radical powers are member indices too, and no element set is
closed after enumeration.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain
from operator import itemgetter, or_
from typing import NamedTuple

import numpy as np

from .caps import Caps
from .errors import ConstructionError, StructureError
from .modules import FiniteModule, Submodule, cyclic_members
from .solvers import iter_bits


class _Order(NamedTuple):
    """Order kernel as bitsets over lattice indices: up[i] holds the members
    above i (i included), heights[i] is the longest chain from 0 to i,
    levels[k] holds the members of height k (one empty level past l(M)) and
    atoms_below[i] the atoms inside i.  Modularity puts covers one level up."""

    up: list[int]
    heights: list[int]
    levels: list[int]
    atoms_below: list[int]


class Lattice:
    """All submodules of a module, in canonical order, with meet/join."""

    def __init__(self, module: FiniteModule, subs: list[Submodule], parents: dict[int, tuple]):
        """subs are the members in canonical order.  parents maps the bitset
        of every member N to (bitset of S, gens): gens are N's greedy
        generators, and N = S + Rx for x the last of them, S being spanned
        by the others (0 has none).  The order kernel is built from these
        (S, x)."""
        self.module = module
        self.subs = tuple(subs)
        self._parents = parents
        self._pos = {s.bits: i for i, s in enumerate(self.subs)}
        self.zero_index = self._pos[1]
        self.full_index = self._pos[(1 << module.size) - 1]
        self._classes: dict[tuple[int, int], int] = {}
        self._downs: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.subs)

    def leq(self, i: int, j: int) -> bool:
        a, b = self.subs[i].bits, self.subs[j].bits
        return a & b == a

    def meet_index(self, i: int, j: int) -> int:
        return self._pos[self.subs[i].bits & self.subs[j].bits]

    def join_index(self, i: int, j: int) -> int:
        """The union of the two members when it is one, else the first
        common upper bound in canonical order: every upper bound contains
        the join, so none is smaller."""
        got = self._pos.get(self.subs[i].bits | self.subs[j].bits)
        if got is not None:
            return got
        common = self._order.up[i] & self._order.up[j]
        return (common & -common).bit_length() - 1

    @cached_property
    def _holders(self) -> list[int]:
        """_holders[x] is the bitset of the member indices containing x.  Its
        lowest bit is Rx: every member containing x contains Rx, and canonical
        order puts Rx before them."""
        holders = [0] * self.module.size
        for i, s in enumerate(self.subs):
            bit = 1 << i
            for x in s.members:
                holders[x] |= bit
        return holders

    @cached_property
    def _cyclic(self) -> list[int]:
        """_cyclic[x] is the index of Rx, the lowest bit of _holders[x]."""
        return [(h & -h).bit_length() - 1 for h in self._holders]

    def gens(self, i: int) -> tuple[int, ...]:
        """Greedy generators of member i: each is the smallest member
        element outside the span of the earlier ones."""
        return self._parents[self.subs[i].bits][1]

    def describe(self, i: int) -> str:
        """Member i by its generators' labels, such as <2,3>, or <0>."""
        gens = ",".join(self.module.label(g) for g in self.gens(i))
        return f"<{gens}>" if gens else "<0>"

    @cached_property
    def _order(self) -> _Order:
        n, pos, holders = len(self.subs), self._pos, self._holders
        # N contains S + Rx iff N contains S and x; S precedes S + Rx
        up = [(1 << n) - 1] * n
        for i, s in enumerate(self.subs):
            if i != self.zero_index:
                parent, gens = self._parents[s.bits]
                up[i] = up[pos[parent]] & holders[gens[-1]]
        # every member below i comes before i, so reach[k], the members
        # strictly above one of height k, is complete when the walk gets to i
        heights, reach, levels = [0] * n, [], [0]
        for i, u in enumerate(up):
            k = len(reach)
            while k and not reach[k - 1] >> i & 1:
                k -= 1
            if k == len(reach):
                reach.append(0)
                levels.append(0)
            heights[i] = k
            reach[k] |= u ^ (1 << i)
            levels[k] |= 1 << i
        # an atom is Rx for each of its nonzero x, and Rx is the first holder
        # of x, so an atom lies in a member when one of its nonzero elements does
        atom_of = [1 << c & levels[1] for c in self._cyclic]
        atoms_below = [reduce(or_, map(atom_of.__getitem__, s.members)) for s in self.subs]
        return _Order(up, heights, levels, atoms_below)

    def above(self, i: int) -> int:
        """Bitset of the members containing member i, i included."""
        return self._order.up[i]

    def _down(self, hi: int) -> int:
        """Bitset of the members inside hi: those holding no element outside it."""
        if hi not in self._downs:
            bits, holders = self.subs[hi].bits, self._holders
            outside = (holders[x] for x in range(self.module.size) if not bits >> x & 1)
            self._downs[hi] = ((1 << len(self.subs)) - 1) ^ reduce(or_, outside, 0)
        return self._downs[hi]

    @cached_property
    def longest_chains(self) -> tuple[list[int], list[int]]:
        """(chain_down, chain_up): the longest chain from 0 to each member,
        which is the kernel height, and from each member to M.  Members are
        walked in reverse canonical order, and levels[k] holds those done so
        far with chain_up k: a member's chain_up is one more than the highest
        level meeting its strict up-set, at most l(M) + 1 ANDs each."""
        order = self._order
        chain_up, levels = [0] * len(order.up), []
        for i in reversed(range(len(order.up))):
            strict, k = order.up[i] ^ (1 << i), len(levels)
            while k and not levels[k - 1] & strict:
                k -= 1
            chain_up[i] = k
            if k == len(levels):
                levels.append(0)
            levels[k] |= 1 << i
        return order.heights, chain_up

    # -- structural predicates ------------------------------------------

    def nontrivial_indices(self) -> list[int]:
        return [i for i in range(len(self.subs)) if i != self.zero_index and i != self.full_index]

    def atom_indices(self) -> list[int]:
        return list(iter_bits(self._order.levels[1]))

    def maximal_indices(self) -> list[int]:
        return list(iter_bits(self._order.levels[self.composition_length() - 1]))

    def is_simple(self, i: int) -> bool:
        return self._order.heights[i] == 1

    def is_maximal(self, i: int) -> bool:
        return self._order.heights[i] == self.composition_length() - 1

    def simple_complement(self, i: int) -> int | None:
        """First atom S with S meet N_i = 0 and S join N_i = M, if any."""
        order = self._order
        for a in iter_bits(order.levels[1] & ~order.atoms_below[i]):
            if self.join_index(a, i) == self.full_index:
                return a
        return None

    # every nonzero submodule contains an atom, so essential means "contains
    # every atom" and uniform means "exactly one atom below"

    def is_essential(self, i: int) -> bool:
        return self._order.atoms_below[i] == self._order.levels[1]

    def is_uniform(self, i: int) -> bool:
        return self._order.atoms_below[i].bit_count() == 1

    def is_chain(self) -> bool:
        return len(self.subs) == self.composition_length() + 1

    # -- intervals: Lat(hi/lo) is [lo, hi] ---------------------------------

    def interval(self, lo: int, hi: int) -> int:
        """Bitset of [lo, hi], the members between lo and hi."""
        return self._order.up[lo] & self._down(hi)

    def interval_size(self, lo: int, hi: int) -> int:
        """|[lo, hi]|, the number of submodules of hi/lo."""
        return self.interval(lo, hi).bit_count()

    def covers_in(self, lo: int, hi: int) -> list[int]:
        """Covers of lo inside [lo, hi]; A/lo for these A are the simple
        submodules of hi/lo."""
        order = self._order
        if lo == self.zero_index:
            return list(iter_bits(order.atoms_below[hi]))
        covers = order.up[lo] & order.levels[order.heights[lo] + 1]
        return list(iter_bits(covers if hi == self.full_index else covers & self._down(hi)))

    # -- socle, length, Goldie dimension ---------------------------------

    def socle_index(self) -> int:
        """The join of every atom, computed once."""
        return self._socle

    @cached_property
    def _socle(self) -> int:
        return reduce(self.join_index, self.atom_indices(), self.zero_index)

    @cached_property
    def socle_pair(self) -> tuple[int, int] | None:
        """The first two atoms when the socle has length 2, else None.  Such
        a socle is the direct sum of any two distinct atoms."""
        if self.length_of(self.socle_index()) != 2:
            return None
        return tuple(self.atom_indices()[:2])

    def section_class(self, a: int, b: int) -> int:
        """The class of the simple section N_a/N_b, for N_a covering N_b: its
        annihilator {r in R : r N_a <= N_b} as a bitset over R, computed once
        per pair.  Simple sections are isomorphic exactly when their classes
        are equal.  Isomorphic modules share an annihilator P; conversely, S
        and S' with annihilator P are faithful simple modules over the finite
        primitive ring R/P, which is simple Artinian (Jacobson density) and
        so has one simple module up to isomorphism (Wedderburn-Artin; Lam,
        A First Course in Noncommutative Rings, GTM 131)."""
        if (a, b) not in self._classes:
            if not (self._order.up[b] >> a & 1 and self._order.heights[a] == self._order.heights[b] + 1):
                raise StructureError("section_class needs a member covering another")
            in_b = np.zeros(self.module.size, dtype=bool)
            in_b[list(self.subs[b].members)] = True
            kills = in_b[self.module.act[:, self.subs[a].members]].all(axis=1)
            self._classes[a, b] = int.from_bytes(np.packbits(kills, bitorder="little").tobytes(), "little")
        return self._classes[a, b]

    def hom_count(self, a: int, b: int) -> int:
        """#Hom(S_a, S_b) for atoms a and b: |End(S_a)| when they are
        isomorphic, that is when their classes are equal, and 1 otherwise.
        |End(S)| is read off the class P = ann(S): R/P is M_n(D) for a finite
        division ring D (Wedderburn-Artin; Lam, GTM 131) and S is D^n, so
        |R/P| = |S|^n and |End(S)| = |D| is the n-th root of |S|."""
        if not (self.is_simple(a) and self.is_simple(b)):
            raise StructureError("hom_count needs atom indices")
        cls = self.section_class(a, self.zero_index)
        if cls != self.section_class(b, self.zero_index):
            return 1
        simple, primitive = self.subs[a].size, self.module.ring.size // cls.bit_count()
        for n in range(1, primitive.bit_length()):
            d = round(simple ** (1 / n))
            if simple**n == primitive and d**n == simple:
                return d
        raise StructureError(f"|R/ann(S)| = {primitive} is not |S|^n with |S| = {simple} an n-th power")

    def chain_lengths(self) -> list[int]:
        """Longest-chain length from 0 up to each submodule."""
        return self._order.heights

    def composition_length(self) -> int:
        return self.chain_lengths()[self.full_index]

    def length_of(self, i: int) -> int:
        return self.chain_lengths()[i]

    def goldie_dimension(self) -> tuple[int, tuple[int, ...]]:
        """Greedy u-basis: uniform submodules kept while the sum stays direct."""
        kept: list[int] = []
        acc = self.zero_index
        for i in range(len(self.subs)):
            if self.is_uniform(i) and self.subs[i].bits & self.subs[acc].bits == 1:
                kept.append(i)
                acc = self.join_index(acc, i)
        if kept and not self.is_essential(acc):
            raise StructureError("greedy uniform family is not essential")
        return len(kept), tuple(kept)


# Cells (array elements) one intermediate array of a batch may hold.  A size
# level is extended in chunks of at most this many cells, so memory stays
# bounded however many submodules one level has.
_BATCH_CELLS = 1 << 20


def enumerate_submodules(module: FiniteModule, caps: Caps = Caps()) -> Lattice:
    """Every submodule of module, each built once, by canonical augmentation
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998) of
    the cyclic extension S -> S + Rx.

    The greedy generators g1 < ... < gk of a member N != 0 (each the least
    element of N outside the span of those before it) name one canonical
    parent: S = span(g1, ..., g(k-1)), with N = S + Rx for x = gk, and x
    the least element of N outside S.  Conversely, if x lies above the last
    generator of S and is the least element of S + Rx outside S, the greedy
    generators of S + Rx are those of S, then x: the generators of S lie
    below x, and every element of S + Rx below x lies in S.  So S is
    extended only by such x, and each member is found once, from its
    canonical parent.  Every member is reached, by induction on k, as its
    canonical parent is reached first.

    S + Rx is the union of the cosets of S that meet Rx, each marked by its
    least element rep, so x is the least element of S + Rx outside S when
    it is the least element of its coset and no element of Rx has a rep in
    (0, x).  Only S + Rx for such x is formed.

    The members found wait in levels by size, and the smallest level is
    extended next, many members per run of a few numpy kernels: its members
    have all been found, since each parent is smaller than its child, so
    levels taken in turn and sorted give the canonical order.  A level is
    cut into batches of at most _BATCH_CELLS cells per intermediate array,
    so memory stays bounded.

    Every member counts once against caps.max_submodules, before the
    members of a batch are formed, and each is handed to the lattice with
    its canonical parent and its generators.
    """
    size = module.size
    add, act_t = module.add, module.act.T  # act_t[x] lists Rx, one entry per r
    carrier = np.arange(size)
    subs: list[Submodule] = []
    parents: dict[int, tuple[int, tuple[int, ...]]] = {1: (1, ())}
    # pending[s] holds (bits, members, gens) of the members of size s not yet extended
    pending: dict[int, list[tuple[int, tuple[int, ...], tuple[int, ...]]]] = {1: [(1, (0,), ())]}
    while pending:
        s = min(pending)
        level = sorted(pending.pop(s), key=itemgetter(1))  # complete, so in canonical order
        subs.extend(Submodule(module, members, bits=b) for b, members, _ in level)
        cosets = size // s - 1  # the cosets of each S other than S itself
        if not cosets:
            continue
        step = max(1, _BATCH_CELLS // (max(s, cosets) * max(size, act_t.shape[1])))
        for first in range(0, len(level), step):
            batch = level[first:first + step]
            in_s = np.fromiter(chain.from_iterable(m for _, m, _ in batch), np.intp, len(batch) * s)
            # add is symmetric, so its rows at S's members are the cosets s + y
            rep = add[in_s.reshape(-1, s)].min(axis=1)  # f x size
            last = np.array([g[-1] if g else 0 for _, _, g in batch])
            ks, xs = np.nonzero((rep == carrier) & (carrier > last[:, None]))
            # the reps of the cosets Rx meets, 0 being S; indices into the
            # flattened arrays are offset by size per row, here and below
            met = rep.ravel()[(ks * size)[:, None] + act_t[xs]]
            keep = ((met == 0) | (met >= xs[:, None])).all(axis=1)
            ks, xs, met = ks[keep], xs[keep], met[keep]
            if not len(ks):
                continue
            caps.check_submodules(len(parents) + len(ks))
            offset = np.arange(0, len(ks) * size, size)[:, None]
            hit = np.zeros(len(ks) * size, dtype=bool)  # at k * size + c: coset c is in S + Rx
            hit[met + offset] = True
            masks = hit[rep[ks] + offset]
            packed = np.packbits(masks, axis=1, bitorder="little")
            raw, width = packed.tobytes(), packed.shape[1]
            cols = np.nonzero(masks)[1].tolist()
            end = 0
            for k, (row, x) in enumerate(zip(ks.tolist(), xs.tolist())):
                b = int.from_bytes(raw[k * width:(k + 1) * width], "little")
                begin, end = end, end + b.bit_count()
                members, gens = tuple(cols[begin:end]), batch[row][2] + (x,)
                parents[b] = (batch[row][0], gens)
                pending.setdefault(end - begin, []).append((b, members, gens))
    return Lattice(module, subs, parents)


# -- simple-module isomorphism counting --------------------------------------


def is_simple_module(module: FiniteModule) -> bool:
    if module.size < 2:
        return False
    return all(cyclic_members(module, x).size == module.size for x in range(1, module.size))


def whole_submodule(module: FiniteModule) -> Submodule:
    return Submodule(module, range(module.size))


def _check_simple_sub(s: Submodule) -> None:
    if s.size < 2:
        raise StructureError("zero submodule is not simple")
    for x in s.members:
        if x and cyclic_members(s.module, x).size != s.size:
            raise StructureError("submodule is not simple")


def section_hom_count(a: Submodule, b: Submodule, c: Submodule, d: Submodule) -> int:
    """#Hom(A/B, C/D) for a simple section A/B and a section C/D over a
    common ring, with B < A and D <= C submodules of their ambient modules.

    A/B is generated by any x in A outside B, so a hom is fixed by the image
    t + D of x + B, and the valid images are exactly the cosets of the
    t in C with ann(x + B) t in D, where ann(x + B) = {r : r x in B}.
    In the package only `hom_count_simples` calls it, and only the
    simple-module helpers below, which `bench/tracing.py` wraps, call that.
    It is the tests' reference for `Lattice.hom_count` and
    `Lattice.section_class`.
    """
    src, tgt = a.module, c.module
    if src.ring is not tgt.ring:
        raise ConstructionError("hom count needs modules over the same ring")
    if a.bits == b.bits or b.bits & a.bits != b.bits or d.bits & c.bits != d.bits:
        raise StructureError("hom count needs sections B < A and D <= C")
    gen = next(x for x in a.members if not (b.bits >> x) & 1)
    in_b = np.zeros(src.size, dtype=bool)
    in_b[list(b.members)] = True
    ann = np.flatnonzero(in_b[src.act[:, gen]])  # nonempty: 0 annihilates
    in_d = np.zeros(tgt.size, dtype=bool)
    in_d[list(d.members)] = True
    valid = in_d[tgt.act[np.ix_(ann, c.members)]].all(axis=0)
    return int(np.count_nonzero(valid)) // d.size


def hom_count_simples(s: Submodule, t: Submodule) -> int:
    """#Hom(S, T) for simple S, T over a common ring: the section hom count
    with both sections taken over the zero submodule."""
    _check_simple_sub(s)
    _check_simple_sub(t)
    return section_hom_count(s, Submodule(s.module, [0]), t, Submodule(t.module, [0]))


def iso_count_simples(s: Submodule, t: Submodule) -> int:
    """|Iso(S, T)|: every nonzero hom between simples is an isomorphism."""
    return hom_count_simples(s, t) - 1


def end_size(s: Submodule) -> int:
    return hom_count_simples(s, s)


def simples_isomorphic(s: Submodule, t: Submodule) -> bool:
    return iso_count_simples(s, t) > 0


def count_iso_simple(s_mod: FiniteModule, t_mod: FiniteModule) -> int:
    """|Iso(S, T)| for standalone simple modules over the same ring."""
    for m in (s_mod, t_mod):
        if not is_simple_module(m):
            raise StructureError("count_iso_simple needs simple modules")
    return iso_count_simples(whole_submodule(s_mod), whole_submodule(t_mod))


# -- double simple image ------------------------------------------------------


def find_double_simple_image(lattice: Lattice) -> dict | None:
    """First kernel K (canonical order) such that M/K contains a direct pair
    of isomorphic simple submodules; None when no quotient does.

    The simple submodules of M/K are A/K for the covers A of K, so the
    returned pair is the first cover A of K, in canonical order, with a
    later cover B of the same class, and the first such B.  Kernel and pair
    are member indices, and no module is built.
    """
    for k in range(len(lattice)):
        covers = lattice.covers_in(k, lattice.full_index)
        classes = [lattice.section_class(a, k) for a in covers] if len(covers) > 1 else []
        for ai, cls in enumerate(classes):
            if cls in classes[ai + 1:]:
                return {"kernel": k, "pair": (covers[ai], covers[classes.index(cls, ai + 1)])}
    return None


# -- prime radical -------------------------------------------------------------


def _regular(lattice: Lattice, caller: str) -> FiniteModule:
    if not lattice.module.is_regular:
        raise StructureError(f"{caller} needs the lattice of the ring's regular module")
    return lattice.module


def ideal_product(lattice: Lattice, a: int, b: int) -> int:
    """Index of the product N_a N_b of two left ideals of R, members a and b
    of the lattice of R_R.  The product is additively spanned by the xy, and
    R(xy) = (Rx)y lies in it, so it is the join of the cyclic left ideals
    R(xy) over the distinct products xy."""
    reg = _regular(lattice, "ideal_product")
    products = np.zeros(reg.size, dtype=bool)
    products[reg.act[np.ix_(lattice.subs[a].members, lattice.subs[b].members)]] = True
    cyclics = {lattice._cyclic[p] for p in np.flatnonzero(products).tolist()}
    return reduce(lattice.join_index, cyclics, lattice.zero_index)


def prime_radical(lattice: Lattice) -> int:
    """Index of the prime radical of a finite ring R in the lattice of R_R:
    the intersection of all maximal left ideals (finite rings are left Artinian,
    so this equals the Jacobson and prime radicals).  Postconditions checked:
    the result is a nilpotent two-sided ideal annihilating every minimal
    left ideal."""
    _regular(lattice, "prime_radical")
    zero = lattice.zero_index
    rad = reduce(lattice.meet_index, lattice.maximal_indices(), lattice.full_index)
    # rad R holds rad (y = 1), so it is rad exactly when every xy lies in rad
    if ideal_product(lattice, rad, lattice.full_index) != rad:
        raise ConstructionError("radical is not a two-sided ideal")
    power = rad
    for _ in range(lattice.module.size):
        if power == zero:
            break
        power = ideal_product(lattice, power, rad)
    if power != zero:
        raise ConstructionError("radical is not nilpotent")
    if any(ideal_product(lattice, rad, i) != zero for i in lattice.atom_indices()):
        raise ConstructionError("radical does not annihilate a minimal left ideal")
    return rad
