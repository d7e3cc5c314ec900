"""Interval reads of the ambient lattice against re-enumeration and brute force.

The package reads Lat(M/N) as [N, M], Lat(T) as [0, T] and simple sections
A/B as covers B < A, without building the modules.  Here the modules are
built and their lattices enumerated again, as the reference.
"""

import numpy as np
import pytest

from modgraph.errors import StructureError
from modgraph.lattice import (
    enumerate_submodules,
    hom_count_simples,
    is_simple_module,
    section_hom_count,
    whole_submodule,
)
from modgraph.modules import (
    Submodule,
    direct_sum,
    quotient,
    regular_module,
    submodule_as_module,
)
from modgraph.rings import ring_gf, ring_zmod
from modgraph.specs import make_spec
from modgraph.zoo import contexts, family, family_specs

from .oracles import (
    brute_covers,
    brute_hom_count,
    brute_longest_chain,
    brute_order,
    brute_submodules_grow,
    naive_closure,
)
from .test_lattice import zmod_sum


def _contexts(named_contexts, family16_contexts):
    return [*named_contexts, *family16_contexts]


def test_quotient_and_sub_lattices_are_intervals(named_contexts, family16_contexts):
    checked = 0
    for ctx in _contexts(named_contexts, family16_contexts):
        lat = ctx.lattice
        full = lat.full_index
        for n, sub in enumerate(lat.subs):
            lat_q = enumerate_submodules(quotient(ctx.module, sub)[0])
            assert len(lat_q) == lat.interval_size(n, full), (ctx.instance_id, n)
            assert lat_q.composition_length() == lat.longest_chains[1][n], (ctx.instance_id, n)
            lat_n = enumerate_submodules(submodule_as_module(sub))
            assert len(lat_n) == lat.interval_size(lat.zero_index, n), (ctx.instance_id, n)
            assert lat_n.composition_length() == lat.longest_chains[0][n]
            checked += 1
    assert checked > 400


def _built_sections(ctx):
    """Every simple section A/B (A covers B) with A/B built as a module: the
    image of A in the quotient M/B, re-indexed standalone."""
    lat = ctx.lattice
    out = []
    for b, sub_b in enumerate(lat.subs):
        covers = lat.covers_in(b, lat.full_index)
        if not covers:
            continue
        q, proj = quotient(ctx.module, sub_b)
        for a in covers:
            image = Submodule(q, np.unique(proj[list(lat.subs[a].members)]))
            out.append(((b, a), submodule_as_module(image)))
    return out


def test_section_hom_count_matches_built_sections(named_contexts, family16_contexts):
    pairs = 0
    for ctx in _contexts(named_contexts, family16_contexts):
        lat = ctx.lattice
        subs, zero = lat.subs, lat.subs[lat.zero_index]
        built = _built_sections(ctx)
        assert all(is_simple_module(x) for _, x in built), ctx.instance_id
        for (b, a), x in built:
            # #Hom(A/B, T) into every atom T, against the package-free oracle
            whole = Submodule(x, range(x.size))
            for t in lat.atom_indices():
                got = section_hom_count(subs[a], subs[b], subs[t], zero)
                assert got == brute_hom_count(whole, subs[t]), (ctx.instance_id, (b, a), t)
            for (d, c), y in built:
                if x.size != y.size:  # only the zero hom; no isomorphism to count
                    continue
                got = section_hom_count(subs[a], subs[b], subs[c], subs[d])
                assert got == hom_count_simples(whole_submodule(x), whole_submodule(y)), (
                    ctx.instance_id, (b, a), (d, c),
                )
                same = lat.section_class(a, b) == lat.section_class(c, d)
                assert same == (got > 1), (ctx.instance_id, (b, a), (d, c))
                pairs += 1
    assert pairs > 2000


def test_section_classes_are_isomorphism_classes(named_contexts):
    # two simple sections are isomorphic exactly when their annihilators agree
    checked, isomorphic = 0, 0
    for ctx in [*named_contexts, *family(64)]:
        lat = ctx.lattice
        subs = lat.subs
        by_size: dict[int, list[tuple[int, int]]] = {}
        for b in range(len(lat)):
            for a in lat.covers_in(b, lat.full_index):
                by_size.setdefault(subs[a].size // subs[b].size, []).append((a, b))
        for sections in by_size.values():
            for a, b in sections:
                for c, d in sections:
                    iso = section_hom_count(subs[a], subs[b], subs[c], subs[d]) > 1
                    assert (lat.section_class(a, b) == lat.section_class(c, d)) == iso, (
                        ctx.instance_id, (b, a), (d, c),
                    )
                    checked += 1
                    isomorphic += iso
    assert checked > 80000 and 0 < isomorphic < checked


def test_end_sizes_read_off_classes_match_hom_counts(named_contexts):
    # |End(S)| from |S| and |R/ann(S)| against a hom count, once per class of
    # atoms, on the zoo, the census and R+R over the size-32 rings
    pair = {"kind": "direct_sum", "left": {"kind": "regular"}, "right": {"kind": "regular"}}
    sums = contexts(make_spec(spec["ring"], pair) for spec in family_specs(32))
    classes = 0
    for ctx in [*named_contexts, *family(64), *sums]:
        lat = ctx.lattice
        zero = lat.subs[lat.zero_index]
        firsts = {lat.section_class(a, lat.zero_index): a for a in reversed(lat.atom_indices())}
        for a in firsts.values():
            s = lat.subs[a]
            assert lat.hom_count(a, a) == section_hom_count(s, zero, s, zero), (ctx.instance_id, a)
        classes += len(firsts)
    assert classes > 800


def test_section_class_needs_a_cover(z12_module):
    lat = enumerate_submodules(z12_module)  # members of sizes 1, 2, 3, 4, 6, 12
    assert lat.section_class(1, 0) != lat.section_class(2, 0)  # Z/2 and Z/3
    # not covers: two sections of length 2, a reversed pair, an equal pair,
    # and <3> over <4>, which it does not contain
    for a, b in [(3, 0), (5, 1), (0, 1), (1, 1), (4, 3)]:
        with pytest.raises(StructureError, match="covering"):
            lat.section_class(a, b)


def _f2_4():
    reg = regular_module(ring_gf(2, 1))
    return direct_sum(direct_sum(reg, reg), direct_sum(reg, reg))


def _z4_squared():
    reg = regular_module(ring_zmod(4))
    return direct_sum(reg, reg)


@pytest.mark.parametrize(
    "build",
    [_f2_4, _z4_squared, lambda: zmod_sum(8, [8, 2]), lambda: zmod_sum(9, [9, 9])],
    ids=["F2^4", "Z4^2", "Z8+Z2", "Z9+Z9"],
)
def test_order_kernel_matches_brute_force(build):
    module = build()
    lat = enumerate_submodules(module)
    subsets = brute_submodules_grow(module)
    assert [s.members for s in lat.subs] == subsets  # one canonical order
    _, up, _, _, heights = brute_order(subsets)
    assert (lat._order.up, lat._order.heights) == (up, heights)
    n, zero, full = len(subsets), 0, len(subsets) - 1
    covers = brute_covers(subsets)
    assert sorted((i, j) for i in range(n) for j in lat.covers_in(i, full)) == covers
    assert lat.atom_indices() == [j for i, j in covers if i == zero]
    assert lat.maximal_indices() == [i for i, j in covers if j == full]
    assert [i for i in range(n) if lat.is_simple(i)] == lat.atom_indices()
    assert [i for i in range(n) if lat.is_maximal(i)] == lat.maximal_indices()
    assert lat.chain_lengths() == [brute_longest_chain(subsets, zero, i) for i in range(n)]
    assert lat.longest_chains == (
        [brute_longest_chain(subsets, zero, i) for i in range(n)],
        [brute_longest_chain(subsets, i, full) for i in range(n)],
    )
    sets = [frozenset(s) for s in subsets]
    nonzero = [c for c in sets if len(c) > 1]
    for i, s in enumerate(sets):
        inside = [c for c in nonzero if c <= s]
        assert lat.is_essential(i) == all(len(c & s) > 1 for c in nonzero)
        assert lat.is_uniform(i) == (bool(inside) and all(len(c & d) > 1 for c in inside for d in inside))
    assert lat.is_chain() == all(c <= d or d <= c for c in sets for d in sets)
    for lo in range(n):
        for hi in range(n):
            inside = [c for c in sets if sets[lo] <= c <= sets[hi]]
            assert lat.interval_size(lo, hi) == len(inside)
            if inside:
                assert lat.covers_in(lo, hi) == [j for i, j in covers if i == lo and sets[j] <= sets[hi]]
        want = next(
            (a for a in lat.atom_indices()
             if sets[a] & sets[lo] == {0} and naive_closure(module, sets[a] | sets[lo]) == sets[full]),
            None,
        )
        assert lat.simple_complement(lo) == want


def _bits(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def test_order_kernel_matches_brute_order_on_zoo_and_census(named_contexts, family16_contexts):
    for ctx in _contexts(named_contexts, family16_contexts):
        lat, cid = ctx.lattice, ctx.instance_id
        down, up, lower, upper, heights = brute_order([s.members for s in lat.subs])
        assert (lat._order.up, lat._order.heights) == (up, heights), cid
        zero, full = lat.zero_index, lat.full_index
        atoms = upper[zero]
        assert lat.atom_indices() == _bits(atoms), cid
        assert lat.maximal_indices() == _bits(lower[full]), cid
        for i in range(len(lat)):
            assert lat.covers_in(i, full) == _bits(upper[i]), (cid, i)
            below = atoms & down[i]
            assert lat.is_uniform(i) == (below.bit_count() == 1), (cid, i)
            assert lat.is_essential(i) == (below == atoms), (cid, i)
            # an atom outside i meets it in 0, and is a complement of i when
            # M is the only member above both
            want = next((a for a in _bits(atoms & ~down[i]) if up[a] & up[i] == 1 << full), None)
            assert lat.simple_complement(i) == want, (cid, i)
