from itertools import product

import pytest

from modgraph import lattice as lattice_mod
from modgraph import modules
from modgraph.errors import CapExceeded, StructureError
from modgraph.caps import Caps
from modgraph.lattice import (
    count_iso_simple,
    end_size,
    enumerate_submodules,
    find_double_simple_image,
    hom_count_simples,
    ideal_product,
    is_simple_module,
    iso_count_simples,
    prime_radical,
    section_hom_count,
    simples_isomorphic,
    whole_submodule,
)
from modgraph.modules import direct_sum, quotient, regular_module, submodule_generated
from modgraph.rings import (
    ring_gf,
    ring_matrix,
    ring_poly_quot,
    ring_product,
    ring_triangular,
    ring_zmod,
)

from .oracles import (
    abelian_p_group_subgroup_count,
    brute_endomorphism_count,
    brute_goldie,
    brute_hom_count,
    brute_greedy_generators,
    brute_ideal_product,
    brute_socle_pair,
    brute_submodules_grow,
    brute_submodules_subsets,
    naive_closure,
    subspace_count,
)


def vector_space(q_p, q_k, dim):
    reg = regular_module(ring_gf(q_p, q_k))
    m = reg
    for _ in range(dim - 1):
        m = direct_sum(m, reg)
    return m


def oracle_modules():
    out = [regular_module(ring_zmod(n)) for n in (2, 4, 6, 8, 9, 12, 16, 36, 64)]
    out.append(vector_space(2, 1, 2))
    out.append(vector_space(3, 1, 2))
    out.append(regular_module(ring_poly_quot(2, ["x^2", "x*y", "y^2"], ["x", "y"])))
    out.append(regular_module(ring_triangular(2, 2, 1)))
    out.append(regular_module(ring_triangular(2, 2, 2)))  # carrier 64
    reg4 = regular_module(ring_zmod(4))
    half, _ = quotient(reg4, submodule_generated(reg4, [2]))
    out.append(direct_sum(half, reg4))
    return out


@pytest.mark.parametrize("module", oracle_modules(), ids=lambda m: f"{m.meta.get('kind')}-{m.size}")
def test_enumeration_matches_brute_force(module):
    lat = enumerate_submodules(module)
    got = sorted((s.members for s in lat.subs), key=lambda t: (len(t), t))
    assert got == brute_submodules_grow(module)
    if module.size <= 16:
        assert got == brute_submodules_subsets(module)


def zmod_sum(n, orders):
    """Z/o_1 + Z/o_2 + ... as a Z/n-module, for divisors o_i of n."""
    reg = regular_module(ring_zmod(n))
    out = None
    for o in orders:
        part = reg if o == n else quotient(reg, submodule_generated(reg, [o]))[0]
        out = part if out is None else direct_sum(out, part)
    return out


@pytest.mark.parametrize(
    "n,orders,p,mu,count",
    [
        (4, [4], 2, [2], 3),
        (4, [4, 4], 2, [2, 2], 15),
        (4, [4, 4, 4], 2, [2, 2, 2], 129),
        (4, [4, 4, 4, 4], 2, [2, 2, 2, 2], 1983),
        (8, [8, 2], 2, [3, 1], 11),
        (9, [9, 9], 3, [2, 2], 23),
    ],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, list) else str(v),
)
def test_abelian_p_group_lattice_sizes(n, orders, p, mu, count):
    # Z/n-submodules of a Z/n-module are its subgroups
    lat = enumerate_submodules(zmod_sum(n, orders))
    assert len(lat) == abelian_p_group_subgroup_count(p, mu) == count


@pytest.mark.parametrize("module", [vector_space(2, 1, 4), zmod_sum(4, [4, 4])], ids=["F2^4", "Z4^2"])
def test_join_matches_closure_oracle(module):
    lat = enumerate_submodules(module)
    pos = {frozenset(s.members): k for k, s in enumerate(lat.subs)}
    for i, a in enumerate(lat.subs):
        for j, b in enumerate(lat.subs):
            assert lat.join_index(i, j) == pos[naive_closure(module, a.members + b.members)]


def test_z12_lattice_contents(z12_module):
    lat = enumerate_submodules(z12_module)
    assert [s.size for s in lat.subs] == [1, 2, 3, 4, 6, 12]
    members = {s.members for s in lat.subs}
    assert (0, 6) in members and (0, 4, 8) in members


def test_meet_join_examples(z12_module):
    lat = enumerate_submodules(z12_module)
    s3, s4, s6 = (lat.subs.index(submodule_generated(z12_module, [g])) for g in (3, 4, 6))
    assert lat.subs[lat.meet_index(s3, s4)].members == (0,)
    assert lat.subs[lat.join_index(s4, s6)].members == (0, 2, 4, 6, 8, 10)
    assert lat.meet_index(s3, s3) == s3


def test_lattice_closed_under_meet_and_join(named_contexts):
    for ctx in named_contexts:
        lat = ctx.lattice
        for i in range(len(lat)):
            for j in range(i, len(lat)):
                assert lat.meet_index(i, j) is not None
                assert lat.join_index(i, j) is not None


def test_modular_law_on_small_lattices():
    for module in (regular_module(ring_zmod(12)), vector_space(2, 1, 3)):
        lat = enumerate_submodules(module)
        n = len(lat)
        for a in range(n):
            for b in range(n):
                if not lat.leq(b, a):
                    continue
                for c in range(n):
                    left = lat.meet_index(a, lat.join_index(b, c))
                    right = lat.join_index(b, lat.meet_index(a, c))
                    assert left == right


@pytest.mark.parametrize("q,d", [(2, 1), (2, 2), (2, 3), (2, 6), (3, 1), (3, 2), (3, 3), (3, 5)])
def test_subspace_counts_match_gaussian_binomials(q, d):
    lat = enumerate_submodules(vector_space(q, 1, d))
    assert len(lat) == subspace_count(d, q)


@pytest.mark.parametrize("q,d", [(3, 4), (2, 6)], ids=["F3^4", "F2^6"])
def test_order_kernel_closed_forms_on_vector_spaces(q, d):
    # a k-dimensional subspace of F_q^d has height k, one upper cover per
    # line of the quotient F_q^(d-k) and one lower cover per hyperplane
    lat = enumerate_submodules(vector_space(q, 1, d))
    upper = [lat.covers_in(i, lat.full_index) for i in range(len(lat))]
    lower = [0] * len(lat)
    for covers in upper:
        for j in covers:
            lower[j] += 1
    dims = {q**k: k for k in range(d + 1)}
    for i, sub in enumerate(lat.subs):
        k = dims[sub.size]
        assert lat.chain_lengths()[i] == k
        assert len(upper[i]) == (q ** (d - k) - 1) // (q - 1)
        assert lower[i] == (q**k - 1) // (q - 1)


def test_essential_uniform_predicates():
    lat4 = enumerate_submodules(regular_module(ring_zmod(4)))
    inner = next(i for i, s in enumerate(lat4.subs) if s.size == 2)
    assert lat4.is_essential(inner)
    lat8 = enumerate_submodules(regular_module(ring_zmod(8)))
    assert lat8.is_uniform(lat8.full_index)
    assert lat8.is_chain()
    latv = enumerate_submodules(vector_space(2, 1, 2))
    for i, s in enumerate(latv.subs):
        if s.size == 2:
            assert not latv.is_essential(i)
            assert latv.is_uniform(i)


def test_socle_goldie_length_examples(z12_module):
    lat = enumerate_submodules(z12_module)
    soc = lat.subs[lat.socle_index()]
    assert soc.members == (0, 2, 4, 6, 8, 10)
    dim, basis = lat.goldie_dimension()
    assert dim == 2 and len(basis) == 2
    assert lat.composition_length() == 3
    lat8 = enumerate_submodules(regular_module(ring_zmod(8)))
    assert lat8.composition_length() == 3
    latv = enumerate_submodules(vector_space(2, 1, 2))
    assert latv.socle_index() == latv.full_index


def test_all_maximal_chains_have_equal_length(named_contexts):
    """Composition series sanity: every maximal chain has the same length."""
    for ctx in named_contexts:
        lat = ctx.lattice
        if len(lat) > 16:
            continue
        total = lat.composition_length()
        stack = [(lat.zero_index, 0)]
        while stack:
            node, depth = stack.pop()
            covers = [
                j
                for j in range(len(lat))
                if j != node
                and lat.leq(node, j)
                and not any(
                    k not in (node, j) and lat.leq(node, k) and lat.leq(k, j)
                    for k in range(len(lat))
                )
            ]
            if node == lat.full_index:
                assert depth == total, ctx.instance_id
            for j in covers:
                stack.append((j, depth + 1))


def test_socle_is_essential_everywhere(named_contexts):
    for ctx in named_contexts:
        lat = ctx.lattice
        assert lat.is_essential(lat.socle_index()), ctx.instance_id


def test_goldie_matches_brute_force():
    for module in oracle_modules():
        if module.size > 32:
            continue
        lat = enumerate_submodules(module)
        dim, _ = lat.goldie_dimension()
        assert dim == brute_goldie(lat), module.meta


def test_iso_counting_examples():
    f3 = regular_module(ring_gf(3, 1))
    assert count_iso_simple(f3, f3) == 2
    assert end_size(whole_submodule(f3)) == 3
    z6 = regular_module(ring_zmod(6))
    k2 = submodule_generated(z6, [2])
    k3 = submodule_generated(z6, [3])
    q2, _ = quotient(z6, k2)
    q3, _ = quotient(z6, k3)
    assert count_iso_simple(q2, q3) == 0
    assert not simples_isomorphic(whole_submodule(q2), whole_submodule(q3))


def test_endomorphism_count_against_full_map_check(named_contexts):
    seen = 0
    for ctx in named_contexts:
        lat = ctx.lattice
        for a in lat.atom_indices():
            sub = lat.subs[a]
            if sub.size > 9:
                continue
            assert end_size(sub) == brute_endomorphism_count(sub), ctx.instance_id
            # nonzero endomorphisms of a simple module are automorphisms
            assert iso_count_simples(sub, sub) == end_size(sub) - 1
            seen += 1
    assert seen > 10


def test_hom_count_matches_the_validated_free_function(named_contexts, family16_contexts):
    # Lattice.hom_count trusts the order kernel's atoms; hom_count_simples
    # re-proves simplicity, and brute_hom_count tests every candidate map
    # without the package, on every ordered atom pair
    pairs = 0
    for ctx in [*named_contexts, *family16_contexts]:
        lat = ctx.lattice
        atoms = lat.atom_indices()
        for a in atoms:
            for b in atoms:
                want = brute_hom_count(lat.subs[a], lat.subs[b])
                assert lat.hom_count(a, b) == hom_count_simples(lat.subs[a], lat.subs[b]) == want, ctx.instance_id
                pairs += 1
            if lat.subs[a].size <= 9:
                assert lat.hom_count(a, a) == brute_endomorphism_count(lat.subs[a]), ctx.instance_id
        for i in (lat.zero_index, lat.full_index):
            if not lat.is_simple(i):
                with pytest.raises(StructureError, match="atom"):
                    lat.hom_count(i, atoms[0])
                with pytest.raises(StructureError, match="atom"):
                    lat.hom_count(atoms[0], i)
    assert pairs > 500


def test_socle_pair_matches_oracle(named_contexts, family16_contexts):
    pairs = 0
    for ctx in [*named_contexts, *family16_contexts]:
        lat = ctx.lattice
        want = brute_socle_pair([s.members for s in lat.subs])
        assert lat.socle_pair == want, ctx.instance_id
        pairs += want is not None
    assert pairs >= 10


def test_generators_match_greedy_closure_oracle(named_contexts, family16_contexts):
    checked = 0
    for ctx in [*named_contexts, *family16_contexts]:
        lat = ctx.lattice
        for i, sub in enumerate(lat.subs):
            assert lat.gens(i) == brute_greedy_generators(lat.module, sub.members), ctx.instance_id
            checked += 1
    assert checked > 400


def test_each_member_is_built_from_its_canonical_parent(named_contexts, family16_contexts):
    # the parent recorded for N != 0 is S, the member whose generators are
    # all of N's but the last, x, and N is the closure of S and x
    checked = 0
    for ctx in [*named_contexts, *family16_contexts]:
        lat = ctx.lattice
        by_gens = {lat.gens(i): i for i in range(len(lat))}
        for i, sub in enumerate(lat.subs):
            if i == lat.zero_index:
                continue
            parent, gens = lat._parents[sub.bits]
            *rest, x = lat.gens(i)
            s = lat.subs[by_gens[tuple(rest)]]
            assert (parent, gens) == (s.bits, lat.gens(i)), ctx.instance_id
            assert set(sub.members) == set(naive_closure(lat.module, [*s.members, x])), ctx.instance_id
            checked += 1
    assert checked > 300


def test_describing_members_closes_nothing(monkeypatch, named_contexts):
    def closed(*args):
        raise AssertionError("a member was closed again to find its generators")

    monkeypatch.setattr(modules, "close_subset", closed)
    for ctx in named_contexts:
        lat = enumerate_submodules(ctx.module)
        labels = [lat.describe(i) for i in range(len(lat))]
        assert labels[lat.zero_index] == "<0>" and len(set(labels)) == len(lat), ctx.instance_id


def test_pair_of_simples_vertex_counts():
    # isomorphic pair: |End|+1 nontrivial submodules; distinct pair: exactly 2
    f3 = regular_module(ring_gf(3, 1))
    lat = enumerate_submodules(direct_sum(f3, f3))
    assert len(lat) - 2 == end_size(whole_submodule(f3)) + 1 == 4
    z6 = regular_module(ring_zmod(6))
    q2, _ = quotient(z6, submodule_generated(z6, [2]))
    q3, _ = quotient(z6, submodule_generated(z6, [3]))
    lat2 = enumerate_submodules(direct_sum(q2, q3))
    assert len(lat2) - 2 == 2


def test_iso_count_requires_simple_input():
    z4 = regular_module(ring_zmod(4))
    assert not is_simple_module(z4)
    with pytest.raises(StructureError):
        count_iso_simple(z4, z4)


def test_find_double_simple_image(f2_squared, z2_x_z4):
    lat = enumerate_submodules(f2_squared)
    witness = find_double_simple_image(lat)
    assert witness is not None and witness["kernel"] == lat.zero_index
    # the pair is two member indices A != B, each covering K
    a, b = witness["pair"]
    assert a < b and lat.covers_in(lat.zero_index, lat.full_index)[:2] == [a, b]
    assert lat.subs[a].size == lat.subs[b].size == 2
    assert quotient(f2_squared, lat.subs[witness["kernel"]])[0].size == 4
    z8 = regular_module(ring_zmod(8))
    assert find_double_simple_image(enumerate_submodules(z8)) is None
    lat2 = enumerate_submodules(z2_x_z4)
    witness2 = find_double_simple_image(lat2)
    # the module itself already contains an isomorphic direct pair, so the
    # first kernel in canonical order is zero
    assert witness2 is not None and witness2["kernel"] == lat2.zero_index
    # Q1 + Q2 + Q2 + Q1 for the two simples of F2 x F2: its atoms come in the
    # classes A B B B A A, and the pair is the first atom with a later copy,
    # then its first later copy, not the first repeat of a class
    reg = regular_module(ring_product(ring_gf(2, 1), ring_gf(2, 1)))
    q1, q2 = (quotient(reg, submodule_generated(reg, [e]))[0] for e in (2, 3))
    lat3 = enumerate_submodules(direct_sum(direct_sum(q1, q2), direct_sum(q2, q1)))
    atoms = lat3.atom_indices()
    classes = [lat3.section_class(a, lat3.zero_index) for a in atoms]
    assert [c == classes[0] for c in classes] == [True, False, False, False, True, True]
    assert len(set(classes)) == 2
    assert find_double_simple_image(lat3) == {"kernel": lat3.zero_index, "pair": (atoms[0], atoms[4])}


def _double_simple_image_by_hom_counts(lat):
    """The first kernel K and the first pair of covers A < B of K, in
    canonical order, with #Hom(A/K, B/K) > 1."""
    subs = lat.subs
    for k in range(len(lat)):
        covers = lat.covers_in(k, lat.full_index)
        for i, a in enumerate(covers):
            for b in covers[i + 1:]:
                if section_hom_count(subs[a], subs[k], subs[b], subs[k]) > 1:
                    return {"kernel": k, "pair": (a, b)}
    return None


def test_double_simple_image_matches_pairwise_hom_counts(named_contexts, family16_contexts):
    ctxs, found = [*named_contexts, *family16_contexts], 0
    for ctx in ctxs:
        got = find_double_simple_image(ctx.lattice)
        assert got == _double_simple_image_by_hom_counts(ctx.lattice), ctx.instance_id
        found += got is not None
    assert 10 < found < len(ctxs)


def _radical(ring):
    lat = enumerate_submodules(regular_module(ring))
    return lat.subs[prime_radical(lat)]


def test_prime_radical_examples(triangular_f4):
    assert _radical(ring_zmod(12)).members == (0, 6)
    assert _radical(ring_matrix(2, 1, 2)).members == (0,)
    assert _radical(ring_poly_quot(2, ["x^2"], ["x"])).size == 2
    lat = enumerate_submodules(triangular_f4)
    assert lat.subs[prime_radical(lat)].size == 4  # the strictly-upper-triangular part


def test_prime_radical_needs_the_regular_module(f2_squared):
    with pytest.raises(StructureError, match="regular module"):
        prime_radical(enumerate_submodules(f2_squared))


def test_ideal_products_match_the_oracle(named_contexts, family16_contexts):
    # the join of the cyclic left ideals R(xy) is the additive closure of the xy
    checked = 0
    for ctx in [*named_contexts, *family16_contexts]:
        if not ctx.is_regular_instance():
            continue
        lat, add, mul = ctx.lattice, ctx.ring.add.tolist(), ctx.ring.mul.tolist()
        for a, b in product(range(len(lat)), repeat=2):
            got = lat.subs[ideal_product(lat, a, b)].members
            want = brute_ideal_product(add, mul, lat.subs[a].members, lat.subs[b].members)
            assert set(got) == want, (ctx.instance_id, a, b)
            checked += 1
    assert checked > 1000


def test_ideal_product_needs_the_regular_module(f2_squared):
    lat = enumerate_submodules(f2_squared)
    with pytest.raises(StructureError, match="ideal_product needs .* regular module"):
        ideal_product(lat, lat.full_index, lat.full_index)


def test_submodule_count_cap():
    with pytest.raises(CapExceeded):
        enumerate_submodules(vector_space(2, 1, 4), Caps(max_submodules=10))


def test_cap_counts_every_submodule():
    # every submodule of Z/8 is cyclic, so the cap must count those too
    with pytest.raises(CapExceeded, match="max_submodules=2"):
        enumerate_submodules(regular_module(ring_zmod(8)), Caps(max_submodules=2))
    assert len(enumerate_submodules(regular_module(ring_zmod(8)), Caps(max_submodules=4))) == 4


def test_one_submodule_per_batch_gives_the_same_lattice(monkeypatch, named_contexts, family16_contexts):
    # a budget of one cell leaves a single S in every batch of a size level
    modules_ = [c.module for c in [*named_contexts, *family16_contexts]]
    modules_ += [zmod_sum(8, [8, 2]), zmod_sum(9, [9, 9])]
    default = [enumerate_submodules(m) for m in modules_]
    monkeypatch.setattr(lattice_mod, "_BATCH_CELLS", 1)
    for m, want in zip(modules_, default):
        got = enumerate_submodules(m)
        assert [(s.bits, s.members) for s in got.subs] == [(s.bits, s.members) for s in want.subs]
        assert tuple(got._order) == tuple(want._order)


def test_enumeration_hands_each_submodule_its_bitset(monkeypatch):
    def rebuilt(members):
        raise AssertionError("a bitset was rebuilt")

    module = zmod_sum(8, [8, 2])
    monkeypatch.setattr(modules, "bits_of", rebuilt)
    lat = enumerate_submodules(module)
    assert len(lat) == 11
    for s in lat.subs:
        assert s.bits == sum(1 << x for x in s.members)
        assert all(type(x) is int for x in s.members)
