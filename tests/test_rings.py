import numpy as np
import pytest

from modgraph import fields, rings, specs
from modgraph.caps import Caps
from modgraph.errors import CapExceeded, ConstructionError
from modgraph.fields import gf_tables
from modgraph.lattice import enumerate_submodules
from modgraph.modules import direct_sum, regular_module
from modgraph.rings import (
    parse_monomial,
    ring_gf,
    ring_from_tables,
    ring_matrix,
    ring_poly_quot,
    ring_product,
    ring_triangular,
    ring_zmod,
)
from modgraph.solvers import max_clique
from modgraph.zoo import family_specs

from .oracles import brute_additive_closure, brute_additive_generators, brute_poly_quot_tables


def all_test_rings():
    return [
        ring_zmod(12),
        ring_gf(2, 2),
        ring_matrix(2, 1, 2),
        ring_triangular(2, 2, 1),
        ring_product(ring_zmod(2), ring_zmod(3)),
        ring_poly_quot(2, ["x^2", "x*y", "y^2"], ["x", "y"]),
        ring_poly_quot(3, ["x^2"], ["x"]),
    ]


@pytest.mark.parametrize("ring", all_test_rings(), ids=lambda r: r.backend_tag)
def test_zero_and_one_conventions(ring):
    idx = np.arange(ring.size)
    assert np.array_equal(ring.add[0], idx)
    assert np.array_equal(ring.mul[1], idx)
    assert np.array_equal(ring.mul[:, 1], idx)


def test_zmod_arithmetic():
    z12 = ring_zmod(12)
    assert z12.mul[6, 2] == 0
    assert z12.add[7, 8] == 3
    assert z12.label(5) == "5"


def test_matrix_ring_against_naive_multiplication():
    ring = ring_matrix(2, 2, 2)
    fa, fm, _ = gf_tables(2, 2)
    q = 4
    one_raw = 1 + q**3  # identity matrix under the raw row-major encoding

    def to_raw(i):  # undo the zero/one renumber transposition
        return one_raw if i == 1 else (1 if i == one_raw else i)

    def entries(raw):
        return [(raw // q**t) % q for t in range(4)]

    rng = np.random.default_rng(7)
    for i, j in rng.integers(0, ring.size, size=(40, 2)):
        a, b = entries(to_raw(int(i))), entries(to_raw(int(j)))
        c = [
            fa[fm[a[0], b[0]], fm[a[1], b[2]]],
            fa[fm[a[0], b[1]], fm[a[1], b[3]]],
            fa[fm[a[2], b[0]], fm[a[3], b[2]]],
            fa[fm[a[2], b[1]], fm[a[3], b[3]]],
        ]
        raw = sum(c[t] * q**t for t in range(4))
        assert to_raw(int(ring.mul[i, j])) == raw


def test_poly_quot_tables_match_polynomial_arithmetic():
    rings = [s["ring"] for s in family_specs(64) if s["ring"]["kind"] == "poly_quot"]
    assert len(rings) == 10
    for spec in rings:
        ring = ring_poly_quot(spec["p"], spec["relations"], spec["variables"])
        add, mul = brute_poly_quot_tables(spec["p"], spec["variables"], spec["relations"])
        assert ring.add.tolist() == add and ring.mul.tolist() == mul, spec


def test_triangular_embeds_in_full_matrix_ring():
    tri = ring_triangular(2, 2, 1)
    full = ring_matrix(2, 2, 2)
    by_label = {full.label(i): i for i in range(full.size)}
    embed = [by_label[tri.label(i)] for i in range(tri.size)]
    for i in range(tri.size):
        for j in range(tri.size):
            assert embed[tri.add[i, j]] == full.add[embed[i], embed[j]]
            assert embed[tri.mul[i, j]] == full.mul[embed[i], embed[j]]


def test_triangular_sizes():
    assert ring_triangular(2, 2, 1).size == 32
    assert ring_triangular(3, 2, 1).size == 243
    assert ring_triangular(2, 2, 2).size == 64


def test_product_ring_componentwise():
    r = ring_product(ring_zmod(2), ring_zmod(3))
    assert r.size == 6
    lbl = {r.label(i): i for i in range(6)}
    a, b = lbl["(1,2)"], lbl["(1,1)"]
    assert r.mul[a, b] == lbl["(1,2)"]
    assert r.add[a, b] == lbl["(0,0)"]


def test_poly_quot_nilpotents():
    r = ring_poly_quot(2, ["x^2"], ["x"])
    assert r.size == 4
    x = next(i for i in range(4) if r.label(i) == "x")
    assert r.mul[x, x] == 0
    rxy = ring_poly_quot(2, ["x^2", "x*y", "y^2"], ["x", "y"])
    assert rxy.size == 8
    x = next(i for i in range(8) if rxy.label(i) == "x")
    y = next(i for i in range(8) if rxy.label(i) == "y")
    assert rxy.mul[x, y] == 0 and rxy.mul[x, x] == 0 and rxy.mul[y, y] == 0


def test_poly_quot_rejects_non_nilpotent_variable():
    with pytest.raises(ConstructionError, match="closure failure"):
        ring_poly_quot(2, ["x*y"], ["x", "y"])


def test_parse_monomial():
    assert parse_monomial("x^2", ["x", "y"]) == (2, 0)
    assert parse_monomial("x*y", ["x", "y"]) == (1, 1)
    with pytest.raises(ConstructionError):
        parse_monomial("z", ["x", "y"])
    for text in ["x^0", "x^", "x^a", "x^1.5", "x^+1", "x^1_0", "x^\u0663"]:  # the last an Arabic-Indic 3
        with pytest.raises(ConstructionError):
            parse_monomial(text, ["x"])


def test_size_cap():
    with pytest.raises(CapExceeded):
        ring_zmod(5000)
    with pytest.raises(CapExceeded):
        ring_matrix(2, 3, 2, caps=Caps(max_ring_size=1024))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda c: ring_zmod(9, caps=c), "max_ring_size=8"),
        (lambda c: ring_gf(2, 4, caps=c), "max_ring_size=8"),
        (lambda c: ring_matrix(2, 1, 2, caps=c), "max_ring_size=8"),
        (lambda c: ring_triangular(2, 2, 1, caps=c), "max_ring_size=8"),
        (lambda c: ring_product(ring_zmod(3), ring_zmod(3), caps=c), "max_ring_size=8"),
        (lambda c: ring_poly_quot(2, ["x^4"], ["x"], caps=c), "max_ring_size=8"),
        (lambda c: ring_from_tables(ring_zmod(9).add, ring_zmod(9).mul, caps=c), "max_ring_size=8"),
        (lambda c: regular_module(ring_zmod(9), caps=c), "max_ring_size=8"),
        (lambda c: direct_sum(*[regular_module(ring_zmod(3))] * 2, caps=c), "max_ring_size=8"),
        (lambda c: max_clique(9, [0] * 9, caps=c), "max_exact_vertices=8"),
        # F2 + F2 has five subspaces
        (lambda c: enumerate_submodules(direct_sum(*[regular_module(ring_gf(2, 1))] * 2), c.override(max_submodules=4)),
         "max_submodules=4"),
        (lambda c: ring_gf(11, 1, caps=c), "max_ring_size=8"),
        # at least 1, x, y and z lie outside the ideal: 2^4 elements
        (lambda c: ring_poly_quot(2, ["x^2", "y^2", "z^2"], caps=c), "max_ring_size=8"),
    ],
    ids=["zmod", "gf", "matrix", "triangular", "product", "poly_quot", "table",
         "module", "direct_sum", "solver", "submodules", "characteristic", "quotient-bound"],
)
def test_every_cap_names_its_field(build, field):
    caps = Caps(max_ring_size=8, max_exact_vertices=8)
    with pytest.raises(CapExceeded, match=field):
        build(caps)


def test_quotient_cap_is_checked_before_the_exponent_box_is_formed(monkeypatch):
    def no_box(*args):
        raise AssertionError("the exponent box was formed before the cap check")

    monkeypatch.setattr(rings, "product", no_box)
    with pytest.raises(CapExceeded, match="quotient ring size >= 2048 exceeds cap max_ring_size=1024"):
        ring_poly_quot(2, ["x^100000", "y^2"])


def test_zmod_cap_is_checked_before_any_table(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built before the cap check")

    monkeypatch.setattr(np, "arange", no_tables)
    with pytest.raises(CapExceeded, match="max_ring_size=8"):
        ring_zmod(9, caps=Caps(max_ring_size=8))


def test_triangular_cap_is_checked_before_the_subfield_embedding(monkeypatch):
    def no_embedding(*args):
        raise AssertionError("the subfield embedding was sought before the cap check")

    monkeypatch.setattr(rings, "subfield_image", no_embedding)
    with pytest.raises(CapExceeded, match="max_ring_size=1024"):
        ring_triangular(2, 10, 5)


@pytest.mark.parametrize(
    "ring",
    [{"kind": "triangular", "p": 2, "k": 10, "subfield_degree": 5}, {"kind": "matrix", "p": 2, "k": 5, "m": 2},
     {"kind": "gf", "p": 2, "k": 11}],
    ids=["triangular", "matrix", "gf"],
)
def test_oversized_ring_is_refused_before_its_field_is_built(monkeypatch, ring):
    def no_field(*args):
        raise AssertionError("a modulus was sought or a table formed before the cap check")

    monkeypatch.setattr(fields, "smallest_irreducible", no_field)
    monkeypatch.setattr(fields, "algebra_tables", no_field)
    monkeypatch.setattr(rings, "algebra_tables", no_field)
    with pytest.raises(CapExceeded, match="max_ring_size=1024"):
        specs.build_instance(specs.make_spec(ring, {"kind": "regular"}))


def test_additive_generators_match_fixpoint_oracle(named_contexts, family16_contexts):
    tables = {}
    for ctx in [*named_contexts, *family16_contexts]:
        for table in (ctx.ring.add, ctx.module.add):
            tables.setdefault(table.tobytes(), table)
    assert len(tables) > 40
    for table in tables.values():
        assert tuple(rings._additive_generators(table)) == brute_additive_generators(table)


def test_additive_generators_generate_any_table():
    # commutative tables with identity 0 and no other law, on which a
    # generator's multiples may cycle without reaching 0
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 16, 40):
        for _ in range(10):
            table = rng.integers(0, n, size=(n, n))
            table = np.triu(table) + np.triu(table, 1).T
            table[0], table[:, 0] = np.arange(n), np.arange(n)
            gens = rings._additive_generators(table).tolist()
            assert gens == sorted(set(gens)) and gens[:1] == ([1] if n > 1 else [])
            assert brute_additive_closure(table, gens) == set(range(n))


def test_ring_generators_are_computed_once(monkeypatch):
    sizes = []
    generators = rings._additive_generators

    def counted(add):
        sizes.append(add.shape[0])
        return generators(add)

    monkeypatch.setattr(rings, "_additive_generators", counted)
    module = {"kind": "regular"}
    for _ in range(3):
        module = {"kind": "direct_sum", "left": module, "right": {"kind": "regular"}}
    specs.build_instance(specs.make_spec({"kind": "gf", "p": 3, "k": 1}, module))
    assert sizes == [3, 9, 27, 81]  # the ring once, then each direct sum


def test_table_ring_validation():
    z4 = ring_zmod(4)
    ok = ring_from_tables(z4.add.tolist(), z4.mul.tolist())
    assert ok.size == 4
    bad_mul = z4.mul.copy()
    bad_mul[2, 3] = 1  # breaks distributivity
    with pytest.raises(ConstructionError):
        ring_from_tables(z4.add.tolist(), bad_mul.tolist())


def test_table_entries_are_range_checked_before_the_int16_cast():
    # 65536 would wrap to 0, the correct Z/2 sum 1 + 1
    with pytest.raises(ConstructionError, match="table entry out of range"):
        ring_from_tables([[0, 1], [1, 65536]], [[0, 0], [0, 1]])


def test_huge_characteristic_is_refused_before_any_primality_test(monkeypatch):
    # a ring of characteristic p has at least p elements; trial division on
    # this p would cost ~sqrt(p) steps before the cap could refuse it
    def no_primality_test(p):
        raise AssertionError("is_prime ran before the cap check")

    monkeypatch.setattr(fields, "is_prime", no_primality_test)
    monkeypatch.setattr(rings, "is_prime", no_primality_test)
    p = 10000000000037
    with pytest.raises(CapExceeded, match="max_ring_size=1024"):
        ring_gf(p, 1)
    with pytest.raises(CapExceeded, match="max_ring_size=1024"):
        ring_poly_quot(p, ["x^2"], ["x"])


def test_planted_defects_above_256_are_rejected():
    # the law check is exact at every size; each of these tables passed the
    # sampled check that carriers above 256 used to get
    ring = ring_gf(2, 9)
    for i, j, v in [(100, 200, 17), (2, 2, 9)]:
        bad = ring.mul.copy()
        bad[i, j] = v
        with pytest.raises(ConstructionError, match="associativity/distributivity"):
            ring_from_tables(ring.add, bad)
