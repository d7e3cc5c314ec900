import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgraph.caps import Caps
from modgraph.errors import CapExceeded, ConstructionError
from modgraph.fields import gf_build, smallest_irreducible, subfield
from modgraph.rings import ring_from_field

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4)]


@pytest.mark.parametrize(
    "p,k,expected",
    [
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 1, 0, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
        (3, 2, (1, 0, 1)),
        (5, 1, (0, 1)),
    ],
)
def test_modulus_is_first_irreducible(p, k, expected):
    assert smallest_irreducible(p, k) == expected
    assert gf_build(p, k).modulus == expected


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_every_nonzero_element_invertible(p, k):
    f = gf_build(p, k)
    for a in range(1, f.size):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_frobenius_is_an_automorphism(p, k):
    f = gf_build(p, k)
    images = {f.frobenius(a) for a in range(f.size)}
    assert images == set(range(f.size))
    for a in range(f.size):
        for b in range(f.size):
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))


def test_f4_non_unit_elements_square_to_each_other():
    f4 = gf_build(2, 2)
    others = [a for a in range(4) if a not in (0, 1)]
    x, y = others
    assert f4.mul(x, x) == y
    assert f4.mul(y, y) == x


def test_z3_arithmetic():
    f3 = gf_build(3, 1)
    assert f3.mul(2, 2) == 1
    assert f3.add(2, 2) == 1
    assert f3.add(1, 2) == 0


def test_tables_match_scalar_ops():
    f8 = gf_build(2, 3)
    add, mul = f8.add_table(), f8.mul_table()
    for a in range(8):
        for b in range(8):
            assert int(add[a, b]) == f8.add(a, b)
            assert int(mul[a, b]) == f8.mul(a, b)


def test_cached_tables_are_read_only():
    # every caller gets the same cached arrays, so a write must not go through
    f4 = gf_build(2, 2)
    for table in (f4.add_table(), f4.mul_table()):
        with pytest.raises(ValueError):
            table[2, 3] = 0
    ring = ring_from_field(f4)
    assert int(ring.add[2, 3]) == f4.add(2, 3)


def test_tables_do_not_keep_the_field_alive():
    f8 = gf_build(2, 3)
    f8.add_table()
    f8.mul_table()
    ref = weakref.ref(f8)
    del f8
    gc.collect()
    assert ref() is None


@given(st.integers(0, 26))
@settings(max_examples=27, deadline=None)
def test_encode_coeffs_roundtrip(i):
    f27 = gf_build(3, 3)
    assert f27.encode(f27.coeffs(i)) == i


def test_composite_characteristic_rejected():
    with pytest.raises(ConstructionError):
        gf_build(4, 1)


def test_size_cap_enforced():
    with pytest.raises(CapExceeded, match="max_ring_size=16"):
        gf_build(2, 5, caps=Caps(max_ring_size=16))


def test_subfield_f16_degree2():
    f16 = gf_build(2, 4)
    emb = subfield(f16, 2)
    assert emb.subfield.size == 4
    fixed = {x for x in range(16) if f16.pow(x, 4) == x}
    assert set(emb.image) == fixed
    assert len(fixed) == 4


def test_subfield_prime_and_identity_cases():
    f4 = gf_build(2, 2)
    prime = subfield(f4, 1)
    assert set(prime.image) == {0, 1}
    whole = subfield(f4, 2)
    assert list(whole.image) == list(range(4))


def test_subfield_embedding_is_a_ring_map():
    f64 = gf_build(2, 6)
    emb = subfield(f64, 3)
    sub = emb.subfield
    for a in range(sub.size):
        for b in range(sub.size):
            assert emb(sub.add(a, b)) == f64.add(emb(a), emb(b))
            assert emb(sub.mul(a, b)) == f64.mul(emb(a), emb(b))
    assert emb(0) == 0 and emb(1) == 1


def test_subfield_degree_must_divide():
    with pytest.raises(ConstructionError):
        subfield(gf_build(2, 4), 3)
