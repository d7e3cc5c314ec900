import numpy as np
import pytest

from modgraph import fields
from modgraph.caps import Caps
from modgraph.errors import CapExceeded, ConstructionError
from modgraph.fields import gf_tables, is_prime, smallest_irreducible, subfield_image
from modgraph.rings import ring_gf, ring_triangular
from modgraph.zoo import family_specs, named_instance_specs

from .oracles import brute_gf_tables, brute_subfield_image

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4)]
# every GF(p^k) of order <= 81
FIELDS_TO_81 = [(p, k) for p in range(2, 82) if is_prime(p) for k in range(1, 7) if p**k <= 81]


def _frobenius(mul, e):
    """x -> x^e for every element, by repeated products."""
    out = np.ones(len(mul), dtype=np.intp)
    for _ in range(e):
        out = mul[out, np.arange(len(mul))]
    return out


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


def test_modulus_is_the_first_monic_that_gives_a_field():
    for p, k in FIELDS_TO_81:
        if k == 1:
            continue
        modulus = smallest_irreducible(p, k)
        for code in range(p**k):
            low = [code // p**t % p for t in range(k)]
            _, mul = brute_gf_tables(p, low + [1])
            is_field = all(1 in row for row in mul[1:])
            assert is_field == (tuple(low) + (1,) == modulus), (p, k, code)
            if is_field:
                break


@pytest.mark.parametrize("p,k", FIELDS_TO_81, ids=[f"{p}^{k}" for p, k in FIELDS_TO_81])
def test_tables_match_the_oracle(p, k):
    add, mul, labels = gf_tables(p, k)
    brute_add, brute_mul = brute_gf_tables(p, list(smallest_irreducible(p, k)))
    assert add.tolist() == brute_add and mul.tolist() == brute_mul
    assert len(labels) == p**k and labels[:2] == ["0", "1"]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_every_nonzero_element_invertible(p, k):
    _, mul, _ = gf_tables(p, k)
    inverse = (mul[1:] == 1).argmax(axis=1)
    assert (mul[1:][np.arange(len(inverse)), inverse] == 1).all()
    assert (mul[inverse, np.arange(1, len(mul))] == 1).all()


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_frobenius_is_an_automorphism(p, k):
    add, mul, _ = gf_tables(p, k)
    frob = _frobenius(mul, p)
    assert sorted(frob) == list(range(len(mul)))
    assert np.array_equal(frob[add], add[frob][:, frob])
    assert np.array_equal(frob[mul], mul[frob][:, frob])


def test_f4_non_unit_elements_square_to_each_other():
    _, mul, _ = gf_tables(2, 2)
    assert mul[2, 2] == 3 and mul[3, 3] == 2


def test_z3_arithmetic():
    add, mul, _ = gf_tables(3, 1)
    assert mul[2, 2] == 1
    assert add[2, 2] == 1
    assert add[1, 2] == 0


def test_labels_name_the_power_basis():
    assert gf_tables(3, 2)[2] == ["0", "1", "2", "x", "x+1", "x+2", "2x", "2x+1", "2x+2"]


def test_composite_characteristic_rejected():
    with pytest.raises(ConstructionError):
        ring_gf(4, 1)


def test_size_cap_enforced():
    with pytest.raises(CapExceeded, match="max_ring_size=16"):
        ring_gf(2, 5, caps=Caps(max_ring_size=16))


def test_a_reducible_modulus_is_refused(monkeypatch):
    # x^2 + 1 = (x + 1)^2 over F2: x + 1 has no inverse
    monkeypatch.setattr(fields, "smallest_irreducible", lambda p, k: (1, 0, 1))
    with pytest.raises(ConstructionError, match="no inverse"):
        gf_tables(2, 2)


def _image(p, k, j):
    return subfield_image(p, j, gf_tables(p, k), gf_tables(p, j))


def test_subfield_f16_degree2():
    image = _image(2, 4, 2)
    _, mul, _ = gf_tables(2, 4)
    fixed = set(np.flatnonzero(_frobenius(mul, 4) == np.arange(16)))
    assert set(image.tolist()) == fixed and len(fixed) == 4


def test_subfield_prime_and_identity_cases():
    assert set(_image(2, 2, 1).tolist()) == {0, 1}
    assert _image(2, 2, 2).tolist() == list(range(4))


def test_subfield_embedding_is_a_ring_map():
    add, mul, _ = gf_tables(2, 6)
    sa, sm, _ = gf_tables(2, 3)
    image = subfield_image(2, 3, (add, mul), (sa, sm))
    assert np.array_equal(image[sa], add[image][:, image])
    assert np.array_equal(image[sm], mul[image][:, image])
    assert image[0] == 0 and image[1] == 1


def test_a_wrong_subfield_table_is_refused():
    sa, sm, _ = gf_tables(2, 2)
    swap = np.array([0, 2, 1, 3])  # F4 with 1 and x renamed: a field, but not in the index convention
    with pytest.raises(ConstructionError, match="not an injective ring map"):
        subfield_image(2, 2, gf_tables(2, 4), (swap[sa][swap][:, swap], swap[sm][swap][:, swap]))


def test_subfield_degree_must_divide():
    with pytest.raises(ConstructionError, match="degree 3 does not divide 4"):
        ring_triangular(2, 4, 3)
    with pytest.raises(ConstructionError):
        _image(2, 4, 3)


def test_subfield_images_match_the_oracle():
    used = {
        (r["p"], r["k"], r["subfield_degree"])
        for r in (s["ring"] for s in named_instance_specs() + family_specs(64))
        if r["kind"] == "triangular"
    }
    assert used == {(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)}
    for p, k, j in sorted(used | {(2, 4, 2), (2, 6, 2), (2, 6, 3), (3, 4, 2), (5, 2, 1)}):
        add, mul = brute_gf_tables(p, list(smallest_irreducible(p, k)))
        image = _image(p, k, j)
        assert image.tolist() == brute_subfield_image(add, mul, p, smallest_irreducible(p, j)), (p, k, j)
        fixed = np.flatnonzero(_frobenius(np.array(mul), p**j) == np.arange(p**k))
        assert sorted(image.tolist()) == fixed.tolist(), (p, k, j)
