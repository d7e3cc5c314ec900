import hashlib
import json

import pytest

from modgraph.specs import make_spec
from modgraph.zoo import (
    FILTERS,
    REGULAR,
    _base_ring_specs,
    contexts,
    family_specs,
    named_instance_specs,
)

EXPECTED_NAMED_IDS = [
    "gf(2,1)^2/selfsum",
    "gf(3,1)^2/selfsum",
    "gf(2,2)^2/selfsum",
    "gf(5,1)^2/selfsum",
    "M2(F2)/regular",
    "M2(F3)/regular",
    "M2(F4)/regular",
    "triangular(F4,F2)/regular",
    "triangular(F8,F2)/regular",
    "triangular(F9,F3)/regular",
    "zmod(4)/regular",
    "zmod(8)/regular",
    "zmod(12)/regular",
    "zmod(16)/regular",
    "zmod(36)/regular",
    "polyquot(F2,x^2)/regular",
    "polyquot(F2,x^3)/regular",
    "polyquot(F3,x^2)/regular",
    "polyquot(F2,x^2,x*y,y^2)/regular",
    "polyquot(F3,x^2,x*y,y^2)/regular",
    "zmod(6)/sum(quot(regular;2),quot(regular;3))",
    "zmod(4)/sum(quot(regular;2),regular)",
    "zmod(9)/sum(quot(regular;3),regular)",
    "product(gf(2,1),gf(2,1))/regular",
    "product(gf(3,1),gf(3,1))/regular",
]


def test_named_instance_ids_are_stable(named_contexts):
    assert [c.instance_id for c in named_contexts] == EXPECTED_NAMED_IDS


def test_named_instances_construct_and_have_expected_sizes(ctx_by_id):
    assert ctx_by_id["triangular(F4,F2)/regular"].ring.size == 32
    assert ctx_by_id["M2(F2)/regular"].graph.n == 3
    assert ctx_by_id["M2(F2)/regular"].graph.edge_count() == 0
    assert ctx_by_id["gf(2,1)^2/selfsum"].graph.n == 3
    assert ctx_by_id["gf(2,1)^2/selfsum"].graph.edge_count() == 0


def test_content_hashes_are_reproducible():
    first = {c.instance_id: c.instance.content_hash for c in contexts(named_instance_specs())}
    second = {c.instance_id: c.instance.content_hash for c in contexts(named_instance_specs())}
    assert first == second


def test_named_specs_normalize_deterministically():
    assert named_instance_specs() == named_instance_specs()


def test_family_census_contents():
    ids = {c.instance_id for c in contexts(family_specs(16))}
    for expected in [
        "zmod(4)/regular",
        "zmod(16)/regular",
        "gf(2,2)/regular",
        "gf(2,4)/regular",
        "gf(3,2)/regular",
        "M2(F2)/regular",
        "triangular(F2,F2)/regular",
        "polyquot(F2,x^2)/regular",
        "polyquot(F2,x^2,x*y,y^2)/regular",
        "product(zmod(2),zmod(3))/regular",
    ]:
        assert expected in ids, expected
    assert all(c.ring.size <= 16 for c in contexts(family_specs(16)))


def test_family_is_deterministic():
    a = [s["ring"] for s in family_specs(12)]
    b = [s["ring"] for s in family_specs(12)]
    assert a == b


def _family_specs_by_all_pairs(max_ring_size):
    """family_specs as it was first written: every pair of base rings is
    visited, and those past the bound are dropped."""
    base = _base_ring_specs(max_ring_size)
    specs = [make_spec(ring, REGULAR) for _, ring in base]
    for i, (sa, ra) in enumerate(base):
        for sb, rb in base[i:]:
            if sa * sb <= max_ring_size:
                specs.append(make_spec({"kind": "product", "left": ra, "right": rb}, REGULAR))
    return specs


@pytest.mark.parametrize("max_ring_size", [2, 16, 64, 300])
def test_family_specs_match_the_all_pairs_loop(max_ring_size):
    assert family_specs(max_ring_size) == _family_specs_by_all_pairs(max_ring_size)


@pytest.mark.parametrize("max_ring_size", [2, 16, 64, 300])
def test_family_specs_are_make_spec_output(max_ring_size):
    # key order too: the specs serialize as make_spec's do, unsorted
    got = family_specs(max_ring_size)
    want = [make_spec(spec["ring"], spec["module"]) for spec in got]
    assert [json.dumps(spec) for spec in got] == [json.dumps(spec) for spec in want]


# sha256 of every element label of each ring and module, in order, over the
# named instances and the size:16 family; a change to it is a change to the
# names every command prints
LABEL_SHA256 = {
    "named": "d1c3d17c7fe56971b69c72ee6f1cfbff494c8cb91dae1dc6541ff00ae56e12cd",
    "size:16": "b48f9b946121334338eda396ddca85c6dbc98e8d2ec6c5c2398565b160ff78b4",
}


def test_every_element_label_is_pinned(named_contexts, family16_contexts):
    got = {}
    for family_name, ctxs in [("named", named_contexts), ("size:16", family16_contexts)]:
        digest = hashlib.sha256()
        for ctx in ctxs:
            for obj in (ctx.ring, ctx.module):
                digest.update(("\t".join(obj.label(i) for i in range(obj.size)) + "\n").encode())
        got[family_name] = digest.hexdigest()
    assert got == LABEL_SHA256


def test_triangle_free_filter():
    ids = {c.instance_id for c in contexts(family_specs(16), predicate=FILTERS["triangle-free"])}
    assert "zmod(8)/regular" in ids
    assert "zmod(16)/regular" not in ids  # its chain of three ideals is a triangle


def test_homogeneous_socle_filter():
    ids = {c.instance_id for c in contexts(family_specs(16), predicate=FILTERS["homogeneous-socle-pair"])}
    assert "M2(F2)/regular" in ids
    assert "zmod(12)/regular" not in ids
