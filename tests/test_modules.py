import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgraph.errors import ConstructionError
from modgraph.lattice import enumerate_submodules
from modgraph.modules import (
    FiniteModule,
    Submodule,
    close_subset,
    custom_module,
    cyclic_members,
    direct_sum,
    quotient,
    regular_module,
    submodule_as_module,
    submodule_generated,
)
from modgraph.rings import FiniteRing, ring_gf, ring_zmod

from .oracles import naive_closure


def test_regular_module_acts_by_multiplication():
    z12 = ring_zmod(12)
    reg = regular_module(z12)
    assert np.array_equal(reg.act, z12.mul)
    assert reg.size == 12


def test_direct_sum_shape_and_action():
    f2 = ring_gf(2, 1)
    reg = regular_module(f2)
    m = direct_sum(reg, reg)
    assert m.size == 4
    assert m.label(3) == "(1|1)"
    # scalar 1 fixes everything, scalar 0 kills everything
    assert list(m.act[0]) == [0, 0, 0, 0]
    assert list(m.act[1]) == [0, 1, 2, 3]


def test_quotient_of_z12_by_six():
    reg = regular_module(ring_zmod(12))
    kernel = submodule_generated(reg, [6])
    q, proj = quotient(reg, kernel)
    assert q.size == 6
    assert proj.shape == (12,)
    assert sorted(set(int(p) for p in proj)) == list(range(6))
    for x in range(12):
        assert proj[x] == proj[(x + 6) % 12]


def test_quotient_rejects_non_submodule():
    reg = regular_module(ring_zmod(12))
    with pytest.raises(ConstructionError):
        quotient(reg, [0, 5])


def test_submodule_generated_examples():
    reg = regular_module(ring_zmod(12))
    assert submodule_generated(reg, [4]).members == (0, 4, 8)
    assert submodule_generated(reg, []).members == (0,)
    for x in range(12):
        cyc = submodule_generated(reg, [x])
        assert tuple(cyclic_members(reg, x)) == cyc.members


@given(st.integers(2, 24), st.lists(st.integers(0, 23), max_size=4))
@settings(max_examples=60, deadline=None)
def test_closure_matches_naive_fixpoint(n, gens):
    reg = regular_module(ring_zmod(n))
    gens = [g % n for g in gens]
    got = tuple(int(x) for x in close_subset(reg, gens))
    assert got == tuple(sorted(naive_closure(reg, gens)))


def test_submodule_gens_regenerate_members():
    reg = regular_module(ring_zmod(36))
    sub = submodule_generated(reg, [6, 9])
    lat = enumerate_submodules(reg)
    regen = submodule_generated(reg, list(lat.gens(lat.subs.index(sub))))
    assert regen.members == sub.members


def test_submodule_as_module_restriction():
    reg = regular_module(ring_zmod(12))
    sub = submodule_generated(reg, [2])
    small = submodule_as_module(sub)
    assert small.size == 6
    # position arithmetic mirrors the parent: members are (0,2,4,6,8,10)
    assert small.add[1, 1] == 2  # 2+2=4 sits at position 2
    with pytest.raises(ConstructionError):
        submodule_as_module(Submodule(reg, (0, 2)))


def test_module_axiom_verification_rejects_bad_action():
    z4 = ring_zmod(4)
    reg = regular_module(z4)
    bad_act = reg.act.copy()
    bad_act[2, 3] = 1
    from modgraph.modules import FiniteModule

    with pytest.raises(ConstructionError):
        FiniteModule(z4, reg.add, bad_act)


def test_action_entries_are_range_checked_before_the_int16_cast():
    # 65537 would wrap to 1, the correct Z/2 action of 1 on 1
    z2 = ring_zmod(2)
    with pytest.raises(ConstructionError, match="table entry out of range"):
        custom_module(z2, [[0, 1], [1, 0]], [[0, 0], [0, 65537]])


def test_regular_module_tables_pass_the_full_module_check(named_contexts, family16_contexts):
    # a regular module skips its own check because it reuses the ring's
    # verified tables; copies of those tables defeat the skip
    rings = {id(c.module.ring): c.module.ring for c in [*named_contexts, *family16_contexts]}
    for ring in rings.values():
        assert regular_module(ring).is_regular
        assert not FiniteModule(ring, ring.add.copy(), ring.mul.copy()).is_regular
        bad = ring.mul.copy()
        r = x = ring.size - 1
        bad[r, x] = (bad[r, x] + 1) % ring.size
        with pytest.raises(ConstructionError):
            FiniteModule(ring, ring.add.copy(), bad)


def test_construction_never_freezes_the_callers_arrays():
    r = ring_zmod(4)
    a = r.mul.copy()
    m = FiniteModule(r, r.add.copy(), a)
    assert a.flags.writeable and not m.act.flags.writeable
    add, mul = r.add.copy(), r.mul.copy()
    FiniteRing(add, mul, "table")
    assert add.flags.writeable and mul.flags.writeable
    # read-only arrays are shared, so R_R still reuses its ring's tables
    reg = regular_module(r)
    assert reg.add is r.add and reg.act is r.mul
