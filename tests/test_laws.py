"""The exact ring and module law check, against the exhaustive oracle.

`module_laws_hold` runs one argument of each law over additive generators
only; these tests compare it with the O(n^3) scans of tests/oracles.py on
the zoo, the size-16 census and single-entry corruptions of them, and plant
a defect in a module above 256 elements.
"""

from itertools import product

import numpy as np
import pytest

from modgraph.errors import ConstructionError
from modgraph.fields import gf_tables, subfield_image
from modgraph.modules import custom_module, direct_sum, regular_module
from modgraph.rings import module_laws_hold, ring_gf, ring_from_tables, ring_product, ring_zmod

from .oracles import brute_is_module, brute_is_ring

ORACLE_MAX_RING = 81  # the O(n^3) pure-Python scans take ~0.3 s at 81
CORRUPTION_MAX_RING = 16
CORRUPTIONS_PER_TABLE = 24


def _distinct_rings(contexts):
    seen = {}
    for ctx in contexts:
        ring = ctx.ring
        seen.setdefault((ring.add.tobytes(), ring.mul.tobytes()), ring)
    return sorted(seen.values(), key=lambda r: (r.size, r.add.tobytes(), r.mul.tobytes()))


@pytest.fixture(scope="module")
def rings(named_contexts, family16_contexts):
    return _distinct_rings(named_contexts + family16_contexts)


@pytest.fixture(scope="module")
def non_regular_modules(named_contexts):
    return [ctx.module for ctx in named_contexts if not ctx.module.is_regular]


def test_zoo_and_census_rings_pass_both_checks(rings):
    assert len(rings) > 30
    for ring in rings:
        assert module_laws_hold(ring.add, ring.mul, ring.add, ring.mul), ring
        if ring.size <= ORACLE_MAX_RING:
            assert brute_is_ring(ring.add, ring.mul), ring


def test_non_regular_named_modules_pass_both_checks(non_regular_modules):
    assert len(non_regular_modules) == 7
    for mod in non_regular_modules:
        r = mod.ring
        assert module_laws_hold(mod.add, mod.act, r.add, r.mul), mod
        assert brute_is_module(mod.add, mod.act, r.add, r.mul), mod


def _slice(positions, table, k=CORRUPTIONS_PER_TABLE):
    """A fixed, evenly spread choice of positions, each with a changed value."""
    step = max(1, len(positions) // k)
    for t, (i, j) in enumerate(positions[::step][:k]):
        old = int(table[i, j])
        new = (old + 1 + t) % table.shape[1]
        yield i, j, new if new != old else (old + 1) % table.shape[1]


def _agrees(build, oracle_ok, law_message):
    """Whether the table builds, which must match the oracle; and whether
    the rejection came from the law check itself."""
    try:
        build()
    except ConstructionError as exc:
        assert not oracle_ok
        return str(exc) == law_message
    assert oracle_ok
    return False


def test_law_check_agrees_with_oracle_on_corruptions(rings, non_regular_modules):
    ring_msg, module_msg = "associativity/distributivity check failed", "module axiom check failed"
    cases = by_laws = 0
    for ring in (r for r in rings if r.size <= CORRUPTION_MAX_RING):
        n, add, mul = ring.size, ring.add, ring.mul
        for i, j, v in _slice([(i, j) for i in range(n) for j in range(n) if 1 not in (i, j)], mul):
            bad = mul.copy()
            bad[i, j] = v
            cases += 1
            by_laws += _agrees(lambda: ring_from_tables(add, bad), brute_is_ring(add, bad), ring_msg)
        for i, j, v in _slice([(i, j) for i in range(1, n) for j in range(i, n)], add):
            bad = add.copy()
            bad[i, j] = bad[j, i] = v
            cases += 1
            by_laws += _agrees(lambda: ring_from_tables(bad, mul), brute_is_ring(bad, mul), ring_msg)
    for mod in non_regular_modules:
        r, act = mod.ring, mod.act
        positions = [(s, x) for s in range(r.size) if s != 1 for x in range(mod.size)]
        for s, x, v in _slice(positions, act, 2 * CORRUPTIONS_PER_TABLE):
            bad = act.copy()
            bad[s, x] = v
            cases += 1
            by_laws += _agrees(
                lambda: custom_module(r, mod.add, bad),
                brute_is_module(mod.add, bad, r.add, r.mul),
                module_msg,
            )
        # r(x+a) = rx+ra runs over the module's additive generators a
        m = mod.size
        for i, j, v in _slice([(i, j) for i in range(1, m) for j in range(i, m)], mod.add):
            bad = mod.add.copy()
            bad[i, j] = bad[j, i] = v
            cases += 1
            by_laws += _agrees(
                lambda: custom_module(r, bad, act),
                brute_is_module(bad, act, r.add, r.mul),
                module_msg,
            )
    assert cases > 2000 and by_laws > 1500, (cases, by_laws)


def test_planted_module_defect_above_256_is_rejected():
    ring = ring_gf(2, 5)
    reg = regular_module(ring)
    both = direct_sum(reg, reg)
    assert both.size == 1024
    bad = both.add.copy()
    bad[300, 600] = bad[600, 300] = 5
    with pytest.raises(ConstructionError, match="module axiom check failed"):
        custom_module(ring, bad, both.act)
    assert custom_module(ring, both.add, both.act).size == 1024


def _tables(elements, add, mul):
    index = {e: i for i, e in enumerate(elements)}
    return tuple(
        np.array([[index[op(a, b)] for b in elements] for a in elements]) for op in (add, mul)
    )


def _zero_symmetric_maps_of_z3(compose):
    """The near-ring of maps f: Z/3 -> Z/3 with f(0) = 0, as pairs (f(1), f(2)),
    under pointwise + and composition: one distributive law fails."""
    rest = [e for e in product(range(3), repeat=2) if e not in ((0, 0), (1, 2))]
    elements = [(0, 0), (1, 2)] + rest  # zero map, identity
    at = lambda f, y: f[y - 1] if y else 0  # noqa: E731
    return _tables(
        elements,
        lambda f, g: ((f[0] + g[0]) % 3, (f[1] + g[1]) % 3),
        lambda f, g: compose((f, g), at),
    )


def _non_associative_algebra():
    """F2 * 1 + F2 * a + F2 * b with aa = b, bb = a, ab = ba = 0: unital and
    bilinear, so distributive, but (aa)b = a != 0 = a(ab)."""
    basis_mul = {(1, 1): 1, (1, 2): 2, (1, 4): 4, (2, 1): 2, (4, 1): 4, (2, 2): 4, (4, 4): 2}

    def mul(x, y):
        out = 0
        for u in (1, 2, 4):
            for v in (1, 2, 4):
                if x & u and y & v:
                    out ^= basis_mul.get((u, v), 0)
        return out

    return _tables(list(range(8)), lambda x, y: x ^ y, mul)


@pytest.mark.parametrize(
    "tables",
    [
        _zero_symmetric_maps_of_z3(lambda fg, at: (at(fg[0], at(fg[1], 1)), at(fg[0], at(fg[1], 2)))),
        _zero_symmetric_maps_of_z3(lambda fg, at: (at(fg[1], at(fg[0], 1)), at(fg[1], at(fg[0], 2)))),
        _non_associative_algebra(),
    ],
    ids=["left-distributivity-fails", "right-distributivity-fails", "associativity-fails"],
)
def test_tables_failing_one_multiplicative_law_are_rejected(tables):
    add, mul = tables
    assert not brute_is_ring(add, mul)
    with pytest.raises(ConstructionError, match="associativity/distributivity"):
        ring_from_tables(add, mul)


def test_action_failing_only_additivity_is_rejected():
    """F4 acting on F16: w acts on each orbit {x, wx, w^2 x} as a 3-cycle.
    Reversing the cycle on one orbit keeps (r+s)x = rx+sx, (rs)x = r(sx)
    and 1x = x, but w no longer acts additively."""
    f16, f4 = gf_tables(2, 4), ring_gf(2, 2)
    image = list(subfield_image(2, 2, f16, (f4.add, f4.mul)))
    add16, act = f16[0], f16[1][image]
    assert custom_module(f4, add16, act).size == 16
    x = next(v for v in range(16) if v not in image)
    orbit = sorted({int(v) for v in act[2:, x]} | {x})
    bad = act.copy()
    bad[2, orbit], bad[3, orbit] = act[3, orbit], act[2, orbit]
    assert not brute_is_module(add16, bad, f4.add, f4.mul)
    with pytest.raises(ConstructionError, match="module axiom check failed"):
        custom_module(f4, add16, bad)


def test_action_failing_additivity_only_off_the_first_generator_is_rejected():
    """F2 x F2 acting on F2^3 (indices 0-7 under XOR), with e = (1,0) acting
    by a map A that is idempotent and additive along 1 (A(x+1) = A(x) + A(1)),
    but A(2+4) != A(2) + A(4): r(x+a) = rx+ra fails only where a is a later
    generator."""
    ring = ring_product(ring_zmod(2), ring_zmod(2))
    add = np.bitwise_xor.outer(np.arange(8), np.arange(8))
    a_map = np.array([0, 0, 0, 0, 0, 0, 1, 1])  # A(6) = A(7) = 1, else 0
    act = np.zeros((4, 8), dtype=np.int64)
    act[ring.labels.index("(1,1)")] = np.arange(8)
    act[ring.labels.index("(1,0)")] = a_map
    act[ring.labels.index("(0,1)")] = np.arange(8) ^ a_map
    assert not brute_is_module(add, act, ring.add, ring.mul)
    with pytest.raises(ConstructionError, match="module axiom check failed"):
        custom_module(ring, add, act)


def test_action_failing_right_distributivity_only_off_the_unity_is_rejected():
    """Z/4 x Z/2 acting on Z/4: (a,b) acts as k, where (a,b) = k(1,1) +
    t(1,0) with t in {0,1}, so e = (1,0) acts as 0.  (r+1)x = rx+x and every
    other law checked on generators hold, but (e+e)x = 2x != ex + ex."""
    ring = ring_product(ring_zmod(4), ring_zmod(2))
    act = np.zeros((8, 4), dtype=np.int64)
    for a, b in product(range(4), range(2)):
        k = a - (a - b) % 2
        act[ring.labels.index(f"({a},{b})")] = k * np.arange(4) % 4
    z4 = ring_zmod(4)
    assert not brute_is_module(z4.add, act, ring.add, ring.mul)
    with pytest.raises(ConstructionError, match="module axiom check failed"):
        custom_module(ring, z4.add, act)
