"""Near-valid spec files through the CLI: every one ends in exit 0, 2 or 3.

A valid spec is drawn from the schema's kinds, with nested products, sums
and quotients, and then mutated a few times: a field set to a small, zero,
negative or huge integer or to a value of the wrong type, a field dropped,
an extra field added, or a kind swapped.  Small caps keep each run short; a
cap hit is exit 3 for `lattice` and SKIPPED reports (exit 0) for `verify`.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from modgraph import specs
from modgraph.cli import main
from modgraph.rings import ring_zmod

CAP_FLAGS = ["--max-ring-size", "64", "--max-submodules", "64", "--max-exact-vertices", "16"]

RING_KINDS = ["gf", "zmod", "matrix", "triangular", "product", "poly_quot", "table"]
MODULE_KINDS = ["regular", "direct_sum", "quotient", "custom"]
TABLE_RINGS = [ring_zmod(n) for n in (2, 3, 4)]


BASE_RINGS = st.one_of(
    st.builds(lambda n: {"kind": "zmod", "n": n}, st.integers(2, 12)),
    st.builds(lambda p, k: {"kind": "gf", "p": p, "k": k}, st.sampled_from([2, 3, 5]), st.integers(1, 3)),
    st.builds(lambda p, m: {"kind": "matrix", "p": p, "k": 1, "m": m}, st.sampled_from([2, 3]), st.integers(1, 2)),
    st.builds(lambda k: {"kind": "triangular", "p": 2, "k": k, "subfield_degree": 1}, st.integers(1, 2)),
    st.builds(
        lambda p, rel: {"kind": "poly_quot", "p": p, "relations": rel[0], "variables": rel[1]},
        st.sampled_from([2, 3]),
        st.sampled_from([(["x^2"], ["x"]), (["x^3"], ["x"]), (["x^2", "x*y", "y^2"], ["x", "y"])]),
    ),
    st.sampled_from([{"kind": "table", "add": r.add.tolist(), "mul": r.mul.tolist()} for r in TABLE_RINGS]),
)
RINGS = st.recursive(
    BASE_RINGS, lambda inner: st.builds(lambda a, b: {"kind": "product", "left": a, "right": b}, inner, inner),
    max_leaves=3,
)
MODULES = st.recursive(
    st.just({"kind": "regular"}),
    lambda inner: st.one_of(
        st.builds(lambda a, b: {"kind": "direct_sum", "left": a, "right": b}, inner, inner),
        st.builds(lambda a, g: {"kind": "quotient", "of": a, "kernel_gens": g},
                  inner, st.lists(st.integers(0, 5), max_size=2)),
    ),
    max_leaves=3,
)
SPECS = st.builds(lambda r, m: {"version": 1, "ring": r, "module": m}, RINGS, MODULES)

# values a mutated field may take: edge integers, wrong types, wrong shapes
VALUES = st.one_of(
    st.sampled_from([0, 1, -1, 2**31, 2**64, 10**30, -(10**30), True, None, 1.5, "2", "", [], {}]),
    st.integers(-3, 70),
    st.lists(st.integers(-1, 4), max_size=3),
    st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3),
    st.sampled_from([{"kind": kind} for kind in RING_KINDS + MODULE_KINDS]),
)


def _nodes(obj):
    """Every object in a spec tree, the root first."""
    if isinstance(obj, dict):
        yield obj
        for value in obj.values():
            yield from _nodes(value)


def _mutate(spec: dict, data) -> None:
    node = data.draw(st.sampled_from(list(_nodes(spec))))
    action = data.draw(st.sampled_from(["set", "set", "drop", "extra", "kind"]))
    value = copy.deepcopy(data.draw(VALUES))  # a fresh object, never a shared constant
    if action == "extra":
        node[data.draw(st.sampled_from(["bogus", "caps", "version"]))] = value
    elif action == "kind":
        node["kind"] = data.draw(st.sampled_from(RING_KINDS + MODULE_KINDS))
    elif node:
        key = data.draw(st.sampled_from(sorted(node)))
        if action == "drop":
            del node[key]
        else:
            node[key] = value


@settings(max_examples=120, deadline=None)
@given(spec=SPECS, mutations=st.integers(0, 2), data=st.data())
# a power whose decimal form has more digits than Python will print
@example(
    spec={"version": 1, "ring": {"kind": "triangular", "p": 2, "k": 2147483648, "subfield_degree": 1},
          "module": {"kind": "regular"}},
    mutations=0,
    data=None,
)
def test_cli_answers_every_near_valid_spec_with_an_exit_code(spec, mutations, data):
    spec = copy.deepcopy(spec)  # sampled_from hands out shared objects
    for _ in range(mutations):
        _mutate(spec, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        for command in ("lattice", "verify"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, path, *CAP_FLAGS])
            assert code in (0, 2, 3), (command, spec, code)


def test_the_fuzz_draws_every_kind():
    # a kind added to the schema must be added to the strategies above too
    assert RING_KINDS == list(specs.RING_KINDS)
    assert MODULE_KINDS == list(specs.MODULE_KINDS)
