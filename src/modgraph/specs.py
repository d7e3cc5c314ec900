"""Instance spec files: a strict JSON schema for (ring, module) pairs.

Specs normalize to sorted-key JSON, so equal content gives byte-equal files
and a stable content hash.  A polynomial quotient's relations normalize to
the minimal generators of their ideal, so every spelling of one ring gets
one id and one hash.  Unknown fields are rejected.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from functools import cached_property
from typing import NamedTuple

from .caps import Caps
from .errors import SpecError
from .modules import FiniteModule, custom_module, direct_sum, quotient, regular_module, submodule_generated
from .rings import (
    FiniteRing, monomial_ideal, monomial_label, ring_from_tables, ring_gf, ring_matrix, ring_poly_quot, ring_product,
    ring_triangular, ring_zmod,
)

SPEC_VERSION = 1


def _build_quotient(spec: dict, ring: FiniteRing, caps: Caps) -> FiniteModule:
    base = build_module(spec["of"], ring, caps)
    outside = [g for g in spec["kernel_gens"] if g >= base.size]
    if outside:
        raise SpecError(f"kernel_gens {outside} lie outside the module of size {base.size}")
    q, _ = quotient(base, submodule_generated(base, spec["kernel_gens"]), caps)
    return q


class _Kind(NamedTuple):
    """A ring or module kind: the fields it needs besides "kind", its builder,
    its part of the instance id, and the fields it may omit.  Products, sums
    and quotients build and name their parts through the module-level
    `build_ring`, `build_module` and `describe_*` functions."""

    fields: set[str]
    build: Callable
    name: Callable[[dict], str]
    optional: set[str] = set()


RING_KINDS = {
    "gf": _Kind({"p", "k"}, lambda s, caps: ring_gf(s["p"], s["k"], caps), lambda s: f"gf({s['p']},{s['k']})"),
    "zmod": _Kind({"n"}, lambda s, caps: ring_zmod(s["n"], caps), lambda s: f"zmod({s['n']})"),
    "matrix": _Kind(
        {"p", "k", "m"}, lambda s, caps: ring_matrix(s["p"], s["k"], s["m"], caps),
        lambda s: f"M{s['m']}(F{power_name(s['p'], s['k'])})",
    ),
    "triangular": _Kind(
        {"p", "k", "subfield_degree"},
        lambda s, caps: ring_triangular(s["p"], s["k"], s["subfield_degree"], caps),
        lambda s: f"triangular(F{power_name(s['p'], s['k'])},F{power_name(s['p'], s['subfield_degree'])})",
    ),
    "product": _Kind(
        {"left", "right"},
        lambda s, caps: ring_product(build_ring(s["left"], caps), build_ring(s["right"], caps), caps),
        lambda s: f"product({describe_ring_spec(s['left'])},{describe_ring_spec(s['right'])})",
    ),
    "poly_quot": _Kind(
        {"p", "relations"}, lambda s, caps: ring_poly_quot(s["p"], s["relations"], s.get("variables"), caps),
        lambda s: f"polyquot(F{s['p']},{','.join(s['relations'])})", optional={"variables"},
    ),
    "table": _Kind(
        {"add", "mul"}, lambda s, caps: ring_from_tables(s["add"], s["mul"], caps=caps),
        lambda s: f"table#{spec_hash(s)}",
    ),
}
MODULE_KINDS = {
    "regular": _Kind(set(), lambda s, ring, caps: regular_module(ring, caps), lambda s: "regular"),
    "direct_sum": _Kind(
        {"left", "right"},
        lambda s, ring, caps: direct_sum(
            build_module(s["left"], ring, caps), build_module(s["right"], ring, caps), caps
        ),
        lambda s: f"sum({describe_module_spec(s['left'])},{describe_module_spec(s['right'])})",
    ),
    "quotient": _Kind(
        {"of", "kernel_gens"}, _build_quotient,
        lambda s: f"quot({describe_module_spec(s['of'])};{','.join(map(str, s['kernel_gens']))})",
    ),
    "custom": _Kind(
        {"add", "act"}, lambda s, ring, caps: custom_module(ring, s["add"], s["act"], caps=caps),
        lambda s: f"custom#{spec_hash(s)}",
    ),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_table(value, spec) -> bool:
    size = len(spec["add"]) if isinstance(spec["add"], list) else 0
    return isinstance(value, list) and bool(value) and all(
        isinstance(row, list) and len(row) == len(value[0]) and all(_is_int(x) and 0 <= x < size for x in row)
        for row in value
    )


_POSITIVE = (lambda v, _: _is_int(v) and v >= 1, "a positive integer")
_WORDS = (lambda v, _: isinstance(v, list) and all(isinstance(w, str) for w in v), "a list of strings")
_TABLE = (_is_table, "a rectangular table of indices below len(add)")
# field -> (test of its value within its spec, what the value must be)
_VALUES = {
    **dict.fromkeys(["p", "k", "n", "m", "subfield_degree"], _POSITIVE),
    **dict.fromkeys(["relations", "variables"], _WORDS),
    **dict.fromkeys(["add", "mul", "act"], _TABLE),
    "kernel_gens": (lambda v, _: isinstance(v, list) and all(_is_int(g) and g >= 0 for g in v),
                    "a list of element indices"),
}


def _check_fields(obj: dict, allowed: set[str], what: str, required=frozenset()) -> None:
    if not isinstance(obj, dict):
        raise SpecError(f"{what} must be an object")
    unknown = obj.keys() - allowed
    if unknown:
        raise SpecError(f"unknown fields {sorted(unknown)} in {what}")
    missing = required - obj.keys()
    if missing:
        raise SpecError(f"missing fields {sorted(missing)} in {what}")
    for key in sorted(obj.keys() & _VALUES.keys()):
        test, must_be = _VALUES[key]
        if not test(obj[key], obj):
            raise SpecError(f"{key!r} in {what} must be {must_be}")


def _check_kind(spec, kinds: dict, what: str) -> None:
    """Validate a ring or module spec and the specs nested in it, which are
    of the same sort (the factors of a product, the module a quotient is of)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError(f"{what} spec needs a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise SpecError(f"unknown {what} kind {kind!r}")
    required = kinds[kind].fields | {"kind"}
    _check_fields(spec, required | kinds[kind].optional, f"{what} kind {kind}", required)
    for key in sorted(spec.keys() & {"left", "right", "of"}):
        _check_kind(spec[key], kinds, what)


def _canonical_ring(spec: dict) -> dict:
    """The ring spec with each poly_quot ring's relations rewritten as the
    minimal generators of their ideal, written as the ring's labels write
    monomials, and its variables written out: dropping a generator may drop
    the last mention of a variable the relations were read for."""
    if spec["kind"] == "product":
        return {**spec, "left": _canonical_ring(spec["left"]), "right": _canonical_ring(spec["right"])}
    if spec["kind"] != "poly_quot":
        return spec
    variables, gens = monomial_ideal(spec["relations"], spec.get("variables"))
    return {**spec, "variables": variables, "relations": [monomial_label(g, variables) for g in gens]}


def normalize_spec(spec: dict) -> dict:
    _check_fields(spec, {"version", "ring", "module"}, "instance spec", {"ring", "module"})
    version = spec.get("version", SPEC_VERSION)
    if not _is_int(version) or version != SPEC_VERSION:
        raise SpecError(f"unsupported spec version {version!r}")
    _check_kind(spec["ring"], RING_KINDS, "ring")
    _check_kind(spec["module"], MODULE_KINDS, "module")
    out = {"version": SPEC_VERSION, "ring": _canonical_ring(spec["ring"]), "module": spec["module"]}
    return json.loads(dumps_spec(out))


def dumps_spec(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def spec_hash(spec: dict) -> str:
    return hashlib.sha256(dumps_spec(spec).encode()).hexdigest()[:12]


def load_spec_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, or an integer past the digit limit
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    return normalize_spec(raw)


# -- construction -------------------------------------------------------------


def build_ring(spec: dict, caps: Caps) -> FiniteRing:
    return RING_KINDS[spec["kind"]].build(spec, caps)


def build_module(spec: dict, ring: FiniteRing, caps: Caps) -> FiniteModule:
    return MODULE_KINDS[spec["kind"]].build(spec, ring, caps)


NAMED_POWER_BITS = 64  # 2**64 is past the size of any ring whose tables fit in memory


def power_name(p: int, k: int) -> str:
    """p**k in decimal below 2**NAMED_POWER_BITS, else "p^k".  The power is
    formed one factor at a time and stops at the bound, which a base of 2 or
    more passes within NAMED_POWER_BITS factors, so a huge k costs nothing."""
    size = 1
    for _ in range(min(k, NAMED_POWER_BITS)):
        size *= p
        if size >> NAMED_POWER_BITS:
            return f"{p}^{k}"
    return str(size)


def describe_ring_spec(spec: dict) -> str:
    return RING_KINDS[spec["kind"]].name(spec)


def describe_module_spec(spec: dict) -> str:
    return MODULE_KINDS[spec["kind"]].name(spec)


def instance_name(spec: dict) -> str:
    ring = describe_ring_spec(spec["ring"])
    module = spec["module"]
    if module == {"kind": "direct_sum", "left": {"kind": "regular"}, "right": {"kind": "regular"}}:
        return f"{ring}^2/selfsum"
    return f"{ring}/{describe_module_spec(module)}"


class Instance:
    """The ring and module of a normalized spec, each built on first read."""

    def __init__(self, spec: dict, caps: Caps = Caps()):
        self.spec = spec
        self.caps = caps
        self.instance_id = instance_name(spec)

    @cached_property
    def ring(self) -> FiniteRing:
        return build_ring(self.spec["ring"], self.caps)

    @cached_property
    def module(self) -> FiniteModule:
        return build_module(self.spec["module"], self.ring, self.caps)

    @property
    def content_hash(self) -> str:
        return spec_hash(self.spec)


def build_instance(spec: dict, caps: Caps = Caps()) -> Instance:
    instance = Instance(normalize_spec(spec), caps)
    instance.module  # built now, so a cap or a bad table raises here
    return instance


def make_spec(ring: dict, module: dict) -> dict:
    return normalize_spec({"version": SPEC_VERSION, "ring": ring, "module": module})
