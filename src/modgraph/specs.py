"""Instance spec files: a strict JSON schema for (ring, module) pairs.

Specs normalize to sorted-key JSON, so equal content gives byte-equal files
and a stable content hash.  Unknown fields are rejected.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property

from .caps import Caps
from .errors import SpecError
from .modules import (
    FiniteModule,
    custom_module,
    direct_sum,
    quotient,
    regular_module,
    submodule_generated,
)
from .rings import (
    FiniteRing,
    ring_from_tables,
    ring_gf,
    ring_matrix,
    ring_poly_quot,
    ring_product,
    ring_triangular,
    ring_zmod,
)

SPEC_VERSION = 1

_RING_FIELDS = {
    "gf": {"kind", "p", "k"},
    "zmod": {"kind", "n"},
    "matrix": {"kind", "p", "k", "m"},
    "triangular": {"kind", "p", "k", "subfield_degree"},
    "product": {"kind", "left", "right"},
    "poly_quot": {"kind", "p", "relations", "variables"},
    "table": {"kind", "add", "mul"},
}
_MODULE_FIELDS = {
    "regular": {"kind"},
    "direct_sum": {"kind", "left", "right"},
    "quotient": {"kind", "of", "kernel_gens"},
    "custom": {"kind", "add", "act"},
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
    _check_fields(spec, kinds[kind], f"{what} kind {kind}", kinds[kind] - {"variables"})
    for key in sorted(spec.keys() & {"left", "right", "of"}):
        _check_kind(spec[key], kinds, what)


def normalize_spec(spec: dict) -> dict:
    _check_fields(spec, {"version", "ring", "module"}, "instance spec", {"ring", "module"})
    version = spec.get("version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise SpecError(f"unsupported spec version {version}")
    _check_kind(spec["ring"], _RING_FIELDS, "ring")
    _check_kind(spec["module"], _MODULE_FIELDS, "module")
    out = {"version": SPEC_VERSION, "ring": spec["ring"], "module": spec["module"]}
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
    kind = spec["kind"]
    if kind == "gf":
        return ring_gf(spec["p"], spec["k"], caps)
    if kind == "zmod":
        return ring_zmod(spec["n"], caps)
    if kind == "matrix":
        return ring_matrix(spec["p"], spec["k"], spec["m"], caps)
    if kind == "triangular":
        return ring_triangular(spec["p"], spec["k"], spec["subfield_degree"], caps)
    if kind == "product":
        return ring_product(build_ring(spec["left"], caps), build_ring(spec["right"], caps), caps)
    if kind == "poly_quot":
        return ring_poly_quot(
            spec["p"], spec["relations"], spec.get("variables"), caps
        )
    if kind == "table":
        return ring_from_tables(spec["add"], spec["mul"], caps=caps)
    raise SpecError(f"unknown ring kind {kind!r}")


def build_module(spec: dict, ring: FiniteRing, caps: Caps) -> FiniteModule:
    kind = spec["kind"]
    if kind == "regular":
        return regular_module(ring, caps)
    if kind == "direct_sum":
        return direct_sum(
            build_module(spec["left"], ring, caps), build_module(spec["right"], ring, caps), caps
        )
    if kind == "quotient":
        base = build_module(spec["of"], ring, caps)
        outside = [g for g in spec["kernel_gens"] if g >= base.size]
        if outside:
            raise SpecError(f"kernel_gens {outside} lie outside the module of size {base.size}")
        kernel = submodule_generated(base, spec["kernel_gens"])
        q, _ = quotient(base, kernel, caps)
        return q
    if kind == "custom":
        return custom_module(ring, spec["add"], spec["act"], caps=caps)
    raise SpecError(f"unknown module kind {kind!r}")


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
    kind = spec["kind"]
    if kind == "gf":
        return f"gf({spec['p']},{spec['k']})"
    if kind == "zmod":
        return f"zmod({spec['n']})"
    if kind == "matrix":
        return f"M{spec['m']}(F{power_name(spec['p'], spec['k'])})"
    if kind == "triangular":
        p = spec["p"]
        return f"triangular(F{power_name(p, spec['k'])},F{power_name(p, spec['subfield_degree'])})"
    if kind == "product":
        return f"product({describe_ring_spec(spec['left'])},{describe_ring_spec(spec['right'])})"
    if kind == "poly_quot":
        return f"polyquot(F{spec['p']},{','.join(spec['relations'])})"
    if kind == "table":
        return f"table#{spec_hash(spec)}"
    raise SpecError(f"unknown ring kind {kind!r}")


def describe_module_spec(spec: dict) -> str:
    kind = spec["kind"]
    if kind == "regular":
        return "regular"
    if kind == "direct_sum":
        return f"sum({describe_module_spec(spec['left'])},{describe_module_spec(spec['right'])})"
    if kind == "quotient":
        gens = ",".join(str(g) for g in spec["kernel_gens"])
        return f"quot({describe_module_spec(spec['of'])};{gens})"
    if kind == "custom":
        return f"custom#{spec_hash(spec)}"
    raise SpecError(f"unknown module kind {kind!r}")


def instance_name(spec: dict) -> str:
    ring = describe_ring_spec(spec["ring"])
    module = spec["module"]
    if (
        module["kind"] == "direct_sum"
        and module["left"] == {"kind": "regular"}
        and module["right"] == {"kind": "regular"}
    ):
        return f"{ring}^2/selfsum"
    return f"{ring}/{describe_module_spec(module)}"


class Instance:
    """The ring and module of a normalized spec, each built on first read."""

    def __init__(self, spec: dict, caps: Caps | None = None):
        self.spec = spec
        self.caps = caps or Caps()
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


def build_instance(spec: dict, caps: Caps | None = None) -> Instance:
    instance = Instance(normalize_spec(spec), caps)
    instance.module  # built now, so a cap or a bad table raises here
    return instance


def make_spec(ring: dict, module: dict) -> dict:
    return normalize_spec({"version": SPEC_VERSION, "ring": ring, "module": module})
