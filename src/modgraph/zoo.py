"""Named instances and bounded exhaustive instance families.

Families are builder-closed: they range over rings expressible through the
structured constructors, not over an abstract census of all finite rings.
Enumeration order and instance ids are deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator

from .caps import Caps
from .errors import CapExceeded
from .graphs import IntersectionGraph, build_graph, homogeneous_socle_pair
from .lattice import Lattice, enumerate_submodules
from .specs import SPEC_VERSION, Instance, build_instance, make_spec, normalize_spec

REGULAR = {"kind": "regular"}


def _gf(p: int, k: int) -> dict:
    return {"kind": "gf", "p": p, "k": k}


def named_instance_specs() -> list[dict]:
    """Specs of the named instances, in canonical zoo order."""
    specs: list[dict] = []
    selfsum = {"kind": "direct_sum", "left": REGULAR, "right": REGULAR}
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        specs.append(make_spec(_gf(p, k), selfsum))
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        specs.append(make_spec({"kind": "matrix", "p": p, "k": k, "m": 2}, REGULAR))
    for p, k in [(2, 2), (2, 3), (3, 2)]:
        specs.append(make_spec({"kind": "triangular", "p": p, "k": k, "subfield_degree": 1}, REGULAR))
    for n in [4, 8, 12, 16, 36]:
        specs.append(make_spec({"kind": "zmod", "n": n}, REGULAR))
    for p, k in [(2, 2), (2, 3), (3, 2)]:
        specs.append(
            make_spec({"kind": "poly_quot", "p": p, "relations": [f"x^{k}"], "variables": ["x"]}, REGULAR)
        )
    for p in [2, 3]:
        specs.append(
            make_spec(
                {"kind": "poly_quot", "p": p, "relations": ["x^2", "x*y", "y^2"], "variables": ["x", "y"]},
                REGULAR,
            )
        )
    specs.append(
        make_spec(
            {"kind": "zmod", "n": 6},
            {
                "kind": "direct_sum",
                "left": {"kind": "quotient", "of": REGULAR, "kernel_gens": [2]},
                "right": {"kind": "quotient", "of": REGULAR, "kernel_gens": [3]},
            },
        )
    )
    for p in [2, 3]:
        specs.append(
            make_spec(
                {"kind": "zmod", "n": p * p},
                {
                    "kind": "direct_sum",
                    "left": {"kind": "quotient", "of": REGULAR, "kernel_gens": [p]},
                    "right": REGULAR,
                },
            )
        )
    for p in [2, 3]:
        specs.append(make_spec({"kind": "product", "left": _gf(p, 1), "right": _gf(p, 1)}, REGULAR))
    return specs


def _base_ring_specs(max_size: int) -> list[tuple[int, dict]]:
    """Sized ring specs for every non-product builder, within the size bound."""
    out: list[tuple[int, dict]] = []
    for n in range(2, max_size + 1):
        out.append((n, {"kind": "zmod", "n": n}))
    for p in [2, 3, 5, 7]:
        k = 2
        while p**k <= max_size:
            out.append((p**k, _gf(p, k)))
            k += 1
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        size = (p**k) ** 4
        if size <= max_size:
            out.append((size, {"kind": "matrix", "p": p, "k": k, "m": 2}))
    for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)]:
        q = p**k
        for j in range(1, k + 1):
            if k % j:
                continue
            size = q * q * p**j
            if size <= max_size:
                out.append((size, {"kind": "triangular", "p": p, "k": k, "subfield_degree": j}))
    for p in [2, 3, 5]:
        for k in range(2, 12):
            if p**k > max_size:
                break
            out.append((p**k, {"kind": "poly_quot", "p": p, "relations": [f"x^{k}"], "variables": ["x"]}))
        if p**3 <= max_size:
            out.append(
                (p**3, {"kind": "poly_quot", "p": p, "relations": ["x^2", "x*y", "y^2"], "variables": ["x", "y"]})
            )
    return out


def family_specs(max_ring_size: int) -> list[dict]:
    """All builder-expressible regular-module instances within the bound:
    the base constructors plus unordered products of two base rings.  Each
    base spec is normalized once, and a product spec is composed, already
    normal, of its factors' normalized ring specs, which it shares."""
    base = _base_ring_specs(max_ring_size)
    specs = [make_spec(ring, REGULAR) for _, ring in base]
    by_size = sorted(range(len(base)), key=lambda j: base[j][0])
    sizes = [base[j][0] for j in by_size]
    for i, (sa, _) in enumerate(base):
        # the partners of size <= max_ring_size // sa, visited in list order
        fits = by_size[: bisect_right(sizes, max_ring_size // sa)]
        for j in sorted(j for j in fits if j >= i):
            ring = {"kind": "product", "left": specs[i]["ring"], "right": specs[j]["ring"]}
            specs.append({"module": dict(REGULAR), "ring": ring, "version": SPEC_VERSION})
    return specs


class InstanceContext:
    """Per-instance cache of the submodule lattice and the intersection graph."""

    def __init__(self, instance: Instance, caps: Caps | None = None):
        self.instance = instance
        self.caps = caps or Caps()
        self._lattice: Lattice | None = None
        self._refusal: CapExceeded | None = None
        self._graph: IntersectionGraph | None = None

    @property
    def instance_id(self) -> str:
        return self.instance.instance_id

    @property
    def module(self):
        return self.instance.module

    @property
    def ring(self):
        return self.instance.ring

    @property
    def lattice(self) -> Lattice:
        """The submodule lattice, enumerated once; a cap hit while the module
        is built or enumerated is kept and raised again on every later read."""
        if self._refusal is not None:
            raise self._refusal
        if self._lattice is None:
            try:
                self._lattice = enumerate_submodules(self.instance.module, self.caps)
            except CapExceeded as exc:
                self._refusal = exc
                raise
        return self._lattice

    @property
    def graph(self) -> IntersectionGraph:
        if self._graph is None:
            self._graph = build_graph(self.lattice)
        return self._graph


def contexts(specs, caps: Caps | None = None, predicate=None) -> Iterator[InstanceContext]:
    """One context per spec, in order, each instance built when it is reached.

    An instance past a cap is yielded unbuilt, and its lattice raises the cap
    again, so the checks report it SKIPPED and the run goes on.  An optional
    predicate (InstanceContext -> bool) is tested after analysis; an instance
    that hits a cap while it runs is left out."""
    for spec in specs:
        try:
            ctx = InstanceContext(build_instance(spec, caps), caps)
        except CapExceeded as exc:
            ctx = InstanceContext(Instance(normalize_spec(spec), caps), caps)
            ctx._refusal = exc  # raised by its lattice, so the build is not tried again
        try:
            keep = predicate is None or predicate(ctx)
        except CapExceeded:
            keep = False
        if keep:
            yield ctx


def family(max_ring_size: int, caps: Caps | None = None, predicate=None) -> Iterator[InstanceContext]:
    """Contexts of the exhaustive family, filtered by an optional predicate."""
    return contexts(family_specs(max_ring_size), caps, predicate)


def filter_triangle_free(ctx: InstanceContext) -> bool:
    return ctx.graph.is_triangle_free()


def filter_homogeneous_socle_pair(ctx: InstanceContext) -> bool:
    return homogeneous_socle_pair(ctx.lattice) is not None


FILTERS = {
    "all": None,
    "triangle-free": filter_triangle_free,
    "homogeneous-socle-pair": filter_homogeneous_socle_pair,
}
