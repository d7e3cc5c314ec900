"""Span tracing of modgraph's public entry points, installed from outside.

`install(tracer)` wraps the entry points of each layer (named after the
module that defines them) and replaces every reference to the original
object in the loaded `modgraph` modules, so call sites that imported a name
(`from .lattice import enumerate_submodules`) are traced too.  Nothing under
`src/` is edited; tracing exists only in the process that calls `install`.

Every wrapped call records a span (name, start, end, parent) in memory and
bumps counters at the same boundary.  `Tracer.summary()` folds the spans
into per-name self time (span minus its child spans), inclusive time and
call counts.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Lattice methods that answer order questions: predicates, socle, length,
# Goldie dimension, join and meet.
LATTICE_ORDER_METHODS = (
    "leq",
    "meet_index",
    "join_index",
    "atom_indices",
    "maximal_indices",
    "is_simple",
    "is_maximal",
    "is_essential",
    "is_uniform",
    "is_chain",
    "socle_index",
    "chain_lengths",
    "composition_length",
    "length_of",
    "goldie_dimension",
)
LATTICE_STRUCT_FUNCTIONS = (
    "hom_count_simples",
    "iso_count_simples",
    "end_size",
    "simples_isomorphic",
    "count_iso_simple",
    "is_simple_module",
    "find_double_simple_image",
    "prime_radical",
)
GRAPH_WALK_METHODS = ("diameter", "girth", "is_connected", "is_triangle_free")
GRAPH_COLORING_FUNCTIONS = (
    "color_by_overline",
    "color_complement_by_uniform_clique",
    "homogeneous_socle_pair",
)

# Span names grouped into the pipeline stages whose self-time shares the
# benchmark reports.
STAGES = {
    "construction": ("rings.", "modules.", "specs."),
    "lattice": ("lattice.",),
    "graphs_solvers": ("graphs.", "solvers."),
    "checks": ("checks.",),
    "cli": ("cli.",),
}


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: (name id, start, end, parent row or -1)
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []  # rows of the spans not yet closed

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_return=None, refusal_type=None):
        """Return fn wrapped in a span; on_return(tracer, args, result) adds
        counts after the span closes, and a raised refusal_type is counted
        as `<layer>.refusals`."""
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        spans, open_rows, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(spans)
            parent = open_rows[-1] if open_rows else -1
            spans.append(None)  # reserve the row so children can point to it
            open_rows.append(row)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if refusal_type is not None and isinstance(exc, refusal_type):
                    counts[f"{layer}.refusals"] += 1
                raise
            finally:
                end = clock()
                open_rows.pop()
                spans[row] = (nid, start, end, parent)
                counts[name] += 1
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: inclusive and self seconds; and the counters."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for row, (nid, start, end, parent) in enumerate(self.spans):
            name = self.names[nid]
            incl[name] += end - start
            self_s[name] += end - start - child[row]
        return {"incl": dict(incl), "self": dict(self_s), "counts": dict(self.counts)}

    def dump_spans(self) -> list:
        return [[self.names[nid], start, end, parent] for nid, start, end, parent in self.spans]


def _replace_everywhere(original, replacement) -> int:
    """Point every loaded modgraph module attribute (and ALL_CHECKS entry)
    that is `original` at `replacement`; return how many were replaced."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "modgraph" or mod_name.startswith("modgraph.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    import modgraph.checks as checks

    for cid, fn in list(checks.ALL_CHECKS.items()):
        if fn is original:
            checks.ALL_CHECKS[cid] = replacement
            hits += 1
    return hits


def _count_module(tracer: Tracer, args, result) -> None:
    module = args[0]
    if module.meta.get("kind") in ("quotient", "submodule"):
        tracer.counts["modules.constructed_derived"] += 1


def _count_lattice(tracer: Tracer, args, result) -> None:
    tracer.counts["lattice.submodules"] += len(result)


def _count_graph(tracer: Tracer, args, result) -> None:
    tracer.counts["graphs.vertices"] += result.n
    tracer.counts["graphs.edges"] += sum(a.bit_count() for a in result.adj) // 2


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the imported modgraph package."""
    import modgraph.checks as checks
    import modgraph.cli as cli
    import modgraph.graphs as graphs
    import modgraph.lattice as lattice
    import modgraph.modules as modules
    import modgraph.rings as rings
    import modgraph.solvers as solvers
    import modgraph.specs as specs
    from modgraph.errors import CapExceeded

    def method(cls, attr, name, on_return=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), on_return))

    def function(module, attr, name, on_return=None, refusal_type=None):
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, on_return, refusal_type)
        if not _replace_everywhere(original, wrapped):
            raise RuntimeError(f"no reference to {module.__name__}.{attr} was replaced")

    method(rings.FiniteRing, "__init__", "rings.construct")
    method(modules.FiniteModule, "__init__", "modules.construct", _count_module)
    function(modules, "close_subset", "modules.close_subset")
    function(specs, "build_instance", "specs.build_instance")
    function(lattice, "enumerate_submodules", "lattice.enumerate", _count_lattice)
    for attr in LATTICE_ORDER_METHODS:
        method(lattice.Lattice, attr, "lattice.order")
    for attr in LATTICE_STRUCT_FUNCTIONS:
        function(lattice, attr, "lattice.struct")
    function(graphs, "build_graph", "graphs.build", _count_graph)
    for attr in GRAPH_WALK_METHODS:
        method(graphs.IntersectionGraph, attr, "graphs.walk")
    for attr in GRAPH_COLORING_FUNCTIONS:
        function(graphs, attr, "graphs.coloring")
    function(solvers, "max_clique", "solvers.clique", refusal_type=CapExceeded)
    function(solvers, "max_cliques", "solvers.maximal_cliques", refusal_type=CapExceeded)
    function(solvers, "chromatic_number", "solvers.chromatic", refusal_type=CapExceeded)
    for cid, fn in list(checks.ALL_CHECKS.items()):
        function(checks, fn.__name__, f"checks.{cid}")
    function(cli, "main", "cli.main")


def stage_of(name: str) -> str:
    for stage, prefixes in STAGES.items():
        if name.startswith(prefixes):
            return stage
    raise KeyError(name)
