"""Command-line front end.

Commands: lattice | graph | invariants | verify | zoo, all deterministic for
a given spec file.  Exit codes: 0 success, 1 a check failed, 2 invalid input,
3 a cap was exceeded (verify reports a cap per instance, as SKIPPED).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import zoo
from .caps import Caps, caps_from_env
from .checks import render_summary, reports_to_jsonl, run_suite
from .errors import CapExceeded, ModgraphError, SpecError
from .specs import load_spec_file

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_CAP = 3


def _add_caps_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-ring-size", type=int, default=None)
    p.add_argument("--max-submodules", type=int, default=None)
    p.add_argument("--max-exact-vertices", type=int, default=None)


def _caps_of(args) -> Caps:
    return caps_from_env().override(
        max_ring_size=args.max_ring_size,
        max_submodules=args.max_submodules,
        max_exact_vertices=args.max_exact_vertices,
    )


def _context_of(args) -> zoo.InstanceContext:
    """The instance of the command's spec file, under its caps."""
    caps = _caps_of(args)
    return next(zoo.contexts([load_spec_file(args.spec)], caps))


def cmd_lattice(args) -> int:
    ctx = _context_of(args)
    lat = ctx.lattice
    out = [f"# {ctx.instance_id}: {len(lat)} submodules"]
    for i, sub in enumerate(lat.subs):
        out.append(f"{i}: size={sub.size} gens={lat.describe(i)}")
    print("\n".join(out))
    return EXIT_OK


def cmd_graph(args) -> int:
    sys.stdout.write(_context_of(args).graph.export(args.format))
    return EXIT_OK


def cmd_invariants(args) -> int:
    ctx = _context_of(args)
    g, lat, caps = ctx.graph, ctx.lattice, ctx.caps
    payload = {  # the capped solves first, so a refusal comes before any other work
        "omega": g.clique_number(caps)[0],
        "chi": g.chromatic(caps)[0],
        "omega_c": g.complement_clique_number()[0],
        "chi_c": g.complement_chromatic()[0],
        **g.basic_invariants(),
        "instance": ctx.instance_id,
        "order": g.n,
        "goldie_dimension": lat.goldie_dimension()[0],
        "length": lat.composition_length(),
    }
    soc = lat.socle_index()
    payload["socle"] = {"size": lat.subs[soc].size, "generators": [lat.module.label(x) for x in lat.gens(soc)]}
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def _family_specs(family: str) -> list[dict]:
    # looked up on the zoo module at call time, so a caller may replace it
    if family == "named":
        return zoo.named_instance_specs()
    if family.startswith("size:"):
        try:
            bound = int(family.split(":", 1)[1])
        except ValueError as exc:
            raise SpecError(f"bad family bound in {family!r}") from exc
        if bound < 2:  # no ring has fewer than two elements
            raise SpecError(f"family bound in {family!r} must be at least 2")
        return zoo.family_specs(bound)
    raise SpecError(f"unknown family {family!r} (use 'named' or 'size:N')")


def cmd_verify(args) -> int:
    caps = _caps_of(args)
    if args.family and args.spec:
        raise SpecError("give a spec file or --family, not both")
    if args.family:
        specs = _family_specs(args.family)
    elif args.spec:
        if args.filter != "all":
            raise SpecError(f"--filter {args.filter} applies to a family, not to a spec file")
        specs = [load_spec_file(args.spec)]
    else:
        raise SpecError("verify needs a spec file or --family")
    check_ids = args.check.split(",") if args.check is not None else None
    reports, summary = run_suite(zoo.contexts(specs, caps, zoo.FILTERS[args.filter]), check_ids, caps)
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            fh.write(reports_to_jsonl(reports))
    sys.stdout.write(render_summary(reports, summary))
    return EXIT_FAIL if summary.failed else EXIT_OK


def cmd_zoo(args) -> int:
    caps = _caps_of(args)
    print("\n".join(  # all built before any is printed
        f"{ctx.instance_id}  ring={ctx.ring.size} module={ctx.module.size} hash={ctx.instance.content_hash}"
        for ctx in zoo.contexts(zoo.named_instance_specs(), caps)
    ))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modgraph",
        description="Exact intersection graphs of submodule lattices over finite rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="list all submodules of an instance")
    p.add_argument("spec", help="instance spec file (JSON)")
    _add_caps_flags(p)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("graph", help="export the intersection graph")
    p.add_argument("spec")
    p.add_argument("--format", choices=["dot", "json"], default="json")
    _add_caps_flags(p)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("invariants", help="exact graph and module invariants as JSON")
    p.add_argument("spec")
    _add_caps_flags(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("verify", help="run theorem checks over an instance or family")
    p.add_argument("spec", nargs="?", default=None)
    p.add_argument("--family", default=None, help="'named' or 'size:N'")
    p.add_argument("--filter", default="all", choices=sorted(zoo.FILTERS))
    p.add_argument("--check", default=None, help="comma-separated check ids")
    p.add_argument("--jsonl", default=None, help="write line-delimited JSON reports here")
    _add_caps_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("zoo", help="list the named instances")
    _add_caps_flags(p)
    p.set_defaults(fn=cmd_zoo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ModgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
