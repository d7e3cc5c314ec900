import ast
from pathlib import Path

import pytest

from modgraph.caps import Caps
from modgraph.errors import CapExceeded

SRC = Path(__file__).resolve().parent.parent / "src" / "modgraph"


def parsed_sources():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_only_caps_raises_cap_exceeded():
    raisers = {
        name
        for name, tree in parsed_sources().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None and raised_name(node) == "CapExceeded"
    }
    assert raisers == {"caps.py"}


def test_no_caps_parameter_defaults_to_none():
    offenders = []
    for name, tree in parsed_sources().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            offenders += [
                f"{name}:{node.lineno}" for arg, default in pairs
                if arg.arg == "caps" and isinstance(default, ast.Constant) and default.value is None
            ]
    assert offenders == []


@pytest.mark.parametrize(
    "check, at_cap, message",
    [
        (lambda c, x: c.check_size(x, "ring"), 8, "ring size 9 exceeds cap max_ring_size=8"),
        (lambda c, x: c.check_characteristic(x), 8, "characteristic exceeds cap max_ring_size=8"),
        (lambda c, x: c.capped_power(2, x, "field"), 3, "field size >= 16 exceeds cap max_ring_size=8"),
        (lambda c, x: c.check_submodules(x), 4, "more than max_submodules=4 submodules; raise the cap to proceed"),
        (lambda c, x: c.check_vertices(x), 2, "3 vertices exceeds the exact-solver cap max_exact_vertices=2"),
    ],
    ids=["size", "characteristic", "power", "submodules", "vertices"],
)
def test_each_cap_method_refuses_just_past_its_cap(check, at_cap, message):
    caps = Caps(max_ring_size=8, max_submodules=4, max_exact_vertices=2)
    check(caps, at_cap)
    with pytest.raises(CapExceeded) as refusal:
        check(caps, at_cap + 1)
    assert str(refusal.value) == message
