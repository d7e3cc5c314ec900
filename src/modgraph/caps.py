"""Resource caps for constructions, lattice enumeration and exact solvers.

Caps bound memory (operation tables are O(n^2)) and combinatorial blow-up.
Every CapExceeded message names the field it hit, as `max_ring_size=<value>`.
Defaults can be overridden per call, via CLI flags, or with the env var
MODGRAPH_CAPS="max_ring_size=512,max_submodules=10000,max_exact_vertices=32".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import CapExceeded, SpecError

DEFAULT_MAX_RING_SIZE = 1024
DEFAULT_MAX_SUBMODULES = 20_000
DEFAULT_MAX_EXACT_VERTICES = 64


@dataclass(frozen=True)
class Caps:
    max_ring_size: int = DEFAULT_MAX_RING_SIZE
    max_submodules: int = DEFAULT_MAX_SUBMODULES
    max_exact_vertices: int = DEFAULT_MAX_EXACT_VERTICES

    def override(self, **kwargs) -> "Caps":
        known = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **known)


def check_characteristic(p: int, cap: int) -> None:
    """A ring of characteristic p has at least p elements: refuse p past the
    cap before a primality test, whose cost grows as sqrt(p)."""
    if p > cap:
        raise CapExceeded(f"characteristic exceeds cap max_ring_size={cap}")


def capped_power(base: int, exp: int, cap: int, what: str) -> int:
    """base**exp for base >= 2, stopping once it passes max_ring_size=cap,
    so no integer past cap * base is formed and the message stays short."""
    size = 1
    for _ in range(exp):
        size *= base
        if size > cap:
            raise CapExceeded(f"{what} size >= {size} exceeds cap max_ring_size={cap}")
    return size


def caps_from_env() -> Caps:
    """Parse MODGRAPH_CAPS ("key=int,key=int"); an unknown key or a value
    that is not an integer raises SpecError naming the key."""
    fields = {}
    for part in os.environ.get("MODGRAPH_CAPS", "").split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in Caps.__dataclass_fields__:
            raise SpecError(f"unknown cap {key!r} in MODGRAPH_CAPS")
        try:
            fields[key] = int(value)
        except ValueError:
            raise SpecError(f"cap {key!r} in MODGRAPH_CAPS needs an integer, got {value!r}") from None
    return Caps(**fields)
