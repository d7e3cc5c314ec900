"""Resource caps for constructions, lattice enumeration and exact solvers.

Caps bound memory (operation tables are O(n^2)) and combinatorial blow-up.
Callers pass a frozen `Caps` value, so one shared default serves every call.
Each cap is tested by one `Caps` method, the only code that raises
CapExceeded, and each refusal comes before the work it bounds: before a
table or a batch of submodules is built, or an exact search starts.  Every message
names the field it hit, as `max_ring_size=<value>`.  Defaults can be
overridden per call, via CLI flags, or with the env var
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

    def check_size(self, n: int, what: str) -> None:
        """Refuse a ring or module of n elements, `what` naming its kind."""
        if n > self.max_ring_size:
            raise CapExceeded(f"{what} size {n} exceeds cap max_ring_size={self.max_ring_size}")

    def check_characteristic(self, p: int) -> None:
        """A ring of characteristic p has at least p elements: refuse p past the
        cap before a primality test, whose cost grows as sqrt(p)."""
        if p > self.max_ring_size:
            raise CapExceeded(f"characteristic exceeds cap max_ring_size={self.max_ring_size}")

    def capped_power(self, base: int, exp: int, what: str) -> int:
        """base**exp for base >= 2, stopping once it passes the cap, so no
        integer past cap * base is formed and the message stays short."""
        size = 1
        for _ in range(exp):
            size *= base
            if size > self.max_ring_size:
                raise CapExceeded(f"{what} size >= {size} exceeds cap max_ring_size={self.max_ring_size}")
        return size

    def check_submodules(self, count: int) -> None:
        """Refuse a lattice once count, the members found so far, passes the cap."""
        if count > self.max_submodules:
            raise CapExceeded(f"at least {count} submodules exceed cap max_submodules={self.max_submodules}")

    def check_vertices(self, n: int) -> None:
        """Refuse an exact solve on a graph of n vertices."""
        if n > self.max_exact_vertices:
            raise CapExceeded(f"{n} vertices exceeds the exact-solver cap max_exact_vertices={self.max_exact_vertices}")


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
