"""Error types shared across the package."""


class ModgraphError(Exception):
    """Base class for all package errors."""


class CapExceeded(ModgraphError):
    """A size or enumeration cap was exceeded."""


class ConstructionError(ModgraphError):
    """A ring/module builder received inconsistent data or failed an axiom check."""


class StructureError(ModgraphError):
    """An operation's structural precondition on the input module is not met."""


class SpecError(ModgraphError):
    """Invalid input by name or shape: a malformed instance spec, an unknown
    field or kind, or an unknown family or unknown or repeated check id."""
