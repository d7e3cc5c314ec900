"""Exact computational algebra for intersection graphs of finite modules.

Build finite rings and modules from operation tables, enumerate their full
submodule lattices, construct intersection graphs, compute exact invariants
(clique number, chromatic number, girth, diameter, socle, Goldie dimension),
and machine-check the classification statements the package implements over
named instances and exhaustive instance families.
"""

from .caps import Caps, caps_from_env
from .checks import ALL_CHECKS, CheckReport, Verdict, run_suite
from .errors import (
    CapExceeded,
    ConstructionError,
    ModgraphError,
    SpecError,
    StructureError,
)
from .fields import gf_tables, subfield_image
from .graphs import (
    ApplicabilityFailure,
    Coloring,
    GraphShape,
    IntersectionGraph,
    build_graph,
    color_by_overline,
    color_complement_by_uniform_clique,
    homogeneous_socle_pair,
)
from .lattice import (
    Lattice,
    count_iso_simple,
    end_size,
    enumerate_submodules,
    find_double_simple_image,
    is_simple_module,
    iso_count_simples,
    prime_radical,
    section_hom_count,
    simples_isomorphic,
)
from .modules import (
    FiniteModule,
    Submodule,
    custom_module,
    direct_sum,
    quotient,
    regular_module,
    submodule_as_module,
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
from .solvers import chromatic_number, max_clique, max_cliques
from .specs import Instance, build_instance, load_spec_file, make_spec
from .zoo import InstanceContext, contexts

__version__ = "0.1.0"
