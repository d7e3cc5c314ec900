import os
from pathlib import Path

import pytest

from modgraph.caps import Caps
from modgraph.modules import direct_sum, quotient, regular_module, submodule_generated
from modgraph.rings import ring_gf, ring_triangular, ring_zmod
from modgraph.zoo import contexts, family_specs, named_instance_specs

# the interpreters the CLI tests start import the package from src/ too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def caps():
    return Caps()


@pytest.fixture(scope="session")
def named_contexts():
    return list(contexts(named_instance_specs()))


@pytest.fixture(scope="session")
def family16_contexts():
    return list(contexts(family_specs(16)))


@pytest.fixture(scope="session")
def ctx_by_id(named_contexts):
    return {c.instance_id: c for c in named_contexts}


@pytest.fixture(scope="session")
def z12_module():
    return regular_module(ring_zmod(12))


@pytest.fixture(scope="session")
def f2_squared():
    reg = regular_module(ring_gf(2, 1))
    return direct_sum(reg, reg)


@pytest.fixture(scope="session")
def triangular_f4():
    return regular_module(ring_triangular(2, 2, 1))


@pytest.fixture(scope="session")
def z2_x_z4():
    reg = regular_module(ring_zmod(4))
    half, _ = quotient(reg, submodule_generated(reg, [2]))
    return direct_sum(half, reg)
