import pytest

from toricfol import multiprojective, rational_scroll, torsion_surface, weighted_projective
from toricfol.selfcheck import default_models


@pytest.fixture(scope="session")
def p2():
    return weighted_projective(1, 1, 1)


@pytest.fixture(scope="session")
def p1p1():
    return multiprojective(1, 1)


@pytest.fixture(scope="session")
def surface_z3():
    return torsion_surface()


@pytest.fixture(scope="session")
def scroll11():
    return rational_scroll(1, 1)


@pytest.fixture(scope="session")
def family_models():
    return default_models()
