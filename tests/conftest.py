import numpy as np
import pytest

from homogdirac import GroupModel


@pytest.fixture(scope="session")
def sphere():
    """SU(2) with the circle subgroup; the quotient is the round two-sphere."""
    return GroupModel.su2()


@pytest.fixture(scope="session")
def full_group():
    """SU(2) with the trivial subgroup; a non-symmetric quotient."""
    return GroupModel.su2_trivial_k()


@pytest.fixture(scope="session")
def rule8(sphere):
    return sphere.haar_rule(8)


@pytest.fixture(scope="session")
def rule8_full(full_group):
    return full_group.haar_rule(8)


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)
