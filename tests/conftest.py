import numpy as np
import pytest

from homogdirac import GroupModel, UnitaryRep


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


def _direct_sum(*reps):
    """Block-diagonal direct sum of representations of one group; a new object per call."""
    dim = sum(r.dim for r in reps)

    def block_diagonal(blocks):
        out = np.zeros(blocks[0].shape[:-2] + (dim, dim), dtype=complex)
        off = 0
        for r, block in zip(reps, blocks):
            out[..., off:off + r.dim, off:off + r.dim] = block
            off += r.dim
        return out

    return UnitaryRep(reps[0].group, block_diagonal([r.generators for r in reps]),
                      "+".join(r.name for r in reps), spin=max(r.spin for r in reps),
                      stack_fn=lambda m: block_diagonal([r.matrix_stack(m) for r in reps]))


@pytest.fixture(scope="session")
def direct_sum():
    """The direct sum of representations, which the package itself does not build."""
    return _direct_sum
