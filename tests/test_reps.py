"""Representation stacks in closed form against the exponential of their generators."""

import numpy as np
import pytest

from homogdirac import GroupModel, adjoint_rep, spin_rep
from homogdirac.groups import _su2_raw_basis, expm_skew
from homogdirac.reps import _symmetric_power_stack
from oracles import direct_sum, scaled_su2


def rotated_su2(metric_scale=2.5):
    """SU(2) declared in a rotated basis of su(2), with the circle along its third axis."""
    ca, sa, cb, sb = np.cos(0.7), np.sin(0.7), np.cos(1.1), np.sin(1.1)
    rot = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]]) @ np.array(
        [[1, 0, 0], [0, cb, -sb], [0, sb, cb]])
    return GroupModel("rotated", np.einsum("ab,bij->aij", rot, _su2_raw_basis()),
                      subgroup_indices=(2,), metric_scale=metric_scale)


def u2():
    """U(2): the su(2) basis and the centre, no subgroup."""
    raw = _su2_raw_basis()
    return GroupModel("u2", np.concatenate([raw, [-0.5j * np.eye(2)]]))


def ladder_generators(group, two_j):
    """Spin generators from the J+/J- ladder in the catalog basis -(i/2)sigma / sqrt(scale)."""
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    jz = np.diag(m)
    raise_offdiag = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((two_j + 1, two_j + 1))
    jp[np.arange(two_j), np.arange(1, two_j + 1)] = raise_offdiag
    jm = jp.T
    j1 = (jp + jm) / 2.0
    j2 = (jp - jm) / 2j
    return np.array([-1j * j1, -1j * j2, -1j * jz]) / np.sqrt(group.metric_scale)


GROUPS = {"su2": GroupModel.su2, "su2-scale-4": lambda: scaled_su2(4.0),
          "rotated": rotated_su2}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_matrix_stack_is_the_exponential_of_the_generators(name, rng):
    """rho(exp X) = exp(drho(X)); the eigendecomposition exponential is the oracle."""
    group = GROUPS[name]()
    reps = [spin_rep(group, two_j) for two_j in range(41)]
    reps += [adjoint_rep(group),
             direct_sum(spin_rep(group, 1), spin_rep(group, 4), adjoint_rep(group))]
    coords = rng.standard_normal((6, group.dim))
    xs = np.stack([group.exp(c).matrix for c in coords])
    for rep in reps:
        stack = rep.matrix_stack(xs)
        oracle = np.stack([expm_skew(np.einsum("a,aij->ij", c, rep.generators)) for c in coords])
        assert np.abs(stack - oracle).max() < 1e-12, rep.name
        unitary = stack @ stack.conj().transpose(0, 2, 1) - np.eye(rep.dim)
        assert np.abs(unitary).max() < 1e-13, rep.name


@pytest.mark.parametrize("make", [GroupModel.su2, GroupModel.su2_trivial_k,
                                  lambda: scaled_su2(4.0)],
                         ids=["su2", "su2-trivial-k", "su2-scale-4"])
def test_spin_generators_are_the_ladder_generators_on_the_catalog(make):
    group = make()
    for two_j in range(41):
        assert np.array_equal(spin_rep(group, two_j).generators, ladder_generators(group, two_j))


@pytest.mark.parametrize("make", [GroupModel.su2, u2], ids=["su2", "u2"])
def test_adjoint_stack_matches_einsum_form(make, rng):
    """The one product with the Kronecker square against the conjugation einsum."""
    group = make()
    xs = np.stack([x.matrix for x in group.random_elements(rng, 50)])
    conj = np.einsum("nij,ajk,nlk->nail", xs, group.basis, xs.conj())
    oracle = (np.einsum("bij,naji->nba", group.basis, conj) * (-group.form_factor)).real
    stack = group.adjoint_stack(xs)
    assert stack.shape == (50, group.dim, group.dim) and stack.dtype == float
    assert np.abs(stack - oracle).max() < 1e-14


def padded_symmetric_power_stack(matrices, n):
    """The former recursion: each step pads rho_{k-1} with a zero border and sums four
    full-size weighted shifts of it.  The oracle of the in-place recursion."""
    x = np.asarray(matrices, dtype=complex)
    rho = np.ones((len(x), 1, 1), dtype=complex)
    for k in range(1, n + 1):
        r = np.arange(k + 1)
        w = (np.sqrt((k - r) / k), np.sqrt(r / k))
        q = np.zeros((len(x), k + 2, k + 2), dtype=complex)  # rho_{k-1} with a zero border
        q[:, 1:-1, 1:-1] = rho
        rho = sum(np.outer(w[a], w[b])
                  * (x[:, a, b, None, None] * q[:, 1 - a:k + 2 - a, 1 - b:k + 2 - b])
                  for a in (0, 1) for b in (0, 1))
    return rho


def test_symmetric_power_stack_is_the_padded_recursion_bit_for_bit(sphere, rule8, rng):
    """Same products in the same order: equal to the last bit, on unitary and on arbitrary 2x2."""
    stacks = [rule8.matrices, np.stack([x.matrix for x in sphere.random_elements(rng, 40)]),
              rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))]
    for xs in stacks:
        for two_j in range(13):
            assert np.array_equal(_symmetric_power_stack(xs, two_j),
                                  padded_symmetric_power_stack(xs, two_j)), two_j


def test_symmetric_power_roundoff_does_not_grow_with_n(sphere, rng):
    xs = np.stack([x.matrix for x in sphere.random_elements(rng, 200)])
    stack = _symmetric_power_stack(xs, 40)
    defect = stack @ stack.conj().transpose(0, 2, 1) - np.eye(41)
    assert np.abs(defect).max() <= 1e-12
