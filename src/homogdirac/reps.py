"""Finite-dimensional unitary representations of the catalog groups.

A representation is held by its generator images: the matrices assigned
to the orthonormal algebra basis of the owning :class:`GroupModel`.
Group elements are evaluated by exponentiating the generator combination
obtained from the closed-form logarithm, so the exact first-derivative
formulas used by the section engine need nothing beyond these matrices.

The catalog covers the irreducible representations of SU(2) indexed by
``two_j`` (twice the spin), their direct sums, and the adjoint
representation of any cataloged group (evaluated by conjugation, which
requires no logarithm).
"""

from __future__ import annotations

import numpy as np

from .groups import GroupElement, GroupModel, expm_skew

__all__ = [
    "UnitaryRep",
    "spin_rep",
    "adjoint_rep",
    "direct_sum",
    "conjugation_intertwiner",
]


class UnitaryRep:
    """A unitary representation given by its algebra generator images."""

    def __init__(self, group: GroupModel, generators: np.ndarray, name: str,
                 spin: float):
        self.group = group
        self.generators = np.asarray(generators, dtype=complex)
        self.dim = self.generators.shape[1]
        self.name = name
        # largest irreducible spin occurring in the decomposition; used for
        # quadrature bandwidth accounting
        self.spin = float(spin)

    def derivative(self, coords: np.ndarray) -> np.ndarray:
        """Generator image of the algebra vector with the given coordinates."""
        return np.einsum("a,aij->ij", np.asarray(coords, dtype=float), self.generators)

    def matrix(self, x: GroupElement) -> np.ndarray:
        """Value at one group element; batches go through :meth:`matrix_stack`."""
        return self.matrix_stack(x.matrix[None])[0]

    def matrix_stack(self, matrices: np.ndarray) -> np.ndarray:
        """Values at a stack of defining matrices."""
        coords = self.group.log_stack(matrices)
        gen = np.einsum("na,aij->nij", coords, self.generators)
        return expm_skew(gen)

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnitaryRep({self.name}, dim={self.dim})"


class _AdjointRep(UnitaryRep):
    """The adjoint representation, evaluated by conjugation (no logarithm)."""

    def __init__(self, group: GroupModel):
        super().__init__(group, group.ad(np.eye(group.dim)), "adjoint",
                         spin=group.ad_bandwidth)

    def matrix_stack(self, matrices: np.ndarray) -> np.ndarray:
        return self.group.adjoint_stack(matrices)


def spin_rep(group: GroupModel, two_j: int) -> UnitaryRep:
    """The spin-(two_j/2) irreducible representation of the SU(2) catalog.

    Basis vectors are weight vectors ordered by decreasing weight; the
    third algebra axis acts diagonally with eigenvalues -i*m for
    m = j, j-1, ..., -j (scaled with the metric normalization).  The one
    object per (group, two_j) is kept on the group.
    """
    if group.matrix_dim != 2 or group.dim != 3:
        raise ValueError("spin representations are cataloged for SU(2) groups")
    if two_j < 0 or int(two_j) != two_j:
        raise ValueError("two_j must be a nonnegative integer")
    if two_j in group.spin_reps:
        return group.spin_reps[two_j]
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    jz = np.diag(m)
    raise_offdiag = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((two_j + 1, two_j + 1))
    jp[np.arange(two_j), np.arange(1, two_j + 1)] = raise_offdiag
    jm = jp.T
    j1 = (jp + jm) / 2.0
    j2 = (jp - jm) / 2j
    # the orthonormal basis is the raw -(i/2)sigma basis over sqrt(scale)
    gens = np.array([-1j * j1, -1j * j2, -1j * jz]) / np.sqrt(group.metric_scale)
    group.spin_reps[two_j] = UnitaryRep(group, gens, f"spin-{two_j}/2", spin=j)
    return group.spin_reps[two_j]


def adjoint_rep(group: GroupModel) -> UnitaryRep:
    """The adjoint representation on the orthonormal algebra basis; real-valued.

    Its coefficients are the fundamental fields, and its stack on a batch
    is the batch's adjoint stack.  The one object per group is kept on the group.
    """
    if group.ad_rep is None:
        group.ad_rep = _AdjointRep(group)
    return group.ad_rep


def direct_sum(*reps: UnitaryRep) -> UnitaryRep:
    """Block-diagonal direct sum of representations of the same group."""
    group = reps[0].group
    dim = sum(r.dim for r in reps)
    gens = np.zeros((group.dim, dim, dim), dtype=complex)
    off = 0
    for r in reps:
        gens[:, off:off + r.dim, off:off + r.dim] = r.generators
        off += r.dim
    name = "+".join(r.name for r in reps)
    return UnitaryRep(group, gens, name, spin=max(r.spin for r in reps))


def conjugation_intertwiner(two_j: int) -> np.ndarray:
    """Matrix C with conj(rho(x)) = C rho(x) C^{-1} for the spin basis."""
    n = two_j + 1
    c = np.zeros((n, n))
    for a in range(n):
        c[n - 1 - a, a] = (-1.0) ** a
    return c
