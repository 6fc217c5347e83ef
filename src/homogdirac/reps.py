"""Finite-dimensional unitary representations of the catalog groups.

A representation is held by its generator images (the matrices assigned
to the orthonormal algebra basis of the owning :class:`GroupModel`) and
by a closed-form function of the defining matrices that gives its values
on a stack of group elements; the exact first-derivative formulas used by
the section engine need nothing beyond the generators.

The catalog covers the irreducible representations of SU(2) indexed by
``two_j`` (twice the spin), evaluated as symmetric powers of the defining
2x2 matrix, the adjoint representation of any cataloged group (one
product with the Kronecker square of the defining matrix), and the dual
(contragredient) of any representation, the complex conjugate of its
values.  No value takes a logarithm or an exponential.
"""

from __future__ import annotations

import weakref
from functools import partial

import numpy as np

from .groups import GroupModel

__all__ = [
    "UnitaryRep",
    "spin_rep",
    "adjoint_rep",
    "dual_rep",
]


class UnitaryRep:
    """A unitary representation given by its generator images and its stack function.

    A dual records in ``conjugates`` the representation whose values it conjugates.
    """

    def __init__(self, group: GroupModel, generators: np.ndarray, name: str,
                 spin: float, stack_fn, conjugates: UnitaryRep | None = None):
        self.group = group
        self.generators = np.asarray(generators, dtype=complex)
        self.dim = self.generators.shape[1]
        self.name = name
        # largest irreducible spin occurring in the decomposition; used for
        # quadrature bandwidth accounting
        self.spin = float(spin)
        self._stack_fn = stack_fn
        self.conjugates = conjugates

    def derivative(self, coords: np.ndarray) -> np.ndarray:
        """Generator image of the algebra vector with the given coordinates (one per row)."""
        coords = np.asarray(coords, dtype=float)
        flat = coords @ self.generators.reshape(len(self.generators), -1)  # one matmul
        return flat.reshape(coords.shape[:-1] + self.generators.shape[1:])

    def matrix_stack(self, matrices: np.ndarray) -> np.ndarray:
        """Values at a stack of defining matrices."""
        return self._stack_fn(matrices)

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnitaryRep({self.name}, dim={self.dim})"


def _symmetric_power_stack(matrices: np.ndarray, n: int) -> np.ndarray:
    """Sym^n(x) in the weight basis e_r (r = j - m), for a stack of 2x2 matrices x.

    rho_k = E_k^T (rho_{k-1} (x) x) E_k, where the isometry E_k sends e_r to
    w_0[r] e_r (x) f_0 + w_1[r] e_{r-1} (x) f_1 with w_0 = sqrt((k-r)/k) and
    w_1 = sqrt(r/k); entrywise, rho_k[r', r] is the sum over a, b of
    w_a[r'] w_b[r] x[a, b] rho_{k-1}[r'-a, r-b].  Each step compresses a
    unitary, so roundoff does not grow with n.  The (a, b) term is nonzero only on
    the k x k block at rows a.., columns b.., so each step adds the four weighted
    blocks into one (k+1) x (k+1) stack in place, without a zero-padded copy.
    """
    x = np.asarray(matrices, dtype=complex)
    rho = np.ones((len(x), 1, 1), dtype=complex)
    for k in range(1, n + 1):
        r = np.arange(k + 1)
        w = (np.sqrt((k - r) / k), np.sqrt(r / k))
        out = np.zeros((len(x), k + 1, k + 1), dtype=complex)
        for a in (0, 1):
            for b in (0, 1):
                out[:, a:a + k, b:b + k] += (np.outer(w[a][a:a + k], w[b][b:b + k])
                                             * (x[:, a, b, None, None] * rho))
        rho = out
    return rho


def _symmetric_power_generators(basis: np.ndarray, n: int) -> np.ndarray:
    """d Sym^n(X) for each 2x2 algebra matrix X = [[a, b], [c, d]] of ``basis``.

    Entries (s, s) = (n-s) a + s d, (s+1, s) = c sqrt((n-s)(s+1)) and
    (s-1, s) = b sqrt(s(n-s+1)): the derivative of the symmetric power at 1.
    """
    s = np.arange(n + 1)
    a, b, c, d = (basis[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    gens = np.zeros((len(basis), n + 1, n + 1), dtype=complex)
    gens[:, s, s] = (n - s) * a + s * d
    gens[:, s[1:], s[:-1]] = c * np.sqrt((n - s[:-1]) * (s[:-1] + 1))
    gens[:, s[:-1], s[1:]] = b * np.sqrt(s[1:] * (n - s[1:] + 1))
    return gens


def spin_rep(group: GroupModel, two_j: int) -> UnitaryRep:
    """The spin-(two_j/2) irreducible representation of an SU(2) group.

    Its value at x is the symmetric power Sym^{two_j}(x) of the defining
    matrix, in weight vectors ordered by decreasing weight (for the catalog
    basis the third algebra axis acts diagonally with eigenvalues -i*m,
    m = j, j-1, ..., -j, scaled with the metric normalization).  Its
    generators are the derivatives of that formula along ``group.basis``,
    so values and generators agree for any basis of su(2).  There is one object per
    (group, two_j): the group keeps the trivial irrep (two_j = 0, O(1) in size) for life, so
    its basis and D_0 part are built once, and keeps any other only while held elsewhere.
    """
    if group.matrix_dim != 2 or group.dim != 3:
        raise ValueError(f"spin representations are cataloged for SU(2) groups; not {group.name!r}")
    if two_j < 0 or int(two_j) != two_j:
        raise ValueError("two_j must be a nonnegative integer")
    reps = (group.memo("spin_reps", weakref.WeakValueDictionary) if two_j
            else group.memo("trivial_rep", dict))
    rep = reps.get(two_j)
    if rep is None:
        n = int(two_j)
        rep = reps[two_j] = UnitaryRep(
            group, _symmetric_power_generators(group.basis, n), f"spin-{two_j}/2",
            spin=n / 2.0, stack_fn=partial(_symmetric_power_stack, n=n))
    return rep


def adjoint_rep(group: GroupModel) -> UnitaryRep:
    """The adjoint representation on the orthonormal algebra basis; real-valued.

    Its coefficients are the fundamental fields, and its stack on a batch
    is the batch's adjoint stack.  The one object per group is kept on the group.
    """
    # spin 1 on SU(2); elsewhere no exact rule exists to compare a bandwidth with
    return group.memo("adjoint_rep", lambda: UnitaryRep(
        group, group.ad(np.eye(group.dim)), "adjoint",
        spin=1.0 if group.matrix_dim == 2 and group.dim == 3 else np.inf,
        stack_fn=group.adjoint_stack))


def dual_rep(rep: UnitaryRep) -> UnitaryRep:
    """The contragredient x -> rho(x^-1)^T = conj(rho(x)): generators conj(drho).

    A representation with real generators has real values, so it is its own dual and is
    returned.  A batch reads another dual's stack as the conjugate of ``rep``'s.
    """
    if not np.any(rep.generators.imag):
        return rep
    return UnitaryRep(rep.group, rep.generators.conj(), f"dual-{rep.name}", rep.spin,
                      stack_fn=lambda matrices: rep.matrix_stack(matrices).conj(), conjugates=rep)
