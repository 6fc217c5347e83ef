"""The Hodge-Dirac operator on the Clifford bundle of a homogeneous space.

The spinor module is the Clifford bundle of the tangent module acting on
itself by left multiplication; no spin structure enters.  For a metric
compatible connection the operator is the frame sum

    D phi = sum_j (nabla_{W_j} phi) . W_j

over any standard module frame, and is frame independent because the
summand is module-bilinear in the pair (direction, frame member).  On the
fundamental-field frame sum_j W_j(x) (x) W_j(x) = sum_b e_b (x) e_b, since
Ad_x is orthogonal, so D takes the constant-frame form

    D phi = sum_b (d_{Y_b} phi + Delta_b phi) . e_b

over the complement frame Y_b (Parthasarathy's form on G/K), with Delta_b
the connection's Clifford derivations.  :func:`hodge_dirac` builds that
form by default, as one node contracting phi's frame Jacobian, which a
batch computes once per section; the frame sum over an explicit frame is
kept as its oracle.  The module provides the operator itself, the
gradient on scalar functions, the defect measurements for the
multiplication-commutator identity and for formal self-adjointness, the
equivalent trace/correction criteria that decide self-adjointness for
compatible invariant connections, read off the torsion tensor T0 and ``gamma``
(sampling their frame fields is the tests' oracle), and exact finite matrices of
D on left-translation isotypic blocks.

The blocks are pure linear algebra: on spinors rho(x)[row, :] . C of an irrep rho,
Frobenius reciprocity turns D into M(C) = sum_a drho(Y_a) C R_a^T + C C_0, with
[C_0, R_a^T] the connection's ``dirac_stack`` (R_a right multiplication by e_a),
so by Schur orthogonality D on rho's block is dim(rho) copies of the matrix
<C_i, M(C_j)>, which a block stores once.  The C_i span the fixed vectors of
the subgroup: products of weight vectors whose weights cancel.  Formal
self-adjointness on band-limited equivariant spinors is therefore a finite
statement, that every block up to their bandwidth is Hermitian, and
:func:`selfadjoint_defect` reads it off the blocks' asymmetry without quadrature;
the pairing <D phi, psi> - <phi, D psi> of two quadratures is its independent check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .groups import GroupModel
from .reps import UnitaryRep, adjoint_rep, spin_rep
from .sections import (
    CliffordKRep,
    CliffordProduct,
    DerivativeOrderError,
    EmbedTangent,
    EvalPoints,
    Scale,
    Section,
    Sum,
)
from .geometry import (
    ApplyConnection,
    Connection,
    canonical_connection,
    levi_civita_connection,
    spinor_algebra,
    tangent_frame,
)

__all__ = [
    "spinor_algebra",
    "hodge_dirac",
    "gradient",
    "commutator_defect",
    "selfadjoint_defect",
    "CriterionReport",
    "criterion_check",
    "connection_test_matrix",
    "minimal_violating_connection",
    "SpectralBlock",
    "isotypic_coefficients",
    "spectral_block",
    "casimir_value",
]

class _HodgeDirac(Section):
    """D phi in constant-frame form: phi C + sum_b J_b R_b^T, one node.

    J_b is phi's derivative along the complement-frame row b (its frame
    Jacobian, cached on the batch); C and the R_b^T are the connection's
    :attr:`~homogdirac.geometry.Connection.dirac_stack`.
    """

    def __init__(self, connection: Connection, phi: Section):
        if phi.deriv_order < 1:
            raise DerivativeOrderError("target section has no derivative budget left")
        g = connection.group
        # the frame sum's bound (phi times two frame fields), so both forms warn alike
        super().__init__((phi,), phi.codomain, phi.bandwidth + 2 * adjoint_rep(g).spin, 0, g)
        self.connection = connection

    def _values(self, pts: EvalPoints) -> np.ndarray:
        phi = self.children[0]
        stack = self.connection.dirac_stack
        jac = phi.frame_derivs(pts)  # (b, n, S)
        # rows (b, S) of the stacked R_b^T, so one product sums over b and S
        out = jac.transpose(1, 0, 2).reshape(pts.n, -1) @ stack[1:].reshape(-1, stack.shape[-1])
        if self.connection.is_canonical:
            return out
        return out + phi.values(pts) @ stack[0]


def hodge_dirac(connection: Connection, phi: Section,
                frame: list | None = None) -> Section:
    """Apply the Hodge-Dirac operator of a compatible connection to a spinor.

    The connection correction must be skew-valued (metric compatible) so it
    extends to derivations of the Clifford bundle; other corrections are
    rejected.  With no ``frame`` the result is one node in constant-frame
    form, sum_b (d_{Y_b} phi + Delta_b phi) . e_b over the complement frame.
    An explicit orthonormal ``frame`` gives the frame sum
    sum_j (nabla_{W_j} phi) . W_j itself: the oracle for the closed form,
    and the way to exercise frame independence.
    """
    if not connection.is_compatible:
        raise ValueError("the Clifford extension needs a metric-compatible connection")
    if phi.codomain.kind != "clifford":
        raise ValueError("the Hodge-Dirac operator acts on Clifford-valued sections")
    if frame is None:
        return _HodgeDirac(connection, phi)
    algebra = spinor_algebra(connection.group)
    return Sum([CliffordProduct(algebra, ApplyConnection(connection, wj, phi),
                                EmbedTangent(algebra, wj))
                for wj in frame])


def gradient(group: GroupModel, f: Section) -> Section:
    """The tangent section metrically dual to df: sum_j W_j (delta_{W_j} f), W_j the frame."""
    if f.codomain.kind != "scalar":
        raise ValueError("gradients are defined for scalar sections")
    conn = canonical_connection(group)
    return Sum([Scale(wj, ApplyConnection(conn, wj, f)) for wj in tangent_frame(group)])


def commutator_defect(connection: Connection, f: Section, phi: Section,
                      pts: EvalPoints) -> float:
    """max_x || D(phi f) - (D phi) f - phi . grad_f || over the sample points.

    The identity [D, M_f] phi = phi . grad_f holds for every compatible
    connection entering D; the returned defect is its pointwise residual.
    """
    g = connection.group
    algebra = spinor_algebra(g)
    lhs = hodge_dirac(connection, Scale(phi, f))
    mid = Scale(hodge_dirac(connection, phi), f)
    grad = EmbedTangent(algebra, gradient(g, f))
    rhs = CliffordProduct(algebra, phi, grad)
    resid = Sum([lhs, mid, rhs], [1.0, -1.0, -1.0])
    vals = resid.values(pts)
    return float(np.linalg.norm(vals, axis=1).max())


def selfadjoint_defect(connection: Connection, pairs: list, rule=None) -> float:
    """The largest block asymmetry |m - m^H| over the irreps the pairs' spinors reach.

    D maps each left-translation isotypic block into itself, so on equivariant spinors of
    spin at most B it is formally self-adjoint exactly when the :func:`spectral_block` of
    every two_j = 0 ... 2B is Hermitian, B the largest ``bandwidth`` of the pairs' sections.
    No section is evaluated.  ``rule`` is accepted and unused, for callers that still pass
    one.  Raises ValueError for an incompatible connection or a complex gamma, and for a
    section that is not Clifford-valued or not on the connection's group.
    """
    g = connection.group
    sections = [s for pair in pairs for s in pair]
    for s in sections:
        if s.codomain.kind != "clifford":
            raise ValueError("the Hodge-Dirac operator acts on Clifford-valued sections")
        if s.group is not g:
            raise ValueError(f"{type(s).__name__} on group {s.group.name!r} paired under "
                             f"a connection on group {g.name!r}")
    top = max(s.bandwidth for s in sections)
    return float(np.max([spectral_block(connection, spin_rep(g, two_j)).asymmetry
                         for two_j in range(int(2 * top) + 1)]))


@dataclass
class CriterionReport:
    """Result of the self-adjointness criterion for a compatible connection: the 2-norms of
    the torsion trace t and of the correction sum c, each passing at most ``tolerance``."""

    torsion_trace_max: float
    correction_sum_residual: float
    tolerance: ClassVar[float] = 1e-8

    @property
    def passes(self) -> bool:
        return (self.torsion_trace_max <= self.tolerance
                and self.correction_sum_residual <= self.tolerance)


def criterion_check(connection: Connection, pts: EvalPoints | None = None) -> CriterionReport:
    """Both equivalent self-adjointness criteria, read off the connection's tensors.

    The torsion trace t_a = sum_b T(u_a, u_b)_b and the correction sum
    c = sum_a gamma(u_a) u_a are constant vectors, and for compatible invariant
    connections they vanish together.  No section is evaluated: ``pts`` is
    accepted and unused, for callers that still pass one.
    """
    if not connection.is_compatible:
        raise ValueError("the criterion applies to metric-compatible connections")
    trace = np.einsum("abb->a", connection.torsion_tensor)
    correction = np.einsum("aia->i", connection.gamma)
    return CriterionReport(float(np.linalg.norm(trace)), float(np.linalg.norm(correction)))


def _balanced_random_gamma(group: GroupModel, rng: np.random.Generator) -> np.ndarray:
    """Random skew-valued gamma with the frame correction sum equal to zero.

    The correction sum of a pointwise gamma is the constant vector
    c = sum_a gamma(u_a) u_a.  Subtracting (c e_a^T - e_a c^T) / (p - 1) from
    each gamma(u_a) removes it with the least-norm change among skew-matrix
    tuples (p >= 2).
    """
    p = group.m_dim
    gamma = np.stack([_random_skew(rng, p) for _ in range(p)])
    outer = np.einsum("i,aj->aij", np.einsum("aia->i", gamma), np.eye(p))  # c e_a^T
    gamma = gamma - (outer - outer.transpose(0, 2, 1)) / (p - 1)
    assert np.linalg.norm(np.einsum("aia->i", gamma)) < 1e-12
    return gamma


def _violating_random_gamma(group: GroupModel, rng: np.random.Generator) -> np.ndarray:
    """Random skew-valued gamma whose frame correction sum is bounded away from zero."""
    p = group.m_dim
    while True:
        gamma = np.stack([_random_skew(rng, p) for _ in range(p)])
        if np.linalg.norm(np.einsum("aia->i", gamma)) >= 0.5:
            return gamma


def _random_skew(rng: np.random.Generator, p: int) -> np.ndarray:
    a = rng.standard_normal((p, p))
    return (a - a.T) / 2.0


def minimal_violating_connection(group: GroupModel) -> Connection:
    """The smallest correction that breaks self-adjointness.

    One rotation generator in the plane of the first two tangent axes,
    attached to the first frame direction: its correction sum is the
    second axis, so both criteria fail while the connection stays
    metric compatible.
    """
    p = group.m_dim
    if p < 2:
        raise ValueError("needs at least two tangent directions")
    rot = np.zeros((p, p))
    rot[1, 0], rot[0, 1] = 1.0, -1.0
    gamma = np.zeros((p, p, p))
    gamma[0] = rot
    return Connection(group, gamma, name="violating-minimal")


def connection_test_matrix(group: GroupModel, rng: np.random.Generator) -> list:
    """Named connections spanning both sides of the self-adjointness criterion.

    On quotients with a nontrivial subgroup the intertwining condition
    pins the compatible invariant connection family down to the canonical
    one (which coincides with Levi-Civita on symmetric spaces), so the
    random entries, five balanced then five violating, only exist over a trivial subgroup.
    """
    out = [("canonical", canonical_connection(group)),
           ("levi-civita", levi_civita_connection(group))]
    if group.k_dim == 0:
        for i in range(5):
            out.append((f"balanced-{i}",
                        Connection(group, _balanced_random_gamma(group, rng),
                                   name=f"balanced-{i}")))
        out.append(("violating-minimal", minimal_violating_connection(group)))
        for i in range(4):
            out.append((f"violating-{i}",
                        Connection(group, _violating_random_gamma(group, rng),
                                   name=f"violating-{i}")))
    return out


# -- isotypic blocks -----------------------------------------------------------


def isotypic_coefficients(rep: UnitaryRep) -> list:
    """Per-grade orthonormal bases of the invariant coefficient space of the irrep ``rep``.

    A profile sum_{r,T} C[r,T] rho(x)[row,r] e_T is an equivariant spinor exactly when
    rho(s) C = C K(s) for subgroup elements s, with K the Clifford extension of the tangent
    action (:func:`~homogdirac.sections.CliffordKRep`): its invariant basis, exact for every
    irrep and kept while ``rep`` lives.  K preserves grade and solves with grade-wise
    weights, so basis members carry a pure grade.  Returns (grade, matrix) pairs by grade,
    which :func:`spectral_block` stacks once per ``rep`` into the connection-free part D_0.
    """
    algebra = spinor_algebra(rep.group)
    cs = CliffordKRep(rep.group, algebra).basis(rep).reshape(-1, rep.dim, algebra.n)
    grades = algebra.grades[np.abs(cs).sum(axis=1).argmax(axis=1)]  # of each member's support
    return [(int(grades[i]), cs[i]) for i in np.argsort(grades, kind="stable")]


@dataclass
class SpectralBlock:
    """D on one left-translation isotypic block: ``multiplicity`` (dim rho) copies of ``matrix``.

    ``matrix``, ``grades`` and ``eigenvalues`` (ascending) describe one
    copy, indexed like ``isotypic_coefficients``; on the orthonormal spinors
    sqrt(dim rho) rho(x)[row, :] . C_i, row-major, D is kron(I_multiplicity, matrix).
    Of D = D_0 + C_Gamma, ``matrix`` is new per connection, while ``grades`` and
    ``gram_defect`` come from D_0's part, kept while rho lives and shared by every block of rho.
    ``closure`` is the part of D's image leaving the block's span, the only
    leakage not identically zero.  The eigenvalues are solved for on first
    read: the defect reads only ``asymmetry``.
    """

    multiplicity: int
    grades: np.ndarray
    matrix: np.ndarray
    gram_defect: float
    asymmetry: float
    closure: float

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:  # of the symmetrized matrix
        return np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2.0)

    @property
    def dim(self) -> int:  # of the whole block
        return self.multiplicity * len(self.grades)


def spectral_block(connection: Connection, rep: UnitaryRep) -> SpectralBlock:
    """Assemble D restricted to the isotypic block of the irrep ``rep``.

    The block holds one copy, m[i, j] = <C_i, M(C_j)> on the basis of
    ``isotypic_coefficients``; m is symmetrized before the eigensolve and
    its asymmetry reported, so violating connections get real eigenvalues.
    M = D_0 + C_Gamma is affine in the connection: D_0 C = sum_a drho(u_a) C R_a^T needs
    only ``rep`` and the algebra, so the Clifford action keeps its image of the basis while
    ``rep`` lives (:meth:`~homogdirac.sections.MatrixKRep.memo`), and a call adds C C_0.
    Raises ValueError when ``rep`` is not a representation of the connection's group.
    """
    g = connection.group
    if rep.group is not g:
        raise ValueError(f"{rep.name} of group {rep.group.name!r} for a connection on "
                         f"group {g.name!r}")
    part = CliffordKRep(g, spinor_algebra(g)).memo(rep, "D_0", lambda: _canonical_part(rep))
    if not part:
        return SpectralBlock(0, np.zeros(0, int), np.zeros((0, 0)), 0.0, 0.0, 0.0)
    grades, cs, flat, gram_defect, canonical = part
    image = (canonical + cs @ connection.dirac_stack[0]).reshape(len(cs), -1)
    small = flat.conj() @ image.T
    closure = float(np.abs(image - small.T @ flat).max())
    asymmetry = float(np.abs(small - small.conj().T).max())
    return SpectralBlock(rep.dim, grades, small, gram_defect, asymmetry, closure)


def _canonical_part(rep: UnitaryRep) -> tuple:
    """(grades, cs, flat, gram_defect, D_0 cs) of the block, cs (i, r, T) stacking
    ``isotypic_coefficients`` and flat its rows; () if the block is empty."""
    coeffs = isotypic_coefficients(rep)
    if not coeffs:
        return ()
    cs = np.stack([c for _, c in coeffs])                       # (i, r, T)
    drho = rep.derivative(rep.group.m_frame)                    # (a, r, r)
    right = spinor_algebra(rep.group).right_generators          # R_a^T as in dirac_stack[1:]
    right = right.transpose(0, 2, 1).astype(complex, order="C")
    flat = cs.reshape(len(cs), -1)
    gram_defect = float(np.abs(flat.conj() @ flat.T - np.eye(len(cs))).max())
    return (np.array([grade for grade, _ in coeffs]), cs, flat, gram_defect,
            (drho[:, None] @ cs @ right[:, None]).sum(axis=0))


def casimir_value(rep: UnitaryRep) -> float:
    """The quadratic Casimir eigenvalue of an irreducible representation.

    Computed from the generator images alone: minus the normalized trace
    of the sum of squared generators.
    """
    total = np.einsum("aij,ajk->ik", rep.generators, rep.generators)
    return float((-np.trace(total) / rep.dim).real)
