"""Exactly differentiable function engine on a compact group.

Sections are immutable expression graphs.  Each node knows how to produce
its values on a batch of group elements and the exact first derivative of
``t -> value(x . exp(t Y))`` at ``t = 0`` (the right-direction derivative
that every covariant-derivative formula in this package consumes).  The
left-translation derivative is a separate primitive (:func:`lambda_deriv`)
and the two are never interchanged; identities relating them go through
explicit formulas.

Derivatives are symbolic per node, never finite differences; finite
differencing appears only in the test suite as an independent oracle.
Functions on the group enter as matrix coefficients x -> u* rho(x) v
(:class:`MatrixCoefficient`): fundamental fields are coefficients of the
adjoint representation, a spectral block's spinors those of a spin
representation and a bundle's frame those of the contragredient of its ambient
one, each with one value per column of a matrix ``v``.
Every pointwise module operation is one of two nodes: a bilinear map of two sections
(:class:`Product`: the module action, Clifford product, fiber inner product, rank-one
endomorphisms and applying an endomorphism), which carries the product rule once, or a
fixed real-linear map of one section (:class:`Pointwise`: the real part and the
grade-one embedding).  The product and sum rules differentiate a constant like any child.
Each operation is a constructor function returning one of them, and a
left derivative is rebuilt through that same function.
Evaluation is batched: an :class:`EvalPoints` wraps a stack of defining matrices of
one group (a quadrature rule's batch wraps the rule's own stack), and a section, which
carries its group, is evaluated only on batches of that group (another group's batch
raises ValueError).  A derivative takes one direction per point or one shared by all
points; a frame Jacobian asks for each frame row as one shared direction.  A batch
caches what a later step reads again: representation stacks (a dual's is the conjugate
of its partner's), held with their representations for the batch's life, and in two
``weakref.WeakKeyDictionary`` caches whose entries die with their key, node values (a
constant's are a read-only view of it; a matrix coefficient's rows u* rho(x) are its
child node's, so one product serves its values and every derivative) and the frame
Jacobians that a covariant derivative contracts with a direction field.  A batch keeps
no derived batch: a left translate is a new batch per evaluation.  Every subgroup action
is one :class:`MatrixKRep` carrying its generators and, if it preserves a grading, its
weights; the trivial and Clifford actions are kept on their group, and a bundle keeps
its fiber action, which restricts a representation to an invariant subspace
(:func:`RestrictedKRep`) and so reads the batch's stack of it.  The tangent action is the
tangent bundle's, and the Clifford action extends the tangent rotations read off the
batch's adjoint stack.  A section carries no action: an equivariant one is a sum of
projected coefficients u* rho(x) P(v), P the closed-form subgroup average
(:meth:`MatrixKRep.invariant`, :func:`invariant_basis`), and :func:`equivariance_defect`
measures a section against the action it is given.  Every node is built by the one
:class:`Section` constructor, with a conservative bandwidth bound (total spin of its
Peter-Weyl content) that :func:`l2_inner` checks against the quadrature rule.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cliffordalg import CliffordAlgebra
from .groups import BandwidthWarning, GroupElement, GroupModel, QuadratureRule
from .reps import UnitaryRep, adjoint_rep

__all__ = [
    "Codomain",
    "EvalPoints",
    "Section",
    "Constant",
    "MatrixCoefficient",
    "FundamentalField",
    "Sum",
    "Scale",
    "CliffordProduct",
    "AInner",
    "Translate",
    "KAverage",
    "RealPart",
    "EmbedTangent",
    "RankOne",
    "ConjugatedProjection",
    "GramSection",
    "OpApply",
    "TrivialKRep",
    "MatrixKRep",
    "RestrictedKRep",
    "CliffordKRep",
    "l2_inner",
    "lambda_deriv",
    "equivariance_defect",
    "BandwidthWarning",
    "DerivativeOrderError",
]


class DerivativeOrderError(RuntimeError):
    """A directional derivative was requested beyond a node's exact order."""


@dataclass(frozen=True)
class Codomain:
    """Value type of a section: kind plus coefficient shape."""

    kind: str  # scalar | vector | tangent | clifford | operator
    shape: tuple

    @staticmethod
    def scalar() -> "Codomain":
        return Codomain("scalar", ())

    @staticmethod
    def vector(dim: int) -> "Codomain":
        return Codomain("vector", (dim,))

    @staticmethod
    def tangent(group: GroupModel) -> "Codomain":
        return Codomain("tangent", (group.m_dim,))

    @staticmethod
    def clifford(algebra: CliffordAlgebra) -> "Codomain":
        return Codomain("clifford", (algebra.n,))

    @staticmethod
    def operator(dim: int) -> "Codomain":
        return Codomain("operator", (dim, dim))


class EvalPoints:
    """A batch of group elements with shared evaluation caches; it keeps no derived batch."""

    def __init__(self, group: GroupModel, matrices: np.ndarray):
        self.group = group
        self.matrices = np.asarray(matrices, dtype=complex)
        self._reps = {}  # {rep: stack}: the batch holds each representation it has a stack of
        self._vals = weakref.WeakKeyDictionary()
        self._jac = weakref.WeakKeyDictionary()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def of(cls, group: GroupModel, elements) -> "EvalPoints":
        return cls(group, np.stack([e.matrix for e in elements]))

    @classmethod
    def for_rule(cls, group: GroupModel, rule: QuadratureRule) -> "EvalPoints":
        if rule.group is not group:
            raise ValueError(f"a rule of group {rule.group.name!r} used on group {group.name!r}")
        if rule.points is None:
            rule.points = cls(group, rule.matrices)
        return rule.points

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    # -- derived batches --------------------------------------------------------

    def left_translated(self, y_inv: GroupElement) -> "EvalPoints":
        """The points y_inv x, as a new uncached batch."""
        return EvalPoints(self.group, y_inv.matrix @ self.matrices)

    # -- cached stacks ----------------------------------------------------------

    def rep_stack(self, rep: UnitaryRep) -> np.ndarray:
        """rho(x) for each point; a dual's is the conjugate of its partner's, so one Sym^n."""
        stack = self._reps.get(rep)
        if stack is None:
            stack = self._reps[rep] = (rep.matrix_stack(self.matrices) if rep.conjugates is None
                                       else self.rep_stack(rep.conjugates).conj())
        return stack

    def node_values(self, node: "Section") -> np.ndarray:
        vals = self._vals.get(node)
        if vals is None:
            _check_group(node, self)
            vals = self._vals[node] = node._values(self)
        return vals

    def frame_derivs(self, node: "Section") -> np.ndarray:
        """The node's derivatives along each complement-frame row, shape (m_dim, n, *shape)."""
        jac = self._jac.get(node)
        if jac is None:
            frame = self.group.m_frame
            jac = np.empty((len(frame), self.n) + node.codomain.shape, dtype=complex)
            for b, y in enumerate(frame):  # one row at a time: its temporaries die before the next
                jac[b] = node.derivs(self, y[None])
            self._jac[node] = jac
        return jac

    def retained_bytes(self) -> int:
        """Bytes of the distinct base buffers this batch's caches hold: a view counts as its
        base, once."""
        bases = {}
        for a in [*self._reps.values(), *self._vals.values(), *self._jac.values()]:
            while isinstance(a.base, np.ndarray):
                a = a.base
            bases[id(a)] = a.nbytes
        return sum(bases.values())


def _check_group(node: "Section", pts: EvalPoints) -> None:
    """A section is a function on its own group: a batch of another group raises ValueError."""
    if node.group is not pts.group:
        raise ValueError(f"{type(node).__name__} on group {node.group.name!r} "
                         f"evaluated on a batch of group {pts.group.name!r}")


# -- equivariance actions of the subgroup ---------------------------------------


_RANK_RTOL = 1e-8  # fixed-vector cut, relative to the largest weight sum or singular value


def invariant_basis(rep: UnitaryRep, gens: np.ndarray, weights: tuple | None = None,
                    grades: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal rows spanning {V : drho(Z) V + V dpi(Z)^T = 0 for each ``k_frame`` row Z}.

    ``gens`` holds dpi(Z); V (rep.dim x k) is flattened row-major.  The subgroup is
    connected, so these V are the fixed points of V -> rho(s) V pi(s)^T.  The first
    generator's operator is normal, so its null space is spanned by the u_i w_j^T with
    a_i + b_j = 0, for the eigenpairs (a, U) of i drho(Z_1) and (b, W) of i dpi(Z_1)
    (:func:`_weights`, or ``weights`` if given); nonzero sums sit far above roundoff.
    A thin SVD of the other generators' images on that span cuts it down: one per grade with
    ``grades`` (of W's columns, in a grading the generators keep), so each row has one grade.
    """
    drho = rep.derivative(rep.group.k_frame)
    (a, u), (b, w) = _weights(drho), _weights(gens) if weights is None else weights
    sums = np.abs(a[:, None] + b)
    i, j = np.nonzero(sums <= _RANK_RTOL * sums.max(initial=0.0))
    vs = u.T[i][:, :, None] * w.T[j][:, None, :]  # V = u_i w_j^T
    if len(drho) > 1 and len(vs):  # drho(Z) V + V dpi(Z)^T for the other generators Z
        image = drho[1:, None] @ vs + vs @ gens[1:, None].swapaxes(-1, -2)
        image = image.reshape(len(image), len(vs), -1).transpose(0, 2, 1).reshape(-1, len(vs))
        parts = ([np.arange(len(vs))] if grades is None
                 else [np.flatnonzero(grades[j] == grade) for grade in np.unique(grades[j])])
        svds = [np.linalg.svd(image[:, part], full_matrices=False)[1:] for part in parts]
        cut = _RANK_RTOL * max(sums.max(), *(sv[0] for sv, _ in svds))
        vs = np.concatenate([np.tensordot(vh[np.count_nonzero(sv > cut):].conj(), vs[part], 1)
                             for part, (sv, vh) in zip(parts, svds)])
    return vs.reshape(len(vs), rep.dim * gens.shape[-1])


def _weights(gens: np.ndarray) -> tuple:
    """Eigenpairs of i gens[0]; with no generator, weight 0 on the standard basis, no eigensolve."""
    k = gens.shape[-1]
    return np.linalg.eigh(1j * gens[0]) if len(gens) else (np.zeros(k), np.eye(k))


def _grade_weights(gens: np.ndarray, grades: np.ndarray) -> tuple:
    """Eigenpairs of i gens[0], which preserves ``grades``, one grade at a time: pure grades."""
    b, w = np.zeros(len(grades)), np.zeros((len(grades),) * 2, dtype=complex)
    for grade in set(grades.tolist()):
        keep = np.flatnonzero(grades == grade)
        b[keep], w[np.ix_(keep, keep)] = _weights(gens[:, keep][:, :, keep])
    return b, w


class MatrixKRep:
    """A subgroup action through unitary matrices, the one type of every action.

    ``stack`` maps an :class:`EvalPoints` batch of subgroup elements to their (n, dim, dim)
    matrices, and ``generators``, dpi(Z) for each ``k_frame`` row Z, are their derivatives.
    Given ``grades``, a grading the generators preserve, it keeps their grade-wise
    eigenpairs as ``weights`` and solves grade by grade: each basis member has a pure grade.
    What it derives from a representation, its basis and for the Clifford action the part
    D_0 of :func:`~homogdirac.dirac.spectral_block`, is kept in one weak entry per rep.
    """

    def __init__(self, group: GroupModel, stack, generators, grades=None):
        self.group, self.stack, self.generators, self.grades = group, stack, generators, grades
        self.dim = generators.shape[-1]
        self.weights = None if grades is None else _grade_weights(generators, grades)
        self._memo = weakref.WeakKeyDictionary()  # per representation: memo's values, by key

    def memo(self, rep: UnitaryRep, key: str, build):
        """The value kept under ``key`` for ``rep``: ``build()`` on first use, then kept while
        ``rep`` lives.  A value must not refer to ``rep``, or the entry would keep it alive."""
        kept = self._memo.setdefault(rep, {})
        if key not in kept:
            kept[key] = build()
        return kept[key]

    def basis(self, rep: UnitaryRep) -> np.ndarray:
        """The :func:`invariant_basis` of ``rep``, kept while ``rep`` lives."""
        return self.memo(rep, "basis", lambda: invariant_basis(rep, self.generators,
                                                               self.weights, self.grades))

    def invariant(self, rep: UnitaryRep, v: np.ndarray) -> np.ndarray:
        """The orthogonal projection P with avg_s pi_s u* rho(x s) v = u* rho(x) P(v)."""
        basis = self.basis(rep)
        return (basis.T @ (basis.conj() @ np.ravel(v))).reshape(np.shape(v))

    def apply_inverse(self, s: EvalPoints, values: np.ndarray) -> np.ndarray:
        """pi_s^-1 v for each point s of a batch and its row v of ``values``."""
        flat = np.reshape(values, (len(values), -1, self.dim))
        return np.einsum("nji,nkj->nki", self.stack(s).conj(), flat).reshape(np.shape(values))


def TrivialKRep(group: GroupModel) -> MatrixKRep:
    """Trivial action, that of right-K-invariant scalar sections; one per group, kept on it."""
    return group.memo("TrivialKRep", lambda: MatrixKRep(
        group, lambda pts: np.ones((pts.n, 1, 1)), np.zeros((group.k_dim, 1, 1))))


def RestrictedKRep(rep: UnitaryRep, embed: np.ndarray) -> MatrixKRep:
    """Subgroup action on an invariant subspace: E* rho(s) E."""
    e = np.asarray(embed, dtype=complex)
    return MatrixKRep(rep.group, lambda pts: e.conj().T @ pts.rep_stack(rep) @ e,
                      e.conj().T @ rep.derivative(rep.group.k_frame) @ e)


def CliffordKRep(group: GroupModel, algebra: CliffordAlgebra) -> MatrixKRep:
    """Adjoint action on the group's spinor algebra by automorphisms; one per group, kept on it.

    ``algebra`` must have one generator per tangent direction, or this raises ValueError.
    """
    if algebra.p != group.m_dim:
        raise ValueError(f"a Clifford algebra on {algebra.p} generators for a tangent "
                         f"complement of dimension {group.m_dim}")

    def stack(pts: EvalPoints) -> np.ndarray:  # the tangent rotations, from the adjoint stack
        tangent = group.m_frame @ pts.rep_stack(adjoint_rep(group)) @ group.m_frame.T
        return np.array([algebra.orthogonal_extend(t) for t in tangent.real]).astype(complex)

    return group.memo("CliffordKRep", lambda: MatrixKRep(
        group, stack, algebra.derivation_stack(group.k_tangent), algebra.grades))


# -- section nodes ----------------------------------------------------------------


class Section:
    """Base node: immutable, with batched values and exact first derivatives."""

    def __init__(self, children, codomain: Codomain, bandwidth: float,
                 deriv_order: int | None = None, group: GroupModel | None = None):
        """Every node's constructor: a composite node takes the least derivative order of its
        ``children`` and its first child's group unless it is given them; a leaf gives both."""
        self.children = tuple(children)
        self.codomain = codomain
        self.bandwidth = bandwidth
        self.deriv_order = (min(c.deriv_order for c in self.children) if deriv_order is None
                            else deriv_order)
        self.group = self.children[0].group if group is None else group

    def _values(self, pts: EvalPoints) -> np.ndarray:
        raise NotImplementedError

    def _derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- public API -----------------------------------------------------------

    def values(self, pts: EvalPoints) -> np.ndarray:
        return pts.node_values(self)

    def derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        """Derivatives along algebra directions at each point, shape (n, *codomain.shape).

        ``dirs`` is (n, dim), one direction per point, or (1, dim), one direction shared
        by every point; each node broadcasts the shared one only where it must.
        """
        # linear over the reals in the directions only: RealPart takes the real
        # part of complex derivatives, so a complex direction field is contracted
        # with the real-direction Jacobian (frame_derivs) instead
        if self.deriv_order < 1:
            raise DerivativeOrderError(
                f"{type(self).__name__} supports no exact directional derivative")
        _check_group(self, pts)
        return self._derivs(pts, np.asarray(dirs))

    def frame_derivs(self, pts: EvalPoints) -> np.ndarray:
        """Derivatives along each complement-frame row, (m_dim, n, *shape); cached on the batch."""
        return pts.frame_derivs(self)

    def _lambda(self, coords: np.ndarray) -> "Section":
        raise NotImplementedError(
            f"left-translation derivative unsupported for {type(self).__name__}")


class Constant(Section):
    """A constant section: its values and its zero derivatives are read-only stride-0 views,
    not a copy per point; a :class:`Sum` or :class:`Product` differentiates it like any child."""

    def __init__(self, codomain: Codomain, value, *, group: GroupModel):
        super().__init__((), codomain, 0.0, 1, group)
        self.const = np.asarray(value, dtype=complex).reshape(codomain.shape)

    def _values(self, pts: EvalPoints) -> np.ndarray:
        return np.broadcast_to(self.const, (pts.n,) + self.codomain.shape)

    def _derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(0j, (pts.n,) + self.codomain.shape)

    def _lambda(self, coords: np.ndarray) -> Section:
        return Constant(self.codomain, np.zeros(self.codomain.shape), group=self.group)


class _Rows(Section):
    """u* rho(x) per point: a :class:`MatrixCoefficient`'s child, cached as its values are;
    its parent differentiates it, so it has no derivative of its own."""

    def __init__(self, rep: UnitaryRep, u: np.ndarray):
        super().__init__((), Codomain.vector(rep.dim), rep.spin, 0, rep.group)
        self.rep, self.u = rep, u

    def _values(self, pts: EvalPoints) -> np.ndarray:
        return self.u.conj() @ pts.rep_stack(self.rep)


class MatrixCoefficient(Section):
    """The section x -> u* rho(x) v, linear in v and conjugate-linear in u.

    A vector ``v`` gives a scalar section; a (dim, k) matrix ``v`` gives one
    coefficient per column, as a section in ``codomain`` (of shape (k,)).
    The right derivative along Y is u* rho(x) drho(Y) v, with drho(e_a) v
    contracted once here.  Fundamental fields, the spinors of a spectral block
    and bundle frames are coefficients of this form; see :func:`FundamentalField`,
    :func:`~homogdirac.dirac.spectral_block` and :class:`~homogdirac.bundles.InducedBundle`.
    """

    def __init__(self, rep: UnitaryRep, u: np.ndarray, v: np.ndarray,
                 codomain: Codomain | None = None):
        self.rep = rep
        self.u = np.asarray(u)
        self.v = np.asarray(v, dtype=complex)
        super().__init__((_Rows(rep, self.u),), codomain or Codomain.scalar(), rep.spin, 1)
        if self.v.shape[1:] != self.codomain.shape:
            raise ValueError(f"coefficient vectors of shape {self.v.shape} do not give "
                             f"values of shape {self.codomain.shape}")
        # drho(e_a) v for each algebra axis a, flattened to one row per axis
        self._dv = (rep.generators @ self.v.reshape(rep.dim, -1)).reshape(self.group.dim, -1)

    def _values(self, pts: EvalPoints) -> np.ndarray:
        return (self.children[0].values(pts) @ self.v).reshape((pts.n,) + self.codomain.shape)

    def _derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        dv = (dirs @ self._dv).reshape((len(dirs), self.rep.dim, -1))  # drho(Y) v
        rows = self.children[0].values(pts)
        # one product for a shared direction, one small product per point otherwise
        out = rows @ dv[0] if len(dv) == 1 else (rows[:, None] @ dv)[:, 0]
        return out.reshape((pts.n,) + self.codomain.shape)

    def _lambda(self, coords: np.ndarray) -> Section:
        return MatrixCoefficient(self.rep, self.rep.derivative(coords) @ self.u, self.v,
                                 self.codomain)


def FundamentalField(group: GroupModel, coords: np.ndarray) -> MatrixCoefficient:
    """The tangent section generated by an algebra vector X.

    Its value -P Ad_x^-1 X, in complement-frame coordinates, is the adjoint
    coefficient <X, Ad_x (-m_frame^T)>; its right derivative along Y is the
    projected bracket P [Y, Ad_x^-1 X], and its left derivative is the field of [Y, X].
    """
    return MatrixCoefficient(adjoint_rep(group), np.asarray(coords, dtype=float),
                             -group.m_frame.T, Codomain.tangent(group))


class Sum(Section):
    """Linear combination of sections with constant coefficients."""

    def __init__(self, children, coeffs=None):
        children = list(children)
        if not children:
            raise ValueError("empty sum")
        cod = children[0].codomain
        if any(c.codomain != cod for c in children):
            raise ValueError("summands have mismatched codomains")
        super().__init__(children, cod, max(c.bandwidth for c in children))
        self.coeffs = (np.ones(len(children), dtype=complex) if coeffs is None
                       else np.asarray(coeffs, dtype=complex))

    def _values(self, pts: EvalPoints) -> np.ndarray:
        out = self.coeffs[0] * self.children[0].values(pts)
        for c, child in zip(self.coeffs[1:], self.children[1:]):
            out = out + c * child.values(pts)
        return out

    def _derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(0j, (pts.n,) + self.codomain.shape)
        for c, child in zip(self.coeffs, self.children):
            out = out + c * child.derivs(pts, dirs)
        return out

    def _lambda(self, coords: np.ndarray) -> Section:
        return Sum([c._lambda(coords) for c in self.children], self.coeffs)


# -- pointwise module operations: one bilinear node and one linear node -------------


class Product(Section):
    """A pointwise bilinear map ``mul`` of two sections: the product rule, once.

    Values are mul(a, b) and right derivatives mul(da, b) + mul(a, db).  The
    left derivative make(a', b) + make(a, b') is rebuilt through ``make``,
    the public constructor that built this node, so it passes the same checks.
    """

    def __init__(self, mul, make, a: Section, b: Section, codomain: Codomain):
        super().__init__((a, b), codomain, a.bandwidth + b.bandwidth)
        self.mul, self.make = mul, make

    def _values(self, pts: EvalPoints) -> np.ndarray:
        a, b = self.children
        return self.mul(a.values(pts), b.values(pts))

    def _derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        a, b = self.children
        return (self.mul(a.derivs(pts, dirs), b.values(pts))
                + self.mul(a.values(pts), b.derivs(pts, dirs)))

    def _lambda(self, coords: np.ndarray) -> Section:
        a, b = self.children
        return Sum([self.make(a._lambda(coords), b), self.make(a, b._lambda(coords))])


class Pointwise(Section):
    """A fixed real-linear map ``fn`` of a section's values, and so of its derivatives.

    The left derivative make(child') is rebuilt through ``make``, the public
    constructor that built this node.
    """

    def __init__(self, fn, make, child: Section, codomain: Codomain):
        super().__init__((child,), codomain, child.bandwidth)
        self.fn, self.make = fn, make

    def _values(self, pts: EvalPoints) -> np.ndarray:
        return self.fn(self.children[0].values(pts))

    def _derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        return self.fn(self.children[0].derivs(pts, dirs))

    def _lambda(self, coords: np.ndarray) -> Section:
        return self.make(self.children[0]._lambda(coords))


def _scale(vals: np.ndarray, scalars: np.ndarray) -> np.ndarray:
    return vals * scalars.reshape(scalars.shape + (1,) * (vals.ndim - 1))


def _pairing(vals_a: np.ndarray, vals_b: np.ndarray) -> np.ndarray:
    prod = vals_a.conj() * vals_b
    return prod.reshape(prod.shape[0], -1).sum(axis=1)


def _outer(zeta: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return np.einsum("ni,nj->nij", zeta, eta.conj())


def _apply(op: np.ndarray, xi: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nj->ni", op, xi)


def Scale(child: Section, scalar: Section) -> Product:
    """Pointwise module action: a section scaled by a scalar section.

    The module action of an invariant scalar preserves equivariance.
    """
    if scalar.codomain.kind != "scalar":
        raise ValueError("scale factor must be a scalar section")
    return Product(_scale, Scale, child, scalar, child.codomain)


def CliffordProduct(algebra: CliffordAlgebra, a: Section, b: Section) -> Product:
    """Pointwise Clifford product of two Clifford-valued sections."""
    if a.codomain.kind != "clifford" or b.codomain.kind != "clifford":
        raise ValueError("both factors must be Clifford-valued")
    if a.codomain != b.codomain:
        raise ValueError("factors live in different algebras")
    return Product(algebra.mul, partial(CliffordProduct, algebra), a, b, a.codomain)


def AInner(a: Section, b: Section) -> Product:
    """Pointwise fiber inner product, Hermitian in the first slot.

    For vector sections this is the Hilbert-space pairing, for tangent
    sections the Riemannian metric, and for Clifford sections the trace
    pairing tau(a* . b); all reduce to coordinate pairings because the
    bases used are orthonormal for the corresponding fiber products.
    """
    if a.codomain != b.codomain:
        raise ValueError("fiber inner product needs matching codomains")
    if a.codomain.kind == "operator":
        raise ValueError("operator sections have no fiber inner product here")
    return Product(_pairing, AInner, a, b, Codomain.scalar())


def RankOne(zeta: Section, eta: Section) -> Product:
    """The operator-valued section zeta(x) eta(x)^*, acting as xi -> zeta <eta, xi>."""
    if zeta.codomain != eta.codomain or zeta.codomain.kind not in ("vector", "tangent"):
        raise ValueError("rank-one sections need two matching vector sections")
    return Product(_outer, RankOne, zeta, eta, Codomain.operator(zeta.codomain.shape[0]))


def OpApply(op: Section, xi: Section) -> Product:
    """Pointwise application of an operator section to a vector section."""
    if op.codomain.kind != "operator":
        raise ValueError("first factor must be operator-valued")
    if xi.codomain.shape[0] != op.codomain.shape[1]:
        raise ValueError("operator and argument dimensions differ")
    return Product(_apply, OpApply, op, xi, xi.codomain)


def _real(vals: np.ndarray) -> np.ndarray:
    return vals.real.astype(complex)


def RealPart(child: Section) -> Pointwise:
    """Entrywise real part (an R-linear node); it keeps equivariance under a real action only."""
    return Pointwise(_real, RealPart, child, child.codomain)


def EmbedTangent(algebra: CliffordAlgebra, child: Section) -> Pointwise:
    """Embed a tangent section into grade one of the Clifford bundle."""
    if child.codomain.kind != "tangent":
        raise ValueError("only tangent sections embed into the Clifford bundle")
    return Pointwise(algebra.embed_vector, partial(EmbedTangent, algebra), child,
                     Codomain.clifford(algebra))


class Translate(Section):
    """Left translation: value(x) = child(y^{-1} x)."""

    def __init__(self, child: Section, y: GroupElement):
        super().__init__((child,), child.codomain, child.bandwidth)
        self.y = y

    def _values(self, pts: EvalPoints) -> np.ndarray:
        return self.children[0].values(pts.left_translated(self.y.inverse))

    def _derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        # right-direction derivatives commute with left translation
        return self.children[0].derivs(pts.left_translated(self.y.inverse), dirs)

    def _lambda(self, coords: np.ndarray) -> Section:
        pulled = self.group.adjoint(self.y.inverse, coords)
        return Translate(self.children[0]._lambda(pulled), self.y)


def KAverage(child: Section, krep, group: GroupModel) -> Section:
    """The average of pi_s child(x s) over the trivial subgroup {e}: ``child`` itself, for any
    action ``krep``.  Over a nontrivial subgroup it raises ValueError; there,
    :meth:`MatrixKRep.invariant` projects coefficients in closed form."""
    if group.k_dim:
        raise ValueError(f"KAverage averages over the trivial subgroup only; on {group.name!r} "
                         "project coefficients with MatrixKRep.invariant")
    return child


class ConjugatedProjection(Section):
    """The operator section rho(x) M rho(x)^*, e.g. the bundle projection."""

    def __init__(self, rep: UnitaryRep, m: np.ndarray):
        super().__init__((), Codomain.operator(rep.dim), 2 * rep.spin, 1, rep.group)
        self.rep = rep
        self.m = np.asarray(m, dtype=complex)
        # the commutators [drho(e_a), M], flattened to one row per algebra axis
        gens = rep.generators
        self._dm = (gens @ self.m - self.m @ gens).reshape(self.group.dim, -1)

    def _values(self, pts: EvalPoints) -> np.ndarray:
        r = pts.rep_stack(self.rep)
        return np.einsum("nij,jk,nlk->nil", r, self.m, r.conj())

    def _derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        r = pts.rep_stack(self.rep)
        inner = (dirs @ self._dm).reshape((len(dirs),) + r.shape[1:])  # [drho(Y), M]
        return r @ inner @ r.conj().transpose(0, 2, 1)


class GramSection(Section):
    """The matrix of pairwise fiber inner products of a family of sections."""

    def __init__(self, frame):
        frame = list(frame)
        if not frame:
            raise ValueError("empty frame")
        super().__init__(frame, Codomain.operator(len(frame)), 2 * max(f.bandwidth for f in frame))

    @staticmethod
    def _flat(stack: np.ndarray) -> np.ndarray:
        return stack.reshape(stack.shape[0], stack.shape[1], -1)

    def _values(self, pts: EvalPoints) -> np.ndarray:
        stack = self._flat(np.stack([f.values(pts) for f in self.children]))
        return np.einsum("jnc,knc->njk", stack.conj(), stack)

    def _derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        stack = self._flat(np.stack([f.values(pts) for f in self.children]))
        dstack = self._flat(np.stack([f.derivs(pts, dirs) for f in self.children]))
        return (np.einsum("jnc,knc->njk", dstack.conj(), stack)
                + np.einsum("jnc,knc->njk", stack.conj(), dstack))


# -- module-level operations -------------------------------------------------------


def l2_inner(a: Section, b: Section, rule: QuadratureRule) -> complex:
    """Quadrature pairing of the pointwise fiber inner product over ``a``'s group.

    Warns if the combined bandwidth bound of the integrand exceeds the
    declared exactness of the rule; sections of different groups raise ValueError.
    """
    rule.warn_if_inexact(a.bandwidth + b.bandwidth)
    pts = EvalPoints.for_rule(a.group, rule)
    pair = _pairing(a.values(pts), b.values(pts))
    total = complex(np.dot(rule.weights, pair))
    return total.real if abs(total.imag) < 1e-13 * max(1.0, abs(total)) else total


def lambda_deriv(section: Section, coords: np.ndarray) -> Section:
    """The left-translation derivative generated by an algebra vector.

    This is the derivative of t -> Translate(section, exp(t Y)), that is of
    x -> section(exp(-t Y) x), at t = 0,
    built structurally so the result is again an exactly differentiable
    section.  It is kept separate from the right-direction derivative used
    by covariant differentiation.
    """
    return section._lambda(np.asarray(coords, dtype=float))


def equivariance_defect(section: Section, krep, x: GroupElement, s):
    """Residual of the equivariance condition section(x s) = pi_s^-1 section(x) under the
    subgroup action ``krep``, at (x, s).

    For a list ``s`` of subgroup elements, the array of residuals at each,
    with x and every x s evaluated as one batch.
    """
    g = section.group
    one = isinstance(s, GroupElement)
    subgroup = EvalPoints.of(g, [s] if one else s)
    vals = section.values(EvalPoints(g, np.concatenate([x.matrix[None],
                                                        x.matrix @ subgroup.matrices])))
    rhs = krep.apply_inverse(subgroup, np.broadcast_to(vals[0], vals[1:].shape))
    res = np.linalg.norm((vals[1:] - rhs).reshape(subgroup.n, -1), axis=1)
    return float(res[0]) if one else res
