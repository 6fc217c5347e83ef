"""Test-only code that the package does not carry: oracles and one-point helpers.

The subgroup orbit average (:class:`OrbitAverage`) is the quadrature reference for the
closed-form projector ``MatrixKRep.invariant``: the average of pi_s child(x s) over a
uniform rule on the subgroup (:func:`k_rule`), with pi_s from the action's stack on the
rule's nodes (:func:`rule_stack`).  The frame formulas of the former hand-written frame
node (:func:`frame_values`, :func:`frame_derivs`) are the reference for a bundle's frame
of contragredient coefficients.  The one-point helpers evaluate a section at one
element, and the rest are the representation, action and report helpers whose only
callers are tests: among them the conjugation action on operator sections
(:class:`OperatorKRep`), against which rank-one endomorphisms are equivariant.  The
sampled self-adjointness criterion (:func:`sampled_criterion`, through the torsion
trace section :func:`torsion_trace`) is the oracle of the closed-form ``criterion_check``.

The orthonormal spinors of an isotypic block (:func:`isotypic_basis`) give the quadrature
route to ``spectral_block``.  Two readings of the blocks, the kernel dimension
(:func:`kernel_count`) and the grade-compressed square (:func:`grade_compressed_square`),
stay here until the Hodge decomposition read off the blocks (ROADMAP item 4) calls them.
The Connes-type distance estimate (:func:`metric_estimate`, with :func:`orbit_vector`
and the test functions of :func:`coefficient_family`) stays here until the comparison
with the quantized sphere (ROADMAP item 10) brings back what it calls.
"""

import functools
import weakref

import numpy as np

from homogdirac import (ApplyConnection, Codomain, CriterionReport, EvalPoints, GroupElement,
                        GroupModel, MatrixCoefficient, QuadratureRule, RealPart, Section,
                        SpectralBlock, Sum, UnitaryRep, adjoint_rep,
                        canonical_connection, gradient, isotypic_coefficients, spin_rep,
                        spinor_algebra, tangent_frame)
from homogdirac.groups import _one_parameter_period, expm_skew
from homogdirac.sections import Pointwise, invariant_basis

# nodes of the circle subgroup's uniform rule: orbit averages of functions
# on G (OrbitAverage) are exact up to frequency 16
K_RULE_SIZE = 33


def k_rule(group) -> QuadratureRule:
    """Uniform quadrature over the subgroup, built on first use and kept on the group.

    The trivial subgroup's rule is the identity with weight 1, and a circle's is K_RULE_SIZE
    equally spaced points over one period; other subgroups raise NotImplementedError.
    """
    def build():
        if group.k_dim == 0:
            return QuadratureRule(group.identity().matrix[None], np.array([1.0]), np.inf, group)
        if group.k_dim == 1:
            # the generator's period is read off the defining matrices; 4*pi for su(2)
            z = np.einsum("a,aij->ij", group.k_frame[0], group.basis)
            ts = _one_parameter_period(z) * np.arange(K_RULE_SIZE) / K_RULE_SIZE
            return QuadratureRule(expm_skew(ts[:, None, None] * z),
                                  np.full(K_RULE_SIZE, 1.0 / K_RULE_SIZE),
                                  (K_RULE_SIZE - 1) / 2, group)
        raise NotImplementedError("only trivial and one-parameter subgroups have a rule")

    return group.memo("k_rule", build)


def k_nodes(group) -> list:
    """The nodes of :func:`k_rule` as group elements, in node order."""
    return [GroupElement(m) for m in k_rule(group).matrices]


_RULE_STACKS = weakref.WeakKeyDictionary()  # {action: its matrices at the k_rule nodes}


def rule_stack(krep) -> np.ndarray:
    """A matrix action's matrices at the nodes of ``k_rule``, in node order; kept while it lives."""
    stack = _RULE_STACKS.get(krep)
    if stack is None:
        group = krep.group
        stack = _RULE_STACKS[krep] = krep.stack(EvalPoints.for_rule(group, k_rule(group)))
    return stack


class OrbitAverage(Section):
    """Equivariant projection: average of pi_s child(x s) over the subgroup rule.

    Idempotent on equivariant sections, and exactly equivariant whenever the subgroup rule
    integrates the (band-limited) integrand exactly.  Each evaluation builds a new, uncached
    batch of the points x s; on the trivial subgroup, the average over {e} with weight 1, it
    returns its child's values and derivatives bit for bit.
    """

    def __init__(self, child: Section, krep, group):
        self.children = (child,)
        self.group = group
        self.codomain = child.codomain
        self.deriv_order = child.deriv_order
        self.bandwidth = child.bandwidth
        self.krep = krep
        self.rule = k_rule(group)

    def _average(self, vals: np.ndarray) -> np.ndarray:
        # vals holds the child on the orbit batch, node-major
        shape = (len(self.rule), -1) + vals.shape[1:]
        vals = vals.reshape(len(self.rule), -1, self.krep.dim)
        vals = (vals @ rule_stack(self.krep).transpose(0, 2, 1)).reshape(shape)  # pi_s v at node s
        return np.tensordot(self.rule.weights, vals, axes=1)

    def _orbit(self, pts: EvalPoints) -> EvalPoints:
        """The points x s for every rule node s, node-major, as a new uncached batch."""
        prod = pts.matrices[None] @ self.rule.matrices[:, None]  # x_i s_k at index k * n + i
        return EvalPoints(self.group, prod.reshape((-1,) + prod.shape[2:]))

    def _values(self, pts: EvalPoints) -> np.ndarray:
        if self.group.k_dim == 0:  # the average over {e} with weight 1
            return self.children[0].values(pts)
        return self._average(self.children[0].values(self._orbit(pts)))

    def _derivs(self, pts: EvalPoints, dirs: np.ndarray) -> np.ndarray:
        if self.group.k_dim == 0:
            return self.children[0].derivs(pts, dirs)
        # Ad_{s^{-1}} dirs for every node s, rowwise: (K, 1 or n, dim)
        pulled = dirs @ EvalPoints.for_rule(self.group, self.rule).rep_stack(
            adjoint_rep(self.group))
        if len(pulled) > 1:  # the orbit's K n points take K different directions
            pulled = np.broadcast_to(pulled, (len(pulled), pts.n, dirs.shape[-1]))
        return self._average(self.children[0].derivs(self._orbit(pts),
                                                     pulled.reshape(-1, dirs.shape[-1])))

    def _lambda(self, coords: np.ndarray) -> Section:
        return OrbitAverage(self.children[0]._lambda(coords), self.krep, self.group)


# -- one-point helpers --------------------------------------------------------------


def value(section, x: GroupElement):
    """The section's value at one element: its values on a one-point batch."""
    return section.values(EvalPoints.of(section.group, [x]))[0]


def deriv(section, x: GroupElement, direction):
    """The section's derivative at one element along one algebra direction."""
    return section.derivs(EvalPoints.of(section.group, [x]), np.asarray(direction)[None])[0]


def random_element(group, rng) -> GroupElement:
    """One Haar sample: the one-point case of ``random_elements``."""
    return group.random_elements(rng, 1)[0]


# -- the former frame formulas -------------------------------------------------------


def frame_values(bundle, j: int, pts: EvalPoints) -> np.ndarray:
    """Frame section j as the former hand-written node gave it: conj(rho(x)[j, :] E)."""
    return np.conj(pts.rep_stack(bundle.rep_tilde)[:, j, :] @ bundle.embed)


def frame_derivs(bundle, j: int, pts: EvalPoints, dirs) -> np.ndarray:
    """Its right derivatives in the former form -E* drho(Y) rho(x)^* e_j, complex-linear in Y."""
    rep = bundle.rep_tilde
    w = np.conj(pts.rep_stack(rep)[:, j, :])  # rho(x)^* e_j
    egen = (bundle.embed.conj().T @ rep.generators).reshape(-1, rep.dim)  # E* drho(e_a)
    ew = (w @ egen.T).reshape(pts.n, -1, bundle.fiber_dim)
    return -(np.asarray(dirs)[:, None] @ ew)[:, 0]


# -- representations, actions and reports -------------------------------------------


def krep_matrix(krep, s: GroupElement) -> np.ndarray:
    """pi_s at one subgroup element: the action's stack on a one-point batch."""
    return krep.stack(EvalPoints.of(krep.group, [s]))[0]


class OperatorKRep:
    """Conjugation action on operator-valued sections: T -> pi_s T pi_s^{-1}."""

    def __init__(self, inner):
        self.inner = inner

    def apply_inverse(self, s: EvalPoints, values: np.ndarray) -> np.ndarray:
        m = self.inner.stack(s)
        return m.conj().transpose(0, 2, 1) @ values @ m


def direct_sum(*reps) -> UnitaryRep:
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


def symmetric_space_residual(group) -> float:
    """max ||P [Y_a, Y_b]|| over complement-frame pairs; 0 for symmetric spaces."""
    brackets = group.ad(group.m_frame) @ group.m_frame.T  # [Y_a, Y_b] in column b
    return float(np.linalg.norm(group.proj_m @ brackets, axis=1).max(initial=0.0))


def symmetric_space_check(group) -> tuple:
    """(is_symmetric, residual): whether tangent brackets fall into the isotropy algebra."""
    residual = symmetric_space_residual(group)
    return residual <= 1e-12, residual


def vector_part(alg, a) -> np.ndarray:
    """The grade-one coefficients of ``a``, in generator order."""
    return np.asarray(a)[..., [1 << b for b in range(alg.p)]]


def criteria_consistent(report) -> bool:
    """The two equivalent residuals of a criterion report pass or fail together."""
    return ((report.torsion_trace_max <= report.tolerance)
            == (report.correction_sum_residual <= report.tolerance))


# -- the sampled self-adjointness criterion ------------------------------------------


def torsion_trace(connection, u: Section) -> Pointwise:
    """The trace of W -> T(u, W): the scalar section x -> sum_a t_a u_a(x).

    t_a = sum_b T(u_a, u_b)_b; over any orthonormal module frame W_j this
    is sum_j <W_j, T(u, W_j)>.  t is invariant under the isotropy action,
    so the trace of an equivariant field is an invariant scalar.
    """
    if u.codomain != Codomain.tangent(connection.group):
        raise ValueError("the torsion trace takes a tangent section")
    t = np.einsum("abb->a", connection.torsion_tensor)
    return Pointwise(lambda vals: vals @ t, functools.partial(torsion_trace, connection), u,
                     Codomain.scalar())


def sampled_criterion(connection, pts: EvalPoints) -> CriterionReport:
    """Both criteria measured on sections at sample points, the former ``criterion_check``.

    The trace residual is the largest |t . W_j(x)| over the fundamental frame, which
    approaches |t| from below; the correction residual is the largest norm of the frame sum
    sum_j (nabla_{W_j} W_j - nabla^0_{W_j} W_j), the constant c at every point.
    """
    if not connection.is_compatible:
        raise ValueError("the criterion applies to metric-compatible connections")
    g = connection.group
    frame = tangent_frame(g)
    trace_max = float(np.max([np.abs(torsion_trace(connection, u).values(pts)).max()
                              for u in frame]))
    canon = canonical_connection(g)
    correction = Sum([
        Sum([ApplyConnection(connection, wj, wj),
             ApplyConnection(canon, wj, wj)], [1.0, -1.0])
        for wj in frame
    ])
    corr_res = float(np.linalg.norm(correction.values(pts), axis=1).max())
    return CriterionReport(trace_max, corr_res)


# -- the quadrature route to the spectral blocks ---------------------------------------


def isotypic_basis(rep: UnitaryRep) -> list:
    """Orthonormal spinor basis of the left-translation isotypic block of the irrep ``rep``.

    Entries are (row, grade, section); the scaling by sqrt(dim) makes the
    family orthonormal for the quadrature inner product by Schur
    orthogonality.  ``spectral_block`` works on the coefficient matrices
    alone; these sections give the quadrature route to kron(I, m), one copy
    of m per row.
    """
    clifford = Codomain.clifford(spinor_algebra(rep.group))
    return [(row, grade, MatrixCoefficient(rep, np.eye(rep.dim)[row], np.sqrt(rep.dim) * c,
                                           clifford))
            for row in range(rep.dim) for grade, c in isotypic_coefficients(rep)]


def kernel_count(blocks: list, tol: float = 1e-6) -> int:
    """Dimension of D's kernel on the blocks: each block's zero modes times its multiplicity."""
    return int(sum(b.multiplicity * int(np.sum(np.abs(b.eigenvalues) < tol)) for b in blocks))


def grade_compressed_square(block: SpectralBlock, grade: int = 0) -> np.ndarray:
    """Eigenvalues of D^2 compressed to the basis vectors of one grade, in one copy of the block."""
    sym = (block.matrix + block.matrix.conj().T) / 2.0
    sq = sym @ sym
    idx = np.where(block.grades == grade)[0]
    return np.linalg.eigvalsh(sq[np.ix_(idx, idx)])


# -- the Connes-type distance estimate ---------------------------------------------------


def orbit_vector(group: GroupModel, x: GroupElement) -> np.ndarray:
    """Adjoint image of the isotropy axis: the unit-sphere embedding of xK."""
    if group.k_dim != 1:
        raise ValueError("orbit vectors are defined for circle quotients")
    return group.adjoint_matrix(x) @ group.k_frame[0]


def metric_estimate(group: GroupModel, p: GroupElement, q: GroupElement,
                    family: list, rule: QuadratureRule,
                    extra_points: list | None = None) -> float:
    """Lower bound on the quotient metric from a family of test functions.

    Each function is normalized by the measured sup of its gradient norm
    (the operator norm of its Dirac commutator); the estimate is the best
    normalized separation over the family.  The sup is a max over the
    quadrature nodes plus optional extra sample points, so callers probing
    tight bounds should densify near the expected maximizers (the
    geodesic arc between the two points).
    """
    if not family:
        raise ValueError("empty test function family")
    pts = EvalPoints.for_rule(group, rule)
    eval_pts = [pts]
    if extra_points:
        eval_pts.append(EvalPoints.of(group, list(extra_points)))
    ends = EvalPoints.of(group, [p, q])
    separations = []
    for f in family:
        grad = gradient(group, f)
        sup = float(np.max([np.linalg.norm(grad.values(ep), axis=1).max() for ep in eval_pts]))
        if sup < 1e-14:
            continue
        fp, fq = f.values(ends)
        separations.append(abs((fp - fq).real) / sup)
    return float(np.max(separations, initial=0.0))


def coefficient_family(group: GroupModel, max_two_j: int = 4,
                       vectors: list | None = None) -> list:
    """Real matrix-coefficient test functions on the circle quotient.

    Real and imaginary parts of the coefficients <e_row, rho(x) v> of the
    integer levels up to ``max_two_j``, for each subgroup-invariant v (its
    largest entry real and positive); optionally extended by linear
    functionals of the orbit vector (adjoint coefficients) for the given
    direction vectors.  A coefficient is linear in v, so the imaginary part
    Im(u* rho(x) v) is the real part of the coefficient of -i v.
    """
    fam = []
    k_axis = group.k_frame[0]
    ar = adjoint_rep(group)
    for v in (vectors or []):
        fam.append(MatrixCoefficient(ar, np.asarray(v, dtype=float), k_axis))
    for two_j in range(2, max_two_j + 1, 2):
        rep = spin_rep(group, two_j)
        for v in invariant_basis(rep, np.zeros((group.k_dim, 1, 1))):
            top = v[np.argmax(np.abs(v))]
            v = v * (abs(top) / top)
            for row in range(rep.dim):
                u = np.eye(rep.dim)[row]
                fam += [RealPart(MatrixCoefficient(rep, u, v)),
                        RealPart(MatrixCoefficient(rep, u, -1j * v))]
    return fam
