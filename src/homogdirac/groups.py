"""Compact matrix Lie groups with a chosen reductive splitting.

A :class:`GroupModel` packages a compact matrix group G together with an
orthonormal basis of its Lie algebra, a closed subgroup K (given by a
subalgebra and a quadrature rule over K), the orthogonal splitting of the
algebra into the isotropy part and its complement, and Haar quadrature
over G.  Everything downstream (bundles, connections, Dirac operators)
consumes the group only through coordinate operations in the orthonormal
basis: exponential, adjoint action, brackets and projections.

Conventions.  The algebra basis is orthonormalized in declared order for
the invariant form ``<A, B> = -c * tr(A B)``, with ``c`` fixed so that the
declared basis has unit norm (times an optional ``metric_scale``).  All
coordinate vectors are expressed in that orthonormal basis.  The isotropy
subalgebra is spanned by ``k_frame`` rows; its orthogonal complement,
conventionally written ``m``, is spanned by ``m_frame`` rows and carries
the induced inner product that defines the invariant metric on G/K.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .sections import EvalPoints

__all__ = [
    "GroupElement",
    "QuadratureRule",
    "GroupModel",
    "expm_skew",
]

_EXPANSION_TOL = 1e-10
_SUBALGEBRA_TOL = 1e-12
_PIVOT_TOL = 1e-10


class GroupElement:
    """A group element held as a unitary/orthogonal matrix.

    Only the inverse is cached on the element; nothing else caches data
    per element.  Values at one element are computed afresh, and batches
    evaluate through the stacks cached on their points.
    """

    __slots__ = ("matrix", "_inv", "__weakref__")

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=complex)
        self._inv = None

    @property
    def inverse(self) -> "GroupElement":
        if self._inv is None:
            self._inv = GroupElement(self.matrix.conj().T)
        return self._inv

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix)

    def unitary_defect(self) -> float:
        n = self.matrix.shape[0]
        return float(np.linalg.norm(self.matrix @ self.matrix.conj().T - np.eye(n)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"GroupElement({self.matrix.tolist()!r})"


class BandwidthWarning(UserWarning):
    """Integrand bandwidth bound exceeds the quadrature rule's exactness."""


@dataclass(eq=False)
class QuadratureRule:
    """Nodes and weights for integration over a compact group, the ``group`` it was built for.

    The nodes are held as one (count, N, N) stack of defining ``matrices``, from which the
    rule's evaluation batch is built.
    Every rule is exact: it integrates all products of matrix coefficients
    of total spin <= ``bandwidth`` exactly.
    """

    matrices: np.ndarray
    weights: np.ndarray
    bandwidth: float
    group: GroupModel = field(repr=False)
    # the sections.EvalPoints batch of the nodes, built on first use and kept for the rule's life
    points: EvalPoints | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.matrices)

    def warn_if_inexact(self, bound: float) -> None:
        """Warn the caller's caller if the rule is below an integrand's bandwidth ``bound``."""
        if bound > self.bandwidth + 1e-9:
            warnings.warn(f"integrand bandwidth bound {bound} exceeds rule bandwidth "
                          f"{self.bandwidth}", BandwidthWarning, stacklevel=3)


def parse_value(kind, name: str, text: str):
    """``kind(text)``; a ValueError naming the field ``name`` if the text does not parse, or
    parses to a non-finite float (nan, inf)."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{name} must parse as {kind.__name__}; got {text!r}") from None
    if kind is float and not np.isfinite(value):
        raise ValueError(f"{name} must be a finite number; got {text!r}")
    return value


def expm_skew(a: np.ndarray) -> np.ndarray:
    """Exponential of a (skew-Hermitian) matrix via eigendecomposition.

    ``i*a`` is Hermitian, so ``exp(a) = V exp(-i w) V*`` with ``(w, V)``
    the eigendecomposition of ``i*a``.  Supports stacked input.
    """
    w, v = np.linalg.eigh(1j * np.asarray(a, dtype=complex))
    phase = np.exp(-1j * w)
    return np.einsum("...ij,...j,...kj->...ik", v, phase, v.conj())


def _gram_schmidt_matrices(mats: np.ndarray, form) -> np.ndarray:
    """Orthonormalize matrices in declared order for the bilinear form."""
    out = []
    for m in mats:
        v = m.astype(complex)
        for u in out:
            v = v - form(u, v) * u
        nrm = form(v, v)
        if nrm < _PIVOT_TOL:
            raise ValueError("algebra basis is numerically dependent")
        out.append(v / np.sqrt(nrm))
    return np.array(out)


def _su2_raw_basis() -> np.ndarray:
    """The standard su(2) basis -(i/2)*sigma_j, j = 1, 2, 3."""
    s1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    s3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return np.array([-0.5j * s1, -0.5j * s2, -0.5j * s3])


def _euler_matrices(alpha, beta, gamma) -> np.ndarray:
    """exp(alpha Z3) exp(beta Z2) exp(gamma Z3) in closed form, broadcast over the angles.

    exp(t Z3) = diag(e^{-it/2}, e^{it/2}) and exp(t Z2) is the rotation by t/2.
    """
    c, s = np.cos(beta / 2), np.sin(beta / 2)
    a, g = np.exp(-0.5j * alpha), np.exp(-0.5j * gamma)
    return np.stack([np.stack([a * g * c, -a * g.conj() * s], axis=-1),
                     np.stack([a.conj() * g * s, (a * g).conj() * c], axis=-1)], axis=-2)


class GroupModel:
    """A compact matrix group with subgroup, splitting and quadrature."""

    def __init__(self, name: str, basis_matrices, subgroup_indices=(),
                 metric_scale: float = 1.0):
        raw = np.asarray(basis_matrices, dtype=complex)
        if raw.ndim != 3 or raw.shape[1] != raw.shape[2]:
            raise ValueError("basis_matrices must be a stack of square matrices")
        self.name = name
        self.matrix_dim = raw.shape[1]
        self.dim = raw.shape[0]
        self.metric_scale = float(metric_scale)
        if not self.metric_scale > 0:
            raise ValueError(f"scale must be positive, got {self.metric_scale}")

        # Fix c in <A,B> = -c tr(AB) so the declared basis has average
        # unit norm, then absorb the optional metric scale.
        raw_sq = float(np.mean([-np.trace(m @ m).real for m in raw]))
        if raw_sq <= 0:
            raise ValueError("basis matrices must have positive -tr(X^2)")
        self.form_factor = self.metric_scale / raw_sq
        form = lambda a, b: float((-self.form_factor * np.trace(a @ b)).real)
        self.basis = _gram_schmidt_matrices(raw, form)

        # Structure constants in the orthonormal basis.
        comm = np.einsum("aij,bjk->abik", self.basis, self.basis)
        comm = comm - np.einsum("abik->baik", comm)
        self.structure = np.einsum("cij,abji->abc", self.basis, comm).real * (-self.form_factor)
        # Ad_x[b, a] = -c tr(B_b x B_a x*) = sum over j,i,k,l of x[j,k] conj(x[i,l])
        # times -c B_b[i,j] B_a[k,l]: linear in the Kronecker square of x
        self.ad_kron = (np.einsum("bij,akl->jiklba", self.basis, self.basis)
                        * (-self.form_factor)).reshape(-1, self.dim ** 2)

        # Isotropy subalgebra and tangent complement frames: rows of the
        # orthonormal basis (coordinates in that basis).
        idx = list(subgroup_indices)
        for i in idx:
            if not 0 <= i < self.dim or idx.count(i) > 1:
                raise ValueError(f"subgroup index {i} must be distinct and in 0..{self.dim - 1}")
        if len(idx) == self.dim:
            raise ValueError(f"subgroup must be proper: it lists all {self.dim} basis indices")
        eye = np.eye(self.dim)
        self.k_frame = eye[idx]
        self.m_frame = eye[[a for a in range(self.dim) if a not in idx]]
        self.k_dim, self.m_dim = len(idx), self.dim - len(idx)
        self.proj_m = eye - self.k_frame.T @ self.k_frame

        self._check_subalgebra()
        # isotropy action ad_Z on the tangent complement, one matrix per k_frame
        # row Z; the subgroup is connected, so these decide its invariants
        self.k_tangent = self.m_frame @ self.ad(self.k_frame) @ self.m_frame.T
        self._memo: dict = {}  # memo's values, by key

    def memo(self, key: str, build):
        """The value kept under ``key``: ``build()`` on first use, then kept for the group's life.

        Modules keep here the one object they define per group, e.g. its adjoint representation.
        """
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    # -- construction helpers -------------------------------------------------

    def _check_subalgebra(self) -> None:
        brackets = self.ad(self.k_frame) @ self.k_frame.T  # [Z_i, Z_j] in column j
        if np.any(np.linalg.norm(self.proj_m @ brackets, axis=1) > _SUBALGEBRA_TOL):
            raise ValueError("declared subgroup basis does not close under brackets")

    # -- catalog ---------------------------------------------------------------

    @classmethod
    def su2(cls) -> "GroupModel":
        """SU(2) with the circle subgroup generated by the third basis axis."""
        return cls("su2", _su2_raw_basis(), subgroup_indices=(2,))

    @classmethod
    def su2_trivial_k(cls) -> "GroupModel":
        """SU(2) with the trivial subgroup; the quotient is SU(2) itself."""
        return cls("su2-trivial-k", _su2_raw_basis(), subgroup_indices=())

    @classmethod
    def from_config(cls, path: str) -> "GroupModel":
        """Load a custom group from a text config.

        The ``[group]`` section must define ``matrix_dim``, ``basis_count``
        and one ``basis_<i>`` entry per generator, each a whitespace
        separated list of ``re im`` pairs in row-major order.  Optional:
        ``subgroup`` (comma separated basis indices), ``scale``, ``name``.
        A missing section or key, an unknown key, or a value that does not
        parse raises a ValueError naming it; a file that is not valid config
        syntax raises a ``configparser.Error`` naming the file.
        """
        import configparser  # here, so importing the package does not load it
        cp = configparser.ConfigParser()
        with open(path) as fh:
            cp.read_file(fh)
        if not cp.has_section("group"):
            raise ValueError(f"group config {path} has no [group] section")
        sec = cp["group"]

        def field(key, kind, default=None):
            if default is None and key not in sec:
                raise ValueError(f"[group] {key} is missing from {path}")
            return parse_value(kind, f"[group] {key}", sec.get(key, default))

        n, count = field("matrix_dim", int), field("basis_count", int)
        for key, v in (("matrix_dim", n), ("basis_count", count)):
            if v < 1:
                raise ValueError(f"[group] {key} must be >= 1; got {v}")
        known = {"matrix_dim", "basis_count", "subgroup", "scale", "name",
                 *(f"basis_{i}" for i in range(count))}
        for key in sec:
            if key not in known:
                raise ValueError(f"unknown [group] key {key!r} in {path}")
        mats = []
        for i in range(count):
            key = f"basis_{i}"
            vals = [parse_value(float, f"[group] {key}", v)
                    for v in field(key, str).replace(";", " ").split()]
            if len(vals) != 2 * n * n:
                raise ValueError(f"{key}: expected {2 * n * n} numbers, got {len(vals)}")
            flat = np.array(vals).reshape(n * n, 2)
            mats.append((flat[:, 0] + 1j * flat[:, 1]).reshape(n, n))
        sub = tuple(parse_value(int, "[group] subgroup", v)
                    for v in sec.get("subgroup", "").replace(",", " ").split())
        return cls(sec.get("name", "custom"), np.array(mats), subgroup_indices=sub,
                   metric_scale=field("scale", float, "1.0"))

    # -- basic operations ------------------------------------------------------

    def identity(self) -> GroupElement:
        return GroupElement(np.eye(self.matrix_dim, dtype=complex))

    def algebra_element(self, coords: np.ndarray) -> np.ndarray:
        """The algebra matrix of a coordinate vector, or of each vector of a stack."""
        return np.einsum("...a,aij->...ij", np.asarray(coords, dtype=float), self.basis)

    def exp(self, coords: np.ndarray, t: float = 1.0) -> GroupElement:
        """exp(t X) for the algebra vector with the given coordinates."""
        return GroupElement(expm_skew(t * self.algebra_element(coords)))

    def adjoint_stack(self, matrices: np.ndarray) -> np.ndarray:
        """Matrices of Ad_x on the algebra in the orthonormal basis, for a stack of x.

        One product of the flattened Kronecker squares x (x) conj(x) with ``ad_kron``.
        """
        kron = matrices[:, :, None, :, None] * matrices.conj()[:, None, :, None, :]
        ad = kron.reshape(len(matrices), -1) @ self.ad_kron
        return ad.real.reshape(-1, self.dim, self.dim)

    def adjoint_matrices(self, matrices: np.ndarray) -> np.ndarray:
        """Ad_x for a stack of x, each checked against the expansion of x X x^-1."""
        ad = self.adjoint_stack(matrices)
        conj = matrices[:, None] @ self.basis @ matrices.conj().transpose(0, 2, 1)[:, None]
        residual = np.linalg.norm((np.einsum("nab,aij->nbij", ad, self.basis) - conj)
                                  .reshape(len(ad), -1), axis=1).max(initial=0)
        if residual > _EXPANSION_TOL * self.dim:
            raise ValueError(f"adjoint expansion residual {residual:.2e}")
        return ad

    def adjoint_matrix(self, x: GroupElement) -> np.ndarray:
        """Ad_x at one element: the one-point case of :meth:`adjoint_matrices`."""
        return self.adjoint_matrices(x.matrix[None])[0]

    def adjoint(self, x: GroupElement, coords: np.ndarray) -> np.ndarray:
        """Coordinates of Ad_x X = x X x^{-1}."""
        return self.adjoint_matrix(x) @ np.asarray(coords, dtype=float)

    def ad(self, coords: np.ndarray) -> np.ndarray:
        """Matrices of ad_X = [X, .] in the orthonormal basis, for one X or a stack."""
        return np.einsum("abc,...a->...cb", self.structure, np.asarray(coords, dtype=float))

    def bracket(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coordinates of the commutator [A, B], for one pair or stacks of pairs."""
        return np.einsum("abc,...a,...b->...c", self.structure, a, b)

    def project_m(self, coords: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the tangent complement of the isotropy algebra."""
        return self.proj_m @ np.asarray(coords)

    def to_m(self, coords: np.ndarray) -> np.ndarray:
        """Complement-frame coordinates of (the projection of) an algebra vector."""
        return np.asarray(coords) @ self.m_frame.T

    def from_m(self, vec: np.ndarray) -> np.ndarray:
        """Algebra coordinates of a complement-frame vector."""
        return np.asarray(vec) @ self.m_frame

    def bracket_m(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Projected bracket P[v, w] in complement-frame coordinates."""
        br = self.bracket(self.from_m(v), self.from_m(w))
        return self.to_m(br)

    # -- sampling and quadrature ----------------------------------------------

    def _require_su2(self) -> None:
        """Raise NotImplementedError naming the group unless it is SU(2), the one group with
        an exact rule and a Haar sampler."""
        if (self.matrix_dim, self.dim) != (2, 3):
            raise NotImplementedError(f"group {self.name!r} has no exact rule and no Haar sampler")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One Haar sample's draws, in the generator order of ``random_elements(rng, 1)``: the
        Euler angles (alpha, beta, gamma), drawn as alpha, gamma and then beta = arccos(u).

        Sampling exists on SU(2) only; any other group raises NotImplementedError.
        :meth:`haar_matrices` builds a stack of draws at once.
        """
        self._require_su2()
        alpha, gamma = rng.uniform(0.0, 4 * np.pi), rng.uniform(0.0, 4 * np.pi)
        return np.array([alpha, np.arccos(rng.uniform(-1.0, 1.0)), gamma])

    def haar_matrices(self, draws: np.ndarray) -> np.ndarray:
        """The group matrices of a stack of :meth:`draw` results, built in one call."""
        self._require_su2()
        return _euler_matrices(*np.transpose(draws))

    def random_elements(self, rng: np.random.Generator, count: int) -> list:
        """``count`` Haar samples, drawn column by column (each draw for all samples in turn)."""
        return [GroupElement(m) for m in self._random_matrices(rng, count)]

    def _random_matrices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The matrices of :meth:`random_elements`, as one stack."""
        self._require_su2()
        alphas = rng.uniform(0.0, 4 * np.pi, count)
        gammas = rng.uniform(0.0, 4 * np.pi, count)
        draws = np.stack([alphas, np.arccos(rng.uniform(-1.0, 1.0, count)), gammas], axis=-1)
        return self.haar_matrices(draws)

    def random_algebra(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim)

    def haar_rule(self, bandwidth: int) -> QuadratureRule:
        """The exact quadrature over SU(2); any other group raises NotImplementedError.

        This is the Euler-angle product rule: uniform grids over both circle angles (full
        4*pi period, so half-integer frequencies cancel exactly) and Gauss-Legendre in the
        cosine of the middle angle.  It integrates every product of irreducible matrix
        coefficients of total spin <= bandwidth exactly.
        """
        if bandwidth < 1:
            raise ValueError("bandwidth must be >= 1")
        self._require_su2()
        n_circ = 2 * int(np.ceil(bandwidth)) + 1
        n_leg = int(np.ceil((bandwidth + 1) / 2))
        us, wu = _gauss_legendre(n_leg)
        circle = 4 * np.pi * np.arange(n_circ) / n_circ
        # node order: beta outermost, then alpha, then gamma
        beta, alpha, gamma = np.meshgrid(np.arccos(us), circle, circle, indexing="ij")
        mats = _euler_matrices(alpha.ravel(), beta.ravel(), gamma.ravel())
        weights = np.repeat(wu / 2.0 / n_circ ** 2, n_circ ** 2)
        return QuadratureRule(mats, weights, float(bandwidth), self)


def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes on [-1, 1], ascending, and weights (Golub-Welsch).

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre recurrence,
    off-diagonal k / sqrt(4k^2 - 1), and each weight is 2 v_0^2 for the unit eigenvector v.
    """
    k = np.arange(1.0, n)
    off = k / np.sqrt(4 * k * k - 1)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2 * vecs[0] ** 2


def _one_parameter_period(z: np.ndarray) -> float:
    """Period of t -> exp(t z) for skew-Hermitian z with commensurable spectrum."""
    w = np.linalg.eigvalsh(1j * z)
    w = np.abs(w[np.abs(w) > 1e-12])
    if w.size == 0:
        raise ValueError("subgroup generator is central/nilpotent; no finite period")
    base = float(np.min(w))
    ratios = w / base
    if np.max(np.abs(ratios - np.round(ratios))) > 1e-9:
        raise ValueError("subgroup generator has incommensurable frequencies")
    # exp(t z) = 1 iff every frequency times t lies in 2*pi*Z, so the period
    # is 2*pi over the gcd of the frequencies.
    g = base * np.gcd.reduce(np.round(ratios).astype(int))
    return float(2 * np.pi / g)
