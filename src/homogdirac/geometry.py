"""Invariant connections, torsion and the Levi-Civita correction.

Connections are parameterized the global way: the canonical covariant
derivative differentiates a section along the right-translation flow of
the direction field, and every invariant connection on the tangent bundle
differs from it by a zero-order term given pointwise by a linear map
``gamma`` from the tangent complement into its own operators,

    (nabla_W xi)(x) = d/dt xi(x exp(t W(x)))|_0 + gamma(W(x)) xi(x).

``gamma`` must intertwine the subgroup action for the zero-order term to
send equivariant sections to equivariant sections; skew-valued ``gamma``
are exactly the metric-compatible connections, and they extend to
derivations of the Clifford algebra (:func:`spinor_algebra`).  The
torsion-free choice is ``gamma(X) = (1/2) P ad_X``, which reproduces
the pointwise correction (1/2) P[V(x), W(x)] of the Levi-Civita
connection; it vanishes identically precisely on symmetric spaces.

Torsion T(V, W) = nabla_V W - nabla_W V - [V, W] is a tensor: its value at
x is the constant bilinear map T0(u_a, u_b) = gamma(u_a) u_b - gamma(u_b) u_a
- P[u_a, u_b] (:attr:`Connection.torsion_tensor`) applied to V(x) and W(x).
The bracket term is twice the Levi-Civita ``gamma``, so T0 vanishes for
that connection by construction.
"""

from __future__ import annotations

import functools

import numpy as np

from .cliffordalg import CliffordAlgebra
from .groups import GroupModel
from .sections import (
    Codomain,
    DerivativeOrderError,
    FundamentalField,
    Product,
    Section,
)

__all__ = [
    "spinor_algebra",
    "Connection",
    "ApplyConnection",
    "canonical_connection",
    "levi_civita_connection",
    "tangent_frame",
    "torsion",
]

_SKEW_TOL = 1e-10
_EQUIVARIANCE_TOL = 1e-8


def spinor_algebra(group: GroupModel) -> CliffordAlgebra:
    """The Clifford algebra over the tangent complement, built on first use and kept on the group."""
    return group.memo("spinor_algebra", lambda: CliffordAlgebra(group.m_dim))


class Connection:
    """An invariant connection on the tangent bundle: the canonical one plus a correction.

    ``gamma`` holds one operator on the tangent complement per
    tangent-complement basis vector, shape (p, p, p); the correction applied
    to a section is the operator ``gamma(W(x))`` (extended to a derivation
    of the Clifford bundle when the section is Clifford-valued, which
    requires real skew values).
    """

    def __init__(self, group: GroupModel, gamma: np.ndarray | None = None,
                 name: str = "connection"):
        self.group = group
        self.name = name
        p = group.m_dim
        if gamma is None:
            gamma = np.zeros((p, p, p))
        self.gamma = np.asarray(gamma, dtype=complex)
        if self.gamma.shape != (p, p, p):
            raise ValueError(f"gamma must have shape {(p, p, p)}, one tangent operator "
                             f"per tangent direction; got {self.gamma.shape}")
        self.is_canonical = bool(np.all(self.gamma == 0))
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.gamma))
        if not np.isfinite(norm):  # an overflowing norm would make the skew tolerance inf
            raise ValueError(f"connection {name!r}: the norm of gamma is not finite; got {norm}")
        skew_defect = float(np.max([np.linalg.norm(gm + gm.conj().T) for gm in self.gamma],
                                   initial=0.0))
        self.is_compatible = skew_defect <= _SKEW_TOL * max(1.0, norm)
        self._check_equivariance()

    def _check_equivariance(self) -> None:
        """gamma(ad_Z X) = [ad_Z, gamma(X)] for each ad_Z in ``group.k_tangent``.

        The subgroup is connected, so this is gamma(Ad_s X) = Ad_s gamma(X) Ad_s^-1 for all s.
        """
        t = self.group.k_tangent[:, None]                       # (generator, 1, p, p)
        lhs = np.einsum("zba,bij->zaij", t[:, 0], self.gamma)   # gamma(ad_Z u_a)
        worst = float(np.abs(lhs - (t @ self.gamma - self.gamma @ t)).max(initial=0.0))
        if worst > _EQUIVARIANCE_TOL:
            raise ValueError(
                f"gamma violates the subgroup intertwining condition (residual {worst:.2e})")

    @functools.cached_property
    def derivation_stack(self) -> np.ndarray:
        """Derivation matrices extending each gamma(u_a) to the Clifford algebra; an imaginary
        (symmetric) part of gamma has no such extension and raises ValueError on each access."""
        if not self.is_compatible:
            raise ValueError("only skew-valued corrections extend to the Clifford bundle")
        imag = float(np.linalg.norm(self.gamma.imag))
        if imag > _SKEW_TOL * max(1.0, float(np.linalg.norm(self.gamma))):
            raise ValueError(f"gamma's imaginary part of norm {imag:.2e} has no Clifford extension")
        return spinor_algebra(self.group).derivation_stack(self.gamma.real)

    @functools.cached_property
    def dirac_stack(self) -> np.ndarray:
        """A = [C, R_1^T, ..., R_p^T], complex: D phi = phi C + sum_b J_b R_b^T on row values,
        J_b phi's derivative along complement-frame row b, R_b right multiplication by e_b
        and C = sum_b Delta_b^T R_b^T (Delta_b extends gamma(u_b)), zero if canonical."""
        right = spinor_algebra(self.group).right_generators
        correction = np.einsum("bST,bUS->TU", self.derivation_stack, right)
        return np.concatenate([correction[None], right.transpose(0, 2, 1)]).astype(complex)

    @functools.cached_property
    def torsion_tensor(self) -> np.ndarray:
        """T0[a, :, b] = T(u_a, u_b), in the layout of ``gamma``: T0[a] is T(u_a, .)."""
        return self.gamma - self.gamma.transpose(2, 1, 0) - _complement_brackets(self.group)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Connection({self.name}, canonical={self.is_canonical})"


def canonical_connection(group: GroupModel) -> Connection:
    return Connection(group, None, "canonical")


def levi_civita_connection(group: GroupModel) -> Connection:
    """The metric-compatible torsion-free connection on the tangent bundle.

    gamma(u_a) = (1/2) P ad_{u_a} restricted to the tangent complement; on
    symmetric spaces this vanishes and the canonical connection is already
    torsion-free.
    """
    return Connection(group, 0.5 * _complement_brackets(group), name="levi-civita")


def _complement_brackets(group: GroupModel) -> np.ndarray:
    """P[u_a, u_b] in column b of entry a, the layout of ``gamma``; kept on the group."""
    return group.memo("brackets", lambda: group.m_frame @ group.ad(group.m_frame) @ group.m_frame.T)


def tangent_frame(group: GroupModel, basis: np.ndarray | None = None) -> list:
    """Fundamental fields of an orthonormal algebra basis; a module frame.

    With no basis given, the group's own orthonormal basis is used (in
    declared order) and the frame is kept on the group for its lifetime,
    so shared subgraphs are evaluated once.
    """
    if basis is None:
        return group.memo("tangent_frame", lambda: [FundamentalField(group, e)
                                                    for e in np.eye(group.dim)])
    basis = np.asarray(basis, dtype=float)
    if np.linalg.norm(basis @ basis.T - np.eye(group.dim)) > 1e-10:
        raise ValueError("frame basis must be orthonormal")
    return [FundamentalField(group, basis[j]) for j in range(group.dim)]


class ApplyConnection(Section):
    """Covariant derivative of a section along a tangent direction field.

    The result supports no further exact directional derivatives (the
    engine budgets one derivative per generator), so its order is zero.
    """

    def __init__(self, connection: Connection, direction: Section, target: Section):
        if direction.codomain.kind != "tangent":
            raise ValueError("connection directions must be tangent sections")
        if target.deriv_order < 1:
            raise DerivativeOrderError("target section has no derivative budget left")
        kind = target.codomain.kind
        if kind == "vector" and target.codomain.shape[0] != connection.group.m_dim:
            raise ValueError("section fiber does not match the connection")
        if kind == "operator":
            raise ValueError("covariant derivatives of operator sections are not needed here")
        super().__init__((direction, target), target.codomain,
                         target.bandwidth + direction.bandwidth, 0, connection.group)
        self.connection = connection

    def _values(self, pts) -> np.ndarray:
        direction, target = self.children
        wvals = direction.values(pts)  # tangent-frame coordinates, possibly complex
        # the direction field contracted with the target's real-direction Jacobian,
        # so nabla_{V + iW} = nabla_V + i nabla_W even for real-linear targets
        out = np.einsum("nb,bn...->n...", wvals, target.frame_derivs(pts))
        conn = self.connection
        kind = target.codomain.kind
        if conn.is_canonical or kind == "scalar":
            return out
        # gamma(W(x)), or its derivation extension, applied to the target value
        ops = conn.derivation_stack if kind == "clifford" else conn.gamma
        applied = target.values(pts) @ ops.transpose(0, 2, 1)  # (direction, point, fiber)
        return out + np.einsum("na,ani->ni", wvals, applied)


def torsion(connection: Connection, v: Section, w: Section) -> Product:
    """Torsion of the connection on two tangent sections: x -> T0(v(x), w(x)).

    T0 is :attr:`Connection.torsion_tensor`; the map is complex bilinear,
    so module bilinearity holds by construction.
    """
    if not v.codomain == w.codomain == Codomain.tangent(connection.group):
        raise ValueError("torsion arguments must be tangent sections")
    t0 = connection.torsion_tensor
    return Product(lambda a, b: np.einsum("...a,aib,...b->...i", a, t0, b),
                   functools.partial(torsion, connection), v, w, v.codomain)
