"""Induced equivariant vector bundles over G/K, given by global frames.

A bundle is specified by an ambient representation rho of the whole group
together with an isometric embedding E of the fiber as a subgroup-invariant
subspace.  Cross-sections are the equivariant fiber-valued functions on
the group.  The standard frame sweeps the ambient orthonormal basis:
eta_j(x) = E* rho(x)^-1 e_j, and since rho(x)^-1 = rho(x)^* this is the
matrix coefficient x -> e_j* conj(rho(x)) conj(E) of the contragredient
(:func:`~homogdirac.reps.dual_rep`).  A real rho, such as the adjoint
representation, is its own contragredient.  The frame satisfies the reproducing
formula and exhibits the section module as a direct summand of a free module,
with the pointwise frame Gram matrix equal to the conjugated-projection section.

The monopole family over the two-sphere arises from weight lines of the
irreducible representations of SU(2) restricted to the circle subgroup;
the tangent bundle arises from the adjoint representation restricted to
the tangent complement.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupModel
from .reps import UnitaryRep, adjoint_rep, dual_rep, spin_rep
from .sections import (
    Codomain,
    ConjugatedProjection,
    GramSection,
    MatrixCoefficient,
    MatrixKRep,
    RestrictedKRep,
    Section,
    Sum,
    _weights,
)

__all__ = [
    "InducedBundle",
    "projection_section",
    "frame_gram",
    "monopole_bundle",
    "tangent_bundle",
    "random_equivariant_section",
    "module_map_values",
]


@dataclass(eq=False)
class InducedBundle:
    """An equivariant bundle presented inside an ambient representation."""

    group: GroupModel
    rep_tilde: UnitaryRep
    embed: np.ndarray  # ambient_dim x fiber_dim isometry onto the fiber
    name: str = "bundle"
    # built from the fields above and kept for the bundle's life
    krep: MatrixKRep = field(init=False, repr=False)
    dual: UnitaryRep = field(init=False, repr=False)  # the contragredient of rep_tilde
    frame: list = field(init=False, repr=False)  # frame section j: e_j* dual(x) conj(E)

    def __post_init__(self):
        self.embed = np.asarray(self.embed, dtype=complex)
        if self.embed.ndim != 2 or self.embed.shape[0] != self.rep_tilde.dim:
            raise ValueError("embedding shape does not match the ambient representation")
        if np.linalg.norm(self.embed.conj().T @ self.embed
                          - np.eye(self.embed.shape[1])) > 1e-12:
            raise ValueError("embedding is not an isometry")
        # the fiber must be invariant under the connected subgroup's generators
        proj = self.embed @ self.embed.conj().T
        for z in self.group.k_frame:
            d = self.rep_tilde.derivative(z)
            if np.linalg.norm(d @ proj - proj @ d) > 1e-10:
                raise ValueError("fiber is not invariant under the subgroup")
        self.krep = RestrictedKRep(self.rep_tilde, self.embed)
        self.dual = dual_rep(self.rep_tilde)
        self.frame = [MatrixCoefficient(self.dual, e_j, self.embed.conj(), self.codomain())
                      for e_j in np.eye(self.ambient_dim)]

    @property
    def fiber_dim(self) -> int:
        return self.embed.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.rep_tilde.dim

    def codomain(self) -> Codomain:
        return Codomain.vector(self.fiber_dim)

    @functools.cached_property
    def section_reps(self) -> list:
        """The spin representations of the three least two_j whose coefficients have a nonzero
        invariant part, built on first use and kept for the bundle's life."""
        reps = (spin_rep(self.group, two_j) for two_j in itertools.count())
        return list(itertools.islice(
            (rep for rep in reps if len(self.krep.basis(rep))), 3))


def projection_section(bundle: InducedBundle) -> Section:
    """The operator section rho(x) P rho(x)^* onto the moving fiber."""
    proj = bundle.embed @ bundle.embed.conj().T
    return ConjugatedProjection(bundle.rep_tilde, proj)


def frame_gram(bundle: InducedBundle) -> Section:
    """Pointwise Gram matrix of the frame; a projection of rank fiber_dim."""
    return GramSection(bundle.frame)


def monopole_bundle(group: GroupModel, charge: int,
                    two_level: int | None = None) -> InducedBundle:
    """A line bundle over the two-sphere from a weight line of a spin level.

    ``charge`` is twice the weight of the circle action on the fiber (so
    the circle element at angle t acts by exp(-i*charge*t/2)).  The
    ambient level defaults to the minimal one containing that weight:
    ``two_level = |charge|``.  Any ``two_level >= |charge|`` of equal
    parity is a valid override.
    """
    if group.k_dim != 1:
        raise ValueError("monopole bundles need a circle subgroup")
    if two_level is None:
        two_level = abs(charge)
    if two_level < abs(charge) or (two_level - charge) % 2:
        raise ValueError(
            f"charge {charge} does not occur among the weights of level {two_level}")
    rep = spin_rep(group, two_level)
    # the fiber is the eigenline of i drho(Z), Z the circle generator, with the
    # weight's place in decreasing order; on the catalog drho(Z) is diagonal
    # and this line is the basis vector e_idx exactly
    _, lines = _weights(rep.derivative(group.k_frame))
    idx = (two_level - charge) // 2
    embed = lines[:, ::-1][:, [idx]]
    return InducedBundle(group, rep, embed, name=f"monopole({charge},{two_level})")


def tangent_bundle(group: GroupModel) -> InducedBundle:
    """The tangent module as the bundle induced from the adjoint representation."""
    return InducedBundle(group, adjoint_rep(group),
                         group.m_frame.T.astype(complex), name="tangent")


def random_equivariant_section(bundle: InducedBundle, rng: np.random.Generator) -> Section:
    """A random band-limited equivariant section: a sum of two coefficients u* rho(x) P(v a^T).

    Each rho is one of the bundle's :attr:`~InducedBundle.section_reps`, so no term vanishes.
    """
    parts = []
    for _ in range(2):
        vec = rng.standard_normal(bundle.fiber_dim) + 1j * rng.standard_normal(bundle.fiber_dim)
        rep = bundle.section_reps[int(rng.integers(0, 3))]
        u = v = np.ones(1)
        if rep.dim > 1:
            u = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
            v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        parts.append(MatrixCoefficient(rep, u, bundle.krep.invariant(rep, np.outer(v, vec)),
                                       bundle.codomain()))
    return Sum(parts)


def module_map_values(bundle: InducedBundle, section: Section, pts) -> np.ndarray:
    """Values of the free-module embedding x -> rho(x) (embedded section value).

    The image lies pointwise in the range of the projection section; this
    is the map exhibiting the section module as a projective summand.
    """
    stack = pts.rep_stack(bundle.rep_tilde)
    lifted = section.values(pts) @ bundle.embed.T
    return np.einsum("nij,nj->ni", stack, lifted)
