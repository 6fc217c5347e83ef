"""Real Clifford algebra over an inner-product space, in the subset basis.

Elements are coefficient vectors of length ``2**p`` indexed by subsets of
the ``p`` orthonormal generators, encoded as bitmasks (bit ``a`` set means
generator ``a`` occurs).  The defining relation follows the Riemannian
sign convention

    e_a . e_b + e_b . e_a = -2 delta_ab,

so every generator squares to -1.  The canonical trace is the empty-subset
coefficient, the star involution composes the grade involution with order
reversal (multiplying grade k by (-1)^(k(k+1)/2)), and the induced inner
product tau(a* . b) makes the subset basis orthonormal.

Since e_S . e_T = sign(S, T) e_{S xor T}, products are xor-indexed gathers
(the bitmask representation of Dorst, Fontijne and Mann, ch. 19).
Coefficient vectors may be complex: the products are bilinear and the
inner product is taken Hermitian in the first slot.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["CliffordAlgebra"]

_SKEW_TOL = 1e-10


def _subset_mul_sign(s: int, t: int, p: int) -> int:
    """Sign of e_S . e_T relative to e_{S xor T}.

    Counting transpositions needed to interleave the ascending generator
    strings, then one factor -1 per repeated generator (e_a . e_a = -1).
    """
    sign = 1
    for b in range(p):
        if t & (1 << b):
            higher = s >> (b + 1)
            if bin(higher).count("1") % 2:
                sign = -sign
    if bin(s & t).count("1") % 2:
        sign = -sign
    return sign


class CliffordAlgebra:
    """The Clifford algebra on p anticommuting generators of square -1."""

    def __init__(self, p: int):
        if p < 0 or p > 12:
            raise ValueError("generator count out of the supported range")
        self.p = p
        self.n = 1 << p
        self.grades = np.array([bin(s).count("1") for s in range(self.n)])
        idx = np.arange(self.n)
        self._sign = np.array([[_subset_mul_sign(s, t, p) for t in idx] for s in idx],
                              dtype=float)
        # _xor[s, k] = s ^ k: the partner of e_s in the products landing on e_k
        self._xor = idx[:, None] ^ idx[None, :]
        self._gather_sign = self._sign[idx[:, None], self._xor]  # sign(s, s ^ k)
        self._star_signs = (-1.0) ** (self.grades * (self.grades + 1) // 2)

    # -- element constructors --------------------------------------------------

    def unit(self) -> np.ndarray:
        e = np.zeros(self.n)
        e[0] = 1.0
        return e

    def generator(self, a: int) -> np.ndarray:
        e = np.zeros(self.n)
        e[1 << a] = 1.0
        return e

    def embed_vector(self, v: np.ndarray) -> np.ndarray:
        """Embed vectors (batched over leading axes) into grade one."""
        v = np.asarray(v)
        out = np.zeros(v.shape[:-1] + (self.n,), dtype=v.dtype)
        for a in range(self.p):
            out[..., 1 << a] = v[..., a]
        return out

    def random(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.n)

    # -- algebra operations ----------------------------------------------------

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Clifford product, broadcasting over leading axes."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape[-1] != self.n or b.shape[-1] != self.n:
            raise ValueError("coefficient length does not match the algebra")
        return np.einsum("...s,...sk,sk->...k", a, b[..., self._xor], self._gather_sign)

    def trace(self, a: np.ndarray) -> np.ndarray:
        """Canonical normalized trace: the empty-subset coefficient."""
        return np.asarray(a)[..., 0]

    def star(self, a: np.ndarray) -> np.ndarray:
        """The involution that is an anti-automorphism sending vectors to their negatives."""
        return np.asarray(a) * self._star_signs

    def inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """tau(a* . b); Hermitian in the first slot for complex coefficients."""
        return np.einsum("...k,...k->...", np.conj(a), np.asarray(b))

    # -- operators on the algebra ------------------------------------------------

    def left_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication b -> a . b in the subset basis."""
        # entry [k, t] comes from e_{k^t} . e_t
        return np.asarray(a)[self._xor] * self._sign[self._xor, np.arange(self.n)]

    def right_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of right multiplication b -> b . a in the subset basis."""
        # entry [k, s] comes from e_s . e_{s^k}
        return np.asarray(a)[self._xor] * self._gather_sign.T

    @functools.cached_property
    def right_generators(self) -> np.ndarray:
        """Matrices of right multiplication by each generator, shape (p, n, n); built once."""
        gens = [self.right_matrix(self.generator(a)) for a in range(self.p)]
        return np.array(gens).reshape(self.p, self.n, self.n)

    def derivation_matrix(self, skew: np.ndarray) -> np.ndarray:
        """The derivation extending a skew operator on the generator span.

        A skew matrix R equals the commutator action of the grade-two
        element sum_{a<b} R[b,a]/2 e_a e_b, and commutators against a fixed
        element are automatically derivations agreeing with R on grade one.
        """
        r = np.asarray(skew, dtype=float)
        if r.shape != (self.p, self.p):
            raise ValueError("operator shape does not match the generator count")
        if np.linalg.norm(r + r.T) > _SKEW_TOL * max(1.0, np.linalg.norm(r)):
            raise ValueError("operator is not skew-symmetric")
        biv = np.zeros(self.n)
        for a in range(self.p):
            for b in range(a + 1, self.p):
                biv[(1 << a) | (1 << b)] = r[b, a] / 2.0
        return self.left_matrix(biv) - self.right_matrix(biv)

    def derivation_stack(self, skews: np.ndarray) -> np.ndarray:
        return np.array([self.derivation_matrix(r) for r in skews]).reshape(-1, self.n, self.n)

    def orthogonal_extend(self, o: np.ndarray) -> np.ndarray:
        """Algebra automorphism matrix extending an isometry of the generator span.

        The image of e_S is the ordered product of the generator images, so
        the matrix is built by sweeping subsets in increasing bit order.
        """
        o = np.asarray(o, dtype=float)
        defect = np.linalg.norm(o @ o.T - np.eye(self.p))
        if defect > 1e-8:
            raise ValueError("operator is not orthogonal")
        images = np.zeros((self.n, self.n))
        images[0, 0] = 1.0
        for s in range(1, self.n):
            low = s & (-s)
            a = low.bit_length() - 1
            gen_image = np.zeros(self.n)
            for b in range(self.p):
                gen_image[1 << b] = o[b, a]
            images[s] = self.mul(gen_image, images[s ^ low]) if s ^ low else gen_image
        return images.T  # column S holds the image of e_S

    def __repr__(self) -> str:  # pragma: no cover
        return f"CliffordAlgebra(p={self.p})"
