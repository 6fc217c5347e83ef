import numpy as np
import pytest

from homogdirac import CliffordAlgebra
from homogdirac.cliffordalg import _subset_mul_sign
from homogdirac.groups import expm_skew
from oracles import vector_part


def naive_subset_product(s_bits, t_bits, p):
    """Independent sign oracle: interleave generator strings and cancel squares."""
    seq = [b for b in range(p) if s_bits & (1 << b)] + \
          [b for b in range(p) if t_bits & (1 << b)]
    sign = 1
    # bubble into ascending order, one transposition at a time
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    # cancel adjacent equal generators, each contributing square -1
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign = -sign
            i += 2
        else:
            out.append(seq[i])
            i += 1
    bits = 0
    for b in out:
        bits |= 1 << b
    return bits, sign


@pytest.mark.parametrize("p", [1, 2, 3])
def test_product_table_matches_naive_oracle(p):
    alg = CliffordAlgebra(p)
    for s in range(alg.n):
        for t in range(alg.n):
            prod = alg.mul(_basis(alg, s), _basis(alg, t))
            bits, sign = naive_subset_product(s, t, p)
            expect = sign * _basis(alg, bits)
            assert np.array_equal(prod, expect)


def _termwise_product(a, b, p):
    """a . b accumulated one basis product at a time from the subset signs."""
    n = 1 << p
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for s in range(n):
        for t in range(n):
            out[..., s ^ t] += _subset_mul_sign(s, t, p) * a[..., s] * b[..., t]
    return out


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_gathered_products_match_termwise_products(p, rng):
    alg = CliffordAlgebra(p)
    a = rng.standard_normal((3, 4, alg.n))
    b = rng.standard_normal((4, alg.n))
    assert np.array_equal(alg.mul(a, b), _termwise_product(a, b, p).real)
    # einsum's complex kernel rounds each product differently from numpy's
    # complex multiply, so complex products agree to a few ulp per term
    a = a + 1j * rng.standard_normal(a.shape)
    b = b + 1j * rng.standard_normal(b.shape)
    ulp = np.finfo(float).eps * np.einsum("...s,...s->...", np.abs(a), np.abs(b))
    assert np.all(np.abs(alg.mul(a, b) - _termwise_product(a, b, p)) <= 4 * ulp[..., None])
    basis = np.eye(alg.n)
    for c in a[0]:
        assert np.array_equal(alg.left_matrix(c), _termwise_product(c, basis, p).T)
        assert np.array_equal(alg.right_matrix(c), _termwise_product(basis, c, p).T)


def _basis(alg, bits):
    e = np.zeros(alg.n)
    e[bits] = 1.0
    return e


def test_defining_relation():
    alg = CliffordAlgebra(3)
    for i in range(3):
        for j in range(3):
            anti = alg.mul(alg.generator(i), alg.generator(j)) \
                + alg.mul(alg.generator(j), alg.generator(i))
            assert np.array_equal(anti, -2.0 * (i == j) * alg.unit())


def test_generator_square_and_volume_square():
    alg = CliffordAlgebra(2)
    e1, e2 = alg.generator(0), alg.generator(1)
    assert np.array_equal(alg.mul(e1, e1), -alg.unit())
    vol = alg.mul(e1, e2)
    assert np.array_equal(alg.mul(vol, vol), -alg.unit())


def test_unit_is_neutral(rng):
    alg = CliffordAlgebra(3)
    a = alg.random(rng)
    assert np.allclose(alg.mul(alg.unit(), a), a)
    assert np.allclose(alg.mul(a, alg.unit()), a)


def test_associativity(rng):
    alg = CliffordAlgebra(3)
    for _ in range(100):
        a, b, c = (alg.random(rng) for _ in range(3))
        lhs = alg.mul(alg.mul(a, b), c)
        rhs = alg.mul(a, alg.mul(b, c))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_trace():
    alg = CliffordAlgebra(3)
    assert alg.trace(alg.unit()) == 1.0
    assert alg.trace(alg.mul(alg.generator(0), alg.generator(1))) == 0.0


def test_trace_of_vector_product_is_minus_inner(rng):
    alg = CliffordAlgebra(3)
    for _ in range(20):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        prod = alg.mul(alg.embed_vector(x), alg.embed_vector(y))
        assert abs(alg.trace(prod) + np.dot(x, y)) < 1e-13


def test_star():
    alg = CliffordAlgebra(3)
    x = alg.embed_vector(np.array([1.0, -2.0, 0.5]))
    assert np.allclose(alg.star(x), -x)
    assert np.allclose(alg.star(alg.unit()), alg.unit())
    vol2 = alg.mul(alg.generator(0), alg.generator(1))
    assert np.allclose(alg.star(vol2), -vol2)


def test_star_is_involutive_antiautomorphism(rng):
    alg = CliffordAlgebra(3)
    for _ in range(20):
        a, b = alg.random(rng), alg.random(rng)
        assert np.allclose(alg.star(alg.star(a)), a)
        assert np.allclose(alg.star(alg.mul(a, b)),
                           alg.mul(alg.star(b), alg.star(a)), atol=1e-13)


def test_inner_subset_orthonormality():
    alg = CliffordAlgebra(3)
    for s in range(alg.n):
        for t in range(alg.n):
            # the inner product must agree with the trace-form definition
            es, et = _basis(alg, s), _basis(alg, t)
            via_trace = alg.trace(alg.mul(alg.star(es), et))
            assert via_trace == (1.0 if s == t else 0.0)
            assert alg.inner(es, et) == via_trace


def test_vectors_act_skew(rng):
    alg = CliffordAlgebra(3)
    for _ in range(20):
        x = alg.embed_vector(rng.standard_normal(3))
        a, b = alg.random(rng), alg.random(rng)
        lhs = alg.inner(alg.mul(x, a), b)
        rhs = alg.inner(a, alg.mul(-x, b))
        assert abs(lhs - rhs) < 1e-13


def test_star_representation_property(rng):
    alg = CliffordAlgebra(3)
    for _ in range(20):
        a, u, v = (alg.random(rng) for _ in range(3))
        assert abs(alg.inner(alg.mul(a, u), v)
                   - alg.inner(u, alg.mul(alg.star(a), v))) < 1e-12


def test_derivation_kills_unit_and_extends_generator_action(rng):
    alg = CliffordAlgebra(3)
    r = rng.standard_normal((3, 3))
    r = (r - r.T) / 2
    d = alg.derivation_stack(r[None])[0]
    assert np.allclose(d @ alg.unit(), 0.0)
    for a in range(3):
        assert np.allclose(vector_part(alg, d @ alg.generator(a)), r[:, a], atol=1e-13)


def test_derivation_leibniz(rng):
    alg = CliffordAlgebra(3)
    r = rng.standard_normal((3, 3))
    r = (r - r.T) / 2
    d = alg.derivation_stack(r[None])[0]
    e1, e2 = alg.generator(0), alg.generator(1)
    lhs = d @ alg.mul(e1, e2)
    rhs = alg.mul(d @ e1, e2) + alg.mul(e1, d @ e2)
    assert np.allclose(lhs, rhs, atol=1e-13)
    for _ in range(20):
        a, b = alg.random(rng), alg.random(rng)
        assert np.abs(d @ alg.mul(a, b)
                      - alg.mul(d @ a, b) - alg.mul(a, d @ b)).max() < 1e-12


def test_derivation_rejects_non_skew(rng):
    alg = CliffordAlgebra(2)
    with pytest.raises(ValueError, match="skew"):
        alg.derivation_stack(np.array([[0.0, 1.0], [1.0, 0.0]])[None])


def test_derivation_exponentiates_to_extended_isometry(rng):
    alg = CliffordAlgebra(3)
    r = rng.standard_normal((3, 3))
    r = (r - r.T) / 2
    for t in (0.05, 0.3):
        lhs = expm_skew(t * alg.derivation_stack(r[None])[0]).real
        rhs = alg.orthogonal_extend(expm_skew(t * r).real)
        assert np.abs(lhs - rhs).max() < 1e-8


def test_derivation_stack_of_no_operator_keeps_the_matrix_shape():
    """No skew operator, as on a trivial subgroup, stacks to shape (0, n, n), not (0,)."""
    alg = CliffordAlgebra(3)
    assert alg.derivation_stack(np.zeros((0, 3, 3))).shape == (0, 8, 8)
    assert alg.derivation_stack(np.zeros((2, 3, 3))).shape == (2, 8, 8)


def _commutator_derivation(alg, r):
    """The derivation of one skew operator as the commutator with its bivector, built the way
    the one-operator derivation was built before the stack did: the reference."""
    biv = np.zeros(alg.n)
    for a in range(alg.p):
        for b in range(a + 1, alg.p):
            biv[(1 << a) | (1 << b)] = r[b, a] / 2.0
    return alg.left_matrix(biv) - alg.right_matrix(biv)


@pytest.mark.parametrize("p", range(6))
def test_derivation_stack_is_the_commutator_construction_bit_for_bit(p, rng):
    """One gather for the whole stack gives each operator's commutator matrix byte for byte,
    signed zeros included, and a one-member stack is its one-operator case."""
    alg = CliffordAlgebra(p)
    for count in (0, 1, 4):
        skews = rng.standard_normal((count, p, p))
        skews = skews - skews.transpose(0, 2, 1)
        stack = alg.derivation_stack(skews)
        assert stack.shape == (count, alg.n, alg.n)
        for r, d in zip(skews, stack):
            assert d.tobytes() == _commutator_derivation(alg, r).tobytes()
            assert alg.derivation_stack(r[None])[0].tobytes() == d.tobytes()


def test_derivation_stack_rejects_what_derivation_matrix_rejects():
    """A wrong shape, also of one operator put in a stack of one, or one non-skew member
    fails the whole stack."""
    alg = CliffordAlgebra(3)
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for bad in (np.ones((3, 4)), np.ones(3), np.ones((2, 3, 3))):
        with pytest.raises(ValueError, match="operator shape does not match"):
            alg.derivation_stack(bad[None])
    for bad in (np.ones((2, 3, 4)), skew):  # the latter one operator, not a stack
        with pytest.raises(ValueError, match="operator shape does not match"):
            alg.derivation_stack(bad)
    with pytest.raises(ValueError, match="operator is not skew-symmetric"):
        alg.derivation_stack(np.array([skew, skew + np.eye(3)]))


def test_orthogonal_extension_is_automorphism(rng):
    alg = CliffordAlgebra(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    ext = alg.orthogonal_extend(q)
    for _ in range(10):
        a, b = alg.random(rng), alg.random(rng)
        assert np.abs(ext @ alg.mul(a, b) - alg.mul(ext @ a, ext @ b)).max() < 1e-12
    # grade one transforms by q itself
    for a in range(3):
        assert np.allclose(vector_part(alg, ext @ alg.generator(a)), q[:, a])


def test_regular_representation(rng):
    alg = CliffordAlgebra(3)
    assert np.array_equal(alg.left_matrix(alg.unit()), np.eye(alg.n))
    assert np.array_equal(alg.right_matrix(alg.unit()), np.eye(alg.n))
    x = alg.embed_vector(rng.standard_normal(3))
    lx = alg.left_matrix(x)
    assert np.abs(lx + lx.T).max() < 1e-13
    rx = alg.right_matrix(x)
    assert np.abs(rx + rx.T).max() < 1e-13
    for _ in range(10):
        a, b = alg.random(rng), alg.random(rng)
        assert np.abs(alg.left_matrix(a) @ alg.left_matrix(b)
                      - alg.left_matrix(alg.mul(a, b))).max() < 1e-12
        assert np.abs(alg.right_matrix(a) @ alg.right_matrix(b)
                      - alg.right_matrix(alg.mul(b, a))).max() < 1e-12
        assert np.allclose(alg.left_matrix(a) @ b, alg.mul(a, b))
        assert np.allclose(alg.right_matrix(a) @ b, alg.mul(b, a))
