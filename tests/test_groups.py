import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homogdirac
from homogdirac import EvalPoints, GroupModel, MatrixCoefficient, spin_rep
from homogdirac.groups import _euler_matrices, _gauss_legendre, _su2_raw_basis, expm_skew
from oracles import k_nodes, k_rule, random_element, scaled_su2, symmetric_space_residual
from test_geometry import su3_circle

E3 = np.eye(3)


def pauli():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return s1, s2, s3


def test_exp_of_zero_is_identity(sphere):
    x = sphere.exp(np.zeros(3))
    assert np.linalg.norm(x.matrix - np.eye(2)) == 0.0


def test_exp_period_of_third_axis(sphere):
    x = sphere.exp(E3[2], 2 * np.pi * 2)
    assert np.linalg.norm(x.matrix - np.eye(2)) < 1e-12


def test_exp_inverse(sphere, rng):
    for _ in range(10):
        coords = sphere.random_algebra(rng)
        t = rng.uniform(-2, 2)
        prod = sphere.exp(coords, t).matrix @ sphere.exp(coords, -t).matrix
        assert np.linalg.norm(prod - np.eye(2)) < 1e-13


def test_exp_stays_unitary(sphere, rng):
    for _ in range(25):
        x = sphere.exp(sphere.random_algebra(rng), rng.uniform(-3, 3))
        assert x.unitary_defect() < 1e-12


def test_bracket_table_matches_matrix_commutators(sphere):
    # independent oracle: commutators of the defining matrices themselves
    s1, s2, s3 = pauli()
    mats = [-0.5j * s1, -0.5j * s2, -0.5j * s3]
    for a in range(3):
        for b in range(3):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            coords = sphere.bracket(E3[a], E3[b])
            rebuilt = sum(coords[c] * mats[c] for c in range(3))
            assert np.linalg.norm(rebuilt - comm) < 1e-14
    assert np.allclose(sphere.bracket(E3[0], E3[1]), E3[2])
    assert np.allclose(sphere.bracket(E3[1], E3[2]), E3[0])
    assert np.allclose(sphere.bracket(E3[2], E3[0]), E3[1])


def test_bracket_antisymmetry_and_jacobi(sphere, rng):
    for _ in range(20):
        a, b, c = (sphere.random_algebra(rng) for _ in range(3))
        assert np.linalg.norm(sphere.bracket(a, a)) < 1e-14
        jac = (sphere.bracket(a, sphere.bracket(b, c))
               + sphere.bracket(b, sphere.bracket(c, a))
               + sphere.bracket(c, sphere.bracket(a, b)))
        assert np.linalg.norm(jac) < 1e-12


def test_bracket_skew_for_inner_product(sphere, rng):
    for _ in range(20):
        z, a, b = (sphere.random_algebra(rng) for _ in range(3))
        val = np.dot(sphere.bracket(z, a), b) + np.dot(a, sphere.bracket(z, b))
        assert abs(val) < 1e-12


def test_adjoint_at_identity(sphere, rng):
    x = sphere.identity()
    coords = sphere.random_algebra(rng)
    assert np.linalg.norm(sphere.adjoint(x, coords) - coords) < 1e-14


def test_adjoint_homomorphism_and_isometry(sphere, rng):
    for _ in range(10):
        x = random_element(sphere, rng)
        a, b = sphere.random_algebra(rng), sphere.random_algebra(rng)
        lhs = sphere.adjoint(x, sphere.bracket(a, b))
        rhs = sphere.bracket(sphere.adjoint(x, a), sphere.adjoint(x, b))
        assert np.linalg.norm(lhs - rhs) < 1e-12
        assert abs(np.linalg.norm(sphere.adjoint(x, a)) - np.linalg.norm(a)) < 1e-12


def test_adjoint_of_circle_elements_rotates_tangent_plane(sphere):
    t = 1.234
    ad = sphere.adjoint_matrix(sphere.exp(E3[2], t))
    rot = np.array([[np.cos(t), -np.sin(t), 0.0],
                    [np.sin(t), np.cos(t), 0.0],
                    [0.0, 0.0, 1.0]])
    assert np.linalg.norm(ad - rot) < 1e-12


def test_ad_invariance_of_inner_product(sphere, rng):
    for _ in range(200):
        x = random_element(sphere, rng)
        a, b = sphere.random_algebra(rng), sphere.random_algebra(rng)
        defect = abs(np.dot(sphere.adjoint(x, a), sphere.adjoint(x, b)) - np.dot(a, b))
        assert defect < 1e-12


def test_projection_properties(sphere, rng):
    assert np.linalg.norm(sphere.project_m(E3[2])) == 0.0
    assert np.allclose(sphere.project_m(E3[0]), E3[0])
    for _ in range(20):
        v = sphere.random_algebra(rng)
        pv = sphere.project_m(v)
        assert np.linalg.norm(sphere.project_m(pv) - pv) < 1e-14
        assert abs(np.dot(pv, E3[2])) < 1e-14


def test_subalgebra_closure(sphere):
    for i in range(sphere.k_dim):
        for j in range(sphere.k_dim):
            br = sphere.bracket(sphere.k_frame[i], sphere.k_frame[j])
            assert np.linalg.norm(sphere.project_m(br)) < 1e-12


def test_non_closing_subgroup_rejected():
    raw = GroupModel.su2().basis
    with pytest.raises(ValueError, match="close under brackets"):
        GroupModel("bad", raw, subgroup_indices=(0, 1))


def test_gram_schmidt_on_skewed_basis():
    raw = GroupModel.su2().basis
    skewed = np.array([raw[0], raw[0] + 0.5 * raw[1], raw[2]])
    g = GroupModel("skewed", skewed, subgroup_indices=(2,))
    gram = np.array([[-g.form_factor * np.trace(a @ b) for b in g.basis] for a in g.basis])
    assert np.linalg.norm(gram.real - np.eye(3)) < 1e-12


def test_quadrature_normalization_and_constants(rule8):
    assert abs(rule8.weights.sum() - 1.0) < 1e-14


def test_gauss_legendre_rule_is_numpy_s():
    """Golub-Welsch nodes and weights against numpy's Newton-refined ones."""
    from numpy.polynomial.legendre import leggauss
    for n in range(1, 41):
        nodes, weights = _gauss_legendre(n)
        want_nodes, want_weights = leggauss(n)
        assert np.abs(nodes - want_nodes).max() <= 1e-14, n
        assert np.abs(weights - want_weights).max() <= 1e-14, n


def test_a_haar_rule_imports_no_numpy_submodule():
    """Building a rule imports neither numpy.polynomial nor numpy.random, which the package
    import leaves unloaded: the first caller would pay for the import."""
    code = ("import sys, homogdirac.cli; homogdirac.GroupModel.su2().haar_rule(8); "
            "print([m for m in ('numpy.polynomial', 'numpy.random') if m in sys.modules])")
    src = str(Path(homogdirac.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_rule_nodes_are_the_rule_matrices(sphere, full_group):
    rules = [sphere.haar_rule(3), k_rule(sphere), k_rule(full_group)]
    for rule in rules:
        assert len(rule) == len(rule.matrices) == len(rule.weights)
        assert np.array_equal(EvalPoints.for_rule(rule.group, rule).matrices, rule.matrices)
    for group in (sphere, full_group):
        nodes = np.stack([s.matrix for s in k_nodes(group)])
        assert np.array_equal(nodes, k_rule(group).matrices)


def test_quadrature_schur_orthogonality(sphere, rule8):
    pts = EvalPoints.for_rule(sphere, rule8)
    for two_j in (1, 2, 3, 4):
        rep = spin_rep(sphere, two_j)
        stack = pts.rep_stack(rep)
        # nontrivial coefficients average to zero
        assert np.abs(np.einsum("n,nij->ij", rule8.weights, stack)).max() < 1e-12
        # |coefficient|^2 averages to 1/dim
        sq = np.einsum("n,nij->ij", rule8.weights, np.abs(stack) ** 2)
        assert np.abs(sq - 1.0 / rep.dim).max() < 1e-12
    # cross-level orthogonality including half-integer total spin
    r1, r2 = spin_rep(sphere, 1), spin_rep(sphere, 3)
    s1, s2 = pts.rep_stack(r1), pts.rep_stack(r2)
    cross = np.einsum("n,n,n->", rule8.weights, s1[:, 0, 0].conj(), s2[:, 1, 1])
    assert abs(cross) < 1e-12


def test_quadrature_left_invariance(sphere, rule8, rng):
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    pts = EvalPoints.for_rule(sphere, rule8)
    base = np.dot(rule8.weights, f.values(pts))
    for _ in range(5):
        y = random_element(sphere, rng)
        shifted = np.dot(rule8.weights, f.values(pts.left_translated(y.inverse)))
        assert abs(base - shifted) < 1e-10


def test_closed_form_euler_matrices_match_exponentials(rng):
    # the product of eigendecomposition exponentials is the oracle
    raw = _su2_raw_basis()
    alpha, gamma = rng.uniform(0.0, 4 * np.pi, (2, 50))
    beta = np.arccos(rng.uniform(-1.0, 1.0, 50))
    closed = _euler_matrices(alpha, beta, gamma)
    assert closed.shape == (50, 2, 2)
    for m, a, b, g in zip(closed, alpha, beta, gamma):
        oracle = expm_skew(a * raw[2]) @ expm_skew(b * raw[1]) @ expm_skew(g * raw[2])
        assert np.abs(m - oracle).max() < 1e-14
    # scalar angles give one matrix
    assert np.abs(_euler_matrices(alpha[0], beta[0], gamma[0]) - closed[0]).max() < 1e-14


def test_diagonal_subgroup_of_su2_squared_constructs_without_its_rule():
    """SU(2) x SU(2) / diagonal SU(2): a group with a three-dimensional subgroup builds."""
    raw = _su2_raw_basis()
    zero = np.zeros((2, 2))
    basis = ([np.block([[x, zero], [zero, x]]) for x in raw]
             + [np.block([[x, zero], [zero, -x]]) for x in raw])
    g = GroupModel("su2xsu2", basis, subgroup_indices=(0, 1, 2))
    assert (g.k_dim, g.m_dim) == (3, 3)
    assert g.k_tangent.shape == (3, 3, 3)
    # the isotropy acts on the complement X + (-X) as on the diagonal X + X
    assert np.abs(g.k_tangent - g.k_frame @ g.ad(g.k_frame) @ g.k_frame.T).max() < 1e-14
    assert symmetric_space_residual(g) < 1e-15


SAMPLED = {"su2": GroupModel.su2}


def _former_random_elements(group, rng, count):
    """``random_elements`` as written before draws and builds were split: the oracle."""
    alphas = rng.uniform(0.0, 4 * np.pi, count)
    gammas = rng.uniform(0.0, 4 * np.pi, count)
    betas = np.arccos(rng.uniform(-1.0, 1.0, count))
    return _euler_matrices(alphas, betas, gammas)


@pytest.mark.parametrize("name", SAMPLED)
def test_per_sample_draws_build_the_former_per_point_samples(name):
    """Draws one sample at a time, built in one call, are bit for bit the old one-point loop."""
    group = SAMPLED[name]()
    former_rng, rng = np.random.default_rng(31), np.random.default_rng(31)
    former = np.stack([_former_random_elements(group, former_rng, 1)[0] for _ in range(40)])
    built = group.haar_matrices(np.stack([group.draw(rng) for _ in range(40)]))
    assert np.array_equal(built, former)
    assert rng.bit_generator.state == former_rng.bit_generator.state
    # random_elements keeps its column-ordered stream, and its one-point case is the draw
    assert np.array_equal(np.stack([x.matrix for x in group.random_elements(rng, 25)]),
                          _former_random_elements(group, former_rng, 25))
    assert np.array_equal(random_element(group, rng).matrix,
                          group.haar_matrices(group.draw(former_rng)[None])[0])


def test_samplers_follow_the_haar_rule_cases(rng):
    """Euler angles and the exact rule on SU(2) only: every other group raises, naming
    itself, before drawing anything."""
    u2 = GroupModel("u2", np.concatenate([_su2_raw_basis(), [-0.5j * np.eye(2)]]))
    rotations = np.zeros((3, 3, 3), dtype=complex)  # so(3) as real 3x3 generators
    for a, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        rotations[a, i, j], rotations[a, j, i] = -1.0, 1.0
    so3 = GroupModel("so3", rotations)
    state = rng.bit_generator.state
    for group in (u2, su3_circle(), so3):
        for sample in (group.draw, lambda r: group.random_elements(r, 5),
                       lambda r: group.haar_matrices(np.zeros((5, 3))),
                       lambda r: group.haar_rule(2)):
            with pytest.raises(NotImplementedError,
                               match=f"group '{group.name}' has no exact rule and no Haar sampler"):
                sample(rng)
    assert rng.bit_generator.state == state


def test_monte_carlo_unavailable_for_odd_groups():
    g = GroupModel.su2()
    slim = GroupModel("slim", g.basis[:1])
    with pytest.raises(NotImplementedError):
        slim.haar_rule(2)


def test_custom_group_config(tmp_path):
    g = GroupModel.su2()
    lines = ["[group]", "name = custom-su2", "matrix_dim = 2", "basis_count = 3"]
    for i, m in enumerate(g.basis):
        entries = " ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in m.reshape(-1))
        lines.append(f"basis_{i} = {entries}")
    lines.append("subgroup = 2")
    path = os.path.join(tmp_path, "group.cfg")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    g2 = GroupModel.from_config(path)
    assert g2.name == "custom-su2"
    assert np.linalg.norm(g2.structure - g.structure) < 1e-12
    assert g2.k_dim == 1


def test_metric_scale_changes_normalization():
    g = scaled_su2(4.0)
    # the basis is re-normalized, so structure constants shrink accordingly
    assert abs(np.dot(g.bracket(E3[0], E3[1]), E3[2]) - 0.5) < 1e-12
    gram = np.array([[-g.form_factor * np.trace(a @ b) for b in g.basis] for a in g.basis])
    assert np.linalg.norm(gram.real - np.eye(3)) < 1e-12
