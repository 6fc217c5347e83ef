import re
import warnings

import numpy as np
import pytest

from homogdirac import (
    AInner,
    ApplyConnection,
    CliffordKRep,
    CliffordProduct,
    Codomain,
    Connection,
    Constant,
    EvalPoints,
    MatrixCoefficient,
    RealPart,
    Scale,
    Sum,
    Translate,
    canonical_connection,
    casimir_value,
    commutator_defect,
    connection_test_matrix,
    criterion_check,
    gradient,
    hodge_dirac,
    l2_inner,
    levi_civita_connection,
    minimal_violating_connection,
    selfadjoint_defect,
    spectral_block,
    spin_rep,
    spinor_algebra,
    tangent_frame,
    equivariance_defect,
)
from homogdirac.dirac import _balanced_random_gamma, _random_skew
from oracles import (OrbitAverage, coefficient_family, criteria_consistent,
                     grade_compressed_square, isotypic_basis, k_nodes, k_rule, kernel_count,
                     krep_matrix, metric_estimate, one_pass_block, orbit_vector,
                     random_element, rule_stack, sampled_criterion, scaled_su2, value)


def unit_spinor(group):
    alg = spinor_algebra(group)
    return Constant(Codomain.clifford(alg), alg.unit(), group=group)


def random_spinor(group, rng, two_j=2):
    alg = spinor_algebra(group)
    rep = spin_rep(group, two_j)
    const = Constant(Codomain.clifford(alg), rng.standard_normal(alg.n), group=group)
    f = RealPart(MatrixCoefficient(rep, rng.standard_normal(rep.dim),
                                   rng.standard_normal(rep.dim)))
    return OrbitAverage(Scale(const, f), CliffordKRep(group, alg), group)


def invariant_scalar(group, rng, two_j=2):
    rep = spin_rep(group, two_j)
    f = MatrixCoefficient(rep, rng.standard_normal(rep.dim), rng.standard_normal(rep.dim))
    from homogdirac import TrivialKRep
    return RealPart(OrbitAverage(f, TrivialKRep(group), group))


def sample_pts(group, rng, n=20):
    return EvalPoints.of(group, group.random_elements(rng, n))


def test_dirac_kills_the_unit(sphere, full_group, rng):
    for g in (sphere, full_group):
        d1 = hodge_dirac(levi_civita_connection(g), unit_spinor(g))
        assert np.abs(d1.values(sample_pts(g, rng, 10))).max() < 1e-14


def test_dirac_rejects_incompatible_corrections(full_group):
    from homogdirac import Connection
    gamma = np.zeros((3, 3, 3))
    gamma[0, 0, 0] = 1.0
    conn = Connection(full_group, gamma)
    with pytest.raises(ValueError, match="compatible"):
        hodge_dirac(conn, unit_spinor(full_group))


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_frame_independence(space, request, rng):
    g = request.getfixturevalue(space)
    conn = levi_civita_connection(g)
    phi = random_spinor(g, rng)
    pts = sample_pts(g, rng)
    base = hodge_dirac(conn, phi).values(pts)
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((g.dim, g.dim)))
        other = hodge_dirac(conn, phi, frame=tangent_frame(g, q.T)).values(pts)
        assert np.abs(base - other).max() < 1e-10


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_translation_commutation(space, request, rng):
    g = request.getfixturevalue(space)
    conn = levi_civita_connection(g)
    phi = random_spinor(g, rng)
    pts = sample_pts(g, rng)
    for _ in range(3):
        y = random_element(g, rng)
        lhs = Translate(hodge_dirac(conn, phi), y).values(pts)
        # one side through the frame sum, whose frame moves under translation
        rhs = hodge_dirac(conn, Translate(phi, y), frame=tangent_frame(g)).values(pts)
        assert np.abs(lhs - rhs).max() < 1e-9


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_closed_form_matches_frame_sum_oracle(space, request, rng):
    """The constant-frame node equals sum_j (nabla_{W_j} phi) . W_j on the default frame."""
    g = request.getfixturevalue(space)
    alg = spinor_algebra(g)
    batches = [sample_pts(g, rng), EvalPoints.for_rule(g, g.haar_rule(4))]
    spinors = [random_spinor(g, rng, two_j) for two_j in (2, 4)]
    # a section that is not equivariant takes the same route
    spinors.append(MatrixCoefficient(spin_rep(g, 2), rng.standard_normal(3),
                                     rng.standard_normal((3, alg.n)), Codomain.clifford(alg)))
    # canonical, Levi-Civita and, over the trivial subgroup, balanced and violating ones
    for _, conn in connection_test_matrix(g, rng):
        for phi in spinors:
            closed = hodge_dirac(conn, phi)
            oracle = hodge_dirac(conn, phi, frame=tangent_frame(g))
            assert (closed.bandwidth, closed.deriv_order) == (
                oracle.bandwidth, oracle.deriv_order)
            for pts in batches:
                want = oracle.values(pts)
                assert np.abs(want).max() > 1e-3  # a vanishing image tests nothing
                assert np.abs(closed.values(pts) - want).max() < 1e-13, conn.name


def test_closed_form_raises_like_the_frame_sum(sphere, rng):
    from homogdirac import DerivativeOrderError
    conn = canonical_connection(sphere)
    once = hodge_dirac(conn, random_spinor(sphere, rng))
    for frame in (None, tangent_frame(sphere)):
        with pytest.raises(DerivativeOrderError, match="no derivative budget"):
            hodge_dirac(conn, once, frame=frame)
        with pytest.raises(ValueError, match="Clifford-valued"):
            hodge_dirac(conn, invariant_scalar(sphere, rng), frame=frame)


def test_dirac_output_is_equivariant(sphere, rng):
    conn = canonical_connection(sphere)
    dphi = hodge_dirac(conn, random_spinor(sphere, rng))
    krep = CliffordKRep(sphere, spinor_algebra(sphere))
    x = random_element(sphere, rng)
    for s in k_nodes(sphere)[::6]:
        assert equivariance_defect(dphi, krep, x, s) < 1e-10


def test_gradient_examples(sphere, rng):
    g = sphere
    const = Constant(Codomain.scalar(), 2.0, group=g)
    pts = sample_pts(g, rng, 10)
    assert np.abs(gradient(g, const).values(pts)).max() < 1e-14
    f = invariant_scalar(g, rng)
    grad = gradient(g, f)
    frame = tangent_frame(g)
    # the gradient pairs against directions as the derivative does
    for wj in frame:
        from homogdirac.geometry import ApplyConnection
        paired = AInner(grad, wj).values(pts)
        direct = ApplyConnection(canonical_connection(g), wj, f).values(pts)
        assert np.abs(paired - np.conj(direct)).max() < 1e-10
    # frame independence: the same sum over a rotated frame
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    other = Sum([Scale(wj, ApplyConnection(canonical_connection(g), wj, f))
                 for wj in tangent_frame(g, q.T)])
    assert np.abs(grad.values(pts) - other.values(pts)).max() < 1e-11


def test_gradient_norm_matches_casimir_pairing(sphere, rule8, rng):
    """Independent check: int |grad f|^2 = casimir * int |f|^2 on one level."""
    g = sphere
    f = invariant_scalar(g, rng)
    grad = gradient(g, f)
    lhs = l2_inner(grad, grad, rule8)
    rhs = casimir_value(spin_rep(g, 2)) * l2_inner(f, f, rule8)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_multiplication_commutator_identity(space, request, rng):
    g = request.getfixturevalue(space)
    pts = sample_pts(g, rng)
    phi = random_spinor(g, rng)
    f = invariant_scalar(g, rng)
    for conn in (canonical_connection(g), levi_civita_connection(g)):
        assert commutator_defect(conn, f, phi, pts) < 1e-9
    const = Constant(Codomain.scalar(), 1.7, group=g)
    assert commutator_defect(canonical_connection(g), const, phi, pts) < 1e-12


def test_commutator_holds_for_violating_connection(full_group, rng):
    """The identity needs only compatibility, not the trace criterion."""
    pts = sample_pts(full_group, rng)
    conn = minimal_violating_connection(full_group)
    assert commutator_defect(conn, invariant_scalar(full_group, rng),
                             random_spinor(full_group, rng), pts) < 1e-9


def _space(space, request, tmp_path):
    """A catalog fixture by name, or the sphere declared in a rotated basis by a group file."""
    if space == "rotated":
        from homogdirac import GroupModel
        from test_cli import _custom_su2_file
        return GroupModel.from_config(_custom_su2_file(tmp_path, "rotated"))
    return request.getfixturevalue(space)


def defect_pairs(group, rng, count=20):
    alg = spinor_algebra(group)
    pairs = [(unit_spinor(group), unit_spinor(group))]
    for a in range(group.m_dim):
        vec = Constant(Codomain.clifford(alg), alg.embed_vector(np.eye(group.m_dim)[a]),
                       group=group)
        pairs.append((vec, unit_spinor(group)))
    while len(pairs) < count:
        pairs.append((random_spinor(group, rng, int(rng.integers(1, 3))),
                      random_spinor(group, rng, int(rng.integers(1, 3)))))
    return pairs


def test_selfadjoint_defect_unit_pair(sphere, rule8):
    one = unit_spinor(sphere)
    assert selfadjoint_defect(canonical_connection(sphere), [(one, one)], rule8) < 1e-14


def test_criterion_and_defect_agree_across_connection_matrix(full_group, rule8_full, rng):
    pairs = defect_pairs(full_group, rng, 8)
    pts = sample_pts(full_group, rng, 15)
    matrix = connection_test_matrix(full_group, rng)
    for name, conn in matrix:
        report = criterion_check(conn, pts)
        defect = selfadjoint_defect(conn, pairs, rule8_full)
        assert criteria_consistent(report), name
        if report.passes:
            assert defect <= 1e-8, name
        else:
            assert defect >= 1e-6, name


def test_criterion_check_graph_size(full_group, monkeypatch):
    """criterion_check reads T0 and gamma: it builds no covariant derivative, product or
    pointwise node, where the sampled criterion built 2 dim, dim and dim of them."""
    from homogdirac import geometry, sections
    built = {"apply": 0, "product": 0, "pointwise": 0}
    inits = {"apply": geometry.ApplyConnection, "product": sections.Product,
             "pointwise": sections.Pointwise}

    def counting(key, init):
        def count(self, *args, **kwargs):
            built[key] += 1
            init(self, *args, **kwargs)
        return count

    for key, cls in inits.items():
        monkeypatch.setattr(cls, "__init__", counting(key, cls.__init__))
    assert criterion_check(levi_civita_connection(full_group)).passes
    assert not criterion_check(minimal_violating_connection(full_group)).passes
    assert built == {"apply": 0, "product": 0, "pointwise": 0}


@pytest.mark.parametrize("space", ["full_group", "sphere", "rotated"])
def test_criterion_matches_the_sampled_oracle(space, request, tmp_path, rng):
    """On every test-matrix connection the closed form gives the sampled oracle's verdict,
    each residual is a norm the oracle's sampled maximum does not exceed, and the torsion
    trace t equals the correction sum c."""
    g = _space(space, request, tmp_path)
    pts = sample_pts(g, rng)
    for name, conn in connection_test_matrix(g, rng):
        report, oracle = criterion_check(conn), sampled_criterion(conn, pts)
        assert report.passes == oracle.passes, name
        assert report.torsion_trace_max >= oracle.torsion_trace_max - 1e-15, name
        assert report.correction_sum_residual >= oracle.correction_sum_residual - 1e-15, name
        trace = np.einsum("abb->a", conn.torsion_tensor)
        assert np.linalg.norm(trace - np.einsum("aia->i", conn.gamma)) <= 1e-14, name


def test_sphere_connection_matrix_is_pinned(sphere, rng):
    matrix = connection_test_matrix(sphere, rng)
    assert [name for name, _ in matrix] == ["canonical", "levi-civita"]


def _lstsq_balanced_gamma(gamma):
    """The least-squares balancing step over a basis of skew-matrix tuples: the oracle."""
    p = gamma.shape[0]
    basis = []
    for a in range(p):
        for i in range(p):
            for j in range(i + 1, p):
                s = np.zeros((p, p, p))
                s[a, i, j], s[a, j, i] = 1.0, -1.0
                basis.append(s)
    basis = np.array(basis)
    targets = np.einsum("kaia->ki", basis)  # correction sum of each basis tuple
    coef, *_ = np.linalg.lstsq(targets.T, -np.einsum("aia->i", gamma), rcond=None)
    return gamma + np.einsum("k,kaij->aij", coef, basis)


def test_balanced_gamma_matches_least_squares_oracle(full_group):
    p = full_group.m_dim
    for seed in range(50):
        ours = _balanced_random_gamma(full_group, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        drawn = np.stack([_random_skew(rng, p) for _ in range(p)])
        assert np.abs(ours - _lstsq_balanced_gamma(drawn)).max() < 1e-14
        assert np.abs(ours + ours.transpose(0, 2, 1)).max() == 0.0


def test_minimal_violating_connection_shape(full_group):
    conn = minimal_violating_connection(full_group)
    assert conn.is_compatible
    total = np.einsum("aia->i", conn.gamma.real)
    assert np.linalg.norm(total) > 0.9


def test_spectral_block_level_zero(sphere):
    lc = levi_civita_connection(sphere)
    b = spectral_block(lc, spin_rep(sphere, 0))
    assert b.dim == 2  # constants and the volume grade
    assert np.abs(b.eigenvalues).max() < 1e-10
    assert b.gram_defect < 1e-9


def test_spectral_blocks_low_levels(sphere):
    lc = levi_civita_connection(sphere)
    blocks = [spectral_block(lc, spin_rep(sphere, 2 * lv)) for lv in range(3)]
    for level, b in enumerate(blocks[1:], start=1):
        assert b.dim == 4 * (2 * level + 1)
        assert b.gram_defect < 1e-9
        assert b.asymmetry < 1e-8
        ev = np.sort(b.eigenvalues)
        assert np.abs(ev + ev[::-1]).max() < 1e-7  # symmetric about zero
        expect = np.sqrt(level * (level + 1))
        assert np.abs(np.abs(ev) - expect).max() < 1e-8
    assert kernel_count(blocks) == 2
    assert max(b.closure for b in blocks) < 1e-8


def test_spectrum_symmetry_oracle_via_grade_involution(sphere):
    """The grade involution anticommutes with the operator blockwise."""
    lc = levi_civita_connection(sphere)
    b = spectral_block(lc, spin_rep(sphere, 4))
    signs = (-1.0) ** b.grades
    flipped = signs[:, None] * b.matrix * signs[None, :]
    assert np.abs(flipped + b.matrix).max() < 1e-8


def test_grade_compression_matches_casimir(sphere):
    lc = levi_civita_connection(sphere)
    for level in (1, 2):
        rep = spin_rep(sphere, 2 * level)
        eigs = grade_compressed_square(spectral_block(lc, rep))
        oracle = casimir_value(rep)
        assert np.abs(eigs - oracle).max() < 1e-6 * oracle


def _quadrature_values(conn, level, rule):
    """Values of the isotypic basis and of its Dirac images on the rule nodes."""
    pts = EvalPoints.for_rule(conn.group, rule)
    sections = [sec for _, _, sec in isotypic_basis(spin_rep(conn.group, 2 * level))]
    vals = np.stack([sec.values(pts) for sec in sections])
    dvals = np.stack([hodge_dirac(conn, sec).values(pts) for sec in sections])
    return vals, dvals


def test_spectral_block_matches_quadrature_assembly(sphere, full_group, rule8, rng):
    """Independent route: the closed-form block equals <xi_i, D xi_j> by quadrature."""
    rule4_full = full_group.haar_rule(4)
    cases = [(conn, level, rule8) for conn in (canonical_connection(sphere),
                                               levi_civita_connection(sphere))
             for level in range(4)]
    cases += [(conn, level, rule4_full) for _, conn in connection_test_matrix(full_group, rng)
              for level in range(2)]
    sphere_lc = {}
    for conn, level, rule in cases:
        vals, dvals = _quadrature_values(conn, level, rule)
        quad = np.einsum("n,anT,bnT->ab", rule.weights, vals.conj(), dvals)
        block = spectral_block(conn, spin_rep(conn.group, 2 * level))
        full = np.kron(np.eye(block.multiplicity), block.matrix)
        assert np.abs(full - quad).max() < 1e-12, (conn.name, level)
        assert abs(block.asymmetry - np.abs(quad - quad.conj().T).max()) < 1e-12
        if conn.group is sphere and conn.name == "levi-civita":
            sphere_lc[level] = rule.weights, vals, dvals
    # leakage across levels vanishes by Schur orthogonality, up to roundoff
    for a, (weights, avals, _) in sphere_lc.items():
        for b, (_, _, bdvals) in sphere_lc.items():
            if a != b:
                cross = np.einsum("n,anT,bnT->ab", weights, avals.conj(), bdvals)
                assert np.abs(cross).max() <= 1e-8


def test_spectral_blocks_to_level_50(sphere):
    """Criterion-6 bounds at every level through 50: no level is capped."""
    lc = levi_civita_connection(sphere)
    reps = [spin_rep(sphere, 2 * level) for level in range(51)]
    blocks = [spectral_block(lc, rep) for rep in reps]
    for level, (rep, b) in enumerate(zip(reps[1:], blocks[1:]), start=1):
        assert b.dim == 4 * (2 * level + 1)
        oracle = casimir_value(rep)
        assert np.abs(b.eigenvalues ** 2 - oracle).max() <= 1e-6 * oracle
    for b in blocks:
        ev = np.sort(b.eigenvalues)
        assert np.abs(ev + ev[::-1]).max() <= 1e-7
        assert b.closure <= 1e-8
    assert kernel_count(blocks) == 2


def test_spectral_block_stores_one_copy(sphere, full_group):
    """On su2-trivial-k, level 10 is 21 copies of a 168 x 168 block: dimension 3528."""
    b = spectral_block(levi_civita_connection(full_group), spin_rep(full_group, 20))
    assert b.matrix.shape == (168, 168)
    assert b.grades.shape == b.eigenvalues.shape == (168,)
    assert (b.multiplicity, b.dim) == (21, 3528)
    assert np.all(np.diff(b.eigenvalues) >= 0)  # ascending, as the spectrum CSV writes them
    empty = spectral_block(levi_civita_connection(sphere), spin_rep(sphere, 1))  # none invariant
    assert (empty.multiplicity, empty.dim, kernel_count([empty])) == (0, 0, 0)


def _subgroup_average_projector(group, level):
    """The subgroup rule's average of rho(s)^-1 C K(s) on vec(C): the former route."""
    alg = spinor_algebra(group)
    rep = spin_rep(group, 2 * level)
    nodes = EvalPoints.for_rule(group, k_rule(group))
    kstack = rule_stack(CliffordKRep(group, alg))
    proj = sum(w * np.kron(rho.conj().T, kmat.real.T)
               for w, rho, kmat in zip(k_rule(group).weights, nodes.rep_stack(rep), kstack))
    return proj


@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_isotypic_coefficients_match_subgroup_average(scale):
    """Oracle: per grade, the null-space basis spans the subgroup average's fixed space."""
    from homogdirac.dirac import isotypic_coefficients
    group = scaled_su2(scale)
    alg = spinor_algebra(group)
    for level in range(16):
        proj = _subgroup_average_projector(group, level)
        coeffs = isotypic_coefficients(spin_rep(group, 2 * level))
        dim_r = 2 * level + 1
        for grade in range(alg.p + 1):
            mask = np.tile(alg.grades == grade, dim_r)
            basis = np.array([c.reshape(-1) for g, c in coeffs if g == grade])
            basis = basis.reshape(-1, mask.size)
            assert np.abs(basis[:, ~mask]).max(initial=0.0) == 0.0
            ours = basis.T @ basis.conj()
            oracle = proj * np.outer(mask, mask)
            assert np.abs(ours - oracle).max() <= 1e-12, (scale, level, grade)


def test_spectrum_takes_no_svd_and_one_eigendecomposition_per_level(monkeypatch):
    """su2/u1 to level 20: no SVD, one eigh per level plus one per Clifford grade, and every
    coefficient stack orthonormal with each member of pure grade."""
    from homogdirac import GroupModel
    from homogdirac.cli import RunConfig, run_spectrum
    from homogdirac.dirac import isotypic_coefficients

    calls, eigh = [], np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    def no_svd(*args, **kwargs):
        raise AssertionError("the spectrum path took an SVD")

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    levels = 20
    run_spectrum(RunConfig(group="su2", subgroup="u1", connection="levi-civita", levels=levels))
    group = GroupModel.su2()
    alg = spinor_algebra(group)
    assert 0 < len(calls) <= (levels + 1) + (alg.p + 1)
    for level in range(levels + 1):
        coeffs = isotypic_coefficients(spin_rep(group, 2 * level))
        flat = np.array([c.reshape(-1) for _, c in coeffs])
        assert np.abs(flat.conj() @ flat.T - np.eye(len(flat))).max() < 1e-13, level
        for grade, c in coeffs:
            assert not np.any(c[:, alg.grades != grade]), (level, grade)


def test_every_coefficient_is_invariant_over_the_trivial_subgroup(full_group):
    from homogdirac.dirac import isotypic_coefficients
    alg = spinor_algebra(full_group)
    for level in range(4):
        coeffs = isotypic_coefficients(spin_rep(full_group, 2 * level))
        basis = np.array([c.reshape(-1) for _, c in coeffs])
        size = (2 * level + 1) * alg.n
        assert basis.shape == (size, size)
        assert np.abs(basis.conj() @ basis.T - np.eye(size)).max() <= 1e-12


def test_isotypic_basis_is_equivariant(sphere, rng):
    x = random_element(sphere, rng)
    s = k_nodes(sphere)[4]
    krep = CliffordKRep(sphere, spinor_algebra(sphere))
    for _, _, sec in isotypic_basis(spin_rep(sphere, 2)):
        assert equivariance_defect(sec, krep, x, s) < 1e-12


def test_isotypic_coefficients_match_brute_force_average(sphere, rng):
    """Dual route: the coefficient-space projector equals section averaging."""
    from homogdirac.dirac import isotypic_coefficients
    alg = spinor_algebra(sphere)
    rep = spin_rep(sphere, 2)
    ckrep = CliffordKRep(sphere, alg)
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 8))
    coeffs = isotypic_coefficients(rep)
    # project a random elementary profile through both routes
    c_raw = rng.standard_normal((rep.dim, alg.n)) + 1j * rng.standard_normal((rep.dim, alg.n))
    row = 1
    raw = MatrixCoefficient(rep, np.eye(rep.dim)[row], c_raw, Codomain.clifford(alg))
    averaged = OrbitAverage(raw, ckrep, sphere)
    # coefficient-space projection: same subgroup average on the profile
    proj_c = np.zeros_like(c_raw)
    for s, w in zip(k_nodes(sphere), k_rule(sphere).weights):
        proj_c += w * (rep.matrix_stack(s.matrix[None])[0].conj().T @ c_raw
                       @ krep_matrix(ckrep, s).real)
    direct = MatrixCoefficient(rep, np.eye(rep.dim)[row], proj_c, Codomain.clifford(alg))
    assert np.abs(averaged.values(pts) - direct.values(pts)).max() < 1e-12
    # and the projected profile lies in the span of the invariant basis
    basis = np.stack([c for _, c in coeffs])
    flat = proj_c.reshape(-1)
    coords = np.einsum("krT,rT->k", basis.conj(), proj_c)
    recon = np.einsum("k,krT->rT", coords, basis).reshape(-1)
    assert np.abs(recon - flat).max() < 1e-12


def geodesic_arc(group, p, q, count=64):
    """Group elements projecting onto the geodesic arc between two cosets.

    Obtained by rotating ``p`` about the axis orthogonal to both orbit
    vectors; used to densify gradient sup-norm sampling where the
    distance-realizing test functions attain their maxima.
    """
    np_, nq = orbit_vector(group, p), orbit_vector(group, q)
    angle = float(np.arccos(np.clip(np.dot(np_, nq), -1.0, 1.0)))
    axis = np.cross(np_, nq)
    nrm = np.linalg.norm(axis)
    if nrm < 1e-12:
        return [p, q]
    axis = axis / nrm
    return [group.exp(axis * np.sqrt(group.metric_scale), t) @ p
            for t in np.linspace(0.0, angle, count)]


def test_metric_estimate_basics(sphere, rule8, rng):
    p = random_element(sphere, rng)
    fam = coefficient_family(sphere, max_two_j=4, vectors=[np.eye(3)[0]])
    assert metric_estimate(sphere, p, p, fam, rule8) < 1e-13
    q = random_element(sphere, rng)
    est1 = metric_estimate(sphere, p, q, fam[:3], rule8)
    est2 = metric_estimate(sphere, p, q, fam, rule8)
    assert est2 >= est1 - 1e-15  # monotone in the family


def test_metric_estimate_against_geodesic(sphere, rule8, rng):
    for _ in range(6):
        p, q = sphere.random_elements(rng, 2)
        np_, nq = orbit_vector(sphere, p), orbit_vector(sphere, q)
        geo = float(np.arccos(np.clip(np.dot(np_, nq), -1.0, 1.0)))
        chord = np_ - nq
        fam = coefficient_family(sphere, max_two_j=4,
                                 vectors=[chord / np.linalg.norm(chord)])
        arc = geodesic_arc(sphere, p, q, 64)
        est = metric_estimate(sphere, p, q, fam, rule8, extra_points=arc)
        assert est <= geo + 1e-9
        # the aligned linear functional realizes the chordal bound
        assert est >= 2 * np.sin(geo / 2) - 1e-9


def test_selfadjoint_defect_solves_no_eigenvalues(sphere, rng, monkeypatch):
    """The defect reads each block's asymmetry only: no eigvalsh, where each block took one;
    a block reading its eigenvalues takes one, once."""
    conn = levi_civita_connection(sphere)
    pairs = [(random_spinor(sphere, rng), random_spinor(sphere, rng, 4)),
             (random_spinor(sphere, rng), unit_spinor(sphere))]
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counted_eigvalsh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    assert selfadjoint_defect(conn, pairs) < 1e-10
    assert calls == []
    block = spectral_block(conn, spin_rep(sphere, 2))
    assert block.eigenvalues is block.eigenvalues and len(calls) == 1


def test_spinor_product_stays_equivariant(sphere, rng):
    alg = spinor_algebra(sphere)
    a, b = random_spinor(sphere, rng), random_spinor(sphere, rng, 4)
    prod = CliffordProduct(alg, a, b)
    x = random_element(sphere, rng)
    assert np.abs(value(prod, x)).max() > 1e-3  # a vanishing product tests nothing
    for s in k_nodes(sphere)[::8]:
        assert equivariance_defect(prod, CliffordKRep(sphere, alg), x, s) < 1e-10


@pytest.mark.parametrize("basis", ["catalog", "rotated"])
def test_coefficient_family_is_subgroup_invariant(basis, rng):
    """f(x s) = f(x) for every member and subgroup-rule node s, on any basis of su(2)."""
    from homogdirac import GroupModel
    from test_reps import rotated_su2
    group = GroupModel.su2() if basis == "catalog" else rotated_su2()
    fam = coefficient_family(group, max_two_j=4, vectors=[group.random_algebra(rng)])
    assert len(fam) == 1 + 2 * (3 + 5)  # one invariant line per integer level
    pts = EvalPoints.of(group, group.random_elements(rng, 5))
    # the imaginary part of a real coefficient vanishes; most members do not
    assert sum(np.abs(f.values(pts)).max() > 1e-3 for f in fam) > len(fam) // 2
    for f in fam:
        vals = f.values(pts)
        for s in k_nodes(group):
            shifted = EvalPoints(group, pts.matrices @ s.matrix)
            assert np.abs(f.values(shifted) - vals).max() < 1e-13


def test_catalog_coefficient_family_uses_the_zero_weight_columns(sphere):
    """On the catalog basis the invariant line of level 2j is the basis vector e_j exactly;
    each real part is followed by its imaginary part, the real part of the coefficient of -i e_j."""
    fam = coefficient_family(sphere, max_two_j=4)
    for re, im in zip(fam[::2], fam[1::2]):
        coef = re.children[0]
        e_j = np.eye(coef.rep.dim)[coef.rep.dim // 2]
        assert np.array_equal(coef.v, e_j)
        assert np.array_equal(im.children[0].v, -1j * e_j)


# -- the block defect against the quadrature pairing ------------------------------


def pairing_defect(conn, phi, psi, rule, frame=None):
    """<D phi, psi> - <phi, D psi> as two quadrature pairings of Dirac nodes: the oracle."""
    return (l2_inner(hodge_dirac(conn, phi, frame=frame), psi, rule)
            - l2_inner(phi, hodge_dirac(conn, psi, frame=frame), rule))


def complex_skew_hermitian_gamma(group, rng):
    """A real skew part plus i times a real symmetric part in each gamma(u_a)."""
    p = group.m_dim
    sym = rng.standard_normal((p, p, p))
    return np.stack([_random_skew(rng, p) for _ in range(p)]) + 0.5j * (
        sym + sym.transpose(0, 2, 1))


@pytest.mark.parametrize("space", ["full_group", "sphere", "rotated"])
def test_selfadjoint_defect_matches_the_pairing_oracle(space, request, tmp_path, rng):
    """The block defect gives the quadrature oracle's verdict: for every test-matrix connection
    it is <= 1e-8 exactly when the pairing of D phi and D psi is on every pair, through the
    closed-form node and through the frame sum, and the criterion passes.  A violation reads
    >= 1e-6 both ways."""
    g = _space(space, request, tmp_path)
    rule = g.haar_rule(8)
    pairs = defect_pairs(g, rng, g.m_dim + 6)
    # complex sections with no equivariance tag, one sharing a pair with a real spinor,
    # and a section paired with itself
    alg = spinor_algebra(g)
    rep = spin_rep(g, 2)
    c1, c2 = (MatrixCoefficient(rep, rng.standard_normal(3) + 1j * rng.standard_normal(3),
                                rng.standard_normal((3, alg.n)), Codomain.clifford(alg))
              for _ in range(2))
    pairs += [(c1, c2), (c1, pairs[-1][1]), (c2, c2)]
    pts = sample_pts(g, rng)
    frame = tangent_frame(g)
    violated = 0
    for name, conn in connection_test_matrix(g, rng):
        defect = selfadjoint_defect(conn, pairs, rule)
        oracle = max(abs(pairing_defect(conn, phi, psi, rule, f))
                     for phi, psi in pairs for f in (None, frame))
        passes = criterion_check(conn, pts).passes
        assert (defect <= 1e-8) == (oracle <= 1e-8) == passes, name
        assert passes or min(defect, oracle) >= 1e-6, name
        violated += not passes
    assert violated > 0 if g.k_dim == 0 else violated == 0  # a defect of 0 alone tests nothing


def test_half_integer_blocks_on_the_trivial_quotient(full_group, rng):
    """The two_j = 1 and 3 blocks, which the selfadjoint-matrix spinors reach, are closed and
    orthonormal for every test-matrix connection, and Hermitian for all but the violating ones."""
    for name, conn in connection_test_matrix(full_group, rng):
        for two_j in (1, 3):
            b = spectral_block(conn, spin_rep(full_group, two_j))
            assert (b.multiplicity, len(b.eigenvalues)) == (two_j + 1, (two_j + 1) * 8)
            assert max(b.gram_defect, b.closure) <= 1e-12, name
            assert name.startswith("violating") or b.asymmetry <= 1e-14, name


@pytest.mark.parametrize("space", ["sphere", "full_group", "rotated"])
def test_spectral_block_equals_the_one_pass_assembly_bit_for_bit(space, request, tmp_path, rng):
    """The kept canonical-frame part plus each connection's correction gives, bit for bit, the
    block assembled in one pass: for every test-matrix connection (12 on the trivial
    quotient) and two_j = 0 ... 6, after the first connection on parts already kept."""
    g = _space(space, request, tmp_path)
    reps = [spin_rep(g, two_j) for two_j in range(7)]  # held, so their parts are kept
    matrix = connection_test_matrix(g, rng)
    assert len(matrix) == (12 if g.k_dim == 0 else 2)
    for name, conn in matrix:
        for rep in reps:
            ours, oracle = spectral_block(conn, rep), one_pass_block(conn, rep)
            for field in ("matrix", "grades"):
                a, b = getattr(ours, field), getattr(oracle, field)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (
                    name, rep.name, field)
            for field in ("multiplicity", "gram_defect", "closure", "asymmetry"):
                assert getattr(ours, field) == getattr(oracle, field), (name, rep.name, field)


def test_spectral_block_refuses_a_rep_of_another_group(sphere, full_group):
    """An irrep of another SU(2) model has generators on another basis: the block names both."""
    with pytest.raises(ValueError, match="spin-2/2 of group 'su2-trivial-k'.*group 'su2'"):
        spectral_block(levi_civita_connection(sphere), spin_rep(full_group, 2))


def test_a_complex_gamma_has_no_clifford_extension(full_group, rng):
    """The symmetric imaginary part of a skew-Hermitian gamma extends to no derivation: every
    Clifford-bundle route raises, naming its size, while the tangent derivative applies it."""
    gamma = complex_skew_hermitian_gamma(full_group, rng)
    conn = Connection(full_group, gamma, name="complex")
    assert conn.is_compatible and np.abs(gamma.imag).max() > 0.1
    pts = sample_pts(full_group, rng)
    phi = random_spinor(full_group, rng)
    routes = (lambda: conn.derivation_stack, lambda: conn.dirac_stack,
              lambda: hodge_dirac(conn, phi).values(pts),
              lambda: selfadjoint_defect(conn, [(phi, phi)], full_group.haar_rule(4)),
              lambda: spectral_block(conn, spin_rep(full_group, 2)))
    size = re.escape(f"imaginary part of norm {np.linalg.norm(gamma.imag):.2e}")
    for route in routes + routes[:1]:  # the lazy stack raises again on a second access
        with pytest.raises(ValueError, match=size):
            route()
    w, xi = tangent_frame(full_group)[:2]
    full = ApplyConnection(conn, w, xi).values(pts)
    real = ApplyConnection(Connection(full_group, gamma.real), w, xi).values(pts)
    imag = np.einsum("na,aij,nj->ni", w.values(pts), 1j * gamma.imag, xi.values(pts))
    assert np.abs(imag).max() > 0.1
    assert np.abs(full - real - imag).max() < 1e-12


def test_selfadjoint_defect_raises_like_the_pairing_oracle(sphere, full_group, rng):
    """Bad inputs raise as in hodge_dirac, and a section of another group than the
    connection's raises, naming both.  The defect evaluates nothing, so a rule too coarse
    for the pairing gives no BandwidthWarning."""
    rule = sphere.haar_rule(2)
    conn = canonical_connection(sphere)
    phi = random_spinor(sphere, rng, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        selfadjoint_defect(conn, [(phi, phi)], rule)
    scalar = invariant_scalar(sphere, rng)
    for route in (pairing_defect, lambda c, a, b, r: selfadjoint_defect(c, [(a, b)], r)):
        with pytest.raises(ValueError, match="Clifford-valued"):
            route(conn, scalar, phi, rule)
        one = unit_spinor(full_group)
        unbalanced = Connection(full_group, rng.standard_normal((3, 3, 3)))  # not skew-valued
        with pytest.raises(ValueError, match="metric-compatible|skew-valued"):
            route(unbalanced, one, one, full_group.haar_rule(2))
    with pytest.raises(ValueError, match="group 'su2-trivial-k' paired under a connection "
                                         "on group 'su2'"):
        selfadjoint_defect(conn, [(phi, unit_spinor(full_group))])


def test_blocks_read_the_clifford_action_bases_solved_once(monkeypatch):
    """One route from the subgroup action to invariant coefficients: a connection sweep over
    held representations solves each basis and builds each canonical-frame part once, and
    the blocks' coefficients are, bit for bit, the Clifford action's basis rows."""
    from homogdirac import GroupModel, Sum, dirac, sections
    from homogdirac.dirac import isotypic_coefficients
    group = GroupModel.su2_trivial_k()
    reps = [spin_rep(group, two_j) for two_j in range(3)]  # held, so their bases are kept
    alg = spinor_algebra(group)
    spinor = Sum([Constant(Codomain.clifford(alg), np.ones(alg.n), group=group),
                  MatrixCoefficient(reps[2], np.ones(3), np.ones((3, alg.n)),
                                    Codomain.clifford(alg))])
    calls = []
    for module in (sections, dirac):  # every binding of the solver
        if hasattr(module, "invariant_basis"):
            solve = getattr(module, "invariant_basis")
            monkeypatch.setattr(module, "invariant_basis",
                                lambda *args, solve=solve: calls.append(1) or solve(*args))
    parts = []  # the representation of each canonical-frame part built
    coefficients = dirac.isotypic_coefficients
    monkeypatch.setattr(dirac, "isotypic_coefficients",
                        lambda rep: parts.append(rep) or coefficients(rep))
    connections = connection_test_matrix(group, np.random.default_rng(0))
    assert len(connections) == 12
    for _, conn in connections:
        selfadjoint_defect(conn, [(spinor, spinor)])
    assert len(calls) <= len(reps)
    assert sorted(parts, key=lambda rep: rep.spin) == reps
    for g in (GroupModel.su2(), group):
        alg = spinor_algebra(g)
        for two_j in range(4):
            rep = spin_rep(g, two_j)
            rows = CliffordKRep(g, alg).basis(rep).reshape(-1, rep.dim, alg.n)
            coeffs = [c for _, c in isotypic_coefficients(rep)]
            assert len(coeffs) == len(rows), (g.name, two_j)
            assert {c.tobytes() for c in coeffs} == {r.tobytes() for r in rows}, (g.name, two_j)
