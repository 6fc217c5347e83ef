import numpy as np
import pytest

from homogdirac import (
    AInner,
    Codomain,
    Connection,
    Constant,
    EmbedTangent,
    EvalPoints,
    FundamentalField,
    GroupModel,
    MatrixCoefficient,
    RealPart,
    Scale,
    Sum,
    TangentKRep,
    Translate,
    TrivialKRep,
    adjoint_rep,
    canonical_connection,
    connection_test_matrix,
    equivariance_defect,
    lambda_deriv,
    levi_civita_connection,
    spin_rep,
    spinor_algebra,
    tangent_bundle,
    tangent_frame,
    torsion,
)
from homogdirac.geometry import ApplyConnection
from oracles import (OrbitAverage, k_nodes, k_rule, random_element, rule_stack,
                     symmetric_space_check, torsion_trace, value)

E3 = np.eye(3)


def sample_pts(group, rng, n=25):
    return EvalPoints.of(group, group.random_elements(rng, n))


def invariant_scalar(group, rng):
    rep = spin_rep(group, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    return RealPart(OrbitAverage(f, TrivialKRep(), group))


def test_fundamental_field_examples(sphere):
    # isotropy generators vanish at the identity; tangent ones hit -X
    wk = FundamentalField(sphere, sphere.k_frame[0])
    assert np.linalg.norm(value(wk, sphere.identity())) < 1e-14
    wm = FundamentalField(sphere, E3[0])
    assert np.allclose(value(wm, sphere.identity()), -sphere.to_m(E3[0]))


def test_fundamental_fields_are_equivariant(sphere, rng):
    w = FundamentalField(sphere, sphere.random_algebra(rng))
    for s in k_nodes(sphere)[::8]:
        x = random_element(sphere, rng)
        assert equivariance_defect(w, TangentKRep(sphere), x, s) < 1e-10


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_frame_identity_and_norm_sum(space, request, rng):
    group = request.getfixturevalue(space)
    frame = tangent_frame(group)
    pts = sample_pts(group, rng, 100)
    w = Sum([Scale(frame[0], invariant_scalar(group, rng)), frame[1]])
    recon = Sum([Scale(fj, AInner(fj, w)) for fj in frame])
    assert np.abs(recon.values(pts) - w.values(pts)).max() < 1e-10
    norms = Sum([AInner(fj, fj) for fj in frame])
    assert np.abs(norms.values(pts) - group.m_dim).max() < 1e-10


def test_trivial_subgroup_frame_at_identity(full_group):
    frame = tangent_frame(full_group)
    e = full_group.identity()
    vals = np.stack([value(fj, e) for fj in frame])
    assert np.allclose(vals.real, -np.eye(3))


def test_canonical_derivative_of_invariant_constant(sphere, rng):
    c = Constant(Codomain.scalar(), 3.0, group=sphere)
    frame = tangent_frame(sphere)
    nab = ApplyConnection(canonical_connection(sphere), frame[0], c)
    assert abs(value(nab, random_element(sphere, rng))) < 1e-14


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_canonical_derivative_formula_on_fundamental_fields(space, request, rng):
    group = request.getfixturevalue(space)
    x_c, y_c = group.random_algebra(rng), group.random_algebra(rng)
    wx, wy = FundamentalField(group, x_c), FundamentalField(group, y_c)
    pts = sample_pts(group, rng)
    vals = ApplyConnection(canonical_connection(group), wx, wy).values(pts)
    ads = pts.rep_stack(adjoint_rep(group))
    zx = np.einsum("nba,b->na", ads, x_c)
    zy = np.einsum("nba,b->na", ads, y_c)
    expect = -np.einsum("abc,na,nb->nc", group.structure,
                        zx @ group.proj_m.T, zy) @ group.m_frame.T
    assert np.abs(vals - expect).max() < 1e-12


def test_gamma_zero_reduces_to_canonical(full_group, rng):
    zero = Connection(full_group, np.zeros((3, 3, 3)), name="explicit-zero")
    frame = tangent_frame(full_group)
    w = FundamentalField(full_group, full_group.random_algebra(rng))
    pts = sample_pts(full_group, rng, 10)
    a = ApplyConnection(zero, frame[0], w).values(pts)
    b = ApplyConnection(canonical_connection(full_group), frame[0], w).values(pts)
    assert np.abs(a - b).max() < 1e-14


def test_correction_term_is_equivariant(full_group, rng):
    """The zero-order term sends equivariant sections to equivariant sections."""
    conn = levi_civita_connection(full_group)
    frame = tangent_frame(full_group)
    xi = FundamentalField(full_group, full_group.random_algebra(rng))
    nab = ApplyConnection(conn, frame[0], xi)
    x = random_element(full_group, rng)
    for s in k_nodes(full_group):
        assert equivariance_defect(nab, TangentKRep(full_group), x, s) < 1e-10


def test_equivariant_outputs_on_sphere(sphere, rng):
    conn = canonical_connection(sphere)
    frame = tangent_frame(sphere)
    xi = FundamentalField(sphere, sphere.random_algebra(rng))
    nab = ApplyConnection(conn, frame[1], xi)
    x = random_element(sphere, rng)
    for s in k_nodes(sphere)[::6]:
        assert equivariance_defect(nab, TangentKRep(sphere), x, s) < 1e-10


def test_intertwining_condition_rejects_generic_gamma_on_sphere(sphere, rng):
    gamma = np.zeros((2, 2, 2))
    gamma[0] = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="intertwining"):
        Connection(sphere, gamma)


def _rule_stack_intertwines(group, gamma):
    """The intertwining condition at the subgroup rule's nodes: the former route."""
    if np.all(gamma == 0):
        return True
    ts = rule_stack(TangentKRep(group)).real[:, None]   # (node, 1, p, p)
    lhs = np.einsum("nba,bij->naij", ts[:, 0], gamma)   # gamma(Ad_s u_a)
    rhs = ts @ gamma @ ts.transpose(0, 1, 3, 2)
    return float(np.abs(lhs - rhs).max()) <= 1e-8


def _connection_accepts(group, gamma):
    try:
        Connection(group, gamma)
    except ValueError as exc:
        assert "intertwining" in str(exc)
        return False
    return True


def _project_to_intertwiners(group, gamma):
    """Subgroup average of Ad_s^-1 gamma(Ad_s .) Ad_s, exact on the rule for constant gamma."""
    ts = rule_stack(TangentKRep(group)).real
    return sum(w * t.T @ np.einsum("ba,bij->aij", t, gamma) @ t
               for w, t in zip(k_rule(group).weights, ts))


def test_intertwining_verdict_matches_rule_stack_form(sphere, full_group, rng):
    """The Lie-algebra test in Connection agrees with the finite test at the rule's nodes."""
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]], np.eye(2)])
    u2 = GroupModel("u2", -0.5j * sigma, subgroup_indices=(2,))  # U(2)/U(1)
    generic = np.zeros((2, 2, 2))
    generic[0] = np.array([[0.0, -1.0], [1.0, 0.0]])
    cases = [(sphere, generic)]
    for g in (sphere, full_group, u2):
        p = g.m_dim
        rand = rng.standard_normal((p, p, p))
        cases += [(g, canonical_connection(g).gamma), (g, levi_civita_connection(g).gamma),
                  (g, rand), (g, _project_to_intertwiners(g, rand))]
    verdicts = [(_rule_stack_intertwines(g, gm), _connection_accepts(g, gm)) for g, gm in cases]
    assert [ours for ours, _ in verdicts] == [theirs for _, theirs in verdicts]
    assert verdicts[0] == (False, False)
    # on U(2)/U(1) a projected random gamma is a nonzero intertwiner
    assert np.abs(cases[-1][1]).max() > 0.1 and verdicts[-1] == (True, True)
    assert verdicts[-2] == (False, False)


@pytest.mark.parametrize("shape", [(2, 3, 3), (2, 2, 3), (3, 2, 2)])
def test_mis_shaped_gamma_rejected(sphere, shape):
    """A connection's gamma holds one tangent operator per tangent direction."""
    for gamma in (np.zeros(shape), np.ones(shape)):
        with pytest.raises(ValueError, match=r"\(2, 2, 2\)"):
            Connection(sphere, gamma)


def test_levi_civita_values(sphere, full_group):
    assert np.linalg.norm(levi_civita_connection(sphere).gamma) < 1e-14
    lc = levi_civita_connection(full_group)
    assert np.allclose((lc.gamma[0] @ E3[1]).real, 0.5 * E3[2])
    for gm in lc.gamma:
        assert np.abs(gm + gm.conj().T).max() < 1e-14
    assert lc.is_compatible


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_compatibility_leibniz(space, request, rng):
    group = request.getfixturevalue(space)
    conn = levi_civita_connection(group)
    frame = tangent_frame(group)
    xi = FundamentalField(group, group.random_algebra(rng))
    eta = FundamentalField(group, group.random_algebra(rng))
    pts = sample_pts(group, rng)
    for wj in frame:
        lhs = ApplyConnection(conn, wj, AInner(xi, eta)).values(pts)
        rhs = (AInner(ApplyConnection(conn, wj, xi), eta).values(pts)
               + AInner(xi, ApplyConnection(conn, wj, eta)).values(pts))
        assert np.abs(lhs - rhs).max() < 1e-9


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_connection_translation_invariance(space, request, rng):
    group = request.getfixturevalue(space)
    pts = sample_pts(group, rng, 15)
    w = FundamentalField(group, group.random_algebra(rng))
    xi = FundamentalField(group, group.random_algebra(rng))
    for conn in (canonical_connection(group), levi_civita_connection(group)):
        y = random_element(group, rng)
        lhs = Translate(ApplyConnection(conn, w, xi), y).values(pts)
        rhs = ApplyConnection(conn, Translate(w, y), Translate(xi, y)).values(pts)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_torsion_vanishes_on_equal_arguments(full_group, rng):
    conn = canonical_connection(full_group)
    v = Sum([Scale(FundamentalField(full_group, full_group.random_algebra(rng)),
                   invariant_scalar(full_group, rng)),
             FundamentalField(full_group, full_group.random_algebra(rng))])
    pts = sample_pts(full_group, rng, 10)
    assert np.abs(torsion(conn, v, v).values(pts)).max() < 1e-11


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_canonical_torsion_pointwise_formula(space, request, rng):
    group = request.getfixturevalue(space)
    conn = canonical_connection(group)
    v = FundamentalField(group, group.random_algebra(rng))
    w = FundamentalField(group, group.random_algebra(rng))
    pts = sample_pts(group, rng)
    tv = torsion(conn, v, w).values(pts)
    vv, wv = v.values(pts), w.values(pts)
    expect = -np.stack([group.bracket_m(vv[n].real, wv[n].real) for n in range(pts.n)])
    assert np.abs(tv - expect).max() < 1e-10


def test_canonical_torsion_value_on_full_group(full_group):
    """On the trivial-subgroup quotient the canonical torsion is nonzero."""
    conn = canonical_connection(full_group)
    w1 = FundamentalField(full_group, E3[0])
    w2 = FundamentalField(full_group, E3[1])
    e = full_group.identity()
    t = torsion(conn, w1, w2)
    # at the identity the fields take values -X1, -X2, so the torsion is
    # -P[-X1, -X2] = -X3
    assert np.allclose(value(t, e).real, -E3[2], atol=1e-12)
    pts = sample_pts(full_group, np.random.default_rng(5), 20)
    assert np.linalg.norm(t.values(pts), axis=1).max() >= 0.1


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_levi_civita_is_torsion_free(space, request, rng):
    group = request.getfixturevalue(space)
    lc = levi_civita_connection(group)
    v = FundamentalField(group, group.random_algebra(rng))
    w = FundamentalField(group, group.random_algebra(rng))
    pts = sample_pts(group, rng)
    assert np.abs(torsion(lc, v, w).values(pts)).max() < 1e-10


def test_torsion_module_bilinearity(full_group, rng):
    conn = canonical_connection(full_group)
    f = invariant_scalar(full_group, rng)
    v = FundamentalField(full_group, full_group.random_algebra(rng))
    w = FundamentalField(full_group, full_group.random_algebra(rng))
    pts = sample_pts(full_group, rng, 10)
    lhs = torsion(conn, Scale(v, f), w).values(pts)
    rhs = Scale(torsion(conn, v, w), f).values(pts)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_torsion_trace(full_group, sphere, rng):
    # torsion-free connections have identically vanishing trace
    lc = levi_civita_connection(full_group)
    u = FundamentalField(full_group, full_group.random_algebra(rng))
    pts = sample_pts(full_group, rng, 15)
    assert np.abs(torsion_trace(lc, u).values(pts)).max() < 1e-10
    # the canonical connection passes despite nonzero torsion
    conn = canonical_connection(full_group)
    assert np.abs(torsion_trace(conn, u).values(pts)).max() < 1e-10
    # frame independence
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    other = tangent_frame(full_group, q.T)
    a = torsion_trace(conn, u).values(pts)
    b = Sum([AInner(torsion(conn, u, wj), wj) for wj in other]).values(pts)
    assert np.abs(a - b).max() < 1e-11
    # a correction with unbalanced frame sum has nonzero trace somewhere
    from homogdirac import minimal_violating_connection
    viol = minimal_violating_connection(full_group)
    vals = torsion_trace(viol, u).values(pts)
    assert np.abs(vals).max() > 1e-2


def former_torsion_pair(connection, i, j):
    """The former torsion of frame fields i and j: nabla_{F_i} F_j - nabla_{F_j} F_i - F([e_i, e_j])."""
    g = connection.group
    frame = tangent_frame(g)
    br = g.bracket(np.eye(g.dim)[i], np.eye(g.dim)[j])
    return Sum([ApplyConnection(connection, frame[i], frame[j]),
                ApplyConnection(connection, frame[j], frame[i]),
                FundamentalField(g, br)], [1.0, -1.0, -1.0])


def former_torsion(connection, v, w):
    """The former torsion: frame pairs extended by module bilinearity through the frame."""
    g = connection.group
    frame = tangent_frame(g)
    cv = [AInner(f, v) for f in frame]
    cw = [AInner(f, w) for f in frame]
    return Sum([Scale(Scale(former_torsion_pair(connection, i, j), cv[i]), cw[j])
                for i in range(g.dim) for j in range(g.dim)])


def random_invariant_gamma(group, rng):
    """A random gamma in the null space of the subgroup intertwining condition."""
    p = group.m_dim
    basis = np.eye(p ** 3).reshape(-1, p, p, p)
    conditions = np.concatenate([
        (np.einsum("ba,nbij->naij", z, basis) - (z @ basis - basis @ z)).reshape(p ** 3, -1)
        for z in group.k_tangent], axis=1)
    _, sv, vt = np.linalg.svd(conditions.T)
    null = vt[np.sum(sv > 1e-10):]
    return (rng.standard_normal(len(null)) @ null).reshape(p, p, p)


def su3_circle():
    """SU(3) over the circle of its eighth Gell-Mann generator: not symmetric, isotropy acting."""
    gell_mann = np.zeros((8, 3, 3), dtype=complex)
    for a, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        gell_mann[2 * a, i, j] = gell_mann[2 * a, j, i] = 1.0
        gell_mann[2 * a + 1, i, j], gell_mann[2 * a + 1, j, i] = -1j, 1j
    gell_mann[6] = np.diag([1.0, -1.0, 0.0])
    gell_mann[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3)
    return GroupModel("su3", -0.5j * gell_mann, subgroup_indices=(7,))


def torsion_space(name):
    from test_reps import rotated_su2
    return {"sphere": GroupModel.su2, "full_group": GroupModel.su2_trivial_k,
            "rotated": rotated_su2, "su3-circle": su3_circle}[name]()


def oracle_connections(group, rng):
    """The connection test matrix: canonical, Levi-Civita and, over a trivial subgroup, ten more."""
    return [conn for _, conn in connection_test_matrix(group, rng)]


@pytest.mark.parametrize("space", ["sphere", "full_group", "rotated"])
def test_torsion_matches_frame_pair_expansion(space, rng):
    """The closed-form node against the former frame-pair expansion: values and lambda_deriv."""
    g = torsion_space(space)
    f = Sum([invariant_scalar(g, rng), invariant_scalar(g, rng)], [1.0, 1j])
    v = Sum([Scale(FundamentalField(g, g.random_algebra(rng)), f),
             FundamentalField(g, g.random_algebra(rng))])
    w = Sum([FundamentalField(g, g.random_algebra(rng)),
             FundamentalField(g, g.random_algebra(rng))], [1.0, 0.5j])
    y = g.random_algebra(rng)
    pts = sample_pts(g, rng, 12)
    assert np.abs(f.values(pts).imag).max() > 1e-2
    for conn in oracle_connections(g, rng):
        for a, b in ((v, w), (w, v), (v, v)):
            t = torsion(conn, a, b)
            want = former_torsion(conn, a, b).values(pts)
            assert np.abs(t.values(pts) - want).max() < 1e-12, conn.name
            # the former expansion has no left derivative; torsion is an invariant
            # tensor, so its left derivative is T(L a, b) + T(a, L b)
            want = Sum([former_torsion(conn, lambda_deriv(a, y), b),
                        former_torsion(conn, a, lambda_deriv(b, y))]).values(pts)
            assert np.abs(lambda_deriv(t, y).values(pts) - want).max() < 1e-12, conn.name


@pytest.mark.parametrize("space", ["sphere", "full_group", "rotated"])
def test_torsion_trace_is_the_frame_trace(space, rng):
    """The trace node against sum_j <W_j, T(u, W_j)> over the tangent frame and a rotated one."""
    g = torsion_space(space)
    f = Sum([invariant_scalar(g, rng), invariant_scalar(g, rng)], [1.0, 1j])
    u = Sum([Scale(FundamentalField(g, g.random_algebra(rng)), f),
             FundamentalField(g, g.random_algebra(rng))])
    q, _ = np.linalg.qr(rng.standard_normal((g.dim, g.dim)))
    pts = sample_pts(g, rng, 12)
    for conn in oracle_connections(g, rng):
        got = torsion_trace(conn, u).values(pts)
        for frame in (tangent_frame(g), tangent_frame(g, q.T)):
            want = Sum([AInner(wj, former_torsion(conn, u, wj)) for wj in frame]).values(pts)
            assert np.abs(got - want).max() < 1e-12, conn.name


@pytest.mark.parametrize("space", ["sphere", "rotated", "su3-circle"])
def test_torsion_tensor_intertwines_the_isotropy_action(space, rng):
    """T0(ad_Z a, b) + T0(a, ad_Z b) = ad_Z T0(a, b) for each isotropy generator.

    Every invariant torsion on the sphere is zero; SU(3) over a circle has
    nonzero canonical torsion and a nonzero random invariant gamma.
    """
    g = torsion_space(space)
    conns = [canonical_connection(g), levi_civita_connection(g),
             Connection(g, random_invariant_gamma(g, rng), "random-invariant")]
    for conn in conns:
        t0 = conn.torsion_tensor
        for z in g.k_tangent:
            lhs = np.einsum("ca,cib->aib", z, t0) + np.einsum("aic,cb->aib", t0, z)
            assert np.abs(lhs - np.einsum("ij,ajb->aib", z, t0)).max() < 1e-12, conn.name
    if space == "su3-circle":
        assert min(np.abs(c.torsion_tensor).max() for c in (conns[0], conns[2])) > 0.1


def test_torsion_rejects_non_tangent_sections(full_group):
    conn = canonical_connection(full_group)
    v = FundamentalField(full_group, E3[0])
    scalar = Constant(Codomain.scalar(), 1.0, group=full_group)
    vector = tangent_bundle(full_group).frame[0]
    for bad in (scalar, vector):
        with pytest.raises(ValueError):
            torsion(conn, v, bad)
        with pytest.raises(ValueError):
            torsion(conn, bad, v)
        with pytest.raises(ValueError):
            torsion_trace(conn, bad)


def test_torsion_is_one_node_on_its_arguments(full_group):
    conn = levi_civita_connection(full_group)
    v, w = FundamentalField(full_group, E3[0]), FundamentalField(full_group, E3[1])
    t = torsion(conn, v, w)
    assert len(t.children) == 2
    assert t.children[0] is v and t.children[1] is w


def test_gamma_round_trip(full_group, rng):
    """Recover the stored correction from the connection it generates."""
    from homogdirac.dirac import _balanced_random_gamma
    gamma = _balanced_random_gamma(full_group, rng)
    conn = Connection(full_group, gamma, name="round-trip")
    canon = canonical_connection(full_group)
    e = full_group.identity()
    frame = tangent_frame(full_group)
    recovered = np.zeros((3, 3, 3), dtype=complex)
    for a in range(3):
        for b in range(3):
            # both frame and argument fields take the values -u_a, -u_b at
            # the identity, so the two sign flips cancel
            xi = FundamentalField(full_group, E3[b])
            diff = (value(ApplyConnection(conn, frame[a], xi), e)
                    - value(ApplyConnection(canon, frame[a], xi), e))
            recovered[a, :, b] = diff
    assert np.abs(recovered - gamma).max() < 1e-12
    # and the correction term is pointwise gamma of the direction value
    pts = sample_pts(full_group, rng, 10)
    w = FundamentalField(full_group, full_group.random_algebra(rng))
    xi = FundamentalField(full_group, full_group.random_algebra(rng))
    corr = (ApplyConnection(conn, w, xi).values(pts)
            - ApplyConnection(canon, w, xi).values(pts))
    expect = np.einsum("na,aij,nj->ni", w.values(pts), gamma, xi.values(pts))
    assert np.abs(corr - expect).max() < 1e-12


def test_symmetric_space_check(sphere, full_group):
    ok, residual = symmetric_space_check(sphere)
    assert ok and residual < 1e-12
    ok, residual = symmetric_space_check(full_group)
    assert not ok and residual > 0.5


def test_abelian_group_is_symmetric():
    from homogdirac import GroupModel
    torus = GroupModel("u1", np.array([[[-1.0j]]]))
    ok, residual = symmetric_space_check(torus)
    assert ok and residual == 0.0


def test_torsion_trace_is_module_linear(full_group, rng):
    conn = canonical_connection(full_group)
    u = FundamentalField(full_group, full_group.random_algebra(rng))
    f = invariant_scalar(full_group, rng)
    pts = sample_pts(full_group, rng, 10)
    viol = __import__("homogdirac").minimal_violating_connection(full_group)
    lhs = torsion_trace(viol, Scale(u, f)).values(pts)
    rhs = (Scale(torsion_trace(viol, u), f)).values(pts)
    assert np.abs(lhs - rhs).max() < 1e-10
    assert np.abs(torsion_trace(conn, Scale(u, f)).values(pts)).max() < 1e-10


def test_non_skew_gamma_flagged(full_group):
    gamma = np.zeros((3, 3, 3))
    gamma[0, 0, 0] = 1.0
    conn = Connection(full_group, gamma, name="non-skew")
    assert not conn.is_compatible
    for _ in range(2):  # a failed lazy value is not cached: each access raises
        with pytest.raises(ValueError, match="skew-valued"):
            conn.derivation_stack


def test_connection_correction_matches_einsum_form(full_group, rng):
    """gamma(W(x)) on vector, tangent and Clifford targets, against the one-einsum form."""
    g = full_group
    alg = spinor_algebra(g)
    a = rng.standard_normal((3, 3, 3))
    skew = Connection(g, a - a.transpose(0, 2, 1), name="random-skew")
    direction = Sum([FundamentalField(g, g.random_algebra(rng)),
                     FundamentalField(g, g.random_algebra(rng))], [1.0, 0.5j])
    targets = {
        "vector": tangent_bundle(g).frame[1],
        "tangent": FundamentalField(g, g.random_algebra(rng)),
        "clifford": EmbedTangent(alg, FundamentalField(g, g.random_algebra(rng))),
    }
    pts = sample_pts(g, rng, 9)
    wvals = direction.values(pts)
    for conn in (levi_civita_connection(g), skew):
        for kind, target in targets.items():
            ops = conn.derivation_stack if kind == "clifford" else conn.gamma
            want = (ApplyConnection(canonical_connection(g), direction, target).values(pts)
                    + np.einsum("na,aij,nj->ni", wvals, ops, target.values(pts)))
            got = ApplyConnection(conn, direction, target).values(pts)
            assert np.abs(got - want).max() < 1e-13


def _former_apply(conn, direction, target, pts):
    """The former covariant derivative: one derivs call along W(x) @ m_frame, plus gamma(W(x))."""
    g = conn.group
    wvals = direction.values(pts)
    out = target.derivs(pts, wvals @ g.m_frame.astype(complex))
    kind = target.codomain.kind
    if conn.is_canonical or kind == "scalar":
        return out
    ops = conn.derivation_stack if kind == "clifford" else conn.gamma
    return out + np.einsum("na,ani->ni", wvals, target.values(pts) @ ops.transpose(0, 2, 1))


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_jacobian_contraction_matches_directional_derivative(space, request, rng):
    """For real direction fields the contracted frame Jacobian is the former derivs form."""
    g = request.getfixturevalue(space)
    alg = spinor_algebra(g)
    f = invariant_scalar(g, rng)
    directions = [FundamentalField(g, g.random_algebra(rng)),
                  Sum([Scale(FundamentalField(g, g.random_algebra(rng)), f),
                       FundamentalField(g, g.random_algebra(rng))])]
    targets = [f, FundamentalField(g, g.random_algebra(rng)),
               tangent_bundle(g).frame[1],
               EmbedTangent(alg, FundamentalField(g, g.random_algebra(rng)))]
    for pts in (sample_pts(g, rng, 12), EvalPoints.for_rule(g, g.haar_rule(3))):
        for conn in (canonical_connection(g), levi_civita_connection(g)):
            for direction in directions:
                assert np.abs(direction.values(pts).imag).max() == 0.0
                for target in targets:
                    want = _former_apply(conn, direction, target, pts)
                    got = ApplyConnection(conn, direction, target).values(pts)
                    assert np.abs(got - want).max() < 1e-13


def test_complex_directions_act_complex_linearly_on_real_parts(full_group, rng):
    """nabla_{V + iW} f = nabla_V f + i nabla_W f, also for the real-linear RealPart."""
    g = full_group
    rep = spin_rep(g, 2)
    f = RealPart(MatrixCoefficient(rep, rng.standard_normal(3) + 1j * rng.standard_normal(3),
                                   rng.standard_normal(3)))
    v = FundamentalField(g, g.random_algebra(rng))
    w = FundamentalField(g, g.random_algebra(rng))
    pts = sample_pts(g, rng, 10)
    conn = canonical_connection(g)
    mixed = ApplyConnection(conn, Sum([v, w], [1.0, 1j]), f).values(pts)
    split = (ApplyConnection(conn, v, f).values(pts)
             + 1j * ApplyConnection(conn, w, f).values(pts))
    assert np.abs(mixed - split).max() < 1e-13
    # derivs itself is only real-linear in the direction, so the split is needed
    d1 = v.values(pts) @ g.m_frame
    d2 = w.values(pts) @ g.m_frame
    gap = f.derivs(pts, d1 + 1j * d2) - (f.derivs(pts, d1) + 1j * f.derivs(pts, d2))
    assert np.abs(gap).max() > 0.1
