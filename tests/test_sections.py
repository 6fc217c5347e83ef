import warnings

import numpy as np
import pytest

from homogdirac import (
    AInner,
    BandwidthWarning,
    CliffordAlgebra,
    CliffordKRep,
    CliffordProduct,
    Codomain,
    Constant,
    DerivativeOrderError,
    EmbedTangent,
    EvalPoints,
    FundamentalField,
    GramSection,
    GroupElement,
    GroupModel,
    KAverage,
    MatrixCoefficient,
    MatrixKRep,
    OpApply,
    RankOne,
    RealPart,
    Scale,
    Sum,
    TangentKRep,
    Translate,
    TrivialKRep,
    UnitaryRep,
    adjoint_rep,
    equivariance_defect,
    gradient,
    isotypic_coefficients,
    l2_inner,
    lambda_deriv,
    monopole_bundle,
    spin_rep,
    spinor_algebra,
    tangent_bundle,
    tangent_frame,
)
from homogdirac.groups import _su2_raw_basis
from homogdirac.sections import (_RANK_RTOL, ConjugatedProjection, Pointwise, Product,
                                  invariant_basis)
from oracles import (OrbitAverage, deriv, direct_sum, k_nodes, k_rule, krep_matrix,
                     random_element, rule_stack, value)


def fd_deriv(group, section, x, direction, h):
    xp = GroupElement(x.matrix @ group.exp(direction, h).matrix)
    xm = GroupElement(x.matrix @ group.exp(direction, -h).matrix)
    return (np.atleast_1d(value(section, xp))
            - np.atleast_1d(value(section, xm))) / (2 * h)


def assert_not_negligible(section, group):
    """A vanishing section (a half-integer spin averaged over the circle) tests nothing."""
    angles = [(0.3 * i, 0.5 + 0.4 * i, 1.1 * i) for i in range(3)]  # (alpha, beta, gamma)
    probe = EvalPoints(group, group.haar_matrices(np.array(angles)))
    assert np.abs(section.values(probe)).max() > 1e-3
    return section


def random_spinor(group, rng, two_j=2):
    alg = spinor_algebra(group)
    rep = spin_rep(group, two_j)
    const = Constant(Codomain.clifford(alg), rng.standard_normal(alg.n), group=group)
    f = MatrixCoefficient(rep, rng.standard_normal(rep.dim), rng.standard_normal(rep.dim))
    return assert_not_negligible(
        OrbitAverage(Scale(const, RealPart(f)), CliffordKRep(group, alg), group), group)


def test_constant_evaluation(sphere, rng):
    c = Constant(Codomain.scalar(), 2.5 + 1.0j, group=sphere)
    x = random_element(sphere, rng)
    assert value(c, x) == 2.5 + 1.0j
    assert deriv(c, x, sphere.random_algebra(rng)) == 0.0


def test_trivial_rep_coefficient_is_one(sphere, rng):
    rep = spin_rep(sphere, 0)
    f = MatrixCoefficient(rep, np.array([1.0]), np.array([1.0]))
    for _ in range(5):
        assert abs(value(f, random_element(sphere, rng)) - 1.0) < 1e-14


def test_fundamental_field_at_identity(sphere, rng):
    coords = sphere.random_algebra(rng)
    w = FundamentalField(sphere, coords)
    val = value(w, sphere.identity())
    assert np.linalg.norm(val + sphere.to_m(sphere.project_m(coords))) < 1e-14
    # isotropy generators vanish at the identity coset
    wk = FundamentalField(sphere, sphere.k_frame[0])
    assert np.linalg.norm(value(wk, sphere.identity())) < 1e-14


def test_fundamental_field_derivative_formula(sphere, rng):
    coords = sphere.random_algebra(rng)
    w = FundamentalField(sphere, coords)
    for _ in range(10):
        x = random_element(sphere, rng)
        y = sphere.random_algebra(rng)
        pulled = sphere.adjoint(x.inverse, coords)
        expect = sphere.to_m(sphere.bracket(y, pulled))
        assert np.linalg.norm(deriv(w, x, y) - expect) < 1e-13


def node_zoo(group, rng):
    """One differentiable section per node species."""
    rep = spin_rep(group, 2)
    alg = spinor_algebra(group)
    mc = MatrixCoefficient(rep, rng.standard_normal(3) + 1j * rng.standard_normal(3),
                           rng.standard_normal(3))
    ff = FundamentalField(group, group.random_algebra(rng))
    zoo = [
        mc,
        ff,
        Sum([mc, MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))],
            [0.7, -1.3]),
        Scale(ff, mc),
        CliffordProduct(alg, random_spinor(group, rng), random_spinor(group, rng, 4)),
        AInner(ff, FundamentalField(group, group.random_algebra(rng))),
        Translate(mc, random_element(group, rng)),
        OrbitAverage(mc, TrivialKRep(group), group),
        RealPart(mc),
    ]
    return zoo


def test_every_node_is_complete(sphere, rng):
    """Every node carries the five attributes of the one Section constructor, down to a
    matrix coefficient's row child, which has no derivative of its own."""
    import homogdirac
    from homogdirac import canonical_connection, frame_gram, hodge_dirac, projection_section
    from homogdirac.geometry import ApplyConnection
    from homogdirac.sections import Section, _Rows
    bundle, conn = tangent_bundle(sphere), canonical_connection(sphere)
    spinor = random_spinor(sphere, rng)
    roots = node_zoo(sphere, rng) + [
        projection_section(bundle), frame_gram(bundle), hodge_dirac(conn, spinor),
        ApplyConnection(conn, tangent_frame(sphere)[0], spinor)]
    seen, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        seen.add(type(node))
        for name in ("children", "codomain", "deriv_order", "bandwidth", "group"):
            assert hasattr(node, name), (type(node).__name__, name)
        assert isinstance(node.children, tuple) and node.group is sphere
        todo.extend(node.children)

    def species(cls):
        return {cls} | {s for sub in cls.__subclasses__() for s in species(sub)}
    assert seen >= {c for c in species(Section) - {Section}
                    if c.__module__.startswith(homogdirac.__name__)}
    rows = _Rows(spin_rep(sphere, 2), np.ones(3))
    pts = EvalPoints.of(sphere, [random_element(sphere, rng)])
    assert rows.codomain == Codomain.vector(3) and rows.values(pts).shape == (1, 3)
    with pytest.raises(DerivativeOrderError):
        rows.derivs(pts, sphere.random_algebra(rng)[None])


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_richardson_consistency_all_nodes(space, request, rng):
    group = request.getfixturevalue(space)
    for section in node_zoo(group, rng):
        for _ in range(5):
            x = random_element(group, rng)
            y = group.random_algebra(rng)
            exact = np.atleast_1d(deriv(section, x, y))
            e1 = np.linalg.norm(fd_deriv(group, section, x, y, 1e-4) - exact)
            e2 = np.linalg.norm(fd_deriv(group, section, x, y, 5e-5) - exact)
            scale = max(1.0, float(np.linalg.norm(exact)))
            if e1 < 1e-8 * scale:
                continue  # beneath the roundoff floor the ratio is noise
            assert abs(e1 / e2 - 4.0) < 0.5


def test_derivative_linearity_in_direction(sphere, rng):
    rep = spin_rep(sphere, 3)
    f = MatrixCoefficient(rep, rng.standard_normal(4), rng.standard_normal(4))
    x = random_element(sphere, rng)
    y1, y2 = sphere.random_algebra(rng), sphere.random_algebra(rng)
    lhs = deriv(f, x, 2.0 * y1 - 0.5 * y2)
    rhs = 2.0 * deriv(f, x, y1) - 0.5 * deriv(f, x, y2)
    assert abs(lhs - rhs) < 1e-12


def test_product_rule(full_group, rng):
    alg = spinor_algebra(full_group)
    a = random_spinor(full_group, rng)
    b = random_spinor(full_group, rng, 1)
    prod = CliffordProduct(alg, a, b)
    for _ in range(10):
        x = random_element(full_group, rng)
        y = full_group.random_algebra(rng)
        lhs = deriv(prod, x, y)
        rhs = alg.mul(deriv(a, x, y), value(b, x)) + alg.mul(value(a, x), deriv(b, x, y))
        assert np.abs(lhs - rhs).max() < 1e-10


def test_derivative_order_exhaustion(sphere, rng):
    from homogdirac import canonical_connection, tangent_frame
    from homogdirac.geometry import ApplyConnection
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    frame = tangent_frame(sphere)
    once = ApplyConnection(canonical_connection(sphere), frame[0], f)
    assert once.deriv_order == 0
    with pytest.raises(DerivativeOrderError):
        deriv(once, random_element(sphere, rng), sphere.random_algebra(rng))


def test_translate_by_identity(sphere, rng):
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    t = Translate(f, sphere.identity())
    x = random_element(sphere, rng)
    assert abs(value(t, x) - value(f, x)) < 1e-14


def test_translate_fundamental_field_covariance(sphere, rng):
    coords = sphere.random_algebra(rng)
    w = FundamentalField(sphere, coords)
    y = random_element(sphere, rng)
    moved = Translate(w, y)
    expect = FundamentalField(sphere, sphere.adjoint(y, coords))
    for _ in range(10):
        x = random_element(sphere, rng)
        assert np.linalg.norm(value(moved, x) - value(expect, x)) < 1e-12


def test_translate_module_covariance(sphere, rng):
    rep = spin_rep(sphere, 2)
    f = RealPart(OrbitAverage(MatrixCoefficient(
        rep, rng.standard_normal(3), rng.standard_normal(3)), TrivialKRep(sphere), sphere))
    w = FundamentalField(sphere, sphere.random_algebra(rng))
    y = random_element(sphere, rng)
    lhs = Translate(Scale(w, f), y)
    rhs = Scale(Translate(w, y), Translate(f, y))
    for _ in range(5):
        x = random_element(sphere, rng)
        assert np.linalg.norm(value(lhs, x) - value(rhs, x)) < 1e-13


def test_a_inner_properties(sphere, rng):
    x, y = sphere.random_algebra(rng), sphere.random_algebra(rng)
    wx, wy = FundamentalField(sphere, x), FundamentalField(sphere, y)
    inner = AInner(wx, wy)
    # value at the identity is the projected algebra pairing
    expect = np.dot(sphere.project_m(x), sphere.project_m(y))
    assert abs(value(inner, sphere.identity()) - expect) < 1e-13
    norm = AInner(wx, wx)
    for _ in range(10):
        assert value(norm, random_element(sphere, rng)).real >= 0.0


def test_a_inner_translation_invariance(sphere, rng):
    wx = FundamentalField(sphere, sphere.random_algebra(rng))
    wy = FundamentalField(sphere, sphere.random_algebra(rng))
    y = random_element(sphere, rng)
    lhs = Translate(AInner(wx, wy), y)
    rhs = AInner(Translate(wx, y), Translate(wy, y))
    for _ in range(5):
        x = random_element(sphere, rng)
        assert abs(value(lhs, x) - value(rhs, x)) < 1e-13


def test_a_inner_right_invariance_for_equivariant_inputs(sphere, rng):
    wx = FundamentalField(sphere, sphere.random_algebra(rng))
    wy = FundamentalField(sphere, sphere.random_algebra(rng))
    inner = AInner(wx, wy)
    for s in k_nodes(sphere)[::8]:
        for _ in range(3):
            x = random_element(sphere, rng)
            assert abs(value(inner, x @ s) - value(inner, x)) < 1e-10


def test_clifford_star_representation_pointwise(sphere, rng):
    alg = spinor_algebra(sphere)
    theta = random_spinor(sphere, rng)
    phi = random_spinor(sphere, rng, 4)
    psi = random_spinor(sphere, rng, 4)
    lhs = AInner(CliffordProduct(alg, theta, phi), psi)
    for _ in range(5):
        x = random_element(sphere, rng)
        tv = value(theta, x)
        lhs_v = alg.inner(alg.mul(tv, value(phi, x)), value(psi, x))
        rhs_v = alg.inner(value(phi, x), alg.mul(alg.star(tv), value(psi, x)))
        assert abs(lhs_v - rhs_v) < 1e-12
        assert abs(value(lhs, x) - lhs_v) < 1e-12


def test_l2_inner_normalization_and_positivity(sphere, rule8, rng):
    one = Constant(Codomain.scalar(), 1.0, group=sphere)
    assert abs(l2_inner(one, one, rule8) - 1.0) < 1e-13
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    assert l2_inner(f, f, rule8).real > 1e-3


def test_l2_inner_kills_lambda_derivatives(sphere, rule8, rng):
    one = Constant(Codomain.scalar(), 1.0, group=sphere)
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3) + 1j * rng.standard_normal(3),
                          rng.standard_normal(3))
    for _ in range(5):
        coords = sphere.random_algebra(rng)
        assert abs(l2_inner(one, lambda_deriv(f, coords), rule8)) < 1e-12


def test_l2_translation_invariance(sphere, rule8, rng):
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    h = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    base = l2_inner(f, h, rule8)
    for _ in range(3):
        y = random_element(sphere, rng)
        moved = l2_inner(Translate(f, y), Translate(h, y), rule8)
        assert abs(base - moved) < 1e-9


def test_l2_bandwidth_warning(sphere, rng):
    rule = sphere.haar_rule(2)
    rep = spin_rep(sphere, 4)
    f = MatrixCoefficient(rep, rng.standard_normal(5), rng.standard_normal(5))
    with pytest.warns(BandwidthWarning):
        l2_inner(f, f, rule)


def test_l2_inner_off_su2_emits_no_bandwidth_warning(rng):
    """Off SU(2) the adjoint spin is infinite, and only Monte Carlo rules exist to meet it."""
    from test_geometry import su3_circle

    group = su3_circle()
    rule = group.haar_rule(2)
    w = FundamentalField(group, group.random_algebra(rng))
    assert adjoint_rep(group).spin == np.inf and rule.kind == "monte-carlo"
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandwidthWarning)
        assert l2_inner(w, w, rule) > 0


def test_a_section_is_evaluated_only_on_its_own_group(sphere, full_group, rule8_full, rng):
    """Values, derivatives and pairings on another group's points raise, also between
    two SU(2) models: a section of one is not silently a function on the other."""
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(rep.dim), rng.standard_normal(rep.dim))
    other = EvalPoints.of(full_group, full_group.random_elements(rng, 4))
    match = "evaluated on a batch of group 'su2-trivial-k'"
    with pytest.raises(ValueError, match=match):
        f.values(other)
    with pytest.raises(ValueError, match=match):
        f.derivs(other, rng.standard_normal((4, 3)))
    with pytest.raises(ValueError, match=match):
        f.frame_derivs(other)
    one = Constant(Codomain.scalar(), 1.0, group=full_group)
    with pytest.raises(ValueError, match=match):
        l2_inner(one, f, rule8_full)
    with pytest.raises(ValueError, match=match):
        Sum([Scale(one, f)]).values(EvalPoints.for_rule(full_group, rule8_full))


def test_a_rule_keeps_one_batch_of_its_own_group(sphere, full_group, rng):
    """A rule records the group it was built for: its batch is built once and kept,
    and sections of another group raise, naming both, instead of rebuilding it."""
    rule, other = sphere.haar_rule(2), full_group.haar_rule(2)
    assert (rule.group, k_rule(sphere).group, other.group) == (sphere, sphere, full_group)
    f = MatrixCoefficient(spin_rep(sphere, 1), rng.standard_normal(2), rng.standard_normal(2))
    pts = EvalPoints.for_rule(sphere, rule)
    l2_inner(f, f, rule)
    assert rule.points is pts and EvalPoints.for_rule(sphere, rule) is pts
    alg = spinor_algebra(full_group)
    one = Constant(Codomain.clifford(alg), alg.unit(), group=full_group)
    match = "rule of group 'su2' used on group 'su2-trivial-k'"
    with pytest.raises(ValueError, match=match):
        l2_inner(one, one, rule)
    with pytest.raises(ValueError, match="rule of group 'su2-trivial-k' used on group 'su2'"):
        EvalPoints.for_rule(sphere, other)
    assert rule.points is pts and other.points is None


def test_equivariant_projection_idempotent(sphere, rng):
    alg = spinor_algebra(sphere)
    raw = Constant(Codomain.clifford(alg), rng.standard_normal(alg.n), group=sphere)
    krep = CliffordKRep(sphere, alg)
    once = OrbitAverage(raw, krep, sphere)
    twice = OrbitAverage(once, krep, sphere)
    for _ in range(5):
        x = random_element(sphere, rng)
        assert np.abs(value(once, x) - value(twice, x)).max() < 1e-12


def test_equivariant_projection_fixes_trivial_constants(sphere, rng):
    c = Constant(Codomain.scalar(), 1.5, group=sphere)
    proj = OrbitAverage(c, TrivialKRep(sphere), sphere)
    x = random_element(sphere, rng)
    assert abs(value(proj, x) - 1.5) < 1e-14


def test_equivariant_projection_satisfies_defining_condition(sphere, rng):
    alg = spinor_algebra(sphere)
    raw = Constant(Codomain.clifford(alg), rng.standard_normal(alg.n), group=sphere)
    krep = CliffordKRep(sphere, alg)
    proj = OrbitAverage(raw, krep, sphere)
    for s in k_nodes(sphere)[::6]:
        x = random_element(sphere, rng)
        assert equivariance_defect(proj, krep, x, s) < 1e-10


def test_delta_along_fundamental_equals_lambda(sphere, rng):
    rep = spin_rep(sphere, 2)
    f = RealPart(OrbitAverage(MatrixCoefficient(
        rep, rng.standard_normal(3), rng.standard_normal(3)), TrivialKRep(sphere), sphere))
    coords = sphere.random_algebra(rng)
    w = FundamentalField(sphere, coords)
    lam = lambda_deriv(f, coords)
    for _ in range(10):
        x = random_element(sphere, rng)
        delta = deriv(f, x, sphere.from_m(value(w, x).real))
        assert abs(delta - value(lam, x)) < 1e-12


def pointwise_operation(name, group, rng):
    """A section built by the named pointwise operation from differentiable factors."""
    alg = spinor_algebra(group)
    rep = spin_rep(group, 2)

    def coefficient(codomain=None):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if codomain is None:
            return MatrixCoefficient(rep, u, rng.standard_normal(3))
        shape = (3,) + codomain.shape
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return MatrixCoefficient(rep, u, v, codomain)

    def field():
        return FundamentalField(group, group.random_algebra(rng))

    build = {
        "Scale": lambda: Scale(field(), coefficient()),
        "CliffordProduct": lambda: CliffordProduct(
            alg, coefficient(Codomain.clifford(alg)), coefficient(Codomain.clifford(alg))),
        "AInner": lambda: AInner(field(), field()),
        "RankOne": lambda: RankOne(coefficient(Codomain.vector(3)),
                                   coefficient(Codomain.vector(3))),
        "OpApply": lambda: OpApply(RankOne(coefficient(Codomain.vector(2)),
                                           coefficient(Codomain.vector(2))),
                                   coefficient(Codomain.vector(2))),
        "RealPart": lambda: RealPart(coefficient()),
        "RealPart-clifford": lambda: RealPart(coefficient(Codomain.clifford(alg))),
        "EmbedTangent": lambda: EmbedTangent(alg, field()),
    }
    return build[name]()


@pytest.mark.parametrize("name", ["Scale", "CliffordProduct", "AInner", "RankOne", "OpApply",
                                  "RealPart", "RealPart-clifford", "EmbedTangent"])
def test_pointwise_operation_lambda_matches_translates(name, sphere, rng):
    """The shared left-derivative rule against a central difference of left translates.

    lambda_deriv(s, Y)(x) is the derivative of Translate(s, exp(tY))(x) = s(exp(-tY) x)
    at t = 0.
    """
    section = pointwise_operation(name, sphere, rng)
    assert isinstance(section, (Product, Pointwise))
    h = 1e-5
    for _ in range(3):
        x = random_element(sphere, rng)
        y = sphere.random_algebra(rng)
        exact = value(lambda_deriv(section, y), x)
        fd = (value(Translate(section, sphere.exp(y, h)), x)
              - value(Translate(section, sphere.exp(y, -h)), x)) / (2 * h)
        assert np.shape(exact) == np.shape(fd) == section.codomain.shape
        assert np.linalg.norm(exact) > 1e-3  # no case passes on a vanishing derivative
        assert np.linalg.norm(np.atleast_1d(exact - fd)) < 1e-8 * max(1.0, np.linalg.norm(exact))


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_orbit_batch_matches_per_node_translates(space, request, rng):
    """Subgroup averages, which evaluate the child on one orbit batch, against the per-node sum.

    The oracle evaluates the child once per subgroup node s on its own
    batch x s, with the directions pulled back by Ad_{s^{-1}}.
    """
    group = request.getfixturevalue(space)
    alg = spinor_algebra(group)
    rep = spin_rep(group, 2)
    mc = MatrixCoefficient(rep, rng.standard_normal(3) + 1j * rng.standard_normal(3),
                           rng.standard_normal(3))
    const = Constant(Codomain.clifford(alg), rng.standard_normal(alg.n), group=group)
    child = Sum([Scale(const, mc),
                 EmbedTangent(alg, FundamentalField(group, group.random_algebra(rng)))])
    krep = CliffordKRep(group, alg)
    avg = OrbitAverage(child, krep, group)
    pts = EvalPoints.of(group, group.random_elements(rng, 6))
    dirs = rng.standard_normal((6, group.dim)) + 1j * rng.standard_normal((6, group.dim))

    def apply(s, values):  # pi_s applied to each row of values
        return np.einsum("ij,...j->...i", krep_matrix(krep, s), values)

    want_vals, want_derivs = 0.0, 0.0
    for s, w in zip(k_nodes(group), k_rule(group).weights):
        shifted = EvalPoints(group, pts.matrices @ s.matrix)
        want_vals = want_vals + w * apply(s, child.values(shifted))
        pulled = dirs @ group.adjoint_matrix(s)
        want_derivs = want_derivs + w * apply(s, child.derivs(shifted, pulled))
    assert np.abs(avg.values(pts) - want_vals).max() < 1e-12
    assert np.abs(avg.derivs(pts, dirs) - want_derivs).max() < 1e-12

    # on an orbit batch, the product formula rho(x_i s_k) = rho(x_i) rho(s_k) at index k * n + i
    nodes = k_rule(group).matrices
    orbit = EvalPoints(group, (pts.matrices[None] @ nodes[:, None]).reshape(-1, 2, 2))
    for r in (rep, adjoint_rep(group)):
        stack = orbit.rep_stack(r).reshape(len(nodes), pts.n, r.dim, r.dim)
        assert np.abs(stack - pts.rep_stack(r)[None] @ r.matrix_stack(nodes)[:, None]).max() < 1e-12
    direct_ad = np.stack([group.adjoint_matrix(GroupElement(m)) for m in orbit.matrices])
    assert np.abs(orbit.rep_stack(adjoint_rep(group)) - direct_ad).max() < 1e-12


def test_clifford_action_rejects_an_algebra_of_another_size():
    """An algebra whose generators are not the tangent directions raises, naming both sizes,
    on a fresh group and once the group's action is built."""
    group = GroupModel.su2()
    for _ in range(2):
        with pytest.raises(ValueError, match="3 generators .* dimension 2"):
            CliffordKRep(group, CliffordAlgebra(3))
        assert CliffordKRep(group, spinor_algebra(group)).dim == 4


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_rule_stack_matches_single_element_path(space, request):
    """Each subgroup action's stack on the subgroup rule, node by node."""
    group = request.getfixturevalue(space)
    kreps = [TangentKRep(group), CliffordKRep(group, spinor_algebra(group))]
    if space == "sphere":
        kreps += [tangent_bundle(group).krep, monopole_bundle(group, 3).krep]
    for krep in kreps:
        stack = rule_stack(krep)
        assert stack.shape == (len(k_rule(group)), krep.dim, krep.dim)
        assert rule_stack(krep) is stack
        for k, s in enumerate(k_nodes(group)):
            assert np.abs(stack[k] - krep_matrix(krep, s)).max() < 1e-13
    mf = group.m_frame
    for k, s in enumerate(k_nodes(group)):
        want = mf @ group.adjoint_matrix(s) @ mf.T
        assert np.abs(rule_stack(kreps[0])[k] - want).max() < 1e-13


def test_element_caches_survive_object_recycling(sphere):
    """Short-lived representations evaluated at one element stay correct.

    Nothing caches values per group element: a representation computes
    its value at an element afresh, and the per-batch caches (representation
    stacks, node values) drop an entry by weakref callback when its key
    dies, so a recycled id from a garbage-collected representation can
    never serve stale values of the wrong dimension.
    """
    import gc
    x = k_nodes(sphere)[1]
    for two_j in (2, 1, 4, 1, 3, 2):
        rep = direct_sum(spin_rep(sphere, two_j))  # a new object each time
        m = rep.matrix_stack(x.matrix[None])[0]
        assert m.shape == (two_j + 1, two_j + 1)
        assert np.linalg.norm(m @ m.conj().T - np.eye(two_j + 1)) < 1e-12
        del rep, m
        gc.collect()


def test_shared_subgraph_caching(sphere, rng):
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    s1 = Scale(f, f)
    s2 = Sum([s1, f])
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 7))
    v1 = s2.values(pts)
    assert f in pts._vals  # shared child evaluated through the cache
    assert np.allclose(v1, f.values(pts) ** 2 + f.values(pts))


# -- matrix coefficients: fundamental fields and harmonic spinors -----------------


def _bracket_form_fundamental_field(group, coords, pts, dirs):
    """Values -m_frame Ad_x^T X and right derivatives m_frame [Y, Ad_x^T X]."""
    pulled = np.einsum("nba,b->na", group.adjoint_stack(pts.matrices), coords)
    vals = -pulled @ group.m_frame.T
    derivs = np.einsum("abc,na,nb->nc", group.structure, dirs, pulled) @ group.m_frame.T
    return vals, derivs


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_fundamental_field_matches_bracket_formulas(space, request, rng):
    """The adjoint coefficient equals the bracket formulas on a random batch and on its
    orbit, the batch x s for every subgroup-rule node s."""
    group = request.getfixturevalue(space)
    coords = group.random_algebra(rng)
    w = FundamentalField(group, coords)
    pts = EvalPoints.of(group, group.random_elements(rng, 7))
    orbit = EvalPoints(group, (pts.matrices[None] @ k_rule(group).matrices[:, None]).reshape(-1, 2, 2))
    for batch in (pts, orbit):
        dirs = (rng.standard_normal((batch.n, group.dim))
                + 1j * rng.standard_normal((batch.n, group.dim)))
        vals, derivs = _bracket_form_fundamental_field(group, coords, batch, dirs)
        assert np.abs(w.values(batch) - vals).max() < 1e-13
        assert np.abs(w.derivs(batch, dirs) - derivs).max() < 1e-13
    # the left derivative along Y is the field of [Y, X]
    y = group.random_algebra(rng)
    vals, _ = _bracket_form_fundamental_field(group, group.bracket(y, coords), pts, dirs[:7])
    lam = lambda_deriv(w, y)
    assert np.abs(lam.values(pts) - vals).max() < 1e-13
    assert w.bandwidth == lam.bandwidth == adjoint_rep(group).spin


def test_harmonic_spinor_matches_row_formulas(sphere, rng):
    """Values, derivatives and the left derivative of the former row-sum form."""
    alg = spinor_algebra(sphere)
    rep = spin_rep(sphere, 2)
    coeff = rng.standard_normal((rep.dim, alg.n)) + 1j * rng.standard_normal((rep.dim, alg.n))
    row = 1
    clifford = Codomain.clifford(alg)
    h = MatrixCoefficient(rep, np.eye(rep.dim)[row], coeff, clifford)
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 6))
    dirs = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    stack = pts.rep_stack(rep)
    d = np.einsum("na,aij->nij", dirs, rep.generators)
    assert np.abs(h.values(pts) - stack[:, row, :] @ coeff).max() < 1e-13
    want = np.einsum("nj,njr->nr", stack[:, row, :], d) @ coeff
    assert np.abs(h.derivs(pts, dirs) - want).max() < 1e-13

    y = sphere.random_algebra(rng)
    dy = rep.derivative(y)
    row_sum = Sum([MatrixCoefficient(rep, np.eye(rep.dim)[i], coeff, clifford)
                   for i in range(rep.dim)], -dy[row, :])
    lam = lambda_deriv(h, y)
    assert isinstance(lam, MatrixCoefficient)
    assert np.abs(lam.values(pts) - row_sum.values(pts)).max() < 1e-13
    assert np.abs(lam.derivs(pts, dirs) - row_sum.derivs(pts, dirs)).max() < 1e-13


def test_matrix_coefficient_columns_are_scalar_coefficients(sphere, rng):
    rep = spin_rep(sphere, 3)
    u = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    v = rng.standard_normal((rep.dim, 5)) + 1j * rng.standard_normal((rep.dim, 5))
    f = MatrixCoefficient(rep, u, v, Codomain.vector(5))
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 6))
    dirs = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    y = sphere.random_algebra(rng)
    vals, derivs = f.values(pts), f.derivs(pts, dirs)
    lam = lambda_deriv(f, y).values(pts)
    assert vals.shape == derivs.shape == lam.shape == (6, 5)
    for k in range(5):
        fk = MatrixCoefficient(rep, u, v[:, k])
        assert np.abs(vals[:, k] - fk.values(pts)).max() < 1e-13
        assert np.abs(derivs[:, k] - fk.derivs(pts, dirs)).max() < 1e-13
        assert np.abs(lam[:, k] - lambda_deriv(fk, y).values(pts)).max() < 1e-13
    with pytest.raises(ValueError):
        MatrixCoefficient(rep, u, v)
    with pytest.raises(ValueError):
        MatrixCoefficient(rep, u, v, Codomain.vector(4))


def test_tangent_sums_are_tangent_equivariant(sphere, rng):
    """The gradient of an invariant scalar and a sum of frame fields, under the tangent action."""
    rep = spin_rep(sphere, 2)
    f = RealPart(OrbitAverage(MatrixCoefficient(
        rep, rng.standard_normal(3), rng.standard_normal(3)), TrivialKRep(sphere), sphere))
    x = random_element(sphere, rng)
    for field in (gradient(sphere, f), Sum(tangent_frame(sphere)[:2])):
        for t in (0.7, 2.9):
            s = sphere.exp(sphere.k_frame[0], t)
            assert equivariance_defect(field, TangentKRep(sphere), x, s) <= 1e-12


def test_adjoint_stack_is_the_adjoint_representation_stack(sphere, rng):
    """Fundamental fields and the tangent bundle's frame share one stack per batch."""
    assert adjoint_rep(sphere) is adjoint_rep(sphere)
    assert TangentKRep(sphere) is TangentKRep(sphere)
    assert tangent_bundle(sphere).rep_tilde is adjoint_rep(sphere)
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 5))
    stack = pts.rep_stack(adjoint_rep(sphere))
    assert stack.dtype == float
    assert np.array_equal(stack, sphere.adjoint_stack(pts.matrices))


def space_group(space, request):
    """A conftest space, or SU(2) in a rotated basis (complex monopole fibers)."""
    if space == "rotated":
        from test_reps import rotated_su2
        return rotated_su2()
    return request.getfixturevalue(space)


def subgroup_actions(group):
    """(name, action, codomain) for each subgroup action a section can carry."""
    alg = spinor_algebra(group)
    actions = [("trivial", TrivialKRep(group), Codomain.scalar()),
               ("tangent", TangentKRep(group), Codomain.tangent(group)),
               ("clifford", CliffordKRep(group, alg), Codomain.clifford(alg)),
               ("restricted", tangent_bundle(group).krep, Codomain.vector(group.m_dim))]
    if group.k_dim == 1:
        actions.append(("monopole", monopole_bundle(group, 1).krep, Codomain.vector(1)))
    return actions


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_every_action_is_one_matrix_action_kept_on_its_group(space, request, rng):
    """The trivial, tangent, Clifford and bundle actions are each a MatrixKRep, the trivial one
    kept on its group; a basis member has dim(rho) dim(pi) entries, and the trivial action
    gives scalar values back bit for bit."""
    group = request.getfixturevalue(space)
    assert TrivialKRep(group) is TrivialKRep(group)
    for name, krep, _ in subgroup_actions(group):
        assert isinstance(krep, MatrixKRep), name
        for two_j in range(4):
            rep = spin_rep(group, two_j)
            assert krep.basis(rep).shape[1:] == (rep.dim * krep.dim,), (name, two_j)
    nodes = EvalPoints.for_rule(group, k_rule(group))
    vals = rng.standard_normal(nodes.n) + 1j * rng.standard_normal(nodes.n)
    assert np.array_equal(TrivialKRep(group).apply_inverse(nodes, vals), vals)


def _rule_average(group, rep, v, krep):
    """The subgroup rule's average of rho(s) v pi(s)^T: the quadrature oracle."""
    flat = v.reshape(rep.dim, -1)
    nodes = EvalPoints.for_rule(group, k_rule(group))
    return sum(w * r @ flat @ k.T for w, r, k in
               zip(k_rule(group).weights, nodes.rep_stack(rep), rule_stack(krep))).reshape(v.shape)


@pytest.mark.parametrize("space", ["sphere", "full_group", "rotated"])
def test_invariant_is_the_rule_average_and_idempotent(space, request, rng):
    group = space_group(space, request)
    for name, krep, codomain in subgroup_actions(group):
        for two_j in range(5):
            rep = spin_rep(group, two_j)
            shape = (rep.dim,) + codomain.shape
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            proj = krep.invariant(rep, v)
            assert proj.shape == v.shape
            assert np.abs(proj - _rule_average(group, rep, v, krep)).max() < 1e-13, (name, two_j)
            assert np.abs(krep.invariant(rep, proj) - proj).max() < 1e-13, (name, two_j)


def _svd_invariant_basis(rep, gens):
    """The null space of the whole stacked operator by one SVD, at (dk)^3 cost: the oracle."""
    d, k = rep.dim, gens.shape[-1]
    drho = np.array([rep.derivative(z) for z in rep.group.k_frame]).reshape(-1, d, d)
    # kron(drho, 1) + kron(1, dpi), as vec(A V B) = kron(A, B^T) vec(V), entrywise
    op = (drho[:, :, None, :, None] * np.eye(k)[:, None]
          + np.eye(d)[:, None, :, None] * gens[:, None, :, None])
    _, sv, vh = np.linalg.svd(op.reshape(-1, d * k))
    rank = int(np.sum(sv > _RANK_RTOL * sv.max(initial=0.0)))
    return vh[rank:].conj()


def _generator_cases(group):
    """(name, dpi stack) for the trivial, tangent and Clifford actions, the last per grade too."""
    alg = spinor_algebra(group)
    clifford = CliffordKRep(group, alg).generators
    cases = [("trivial", np.zeros((group.k_dim, 1, 1))),
             ("tangent", TangentKRep(group).generators), ("clifford", clifford)]
    for grade in range(alg.p + 1):
        keep = alg.grades == grade
        cases.append((f"clifford-grade-{grade}", clifford[:, keep][:, :, keep]))
    return cases


def _assert_same_invariant_space(rep, gens, label):
    ours, oracle = invariant_basis(rep, gens), _svd_invariant_basis(rep, gens)
    assert ours.shape == oracle.shape, label
    assert np.abs(ours.conj() @ ours.T - np.eye(len(ours))).max(initial=0.0) < 1e-13, label
    assert np.abs(ours.T @ ours.conj() - oracle.T @ oracle.conj()).max(initial=0.0) < 1e-13, label


@pytest.mark.parametrize("space", ["sphere", "full_group", "rotated", "reordered"])
def test_invariant_basis_matches_the_svd_route(space, request):
    """Weight pairs from one eigendecomposition span the SVD null space: equal dimensions and
    projectors B^T conj(B) for every action on spin 0 to 20."""
    if space == "reordered":  # the circle along the first declared basis axis
        group = GroupModel("reordered", _su2_raw_basis()[[2, 0, 1]], subgroup_indices=(0,))
    else:
        group = space_group(space, request)
    for name, gens in _generator_cases(group):
        for two_j in range(41):
            _assert_same_invariant_space(spin_rep(group, two_j), gens, (space, name, two_j))


def test_invariant_basis_matches_the_svd_route_on_a_three_dimensional_subgroup():
    """SU(2) x SU(2) / diagonal SU(2): two more generators cut the first one's fixed span down
    by a restricted SVD."""
    raw = _su2_raw_basis()
    zero = np.zeros((2, 2))
    basis = ([np.block([[x, zero], [zero, x]]) for x in raw]
             + [np.block([[x, zero], [zero, -x]]) for x in raw])
    group = GroupModel("su2xsu2", basis, subgroup_indices=(0, 1, 2))
    rep = adjoint_rep(group)
    for name, gens in _generator_cases(group):
        _assert_same_invariant_space(rep, gens, name)
    # the algebra is two copies of the diagonal's spin 1 and holds no invariant vector
    assert len(invariant_basis(rep, TangentKRep(group).generators)) == 2
    assert len(invariant_basis(rep, np.zeros((3, 1, 1)))) == 0


def test_graded_bases_stay_pure_on_a_three_dimensional_subgroup():
    """SU(2) x SU(2) / diagonal SU(2): each member of the Clifford action's basis vanishes off
    one grade, the grade isotypic_coefficients labels it with, and the members still span
    the whole fixed space."""
    raw = _su2_raw_basis()
    zero = np.zeros((2, 2))
    basis = ([np.block([[x, zero], [zero, x]]) for x in raw]
             + [np.block([[x, zero], [zero, -x]]) for x in raw])
    group = GroupModel("su2xsu2", basis, subgroup_indices=(0, 1, 2))
    alg = spinor_algebra(group)
    krep = CliffordKRep(group, alg)
    trivial = UnitaryRep(group, np.zeros((group.dim, 1, 1)), "trivial", 0.0,
                         lambda m: np.ones((len(m), 1, 1)))
    for rep, want in ((adjoint_rep(group), [1, 1, 2, 2]), (trivial, [0, 3])):
        ours = krep.basis(rep)
        oracle = invariant_basis(rep, krep.generators)  # ungraded
        assert np.abs(ours.T @ ours.conj() - oracle.T @ oracle.conj()).max() < 1e-13, rep.name
        coeffs = isotypic_coefficients(rep)
        assert [grade for grade, _ in coeffs] == want, rep.name
        for grade, c in coeffs:
            assert np.abs(c[:, alg.grades != grade]).max() == 0.0, (rep.name, grade)


@pytest.mark.parametrize("space", ["sphere", "full_group", "rotated"])
def test_projected_coefficients_match_the_subgroup_average(space, request, rng):
    """u* rho(x) P(v) against OrbitAverage of u* rho(x) v, the quadrature oracle.

    For the real actions the real part commutes with the average too.
    """
    group = space_group(space, request)
    pts = EvalPoints.of(group, group.random_elements(rng, 6))
    dirs = rng.standard_normal((6, group.dim)) + 1j * rng.standard_normal((6, group.dim))
    y = group.random_algebra(rng)
    for name, krep, codomain in subgroup_actions(group):
        for two_j in range(4):
            rep = spin_rep(group, two_j)
            shape = (rep.dim,) + codomain.shape
            u = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            child = MatrixCoefficient(rep, u, v, codomain)
            pairs = [(MatrixCoefficient(rep, u, krep.invariant(rep, v), codomain),
                      OrbitAverage(child, krep, group))]
            if name in ("trivial", "tangent", "clifford"):
                pairs.append((RealPart(pairs[0][0]), OrbitAverage(RealPart(child), krep, group)))
            for ours, oracle in pairs:
                for a, b in [(ours.values(pts), oracle.values(pts)),
                             (ours.derivs(pts, dirs), oracle.derivs(pts, dirs)),
                             (ours.frame_derivs(pts), oracle.frame_derivs(pts)),
                             (lambda_deriv(ours, y).values(pts),
                              lambda_deriv(oracle, y).values(pts))]:
                    assert np.abs(a - b).max() < 1e-13, (name, two_j)


def _former_constructors(ctx, bundle):
    """The subgroup-averaged sections verify drew before the projector, kept as the oracle."""
    g, alg, rng = ctx.group, ctx.algebra, ctx.rng

    def scalar():
        rep = spin_rep(g, 2)
        f = MatrixCoefficient(rep, rng.standard_normal(rep.dim), rng.standard_normal(rep.dim))
        return RealPart(OrbitAverage(f, TrivialKRep(g), g))

    def spinor(max_two_j=2):
        parts = []
        for first in (True, False):
            c = Constant(Codomain.clifford(alg), rng.standard_normal(alg.n), group=g)
            two_j = (2 * int(rng.integers(1, max_two_j // 2 + 1)) if first
                     else int(rng.integers(0, max_two_j + 1)))
            if two_j:
                rep = spin_rep(g, two_j)
                c = Scale(c, RealPart(MatrixCoefficient(
                    rep, rng.standard_normal(rep.dim), rng.standard_normal(rep.dim))))
            parts.append(c)
        return OrbitAverage(Sum(parts), CliffordKRep(g, alg), g)

    def section():
        parts = []
        for _ in range(2):
            vec = rng.standard_normal(bundle.fiber_dim) + 1j * rng.standard_normal(bundle.fiber_dim)
            const = Constant(bundle.codomain(), vec, group=g)
            two_j = int(2 * bundle.section_reps[int(rng.integers(0, 3))].spin)
            if two_j == 0:
                parts.append(const)
                continue
            rep = spin_rep(g, two_j)
            u = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
            v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
            parts.append(Scale(const, MatrixCoefficient(rep, u, v)))
        return OrbitAverage(Sum(parts), bundle.krep, g)

    return scalar, spinor, section


@pytest.mark.parametrize("subgroup, bundle", [("u1", "clifford"), ("u1", "monopole"),
                                              ("trivial", "clifford")])
def test_verify_sections_are_the_former_subgroup_averages(subgroup, bundle):
    """Same generator state, same draws: each projected section equals the former average."""
    from homogdirac import checks, random_equivariant_section
    from homogdirac.cli import RunConfig
    cfg = RunConfig(subgroup=subgroup, bundle=bundle, sample_count=8, seed=3)
    ctx = checks._Context(cfg, cfg.make_group(), np.random.default_rng(3))
    scalar, spinor, section = _former_constructors(ctx, ctx.bundle)
    dirs = ctx.rng.standard_normal((ctx.pts.n, ctx.group.dim))
    for ours, former in [(ctx.scalar_section, scalar), (ctx.spinor, spinor),
                         (lambda: random_equivariant_section(ctx.bundle, ctx.rng), section)]:
        for _ in range(4):
            state = ctx.rng.bit_generator.state
            a = ours()
            ctx.rng.bit_generator.state = state
            b = former()
            assert np.abs(a.values(ctx.pts) - b.values(ctx.pts)).max() < 1e-13
            assert np.abs(a.derivs(ctx.pts, dirs) - b.derivs(ctx.pts, dirs)).max() < 1e-13
            ctx._scalar = None



def test_real_part_is_equivariant_under_a_real_action_only(sphere, rng):
    """Re commutes with a real subgroup action, not with the monopole's complex one."""
    alg = spinor_algebra(sphere)
    x, s = random_element(sphere, rng), k_nodes(sphere)[5]
    cases = [(TangentKRep(sphere), Codomain.tangent(sphere), 2, True),
             (CliffordKRep(sphere, alg), Codomain.clifford(alg), 2, True),
             (tangent_bundle(sphere).krep, Codomain.vector(2), 2, True),
             (monopole_bundle(sphere, 1).krep, Codomain.vector(1), 1, False)]
    for krep, codomain, two_j, real in cases:
        rep = spin_rep(sphere, two_j)
        shape = (rep.dim,) + codomain.shape
        u = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        v = krep.invariant(rep, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        defect = equivariance_defect(RealPart(MatrixCoefficient(rep, u, v, codomain)), krep, x, s)
        assert defect < 1e-12 if real else defect > 1e-3


def test_constant_values_are_read_only_views_of_the_constant(full_group, rule8_full, rng):
    """On the 1,445-node rule batch a constant holds no per-point copy: its values and its
    zero derivatives are stride-0, read-only views."""
    alg = spinor_algebra(full_group)
    pts = EvalPoints.for_rule(full_group, rule8_full)
    assert pts.n == 1445
    c = Constant(Codomain.clifford(alg), rng.standard_normal(alg.n), group=full_group)
    vals = c.values(pts)
    assert vals.shape == (pts.n, alg.n) and np.shares_memory(vals, c.const)
    derivs = c.derivs(pts, rng.standard_normal((pts.n, full_group.dim)))
    assert derivs.shape == vals.shape and not derivs.any()
    for view in (vals, derivs):
        assert view.strides[0] == 0 and not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


def _copied(section, pts):
    """A constant's values as the per-point copy the product rule once read."""
    return np.broadcast_to(section.const, (pts.n,) + section.codomain.shape).copy()


def _full_rule(node, pts, dirs):
    """The derivative with every term present, a constant's as explicit zeros."""
    def parts(child):
        if isinstance(child, Constant):
            return _copied(child, pts), np.zeros((pts.n,) + child.codomain.shape, dtype=complex)
        return child.values(pts), child.derivs(pts, dirs)
    if isinstance(node, Sum):
        out = node.coeffs[0] * parts(node.children[0])[1]
        for c, child in zip(node.coeffs[1:], node.children[1:]):
            out = out + c * parts(child)[1]
        return out
    (a, da), (b, db) = map(parts, node.children)
    return node.mul(da, b) + node.mul(a, db)


def test_constants_add_no_derivative_term(sphere, rng, monkeypatch):
    """With a constant factor or summand the derivative is the full product (or sum) rule
    with its zero terms written out, exactly, and no constant's derivative is evaluated."""
    alg = spinor_algebra(sphere)
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 30))
    dirs = rng.standard_normal((pts.n, sphere.dim))
    rep = spin_rep(sphere, 2)
    spinor = MatrixCoefficient(rep, rng.standard_normal(3) + 1j * rng.standard_normal(3),
                               rng.standard_normal((3, alg.n)), Codomain.clifford(alg))
    scalar = RealPart(MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3)))
    c = Constant(Codomain.clifford(alg), rng.standard_normal(alg.n) + 1j, group=sphere)
    k = Constant(Codomain.scalar(), 2.5 - 0.5j, group=sphere)
    nodes = [Scale(c, scalar), Scale(spinor, k),
             CliffordProduct(alg, c, spinor), CliffordProduct(alg, spinor, c),
             Sum([c, spinor, c], [1.5j, -2.0, 0.25]), Sum([spinor, c]),
             Scale(c, k), Sum([c, c])]  # the all-constant nodes last
    wants = [_full_rule(node, pts, dirs) for node in nodes]

    def refuse(self, pts, dirs):
        raise AssertionError("a constant's derivative was evaluated")
    monkeypatch.setattr(Constant, "_derivs", refuse)
    for node, want in zip(nodes, wants):
        if all(isinstance(ch, Constant) for ch in node.children):
            monkeypatch.undo()
        else:
            assert np.abs(want).max() > 0.1
        assert np.array_equal(node.derivs(pts, dirs), want)


def test_retained_bytes_count_each_base_buffer_once(sphere, rng):
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 50))
    assert pts.retained_bytes() == 0
    alg = spinor_algebra(sphere)
    c = Constant(Codomain.clifford(alg), rng.standard_normal(alg.n), group=sphere)
    c.values(pts)
    assert pts.retained_bytes() == c.const.nbytes  # the view counts as its base
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    rows = f.children[0].values(pts)  # u* rho(x), cached for the values and every derivative
    held = c.const.nbytes + f.values(pts).nbytes + pts.rep_stack(rep).nbytes + rows.nbytes
    assert pts.retained_bytes() == held
    jac = f.frame_derivs(pts)
    assert pts.retained_bytes() == held + jac.nbytes
    # a subgroup average adds its own values: its orbit batch and the child's values there are gone
    avg = OrbitAverage(Scale(f, f), TrivialKRep(sphere), sphere)
    held += avg.values(pts).nbytes
    assert pts.retained_bytes() == held + jac.nbytes


def test_trivial_subgroup_orbit_is_the_batch_itself(full_group, rule8_full, rng, monkeypatch):
    """The trivial subgroup's rule is the identity, and x I = x exactly: a subgroup average
    evaluates its child on the caller's batch, builds no batch of its own, also after a first
    use elsewhere, and its values are the child's bits."""
    pts = EvalPoints.for_rule(full_group, rule8_full)
    (node,) = k_nodes(full_group)
    assert np.array_equal(pts.matrices @ node.matrix, pts.matrices)
    alg = spinor_algebra(full_group)
    child = random_spinor(full_group, rng).children[0]
    avg = KAverage(child, CliffordKRep(full_group, alg), full_group)
    KAverage(child, CliffordKRep(full_group, alg), full_group).frame_derivs(  # a first use
        EvalPoints.of(full_group, full_group.random_elements(rng, 2)))
    init = EvalPoints.__init__
    built = []
    monkeypatch.setattr(EvalPoints, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    assert np.array_equal(avg.values(pts), child.values(pts))
    assert np.array_equal(avg.frame_derivs(pts), child.frame_derivs(pts))
    assert not built


def test_trivial_subgroup_average_is_its_child(rng, monkeypatch):
    """On the trivial subgroup a subgroup average returns its child's values and derivatives,
    per point and along a shared direction, bit for bit the rule average it replaces (pi_e v
    weighted by 1 at the rule's one node, directions pulled back by Ad_e), and builds no batch."""
    group = GroupModel.su2_trivial_k()  # fresh, so no earlier use built either
    alg = spinor_algebra(group)
    krep = CliffordKRep(group, alg)
    child = random_spinor(group, rng).children[0]
    avg = KAverage(child, krep, group)
    pts = EvalPoints.of(group, group.random_elements(rng, 7))
    dirs = rng.standard_normal((pts.n, group.dim)) + 1j * rng.standard_normal((pts.n, group.dim))
    init = EvalPoints.__init__
    built = []
    monkeypatch.setattr(EvalPoints, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    got = [avg.values(pts), avg.derivs(pts, dirs), avg.derivs(pts, dirs[:1])]
    assert not built
    monkeypatch.undo()

    rule = k_rule(group)
    nodes = EvalPoints.for_rule(group, rule)
    stack = krep.stack(nodes)

    def average(vals):  # the rule average over the orbit batch, which here is pts itself
        vals = vals.reshape((len(rule), -1) + vals.shape[1:]) @ stack.transpose(0, 2, 1)
        return np.tensordot(rule.weights, vals, axes=1)

    want = [average(child.values(pts))]
    for d in (dirs, dirs[:1]):
        want.append(average(child.derivs(pts, (d @ nodes.rep_stack(adjoint_rep(group))).reshape(-1, group.dim))))
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    assert got[0] is child.values(pts)


def test_trivial_subgroup_average_returns_its_child(rng):
    child = random_spinor(GroupModel.su2_trivial_k(), rng).children[0]
    krep = CliffordKRep(child.group, spinor_algebra(child.group))
    assert KAverage(child, krep, child.group) is child


def test_subgroup_average_over_a_circle_names_the_projector(sphere, rng):
    """KAverage averages over the trivial subgroup only: over su2/u1 it raises ValueError
    naming MatrixKRep.invariant, the closed-form projector."""
    child = random_spinor(sphere, rng).children[0]
    with pytest.raises(ValueError, match="MatrixKRep.invariant"):
        KAverage(child, CliffordKRep(sphere, spinor_algebra(sphere)), sphere)


def test_coefficient_rows_are_computed_once_per_batch(sphere, rng, monkeypatch):
    """A matrix coefficient's rows u* rho(x) are a cached node value: its values and full frame
    Jacobian compute them once per batch, not 1 + m_dim times, with the same bits."""
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3) + 1j * rng.standard_normal(3),
                          rng.standard_normal((3, 4)), Codomain.vector(4))
    rows_node = f.children[0]
    calls = []
    compute = type(rows_node)._values
    monkeypatch.setattr(type(rows_node), "_values",
                        lambda self, pts: calls.append(pts) or compute(self, pts))
    batches = [EvalPoints.of(sphere, sphere.random_elements(rng, 6)) for _ in range(2)]
    for pts in batches:
        vals, jac = f.values(pts), f.frame_derivs(pts)
        rows = f.u.conj() @ pts.rep_stack(rep)
        assert np.array_equal(vals, rows @ f.v)
        for b, y in enumerate(sphere.m_frame):
            assert np.array_equal(jac[b], rows @ (rep.derivative(y) @ f.v))
    assert [id(pts) for pts in calls] == [id(pts) for pts in batches]


def _shared_direction_zoo(group, rng):
    """(name, section) for each node type a frame Jacobian walks through."""
    rep = spin_rep(group, 2)
    alg = spinor_algebra(group)
    vec = MatrixCoefficient(rep, rng.standard_normal(3) + 1j * rng.standard_normal(3),
                            rng.standard_normal(3))
    mat = MatrixCoefficient(rep, np.eye(3)[1], rng.standard_normal((3, alg.n)),
                            Codomain.clifford(alg))
    spinor = random_spinor(group, rng)
    frame = tangent_bundle(group).frame
    return [
        ("MatrixCoefficient-vector", vec),
        ("MatrixCoefficient-matrix", mat),
        ("OrbitAverage", spinor),
        ("ConjugatedProjection", ConjugatedProjection(rep, rng.standard_normal((3, 3)))),
        ("frame", frame[0]),
        ("GramSection", GramSection(frame)),
        ("Translate", Translate(mat, random_element(group, rng))),
        ("Sum", Sum([vec, RealPart(vec)], [0.5, 2.0])),
        ("Product", CliffordProduct(alg, mat, spinor)),
        ("Pointwise", RealPart(vec)),
    ]


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_a_shared_direction_is_every_point_s_direction(space, request, rng):
    """derivs(pts, y[None]) equals derivs with y copied to every point, for each node type;
    the frame Jacobian, which asks for each frame row shared, equals the per-point loop."""
    group = request.getfixturevalue(space)
    pts = EvalPoints.of(group, group.random_elements(rng, 9))
    for name, section in _shared_direction_zoo(group, rng):
        for y in [group.random_algebra(rng), *group.m_frame]:
            shared = section.derivs(pts, y[None])
            copied = section.derivs(pts, np.broadcast_to(y, (pts.n, y.size)))
            assert shared.shape == copied.shape == (pts.n,) + section.codomain.shape, name
            assert np.abs(shared - copied).max() <= 1e-15 * max(1.0, np.abs(copied).max()), name
        loop = np.stack([section.derivs(pts, np.broadcast_to(y, (pts.n, y.size)))
                         for y in group.m_frame])
        jac = section.frame_derivs(pts)
        assert np.abs(jac - loop).max() <= 1e-15 * max(1.0, np.abs(loop).max()), name
