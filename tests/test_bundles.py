import numpy as np
import pytest

from homogdirac import (
    GroupElement,
    AInner,
    EvalPoints,
    FundamentalField,
    InducedBundle,
    OpApply,
    RankOne,
    Scale,
    Sum,
    UnitaryRep,
    adjoint_rep,
    equivariance_defect,
    frame_gram,
    lambda_deriv,
    module_map_values,
    monopole_bundle,
    projection_section,
    random_equivariant_section,
    spin_rep,
    tangent_bundle,
)
import oracles
from oracles import direct_sum, k_nodes, k_rule, scaled_su2


def conjugation_intertwiner(two_j: int) -> np.ndarray:
    """Matrix C with conj(rho(x)) = C rho(x) C^{-1} for the spin basis."""
    n = two_j + 1
    c = np.zeros((n, n))
    for a in range(n):
        c[n - 1 - a, a] = (-1.0) ** a
    return c


@pytest.fixture(scope="module")
def sample_pts(sphere):
    rng = np.random.default_rng(77)
    return EvalPoints.of(sphere, sphere.random_elements(rng, 30))


def test_minimal_level_defaults(sphere):
    b = monopole_bundle(sphere, 3)
    assert b.ambient_dim == 4 and b.fiber_dim == 1
    with pytest.raises(ValueError, match="does not occur"):
        monopole_bundle(sphere, 1, 2)  # parity mismatch
    with pytest.raises(ValueError, match="does not occur"):
        monopole_bundle(sphere, 3, 1)  # weight out of range


@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_catalog_monopole_fiber_is_the_weight_basis_vector(scale):
    """On the catalog the isotropy generator is diagonal: the fiber is e_idx exactly."""
    group = scaled_su2(scale)
    for two_level in range(9):
        for charge in range(-two_level, two_level + 1, 2):
            b = monopole_bundle(group, charge, two_level)
            idx = (two_level - charge) // 2
            assert np.array_equal(b.embed, np.eye(two_level + 1, dtype=complex)[:, [idx]])


def test_trivial_bundle_projection_is_identity(sphere, sample_pts):
    b = monopole_bundle(sphere, 0, 0)
    pv = projection_section(b).values(sample_pts)
    assert np.abs(pv - 1.0).max() < 1e-14


def test_trivial_ambient_frame_is_constant_basis(sphere, sample_pts):
    rep = spin_rep(sphere, 0)
    b = InducedBundle(sphere, rep, np.eye(1, dtype=complex))
    (eta,) = b.frame
    assert np.abs(eta.values(sample_pts) - 1.0).max() < 1e-13


def test_full_fiber_gram_is_constant_identity(full_group, rng):
    """Fiber equal to the ambient space: free module, identity Gram."""
    rep = spin_rep(full_group, 2)
    b = InducedBundle(full_group, rep, np.eye(3, dtype=complex))
    pts = EvalPoints.of(full_group, full_group.random_elements(rng, 10))
    gv = frame_gram(b).values(pts)
    assert np.abs(gv - np.eye(3)).max() < 1e-13


@pytest.mark.parametrize("charge,two_level", [(1, 1), (-1, 1), (2, 2), (0, 2), (1, 3), (4, 4)])
def test_monopole_bundles(sphere, sample_pts, charge, two_level, rng):
    b = monopole_bundle(sphere, charge, two_level)
    frame = b.frame

    for eta in frame:
        for s in k_nodes(sphere)[::8]:
            assert equivariance_defect(eta, b.krep, GroupElement(sample_pts.matrices[0]), s) < 1e-10

    xi = random_equivariant_section(b, rng)
    recon = Sum([Scale(eta, AInner(eta, xi)) for eta in frame])
    assert np.abs(recon.values(sample_pts) - xi.values(sample_pts)).max() < 1e-10

    pv = projection_section(b).values(sample_pts)
    assert np.abs(np.einsum("nij,njk->nik", pv, pv) - pv).max() < 1e-11
    assert np.abs(pv - np.conj(np.transpose(pv, (0, 2, 1)))).max() < 1e-12
    assert np.abs(np.einsum("nii->n", pv) - b.fiber_dim).max() < 1e-12

    # the frame Gram matrix is that projection, pointwise
    gv = frame_gram(b).values(sample_pts)
    assert np.abs(gv - pv).max() < 1e-11
    # rank equals the fiber dimension, with a clean singular gap
    svals = np.linalg.svd(gv, compute_uv=False)
    assert np.all(svals[:, :b.fiber_dim] > 0.5)
    if b.fiber_dim < b.ambient_dim:
        assert np.all(svals[:, b.fiber_dim:] < 0.5)

    mm = module_map_values(b, xi, sample_pts)
    assert np.abs(np.einsum("nij,nj->ni", pv, mm) - mm).max() < 1e-10


def test_projection_is_right_invariant(sphere, rng):
    b = monopole_bundle(sphere, 1, 1)
    p = projection_section(b)
    xs = sphere.random_elements(rng, 5)
    s = k_nodes(sphere)[3]
    lhs = p.values(EvalPoints.of(sphere, [x @ s for x in xs]))
    rhs = p.values(EvalPoints.of(sphere, xs))
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("charge,two_level", [(1, 1), (2, 2)])
def test_opposite_charges_conjugate(sphere, sample_pts, charge, two_level):
    bp = monopole_bundle(sphere, charge, two_level)
    bm = monopole_bundle(sphere, -charge, two_level)
    c = conjugation_intertwiner(two_level)
    pv = projection_section(bp).values(sample_pts)
    mv = projection_section(bm).values(sample_pts)
    moved = np.einsum("ij,njk,kl->nil", c, mv, np.linalg.inv(c))
    assert np.abs(np.conj(pv) - moved).max() < 1e-12


def test_frame_members_can_vanish_identically(sphere, sample_pts, rng):
    """A fiber inside a reducible ambient: sections from the other summand vanish."""
    amb = direct_sum(spin_rep(sphere, 0), spin_rep(sphere, 2))
    embed = np.zeros((4, 1), dtype=complex)
    embed[0, 0] = 1.0
    b = InducedBundle(sphere, amb, embed)
    frame = b.frame
    norms = [np.abs(eta.values(sample_pts)).max() for eta in frame]
    assert norms[0] > 0.9
    assert max(norms[1:]) < 1e-14
    xi = random_equivariant_section(b, rng)
    recon = Sum([Scale(eta, AInner(eta, xi)) for eta in frame])
    assert np.abs(recon.values(sample_pts) - xi.values(sample_pts)).max() < 1e-10


def test_rank_one_endomorphism(sphere, sample_pts, rng):
    from homogdirac import Codomain, Constant
    b = monopole_bundle(sphere, 2, 4)
    zeta = random_equivariant_section(b, rng)
    eta = random_equivariant_section(b, rng)
    xi = random_equivariant_section(b, rng)
    t = RankOne(zeta, eta)
    # zero second factor gives the zero endomorphism
    zero_scalar = Constant(Codomain.scalar(), 0.0, group=sphere)
    zero = RankOne(zeta, Scale(eta, zero_scalar))
    assert np.abs(zero.values(sample_pts)).max() == 0.0
    lhs = OpApply(t, xi).values(sample_pts)
    rhs = Scale(zeta, AInner(eta, xi)).values(sample_pts)
    assert np.abs(lhs - rhs).max() < 1e-12
    s = k_nodes(sphere)[5]
    action = oracles.OperatorKRep(b.krep)
    assert equivariance_defect(t, action, GroupElement(sample_pts.matrices[0]), s) < 1e-10


def test_rank_one_reconstruction(sphere, sample_pts, rng):
    b = monopole_bundle(sphere, 1, 3)
    frame = b.frame
    for _ in range(5):
        t = RankOne(random_equivariant_section(b, rng),
                          random_equivariant_section(b, rng))
        recon = Sum([RankOne(OpApply(t, fj), fj) for fj in frame])
        assert np.abs(recon.values(sample_pts) - t.values(sample_pts)).max() < 1e-10


def test_tangent_bundle_through_generic_machinery(sphere, sample_pts, rng):
    b = tangent_bundle(sphere)
    assert b.fiber_dim == sphere.m_dim
    xi = random_equivariant_section(b, rng)
    frame = b.frame
    recon = Sum([Scale(eta, AInner(eta, xi)) for eta in frame])
    assert np.abs(recon.values(sample_pts) - xi.values(sample_pts)).max() < 1e-10
    pv = projection_section(b).values(sample_pts)
    assert np.abs(np.einsum("nij,njk->nik", pv, pv) - pv).max() < 1e-12


_BUNDLES = {"tangent": tangent_bundle, **{
    f"monopole{q:+d}": (lambda g, q=q: monopole_bundle(g, q)) for q in (1, -1, 2, -2)}}


@pytest.mark.parametrize("name, spins", [
    ("tangent", [2, 4, 6]), ("monopole+1", [1, 3, 5]), ("monopole-1", [1, 3, 5]),
    ("monopole+2", [2, 4, 6]), ("monopole-2", [2, 4, 6])])
def test_section_spins_are_those_with_invariant_coefficients(sphere, full_group, name, spins):
    """The fiber weight fixes the parity and the least spin; a trivial subgroup takes all."""
    assert [2 * rep.spin for rep in _BUNDLES[name](sphere).section_reps] == spins
    assert [2 * rep.spin for rep in tangent_bundle(full_group).section_reps] == [0, 1, 2]


@pytest.mark.parametrize("name", _BUNDLES)
def test_random_equivariant_sections_do_not_vanish(sphere, sample_pts, name):
    """A spin with no invariant coefficients in the fiber would give an identically zero term."""
    b = _BUNDLES[name](sphere)
    for seed in range(5, 13):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            xi = random_equivariant_section(b, rng)
            assert np.abs(xi.values(sample_pts)).max() > 1e-3


def test_bundles_and_rules_compare_by_identity(sphere):
    """Equality is identity, so comparing never touches the arrays and both classes hash."""
    bundle, other = tangent_bundle(sphere), tangent_bundle(sphere)
    assert bundle == bundle
    assert not (bundle == other)
    rule = sphere.haar_rule(2)
    assert len({bundle, other, rule, rule}) == 3


def test_embedding_must_be_isometric(sphere):
    rep = spin_rep(sphere, 2)
    bad = np.zeros((3, 1), dtype=complex)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError, match="isometry"):
        InducedBundle(sphere, rep, bad)


def test_fiber_must_be_invariant(sphere):
    rep = spin_rep(sphere, 2)
    bad = np.zeros((3, 1), dtype=complex)
    bad[0, 0] = bad[1, 0] = 1 / np.sqrt(2)  # mixes two weights
    with pytest.raises(ValueError, match="invariant"):
        InducedBundle(sphere, rep, bad)


def _rule_stack_invariant(group, rep, embed):
    """Fiber invariance at the subgroup rule's nodes: the former route."""
    proj = embed @ embed.conj().T
    ms = EvalPoints.for_rule(group, k_rule(group)).rep_stack(rep)
    return np.linalg.norm(ms @ proj - proj @ ms, axis=(1, 2)).max() <= 1e-10


def _bundle_accepts(group, rep, embed):
    try:
        InducedBundle(group, rep, embed)
    except ValueError as exc:
        assert "invariant" in str(exc)
        return False
    return True


def test_fiber_verdict_matches_rule_stack_form(sphere, rng):
    """The Lie-algebra test in InducedBundle agrees with the finite test at the rule's nodes."""
    cases = [(b.rep_tilde, b.embed) for b in
             [monopole_bundle(sphere, q, lv) for lv in range(5) for q in range(-lv, lv + 1, 2)]
             + [tangent_bundle(sphere)]]
    rep = spin_rep(sphere, 2)
    mixing = np.zeros((3, 1), dtype=complex)
    mixing[0, 0] = mixing[1, 0] = 1 / np.sqrt(2)  # two weights: not invariant
    cases.append((rep, mixing))
    pair = direct_sum(rep, rep)
    same, other = np.zeros((6, 1), dtype=complex), np.zeros((6, 1), dtype=complex)
    same[0, 0] = same[3, 0] = other[0, 0] = other[4, 0] = 1 / np.sqrt(2)
    cases += [(pair, same), (pair, other)]  # one weight twice: invariant; two: not
    line = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    cases.append((rep, line / np.linalg.norm(line)))
    verdicts = [(_rule_stack_invariant(sphere, r, e), _bundle_accepts(sphere, r, e))
                for r, e in cases]
    assert [ours for ours, _ in verdicts] == [theirs for _, theirs in verdicts]
    assert [ours for ours, _ in verdicts[-4:]] == [False, True, False, False]
    assert all(ours for ours, _ in verdicts[:-4])



def _einsum_form_frame_derivs(bundle, j, pts, dirs):
    """Derivatives of frame field j in the former three-operand einsum form."""
    d = np.einsum("na,aij->nij", dirs, bundle.rep_tilde.generators)
    w = np.conj(pts.rep_stack(bundle.rep_tilde)[:, j, :])
    return -np.einsum("ik,nij,nj->nk", bundle.embed.conj(), d, w)


def _einsum_form_projection_derivs(bundle, pts, dirs):
    """Derivatives of the projection section in the former three-operand einsum form."""
    d = np.einsum("na,aij->nij", dirs, bundle.rep_tilde.generators)
    r = pts.rep_stack(bundle.rep_tilde)
    m = bundle.embed @ bundle.embed.conj().T
    return np.einsum("nij,njk,nlk->nil", r, d @ m - m @ d, r.conj())


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_frame_and_projection_derivatives_match_einsum_form(sphere, sample_pts, kind, rng):
    dirs = rng.standard_normal((sample_pts.n, sphere.dim))
    if kind == "complex":
        dirs = dirs + 1j * rng.standard_normal(dirs.shape)
    line = monopole_bundle(sphere, 1, 3)
    for bundle in (tangent_bundle(sphere), line, monopole_bundle(sphere, -2),
                   InducedBundle(sphere, line.rep_tilde, np.exp(0.7j) * line.embed)):
        for j, f in enumerate(bundle.frame):
            want = _einsum_form_frame_derivs(bundle, j, sample_pts, dirs)
            assert np.abs(f.derivs(sample_pts, dirs) - want).max() < 1e-13
        want = _einsum_form_projection_derivs(bundle, sample_pts, dirs)
        assert np.abs(projection_section(bundle).derivs(sample_pts, dirs) - want).max() < 1e-13


def _frame_cases(group):
    """(name, bundle): the tangent bundle, the monopole lines of charge +-1 and +-2 and a
    phase-rotated line; a trivial subgroup fixes every line, so there they are built from
    the same weight vectors."""
    def line(charge):
        if group.k_dim:
            return monopole_bundle(group, charge)
        two_level = abs(charge)
        return InducedBundle(group, spin_rep(group, two_level),
                             np.eye(two_level + 1)[:, [(two_level - charge) // 2]])

    cases = [("tangent", tangent_bundle(group))]
    cases += [(f"charge{q:+d}", line(q)) for q in (1, -1, 2, -2)]
    rotated = line(1)
    cases.append(("rotated", InducedBundle(group, rotated.rep_tilde,
                                           np.exp(0.7j) * rotated.embed)))
    return cases


@pytest.mark.parametrize("space", ["sphere", "full_group"])
def test_frames_match_the_former_frame_formulas(space, request, rng):
    """Contragredient coefficients give the former frame's values bit for bit, and its
    derivatives along real and complex directions and its frame Jacobian to roundoff."""
    group = request.getfixturevalue(space)
    pts = EvalPoints.of(group, group.random_elements(rng, 12))
    real = rng.standard_normal((pts.n, group.dim))
    complex_dirs = real + 1j * rng.standard_normal(real.shape)
    for name, bundle in _frame_cases(group):
        assert bundle.dual.conjugates is (None if name == "tangent" else bundle.rep_tilde)
        for j, eta in enumerate(bundle.frame):
            assert np.array_equal(eta.values(pts), oracles.frame_values(bundle, j, pts)), name
            for dirs in (real, complex_dirs):
                want = oracles.frame_derivs(bundle, j, pts, dirs)
                assert np.abs(eta.derivs(pts, dirs) - want).max() < 1e-13, name
            want = np.stack([oracles.frame_derivs(bundle, j, pts, y[None]) for y in group.m_frame])
            assert np.abs(eta.frame_derivs(pts) - want).max() < 1e-13, name


def test_frame_left_derivative_is_a_central_difference(sphere, rng):
    """lambda_deriv of a frame field is d/dt eta(exp(-tY) x) at t = 0."""
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 8))
    h = 1e-5
    for name, bundle in _frame_cases(sphere):
        y = sphere.random_algebra(rng)
        shifted = [EvalPoints(sphere, sphere.exp(y, -t).matrix @ pts.matrices) for t in (h, -h)]
        for eta in bundle.frame:
            want = (eta.values(shifted[0]) - eta.values(shifted[1])) / (2 * h)
            assert np.abs(lambda_deriv(eta, y).values(pts) - want).max() < 1e-8, name


@pytest.mark.parametrize("charge", [1, -2])
def test_frame_and_projection_build_one_symmetric_power(sphere, rng, charge, monkeypatch):
    """A monopole frame reads the conjugate of the batch's stack of rho, which its
    projection section reads too: one batch computes one matrix stack."""
    bundle = monopole_bundle(sphere, charge, 3 if charge % 2 else 4)
    built = []
    stack = UnitaryRep.matrix_stack
    monkeypatch.setattr(UnitaryRep, "matrix_stack",
                        lambda self, m: built.append(self) or stack(self, m))
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 6))
    frame_gram(bundle).values(pts)
    for eta in bundle.frame:
        eta.frame_derivs(pts)
    projection = projection_section(bundle)
    projection.values(pts)
    projection.derivs(pts, sphere.random_algebra(rng)[None])
    assert built == [bundle.rep_tilde]
    assert np.array_equal(pts.rep_stack(bundle.dual), pts.rep_stack(bundle.rep_tilde).conj())


def test_tangent_frame_fields_and_projection_read_one_adjoint_stack(sphere, rng, monkeypatch):
    """The adjoint representation is real, so it is its own dual: the tangent bundle's frame,
    the fundamental fields and the projection section share the batch's one adjoint stack."""
    bundle = tangent_bundle(sphere)
    assert bundle.dual is bundle.rep_tilde is adjoint_rep(sphere)
    built = []
    stack = UnitaryRep.matrix_stack
    monkeypatch.setattr(UnitaryRep, "matrix_stack",
                        lambda self, m: built.append(self) or stack(self, m))
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 6))
    for section in [*bundle.frame, FundamentalField(sphere, sphere.random_algebra(rng)),
                    projection_section(bundle)]:
        section.values(pts)
        section.frame_derivs(pts)
    assert built == [adjoint_rep(sphere)]


@pytest.mark.parametrize("name", _BUNDLES)
def test_a_second_random_section_builds_no_rep(sphere, rng, name, monkeypatch):
    """The bundle keeps the representations of its section spins, so a second draw builds none."""
    bundle = _BUNDLES[name](sphere)
    random_equivariant_section(bundle, rng)
    built = []
    init = UnitaryRep.__init__
    monkeypatch.setattr(UnitaryRep, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
    for _ in range(5):
        random_equivariant_section(bundle, rng)
    assert built == []
