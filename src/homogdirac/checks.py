"""The invariant check suite behind the ``verify`` command.

Each check measures one identity, on the configured connection unless its
anchor names the canonical or Levi-Civita one, and returns
``(residuals, samples)``: ``residuals`` is an array of residuals, or a list
of arrays and numbers.  Only :func:`run_suite` reduces them, to the largest
absolute value (0.0 with none), and compares that against the check's
tolerance (overridable per check id through the config) to build a
dictionary row.  The reduction keeps a NaN, so a row whose residuals hold
one reads NaN and fails.  ``run_suite`` is also the one place that reads
``Connection.is_compatible``: on an incompatible connection each ``dirac.*``
row reads ``inf`` with 0 samples and runs nothing.  Checks are pure
measurements; the expected values come from closed-form identities or
independent recomputation, never from the code path under test.  A
sampling check draws its samples one at a time (a point's draws, then its
directions; ``GroupModel.draw``), then builds all its points in one
``GroupModel.haar_matrices`` call and evaluates them on one batch, so the
points checked do not depend on how they are evaluated.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .bundles import (
    frame_gram,
    module_map_values,
    monopole_bundle,
    projection_section,
    random_equivariant_section,
    tangent_bundle,
)
from .dirac import (
    commutator_defect,
    criterion_check,
    hodge_dirac,
    selfadjoint_defect,
    spinor_algebra,
)
from .geometry import (
    ApplyConnection,
    canonical_connection,
    levi_civita_connection,
    tangent_frame,
    torsion,
)
from .groups import GroupElement, GroupModel, _one_parameter_period, expm_skew
from .reps import spin_rep
from .sections import (
    AInner,
    CliffordKRep,
    CliffordProduct,
    Codomain,
    Constant,
    EvalPoints,
    FundamentalField,
    MatrixCoefficient,
    OpApply,
    RankOne,
    RealPart,
    Scale,
    Sum,
    Translate,
    TrivialKRep,
    equivariance_defect,
    l2_inner,
    lambda_deriv,
)

__all__ = ["ANCHORS", "run_suite"]


_SPINOR_TWO_J = 2  # the highest two_j of a test spinor's parts


class _Context:
    """Shared lazily-built objects for one verify run."""

    def __init__(self, cfg, group: GroupModel, rng: np.random.Generator):
        self.cfg = cfg
        self.group = group
        self.rng = rng
        self.samples = group.random_elements(rng, cfg.sample_count)
        self.pts = EvalPoints.of(group, self.samples)
        self.rule = group.haar_rule(cfg.quadrature_bandwidth)
        self.connection = cfg.make_connection(group)
        self.algebra = spinor_algebra(group)
        # the spin representations the checks draw from (two_j 0-2; 3 for derivatives), kept
        # for the run so that none is built twice; the group keeps them only while used
        self.spin_reps = [spin_rep(group, two_j) for two_j in range(4)]
        if cfg.bundle == "monopole":
            self.bundle = monopole_bundle(group, cfg.charge,
                                          cfg.level if cfg.level >= 0 else None)
        else:
            self.bundle = tangent_bundle(group)
        self._scalar = None

    def scalar_section(self):
        """A band-limited right-invariant scalar test function."""
        if self._scalar is None:
            rep, krep = self.spin_reps[2], TrivialKRep(self.group)
            u, v = self.rng.standard_normal(rep.dim), self.rng.standard_normal(rep.dim)
            self._scalar = RealPart(MatrixCoefficient(rep, u, krep.invariant(rep, v)))
        return self._scalar

    def spinor(self):
        """A random band-limited equivariant spinor section that D does not kill.

        Each part is Re u* rho(x) P(v a^T), P the subgroup projection (u = v = 1
        at spin 0).  A constant part, or a half-integer spin part that P
        removes, is Dirac-harmonic; the first part has integer spin >= 1.
        """
        g, alg, rng = self.group, self.algebra, self.rng
        krep = CliffordKRep(g, alg)
        parts = []
        for first in (True, False):
            a = rng.standard_normal(alg.n)
            two_j = (2 * int(rng.integers(1, _SPINOR_TWO_J // 2 + 1)) if first
                     else int(rng.integers(0, _SPINOR_TWO_J + 1)))
            rep = self.spin_reps[two_j]
            u = v = np.ones(1)
            if two_j:
                u, v = rng.standard_normal(rep.dim), rng.standard_normal(rep.dim)
            parts.append(RealPart(MatrixCoefficient(
                rep, u, krep.invariant(rep, np.outer(v, a)), Codomain.clifford(alg))))
        return Sum(parts)


# -- group and algebra checks ----------------------------------------------------


def _check_exp_unitarity(ctx: _Context):
    defects = []
    for _ in range(20):
        coords = ctx.group.random_algebra(ctx.rng)
        t = float(ctx.rng.uniform(-3.0, 3.0))
        defects.append(ctx.group.exp(coords, t).unitary_defect())
    return defects, len(defects)


def _check_ad_invariance(ctx: _Context):
    g, rng = ctx.group, ctx.rng
    draws, a, b = zip(*[(g.draw(rng), g.random_algebra(rng), g.random_algebra(rng))
                        for _ in range(200)])
    ad = g.adjoint_matrices(g.haar_matrices(np.stack(draws)))
    a, b = np.array(a)[:, :, None], np.array(b)[:, :, None]  # column vectors
    defect = np.sum((ad @ a) * (ad @ b), axis=(1, 2)) - np.sum(a * b, axis=(1, 2))
    return defect, len(ad)


def _check_subalgebra(ctx: _Context):
    g = ctx.group
    norms = []
    for i in range(g.k_dim):
        for j in range(g.k_dim):
            br = g.bracket(g.k_frame[i], g.k_frame[j])
            norms.append(np.linalg.norm(g.project_m(br)))
    return norms, g.k_dim * g.k_dim


def _check_quadrature_normalization(ctx: _Context):
    return float(ctx.rule.weights.sum()) - 1.0, len(ctx.rule)


def _translations(ctx: _Context) -> list:
    """Three group elements drawn one after another, built in one call."""
    g = ctx.group
    draws = np.stack([g.draw(ctx.rng) for _ in range(3)])
    return [GroupElement(m) for m in g.haar_matrices(draws)]


def _check_left_invariance(ctx: _Context):
    g, rng, rule = ctx.group, ctx.rng, ctx.rule
    rep = ctx.spin_reps[2]
    f = MatrixCoefficient(rep, rng.standard_normal(rep.dim), rng.standard_normal(rep.dim))
    f2 = Scale(f, MatrixCoefficient(rep, rng.standard_normal(rep.dim),
                                    rng.standard_normal(rep.dim)))
    one = Constant(Codomain.scalar(), 1.0, group=g)
    a = l2_inner(one, f2, rule)
    return [a - l2_inner(one, Translate(f2, y), rule) for y in _translations(ctx)], 3 * len(rule)


def _check_clifford_relation(ctx: _Context):
    alg = ctx.algebra
    residuals = []
    for i in range(alg.p):
        for j in range(alg.p):
            anti = alg.mul(alg.generator(i), alg.generator(j)) \
                + alg.mul(alg.generator(j), alg.generator(i))
            residuals.append(anti + 2.0 * (i == j) * alg.unit())
    return residuals, alg.p * alg.p


def _check_clifford_associativity(ctx: _Context):
    alg, rng = ctx.algebra, ctx.rng
    residuals = []
    for _ in range(100):
        a, b, c = (alg.random(rng) for _ in range(3))
        residuals.append(alg.mul(alg.mul(a, b), c) - alg.mul(a, alg.mul(b, c)))
    return residuals, 100


def _check_clifford_star(ctx: _Context):
    alg, rng = ctx.algebra, ctx.rng
    residuals = []
    for _ in range(50):
        a, u, v = (alg.random(rng) for _ in range(3))
        lhs = alg.inner(alg.mul(a, u), v)
        residuals.append(lhs - alg.inner(u, alg.mul(alg.star(a), v)))
    return residuals, 50


def _draw_points(ctx: _Context, n: int):
    """n samples, each a group element then an algebra direction: one batch and its directions."""
    g, rng = ctx.group, ctx.rng
    draws, ys = zip(*[(g.draw(rng), g.random_algebra(rng)) for _ in range(n)])
    return EvalPoints(g, g.haar_matrices(np.stack(draws))), np.array(ys)


_STEPS = (1e-4, 5e-5)  # halving h divides a second-order error by 4


def _derivative_samples(ctx: _Context) -> list:
    """Per test section: exact derivatives at 8 draws (x, y), shape (8, k), and for each
    step h the quotients (f(x exp(hy)) - f(x exp(-hy))) / 2h, shape (steps, 8, k)."""
    g, rng = ctx.group, ctx.rng
    rep = ctx.spin_reps[3]
    sections = [
        MatrixCoefficient(rep, rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim),
                          rng.standard_normal(rep.dim)),
        FundamentalField(g, g.random_algebra(rng)),
        ctx.spinor(),
    ]
    out = []
    for sec in sections:
        pts, ys = _draw_points(ctx, 8)
        exact = sec.derivs(pts, ys).reshape(pts.n, -1)
        # x exp(t y) for t = +h, -h of each step: one batch of 4 n points
        ts = np.array([[h, -h] for h in _STEPS])[:, :, None, None, None]
        shifted = pts.matrices @ expm_skew(ts * g.algebra_element(ys))
        vals = sec.values(EvalPoints(g, shifted.reshape(-1, *pts.matrices.shape[1:])))
        vals = vals.reshape(len(_STEPS), 2, pts.n, -1)
        out.append((exact, np.stack([(v[0] - v[1]) / (2 * h) for h, v in zip(_STEPS, vals)])))
    return out


def _check_derivative_consistency(ctx: _Context):
    """Central differences of section values must converge at second order."""
    residuals = []
    for exact, fd in _derivative_samples(ctx):
        errs = np.linalg.norm(fd - exact, axis=2)  # (step, draw)
        # below the roundoff floor the truncation ratio is meaningless:
        # a wrong derivative would show an O(1) error here instead
        scale = np.maximum(1.0, np.linalg.norm(exact, axis=1))
        ratio = np.divide(errs[0], errs[1], out=np.full(len(exact), 4.0),
                          where=errs[0] >= 1e-8 * scale)
        residuals.append(ratio - 4.0)
    return residuals, sum(len(r) for r in residuals)


def _check_product_rule(ctx: _Context):
    alg = ctx.algebra
    a, b = ctx.spinor(), ctx.spinor()
    prod = CliffordProduct(alg, a, b)
    pts, ys = _draw_points(ctx, 20)
    lhs = prod.derivs(pts, ys)
    rhs = alg.mul(a.derivs(pts, ys), b.values(pts)) + alg.mul(a.values(pts), b.derivs(pts, ys))
    return lhs - rhs, pts.n


# -- bundle checks ------------------------------------------------------------------


def _check_frame_equivariance(ctx: _Context):
    b, g = ctx.bundle, ctx.group
    nodes = [g.identity()]  # on a nontrivial subgroup, exp(t_k Z_1) at t_k = period k / 33, k < 5
    if g.k_dim:
        z = np.einsum("a,aij->ij", g.k_frame[0], g.basis)
        ts = _one_parameter_period(z) * np.arange(5) / 33
        nodes = [GroupElement(m) for m in expm_skew(ts[:, None, None] * z)]
    x = ctx.samples[0]
    return [equivariance_defect(eta, b.krep, x, nodes) for eta in b.frame], 5 * b.ambient_dim


def _check_reproducing(ctx: _Context):
    b, g = ctx.bundle, ctx.group
    frame = b.frame
    residuals = []
    for _ in range(3):
        xi = random_equivariant_section(b, ctx.rng)
        recon = Sum([Scale(eta, AInner(eta, xi)) for eta in frame])
        residuals.append(recon.values(ctx.pts) - xi.values(ctx.pts))
    return residuals, 3 * ctx.pts.n


def _check_projection_idempotent(ctx: _Context):
    pv = projection_section(ctx.bundle).values(ctx.pts)
    square = np.einsum("nij,njk->nik", pv, pv)
    return [square - pv, pv - np.conj(np.transpose(pv, (0, 2, 1)))], ctx.pts.n


def _check_projection_trace(ctx: _Context):
    pv = projection_section(ctx.bundle).values(ctx.pts)
    return np.einsum("nii->n", pv) - ctx.bundle.fiber_dim, ctx.pts.n


def _check_gram_matches_projection(ctx: _Context):
    pv = projection_section(ctx.bundle).values(ctx.pts)
    gv = frame_gram(ctx.bundle).values(ctx.pts)
    return pv - gv, ctx.pts.n


def _check_module_map_range(ctx: _Context):
    b = ctx.bundle
    pv = projection_section(b).values(ctx.pts)
    residuals = []
    for _ in range(3):
        xi = random_equivariant_section(b, ctx.rng)
        mm = module_map_values(b, xi, ctx.pts)
        residuals.append(np.einsum("nij,nj->ni", pv, mm) - mm)
    return residuals, 3 * ctx.pts.n


def _check_endo_reconstruction(ctx: _Context):
    b = ctx.bundle
    frame = b.frame
    residuals = []
    for _ in range(20):
        zeta = random_equivariant_section(b, ctx.rng)
        eta = random_equivariant_section(b, ctx.rng)
        t = RankOne(zeta, eta)
        recon = Sum([RankOne(OpApply(t, fj), fj) for fj in frame])
        residuals.append(recon.values(ctx.pts) - t.values(ctx.pts))
    return residuals, 20 * ctx.pts.n


# -- geometry checks -----------------------------------------------------------------


def _check_frame_identity(ctx: _Context):
    g = ctx.group
    frame = tangent_frame(g)
    w = Sum([Scale(frame[0], ctx.scalar_section()), frame[1]])
    recon = Sum([Scale(fj, AInner(fj, w)) for fj in frame])
    return recon.values(ctx.pts) - w.values(ctx.pts), ctx.pts.n


def _check_frame_norm_sum(ctx: _Context):
    g = ctx.group
    frame = tangent_frame(g)
    norms = Sum([AInner(fj, fj) for fj in frame])
    return norms.values(ctx.pts) - g.m_dim, ctx.pts.n


def _check_bracket_identity(ctx: _Context):
    """Commutator of fundamental derivations equals the bracket field."""
    g, rng = ctx.group, ctx.rng
    f = ctx.scalar_section()
    pts = EvalPoints.of(g, ctx.samples[:10])
    residuals = []
    for _ in range(5):
        a, b = g.random_algebra(rng), g.random_algebra(rng)
        comm = Sum([lambda_deriv(lambda_deriv(f, b), a),
                    lambda_deriv(lambda_deriv(f, a), b)], [1.0, -1.0])
        directions = g.from_m(FundamentalField(g, g.bracket(a, b)).values(pts).real)
        residuals.append(comm.values(pts) - f.derivs(pts, directions))
    return residuals, 5 * pts.n


def _check_compatibility(ctx: _Context):
    g, conn = ctx.group, ctx.connection
    frame = tangent_frame(g)
    xi = FundamentalField(g, g.random_algebra(ctx.rng))
    eta = FundamentalField(g, g.random_algebra(ctx.rng))
    residuals = []
    for wj in frame:
        lhs = ApplyConnection(conn, wj, AInner(xi, eta)).values(ctx.pts)
        rhs = (AInner(ApplyConnection(conn, wj, xi), eta).values(ctx.pts)
               + AInner(xi, ApplyConnection(conn, wj, eta)).values(ctx.pts))
        residuals.append(lhs - rhs)
    return residuals, len(frame) * ctx.pts.n


def _check_connection_invariance(ctx: _Context):
    g, conn = ctx.group, ctx.connection
    w = FundamentalField(g, g.random_algebra(ctx.rng))
    xi = FundamentalField(g, g.random_algebra(ctx.rng))
    residuals = []
    for y in _translations(ctx):
        left = Translate(ApplyConnection(conn, w, xi), y).values(ctx.pts)
        right = ApplyConnection(conn, Translate(w, y), Translate(xi, y)).values(ctx.pts)
        residuals.append(left - right)
    return residuals, 3 * ctx.pts.n


def _torsion_definition(ctx: _Context, conn, a, b) -> tuple:
    """V = F(a), W = F(b) and the torsion by definition, nabla_V W - nabla_W V - F([a, b]), on ctx.pts."""
    g = ctx.group
    v, w = FundamentalField(g, a), FundamentalField(g, b)
    return v, w, Sum([ApplyConnection(conn, v, w), ApplyConnection(conn, w, v),
                      FundamentalField(g, g.bracket(a, b))], [1.0, -1.0, -1.0]).values(ctx.pts)


def _torsion_residual(ctx: _Context, conn, expected) -> tuple:
    """Torsion of random fields V, W: its distance to ``expected(V(x), W(x))`` and to the closed form."""
    g = ctx.group
    v, w, defined = _torsion_definition(ctx, conn, g.random_algebra(ctx.rng), g.random_algebra(ctx.rng))
    expect = expected(v.values(ctx.pts), w.values(ctx.pts))
    closed = torsion(conn, v, w).values(ctx.pts)
    return [defined - expect, closed - defined], ctx.pts.n


def _check_canonical_torsion(ctx: _Context):
    g = ctx.group
    return _torsion_residual(ctx, canonical_connection(g), lambda v, w: -g.bracket_m(v, w))


def _check_levi_civita_torsion(ctx: _Context):
    return _torsion_residual(ctx, levi_civita_connection(ctx.group), lambda v, w: 0.0)


def _check_configured_torsion(ctx: _Context):
    """Torsion by definition against the closed form on V = F(e_a), W = F(e_b) for each a < b; draws nothing."""
    conn, pairs = ctx.connection, list(itertools.combinations(np.eye(ctx.group.dim), 2))
    residuals = []
    for a, b in pairs:
        v, w, defined = _torsion_definition(ctx, conn, a, b)
        residuals.append(torsion(conn, v, w).values(ctx.pts) - defined)
    return residuals, len(pairs) * ctx.pts.n


def _check_metric_derivative_balance(ctx: _Context):
    """sum_j <nabla_U W_j, W_j> vanishes for compatible connections."""
    g, conn = ctx.group, ctx.connection
    frame = tangent_frame(g)
    u = FundamentalField(g, g.random_algebra(ctx.rng))
    total = Sum([AInner(ApplyConnection(conn, u, wj), wj) for wj in frame])
    return total.values(ctx.pts), ctx.pts.n


# -- Dirac checks ---------------------------------------------------------------------


def _check_dirac_frame_independence(ctx: _Context):
    g, conn = ctx.group, ctx.connection
    phi = ctx.spinor()
    base = hodge_dirac(conn, phi)
    q, _ = np.linalg.qr(ctx.rng.standard_normal((g.dim, g.dim)))
    other = hodge_dirac(conn, phi, frame=tangent_frame(g, q.T))
    return base.values(ctx.pts) - other.values(ctx.pts), ctx.pts.n


def _check_dirac_translation(ctx: _Context):
    g, conn = ctx.group, ctx.connection
    phi = ctx.spinor()
    residuals = []
    for y in _translations(ctx):
        left = Translate(hodge_dirac(conn, phi), y).values(ctx.pts)
        # the frame-sum side moves its frame with the point; the closed form has none
        right = hodge_dirac(conn, Translate(phi, y), frame=tangent_frame(g)).values(ctx.pts)
        residuals.append(left - right)
    return residuals, 3 * ctx.pts.n


def _check_dirac_commutator(ctx: _Context):
    defect = commutator_defect(ctx.connection, ctx.scalar_section(), ctx.spinor(), ctx.pts)
    return defect, ctx.pts.n


def _check_dirac_criterion(ctx: _Context):
    report = criterion_check(ctx.connection)
    return [report.torsion_trace_max, report.correction_sum_residual], 1  # one connection read


def _check_dirac_defect(ctx: _Context):
    phi = ctx.spinor()  # only its bandwidth matters: the blocks read are two_j = 0 ... 2 B
    return selfadjoint_defect(ctx.connection, [(phi, phi)]), int(2 * phi.bandwidth) + 1


_GROUP_CHECKS = [
    ("algebra.exp-unitarity", "exponentials stay in the group", 1e-12, _check_exp_unitarity),
    ("algebra.ad-invariance", "inner product is conjugation invariant", 1e-12, _check_ad_invariance),
    ("algebra.subalgebra-closure", "isotropy basis closes under brackets", 1e-12, _check_subalgebra),
    ("quadrature.normalization", "rule integrates constants to one", 1e-13, _check_quadrature_normalization),
    ("quadrature.left-invariance", "rule is left-translation invariant", 1e-10, _check_left_invariance),
    ("clifford.defining-relation", "generators anticommute to the metric", 1e-14, _check_clifford_relation),
    ("clifford.associativity", "product is associative", 1e-12, _check_clifford_associativity),
    ("clifford.star-representation", "left action is a star representation", 1e-12, _check_clifford_star),
    ("sections.derivative-consistency", "exact derivatives match central differences", 0.5, _check_derivative_consistency),
    ("sections.product-rule", "derivatives obey the product rule", 1e-10, _check_product_rule),
]

_BUNDLE_CHECKS = [
    ("bundle.frame-equivariance", "frame sections are equivariant", 1e-10, _check_frame_equivariance),
    ("bundle.reproducing-formula", "frame reproduces sections", 1e-10, _check_reproducing),
    ("bundle.projection-idempotent", "projection section squares to itself", 1e-11, _check_projection_idempotent),
    ("bundle.projection-trace", "projection rank equals the fiber dimension", 1e-10, _check_projection_trace),
    ("bundle.gram-projection-match", "frame Gram equals the projection section", 1e-11, _check_gram_matches_projection),
    ("bundle.module-map-range", "free-module image lies in the projection range", 1e-10, _check_module_map_range),
    ("bundle.endomorphism-reconstruction", "rank-one sums rebuild endomorphisms", 1e-10, _check_endo_reconstruction),
]

_GEOMETRY_CHECKS = [
    ("geometry.frame-identity", "fundamental frame reproduces tangent fields", 1e-10, _check_frame_identity),
    ("geometry.frame-norm-sum", "frame norms sum to the tangent dimension", 1e-10, _check_frame_norm_sum),
    ("geometry.bracket-identity", "derivation commutators match bracket fields", 1e-10, _check_bracket_identity),
    ("geometry.compatibility-leibniz", "connection differentiates the metric", 1e-9, _check_compatibility),
    ("geometry.connection-invariance", "connection commutes with translations", 1e-9, _check_connection_invariance),
    ("geometry.canonical-torsion-formula", "canonical torsion equals the projected bracket", 1e-10, _check_canonical_torsion),
    ("geometry.levi-civita-torsion", "the compatible correction kills torsion", 1e-10, _check_levi_civita_torsion),
    ("geometry.metric-derivative-balance", "frame covariant derivatives balance", 1e-10, _check_metric_derivative_balance),
]

# only for a connection from a gamma file; the catalog connections have their own torsion checks
_CONFIGURED_TORSION = ("geometry.configured-torsion", "configured torsion equals its closed form", 1e-10, _check_configured_torsion)

_DIRAC_CHECKS = [
    ("dirac.frame-independence", "operator agrees across module frames", 1e-10, _check_dirac_frame_independence),
    ("dirac.translation-commutation", "operator commutes with translations", 1e-9, _check_dirac_translation),
    ("dirac.multiplication-commutator", "commutator with multiplication is the gradient", 1e-9, _check_dirac_commutator),
    ("dirac.selfadjointness-criterion", "trace and correction criteria vanish", 1e-8, _check_dirac_criterion),
    ("dirac.selfadjoint-defect", "pairing defect of the operator", 1e-8, _check_dirac_defect),
]

# every check id a [tolerances] key may name
ANCHORS = frozenset(anchor for anchor, *_ in
                    _GROUP_CHECKS + _BUNDLE_CHECKS + _GEOMETRY_CHECKS + [_CONFIGURED_TORSION] + _DIRAC_CHECKS)


def _worst(residuals) -> float:
    """The largest absolute residual, 0.0 with none; NaN if any is NaN, which max() would drop."""
    parts = residuals if isinstance(residuals, list) else [residuals]
    return float(np.max([np.max(np.abs(r), initial=0.0) for r in parts], initial=0.0))


def run_suite(cfg, group: GroupModel, rng: np.random.Generator, stats: dict | None = None) -> list:
    """The report rows; ``stats``, if given, gets each check's wall time by anchor
    (``check_seconds``) and the bytes the sample and rule batches retain at the end."""
    ctx = _Context(cfg, group, rng)
    checks = list(_GROUP_CHECKS) + list(_BUNDLE_CHECKS)
    if cfg.bundle in ("tangent", "clifford"):
        checks += _GEOMETRY_CHECKS
        if cfg.connection not in ("canonical", "levi-civita"):
            checks.append(_CONFIGURED_TORSION)
    if cfg.bundle == "clifford":
        checks += _DIRAC_CHECKS
    results, seconds = [], {}
    for anchor, name, default_tol, fn in checks:
        tol = float(cfg.tolerances.get(anchor, default_tol))
        start = time.perf_counter()
        residual, samples = float("inf"), 0  # D is defined on compatible connections only
        if ctx.connection.is_compatible or not anchor.startswith("dirac."):
            residuals, samples = fn(ctx)
            residual = _worst(residuals)
        seconds[anchor] = time.perf_counter() - start
        results.append({
            "anchor": anchor,
            "name": name,
            "residual": residual,
            "tolerance": tol,
            "samples": int(samples),
            "pass": bool(residual <= tol),
        })
    if stats is not None:
        batches = {"samples": ctx.pts, "rule": EvalPoints.for_rule(group, ctx.rule)}
        stats.update(check_seconds=seconds,
                     retained_bytes={k: pts.retained_bytes() for k, pts in batches.items()})
    return results
