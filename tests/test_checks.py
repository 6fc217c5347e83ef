"""The batched sampling checks of ``verify`` against their former per-point loops.

The loops are kept here as the oracle.  Each batched check draws its samples
with the generator calls of its loop, in the same order, so from one
generator state both see the same points and directions.
"""

import numpy as np
import pytest

from homogdirac import GroupElement, checks
from homogdirac.cli import RunConfig, run_verify
from homogdirac.reps import spin_rep
from homogdirac.sections import (
    CliffordProduct,
    EvalPoints,
    FundamentalField,
    MatrixCoefficient,
    Sum,
    lambda_deriv,
)
from oracles import deriv, k_nodes, k_rule, krep_matrix, random_element, value

CONFIGS = {
    "clifford": dict(bundle="clifford", seed=11),
    "tangent": dict(bundle="tangent", seed=9),
    "monopole": dict(bundle="monopole", charge=1, seed=5),
    "trivial-k": dict(subgroup="trivial", connection="levi-civita", seed=3),
}


def _context(config):
    cfg = RunConfig(sample_count=20, **config)
    return checks._Context(cfg, cfg.make_group(), np.random.default_rng(cfg.seed))


# -- the former per-point loops ------------------------------------------------------


def _ad_invariance(ctx):
    g, rng = ctx.group, ctx.rng
    worst = 0.0
    for _ in range(200):
        x = random_element(g, rng)
        a, b = g.random_algebra(rng), g.random_algebra(rng)
        worst = max(worst, abs(float(np.dot(g.adjoint(x, a), g.adjoint(x, b)) - np.dot(a, b))))
    return worst, 200


def _derivative_samples(ctx):
    g, rng = ctx.group, ctx.rng
    rep = spin_rep(g, 3)
    sections = [
        MatrixCoefficient(rep, rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim),
                          rng.standard_normal(rep.dim)),
        FundamentalField(g, g.random_algebra(rng)),
        ctx.spinor(),
    ]
    out = []
    for sec in sections:
        exact, fd = [], []
        for _ in range(8):
            x = random_element(g, rng)
            y = g.random_algebra(rng)
            exact.append(np.atleast_1d(deriv(sec, x, y)))
            quotients = []
            for h in (1e-4, 5e-5):
                xp = GroupElement(x.matrix @ g.exp(y, h).matrix)
                xm = GroupElement(x.matrix @ g.exp(y, -h).matrix)
                quotients.append((np.atleast_1d(value(sec, xp))
                                  - np.atleast_1d(value(sec, xm))) / (2 * h))
            fd.append(quotients)
        out.append((np.array(exact), np.array(fd).transpose(1, 0, 2)))
    return out


def _product_rule(ctx):
    g, rng, alg = ctx.group, ctx.rng, ctx.algebra
    a, b = ctx.spinor(), ctx.spinor()
    prod = CliffordProduct(alg, a, b)
    worst = 0.0
    for _ in range(20):
        x = random_element(g, rng)
        y = g.random_algebra(rng)
        lhs = deriv(prod, x, y)
        rhs = alg.mul(deriv(a, x, y), value(b, x)) + alg.mul(value(a, x), deriv(b, x, y))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst, 20


def _bracket_identity(ctx):
    g, rng = ctx.group, ctx.rng
    f = ctx.scalar_section()
    worst, count = 0.0, 0
    for _ in range(5):
        a, b = g.random_algebra(rng), g.random_algebra(rng)
        comm = Sum([lambda_deriv(lambda_deriv(f, b), a),
                    lambda_deriv(lambda_deriv(f, a), b)], [1.0, -1.0])
        bracket_field = FundamentalField(g, g.bracket(a, b))
        for x in ctx.samples[:10]:
            direction = g.from_m(value(bracket_field, x).real)
            worst = max(worst, abs(complex(value(comm, x)) - complex(deriv(f, x, direction))))
            count += 1
    return worst, count


def _frame_equivariance(ctx):
    """Each defect from its definition: eta(x s) against pi_s^-1 eta(x), one point at a time."""
    b, g = ctx.bundle, ctx.group
    x = ctx.samples[0]
    worst = 0.0
    for eta in b.frame:
        for s in k_nodes(g)[:5]:
            rhs = krep_matrix(b.krep, s).conj().T @ value(eta, x)
            worst = max(worst, float(np.linalg.norm(value(eta, x @ s) - rhs)))
    return worst, 5 * b.ambient_dim


# -- batched against former ------------------------------------------------------------


def _from_one_state(ctx, batched, former):
    """Both results from one generator state; both must leave the generator in one state."""
    state = ctx.rng.bit_generator.state
    ctx._scalar = None
    ours = batched(ctx)
    after = ctx.rng.bit_generator.state
    ctx.rng.bit_generator.state = state
    ctx._scalar = None
    theirs = former(ctx)
    assert ctx.rng.bit_generator.state == after
    return ours, theirs


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_batched_checks_match_their_former_loops(config):
    ctx = _context(config)
    for batched, former in [(checks._check_ad_invariance, _ad_invariance),
                            (checks._check_product_rule, _product_rule),
                            (checks._check_bracket_identity, _bracket_identity),
                            (checks._check_frame_equivariance, _frame_equivariance)]:
        (residuals, count), (theirs, former_count) = _from_one_state(ctx, batched, former)
        assert count == former_count
        assert abs(checks._worst(residuals) - theirs) <= 1e-14, batched.__name__


def test_worst_residual_keeps_a_nan():
    """The suite's one reduction: largest absolute value, 0.0 with no terms, NaN kept."""
    assert checks._worst([]) == 0.0
    assert checks._worst(np.array([-3.0, 1.0])) == 3.0
    assert checks._worst([np.array([1.0, 2j]), -0.5]) == 2.0
    assert np.isnan(checks._worst([np.array([1.0, np.nan]), 2.0]))
    assert np.isnan(checks._worst([np.nan, np.zeros(0)]))


def test_a_nan_residual_fails_its_row(monkeypatch):
    """One NaN unitarity defect among twenty makes the row read NaN and fail the report."""
    calls, defect = [], GroupElement.unitary_defect

    def fifth_is_nan(self):
        calls.append(self)
        return float("nan") if len(calls) == 5 else defect(self)

    monkeypatch.setattr(GroupElement, "unitary_defect", fifth_is_nan)
    report = run_verify(RunConfig(seed=7))
    row = next(r for r in report["checks"] if r["anchor"] == "algebra.exp-unitarity")
    assert np.isnan(row["residual"]) and row["pass"] is False
    assert report["pass"] is False


def test_incompatible_gamma_file_gates_dirac_and_measures_itself(tmp_path, monkeypatch):
    """A symmetric gamma: each dirac.* row reads inf over 0 samples without running, and
    the Leibniz row measures this connection, not a compatible stand-in, and fails."""
    gamma = np.zeros((3, 3, 3))
    gamma[0, 0, 1] = gamma[0, 1, 0] = 0.3
    path = tmp_path / "symmetric.txt"
    path.write_text(" ".join(map(str, gamma.reshape(-1).tolist())) + "\n")
    ran = []
    for fn in ("commutator_defect", "criterion_check", "hodge_dirac", "selfadjoint_defect"):
        monkeypatch.setattr(checks, fn, lambda *args, fn=fn, **kw: ran.append(fn))
    cfg = RunConfig(group="su2", subgroup="trivial", connection=str(path), seed=3)
    report = run_verify(cfg)
    rows = {r["anchor"]: r for r in report["checks"]}
    dirac = [r for anchor, r in rows.items() if anchor.startswith("dirac.")]
    assert len(dirac) == 5 and not ran
    assert all(r["residual"] == np.inf and r["samples"] == 0 and not r["pass"] for r in dirac)
    leibniz = rows["geometry.compatibility-leibniz"]
    assert leibniz["residual"] > 1e-2 and leibniz["pass"] is False


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_frame_equivariance_points_are_the_first_subgroup_rule_nodes(config, monkeypatch):
    """The check's points exp(t_k Z_1), t_k = period k / 33, are the first five nodes of the
    33-point subgroup rule bit for bit; on the trivial subgroup, its one node, the identity."""
    ctx = _context(config)
    seen = []
    defect = checks.equivariance_defect
    monkeypatch.setattr(checks, "equivariance_defect",
                        lambda eta, krep, x, s: seen.append(s) or defect(eta, krep, x, s))
    checks._check_frame_equivariance(ctx)
    want = k_rule(ctx.group).matrices[:5]
    assert seen and all(np.array_equal(np.stack([e.matrix for e in s]), want) for s in seen)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_batched_derivative_samples_match_the_former_loop(config):
    """Same draws and steps: exact derivatives agree, and so do the value differences.

    The shifted points are the same matrices, but a batch evaluates values in
    other BLAS kernels than a one-point batch: they differ by up to ~1e-15, and
    a quotient divides that by 2h.  So the differences f(x e^{hy}) - f(x e^{-hy})
    behind the quotients are held to 1e-14, as the exact residuals are.
    """
    ctx = _context(config)
    for _ in range(2):
        ours, theirs = _from_one_state(ctx, checks._derivative_samples, _derivative_samples)
        assert len(ours) == len(theirs) == 3
        for (exact, fd), (former_exact, former_fd) in zip(ours, theirs):
            assert exact.shape == former_exact.shape and fd.shape == former_fd.shape
            assert np.abs(exact - former_exact).max() <= 1e-12
            for h, ours_h, theirs_h in zip(checks._STEPS, fd, former_fd):
                assert np.abs(ours_h - theirs_h).max() * 2 * h <= 1e-14


def test_batched_adjoint_checks_every_point(sphere, rng):
    """A stack holding one matrix outside the group raises, as the one-point form does."""
    xs = np.stack([x.matrix for x in sphere.random_elements(rng, 4)])
    ad = sphere.adjoint_matrices(xs)
    for x, a in zip(xs, ad):
        assert np.abs(sphere.adjoint_matrix(GroupElement(x)) - a).max() < 1e-15
    bad = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(ValueError, match="adjoint expansion residual"):
        sphere.adjoint_matrix(GroupElement(bad))
    with pytest.raises(ValueError, match="adjoint expansion residual"):
        sphere.adjoint_matrices(np.concatenate([xs, xs[1:2] @ bad]))


def test_verify_builds_few_one_point_batches(monkeypatch):
    """The sampling checks evaluate one batch each, not one batch per sample."""
    sizes = []
    init = EvalPoints.__init__

    def record(self, group, matrices):
        init(self, group, matrices)
        sizes.append(self.n)

    monkeypatch.setattr(EvalPoints, "__init__", record)
    assert run_verify(RunConfig(group="su2", subgroup="u1", bundle="clifford", seed=11))["pass"]
    assert sizes.count(1) <= 5
