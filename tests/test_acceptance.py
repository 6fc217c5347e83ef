"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not configurable.  Every expected value is
either an algebraic identity, an independently computed oracle (Casimir
eigenvalues, Hodge kernel counts, geodesic distances on the embedded
sphere, chordal bounds), or a structural contract (determinism, verdict
agreement); nothing is calibrated against the code under test.
"""

import numpy as np

from homogdirac import (
    AInner,
    CliffordKRep,
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
    canonical_connection,
    casimir_value,
    commutator_defect,
    connection_test_matrix,
    criterion_check,
    hodge_dirac,
    levi_civita_connection,
    monopole_bundle,
    projection_section,
    random_equivariant_section,
    selfadjoint_defect,
    spectral_block,
    spin_rep,
    spinor_algebra,
    tangent_frame,
    torsion,
)
from test_dirac import geodesic_arc
from oracles import (OrbitAverage, coefficient_family, criteria_consistent, deriv,
                     grade_compressed_square, kernel_count, metric_estimate, orbit_vector,
                     random_element, value)


SEED = 20250810


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def unit_spinor(group):
    alg = spinor_algebra(group)
    return Constant(Codomain.clifford(alg), alg.unit(), group=group)


def band_limited_spinor(group, rng, two_j):
    alg = spinor_algebra(group)
    const = Constant(Codomain.clifford(alg), rng.standard_normal(alg.n), group=group)
    if two_j == 0:
        raw = const
    else:
        rep = spin_rep(group, two_j)
        raw = Scale(const, RealPart(MatrixCoefficient(
            rep, rng.standard_normal(rep.dim), rng.standard_normal(rep.dim))))
    return OrbitAverage(raw, CliffordKRep(group, alg), group)


def invariant_scalar(group, rng, two_j=2):
    rep = spin_rep(group, two_j)
    f = MatrixCoefficient(rep, rng.standard_normal(rep.dim), rng.standard_normal(rep.dim))
    return RealPart(OrbitAverage(f, TrivialKRep(group), group))


def test_criterion_1_frames_and_projectivity(sphere):
    rng = np.random.default_rng(SEED)
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 200))
    worst_rep, worst_proj = 0.0, 0.0
    count = 0
    for two_level in range(5):  # ambient spins up to 2
        for charge in range(-two_level, two_level + 1, 2):
            bundle = monopole_bundle(sphere, charge, two_level)
            frame = bundle.frame
            xi = random_equivariant_section(bundle, rng)
            recon = Sum([Scale(eta, AInner(eta, xi)) for eta in frame])
            worst_rep = max(worst_rep, float(
                np.abs(recon.values(pts) - xi.values(pts)).max()))
            pv = projection_section(bundle).values(pts)
            worst_proj = max(worst_proj, float(
                np.abs(np.einsum("nij,njk->nik", pv, pv) - pv).max()))
            count += 1
    ok = worst_rep <= 1e-10 and worst_proj <= 1e-11
    report("criterion-1 frame/projectivity",
           ok, f"{count} bundles, reproducing {worst_rep:.2e} (tol 1e-10), "
               f"projection {worst_proj:.2e} (tol 1e-11)")


def test_criterion_2_endomorphism_reconstruction(sphere):
    rng = np.random.default_rng(SEED + 1)
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 60))
    worst = 0.0
    for bundle in (monopole_bundle(sphere, 1, 3), monopole_bundle(sphere, 2, 4)):
        frame = bundle.frame
        for _ in range(10):
            t = RankOne(random_equivariant_section(bundle, rng),
                              random_equivariant_section(bundle, rng))
            recon = Sum([RankOne(OpApply(t, fj), fj) for fj in frame])
            worst = max(worst, float(np.abs(recon.values(pts) - t.values(pts)).max()))
    report("criterion-2 endomorphism reconstruction",
           worst <= 1e-10, f"20 endomorphisms, residual {worst:.2e} (tol 1e-10)")


def test_criterion_3_tangent_suite(sphere, full_group):
    rng = np.random.default_rng(SEED + 2)
    worst_frame, worst_norm, worst_bracket = 0.0, 0.0, 0.0
    for group in (sphere, full_group):
        pts = EvalPoints.of(group, group.random_elements(rng, 100))
        frame = tangent_frame(group)
        w = Sum([Scale(frame[0], invariant_scalar(group, rng)), frame[2]])
        recon = Sum([Scale(fj, AInner(fj, w)) for fj in frame])
        worst_frame = max(worst_frame, float(
            np.abs(recon.values(pts) - w.values(pts)).max()))
        norms = Sum([AInner(fj, fj) for fj in frame])
        worst_norm = max(worst_norm, float(
            np.abs(norms.values(pts) - group.m_dim).max()))
        # commutators of fundamental derivations against the bracket field
        from homogdirac import lambda_deriv
        f = invariant_scalar(group, rng)
        for _ in range(4):
            a, b = group.random_algebra(rng), group.random_algebra(rng)
            comm = Sum([lambda_deriv(lambda_deriv(f, b), a),
                        lambda_deriv(lambda_deriv(f, a), b)], [1.0, -1.0])
            field = FundamentalField(group, group.bracket(a, b))
            for x in group.random_elements(rng, 10):
                direction = group.from_m(value(field, x).real)
                worst_bracket = max(worst_bracket, abs(
                    complex(value(comm, x)) - complex(deriv(f, x, direction))))
    ok = worst_frame <= 1e-10 and worst_norm <= 1e-10 and worst_bracket <= 1e-10
    report("criterion-3 tangent suite", ok,
           f"frame {worst_frame:.2e}, norm-sum {worst_norm:.2e}, "
           f"bracket {worst_bracket:.2e} (tol 1e-10)")


def test_criterion_4_connection_suite(sphere, full_group):
    rng = np.random.default_rng(SEED + 3)
    worst_leib, worst_inv, worst_lc = 0.0, 0.0, 0.0
    for group in (sphere, full_group):
        pts = EvalPoints.of(group, group.random_elements(rng, 40))
        frame = tangent_frame(group)
        lc = levi_civita_connection(group)
        nab0 = canonical_connection(group)
        xi = FundamentalField(group, group.random_algebra(rng))
        eta = FundamentalField(group, group.random_algebra(rng))
        from homogdirac.geometry import ApplyConnection
        for wj in frame:
            lhs = ApplyConnection(lc, wj, AInner(xi, eta)).values(pts)
            rhs = (AInner(ApplyConnection(lc, wj, xi), eta).values(pts)
                   + AInner(xi, ApplyConnection(lc, wj, eta)).values(pts))
            worst_leib = max(worst_leib, float(np.abs(lhs - rhs).max()))
        y = random_element(group, rng)
        from homogdirac import Translate
        lhs = Translate(ApplyConnection(nab0, xi, eta), y).values(pts)
        rhs = ApplyConnection(nab0, Translate(xi, y), Translate(eta, y)).values(pts)
        worst_inv = max(worst_inv, float(np.abs(lhs - rhs).max()))
        worst_lc = max(worst_lc, float(np.abs(torsion(lc, xi, eta).values(pts)).max()))

    # canonical torsion on the trivial-subgroup quotient: the projected
    # bracket, nonzero, with the expected value on the first two axes
    g = full_group
    pts = EvalPoints.of(g, g.random_elements(rng, 40))
    v = FundamentalField(g, g.random_algebra(rng))
    w = FundamentalField(g, g.random_algebra(rng))
    tv = torsion(canonical_connection(g), v, w).values(pts)
    vv, wv = v.values(pts), w.values(pts)
    expect = -np.stack([g.bracket_m(vv[n].real, wv[n].real) for n in range(pts.n)])
    worst_formula = float(np.abs(tv - expect).max())
    w1, w2 = tangent_frame(g)[0], tangent_frame(g)[1]
    t12 = torsion(canonical_connection(g), w1, w2)
    e_val = value(t12, g.identity()).real
    value_ok = np.linalg.norm(e_val + np.eye(3)[2]) <= 1e-10  # -P[X1,X2] = -X3
    norm_ok = np.linalg.norm(t12.values(pts), axis=1).max() >= 0.1
    ok = (worst_leib <= 1e-9 and worst_inv <= 1e-9 and worst_lc <= 1e-10
          and worst_formula <= 1e-10 and value_ok and norm_ok)
    report("criterion-4 connection suite", ok,
           f"leibniz {worst_leib:.2e} (1e-9), invariance {worst_inv:.2e} (1e-9), "
           f"lc-torsion {worst_lc:.2e} (1e-10), canonical formula {worst_formula:.2e} "
           f"(1e-10), identity value {'ok' if value_ok else 'bad'}, "
           f"nonzero {'ok' if norm_ok else 'bad'}")


def test_criterion_5_dirac_suite(sphere, full_group, rule8, rule8_full):
    rng = np.random.default_rng(SEED + 4)
    # pointwise identities on both catalog spaces
    worst_comm, worst_frame, worst_lambda = 0.0, 0.0, 0.0
    for group, rule in ((sphere, rule8), (full_group, rule8_full)):
        pts = EvalPoints.of(group, group.random_elements(rng, 25))
        lc = levi_civita_connection(group)
        phi = band_limited_spinor(group, rng, 2)
        f = invariant_scalar(group, rng)
        for conn in (canonical_connection(group), lc):
            worst_comm = max(worst_comm, commutator_defect(conn, f, phi, pts))
        base = hodge_dirac(lc, phi).values(pts)
        q, _ = np.linalg.qr(rng.standard_normal((group.dim, group.dim)))
        other = hodge_dirac(lc, phi, frame=tangent_frame(group, q.T)).values(pts)
        worst_frame = max(worst_frame, float(np.abs(base - other).max()))
        y = random_element(group, rng)
        lhs = Translate(hodge_dirac(lc, phi), y).values(pts)
        rhs = hodge_dirac(lc, Translate(phi, y), frame=tangent_frame(group)).values(pts)
        worst_lambda = max(worst_lambda, float(np.abs(lhs - rhs).max()))

    # the self-adjointness matrix on the trivial-subgroup quotient
    g, rule = full_group, rule8_full
    alg = spinor_algebra(g)
    pairs = [(unit_spinor(g), unit_spinor(g))]
    for a in range(3):
        vec = Constant(Codomain.clifford(alg), alg.embed_vector(np.eye(3)[a]), group=g)
        pairs.append((vec, unit_spinor(g)))
    while len(pairs) < 20:
        pairs.append((band_limited_spinor(g, rng, int(rng.integers(0, 3))),
                      band_limited_spinor(g, rng, int(rng.integers(0, 3)))))
    crit_pts = EvalPoints.of(g, g.random_elements(rng, 25))
    matrix = connection_test_matrix(g, rng)  # canonical, lc, 5 balanced, 5 violating
    assert len(matrix) == 12
    agree = 0
    passing_defect, violating_defect = 0.0, np.inf
    for name, conn in matrix:
        rep = criterion_check(conn, crit_pts)
        defect = selfadjoint_defect(conn, pairs, rule)
        if rep.passes:
            passing_defect = max(passing_defect, defect)
        else:
            violating_defect = min(violating_defect, defect)
        if criteria_consistent(rep) and (rep.passes == (defect <= 1e-8)):
            agree += 1
    # canonical and levi-civita on the sphere as well
    s_pairs = [(band_limited_spinor(sphere, rng, int(rng.integers(0, 3))),
                band_limited_spinor(sphere, rng, int(rng.integers(0, 3))))
               for _ in range(6)]
    sphere_defect = max(
        selfadjoint_defect(canonical_connection(sphere), s_pairs, rule8),
        selfadjoint_defect(levi_civita_connection(sphere), s_pairs, rule8))
    ok = (worst_comm <= 1e-9 and worst_frame <= 1e-10 and worst_lambda <= 1e-9
          and passing_defect <= 1e-8 and sphere_defect <= 1e-8
          and violating_defect >= 100 * 1e-8 and agree == 12)
    report("criterion-5 dirac suite", ok,
           f"commutator {worst_comm:.2e} (1e-9), frame {worst_frame:.2e} (1e-10), "
           f"translation {worst_lambda:.2e} (1e-9), passing defect "
           f"{max(passing_defect, sphere_defect):.2e} (1e-8), violating defect "
           f">= {violating_defect:.2e} (1e-6), verdict agreement {agree}/12")


def test_criterion_6_spectral_suite(sphere):
    lc = levi_civita_connection(sphere)
    reps = [spin_rep(sphere, 2 * level) for level in range(5)]
    blocks = [spectral_block(lc, rep) for rep in reps]
    closure = max(b.closure for b in blocks)
    worst_sym = 0.0
    for b in blocks:
        ev = np.sort(b.eigenvalues)
        worst_sym = max(worst_sym, float(np.abs(ev + ev[::-1]).max()))
    kernel = kernel_count(blocks, tol=1e-6)
    worst_casimir = 0.0
    for rep, b in zip(reps[1:], blocks[1:]):
        eigs = grade_compressed_square(b)
        oracle = casimir_value(rep)
        worst_casimir = max(worst_casimir, float(np.abs(eigs - oracle).max() / oracle))
    ok = (closure <= 1e-8 and worst_sym <= 1e-7 and kernel == 2
          and worst_casimir <= 1e-6)
    report("criterion-6 spectral suite", ok,
           f"closure {closure:.2e} (1e-8), symmetry {worst_sym:.2e} (1e-7), "
           f"kernel {kernel} (= 2), casimir rel {worst_casimir:.2e} (1e-6)")


def test_criterion_7_metric_estimator(sphere, rule8):
    # The degree-two coefficient family provably caps the normalized
    # separation at 2 sin(rho/2): restricted to the great circle any such
    # function is a degree-two trigonometric polynomial, whose extremal
    # window integral is the aligned first harmonic.  The 0.75 ratio is
    # therefore attainable exactly when 2 sin(rho/2) >= 0.75 rho, i.e.
    # rho <= 2.553; pairs are sampled uniformly within that validity range.
    rng = np.random.default_rng(SEED + 6)
    pairs = []
    while len(pairs) < 10:
        p, q = sphere.random_elements(rng, 2)
        geo = float(np.arccos(np.clip(
            np.dot(orbit_vector(sphere, p), orbit_vector(sphere, q)), -1.0, 1.0)))
        if geo <= 2.55:
            pairs.append((p, q, geo))
    upper_ok, lower_ok = True, True
    worst_ratio = np.inf
    for p, q, geo in pairs:
        chord = orbit_vector(sphere, p) - orbit_vector(sphere, q)
        fam = coefficient_family(sphere, max_two_j=4,
                                 vectors=[chord / np.linalg.norm(chord)])
        arc = geodesic_arc(sphere, p, q, 64)
        est = metric_estimate(sphere, p, q, fam, rule8, extra_points=arc)
        upper_ok = upper_ok and est <= geo + 1e-9
        lower_ok = lower_ok and est >= 0.75 * geo
        worst_ratio = min(worst_ratio, est / geo)
    ok = upper_ok and lower_ok
    report("criterion-7 metric estimator", ok,
           f"10 pairs, estimates within [0.75, 1] x geodesic "
           f"(worst ratio {worst_ratio:.3f})")
