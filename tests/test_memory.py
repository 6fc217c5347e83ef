"""Retained memory stays flat over repeated evaluations on one shared rule.

A quadrature rule keeps its evaluation points for its lifetime; the
values cached there must not outlive the section graphs they belong to.
Retained memory is what tracemalloc still counts after a full collection.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from homogdirac import (
    CliffordKRep,
    Codomain,
    Constant,
    EvalPoints,
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
    l2_inner,
    levi_civita_connection,
    minimal_violating_connection,
    selfadjoint_defect,
    spectral_block,
    spin_rep,
    spinor_algebra,
    tangent_bundle,
)
from homogdirac.cli import RunConfig, run_spectrum, run_verify
from oracles import OrbitAverage, direct_sum, random_element, rule_stack

# a leak here holds tens of KB per call (one translated batch, or one
# graph's node values, over the rule's nodes); the allowance is for
# bookkeeping of a few dozen bytes per call
_GROWTH_BYTES = 16 * 1024


def _retained_growth(fn, calls: int = 6) -> int:
    """Bytes retained after the last call beyond those after the first."""
    tracemalloc.start()
    try:
        retained = []
        for _ in range(calls):
            fn()
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    return retained[-1] - retained[0]


def _spinor(group, algebra, rng):
    parts = []
    for _ in range(2):
        c = Constant(Codomain.clifford(algebra), rng.standard_normal(algebra.n), group=group)
        rep = spin_rep(group, 2)
        parts.append(Scale(c, RealPart(MatrixCoefficient(
            rep, rng.standard_normal(rep.dim), rng.standard_normal(rep.dim)))))
    return OrbitAverage(Sum(parts), CliffordKRep(group, algebra), group)


def test_selfadjoint_defect_retains_nothing_per_call(full_group, rng):
    rule = full_group.haar_rule(4)
    algebra = spinor_algebra(full_group)
    conn = minimal_violating_connection(full_group)
    pairs = [(_spinor(full_group, algebra, rng), _spinor(full_group, algebra, rng))]
    growth = _retained_growth(lambda: selfadjoint_defect(conn, pairs, rule))
    assert growth < _GROWTH_BYTES


def test_selfadjoint_defect_on_fresh_spinors_retains_nothing_per_call(sphere, rng):
    """Each call reads the blocks up to new spinors' bandwidth and keeps nothing of them."""
    rule = sphere.haar_rule(4)
    algebra = spinor_algebra(sphere)
    conn = canonical_connection(sphere)
    growth = _retained_growth(lambda: selfadjoint_defect(
        conn, [(_spinor(sphere, algebra, rng), _spinor(sphere, algebra, rng))], rule))
    assert growth < _GROWTH_BYTES


def test_cache_entries_die_with_their_keys(sphere, rng):
    """A node's value and Jacobian entries, a matrix coefficient's rows, and an action's basis
    entry, are dropped with their key: the rows with their coefficient and with the batch."""
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 5))
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    kept = [weakref.ref(f.values(pts)), weakref.ref(f.frame_derivs(pts)),
            weakref.ref(f.children[0]), weakref.ref(pts._vals[f.children[0]])]
    assert f in pts._vals and f in pts._jac
    batch = EvalPoints.of(sphere, sphere.random_elements(rng, 3))
    f.values(batch)
    on_batch = weakref.ref(batch._vals[f.children[0]])
    del batch
    gc.collect()
    assert on_batch() is None and f.children[0] in pts._vals  # the rows die with the batch
    krep = TangentKRep(sphere)
    other = direct_sum(spin_rep(sphere, 1))  # a representation only this test holds
    kept.append(weakref.ref(krep.basis(other)))
    assert other in krep._memo
    gc.collect()  # the action is shared, so first drop entries other tests left to the collector
    entries = len(krep._memo)
    del f, other
    gc.collect()
    assert all(r() is None for r in kept)
    assert (len(pts._vals), len(pts._jac), len(krep._memo)) == (0, 0, entries - 1)


def test_frame_jacobian_dies_with_its_node_and_with_its_batch(sphere, rng):
    algebra = spinor_algebra(sphere)
    pts = EvalPoints.of(sphere, sphere.random_elements(rng, 5))
    phi = _spinor(sphere, algebra, rng)
    jac = weakref.ref(phi.frame_derivs(pts))
    assert phi.frame_derivs(pts) is jac()  # one entry per node and batch
    assert jac().shape == (sphere.m_dim, 5, algebra.n)
    del phi
    gc.collect()
    assert jac() is None
    phi = _spinor(sphere, algebra, rng)
    jac = weakref.ref(phi.frame_derivs(pts))
    del pts
    gc.collect()
    assert jac() is None


def test_translated_l2_inner_retains_nothing_per_call(sphere, rng):
    rule = sphere.haar_rule(4)
    rep = spin_rep(sphere, 2)
    f = MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3))
    one = Constant(Codomain.scalar(), 1.0, group=sphere)
    growth = _retained_growth(
        lambda: l2_inner(one, Translate(f, random_element(sphere, rng)), rule))
    assert growth < _GROWTH_BYTES


def test_batch_with_orbit_dies_with_its_last_reference(sphere, rng, monkeypatch):
    """A batch and the orbit batches a subgroup average builds on it form no cycle: no cyclic
    collection is needed to free them."""
    built = []  # weak references to each orbit batch built
    orbit = OrbitAverage._orbit

    def tracked(self, pts):
        batch = orbit(self, pts)
        built.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(OrbitAverage, "_orbit", tracked)
    rep = spin_rep(sphere, 2)
    f = OrbitAverage(MatrixCoefficient(rep, rng.standard_normal(3), rng.standard_normal(3)),
                 TrivialKRep(sphere), sphere)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        pts = EvalPoints.of(sphere, sphere.random_elements(rng, 4))
        f.values(pts)
        f.derivs(pts, rng.standard_normal((4, 3)))
        assert len(built) == 2
        batch = weakref.ref(pts)
        del pts
        assert batch() is None and all(r() is None for r in built)
    finally:
        if was_enabled:
            gc.enable()


def test_group_keeps_one_representation_per_spin_and_dies_with_them():
    group = GroupModel.su2()
    algebra = spinor_algebra(group)
    assert spin_rep(group, 3) is spin_rep(group, 3)
    assert CliffordKRep(group, algebra) is CliffordKRep(group, algebra)
    rule_stack(CliffordKRep(group, algebra))
    assert adjoint_rep(group) is adjoint_rep(group)
    assert TangentKRep(group) is TangentKRep(group)
    rule_stack(TangentKRep(group))
    assert spin_rep(group, 0) is spin_rep(group, 0)  # the trivial irrep, which the group keeps
    ref = weakref.ref(group)
    kept = [weakref.ref(adjoint_rep(group)), weakref.ref(TangentKRep(group)),
            weakref.ref(spin_rep(group, 0))]
    del group
    gc.collect()
    assert ref() is None
    assert all(r() is None for r in kept)


def test_invariant_bases_are_solved_once_and_die_with_the_group():
    """One basis per (action, representation), kept no longer than the group."""
    group = GroupModel.su2()
    algebra = spinor_algebra(group)
    kreps = [TrivialKRep(group), TangentKRep(group), CliffordKRep(group, algebra),
             tangent_bundle(group).krep]
    reps = [spin_rep(group, 1), spin_rep(group, 2)]  # the group keeps them only while we do
    kept = []
    for krep in kreps:
        for rep in reps:
            basis = krep.basis(rep)
            assert krep.basis(rep) is basis
            kept.append(weakref.ref(basis))
    assert TrivialKRep(group) is kreps[0]  # one trivial action per group
    assert TrivialKRep(group).basis(reps[1]) is kept[1]()
    ref = weakref.ref(group)
    del group, kreps, krep, basis, reps, rep
    gc.collect()
    assert ref() is None
    assert all(r() is None for r in kept)


def test_a_kept_canonical_part_dies_with_its_representation():
    """Every connection's block reads one canonical-frame part per representation, kept with
    the Clifford action, and the part dies with its representation without a cyclic
    collection, while the trivial irrep's stays with the group."""
    group = GroupModel.su2()
    krep = CliffordKRep(group, spinor_algebra(group))
    rep = spin_rep(group, 4)  # only this test holds it
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        first = spectral_block(levi_civita_connection(group), rep)
        spectral_block(canonical_connection(group), spin_rep(group, 0))
        assert spectral_block(canonical_connection(group), rep).grades is first.grades
        kept = [weakref.ref(a) for a in krep._memo[rep]["D_0"]
                if isinstance(a, np.ndarray)]
        assert len(kept) == 4 and len(krep._memo) == 2
        del first, rep
        assert all(r() is None for r in kept)
        assert list(krep._memo) == [spin_rep(group, 0)]
    finally:
        if was_enabled:
            gc.enable()


def test_spectral_blocks_hold_one_copy_per_level(sphere):
    """Levels 0-50 of the sphere hold under 1 MB of block arrays: no dim(rho)-fold expansion."""
    lc = levi_civita_connection(sphere)
    blocks = [spectral_block(lc, spin_rep(sphere, 2 * level)) for level in range(51)]
    held = sum(b.matrix.nbytes + b.grades.nbytes + b.eigenvalues.nbytes for b in blocks)
    assert held < 1 << 20
    assert sum(b.dim for b in blocks) == 2 + sum(4 * (2 * level + 1) for level in range(1, 51))


@pytest.mark.parametrize("config", [
    dict(bundle="clifford", seed=7), dict(bundle="tangent", seed=9),
    dict(bundle="monopole", charge=1, seed=5),
    dict(subgroup="trivial", connection="levi-civita", seed=3),
], ids=["clifford", "tangent", "monopole", "trivial-k-levi-civita"])
def test_verify_builds_no_orbit_batch(config, monkeypatch):
    """Equivariant sections are projected coefficients: no check builds a subgroup average,
    through the package's KAverage or any layer's binding of it."""
    import homogdirac
    from homogdirac import bundles, checks, dirac, geometry, sections

    def refuse(*args):
        raise AssertionError("verify built a subgroup average")

    for module in (homogdirac, sections, bundles, geometry, dirac, checks):
        if hasattr(module, "KAverage"):
            monkeypatch.setattr(module, "KAverage", refuse)
    assert run_verify(RunConfig(group="su2", **config))["pass"] is True


def test_a_spectrum_run_leaves_no_spin_rep_on_the_group(monkeypatch):
    """The group keeps a spin representation other than the trivial irrep only while a user
    holds it: once a spectrum run has built its blocks, levels 0-20, none but spin 0 is left on
    its group, without a cyclic collection."""
    made = []
    make = RunConfig.make_group
    monkeypatch.setattr(RunConfig, "make_group", lambda self: made.append(make(self)) or made[-1])
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rows = run_spectrum(RunConfig(group="su2", levels=20, connection="levi-civita"))
    finally:
        if was_enabled:
            gc.enable()
    (group,) = made
    assert len(rows) == 2 + sum(4 * (2 * level + 1) for level in range(1, 21))
    assert len(group.memo("spin_reps", weakref.WeakValueDictionary)) == 0


def test_a_verify_run_builds_each_representation_once(monkeypatch):
    """One su2/u1 clifford canonical run holds the spin representations its checks draw from,
    so no check rebuilds one that an earlier check dropped: 8 distinct representations, each
    built once (13 builds when the helpers' representations died between checks)."""
    from homogdirac import UnitaryRep
    built = []
    init = UnitaryRep.__init__

    def counted(self, group, generators, name, *args, **kwargs):
        built.append(name)
        init(self, group, generators, name, *args, **kwargs)
    monkeypatch.setattr(UnitaryRep, "__init__", counted)
    assert run_verify(RunConfig(group="su2", bundle="clifford", connection="canonical",
                                seed=7))["pass"] is True
    assert len(built) == len(set(built)) == 8
