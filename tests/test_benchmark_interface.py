"""The benchmark's workloads, run once in process against the package.

``perfbench/`` reaches the package only through its workloads; a change to
a call they make (``KAverage``, ``random_elements``, ``run_verify``, ...)
should fail here rather than in a benchmark run.  So should a change that
makes a traced operation differ from an untraced one, which the benchmark
counts as a failed check.  The benchmark's files are loaded read-only, as
its worker loads them.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
worker = _load("worker")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_oracle_at_seed_7(name):
    workload = workloads.WORKLOADS[name]
    hd = worker.import_program()
    inputs = workload.inputs(7)
    output = workload.run(hd, inputs)
    failed = [(check, detail) for check, ok, detail in workload.oracle(hd, inputs, output)
              if not ok]
    assert not failed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_matches_its_untraced_digest_at_seed_7(name):
    """Wrapping every layer function changes no output, and uninstalling puts each one back."""
    workload = workloads.WORKLOADS[name]
    hd = worker.import_program()
    inputs = workload.inputs(7)
    untraced = workload.digest(workload.run(hd, inputs))
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    try:
        output, root = tracer.run_operation(workload.run, hd, inputs)
    finally:
        restored = tracer.uninstall()
    assert restored
    assert root[0] == tracing.ROOT and len(tracer.spans) > 1
    assert workload.digest(output) == untraced


def test_selfadjoint_matrix_defect_builds_no_batch(monkeypatch):
    """The selfadjoint-matrix defect call, on the workload's spinors and with its rule, reads
    the isotypic blocks: it builds no evaluation batch, not even the rule's own."""
    hd = worker.import_program()
    workload = workloads.WORKLOADS["selfadjoint-matrix"]
    group = hd.groups.GroupModel.su2_trivial_k()
    algebra = hd.dirac.spinor_algebra(group)
    rng = np.random.default_rng(7)
    pairs = [(workload.spinor(hd, group, algebra, rng), workload.spinor(hd, group, algebra, rng))
             for _ in range(2)]
    # KAverage over the trivial subgroup returns its child, the workload's sum of parts
    assert all(isinstance(s, hd.sections.Sum) and s.group is group for pair in pairs for s in pair)
    rule = group.haar_rule(workload.bandwidth)

    def refuse(*args):
        raise AssertionError("the defect built an evaluation batch")
    monkeypatch.setattr(hd.sections.EvalPoints, "__init__", refuse)
    hd.dirac.selfadjoint_defect(hd.dirac.canonical_connection(group), pairs, rule)
    assert rule.points is None


def test_selfadjoint_matrix_criterion_evaluates_no_node(monkeypatch):
    """The workload's call criterion_check(conn, pts) reads the connection's tensors: it
    evaluates no node on its sample batch, and gives the report of criterion_check(conn)."""
    hd = worker.import_program()
    group = hd.groups.GroupModel.su2_trivial_k()
    rng = np.random.default_rng(7)
    connections = hd.dirac.connection_test_matrix(group, rng)
    pts = hd.sections.EvalPoints.of(group, group.random_elements(rng, 100))

    def refuse(*args):
        raise AssertionError("the criterion evaluated a node")
    monkeypatch.setattr(hd.sections.EvalPoints, "node_values", refuse)
    for name, conn in connections:
        assert hd.dirac.criterion_check(conn, pts) == hd.dirac.criterion_check(conn), name
