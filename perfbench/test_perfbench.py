"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import math
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


class SelfTimeTest(unittest.TestCase):
    # root [0,10] > x.f [1,6] > y.g [2,4] > x.f [2.5,3.5];  root > x.h [7,9]
    SPANS = [
        ["trace.operation", -1, 0.0, 10.0, True],
        ["x.f", 0, 1.0, 6.0, True],
        ["y.g", 1, 2.0, 4.0, True],
        ["x.f", 2, 2.5, 3.5, False],
        ["x.h", 0, 7.0, 9.0, True],
    ]

    def test_self_time_of_nested_spans(self):
        stats = tracing.span_stats(self.SPANS)
        self.assertEqual(dict(stats["self_s"]), {"trace": 3.0, "x": 6.0, "y": 1.0})
        self.assertEqual(sum(stats["self_s"].values()), 10.0)
        # the recursive inner x.f is inside the outer one: counted once in time
        self.assertEqual(stats["inclusive"]["x.f"], 5.0)
        self.assertEqual(stats["calls"]["x.f"], 2)

    def test_wrapper_records_nesting_and_recursion(self):
        tracer = tracing.Tracer(clock=fake_clock())

        def inner(n):
            return n if n == 0 else traced_inner(n - 1)

        traced_inner = tracer.wrap(inner, "x.inner")
        traced_outer = tracer.wrap(lambda: traced_inner(1), "y.outer")
        result, root = tracer.run_operation(traced_outer)
        self.assertEqual(result, 0)
        names = [(s[0], s[1], s[4]) for s in tracer.spans]
        self.assertEqual(names, [("trace.operation", -1, True), ("y.outer", 0, True),
                                 ("x.inner", 1, True), ("x.inner", 2, False)])
        metrics = tracing.span_stats(tracer.spans)
        self.assertEqual(sum(metrics["self_s"].values()), root[3] - root[2])


class InstallTest(unittest.TestCase):
    def test_install_wraps_every_namespace_and_restore_puts_originals_back(self):
        import numpy as np

        import homogdirac
        from homogdirac import checks, cliffordalg, dirac

        originals = {"dirac": dirac.hodge_dirac, "checks": checks.hodge_dirac,
                     "package": homogdirac.hodge_dirac, "mul": vars(cliffordalg.CliffordAlgebra)["mul"],
                     "eigvalsh": np.linalg.eigvalsh}
        tracer = tracing.Tracer()
        self.assertGreater(tracer.install(), 100)
        try:
            self.assertIsNot(dirac.hodge_dirac, originals["dirac"])
            self.assertIs(checks.hodge_dirac, dirac.hodge_dirac)
            self.assertIs(homogdirac.hodge_dirac, dirac.hodge_dirac)
            algebra = cliffordalg.CliffordAlgebra(2)
            tracer.run_operation(algebra.mul, np.ones((3, 4)), np.ones(4))
            np.linalg.eigvalsh(np.eye(2))  # outside spectral_block: not recorded
        finally:
            self.assertTrue(tracer.uninstall())
        self.assertIs(dirac.hodge_dirac, originals["dirac"])
        self.assertIs(checks.hodge_dirac, originals["checks"])
        self.assertIs(homogdirac.hodge_dirac, originals["package"])
        self.assertIs(vars(cliffordalg.CliffordAlgebra)["mul"], originals["mul"])
        self.assertIs(np.linalg.eigvalsh, originals["eigvalsh"])
        names = [s[0] for s in tracer.spans]
        self.assertIn("cliffordalg.mul", names)
        self.assertNotIn("dirac.eigensolve", names)
        self.assertEqual(tracer.counters["cliffordalg.mul.products"], 3)
        self.assertEqual(tracer.counters["cliffordalg.mul.macs_computed"], 3 * 4 ** 3)


def spectrum_rows(levels):
    """CSV rows of the exact spectrum: 0, 0 at level 0, then +-sqrt(l(l+1))."""
    rows = [(0, 0, 0.0, 0.0, 0.0), (0, 1, 0.0, 0.0, 0.0)]
    for level in range(1, levels + 1):
        ev = math.sqrt(level * (level + 1))
        rows += [(level, 0, -ev, 0.0, 0.0), (level, 1, ev, 0.0, 0.0)]
    return rows


def spectrum_op(rows):
    """One untraced operation record whose checks are the oracle's on `rows`."""
    import homogdirac
    from homogdirac import dirac, groups, reps

    hd = SimpleNamespace(package=homogdirac, dirac=dirac, groups=groups, reps=reps)
    wl = workloads.SpectrumSphere()
    checks = wl.oracle(hd, wl.inputs(0), rows)
    return {"seed": 0, "untraced": {"checks": checks, "wall_s": 1.0, "peak_rss_mb": 1.0,
                                    "digest": "a"}}


class OracleTest(unittest.TestCase):
    def test_exact_spectrum_passes(self):
        result = run.summarize([spectrum_op(spectrum_rows(5))], trace=False, setup=[0.1])
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])

    def test_failing_check_is_counted_in_fail_ratio(self):
        rows = spectrum_rows(5)
        level, idx, ev, asym, closure = rows[6]
        rows[6] = (level, idx, ev * (1 + 1e-3), asym, closure)  # level 3 leaves its Casimir
        good = spectrum_op(spectrum_rows(5))
        bad = spectrum_op(rows)
        failed = sorted(name for name, ok, _ in bad["untraced"]["checks"] if not ok)
        self.assertEqual(failed, ["casimir-level-3", "symmetry-level-3"])
        result = run.summarize([good, bad], trace=False, setup=[0.1])
        self.assertEqual(result["failed"], 2)
        self.assertEqual(result["attempted"], 2 * len(bad["untraced"]["checks"]))
        self.assertFalse(result["correct"])
        self.assertIn("wall_s", result["metrics"])

    def test_traced_output_must_match_untraced(self):
        op = spectrum_op(spectrum_rows(5))
        op["traced"] = dict(op["untraced"], digest="b",
                            layers={name: 0 for name, _, _ in tracing.PER_LAYER})
        result = run.summarize([op], trace=True, setup=[])
        self.assertEqual(result["failed"], 1)
        self.assertIn("trace.overhead_s", result["metrics"])


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_runs_print(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        op = spectrum_op(spectrum_rows(5))
        untraced = run.summarize([op], trace=False, setup=[0.1])["metrics"]
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: v["unit"] for k, v in untraced.items()})
        op["traced"] = dict(op["untraced"], layers={name: 0 for name, _, _ in tracing.PER_LAYER})
        traced = run.summarize([op], trace=True, setup=[])["metrics"]
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: v["unit"] for k, v in traced.items()})


if __name__ == "__main__":
    unittest.main()
