"""The benchmark workloads: inputs from a seed, one operation, its oracle.

Each workload object has
  ``inputs(seed)``        -> the JSON-able inputs of one operation,
  ``run(hd, inputs)``     -> the operation's output (the timed part),
  ``oracle(hd, inputs, output)`` -> list of (check, passed, detail),
  ``digest(output)``      -> sha256 of the output, exact to the last bit.
``hd`` is a namespace holding the imported ``homogdirac`` modules.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SpectrumSphere:
    """`run_spectrum` on su2/u1 with the Levi-Civita connection.

    Large batches over few node types: the time goes to Dirac block assembly
    and block closure.  The spectrum does not depend on the seed.
    """

    name = "spectrum-sphere"
    levels = 5
    header = ["level", "index", "eigenvalue", "asymmetry_norm", "closure_residual"]

    def inputs(self, seed: int) -> dict:
        return {"group": "su2", "subgroup": "u1", "connection": "levi-civita",
                "levels": self.levels}

    def run(self, hd, inputs: dict):
        return hd.cli.run_spectrum(hd.cli.RunConfig(**inputs))

    def digest(self, rows: list) -> str:
        # of the same text the `spectrum` command writes
        lines = [",".join(self.header)]
        lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                  for row in rows]
        return _sha("\n".join(lines) + "\n")

    def oracle(self, hd, inputs: dict, rows: list) -> list:
        group = hd.groups.GroupModel.su2()
        by_level = {}
        for level, _, ev, _, _ in rows:
            by_level.setdefault(level, []).append(ev)
        levels = list(range(inputs["levels"] + 1))
        out = [("levels-present", sorted(by_level) == levels, sorted(by_level))]
        for level in levels[1:]:
            casimir = hd.dirac.casimir_value(hd.reps.spin_rep(group, 2 * level))
            evs = np.array(by_level.get(level, [np.nan]))
            err = float(np.max(np.abs(evs ** 2 - casimir)) / casimir)
            out.append((f"casimir-level-{level}", err <= 1e-6, err))
        for level in levels:
            evs = np.sort(np.array(by_level.get(level, [np.nan])))
            err = float(np.max(np.abs(evs + evs[::-1])))
            out.append((f"symmetry-level-{level}", err <= 1e-7, err))
        kernel = sum(1 for row in rows if abs(row[2]) < 1e-6)
        out.append(("kernel-count", kernel == 2, kernel))
        closure = max(row[4] for row in rows)
        out.append(("closure-residual", closure <= 1e-8, closure))
        return out


class VerifySphere:
    """`run_verify` on su2/u1, Clifford bundle, canonical connection.

    Small batches (100 points) through many small graph nodes: the time is
    per-node overhead and cache behaviour in `sections`.
    """

    name = "verify-sphere"
    expected_checks = 30

    def inputs(self, seed: int) -> dict:
        return {"group": "su2", "subgroup": "u1", "bundle": "clifford",
                "connection": "canonical", "quadrature_bandwidth": 8,
                "sample_count": 100, "seed": seed}

    def run(self, hd, inputs: dict):
        return hd.cli.run_verify(hd.cli.RunConfig(**inputs))["checks"]

    def digest(self, checks: list) -> str:
        return _sha(json.dumps([[c["anchor"], repr(c["residual"]), c["samples"], c["pass"]]
                                for c in checks]))

    def oracle(self, hd, inputs: dict, checks: list) -> list:
        out = [("check-count", len(checks) == self.expected_checks, len(checks))]
        out += [(c["anchor"], bool(c["pass"]), c["residual"]) for c in checks]
        return out


class SelfadjointMatrix:
    """The twelve-connection self-adjointness matrix on su2-trivial-k.

    `criterion_check` on 100 Haar samples and `selfadjoint_defect` on 8
    band-limited spinor pairs, for every connection, against one shared
    `haar_rule(8)`: repeated `l2_inner` calls on one rule.
    """

    name = "selfadjoint-matrix"
    bandwidth = 8
    samples = 100
    pairs = 8

    def inputs(self, seed: int) -> dict:
        return {"group": "su2-trivial-k", "quadrature_bandwidth": self.bandwidth,
                "sample_count": self.samples, "spinor_pairs": self.pairs, "seed": seed}

    @staticmethod
    def spinor(hd, group, algebra, rng):
        """A random equivariant spinor of spin at most one."""
        s = hd.sections
        parts = []
        for _ in range(2):
            c = s.Constant(s.Codomain.clifford(algebra), rng.standard_normal(algebra.n),
                           group=group)
            two_j = int(rng.integers(0, 3))
            if two_j:
                rep = hd.reps.spin_rep(group, two_j)
                c = s.Scale(c, s.RealPart(s.MatrixCoefficient(
                    rep, rng.standard_normal(rep.dim), rng.standard_normal(rep.dim))))
            parts.append(c)
        return s.KAverage(s.Sum(parts), s.CliffordKRep(group, algebra), group)

    def run(self, hd, inputs: dict):
        group = hd.groups.GroupModel.su2_trivial_k()
        rng = np.random.default_rng(inputs["seed"])
        rule = group.haar_rule(inputs["quadrature_bandwidth"])
        connections = hd.dirac.connection_test_matrix(group, rng)
        pts = hd.sections.EvalPoints.of(group, group.random_elements(rng, inputs["sample_count"]))
        algebra = hd.dirac.spinor_algebra(group)
        pairs = [(self.spinor(hd, group, algebra, rng), self.spinor(hd, group, algebra, rng))
                 for _ in range(inputs["spinor_pairs"])]
        rows = []
        for name, conn in connections:
            report = hd.dirac.criterion_check(conn, pts)
            defect = hd.dirac.selfadjoint_defect(conn, pairs, rule)
            rows.append((name, report.passes, report.torsion_trace_max,
                         report.correction_sum_residual, defect))
        return rows

    def digest(self, rows: list) -> str:
        return _sha(json.dumps([[r[0], r[1]] + [repr(v) for v in r[2:]] for r in rows]))

    def oracle(self, hd, inputs: dict, rows: list) -> list:
        out = [("connection-count", len(rows) == 12, len(rows))]
        for name, passes, _, _, defect in rows:
            # the verdict must agree with the measured pairing defect and
            # with how the connection was built
            agrees = defect <= 1e-8 if passes else defect >= 1e-6
            expected = not name.startswith("violating")
            out.append((f"criterion-{name}", agrees and passes == expected, defect))
        return out


WORKLOADS = {w.name: w for w in (SpectrumSphere(), VerifySphere(), SelfadjointMatrix())}
