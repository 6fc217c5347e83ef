"""Configuration-driven command line frontend.

Three subcommands, each accepting only the settings it reads (``_READS``) as flags or as
``[run]`` keys of a ``--config`` file (explicit flags win); any other exits 2, naming it.
``--subgroup`` defaults to the group's own; one the group contradicts, or any given with a
group file (whose ``[group] subgroup`` decides), exits 2 naming ``subgroup``, and a
``--level`` below -1 (the minimal level) exits 2 naming ``level``.

* ``verify``   -- run the invariant checks applicable to the configured
  group/bundle/connection and emit a JSON report, one entry per check
  with its residual, tolerance and verdict.  Exit status 1 if any check
  fails, 2 on configuration errors.  It reads every setting but ``--levels``, and
  alone reads a config file's ``[tolerances]``.  ``--stats PATH`` writes each check's
  wall time and retained bytes to a JSON sidecar, leaving the report deterministic.
* ``spectrum`` -- assemble the isotypic blocks of the Hodge-Dirac
  operator up to the highest level ``--levels`` and emit them as CSV,
  ordered by level and ascending eigenvalue.  The blocks are closed form,
  drawing no sample; the closure column is the worst in-block leakage of D.
  They act on the Clifford bundle over a circle quotient: it reads the group,
  subgroup, connection, ``--levels`` and ``--out``, and a subgroup that is not
  a circle exits 2 naming the field.  ``--stats PATH`` writes the blocks'
  wall times by level to a JSON sidecar.
* ``monopole`` -- sample the projection and frame Gram matrices of a
  monopole bundle at Haar-random points and emit them as CSV rows
  (Euler angles followed by row-major real/imaginary entries).  The
  angles are drawn one sample at a time and the points evaluated as one
  batch.  It reads the group, subgroup, ``--charge``, ``--level``,
  ``--sample-count``, ``--seed`` and ``--out``.

All randomness is drawn from the configured seed, so identical
configurations produce byte-identical outputs.  No command starts a thread of its
own; numpy's BLAS keeps its default thread count unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set, and ``HOMOG_DIRAC_THREADS`` has no effect.

Evaluation caches live no longer than the objects they serve: ``verify``
keeps its quadrature rule for its whole run, and with it the rule's
evaluation points and the representations they hold stacks of, while the
values cached there for a section graph go away with that graph.
``spectrum`` holds a level's spin representation only while it builds
that level's block.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks as _checks
from .dirac import spectral_block
from .geometry import Connection, canonical_connection, levi_civita_connection
from .groups import GroupModel, parse_value
from .bundles import frame_gram, monopole_bundle, projection_section
from .reps import spin_rep
from .sections import EvalPoints

__all__ = ["RunConfig", "load_config", "run_verify", "run_spectrum", "run_monopole", "main"]

_BUNDLES = ("clifford", "monopole", "tangent")
_INT_KEYS = ("charge", "level", "quadrature_bandwidth", "sample_count", "seed", "levels")
_HELP = {  # of each setting's flag: --out for output, --name-with-dashes for the others
    "group": "group name or group config file",
    "subgroup": "subgroup name (u1 | trivial); default: the group's own",
    "bundle": "tangent | clifford | monopole",
    "charge": "monopole charge (twice the weight)",
    "level": "monopole ambient level (twice the spin)",
    "connection": "canonical | levi-civita | gamma file",
    "levels": "highest isotypic level",
    "output": "output path (stdout if omitted)",
}
_READS = {  # the settings, as flags and [run] keys, that each command reads and accepts
    "verify": ("group", "subgroup", "bundle", "charge", "level", "connection",
               "quadrature_bandwidth", "sample_count", "seed", "output"),
    "spectrum": ("group", "subgroup", "connection", "levels", "output"),
    "monopole": ("group", "subgroup", "charge", "level", "sample_count", "seed", "output"),
}
_OWN_SUBGROUPS = {"su2": "u1", "su2-trivial-k": "trivial"}  # of each catalog group


@dataclass
class RunConfig:
    """Everything a command needs; mirrors the CLI flags."""

    group: str = "su2"
    subgroup: str | None = None  # None: the group's own
    bundle: str = "clifford"
    charge: int = 1
    level: int = -1  # ambient level; -1 means minimal
    connection: str = "canonical"
    quadrature_bandwidth: int = 8
    sample_count: int = 100
    seed: int = 0
    levels: int = 4
    tolerances: dict = field(default_factory=dict)
    output: str | None = None

    def validate(self) -> "RunConfig":
        """Reject out-of-range fields and unknown tolerance keys, naming them; returns self."""
        for key in self.tolerances:
            if key not in _checks.ANCHORS:
                raise ValueError(f"tolerance key {key!r} names no check anchor")
        if self.bundle not in _BUNDLES:
            raise ValueError(f"bundle must be one of {', '.join(_BUNDLES)}; got {self.bundle!r}")
        for name, low in (("level", -1), ("levels", 0), ("sample_count", 1),
                          ("quadrature_bandwidth", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}; got {getattr(self, name)}")
        return self

    def make_group(self) -> GroupModel:
        if os.path.exists(self.group):  # the file's [group] subgroup decides
            if self.subgroup is not None:
                raise ValueError(f"subgroup {self.subgroup!r} given with group file {self.group}")
            return GroupModel.from_config(self.group)
        key = (self.group, self._subgroup())
        if key == ("su2", "u1"):
            return GroupModel.su2()
        if key[0] in ("su2", "su2-trivial-k") and key[1] == "trivial":
            return GroupModel.su2_trivial_k()
        raise ValueError(f"unknown group/subgroup pair {key!r}")

    def _subgroup(self) -> str | None:
        """The given subgroup, else the catalog group's own; None for a group file."""
        return _OWN_SUBGROUPS.get(self.group) if self.subgroup is None else self.subgroup

    def make_connection(self, group: GroupModel) -> Connection:
        if self.connection == "canonical":
            return canonical_connection(group)
        if self.connection == "levi-civita":
            return levi_civita_connection(group)
        if os.path.exists(self.connection):
            return load_gamma_file(group, self.connection)
        raise ValueError(f"unknown connection {self.connection!r}")

    def as_dict(self, group: GroupModel) -> dict:
        """The fields a report echoes, in declaration order: all but tolerances and output.
        The subgroup is the run's: a catalog name, or a group file's indices (``k_frame``)."""
        echo = {k: v for k, v in vars(self).items() if k not in ("tolerances", "output")}
        return echo | {"subgroup": self._subgroup() or group.k_frame.argmax(axis=1).tolist()}


def load_gamma_file(group: GroupModel, path: str) -> Connection:
    """Correction blocks from a text file: one fiber operator per tangent axis."""
    with open(path) as fh:
        vals = [parse_value(float, f"gamma file {path}", v) for v in fh.read().split()]
    p = group.m_dim
    if len(vals) != p ** 3:
        raise ValueError(
            f"gamma file holds {len(vals)} numbers; expected {p} blocks of {p}x{p}")
    gamma = np.array(vals).reshape(p, p, p)
    return Connection(group, gamma, name=os.path.basename(path))


def load_config(path: str, command: str = "verify") -> RunConfig:
    """Flat key=value config with [run] and optional [tolerances] sections.

    An unknown section, a ``[run]`` key that ``command`` does not read, or a
    [tolerances] section outside ``verify`` is rejected, naming it.
    """
    import configparser  # here, like argparse and json: the run_* functions need none
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    for section in cp.sections():
        if section not in ("run", "tolerances"):
            raise ValueError(f"unknown config section [{section}]; expected [run] or [tolerances]")
    if cp.has_section("tolerances") and command != "verify":
        raise ValueError(f"{command} reads no [tolerances] section; only verify does")
    cfg = RunConfig()
    if cp.has_section("run"):
        run = cp["run"]
        for key in run:
            if key not in _READS[command]:
                raise ValueError(f"unknown [run] key {key!r} for {command}")
            setattr(cfg, key, parse_value(int, f"[run] {key}", run.get(key))
                    if key in _INT_KEYS else run.get(key))
    if cp.has_section("tolerances"):
        for key, val in cp["tolerances"].items():
            v = cfg.tolerances[key] = parse_value(float, f"tolerance {key}", val)
            if v <= 0:
                raise ValueError(f"tolerance {key} must be positive")
    return cfg


# -- verify ---------------------------------------------------------------------


def run_verify(cfg: RunConfig, stats: dict | None = None) -> dict:
    """Execute the applicable invariant checks and build the report; ``stats`` as in run_suite."""
    group = cfg.validate().make_group()
    rng = np.random.default_rng(cfg.seed)
    results = _checks.run_suite(cfg, group, rng, stats)
    return {"config": cfg.as_dict(group), "checks": results, "pass": all(c["pass"] for c in results)}


# -- spectrum ---------------------------------------------------------------------


def run_spectrum(cfg: RunConfig, stats: dict | None = None) -> list:
    """Rows (level, index, eigenvalue, asymmetry, closure) for the CSV output; ``stats``, if
    given, gets each level's block wall time (``block_seconds``, by level)."""
    cfg.validate()
    if cfg.bundle != "clifford":
        raise ValueError(f"spectrum blocks are built on the clifford bundle only; "
                         f"got bundle {cfg.bundle!r}")
    group = cfg.make_group()
    if group.k_dim != 1:
        raise ValueError(f"spectrum blocks are cataloged for circle quotients; the subgroup "
                         f"of {group.name!r} has dimension {group.k_dim}")
    conn = cfg.make_connection(group)
    blocks, seconds = [], {} if stats is None else stats.setdefault("block_seconds", {})
    for lv in range(cfg.levels + 1):
        start = time.perf_counter()
        blocks.append(spectral_block(conn, spin_rep(group, 2 * lv)))
        seconds[lv] = time.perf_counter() - start
    # the worst in-block leakage of D, reported on each row
    closure = float(np.max([b.closure for b in blocks]))
    return [(lv, idx, float(ev), b.asymmetry, closure) for lv, b in enumerate(blocks)
            for idx, ev in enumerate(np.repeat(b.eigenvalues, b.multiplicity))]


# -- monopole ---------------------------------------------------------------------


def run_monopole(cfg: RunConfig) -> tuple:
    """Header and rows of sampled projection/Gram matrices for a monopole bundle."""
    group = cfg.validate().make_group()
    bundle = monopole_bundle(group, cfg.charge,
                             cfg.level if cfg.level >= 0 else None)
    rng = np.random.default_rng(cfg.seed)
    n = bundle.ambient_dim
    proj = projection_section(bundle)
    gram = frame_gram(bundle)
    header = ["alpha", "beta", "gamma"]
    for tag in ("p", "gram"):
        for i in range(n):
            for j in range(n):
                header += [f"{tag}_re_{i}{j}", f"{tag}_im_{i}{j}"]
    # per-sample draws (the Euler angles), then every point in one batch
    angles = np.stack([group.draw(rng) for _ in range(cfg.sample_count)])
    pts = EvalPoints(group, group.haar_matrices(angles))
    rows = []
    for row_angles, pv, gv in zip(angles, proj.values(pts), gram.values(pts)):
        entries = np.concatenate([pv.ravel(), gv.ravel()])  # row-major, projection first
        rows.append(row_angles.tolist() + entries.view(float).tolist())  # re, im of each
    return header, rows


# -- output helpers -----------------------------------------------------------------


def _write_json(report: dict, path: str | None) -> None:
    import json
    _write(json.dumps(report, indent=2) + "\n", path)


def _write_csv(header: list, rows: list, path: str | None) -> None:
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]  # each value a Python int or float
    _write("\n".join(lines) + "\n", path)


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def main(argv: list | None = None) -> int:
    import argparse
    import configparser
    parser = argparse.ArgumentParser(
        prog="homogdirac",
        description="equivariant bundles and Hodge-Dirac operators on homogeneous spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, reads in _READS.items():
        # no abbreviated flags: spectrum would read --level as its --levels
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.add_argument("--config", help="config file (overridden by explicit flags)")
        for key in reads:
            cmd.add_argument("--out" if key == "output" else "--" + key.replace("_", "-"),
                             dest=key, type=int if key in _INT_KEYS else str, help=_HELP.get(key))
    for name, what in (("verify", "check wall times (s) and retained bytes"),
                       ("spectrum", "block wall times (s) by level")):
        sub.choices[name].add_argument("--stats", help=f"write {what} to this JSON file")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, args.command) if args.config else RunConfig()
        for key in _READS[args.command]:  # explicit flags override the config file
            if getattr(args, key) is not None:
                setattr(cfg, key, getattr(args, key))
        stats = {} if getattr(args, "stats", None) else None
        status = 0
        if args.command == "verify":
            report = run_verify(cfg, stats)
            _write_json(report, cfg.output)
            status = 0 if report["pass"] else 1
        elif args.command == "spectrum":
            header = ["level", "index", "eigenvalue", "asymmetry_norm", "closure_residual"]
            _write_csv(header, run_spectrum(cfg, stats), cfg.output)
        else:
            _write_csv(*run_monopole(cfg), cfg.output)
        if stats is not None:
            _write_json(stats, args.stats)
        return status
    except (ValueError, KeyError, OSError, NotImplementedError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
