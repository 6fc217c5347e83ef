import json
import os

import numpy as np
import pytest

from homogdirac import (
    EvalPoints,
    GroupModel,
    MatrixCoefficient,
    frame_gram,
    monopole_bundle,
    projection_section,
    spin_rep,
)
from homogdirac.cli import RunConfig, load_config, main, run_monopole, run_verify
from homogdirac.groups import _euler_matrices, _su2_raw_basis
from oracles import deriv, value


def test_verify_passes_on_catalog(tmp_path):
    out = os.path.join(tmp_path, "report.json")
    rc = main(["verify", "--group", "su2", "--subgroup", "u1",
               "--sample-count", "25", "--quadrature-bandwidth", "6",
               "--seed", "1", "--out", out])
    assert rc == 0
    report = json.load(open(out))
    assert report["pass"] is True
    assert all("anchor" in c and "residual" in c for c in report["checks"])


def test_verify_reports_levi_civita_torsion(tmp_path):
    cfg = RunConfig(group="su2", subgroup="trivial", bundle="clifford",
                    connection="levi-civita", sample_count=25,
                    quadrature_bandwidth=6, seed=0)
    report = run_verify(cfg)
    assert report["pass"]
    by_anchor = {c["anchor"]: c for c in report["checks"]}
    assert by_anchor["geometry.levi-civita-torsion"]["residual"] <= 1e-10


def test_verify_fails_on_violating_gamma(tmp_path):
    gamma = np.zeros((3, 3, 3))
    gamma[0, 1, 0], gamma[0, 0, 1] = 1.0, -1.0
    path = os.path.join(tmp_path, "gamma.txt")
    np.savetxt(path, gamma.reshape(-1))
    out = os.path.join(tmp_path, "report.json")
    rc = main(["verify", "--group", "su2", "--subgroup", "trivial",
               "--connection", path, "--sample-count", "20",
               "--quadrature-bandwidth", "6", "--out", out])
    assert rc == 1
    report = json.load(open(out))
    failing = {c["anchor"] for c in report["checks"] if not c["pass"]}
    assert "dirac.selfadjointness-criterion" in failing
    assert "dirac.selfadjoint-defect" in failing


def _verify_trivial_k(connection):
    return run_verify(RunConfig(group="su2", subgroup="trivial", connection=connection,
                                sample_count=20, quadrature_bandwidth=6, seed=3))


def test_verify_checks_the_torsion_of_a_gamma_file(tmp_path, full_group, rng):
    """A gamma file gets a configured-torsion row, which draws nothing: other rows stay put."""
    from homogdirac import levi_civita_connection
    from homogdirac.dirac import _balanced_random_gamma

    paths = {}
    for name, gamma in (("balanced", _balanced_random_gamma(full_group, rng)),
                        ("lc", levi_civita_connection(full_group).gamma.real)):
        paths[name] = os.path.join(tmp_path, f"{name}.txt")
        np.savetxt(paths[name], gamma.reshape(-1))
    report = _verify_trivial_k(paths["balanced"])
    row = {c["anchor"]: c for c in report["checks"]}["geometry.configured-torsion"]
    assert report["pass"] and row["residual"] <= 1e-10 and row["samples"] == 3 * 20
    # the Levi-Civita gamma from a file: the catalog run's rows, plus the new one
    from_file = _verify_trivial_k(paths["lc"])["checks"]
    catalog = _verify_trivial_k("levi-civita")["checks"]
    assert [c for c in from_file if c["anchor"] != "geometry.configured-torsion"] == catalog
    assert len(from_file) == len(catalog) + 1


def test_malformed_gamma_file(tmp_path):
    path = os.path.join(tmp_path, "gamma.txt")
    with open(path, "w") as fh:
        fh.write("1.0 2.0 3.0\n")
    rc = main(["verify", "--group", "su2", "--subgroup", "trivial",
               "--connection", path])
    assert rc == 2


def test_unknown_names_exit_config_error():
    assert main(["verify", "--group", "nope", "--subgroup", "u1"]) == 2
    assert main(["spectrum", "--group", "su2", "--subgroup", "u1",
                 "--connection", "mystery"]) == 2


@pytest.mark.parametrize("argv, field", [
    (["verify", "--bundle", "foo"], "bundle"),
    (["spectrum", "--levels", "-1"], "levels"),
    (["verify", "--sample-count", "0"], "sample_count"),
    (["spectrum", "--levels", "2", "--bundle", "monopole", "--charge", "3"], "bundle"),
    (["spectrum", "--levels", "2", "--bundle", "tangent"], "bundle"),
    (["spectrum", "--levels", "2", "--subgroup", "trivial"], "subgroup"),
    # each command accepts only the settings it reads
    (["spectrum", "--levels", "2", "--seed", "9"], "seed"),
    (["spectrum", "--levels", "2", "--charge", "7"], "charge"),
    (["monopole", "--bundle", "tangent"], "bundle"),
    (["monopole", "--connection", "levi-civita"], "connection"),
    (["monopole", "--levels", "7"], "levels"),
    # a subgroup the group contradicts, or one no catalog group has
    (["verify", "--group", "su2-trivial-k", "--subgroup", "u1"], "subgroup"),
    (["verify", "--subgroup", "e"], "subgroup"),
    # an ambient level below -1, the minimal one
    (["monopole", "--charge", "1", "--level", "-7"], "level"),
    (["verify", "--bundle", "monopole", "--charge", "2", "--level", "-3"], "level"),
])
def test_out_of_range_field_exits_config_error(argv, field, capsys):
    assert main(argv) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "spectrum", "monopole"])
def test_a_subgroup_given_with_a_group_file_exits_config_error(tmp_path, command, capsys):
    """The file's [group] subgroup decides, so a --subgroup flag or [run] key beside it exits 2,
    naming subgroup."""
    group = os.path.join(tmp_path, "group.cfg")
    with open(group, "w") as fh:
        fh.write("\n".join(_su2_group_lines()) + "\n")
    config = os.path.join(tmp_path, "run.cfg")
    with open(config, "w") as fh:
        fh.write("[run]\nsubgroup = u1\n")
    for extra in (["--subgroup", "u1"], ["--config", config]):
        assert main([command, "--group", group, "--out", os.devnull] + extra) == 2
        assert "subgroup" in capsys.readouterr().err


def test_a_verify_report_echoes_the_subgroup_it_ran_on(tmp_path):
    """The given subgroup, else the group's own, and a group file's basis indices."""
    group = os.path.join(tmp_path, "group.cfg")
    with open(group, "w") as fh:
        fh.write("\n".join(_su2_group_lines()) + "\n")
    for name, subgroup, echo in (("su2", None, "u1"), ("su2-trivial-k", None, "trivial"),
                                 ("su2", "trivial", "trivial"), (group, None, [2])):
        cfg = RunConfig(group=name, subgroup=subgroup, sample_count=5, quadrature_bandwidth=4)
        assert run_verify(cfg)["config"]["subgroup"] == echo


def test_a_group_file_report_echoes_the_basis_indices_of_its_subgroup(tmp_path, capsys):
    """The indices its [group] subgroup declares, [] when it declares none."""
    for subgroup, echo in (("2", [2]), ("0", [0]), (None, [])):
        group = os.path.join(tmp_path, "group.cfg")
        with open(group, "w") as fh:
            fh.write("\n".join(_su2_group_lines(subgroup=subgroup)) + "\n")
        assert main(["verify", "--group", group, "--sample-count", "5",
                     "--quadrature-bandwidth", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["subgroup"] == echo


def test_spectrum_runs_to_level_40(tmp_path):
    out = os.path.join(tmp_path, "s40.csv")
    assert main(["spectrum", "--levels", "40", "--out", out]) == 0
    levels = [int(r.split(",")[0]) for r in open(out).read().strip().splitlines()[1:]]
    assert sorted(set(levels)) == list(range(41))
    # two constant spinors at level 0, then 4 (2 level + 1) eigenvalues per level
    assert [levels.count(lv) for lv in range(41)] == [2] + [4 * (2 * lv + 1)
                                                            for lv in range(1, 41)]


def test_spectrum_determinism_and_kernel(tmp_path):
    args = ["spectrum", "--group", "su2", "--subgroup", "u1",
            "--connection", "canonical", "--levels", "1"]
    out1, out2 = (os.path.join(tmp_path, n) for n in ("a.csv", "b.csv"))
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    rows = open(out1).read().strip().splitlines()
    assert rows[0] == "level,index,eigenvalue,asymmetry_norm,closure_residual"
    level0 = [r for r in rows[1:] if r.startswith("0,")]
    assert any(abs(float(r.split(",")[2])) < 1e-10 for r in level0)
    # deterministic ordering: level then ascending eigenvalue
    parsed = [r.split(",") for r in rows[1:]]
    levels = [int(p[0]) for p in parsed]
    assert levels == sorted(levels)


def test_monopole_csv(tmp_path):
    cfg = RunConfig(charge=1, level=1, sample_count=4, seed=2)
    header, rows = run_monopole(cfg)
    assert header[:3] == ["alpha", "beta", "gamma"]
    assert len(rows) == 4
    n = 2
    assert len(header) == 3 + 2 * 2 * n * n
    # the sampled projection is idempotent with unit trace
    for row in rows:
        vals = np.array(row[3:3 + 2 * n * n])
        p = (vals[::2] + 1j * vals[1::2]).reshape(n, n)
        assert np.abs(p @ p - p).max() < 1e-12
        assert abs(np.trace(p) - 1.0) < 1e-12
        g = np.array(row[3 + 2 * n * n:])
        gm = (g[::2] + 1j * g[1::2]).reshape(n, n)
        assert np.abs(gm - p).max() < 1e-12


def _former_monopole_rows(cfg):
    """The rows as ``monopole`` made them point by point, one one-point batch per sample."""
    group = cfg.make_group()
    bundle = monopole_bundle(group, cfg.charge)
    proj, gram = projection_section(bundle), frame_gram(bundle)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for _ in range(cfg.sample_count):
        alpha = rng.uniform(0.0, 4 * np.pi)
        gamma = rng.uniform(0.0, 4 * np.pi)
        beta = float(np.arccos(rng.uniform(-1.0, 1.0)))
        pts = EvalPoints(group, _euler_matrices(alpha, beta, gamma)[None])
        row = [alpha, beta, gamma]
        for mat in (proj.values(pts)[0], gram.values(pts)[0]):
            for z in mat.ravel():
                row += [float(z.real), float(z.imag)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("charge", [1, 2, -1, 3])
def test_monopole_batch_matches_the_former_per_point_loop(charge):
    """Same angles bit for bit; the matrices differ from one-point evaluation by roundoff only."""
    cfg = RunConfig(bundle="monopole", charge=charge, sample_count=60, seed=3)
    _, rows = run_monopole(cfg)
    former = _former_monopole_rows(cfg)
    assert [r[:3] for r in rows] == [r[:3] for r in former]
    assert np.abs(np.array(rows)[:, 3:] - np.array(former)[:, 3:]).max() <= 1e-15


def test_config_file_round_trip(tmp_path):
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write("""[run]
group = su2
subgroup = u1
bundle = monopole
charge = 2
level = 2
connection = canonical
quadrature_bandwidth = 6
sample_count = 15
seed = 4

[tolerances]
bundle.reproducing-formula = 1e-9
""")
    cfg = load_config(path)
    assert cfg.bundle == "monopole" and cfg.charge == 2 and cfg.seed == 4
    assert cfg.tolerances["bundle.reproducing-formula"] == 1e-9
    report = run_verify(cfg)
    assert report["pass"]
    entry = [c for c in report["checks"] if c["anchor"] == "bundle.reproducing-formula"][0]
    assert entry["tolerance"] == 1e-9


def test_invalid_tolerance_rejected(tmp_path):
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write("[run]\ngroup = su2\n\n[tolerances]\nfoo = -1\n")
    with pytest.raises(ValueError, match="positive"):
        load_config(path)


@pytest.mark.parametrize("text, name", [
    ("[run]\nsample-count = 5\n", "sample-count"),
    ("[runn]\nsample_count = 5\n", "runn"),
    ("[tolerances]\ndirac.selfadjoint_defect = 1e-3\n", "dirac.selfadjoint_defect"),
    ("[run]\nsample_count = five\n", "sample_count"),
    ("[tolerances]\nbundle.reproducing-formula = tiny\n", "bundle.reproducing-formula"),
    # a NaN tolerance fails every comparison, and an infinite one passes every residual
    ("[tolerances]\ngeometry.frame-norm-sum = nan\n", "geometry.frame-norm-sum"),
    ("[tolerances]\ngeometry.frame-norm-sum = inf\n", "geometry.frame-norm-sum"),
])
def test_unknown_config_key_exits_config_error(tmp_path, text, name, capsys):
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    assert main(["verify", "--config", path]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("text, name", [
    ("[run]\nseed = 1\n", "seed"),
    ("[tolerances]\ngeometry.frame-norm-sum = 1e-3\n", "tolerances"),
])
def test_spectrum_config_rejects_what_spectrum_does_not_read(tmp_path, text, name, capsys):
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    assert main(["spectrum", "--levels", "2", "--config", path]) == 2
    assert name in capsys.readouterr().err


def test_verify_reports_are_deterministic(tmp_path):
    cfg = dict(group="su2", subgroup="u1", bundle="tangent",
               sample_count=15, quadrature_bandwidth=6, seed=11)
    a = run_verify(RunConfig(**cfg))
    b = run_verify(RunConfig(**cfg))
    assert json.dumps(a) == json.dumps(b)


def test_verify_stats_sidecar_times_every_check(tmp_path):
    """The sidecar holds each check's seconds and the bytes the sample and rule batches
    retain at the end; the report with it equals the one without."""
    args = ["verify", "--bundle", "tangent", "--sample-count", "15",
            "--quadrature-bandwidth", "6", "--seed", "11"]
    out, plain, stats = (os.path.join(tmp_path, n) for n in ("r.json", "p.json", "s.json"))
    assert main(args + ["--out", out, "--stats", stats]) == 0
    assert main(args + ["--out", plain]) == 0
    assert open(out).read() == open(plain).read()
    sidecar = json.load(open(stats))
    assert list(sidecar) == ["check_seconds", "retained_bytes"]
    seconds = sidecar["check_seconds"]
    assert list(seconds) == [c["anchor"] for c in json.load(open(out))["checks"]]
    assert all(isinstance(t, float) and t >= 0 for t in seconds.values())
    retained = sidecar["retained_bytes"]
    assert list(retained) == ["samples", "rule"]
    assert all(isinstance(b, int) and b > 0 for b in retained.values())
    assert main(["monopole", "--stats", stats]) == 2  # a verify and spectrum option only


def test_spectrum_stats_sidecar_times_every_level(tmp_path):
    """The sidecar holds each level's block seconds; the CSV with it equals the one without."""
    args = ["spectrum", "--connection", "levi-civita", "--levels", "3"]
    out, plain, stats = (os.path.join(tmp_path, n) for n in ("s.csv", "p.csv", "s.json"))
    assert main(args + ["--out", out, "--stats", stats]) == 0
    assert main(args + ["--out", plain]) == 0
    assert open(out).read() == open(plain).read()
    sidecar = json.load(open(stats))
    assert list(sidecar) == ["block_seconds"]
    seconds = sidecar["block_seconds"]
    assert list(seconds) == [str(level) for level in range(4)]  # JSON keys are strings
    assert all(isinstance(t, float) and t >= 0 for t in seconds.values())


def test_threads_env_gives_same_spectrum(tmp_path, monkeypatch):
    args = ["spectrum", "--group", "su2", "--subgroup", "u1",
            "--connection", "levi-civita", "--levels", "1"]
    out1, out2 = (os.path.join(tmp_path, n) for n in ("s1.csv", "s2.csv"))
    monkeypatch.setenv("HOMOG_DIRAC_THREADS", "1")
    assert main(args + ["--out", out1]) == 0
    monkeypatch.setenv("HOMOG_DIRAC_THREADS", "2")
    assert main(args + ["--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


def _su2_group_lines(basis=None, **overrides):
    """Lines of a [group] config for SU(2) in ``basis`` (default: the catalog's).

    An override of None drops the key.
    """
    keys = {"matrix_dim": "2", "basis_count": "3", "subgroup": "2"}
    for i, m in enumerate(GroupModel.su2().basis if basis is None else basis):
        keys[f"basis_{i}"] = " ".join(f"{float(v.real)!r} {float(v.imag)!r}"
                                      for v in m.reshape(-1))
    keys.update(overrides)
    return ["[group]"] + [f"{k} = {v}" for k, v in keys.items() if v is not None]


def _custom_su2_file(tmp_path, layout):
    """A group file declaring SU(2) in a rotated or a reordered basis of su(2)."""
    raw = _su2_raw_basis()
    if layout == "rotated":
        ca, sa, cb, sb = np.cos(0.7), np.sin(0.7), np.cos(1.1), np.sin(1.1)
        rot = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]]) @ np.array(
            [[1, 0, 0], [0, cb, -sb], [0, sb, cb]])
        lines = _su2_group_lines(np.einsum("ab,bij->aij", rot, raw), subgroup="2", scale="2.5")
    else:  # sigma_3, sigma_1, sigma_2 with the circle along sigma_3
        lines = _su2_group_lines(raw[[2, 0, 1]], subgroup="0")
    path = os.path.join(tmp_path, f"{layout}.cfg")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("bundle", ["clifford", "tangent"])
@pytest.mark.parametrize("layout", ["rotated", "reordered"])
def test_verify_passes_on_a_custom_su2_basis(tmp_path, layout, bundle):
    """Representation values and generators agree on any basis of su(2)."""
    out = os.path.join(tmp_path, "report.json")
    assert main(["verify", "--group", _custom_su2_file(tmp_path, layout), "--bundle", bundle,
                 "--sample-count", "25", "--quadrature-bandwidth", "6", "--seed", "1",
                 "--out", out]) == 0
    assert json.load(open(out))["pass"] is True


@pytest.mark.parametrize("charge", [1, -1, 2, -2])
def test_verify_monopole_on_a_rotated_su2_basis(tmp_path, charge):
    """The fiber is the weight line of the rotated circle generator, not a basis vector."""
    out = os.path.join(tmp_path, "report.json")
    assert main(["verify", "--group", _custom_su2_file(tmp_path, "rotated"),
                 "--bundle", "monopole", "--charge", str(charge), "--sample-count", "25",
                 "--quadrature-bandwidth", "6", "--seed", "1", "--out", out]) == 0
    assert json.load(open(out))["pass"] is True


def test_verify_draws_no_dirac_harmonic_spinors(monkeypatch):
    """Spinors of the Dirac checks must not be killed by D, or the checks compare 0 with 0."""
    from homogdirac import checks, hodge_dirac
    drawn = []
    spinor = checks._Context.spinor

    def record(ctx, *args):
        phi = spinor(ctx, *args)
        drawn.append((ctx, phi))
        return phi

    monkeypatch.setattr(checks._Context, "spinor", record)
    # the quadrature pairing draws nothing from the generator, so skipping it keeps the draws
    monkeypatch.setattr(checks, "selfadjoint_defect", lambda *args: 0.0)
    for seed in range(7, 15):
        run_verify(RunConfig(group="su2", subgroup="u1", bundle="clifford", seed=seed))
    assert len(drawn) == 8 * 7
    for ctx, phi in drawn:
        assert np.abs(hodge_dirac(ctx.connection, phi).values(ctx.pts)).max() > 1e-8


@pytest.mark.parametrize("layout", ["rotated", "reordered"])
def test_matrix_coefficient_on_a_custom_su2_basis_matches_central_differences(
        tmp_path, layout, rng):
    group = GroupModel.from_config(_custom_su2_file(tmp_path, layout))
    h = 1e-5
    for two_j in (1, 2, 3):
        rep = spin_rep(group, two_j)
        f = MatrixCoefficient(rep, rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim),
                              rng.standard_normal(rep.dim))
        for x in group.random_elements(rng, 5):
            y = group.random_algebra(rng)
            central = (value(f, x @ group.exp(y, h)) - value(f, x @ group.exp(y, -h))) / (2 * h)
            assert abs(deriv(f, x, y) - central) < 1e-8 * max(1.0, abs(central))


@pytest.mark.parametrize("overrides, name", [
    ({}, None),
    ({"matrix_dim": "two"}, "matrix_dim"),
    ({"basis_count": None}, "basis_count"),
    ({"basis_1": None}, "basis_1"),
    ({"basis_0": "0.0 x 0.0 0.0 0.0 0.0 0.0 0.0"}, "basis_0"),
    ({"subgroup": "5"}, "subgroup index 5"),
    ({"subgroup": "-1"}, "subgroup index -1"),
    ({"subgroup": "2, 2"}, "subgroup index 2"),
    ({"subgroup": "z"}, "subgroup"),
    ({"scale": "large"}, "scale"),
    ({"subgroups": "2"}, "subgroups"),
    ({"basis_3": "0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0"}, "basis_3"),
    ({"basis_2": "0.0 nan 0.0 0.0 0.0 0.0 0.0 0.0"}, "[group] basis_2 must be a finite"),
    ({"scale": "inf"}, "[group] scale must be a finite"),
    ({"scale": "0"}, "scale must be positive"),
    ({"scale": "-1"}, "scale must be positive"),
    ({"subgroup": "0, 1, 2"}, "subgroup must be proper"),
    ({"matrix_dim": "0"}, "[group] matrix_dim must be >= 1"),
    ({"basis_count": "0"}, "[group] basis_count must be >= 1"),
], ids=["well-formed", "matrix_dim", "basis_count", "basis_1", "basis_0", "subgroup-5",
        "subgroup-negative", "subgroup-repeated", "subgroup-text", "scale",
        "unknown-key", "basis-beyond-count", "basis-nan", "scale-inf", "scale-zero",
        "scale-negative", "subgroup-whole-group", "matrix_dim-zero", "basis_count-zero"])
def test_bad_group_config_exits_config_error(tmp_path, overrides, name, capsys):
    path = os.path.join(tmp_path, "group.cfg")
    with open(path, "w") as fh:
        fh.write("\n".join(_su2_group_lines(**overrides)) + "\n")
    argv = ["verify", "--group", path, "--sample-count", "5", "--quadrature-bandwidth", "4",
            "--out", os.path.join(tmp_path, "report.json")]
    if name is None:  # the well-formed file runs
        assert main(argv) == 0
        return
    assert main(argv) == 2
    assert name in capsys.readouterr().err


def test_group_config_without_group_section_names_the_file(tmp_path, capsys):
    path = os.path.join(tmp_path, "nogroup.cfg")
    with open(path, "w") as fh:
        fh.write("\n".join(["[groups]"] + _su2_group_lines()[1:]) + "\n")
    assert main(["verify", "--group", path]) == 2
    err = capsys.readouterr().err
    assert path in err and "[group]" in err


def test_unparsable_gamma_file_names_the_file(tmp_path, capsys):
    path = os.path.join(tmp_path, "gamma.txt")
    with open(path, "w") as fh:
        fh.write("1 2 x\n")
    assert main(["verify", "--group", "su2", "--subgroup", "trivial",
                 "--connection", path]) == 2
    assert path in capsys.readouterr().err


def test_non_finite_gamma_file_exits_config_error(tmp_path, capsys):
    """A NaN entry, or finite entries whose norm overflows, exits 2 naming the file.

    A NaN entry is refused as the file is read, naming its path.  A huge gamma
    parses, but its norm overflows to inf, which made the relative skew tolerance
    inf: the symmetric 1e300 gamma then read as compatible, and the alternating
    1.7e308 one ended in an eigensolver error naming no field.  The connection
    refuses a non-finite norm, naming the file.
    """
    symmetric = np.zeros((3, 3, 3))
    symmetric[0, 0, 1] = symmetric[0, 1, 0] = symmetric[1, 2, 2] = 1e300
    trivial_k = ["--group", "su2", "--subgroup", "trivial"]
    for name, text, args in [
        ("nan.txt", "nan 0 0 0 0 0 0 0", []),
        ("symmetric-1e300.txt", " ".join(map(str, symmetric.reshape(-1).tolist())), trivial_k),
        ("alternating-1.7e308.txt", " ".join(["1.7e308", "-1.7e308"] * 13 + ["1.7e308"]),
         trivial_k),
    ]:
        path = os.path.join(tmp_path, name)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        assert main(["verify", "--connection", path, "--sample-count", "5"] + args) == 2, name
        err = capsys.readouterr().err
        assert (path if name == "nan.txt" else name) in err and "finite" in err, err


@pytest.mark.parametrize("flag, text", [
    ("--group", "matrix_dim = 2\n"),
    ("--config", "[run]\nseed = 1\nseed = 2\n"),
], ids=["group-without-section-header", "config-repeating-a-key"])
def test_config_syntax_error_exits_config_error(tmp_path, flag, text, capsys):
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    assert main(["verify", flag, path]) == 2
    assert path in capsys.readouterr().err

