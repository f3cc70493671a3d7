import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cmvkit import cli, coeffs, operator, transfer
from cmvkit.errors import CMVKitError, ModulusError


def run(args):
    return cli.main(args)


def latest_run_dir(out: Path, command: str) -> Path:
    dirs = sorted(out.glob(f"{command}-*"))
    assert dirs, f"no {command} run directory in {out}"
    return dirs[-1]


def test_coeffs_free_model(tmp_path):
    assert run(["coeffs", "--model", "constant", "--value", "0",
                "--n-range", "0,8", "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "coeffs")
    lines = (d / "coefficients.csv").read_text().strip().splitlines()
    assert lines[0] == "n,re_alpha,im_alpha,rho"
    assert all(line.split(",")[3] == "1.0" for line in lines[1:])
    config = json.loads((d / "config.json").read_text())
    assert config["model"] == "constant"


def test_coeffs_sturmian_matches_word(tmp_path):
    assert run(["coeffs", "--model", "sturmian", "--alphabet", "0.5,-0.5",
                "--n-range", "0,5", "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "coeffs")
    rows = (d / "coefficients.csv").read_text().strip().splitlines()[1:]
    re_alpha = [float(r.split(",")[1]) for r in rows]
    assert re_alpha == [-0.5, 0.5, -0.5, 0.5, 0.5]


def test_coeffs_bands_from_diagonals(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    values = 0.8 * rng.uniform(size=50) * np.exp(2j * math.pi * rng.uniform(size=50))
    values[[3, 10, 11]] = 0.0  # zero coefficients leave zero band entries
    path = tmp_path / "alpha.txt"
    path.write_text("\n".join(repr(complex(v)) for v in values), encoding="utf-8")
    dense = operator.build_finite_cmv(coeffs.make_explicit(values), 40).dense()
    expected = ["row,col,re,im"] + [
        f"{i},{j},{float(dense[i, j].real)!r},{float(dense[i, j].imag)!r}"
        for i, j in zip(*np.nonzero(dense))]

    def no_dense(self):
        raise AssertionError("bands.csv must not need the dense matrix")

    monkeypatch.setattr(operator.CMVBlock, "dense", no_dense)
    assert run(["coeffs", "--model", "explicit", "--coeff-file", str(path),
                "--n-range", "0,40", "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "coeffs")
    assert (d / "bands.csv").read_text().splitlines() == expected


def test_coefficient_file_rules(tmp_path):
    def model(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return cli._one_sided_model(cli.RunConfig("coeffs", model="explicit",
                                                  coeff_file=str(path)))

    values = [0.1, 0.2 - 0.05j, complex(-0.3, 0.0), 1e-300j]
    plain = model("plain.txt", "".join(f"{v!r}\n" for v in values))
    # comments, blank lines, a second CSV column, spaces and i for j
    spelled = model("spelled.txt", "# alpha\n0.1,7\n\n 0.2 - 0.05i \n(-0.3+0j)\n1e-300i\n")
    assert plain.values == spelled.values == tuple(complex(v) for v in values)
    # the i of inf reads as j, so "inf" is not a number: line-numbered error
    with pytest.raises(CMVKitError, match=r"inf.txt, line 2: not a complex number: 'inf'"):
        model("inf.txt", "0.1\ninf\n")
    # the first value whose modulus is not below 1 names the error
    with pytest.raises(ModulusError, match=r"^\|alpha\| = 1.5 >= 1$"):
        model("big.txt", "0.1\n1.5\n2.0\n")
    with pytest.raises(ModulusError, match=r"^\|alpha\| = nan >= 1$"):
        model("nan.txt", "0.1\nnan\n1.5\n")
    with pytest.raises(ModulusError, match=r"^\|alpha\| = 1.0 >= 1$"):
        model("unit.txt", "0.5\n0.6+0.8j\nnan\n")
    with pytest.raises(ModulusError, match=r"^\|alpha\| = inf >= 1$"):
        model("capital.txt", "0.1\nInf\n")


def test_bad_modulus_rejected(tmp_path):
    assert run(["coeffs", "--model", "constant", "--value", "1.5",
                "--out", str(tmp_path)]) == 2


def test_bad_radius_rejected(tmp_path):
    assert run(["measure", "--model", "constant", "--value", "0",
                "--r", "1.5", "--out", str(tmp_path)]) == 2


def test_measure_free_density(tmp_path):
    assert run(["measure", "--model", "constant", "--value", "0",
                "--theta-count", "64", "--r", "0.9", "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "measure")
    rows = (d / "density.csv").read_text().strip().splitlines()[1:]
    dens = np.array([float(r.split(",")[2]) for r in rows])
    assert np.max(np.abs(dens - 1.0 / (2.0 * math.pi))) < 1e-12


def test_spectrum_constants(tmp_path):
    assert run(["spectrum", "--model", "sturmian", "--alphabet", "0.5,-0.5",
                "--theta-count", "64", "--trace-levels", "8",
                "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "spectrum")
    record = json.loads((d / "growth_constants.json").read_text())
    assert 0.0 < record["beta"] < 1.0
    assert record["gamma1"] < record["gamma2"]
    atlas = (d / "orbit_atlas.csv").read_text().splitlines()
    assert atlas[0] == "theta,n,q_n,abs_x,abs_z,re_I,im_I,in_spectrum"


def test_walk_snapshots(tmp_path):
    assert run(["walk", "--model", "constant", "--value", "0",
                "--steps", "40", "--snapshots", "3", "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "walk")
    first = (d / "state_000000.csv").read_text().strip().splitlines()
    assert first[1] == "0,1.0,0.0,1.0"
    last = (d / "state_000040.csv").read_text().strip().splitlines()
    assert last[1].startswith("-80,")


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "constant", "value": "0.3",
                               "theta_count": 32}))
    assert run(["measure", "--config", str(cfg), "--r", "0.5",
                "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "measure")
    resolved = json.loads((d / "config.json").read_text())
    assert resolved["theta_count"] == 32
    assert resolved["r_list"] == [0.5]


def test_config_json_reruns_the_run(tmp_path):
    # a run's own config.json, defaults and JSON arrays included, reruns it
    assert run(["coeffs", "--alphabet", "0.3+0.2j,-0.4", "--n-range=-5,5",
                "--out", str(tmp_path / "a")]) == 0
    first = latest_run_dir(tmp_path / "a", "coeffs")
    config = json.loads((first / "config.json").read_text())
    assert config["n_range"] == [-5, 5]
    assert run(["coeffs", "--config", str(first / "config.json"),
                "--out", str(tmp_path / "b")]) == 0
    again = latest_run_dir(tmp_path / "b", "coeffs")
    assert ((again / "coefficients.csv").read_text()
            == (first / "coefficients.csv").read_text())


def test_unknown_config_field_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery": 1}))
    assert run(["measure", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_config_field_the_command_does_not_read_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "constant", "value": "0", "eps_list": [0.1]}))
    assert run(["measure", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config fields: ['eps_list']" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "--r", "1.5"],
                                  ["walk", "--theta-count", "4"],
                                  ["measure", "--theta", "0.5"],
                                  ["coeffs", "--depth", "100"],
                                  ["spectrum", "--coeff-file", "alpha.txt"],
                                  # not a prefix of --theta-count either
                                  ["measure", "--theta", "1000"]])
def test_flag_the_command_does_not_read_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_verify_config_json_records_only_criteria(tmp_path):
    assert run(["verify", "--criteria", "1", "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "verify")
    config = json.loads((d / "config.json").read_text())
    assert config == {"command": "verify", "out": str(tmp_path), "criteria": [1]}


def test_every_field_is_read_by_some_command():
    read = {"out"}.union(*cli._FIELDS.values())
    assert read == {f.name for f in dataclasses.fields(cli.RunConfig)} - {"command"}
    assert set(cli._FIELDS) == set(cli._COMMANDS)


def test_subcommand_sets_command_over_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "walk", "model": "constant", "value": "0"}))
    assert run(["coeffs", "--config", str(cfg), "--n-range", "0,4",
                "--out", str(tmp_path / "runs")]) == 0
    assert [p.name.split("-")[0] for p in (tmp_path / "runs").iterdir()] == ["coeffs"]
    d = latest_run_dir(tmp_path / "runs", "coeffs")
    assert json.loads((d / "config.json").read_text())["command"] == "coeffs"
    assert (d / "coefficients.csv").exists()


def test_verify_subset(tmp_path):
    assert run(["verify", "--criteria", "1,8", "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "verify")
    record = json.loads((d / "verification.json").read_text())
    assert record["all_hard_passed"] is True
    assert [c["number"] for c in record["criteria"]] == [1, 8]
    # each criterion's wall time, in seconds
    assert all(isinstance(c["wall_s"], float) and 0.0 < c["wall_s"] < 60.0
               for c in record["criteria"])


def test_holder_free_model(tmp_path):
    assert run(["holder", "--model", "constant", "--value", "0", "--theta", "1.0",
                "--theta-count", "64", "--eps", "0.01,0.02,0.05,0.1", "--r", "0.9",
                "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "holder")
    record = json.loads((d / "holder.json").read_text())
    assert abs(record["gamma_cross_check"] - 1.0) < 1e-12
    assert abs(record["beta_hat"] - 1.0) < 0.02
    # a flat map of finite floats; both quadrature rules integrate the
    # constant free density exactly
    assert all(isinstance(v, float) and math.isfinite(v) for v in record.values())
    assert record["arc_quadrature_error"] < 1e-12
    # free solutions have squared norm exactly L + 1; the envelope fit of
    # sqrt(L + 1) is close to, but not exactly, a power law
    Ls = [2 ** k for k in range(6, 14)]
    free_fit = transfer.fit_power_law([(L, math.sqrt(L + 1)) for L in Ls])
    assert abs(record["gamma_envelope_cross_check"] - free_fit.beta) < 1e-12
    samples = (d / "norm_samples.csv").read_text().strip().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in samples] == Ls


def test_holder_boundary_rows_honour_depth(tmp_path, monkeypatch):
    # the boundary rows' Schur evaluations, one pass over the r list, are
    # capped at --depth
    seen = []
    schur = cli.cara.schur_F_batch

    def spy(seq, zs, tol=1e-12, max_depth=1 << 17, lam=None):
        seen.append((np.asarray(zs).tolist(), max_depth))
        return schur(seq, zs, tol, max_depth, lam)

    monkeypatch.setattr(cli.cara, "schur_F_batch", spy)
    assert run(["holder", "--model", "constant", "--value", "0", "--theta", "1.0",
                "--theta-count", "64", "--eps", "0.01,0.02,0.05,0.1",
                "--r", "0.9,0.99", "--depth", "5000", "--out", str(tmp_path)]) == 0
    z = complex(np.exp(1j))
    assert [zs for zs, _ in seen if len(zs) == 2] == [[0.9 * z, 0.99 * z]]
    assert {depth for _, depth in seen} == {5000}  # the arc masses' passes too


def test_holder_too_shallow_for_its_arcs_fails(tmp_path, capsys):
    # no word-table depth up to 256 certifies the arc nodes at eps = 1e-3,
    # so they run the Schur loop, which stops unconverged: no arc_mass.csv
    assert run(["holder", "--depth", "256", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_depth 256" in err
    d = latest_run_dir(tmp_path, "holder")
    assert sorted(p.name for p in d.iterdir()) == ["config.json", "error.txt"]
    assert "max_depth 256" in (d / "error.txt").read_text(encoding="utf-8")


def test_holder_builds_its_model_once(tmp_path, monkeypatch):
    path = tmp_path / "alpha.txt"
    path.write_text("0.1\n0.2+0.1j\n-0.3\n", encoding="utf-8")
    calls = []
    one_sided = cli._one_sided_model

    def spy(cfg):
        calls.append(cfg.coeff_file)
        return one_sided(cfg)

    monkeypatch.setattr(cli, "_one_sided_model", spy)
    assert run(["holder", "--model", "explicit", "--coeff-file", str(path),
                "--theta", "0.5", "--theta-count", "64", "--eps", "0.01,0.02,0.05,0.1",
                "--r", "0.9", "--out", str(tmp_path)]) == 0
    assert calls == [str(path)]


def test_holder_explicit_short_list_reads_a_zero_tail(tmp_path):
    # a list shorter than the growth fit's 8192 sites reads as zero-padded
    short = tmp_path / "short.txt"
    short.write_text("0.1\n0.2+0.1j\n-0.3\n", encoding="utf-8")
    padded = tmp_path / "padded.txt"
    padded.write_text("0.1\n0.2+0.1j\n-0.3\n" + "0\n" * 8200, encoding="utf-8")
    dirs = []
    for name, path in (("short", short), ("padded", padded)):
        assert run(["holder", "--model", "explicit", "--coeff-file", str(path),
                    "--theta", "0.5", "--theta-count", "64",
                    "--eps", "0.01,0.02,0.05,0.1", "--r", "0.9",
                    "--out", str(tmp_path / name)]) == 0
        dirs.append(latest_run_dir(tmp_path / name, "holder"))
    results = ["arc_mass.csv", "boundary.csv", "holder.json", "norm_fit.json",
               "norm_samples.csv"]
    assert sorted(p.name for p in dirs[0].iterdir()) == sorted(results + ["config.json"])
    for name in results:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_coeffs_explicit_n_range_reads_the_zero_tail(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("0.1\n0.2+0.1j\n-0.3\n", encoding="utf-8")
    assert run(["coeffs", "--model", "explicit", "--coeff-file", str(short),
                "--n-range", "0,5", "--out", str(tmp_path)]) == 0
    rows = (latest_run_dir(tmp_path, "coeffs") / "coefficients.csv").read_text().splitlines()
    assert rows[-2:] == ["3,0.0,0.0,1.0", "4,0.0,0.0,1.0"]


def test_measure_explicit_empty_list_is_the_free_model(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    dirs = []
    for name, model in (("empty", ["explicit", "--coeff-file", str(empty)]),
                        ("free", ["constant", "--value", "0"])):
        assert run(["measure", "--model", *model, "--theta-count", "64",
                    "--out", str(tmp_path / name)]) == 0
        dirs.append(latest_run_dir(tmp_path / name, "measure"))
    assert (dirs[0] / "density.csv").read_bytes() == (dirs[1] / "density.csv").read_bytes()


def test_unconverged_measure_fails(tmp_path, capsys):
    assert run(["measure", "--model", "constant", "--value", "0.5",
                "--theta-count", "64", "--depth", "4096", "--r", "0.9999",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_depth 4096" in err and "tail bound" in err
    d = latest_run_dir(tmp_path, "measure")
    assert not (d / "density.csv").exists()
    # the run directory records why the run failed
    reason = (d / "error.txt").read_text(encoding="utf-8")
    assert "max_depth 4096" in reason and "tail bound" in reason
    assert err == f"error: {reason}"


@pytest.mark.parametrize("case", ["missing-file", "malformed-line",
                                  "no-trace-levels", "unknown-criterion",
                                  "criterion-not-int", "one-letter-alphabet",
                                  "one-value-n-range", "radius-not-float",
                                  "eps-not-float", "value-not-complex",
                                  "config-radius-not-float", "reversed-n-range",
                                  "no-certified-point", "spectrum-omega",
                                  "holder-omega-no-theta", "unknown-left-model",
                                  "word-left-model-not-sturmian", "repeated-eps",
                                  "spectrum-explicit", "holder-explicit-no-theta",
                                  "theta-not-finite", "holder-off-spectrum",
                                  "holder-off-spectrum-finite-norms", "spectrum-omega-0.4",
                                  "spectrum-omega-off-by-1e-14",
                                  "holder-omega-off-by-1e-14-no-theta",
                                  "config-omega-not-float"])
def test_bad_input_fails_with_error_file(tmp_path, capsys, case):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.1\n0.2+0.1j\nnot-a-number\n", encoding="utf-8")
    good = tmp_path / "good.txt"
    good.write_text("0.1\n0.2+0.1j\n-0.3\n", encoding="utf-8")
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"r_list": ["x"]}), encoding="utf-8")
    omega_config = tmp_path / "omega.json"
    omega_config.write_text(json.dumps({"model": "constant", "omega": "x"}), encoding="utf-8")
    left_config = tmp_path / "left.json"
    left_config.write_text(json.dumps({"left_model": "nonsense"}), encoding="utf-8")
    word_config = tmp_path / "word.json"
    word_config.write_text(json.dumps({"left_model": "word", "model": "constant"}),
                           encoding="utf-8")
    argv, command = {
        "missing-file": (["measure", "--model", "explicit", "--coeff-file",
                          str(tmp_path / "missing.txt")], "measure"),
        "malformed-line": (["measure", "--model", "explicit", "--coeff-file",
                            str(bad)], "measure"),
        "no-trace-levels": (["spectrum", "--trace-levels", "0"], "spectrum"),
        "unknown-criterion": (["verify", "--criteria", "99"], "verify"),
        "criterion-not-int": (["verify", "--criteria", "x"], "verify"),
        "one-letter-alphabet": (["spectrum", "--alphabet", "0.5"], "spectrum"),
        "one-value-n-range": (["coeffs", "--n-range", "5"], "coeffs"),
        "radius-not-float": (["measure", "--r", "x"], "measure"),
        "eps-not-float": (["holder", "--eps", "x"], "holder"),
        "value-not-complex": (["measure", "--model", "constant", "--value", "x"],
                              "measure"),
        "config-radius-not-float": (["measure", "--config", str(bad_config)],
                                    "measure"),
        "reversed-n-range": (["coeffs", "--n-range", "5,3"], "coeffs"),
        # the level-16 mask of this alphabet holds no certified point
        "no-certified-point": (["holder", "--model", "sturmian", "--alphabet",
                                "0.99,-0.99", "--theta-count", "64", "--eps",
                                "0.01,0.02,0.05,0.1", "--r", "0.9"], "holder"),
        # the trace map and the certified points follow the golden-mean word
        "spectrum-omega": (["spectrum", "--omega", "0.3", "--theta-count", "64"],
                           "spectrum"),
        "holder-omega-no-theta": (["holder", "--omega", "0.3", "--theta-count", "64",
                                   "--eps", "0.01,0.02,0.05,0.1", "--r", "0.9"],
                                  "holder"),
        # outside coeffs' golden-mean tolerance, 1e-15
        "spectrum-omega-0.4": (["spectrum", "--omega", "0.4", "--theta-count", "64"],
                               "spectrum"),
        "spectrum-omega-off-by-1e-14": (["spectrum", "--omega", repr(coeffs.GOLDEN_MEAN + 1e-14),
                                         "--theta-count", "64"], "spectrum"),
        "holder-omega-off-by-1e-14-no-theta": (["holder", "--omega",
                                                repr(coeffs.GOLDEN_MEAN + 1e-14),
                                                "--eps", "0.01,0.02,0.05,0.1", "--r", "0.9"],
                                               "holder"),
        "config-omega-not-float": (["spectrum", "--config", str(omega_config)], "spectrum"),
        "unknown-left-model": (["measure", "--config", str(left_config)], "measure"),
        "word-left-model-not-sturmian": (["measure", "--config", str(word_config)],
                                         "measure"),
        # one log eps gives no slope to fit
        "repeated-eps": (["holder", "--theta", "0.5", "--theta-count", "64",
                          "--eps", "0.01,0.01,0.01,0.01", "--r", "0.9"], "holder"),
        # an explicit list has no letters for the trace map to read
        "spectrum-explicit": (["spectrum", "--model", "explicit", "--theta-count", "64"],
                              "spectrum"),
        "holder-explicit-no-theta": (["holder", "--model", "explicit", "--coeff-file",
                                      str(good), "--theta-count", "64", "--eps",
                                      "0.01,0.02,0.05,0.1", "--r", "0.9"], "holder"),
        "theta-not-finite": (["holder", "--theta", "nan", "--theta-count", "64",
                              "--eps", "0.01,0.02,0.05,0.1", "--r", "0.9"], "holder"),
        # off the spectrum the solution norms leave the floating-point range
        "holder-off-spectrum": (["holder", "--theta", "2.0", "--theta-count", "64",
                                 "--eps", "0.01,0.02,0.05,0.1", "--r", "0.9"], "holder"),
        # there the norms stay finite, but the envelope fit's L ** 91.7 overflows
        "holder-off-spectrum-finite-norms": (["holder", "--theta", "7.0", "--theta-count",
                                              "64", "--eps", "0.01,0.02,0.05,0.1,0.2",
                                              "--r", "0.9"], "holder"),
    }[case]
    assert run(argv + ["--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    d = latest_run_dir(tmp_path / "runs", command)
    assert err == f"error: {(d / 'error.txt').read_text(encoding='utf-8')}"
    assert sorted(p.name for p in d.iterdir()) == ["config.json", "error.txt"]


def test_omega_one_ulp_off_the_golden_mean_runs_the_golden_word(tmp_path):
    # coeffs reads this omega as the golden mean, so spectrum runs and
    # holder finds its certified theta, to the bytes of the GOLDEN_MEAN runs
    ulp = "0.618033988749895"
    assert float(ulp) != coeffs.GOLDEN_MEAN and coeffs.is_golden_mean(float(ulp))
    files = {"spectrum": ["orbit_atlas.csv", "growth_constants.json"],
             "holder": ["arc_mass.csv", "boundary.csv", "norm_samples.csv", "norm_fit.json",
                        "holder.json"]}
    for omega in (repr(coeffs.GOLDEN_MEAN), ulp):
        out = tmp_path / omega
        assert run(["spectrum", "--omega", omega, "--theta-count", "64", "--trace-levels", "8",
                    "--out", str(out)]) == 0
        assert run(["holder", "--omega", omega, "--eps", "0.01,0.02,0.05,0.1", "--r", "0.9",
                    "--out", str(out)]) == 0
    for command, names in files.items():
        exact, near = (latest_run_dir(tmp_path / omega, command)
                       for omega in (repr(coeffs.GOLDEN_MEAN), ulp))
        for name in names:
            assert (exact / name).read_bytes() == (near / name).read_bytes(), name


def test_unforeseen_error_leaves_error_file(tmp_path, monkeypatch):
    def divide(cfg, out):
        return 1 / 0

    monkeypatch.setitem(cli._COMMANDS, "walk", divide)
    with pytest.raises(ZeroDivisionError):
        run(["walk", "--out", str(tmp_path)])
    d = latest_run_dir(tmp_path, "walk")
    assert (d / "error.txt").read_text(encoding="utf-8") == \
        "ZeroDivisionError: division by zero\n"


# Runs every command in a fresh interpreter, verify with the criteria of
# both truncation oracles: none of them loads scipy.
_COMMANDS_FRESH = """
import sys
from cmvkit import cli
for argv in (["coeffs", "--n-range", "0,50"],
             ["spectrum", "--theta-count", "64", "--trace-levels", "8"],
             ["measure", "--theta-count", "64", "--r", "0.9"],
             ["holder", "--theta-count", "64", "--eps", "0.01,0.02,0.05,0.1", "--r", "0.9"],
             ["walk", "--steps", "40", "--snapshots", "3"],
             ["verify", "--criteria", "2,3,7"]):
    assert cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
    assert "scipy" not in sys.modules, argv
"""


def test_no_command_imports_scipy(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", _COMMANDS_FRESH, str(tmp_path)], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
