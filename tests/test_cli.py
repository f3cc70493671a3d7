import json
import math
from pathlib import Path

import numpy as np
import pytest

from cmvkit import cli, transfer


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


def test_unknown_config_field_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery": 1}))
    assert run(["measure", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_verify_subset(tmp_path):
    assert run(["verify", "--criteria", "1,8", "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "verify")
    record = json.loads((d / "verification.json").read_text())
    assert record["all_hard_passed"] is True
    assert [c["number"] for c in record["criteria"]] == [1, 8]


def test_holder_free_model(tmp_path):
    assert run(["holder", "--model", "constant", "--value", "0", "--theta", "1.0",
                "--theta-count", "64", "--eps", "0.01,0.02,0.05,0.1", "--r", "0.9",
                "--out", str(tmp_path)]) == 0
    d = latest_run_dir(tmp_path, "holder")
    record = json.loads((d / "holder.json").read_text())
    assert abs(record["gamma_cross_check"] - 1.0) < 1e-12
    assert abs(record["beta_hat"] - 1.0) < 0.02
    # free solutions have squared norm exactly L + 1; the envelope fit of
    # sqrt(L + 1) is close to, but not exactly, a power law
    Ls = [2 ** k for k in range(6, 14)]
    free_fit = transfer.fit_power_law([(L, math.sqrt(L + 1)) for L in Ls])
    assert abs(record["gamma_envelope_cross_check"] - free_fit.beta) < 1e-12
    samples = (d / "norm_samples.csv").read_text().strip().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in samples] == Ls


def test_unconverged_measure_fails(tmp_path, capsys):
    assert run(["measure", "--model", "constant", "--value", "0.5",
                "--theta-count", "64", "--depth", "4096", "--r", "0.9999",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_depth 4096" in err and "sup gap" in err
    d = latest_run_dir(tmp_path, "measure")
    assert not (d / "density.csv").exists()
    # the run directory records why the run failed
    reason = (d / "error.txt").read_text(encoding="utf-8")
    assert "max_depth 4096" in reason and "sup gap" in reason
    assert err == f"error: {reason}"
