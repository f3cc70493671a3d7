"""Smoke runs of the experiment scripts, so that a renamed or removed
library name fails here rather than only when a script is next run."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_holder_scan_coupling():
    holder_scan = load_script("holder_scan")
    eps = np.geomspace(1e-2, 1e-1, 4)
    grid = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    theta, beta_hat, beta_gamma = holder_scan.scan_coupling(0.5, eps, grid)
    assert 0.0 <= theta < 2.0 * math.pi
    assert math.isfinite(beta_hat)
    assert math.isfinite(beta_gamma) and 0.0 < beta_gamma <= 1.0


def test_spectrum_atlas_main(tmp_path, monkeypatch):
    spectrum_atlas = load_script("spectrum_atlas")
    out = tmp_path / "atlas.csv"
    monkeypatch.setattr(sys, "argv", ["spectrum_atlas.py", "--theta-count", "64",
                                      "--depths", "2,4", "--out", str(out)])
    assert spectrum_atlas.main() == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "theta,mask_n2,mask_n4"
    assert len(rows) == 65
