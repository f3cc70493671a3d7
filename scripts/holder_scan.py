#!/usr/bin/env python3
"""Scan Hölder-exponent estimates across coupling strength.

For alphabets (t, -t) with t on a grid, estimate the arc-mass exponent
beta_hat at certified spectrum points of the two-sided Sturmian model
and compare with the exponent predicted from transfer-matrix growth.
Writes one CSV row per coupling.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmvkit import coeffs, spectral, transfer, verify  # noqa: E402


def scan_coupling(t: float, eps, grid):
    alphabet = (t, -t)
    seq2 = coeffs.make_sturmian(t, -t, coeffs.GOLDEN_MEAN, support="full")
    seq1 = coeffs.make_sturmian(t, -t, coeffs.GOLDEN_MEAN)
    theta = float(verify.certified_spectrum_points(alphabet, 1)[0])
    profiles = [spectral.lambda_r_profile(seq2, 1.0 - e, grid) for e in eps]
    fit = spectral.holder_exponent(profiles, theta, eps)
    growth = transfer.pair_growth_exponents(seq1, complex(np.exp(1j * theta)))
    return theta, fit.beta_hat, growth.beta


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--couplings", default="0.1,0.3,0.5,0.7",
                    help="comma list of alphabet strengths t")
    ap.add_argument("--theta-count", type=int, default=4096)
    ap.add_argument("--out", default="holder_scan.csv")
    args = ap.parse_args()

    eps = np.geomspace(1e-3, 1e-1, 7)
    grid = np.linspace(0.0, 2.0 * math.pi, args.theta_count, endpoint=False)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coupling", "theta", "beta_hat", "beta_gamma"])
        for part in args.couplings.split(","):
            t = float(part)
            theta, beta_hat, beta_gamma = scan_coupling(t, eps, grid)
            writer.writerow([t, theta, beta_hat, beta_gamma])
            print(f"t = {t}: theta = {theta:.4f}, beta_hat = {beta_hat:.4f}, "
                  f"beta_gamma = {beta_gamma:.4f}", flush=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
