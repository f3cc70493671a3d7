#!/usr/bin/env python3
"""Spectrum-approximation atlas for a Sturmian alphabet.

Computes the trace-orbit masks at increasing substitution depth, showing
gaps opening as the depth grows, and emits the certified growth
constants.  Output: one CSV with a mask column per depth.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmvkit import tracemap  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphabet", default="0.5,-0.5")
    ap.add_argument("--theta-count", type=int, default=2048)
    ap.add_argument("--depths", default="4,8,12,16")
    ap.add_argument("--out", default="spectrum_atlas.csv")
    args = ap.parse_args()

    a, b = (complex(x) for x in args.alphabet.split(","))
    alphabet = (a, b)
    depths = [int(d) for d in args.depths.split(",")]
    cf = tracemap.golden_cf(max(depths) + 6)
    thetas = np.linspace(0.0, 2.0 * math.pi, args.theta_count, endpoint=False)
    # one sweep to the deepest level; its first d levels give the depth-d mask
    sweep = tracemap.orbit_sweep(alphabet, cf, np.exp(1j * thetas), max(depths))
    K = tracemap.default_trace_bound(sweep.invariant_sup)
    masks = {d: sweep.mask(K, d) for d in depths}
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta"] + [f"mask_n{d}" for d in depths])
        for i, theta in enumerate(thetas):
            writer.writerow([repr(float(theta))]
                            + [int(masks[d][i]) for d in depths])
    for d in depths:
        print(f"depth {d:2d}: mask fraction {masks[d].mean():.4f}")

    constants = tracemap.gamma_constants(alphabet, cf, sweep.invariant_sup,
                                         sweep.seed_sups)
    record = tracemap.constants_to_json(constants)
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
