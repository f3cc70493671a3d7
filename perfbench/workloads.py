"""The four benchmark workloads: their inputs, the job steps and the
correctness checks run on their outputs.

`make(name, seed, work_dir, small)` writes a workload's generated inputs
under `work_dir` and returns the job spec that perfbench/job.py runs.
`check(name, spec, out_dir, result)` returns a list of problems found in
one job's outputs; it runs in the benchmark's own process, outside the
job's timed region.  `small` shrinks every size for perfbench/selftest.py.

Why each workload exists is in perfbench/README.md.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from cmvkit import coeffs, operator

NAMES = ("fib-holder", "explicit-measure", "walk-resolvent", "verify-battery")

FIB = ("--model", "sturmian", "--alphabet", "0.5,-0.5")
WALK_STEPS = 10000
EXPLICIT_RADII = (0.9, 0.99, 0.999)
# build_gz_context window for the resolvent sweep.  At 400 the entries at
# |z| within ~0.07 of the circle miss the oracle by up to a factor 2.
GZ_WINDOW = 1000
GZ_ORACLE_WINDOW = 4000
GZ_RADIUS = 5
# Every criterion but 11.  Criterion 11 takes ~15 s of the full battery's
# ~64 s and reaches only lambda_r_profile and norm_profile_batch, which
# fib-holder measures; without it one run fits the benchmark's time budget.
VERIFY_CRITERIA = "1,2,3,4,5,6,7,8,9,10,12,13"


def make(name: str, seed: int, work_dir: Path, small: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    out = work_dir / "out"
    steps = []
    spec = {"workload": name, "seed": seed, "out": str(out), "steps": steps}
    if name == "fib-holder":
        # fixed model: the seed has nothing to vary
        grid = ["--theta-count", "64"] if small else []
        small_holder = ["--eps", "0.01,0.02,0.05,0.1", "--r", "0.9"] if small else []
        steps.append(_cli("spectrum", *FIB, "--theta-count",
                          "64" if small else "2048", "--out", str(out)))
        steps.append(_cli("holder", *FIB, *grid, *small_holder, "--out", str(out)))
    elif name == "explicit-measure":
        n = 1 << (10 if small else 16)
        alphas = rng.uniform(0.0, 0.1, n) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))
        coeff_file = work_dir / "coefficients.txt"
        coeff_file.write_text("".join(f"{complex(a)!r}\n" for a in alphas), encoding="utf-8")
        radii = EXPLICIT_RADII[:2] if small else EXPLICIT_RADII
        steps.append(_cli("measure", "--model", "explicit", "--coeff-file",
                          str(coeff_file), "--theta-count", "256" if small else "4096",
                          "--r", ",".join(map(str, radii)), "--out", str(out)))
        spec["check_rows"] = rng.integers(0, 256 if small else 4096, 4).tolist()
    elif name == "walk-resolvent":
        count = 4 if small else 64
        # |z| uniform on [0.5, 0.95] for half the points, on [1.05, 2] for the rest
        mods = np.where(np.arange(count) < count // 2,
                        rng.uniform(0.5, 0.95, count), rng.uniform(1.05, 2.0, count))
        zs = mods * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, count))
        steps.append(_cli("walk", *FIB, "--steps", "200" if small else str(WALK_STEPS),
                          "--snapshots", "2", "--out", str(out)))
        steps.append({"kind": "resolvent_sweep", "z_re": zs.real.tolist(),
                      "z_im": zs.imag.tolist(), "window": GZ_WINDOW,
                      "radius": GZ_RADIUS, "path": str(out / "resolvent.npy")})
    elif name == "verify-battery":
        # the criteria pin their own seeds
        steps.append(_cli("verify", "--criteria", "1,5,8" if small else VERIFY_CRITERIA,
                          "--out", str(out)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return spec


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": list(argv)}


def check(name: str, spec: dict, out_dir: Path, result: dict) -> list:
    problems = [f"exit code {c}" for c in result["exit_codes"] if c != 0]
    if problems:
        return problems
    if name == "fib-holder":
        return _check_holder(out_dir)
    if name == "explicit-measure":
        return _check_explicit(spec, out_dir)
    if name == "walk-resolvent":
        return _check_walk(spec, out_dir)
    return []


def _run_dir(out_dir: Path, command: str) -> Path:
    dirs = sorted(out_dir.glob(f"{command}-*"))
    if len(dirs) != 1:
        raise FileNotFoundError(f"expected one {command} run in {out_dir}, found {len(dirs)}")
    return dirs[0]


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# Oracle values depend only on a run's inputs, which all jobs of the run
# share: each is computed for the first job and reused for the others.
_REFERENCES: dict = {}


def _reference(key, compute):
    if key not in _REFERENCES:
        _REFERENCES[key] = compute()
    return _REFERENCES[key]


def _explicit_sequence(coeff_file: str):
    with open(coeff_file, encoding="utf-8") as fh:
        alphas = [complex(line) for line in fh]
    return coeffs.extend_two_sided(coeffs.make_explicit(alphas), coeffs.make_constant(0.0))


def _check_holder(out_dir: Path) -> list:
    problems = []
    run = _run_dir(out_dir, "holder")
    record = json.loads((run / "holder.json").read_text(encoding="utf-8"))
    problems += [f"holder.json {k} = {v}" for k, v in record.items()
                 if not math.isfinite(v)]
    # holder writes arc masses, not densities: the masses of nested arcs of
    # a probability measure are positive, at most 1 and grow with the arc
    masses = [float(r["arc_mass"]) for r in _rows(run / "arc_mass.csv")]
    if not all(0.0 < m <= 1.0 + 1e-12 for m in masses):
        problems.append(f"arc masses outside (0, 1]: {masses}")
    if any(b < a for a, b in zip(masses, masses[1:])):
        problems.append(f"arc masses not increasing with eps: {masses}")
    atlas = _rows(_run_dir(out_dir, "spectrum") / "orbit_atlas.csv")
    if not atlas:
        problems.append("empty orbit atlas")
    return problems


def _check_explicit(spec: dict, out_dir: Path) -> list:
    problems = []
    run = _run_dir(out_dir, "measure")
    rows = _rows(run / "density.csv")
    argv = spec["steps"][0]["argv"]
    coeff_file = argv[argv.index("--coeff-file") + 1]
    seq = _reference(("explicit", coeff_file), lambda: _explicit_sequence(coeff_file))
    for r in sorted({float(row["r"]) for row in rows}):
        prof = [row for row in rows if float(row["r"]) == r]
        thetas = np.array([float(row["theta"]) for row in prof])
        density = np.array([float(row["density"]) for row in prof])
        n = len(density)
        if np.any(density < 0.0):
            problems.append(f"r = {r}: negative density")
        # periodic trapezoid mass of a Poisson integral of a probability
        # measure differs from 1 by at most 2 r^n / (1 - r^n)
        mass = float(np.sum(density)) * 2.0 * math.pi / n
        if abs(mass - 1.0) > 2.0 * r ** n / (1.0 - r ** n) + 1e-9:
            problems.append(f"r = {r}: total mass {mass}")
        # F = 1 + z (G00 + G11) from the banded resolvent of a window wide
        # enough that r^(W/2) is below e^-40
        W = min(int(math.ceil(80.0 / (1.0 - r))), 1 << 16)
        for i in spec["check_rows"]:
            i = i % n
            z = r * np.exp(1j * thetas[i])
            G = _reference(("explicit", coeff_file, z, W),
                           lambda: operator.resolvent_oracle_block(seq, z, W, [0, 1], [0, 1]))
            ref = (1.0 + z * (G[0, 0] + G[1, 1])).real / (2.0 * math.pi)
            if abs(ref - density[i]) > 1e-9 * abs(ref):
                problems.append(f"r = {r}, theta = {thetas[i]}: density "
                                f"{density[i]} vs oracle {ref}")
    return problems


def _check_walk(spec: dict, out_dir: Path) -> list:
    problems = []
    for path in sorted(_run_dir(out_dir, "walk").glob("state_*.csv")):
        norm = math.sqrt(sum(float(row["abs2"]) for row in _rows(path)))
        if abs(norm - 1.0) > 1e-10:
            problems.append(f"{path.name}: norm drift {abs(norm - 1.0):.3e}")
    step = spec["steps"][1]
    gz = np.load(step["path"])
    seq = coeffs.extend_two_sided(
        coeffs.make_sturmian(0.5, -0.5, coeffs.GOLDEN_MEAN), coeffs.make_constant(0.0))
    sites = list(range(-step["radius"], step["radius"] + 1))
    for k, (zr, zi) in enumerate(zip(step["z_re"], step["z_im"])):
        z = complex(zr, zi)
        G = _reference(("walk", z, step["radius"]),
                       lambda: operator.resolvent_oracle_block(seq, z, GZ_ORACLE_WINDOW,
                                                               sites, sites))
        # entries that vanish identically are measured against the block scale
        floor = max(1e-9 * float(np.max(np.abs(G))), 1e-300)
        err = float(np.max(np.abs(gz[k] - G) / np.maximum(np.abs(G), floor)))
        if err > 1e-6:
            problems.append(f"z = {complex(zr, zi):.4f}: gz_entry rel err {err:.3e}")
    return problems
