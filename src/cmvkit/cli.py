"""Command-line front end.

Subcommands: coeffs | spectrum | measure | holder | walk | verify.
Every run writes into a timestamped directory under --out with the fully
resolved configuration echoed as config.json, so results are reproducible
from the emitted artifacts alone.  A run whose configuration is rejected
or that fails with an error leaves the error message in error.txt beside
config.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import caratheodory as cara
from . import coeffs, operator, spectral, tracemap, transfer, verify
from .errors import CMVKitError, UnconvergedWarning


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: str = "sturmian"            # constant | sturmian | explicit
    value: complex = 0.0               # constant model coefficient
    alphabet: tuple = (0.5, -0.5)      # sturmian letters
    omega: float = coeffs.GOLDEN_MEAN
    coeff_file: str = ""               # explicit model source
    left_value: complex = 0.0          # two-sided filler on the left half
    left_model: str = ""               # "constant" | "word"; "" = per-command default
    theta_count: int = 1024
    r_list: tuple = (0.9, 0.99, 0.999)
    eps_list: tuple = (1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1)
    depth: int = 1 << 15
    n_range: tuple = (0, 64)
    trace_levels: int = 10
    steps: int = 1000
    snapshots: int = 5
    start: int = 0
    theta: float | None = None
    out: str = "runs"
    criteria: tuple = ()

    def validated(self) -> "RunConfig":
        for name in _PARSERS:
            if isinstance(getattr(self, name), str):
                raise CMVKitError(f"{name}: cannot parse {getattr(self, name)!r}")
        if len(self.alphabet) != 2 or len(self.n_range) != 2:
            raise CMVKitError("alphabet and n_range take two values each")
        if self.n_range[1] <= self.n_range[0]:
            raise CMVKitError(f"n-range {self.n_range[0]},{self.n_range[1]} is empty")
        if self.model == "constant" and abs(self.value) >= 1.0:
            raise CMVKitError(f"|alpha| = {abs(self.value)} >= 1")
        if self.model == "sturmian":
            if not 0.0 < self.omega < 1.0:
                raise CMVKitError(f"omega = {self.omega} outside (0, 1)")
            if any(abs(a) >= 1.0 for a in self.alphabet):
                raise CMVKitError("alphabet letter outside the unit disk")
        if self.omega != coeffs.GOLDEN_MEAN:
            if self.command == "spectrum":
                raise CMVKitError("spectrum runs the golden-mean trace map; "
                                  f"omega = {self.omega} is not supported")
            if self.command == "holder" and self.theta is None:
                raise CMVKitError("holder takes theta from the golden-mean mask; "
                                  f"give --theta for omega = {self.omega}")
        if self.left_model not in ("", "constant", "word"):
            raise CMVKitError(f"unknown left_model {self.left_model!r}")
        if self.left_model == "word" and self.model != "sturmian":
            raise CMVKitError("left_model 'word' needs the sturmian model")
        if any(not 0.0 < r < 1.0 for r in self.r_list):
            raise CMVKitError("every r must lie in (0, 1)")
        if any(not 0.0 < e < math.pi for e in self.eps_list):
            raise CMVKitError("every eps must lie in (0, pi)")
        if self.theta_count < 8:
            raise CMVKitError("theta-count must be at least 8")
        if self.steps < 0 or self.depth < 1:
            raise CMVKitError("steps/depth out of range")
        if self.trace_levels < 1:
            raise CMVKitError("trace-levels must be at least 1")
        if any(not 1 <= c <= len(verify.ALL_CRITERIA) for c in self.criteria):
            raise CMVKitError(f"criteria must lie in 1..{len(verify.ALL_CRITERIA)}")
        return self


def _parse_complex(text: str) -> complex:
    return complex(str(text).replace(" ", "").replace("i", "j"))


def _comma_list(parse):
    """Parser of comma-list text or of a JSON array, as config.json writes it."""
    return lambda v: tuple(parse(str(x)) for x in (v if isinstance(v, list) else v.split(",")))


# RunConfig fields given as text, by flag or config file, and their parsers
_PARSERS = {
    "value": _parse_complex,
    "alphabet": _comma_list(_parse_complex),
    "r_list": _comma_list(float),
    "eps_list": _comma_list(float),
    "n_range": _comma_list(int),
    "criteria": _comma_list(int),
}


def _one_sided_model(cfg: RunConfig):
    if cfg.model == "constant":
        return coeffs.make_constant(cfg.value)
    if cfg.model == "sturmian":
        return coeffs.make_sturmian(cfg.alphabet[0], cfg.alphabet[1], cfg.omega)
    if cfg.model == "explicit":
        values = []
        try:
            with open(cfg.coeff_file, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if line and not line.startswith("#"):
                        try:
                            values.append(_parse_complex(line.split(",")[0]))
                        except ValueError:
                            raise CMVKitError(
                                f"{cfg.coeff_file}, line {lineno}: "
                                f"not a complex number: {line!r}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise CMVKitError(f"cannot read coefficient file: {exc}") from None
        return coeffs.make_explicit(values)
    raise CMVKitError(f"unknown model {cfg.model!r}")


def _two_sided_model(cfg: RunConfig, default_left: str = "constant"):
    left = cfg.left_model or default_left
    if left == "word" and cfg.model == "sturmian":
        # continue the Sturmian formula to negative indices
        return coeffs.make_sturmian(cfg.alphabet[0], cfg.alphabet[1],
                                    cfg.omega, support="full")
    return coeffs.extend_two_sided(_one_sided_model(cfg),
                                   coeffs.make_constant(cfg.left_value))


def _run_dir(cfg: RunConfig) -> Path:
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    path = Path(cfg.out) / f"{cfg.command}-{stamp}"
    n = 0
    while path.exists():
        n += 1
        path = Path(cfg.out) / f"{cfg.command}-{stamp}-{n}"
    path.mkdir(parents=True)

    def encode(v):
        if isinstance(v, complex):
            return str(v)
        if isinstance(v, (list, tuple)):
            return [encode(x) for x in v]
        return v

    payload = {k: encode(v) for k, v in dataclasses.asdict(cfg).items()}
    with open(path / "config.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    return path


def cmd_coeffs(cfg: RunConfig, out: Path) -> int:
    seq = _two_sided_model(cfg)
    lo, hi = cfg.n_range
    coeffs.write_coeffs_csv(seq, lo, hi, out / "coefficients.csv")
    matrix = operator.build_finite_cmv(seq, max(hi - max(lo, 0), 8)).dense()
    operator.write_bands_csv(matrix, out / "bands.csv")
    print(f"wrote {out / 'coefficients.csv'} and {out / 'bands.csv'}")
    return 0


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    cf = tracemap.golden_cf(max(22, cfg.trace_levels + 2))
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg.theta_count, endpoint=False)
    alphabet = cfg.alphabet if cfg.model == "sturmian" else (cfg.value, cfg.value)
    sweep = tracemap.orbit_sweep(alphabet, cf, np.exp(1j * thetas), cfg.trace_levels)
    mask = sweep.mask(tracemap.default_trace_bound(sweep.invariant_sup),
                      cfg.trace_levels)
    tracemap.write_orbit_csv(sweep, cf, thetas, mask, out / "orbit_atlas.csv")
    gc = tracemap.gamma_constants(alphabet, cf, sweep.invariant_sup, sweep.seed_sups)
    tracemap.constants_to_json(gc, out / "growth_constants.json")
    print(f"mask fraction {mask.mean():.4f}; beta = {gc.beta:.3e}")
    print(f"wrote {out / 'orbit_atlas.csv'} and {out / 'growth_constants.json'}")
    return 0


def cmd_measure(cfg: RunConfig, out: Path) -> int:
    seq = _two_sided_model(cfg)
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg.theta_count, endpoint=False)
    profiles = [spectral.lambda_r_profile(seq, r, thetas, max_depth=cfg.depth)
                for r in cfg.r_list]
    spectral.write_density_csv(profiles, out / "density.csv")
    for r, p in zip(cfg.r_list, profiles):
        print(f"r = {r}: total mass {p.total_mass:.6f}, "
              f"min density {p.density.min():.3e}")
    print(f"wrote {out / 'density.csv'}")
    return 0


def cmd_holder(cfg: RunConfig, out: Path) -> int:
    seq2 = _two_sided_model(cfg, default_left="word")
    seq1 = _one_sided_model(cfg)
    eps = np.asarray(sorted(cfg.eps_list))
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg.theta_count, endpoint=False)
    profiles = [spectral.lambda_r_profile(seq2, 1.0 - e, thetas,
                                          max_depth=cfg.depth) for e in eps]
    if cfg.theta is not None:
        theta0 = float(cfg.theta)
    else:
        alphabet = cfg.alphabet if cfg.model == "sturmian" else (cfg.value, cfg.value)
        theta0 = float(verify.certified_spectrum_points(alphabet, 1)[0])
    fit = spectral.holder_exponent(profiles, theta0, eps)
    spectral.write_arcmass_csv(fit, out / "arc_mass.csv")
    z = complex(np.exp(1j * theta0))
    growth = transfer.pair_growth_exponents(seq1, z)
    norm_samples = growth.samples()
    transfer.write_norm_csv(norm_samples, out / "norm_samples.csv")
    transfer.fit_to_json(transfer.fit_power_law(norm_samples),
                         out / "norm_fit.json")
    rows = []
    for r in cfg.r_list:
        # at lam = 1 the Alexandrov member is seq1 itself, so F0 is F^lam
        F0 = cara.schur_eval_F_adaptive(seq1, r * z, max_depth=cfg.depth)
        xr = cara.solve_x_of_r(seq1, 1.0, z, r)
        rows.append((r, theta0, F0, xr.x, xr.jl_ratio(F0), cara.mobius_sup(F0)))
    cara.write_boundary_csv(rows, out / "boundary.csv")
    record = {
        "theta": theta0,
        "beta_hat": fit.beta_hat,
        "envelope_beta": fit.envelope_beta,
        "gamma_low": growth.g_lo,
        "gamma_high": growth.g_hi,
        "gamma_cross_check": growth.beta,
        "gamma_envelope_cross_check": growth.envelope_beta,
    }
    with open(out / "holder.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(record, indent=2))
    print(f"wrote {out / 'arc_mass.csv'}, {out / 'boundary.csv'}, "
          f"{out / 'norm_samples.csv'} and {out / 'holder.json'}")
    return 0


def cmd_walk(cfg: RunConfig, out: Path) -> int:
    seq = _two_sided_model(cfg)
    kmax = cfg.steps
    snaps = sorted({int(round(k)) for k in
                    np.linspace(0, kmax, max(cfg.snapshots, 2))})
    cur = operator.State.delta(cfg.start)
    done = 0
    for k in snaps:
        cur = operator.evolve_walk(seq, cur, k - done)
        done = k
        operator.write_state_csv(cur, out / f"state_{k:06d}.csv")
        print(f"k = {k}: norm {cur.norm():.12f}, support "
              f"[{cur.offset}, {cur.offset + len(cur.values) - 1}]")
    print(f"wrote {len(snaps)} snapshots into {out}")
    return 0


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    numbers = set(cfg.criteria) if cfg.criteria else None
    results = verify.run_all(numbers=numbers, echo=True)
    record = verify.report_to_json(results, out / "verification.json")
    print(f"wrote {out / 'verification.json'}")
    return 0 if record["all_hard_passed"] else 1


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "spectrum": cmd_spectrum,
    "measure": cmd_measure,
    "holder": cmd_holder,
    "walk": cmd_walk,
    "verify": cmd_verify,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with RunConfig fields; flags override it")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--model", choices=("constant", "sturmian", "explicit"),
                   default=None)
    p.add_argument("--value", type=str, default=None,
                   help="constant-model coefficient, e.g. 0.5 or 0.3+0.2j")
    p.add_argument("--alphabet", type=str, default=None,
                   help="two letters a,b for the sturmian model")
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--coeff-file", type=str, default=None)
    p.add_argument("--theta-count", type=int, default=None)
    p.add_argument("--r", dest="r_list", type=str, default=None, help="comma list of radii")
    p.add_argument("--eps", dest="eps_list", type=str, default=None,
                   help="comma list of arc scales")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)


def _build_config(command: str, args: argparse.Namespace) -> RunConfig:
    fields = {"command": command}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            fields.update(json.load(fh))
    # every flag's dest is the RunConfig field it sets
    fields.update({k: v for k, v in vars(args).items()
                   if k not in ("command", "config") and v is not None})
    for name in _PARSERS.keys() & fields.keys():
        value = fields[name]
        if isinstance(value, (str, list)):
            try:
                fields[name] = _PARSERS[name](value)
            except ValueError:  # config.json echoes the text, `validated` rejects it
                fields[name] = str(value)
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(fields) - known
    if unknown:
        raise CMVKitError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmvkit",
        description="spectral toolkit for CMV and extended CMV operators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="dump Verblunsky coefficients as CSV")
    _add_common(p)
    p.add_argument("--n-range", type=str, default=None, help="lo,hi index range")

    p = sub.add_parser("spectrum", help="trace-map atlas and growth constants")
    _add_common(p)
    p.add_argument("--trace-levels", type=int, default=None)

    p = sub.add_parser("measure", help="boundary density profiles")
    _add_common(p)

    p = sub.add_parser("holder", help="arc-mass Hölder fit with cross-check")
    _add_common(p)

    p = sub.add_parser("walk", help="evolve a quantum walk and dump snapshots")
    _add_common(p)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--snapshots", type=int, default=None)
    p.add_argument("--start", type=int, default=None,
                   help="site of the initial delta state")

    p = sub.add_parser("verify", help="run the acceptance criteria")
    _add_common(p)
    p.add_argument("--criteria", type=str, default=None,
                   help="comma list of criterion numbers (default: all)")

    args = parser.parse_args(argv)
    out = None
    try:
        cfg = _build_config(args.command, args)
        out = _run_dir(cfg)
        # validated here so that a rejected configuration leaves error.txt
        cfg = cfg.validated()
        # an unconverged evaluation must not leave results behind as if final
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnconvergedWarning)
            return _COMMANDS[args.command](cfg, out)
    except (CMVKitError, UnconvergedWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if out is not None:
            (out / "error.txt").write_text(f"{exc}\n", encoding="utf-8")
        return 2


if __name__ == "__main__":
    sys.exit(main())
