"""Command-line front end.

Subcommands: coeffs | spectrum | measure | holder | walk | verify.
Each takes, checks and echoes to config.json only the RunConfig fields it
reads (`_FIELDS`), in a timestamped run directory under --out, so results
are reproducible from the emitted artifacts alone.  A run whose
configuration is rejected or that fails leaves the message in error.txt.
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
        if self.theta is not None and not math.isfinite(self.theta):
            raise CMVKitError(f"theta = {self.theta} is not finite")
        # the trace map and the certified points read a two-letter golden-mean word
        unmapped = ("the explicit model" if self.model == "explicit" else
                    f"omega = {self.omega}" if self.omega != coeffs.GOLDEN_MEAN else "")
        if unmapped and self.command == "spectrum":
            raise CMVKitError("spectrum runs the golden-mean trace map; "
                              f"{unmapped} is not supported")
        if unmapped and self.command == "holder" and self.theta is None:
            raise CMVKitError("holder takes theta from the golden-mean mask; "
                              f"give --theta for {unmapped}")
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
    "theta": float,
}


_MODEL = ("model", "value", "alphabet", "omega", "coeff_file", "left_model", "left_value")

# the RunConfig fields each command reads, besides `out`: its flags, the
# keys its config file may hold and the keys its config.json records.
# holder no longer reads theta_count (its arc masses come from quadrature
# on each arc); the field stays accepted for one more release, because
# perfbench's small fib-holder job still passes --theta-count to holder.
_FIELDS = {
    "coeffs": _MODEL + ("n_range",),
    "spectrum": ("model", "value", "alphabet", "omega", "theta_count", "trace_levels"),
    "measure": _MODEL + ("theta_count", "r_list", "depth"),
    "holder": _MODEL + ("theta_count", "r_list", "eps_list", "depth", "theta"),
    "walk": _MODEL + ("steps", "snapshots", "start"),
    "verify": ("criteria",),
}

# each field's flag and argparse options; left_model and left_value are config-only
_FLAGS = {
    "model": ("--model", {"choices": ("constant", "sturmian", "explicit")}),
    "value": ("--value", {"help": "constant-model coefficient, e.g. 0.5 or 0.3+0.2j"}),
    "alphabet": ("--alphabet", {"help": "two letters a,b for the sturmian model"}),
    "omega": ("--omega", {"type": float}),
    "coeff_file": ("--coeff-file", {}),
    "theta_count": ("--theta-count", {"type": int}),
    "r_list": ("--r", {"help": "comma list of radii"}),
    "eps_list": ("--eps", {"help": "comma list of arc scales"}),
    "depth": ("--depth", {"type": int}),
    "theta": ("--theta", {"type": float}),
    "n_range": ("--n-range", {"help": "lo,hi index range"}),
    "trace_levels": ("--trace-levels", {"type": int}),
    "steps": ("--steps", {"type": int}),
    "snapshots": ("--snapshots", {"type": int}),
    "start": ("--start", {"type": int, "help": "site of the initial delta state"}),
    "criteria": ("--criteria", {"help": "comma list of criterion numbers (default: all)"}),
}


def _one_sided_model(cfg: RunConfig):
    if cfg.model == "constant":
        return coeffs.make_constant(cfg.value)
    if cfg.model == "sturmian":
        return coeffs.make_sturmian(cfg.alphabet[0], cfg.alphabet[1], cfg.omega)
    if cfg.model == "explicit":
        try:
            values = _read_coefficients(cfg.coeff_file)
        except (OSError, UnicodeDecodeError) as exc:
            raise CMVKitError(f"cannot read coefficient file: {exc}") from None
        return coeffs.make_explicit(values)
    raise CMVKitError(f"unknown model {cfg.model!r}")


def _read_coefficients(path: str) -> list:
    """One value per line from the first comma-separated column; blank
    lines and lines starting with # are skipped, and i may stand for j."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            # a bare literal, the common line, is its own complex(); with an
            # i in it (as in inf) _parse_complex may read it otherwise
            if "i" not in line:
                try:
                    values.append(complex(line))
                    continue
                except ValueError:
                    pass
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    values.append(_parse_complex(line.split(",")[0]))
                except ValueError:
                    raise CMVKitError(f"{path}, line {lineno}: "
                                      f"not a complex number: {line!r}") from None
    return values


def _trace_alphabet(cfg: RunConfig) -> tuple:
    """The trace map's two letters: the Sturmian ones, or the constant twice."""
    return cfg.alphabet if cfg.model == "sturmian" else (cfg.value, cfg.value)


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

    recorded = {"command", "out", *_FIELDS[cfg.command]}
    payload = {k: v for k, v in dataclasses.asdict(cfg).items() if k in recorded}
    with open(path / "config.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)  # complex values as text
    return path


def cmd_coeffs(cfg: RunConfig, out: Path) -> int:
    """Dump Verblunsky coefficients and CMV bands as CSV."""
    seq = _two_sided_model(cfg)
    lo, hi = cfg.n_range
    coeffs.write_coeffs_csv(seq, lo, hi, out / "coefficients.csv")
    block = operator.build_finite_cmv(seq, max(hi - max(lo, 0), 8))
    operator.write_bands_csv(block, out / "bands.csv")
    print(f"wrote {out / 'coefficients.csv'} and {out / 'bands.csv'}")
    return 0


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    """Trace-map atlas and growth constants."""
    cf = tracemap.golden_cf(max(22, cfg.trace_levels + 2))
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg.theta_count, endpoint=False)
    alphabet = _trace_alphabet(cfg)
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
    """Boundary density profiles."""
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
    """Arc-mass Hölder fit with cross-check."""
    seq2 = _two_sided_model(cfg, default_left="word")
    seq1 = operator.split_at_origin(seq2)[0]
    theta0 = float(cfg.theta if cfg.theta is not None else
                   verify.certified_spectrum_points(_trace_alphabet(cfg), 1)[0])
    fit = spectral.holder_exponent(seq2, theta0, sorted(cfg.eps_list), max_depth=cfg.depth)
    z = complex(np.exp(1j * theta0))
    growth = transfer.pair_growth_exponents(seq1, z)
    norm_samples = growth.samples()
    norm_fit = transfer.fit_power_law(norm_samples)
    rows = []
    for r in cfg.r_list:
        # at lam = 1 the Alexandrov member is seq1 itself, so F0 is F^lam
        F0 = cara.schur_eval_F_adaptive(seq1, r * z, max_depth=cfg.depth)
        xr = cara.solve_x_of_r(seq1, 1.0, z, r)
        rows.append((r, theta0, F0, xr.x, xr.jl_ratio(F0), cara.mobius_sup(F0)))
    record = {
        "theta": theta0,
        "beta_hat": fit.beta_hat,
        "envelope_beta": fit.envelope_beta,
        "arc_quadrature_error": fit.quadrature_error,
        "gamma_low": growth.g_lo,
        "gamma_high": growth.g_hi,
        "gamma_cross_check": growth.beta,
        "gamma_envelope_cross_check": growth.envelope_beta,
    }
    # a failed run writes no result file, so every file waits for the last computation
    spectral.write_arcmass_csv(fit, out / "arc_mass.csv")
    transfer.write_norm_csv(norm_samples, out / "norm_samples.csv")
    transfer.fit_to_json(norm_fit, out / "norm_fit.json")
    cara.write_boundary_csv(rows, out / "boundary.csv")
    with open(out / "holder.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(record, indent=2))
    print(f"wrote {out / 'arc_mass.csv'}, {out / 'boundary.csv'}, "
          f"{out / 'norm_samples.csv'} and {out / 'holder.json'}")
    return 0


def cmd_walk(cfg: RunConfig, out: Path) -> int:
    """Evolve a quantum walk and dump snapshots."""
    seq = _two_sided_model(cfg)
    snaps = sorted({int(round(k)) for k in
                    np.linspace(0, cfg.steps, max(cfg.snapshots, 2))})
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
    """Run the acceptance criteria."""
    numbers = set(cfg.criteria) if cfg.criteria else None
    results = verify.run_all(numbers=numbers)
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


def _build_config(command: str, args: argparse.Namespace) -> RunConfig:
    fields = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            fields.update(json.load(fh))
    # every flag's dest is the RunConfig field it sets
    fields.update({k: v for k, v in vars(args).items()
                   if k not in ("command", "config") and v is not None})
    fields["command"] = command  # a config file's `command` does not pick the command
    unknown = set(fields) - {"command", "out", *_FIELDS[command]}
    if unknown:
        raise CMVKitError(f"unknown config fields: {sorted(unknown)}")
    for name in _PARSERS.keys() & fields.keys():
        value = fields[name]
        if isinstance(value, (str, list)):
            try:
                fields[name] = _PARSERS[name](value)
            except ValueError:  # config.json echoes the text, `validated` rejects it
                fields[name] = str(value)
    return RunConfig(**fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmvkit",
        description="spectral toolkit for CMV and extended CMV operators")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, fields in _FIELDS.items():
        # no prefix matching: `measure --theta` must not set --theta-count
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__, allow_abbrev=False)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with the command's RunConfig fields; flags override it")
        p.add_argument("--out", type=str, default=None, help="output directory")
        for name in fields:
            if name in _FLAGS:
                flag, options = _FLAGS[name]
                p.add_argument(flag, dest=name, default=None, **options)

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
    except Exception as exc:
        # not a known failure: keep the traceback and exit status 1, but say
        # in the run directory why it holds no results
        if out is not None:
            (out / "error.txt").write_text(f"{type(exc).__name__}: {exc}\n",
                                           encoding="utf-8")
        raise


if __name__ == "__main__":
    sys.exit(main())
