"""Acceptance verification suite.

Each criterion is a standalone callable returning a CriterionResult with
its measured quantities; `run_all` executes the full battery.  The
Hölder cross-check is declared soft: its outcome is reported but does
not affect the aggregate pass/fail (the underlying comparison is an
asymptotic statement probed at finite scale).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import caratheodory as cara
from . import coeffs, operator, spectral, tracemap, transfer
from .errors import InsufficientDataError

FIB_ALPHABET = (0.5, -0.5)
# window half-width at which criteria 2 and 3 state their tolerances
GZ_WINDOW = 400
# theta grid, mask level, longest solution and least separation of the certified points
_CERTIFIED_GRID = 4096
_CERTIFIED_LEVEL = 16
_CERTIFIED_L_MAX = 8192
_CERTIFIED_SEPARATION = 0.15


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    severity: str  # "hard" or "soft"
    details: str
    measured: dict = field(default_factory=dict)
    wall_s: float | None = None  # set by run_all

    def line(self) -> str:
        status = "PASS" if self.passed else ("SOFT-FAIL" if self.severity == "soft" else "FAIL")
        return f"[{status}] criterion {self.number:2d}: {self.name} -- {self.details}"


def _fib_one_sided():
    return coeffs.make_sturmian(*FIB_ALPHABET, coeffs.GOLDEN_MEAN)


def _fib_two_sided():
    return coeffs.extend_two_sided(_fib_one_sided(), coeffs.make_constant(0.0))


def _free_two_sided():
    return coeffs.extend_two_sided(coeffs.make_constant(0.0),
                                   coeffs.make_constant(0.0))


def _criterion_z_set():
    angles = 2.0 * math.pi * np.arange(8) / 8.0 + 0.321
    return [complex(R * np.exp(1j * t)) for R in (0.5, 0.9, 1.1) for t in angles]


def _spectrum_mask(alphabet, cf, thetas, n: int) -> np.ndarray:
    """Level-n spectrum mask at the angles `thetas`, from one orbit sweep
    that also gives the trace bound; the sweep is dropped on return."""
    sweep = tracemap.orbit_sweep(alphabet, cf, np.exp(1j * thetas), n)
    return sweep.mask(tracemap.default_trace_bound(sweep.invariant_sup), n)


def _spectrum_points(alphabet, count: int):
    """`count` evenly spread angles of the level-10 mask on a 256-point grid."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    idx = np.where(_spectrum_mask(alphabet, tracemap.golden_cf(22), thetas, 10))[0]
    return thetas[idx[np.linspace(0, len(idx) - 1, count).astype(int)]]


def criterion_1() -> CriterionResult:
    """Unitarity of random finite truncations."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        n = 50
        mods = rng.uniform(0.0, 0.95, n - 1)
        phases = rng.uniform(0.0, 2.0 * math.pi, n - 1)
        seq = coeffs.make_explicit(mods * np.exp(1j * phases))
        eta = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        C = operator.build_finite_cmv(seq, n, eta).dense()
        eye = np.eye(n)
        worst = max(worst,
                    float(np.max(np.abs(C.conj().T @ C - eye))),
                    float(np.max(np.abs(C @ C.conj().T - eye))))
    return CriterionResult(1, "finite CMV unitarity", worst < 1e-12, "hard",
                           f"max |C*C - I| = {worst:.3e} (tol 1e-12)",
                           {"max_defect": worst})


def _gz_oracle_errors():
    seq = _fib_two_sided()
    xs = list(range(-5, 6))
    worst_entry = 0.0
    worst_corner = 0.0
    convention = spectral.resolve_m_minus_convention(seq)
    for z in _criterion_z_set():
        ctx = spectral.build_gz_context(seq, z, GZ_WINDOW)
        G = operator.resolvent_oracle_block(seq, z, GZ_WINDOW, xs, xs)
        # entries that vanish identically carry no relative scale of their
        # own; those are measured against the block scale
        floor = max(1e-9 * float(np.max(np.abs(G))), 1e-300)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                g = spectral.gz_entry(ctx, x, y)
                worst_entry = max(worst_entry,
                                  abs(g - G[i, j]) / max(abs(G[i, j]), floor))
        diag = spectral.gz_entry(ctx, 0, 0) + spectral.gz_entry(ctx, 1, 1)
        ct = spectral.corner_trace(ctx)
        worst_corner = max(worst_corner, abs(ct - diag) / abs(diag))
    return worst_entry, worst_corner, convention


_gz_cache: dict = {}


def _gz_results():
    if "gz" not in _gz_cache:
        _gz_cache["gz"] = _gz_oracle_errors()
    return _gz_cache["gz"]


def criterion_2() -> CriterionResult:
    worst, _, convention = _gz_results()
    # assembly uses the split-site coefficient; the oracle must agree
    ok = worst < 1e-6 and convention == "split-site"
    return CriterionResult(
        2, "resolvent formula vs dense oracle", ok, "hard",
        f"max rel err = {worst:.3e} (tol 1e-6); M-minus convention '{convention}'",
        {"max_rel_err": worst, "m_minus_convention": convention,
         "window": GZ_WINDOW})


def criterion_3() -> CriterionResult:
    _, worst, _ = _gz_results()
    return CriterionResult(
        3, "corner-trace closed form", worst < 1e-9, "hard",
        f"max rel err = {worst:.3e} (tol 1e-9)", {"max_rel_err": worst})


def criterion_4() -> CriterionResult:
    seq = _free_two_sided()
    errs = {}
    worst_F = worst_corner = 0.0
    for z in (0.5, 0.3 * np.exp(0.9j), 0.8 * np.exp(2.2j)):
        ctx = spectral.build_gz_context(seq, complex(z), 120)
        worst_F = max(worst_F, abs(spectral.F_extended(ctx) - 1.0))
        worst_corner = max(worst_corner, abs(spectral.corner_trace(ctx)))
    errs["F_minus_1"] = worst_F
    errs["corner"] = worst_corner
    grid = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    prof = spectral.lambda_r_profile(seq, 0.95, grid)
    errs["density"] = float(np.max(np.abs(prof.density - 1.0 / (2.0 * math.pi))))
    fit = spectral.holder_exponent(seq, 1.0, np.geomspace(1e-3, 1e-1, 6))
    errs["beta_minus_1"] = abs(fit.beta_hat - 1.0)
    worst_x = 0.0
    for r in (0.9, 0.99):
        x = cara.solve_x_of_r(coeffs.make_constant(0.0), 1.0,
                              complex(np.exp(0.7j)), r).x
        worst_x = max(worst_x, abs(x - (math.sqrt(2.0) / (1.0 - r) - 1.0)))
    errs["x_of_r"] = worst_x
    ok = (errs["F_minus_1"] < 1e-10 and errs["corner"] < 1e-12
          and errs["density"] < 1e-8 and errs["beta_minus_1"] < 0.02
          and errs["x_of_r"] < 1.0)
    detail = ("F-1 {F_minus_1:.1e} (1e-10), corner {corner:.1e} (1e-12), "
              "density {density:.1e} (1e-8), beta-1 {beta_minus_1:.1e} (0.02), "
              "x(r) {x_of_r:.1e} (1 step)").format(**errs)
    return CriterionResult(4, "free-case suite", ok, "hard", detail, errs)


def criterion_5() -> CriterionResult:
    cf = tracemap.golden_cf(22)
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    sweep = tracemap.orbit_sweep(FIB_ALPHABET, cf, np.exp(1j * thetas), 15)
    worst = 0.0
    for g in range(len(thetas)):
        cutoff = int(sweep.first_overflow[g])
        vals = [sweep.invariant[n, g] for n in range(1, min(15, cutoff - 1) + 1)]
        if len(vals) > 1:
            ref = vals[0]
            worst = max(worst, max(abs(v - ref) / (1.0 + abs(ref)) for v in vals))
    return CriterionResult(
        5, "Fricke invariant conservation", worst < 1e-8, "hard",
        f"max relative drift = {worst:.3e} (tol 1e-8)", {"max_drift": worst})


def criterion_6() -> CriterionResult:
    cf = tracemap.golden_cf(22)
    n_levels = max(n for n in range(len(cf.q)) if cf.q[n] <= 500)
    word = tracemap.standard_word(cf.quotients, n_levels)
    seq_word = coeffs.make_explicit(tracemap.word_alphas(FIB_ALPHABET, word))
    worst = 0.0
    for theta in 2.0 * math.pi * np.arange(8) / 8.0 + 0.17:
        z = complex(np.exp(1j * theta))
        Ma, Mb = tracemap._letter_matrices(FIB_ALPHABET, np.array([z]))
        M_prev, M_cur = Mb, Ma
        for n in range(1, n_levels + 1):
            qn = cf.q[n]
            T = transfer.normalize_sl2(
                transfer.cocycle_product(seq_word, z, qn), z, qn)
            worst = max(worst, float(np.max(np.abs(M_cur[0] - T))
                                     / np.max(np.abs(T))))
            M_prev, M_cur = M_cur, M_prev @ M_cur
    return CriterionResult(
        6, "substitution recursion vs direct product", worst < 1e-9, "hard",
        f"max entrywise rel err = {worst:.3e} for q_n <= 500 (tol 1e-9)",
        {"max_rel_err": worst})


def criterion_7() -> CriterionResult:
    rng = np.random.default_rng(5)
    worst = 0.0
    for label, seq in (("fibonacci", _fib_one_sided()),
                       ("constant-0.5", coeffs.make_constant(0.5))):
        mods = np.sqrt(rng.uniform(0.0, 1.0, 64)) * 0.95
        zs = mods * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 64))
        F_schur = cara.schur_F_batch(seq, zs)
        F_res = cara.resolvent_oracle_F(seq, zs, 2000)
        worst = max(worst, float(np.max(np.abs(F_schur - F_res))))
    return CriterionResult(
        7, "Schur algorithm vs truncation-resolvent oracle", worst < 1e-8, "hard",
        f"max |F_schur - F_res| = {worst:.3e} at N=2000 (tol 1e-8)",
        {"max_abs_err": worst})


def _mobius_points() -> np.ndarray:
    """Criterion 8's 1000 F: re uniform on [0.01, 4), im on [-4, 4), the
    pairs drawn in turn from one seeded generator."""
    rng = np.random.default_rng(1)
    draws = rng.uniform([0.01, -4.0], [4.0, 4.0], size=(1000, 2))
    return draws[:, 0] + 1j * draws[:, 1]


def criterion_8() -> CriterionResult:
    F = _mobius_points()
    closed = cara.mobius_sup(F)
    worst = float(np.max(np.abs(closed - cara.mobius_sup_grid(F)) / closed))
    return CriterionResult(
        8, "Möbius supremum closed form", worst < 1e-10, "hard",
        f"max rel err vs refined 4096-grid = {worst:.3e} (tol 1e-10)",
        {"max_rel_err": worst})


def criterion_9() -> CriterionResult:
    cf = tracemap.golden_cf(22)
    thetas = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    sweep = tracemap.orbit_sweep(FIB_ALPHABET, cf, np.exp(1j * thetas), 10)
    mask = sweep.mask(tracemap.default_trace_bound(sweep.invariant_sup), 10)
    gc = tracemap.gamma_constants(FIB_ALPHABET, cf, sweep.invariant_sup,
                                  sweep.seed_sups)
    violations = 0
    margin = math.inf
    for g in np.where(mask)[0]:
        for m in range(0, 11):
            if np.isfinite(sweep.norms[m, g]):
                bound = gc.upper_constant * cf.q[m] ** gc.gamma2
                margin = min(margin, bound / sweep.norms[m, g])
                if sweep.norms[m, g] > bound:
                    violations += 1
    return CriterionResult(
        9, "certified norm bound on the spectrum mask", violations == 0, "hard",
        f"{violations} violations; smallest bound/norm margin {margin:.3e}",
        {"violations": violations, "beta_certified": gc.beta})


def criterion_10() -> CriterionResult:
    seq = _fib_one_sided()
    zs = np.exp(1j * _spectrum_points(FIB_ALPHABET, 8))
    lams = np.exp(2j * math.pi * np.arange(8) / 8.0)
    lo, hi = math.inf, 0.0
    for r in (0.9, 0.99, 0.999):
        ratios = cara.jl_ratio_sweep(seq, lams, zs, r)
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
    ok = lo >= 0.1 and hi <= 10.0
    return CriterionResult(
        10, "Jitomirskaya-Last ratio boundedness", ok, "hard",
        f"ratios in [{lo:.3f}, {hi:.3f}] (required within [0.1, 10])",
        {"min": lo, "max": hi})


def certified_spectrum_points(alphabet, count: int) -> np.ndarray:
    """Points of the spectrum mask whose solution norms are certified
    subpolynomial out to `_CERTIFIED_L_MAX`: among the angles of the
    `_CERTIFIED_GRID`-point grid on the level-`_CERTIFIED_LEVEL` mask,
    those with the smallest envelope growth slope, kept pairwise more than
    `_CERTIFIED_SEPARATION` apart.  Equal slopes rank in grid order.
    Raises InsufficientDataError when the mask holds fewer than `count`
    such points.

    With both letters real, the coefficients are real, so the solutions
    at conj(z) from the real initial pairs (1, +-1) are the conjugates of
    those at z: grid angles k and N - k share their norms, and only the
    representative min(k, N - k) of each candidate is propagated."""
    n = _CERTIFIED_GRID
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    cand = np.where(_spectrum_mask(alphabet, tracemap.golden_cf(_CERTIFIED_LEVEL + 6),
                                   thetas, _CERTIFIED_LEVEL))[0]
    if all(complex(a).imag == 0.0 for a in alphabet):
        rep = np.minimum(cand, (n - cand) % n)
    else:
        rep = cand
    # the sorted distinct representatives (np.unique would load numpy.ma);
    # each candidate reads its slope from its representative's row
    is_rep = np.zeros(n, dtype=bool)
    is_rep[rep] = True
    rows = np.flatnonzero(is_rep)
    seq = coeffs.make_sturmian(*alphabet, coeffs.GOLDEN_MEAN)
    zs = np.exp(1j * thetas[rows])
    Ls = [2 ** k for k in range(6, int(math.log2(_CERTIFIED_L_MAX)) + 1)]
    lx = np.log(np.array(Ls, dtype=float))
    worst_row = np.full(len(rows), -np.inf)
    for sign in (1.0, -1.0):
        init = np.stack([np.ones(len(zs)), sign * np.ones(len(zs))], axis=-1)
        ly = 0.5 * np.log(transfer.norm_profile_batch(seq, zs, init, Ls[-1])[:, Ls])
        for i in range(len(Ls)):
            for j in range(i + 1, len(Ls)):
                s = (ly[:, j] - ly[:, i]) / (lx[j] - lx[i])
                worst_row = np.maximum(worst_row, s)
    worst_slope = worst_row[np.searchsorted(rows, rep)]
    picked = []
    for idx in np.argsort(worst_slope, kind="stable"):
        th = float(thetas[cand[idx]])
        if all(min(abs(th - p), 2.0 * math.pi - abs(th - p)) > _CERTIFIED_SEPARATION
               for p in picked):
            picked.append(th)
        if len(picked) == count:
            return np.array(sorted(picked))
    raise InsufficientDataError(
        f"{len(picked)} of {count} separated points on the level-{_CERTIFIED_LEVEL} "
        f"spectrum mask of the {_CERTIFIED_GRID}-point theta grid")


def criterion_11() -> CriterionResult:
    # the fully two-sided Sturmian model keeps the boundary measure purely
    # singular; a free left half would bury the scaling under an
    # absolutely continuous background at these arc scales
    seq2 = coeffs.make_sturmian(*FIB_ALPHABET, coeffs.GOLDEN_MEAN, support="full")
    seq1 = _fib_one_sided()
    sel_thetas = certified_spectrum_points(FIB_ALPHABET, 4)
    eps = np.geomspace(1e-3, 1e-1, 7)
    results = {}
    worst = quad_err = 0.0
    for theta in sel_thetas:
        growth = transfer.pair_growth_exponents(seq1, complex(np.exp(1j * theta)))
        hfit = spectral.holder_exponent(seq2, float(theta), eps)
        gap = abs(hfit.beta_hat - growth.beta)
        worst = max(worst, gap)
        quad_err = max(quad_err, hfit.quadrature_error)
        results[f"theta={theta:.4f}"] = {
            "beta_hat": hfit.beta_hat, "beta_gamma": growth.beta,
            "beta_envelope": growth.envelope_beta, "gap": gap}
    results["arc_quadrature_error"] = quad_err
    return CriterionResult(
        11, "Hölder exponent cross-check (soft)", worst < 0.15, "soft",
        f"max |beta_hat - 2g1/(g1+g2)| = {worst:.3f} (soft tol 0.15)",
        results)


def criterion_12() -> CriterionResult:
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        mods = rng.uniform(0.0, 0.9, 64)
        phases = rng.uniform(0.0, 2.0 * math.pi, 64)
        pos = coeffs.make_explicit(mods * np.exp(1j * phases))
        mods2 = rng.uniform(0.0, 0.9, 64)
        phases2 = rng.uniform(0.0, 2.0 * math.pi, 64)
        neg = coeffs.make_explicit(mods2 * np.exp(1j * phases2))
        seq = coeffs.extend_two_sided(pos, neg)
        for n in (-2, 0, 3):
            report = operator.spectral_basis_reach(seq, n)
            worst = max(worst, report.max_residual)
    return CriterionResult(
        12, "spectral-basis reconstructions", worst < 1e-10, "hard",
        f"max residual = {worst:.3e} (tol 1e-10)", {"max_residual": worst})


def criterion_13() -> CriterionResult:
    fib = _fib_two_sided()
    psi = operator.State.delta(0)
    drift = 0.0
    ks = [100, 1000, 10000]
    done = 0
    cur = psi
    for k in ks:
        cur = operator.evolve_walk(fib, cur, k - done)
        done = k
        drift = max(drift, abs(cur.norm() - 1.0))
    free = _free_two_sided()
    radii = []
    steps = list(range(0, 301, 50))
    cur = operator.State.delta(0)
    done = 0
    for k in steps:
        cur = operator.evolve_walk(free, cur, k - done)
        done = k
        support = [cur.offset + i for i, v in enumerate(cur.values)
                   if abs(v) > 1e-12]
        radii.append(max(abs(min(support)), abs(max(support))) / 2.0)
    slope = float(np.polyfit(steps, radii, 1)[0])
    ok = drift < 1e-10 and 0.9 <= slope <= 1.1
    return CriterionResult(
        13, "walk unitarity and ballistic spread", ok, "hard",
        f"norm drift {drift:.3e} at k=1e4 (tol 1e-10); free slope {slope:.3f} "
        f"(required [0.9, 1.1])", {"drift": drift, "slope": slope})


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10, criterion_11, criterion_12,
                criterion_13]


def run_all(numbers=None) -> list:
    """Run the battery, or the criteria in `numbers`, printing each line
    and timing each criterion."""
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if numbers is not None and i not in numbers:
            continue
        start = time.perf_counter()
        res = fn()
        res.wall_s = time.perf_counter() - start
        results.append(res)
        print(res.line(), flush=True)
    return results


def report_to_json(results, path=None):
    record = {
        "all_hard_passed": all(r.passed for r in results if r.severity == "hard"),
        "criteria": [
            {"number": r.number, "name": r.name, "passed": bool(r.passed),
             "severity": r.severity, "details": r.details,
             "measured": _jsonable(r.measured), "wall_s": r.wall_s}
            for r in results
        ],
    }
    for r in results:
        if r.number == 2 and "m_minus_convention" in r.measured:
            record["m_minus_convention"] = r.measured["m_minus_convention"]
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
    return record


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj
