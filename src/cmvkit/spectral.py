"""Resolvent assembly for the extended operator, boundary spectral
measures and Hölder-exponent estimation.

The resolvent entries are assembled from two directional solutions
u_plus, u_minus of E u = z u, their partners v = M u / z (E = L M, so
v solves the transpose equation E^T v = z v) and the pair
(F_plus, M_minus):

    (E - z)^(-1)(x, y) = -1/(2 z^2 (F_plus - M_minus)) *
        { u_minus(x) v_plus(y)   if x < y, or x = y even,
          u_plus(x)  v_minus(y)  if x > y, or x = y odd }

with the origin normalizations u_pm(0) = z + z F, v_pm(0) = -1 + F
(F = F_plus for the plus pair, M_minus for the minus pair).  Every
convention here (the z^2 power, the diagonal parity, and the coefficient
feeding the M_minus map) was pinned against a dense-truncation oracle.
The M_minus map takes the split-site coefficient alpha(-1);
`resolve_m_minus_convention` re-derives that choice against the oracle
for acceptance criterion 2 and is not consulted during assembly.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import VerblunskySequence, rho_of
from .errors import (ConventionError, DegenerateError, InsufficientDataError,
                     SpectralPointError, SupportError, WindowError)
from . import caratheodory as cara
from . import operator

_MIN_CIRCLE_GAP = 1e-3
_TINY = float(np.finfo(float).tiny)  # least normal float
_SCHUR_TOL = 1e-13
# the spectral parameter and oracle tolerance of the M_minus arbitration
_CONVENTION_PROBE = 0.45 + 0.2j
_CONVENTION_TOL = 1e-6

# candidate coefficients feeding the M_minus Möbius map, in arbitration order
_CONVENTIONS = ("split-site", "origin", "split-site-conj", "origin-conj")


def _convention_alpha(seq: VerblunskySequence, name: str) -> complex:
    a_split, a0 = seq.alpha_array(-1, 1).tolist()
    candidates = dict(zip(_CONVENTIONS, (a_split, a0, -a_split.conjugate(), -a0.conjugate())))
    if name not in candidates:
        raise ConventionError(f"unknown convention {name!r}")
    return candidates[name]


def _F_offcircle(seq: VerblunskySequence, z: complex) -> complex:
    """Carathéodory value continued across the circle by F(z) = -conj(F(1/conj(z)))."""
    if abs(z) < 1.0:
        return cara.schur_eval_F_adaptive(seq, z, _SCHUR_TOL)
    return -complex(cara.schur_eval_F_adaptive(seq, 1.0 / z.conjugate(), _SCHUR_TOL)).conjugate()


def _two_site_matrices(alpha: np.ndarray, z: complex):
    """(T, T^-1) at the even centres 2k, as lists of (t00, t01, t10, t11).

    `alpha` holds the sites 2k0 - 1 .. 2k1 + 1 and entry i is the centre
    2(k0 + i).  T maps (u(2k - 1), u(2k)) to (u(2k + 1), u(2k + 2)) for
    E u = z u; det T = rho(2k - 1)/rho(2k + 1), so the backward step is
    adj(T) rho(2k + 1)/rho(2k - 1)."""
    rho = rho_of(alpha)
    am, a0, a1 = alpha[:-2:2], alpha[1:-1:2], alpha[2::2]
    rm, r0, r1 = rho[:-2:2], rho[1:-1:2], rho[2::2]
    zr = z * r0
    c = np.conj(a1) + z * np.conj(a0)
    T = np.array([rm / zr, -(z * a0 + am) / zr, -rm * c / (zr * r1),
                  (z * (z + np.conj(a1) * a0) + am * c) / (zr * r1)])
    T_inv = np.array([T[3], -T[1], -T[2], T[0]]) * (r1 / rm)
    return list(zip(*T.tolist())), list(zip(*T_inv.tolist()))


def _two_site_steps(direction: str, store_lo: int, store_hi: int, margin: int) -> range:
    """Steps k of a directional solution, ascending ('plus' runs them
    descending); step k reads the coefficients at sites 2k - 1, 2k, 2k + 1."""
    if direction == "plus":
        return range((store_lo - 2) // 2, (store_hi + margin + 2) // 2 + 2)
    return range((store_lo - margin - 2) // 2 - 1, (store_hi + 2) // 2 + 1)


def _ldexp(pairs: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Rows of `pairs` times 2**exps, flattened; each part is scaled
    exactly, so a value over- or underflows only where it leaves the float
    range itself."""
    parts = np.ascontiguousarray(pairs).view(float)
    with np.errstate(over="ignore"):
        return np.ldexp(parts, exps[:, None]).view(complex).ravel()


def _directional_solution(mats, k_base: int, direction: str, steps: range, store: int):
    """Formal solution of E u = z u decaying at +inf ('plus') or -inf ('minus').

    Runs the two-site recurrence over `steps`, whose seed lies a margin
    beyond the stored range; the contamination by the complementary
    solution decays geometrically over the margin.  Returns (j0, pairs,
    exps): row i of `pairs` holds the mantissas of (u(2j - 1), u(2j)) for
    j = j0 + i, over the pairs covering the sites -store - 2 .. store + 2,
    and exps[i] its binary exponent relative to the pair holding site 0.
    `mats` is `_two_site_matrices` with entry i at the centre 2(k_base + i).
    """
    plus = direction == "plus"
    k0, k1 = steps[0], steps[-1]
    # 'plus' runs backward on T^-1 and step k yields the pair j = k;
    # 'minus' runs forward on T and yields the pair j = k + 1
    fwd, bwd = mats
    run = (bwd if plus else fwd)[k0 - k_base:k1 - k_base + 1]
    order = slice(None, None, -1 if plus else 1)  # running order <-> ascending k
    pairs, exps = [], []
    x, y, e = 1.0 + 0.0j, 1.0 + 0.0j, 0
    for a, b, c, d in run[order]:
        x, y = a * x + b * y, c * x + d * y
        m = max(abs(x), abs(y))
        if m > 1e120 or (0.0 < m < 1e-120):
            k = math.frexp(m)[1]
            x, y = x * 2.0 ** -k, y * 2.0 ** -k
            e += k
        pairs.append((x, y))
        exps.append(e)
    first = k0 if plus else k0 + 1
    pairs, exps = np.array(pairs[order]), np.array(exps[order])
    exps -= exps[-first] + math.frexp(float(np.max(np.abs(pairs[-first]))))[1]
    j0, j1 = -((store + 2) // 2), (store + 3) // 2
    return j0, pairs[j0 - first:j1 - first + 1], exps[j0 - first:j1 - first + 1]


def _scale_to_targets(j0: int, u: np.ndarray, v: np.ndarray, exps: np.ndarray,
                      u_targets, v_targets, label: str):
    """u and v as States from site 2 j0 - 1, both scaled by the one constant
    that takes u to `u_targets` at sites 0, 1, rounding each value once; and
    the worst miss of the four targets, relative to each pair of them."""
    at = slice(-j0, 2 - j0)  # the pairs holding sites 0 and 1
    u01, v01 = (_ldexp(w[at], exps[at])[1:3] for w in (u, v))
    base = int(np.argmax(np.abs(u01)))
    if abs(u01[base]) == 0.0:
        raise DegenerateError(f"{label} vanished at the origin pair")
    c = u_targets[base] / u01[base]
    mismatch = max(float(np.max(np.abs(c * w - t))) / max(float(np.max(np.abs(t))), 1e-30)
                   for w, t in ((u01, np.array(u_targets)), (v01, np.array(v_targets))))
    return (operator.State(2 * j0 - 1, _ldexp(c * u, exps)),
            operator.State(2 * j0 - 1, _ldexp(c * v, exps)), mismatch)


@dataclass(frozen=True)
class GZContext:
    """Resolvent data for one spectral parameter off the unit circle.

    u_plus and u_minus solve E u = z u, v_plus and v_minus = M u / z the
    transpose equation; each is an `operator.State` covering the sites
    store_lo - 2 .. store_hi + 2."""

    seq: VerblunskySequence
    z: complex
    F_plus: complex
    M_minus: complex
    store_lo: int
    store_hi: int
    u_plus: operator.State = field(repr=False)
    u_minus: operator.State = field(repr=False)
    v_plus: operator.State = field(repr=False)
    v_minus: operator.State = field(repr=False)
    normalization_mismatch: float = 0.0


def _build_context_with(seq: VerblunskySequence, z: complex, window: int,
                        alpha0: complex) -> GZContext:
    store = int(window)
    if store < 16:
        raise WindowError("window half-width must be at least 16")
    # the complementary solution's contamination decays like |z|^(d/2) over
    # the distance d from the seed: about e^-23 at the stored sites
    margin = int(math.ceil(46.0 / abs(math.log(abs(z)))))

    right, left = operator.split_at_origin(seq)
    F_plus = _F_offcircle(right, z)
    F_minus = _F_offcircle(left, z)
    M_minus = cara.m_minus(F_minus, alpha0)

    runs = {d: _two_site_steps(d, -store, store, margin) for d in ("plus", "minus")}
    k_lo = min(ks[0] for ks in runs.values())
    k_hi = max(ks[-1] for ks in runs.values())
    # step k reads the sites 2k - 1 .. 2k + 1; alpha is read once over all of them
    coef = seq.alpha_array(2 * k_lo - 1, 2 * k_hi + 2)
    mats = _two_site_matrices(coef, z)
    a0, rho0 = complex(coef[1 - 2 * k_lo]), rho_of(coef[1 - 2 * k_lo])  # site 0

    def solutions(direction, F):
        j0, u, exps = _directional_solution(mats, k_lo, direction, runs[direction], store)
        # E = L M with M the blocks [[conj(a), r], [r, -a]] of a = alpha(2j - 1)
        # on the pairs (2j - 1, 2j), so E^T = M L and v = M u / z solves
        # E^T v = z v; each pair keeps its binary exponent
        a = coef[2 * (j0 - k_lo)::2][:len(u)]
        r = rho_of(a)
        v = np.stack([np.conj(a) * u[:, 0] + r * u[:, 1],
                      r * u[:, 0] - a * u[:, 1]], axis=1) / z
        u_targets = (z * (1.0 + F), (-1.0 - a0 * z + F * (1.0 - a0 * z)) / rho0)
        v_targets = (-1.0 + F, (z + a0.conjugate() + F * (z - a0.conjugate())) / rho0)
        return _scale_to_targets(j0, u, v, exps, u_targets, v_targets, "u_" + direction)

    u_plus, v_plus, m_plus = solutions("plus", F_plus)
    u_minus, v_minus, m_minus = solutions("minus", M_minus)
    return GZContext(seq, z, F_plus, M_minus, -store, store,
                     u_plus, u_minus, v_plus, v_minus, max(m_plus, m_minus))


_convention_cache: dict = {}


def resolve_m_minus_convention(seq: VerblunskySequence) -> str:
    """Re-derive the coefficient feeding the M_minus map against the oracle.

    Assembly always uses the split-site coefficient; this arbitration is
    the check of that choice in acceptance criterion 2.  Each candidate
    context is compared against the dense-truncation oracle on a small
    block of entries; candidates tie exactly when their coefficient values
    coincide, in which case the first listed wins.
    """
    if seq in _convention_cache:
        return _convention_cache[seq]
    xs = list(range(-3, 4))
    G = operator.resolvent_oracle_block(seq, _CONVENTION_PROBE, 160, xs, xs)
    # entries that vanish identically have no relative scale of their own;
    # measure those against the block scale instead
    floor = max(1e-9 * float(np.max(np.abs(G))), 1e-12)
    best_name, best_err = None, math.inf
    for name in _CONVENTIONS:
        try:
            ctx = _build_context_with(seq, _CONVENTION_PROBE, 48,
                                      _convention_alpha(seq, name))
            err = 0.0
            for i, x in enumerate(xs):
                for j, y in enumerate(xs):
                    g = gz_entry(ctx, x, y)
                    err = max(err, abs(g - G[i, j]) / max(abs(G[i, j]), floor))
        except (DegenerateError, ConventionError):
            continue
        if err < best_err:
            best_name, best_err = name, err
    if best_name is None or best_err > _CONVENTION_TOL:
        raise ConventionError(
            f"no M_minus convention matches the oracle (best {best_err:.2e})")
    _convention_cache[seq] = best_name
    return best_name


def build_gz_context(seq: VerblunskySequence, z: complex,
                     window: int = 200) -> GZContext:
    """Assemble resolvent data at z (off the circle, away from 0).

    Entries with |x|, |y| <= `window` (at least 16) are available.  Each
    directional solution is seeded ceil(46/|ln|z||) sites beyond them, so
    the cost grows like 1/|ln|z|| toward the circle.
    """
    if not seq.is_two_sided:
        raise SupportError("resolvent assembly needs a two-sided sequence")
    z = complex(z)
    if z == 0:
        raise SpectralPointError("z = 0 is excluded")
    if abs(abs(z) - 1.0) < _MIN_CIRCLE_GAP:
        raise SpectralPointError(
            "direct resolvent evaluation requires | |z| - 1 | >= 1e-3; "
            "approach the circle through the r-profile path instead")
    return _build_context_with(seq, z, window, seq.alpha(-1))


def gz_entry(ctx: GZContext, x: int, y: int) -> complex:
    """Resolvent entry (x, y) from the directional-solution formula.

    Raises WindowError when the entry is not finite in floating point: far
    from the circle a stored solution can leave the float range.
    """
    if not (ctx.store_lo <= x <= ctx.store_hi and ctx.store_lo <= y <= ctx.store_hi):
        raise WindowError("entry outside the stored solution window")
    denom = ctx.F_plus - ctx.M_minus
    if abs(denom) < 1e-13:
        raise DegenerateError("F_plus - M_minus too small")
    pref = -1.0 / (2.0 * ctx.z ** 2 * denom)
    if x < y or (x == y and x % 2 == 0):
        u, v = ctx.u_minus[x], ctx.v_plus[y]
    else:
        u, v = ctx.u_plus[x], ctx.v_minus[y]
    entry = pref * (u * v)  # u v stays in range where one factor nears its edge
    # a factor below the normal range is off by up to 2^-1074: the entry is
    # kept while that stays below rounding at the norm 1/||z| - 1|
    lost = min(abs(u), abs(v)) < _TINY and (
        abs(pref) * max(abs(u), abs(v)) * abs(abs(ctx.z) - 1.0) * _TINY > 1.0)
    if lost or not cmath.isfinite(entry):
        site = x if not cmath.isfinite(u) or (cmath.isfinite(v) and abs(u) < abs(v)) else y
        raise WindowError(f"resolvent entry ({x}, {y}) is not finite in floating point: a "
                          f"stored directional solution leaves the float range at site {site}")
    return entry


def corner_trace_sum(F_plus, M_minus, alpha0_site, rho0, z):
    """Closed form for G(0,0) + G(1,1); vectorizes over arrays.

    This is the fractional-linear expression in (F_plus, M_minus) with the
    origin coefficient entering through alpha(0); both terms carry an
    overall 1/z relative to the unnormalized bilinear products.
    """
    a0 = alpha0_site
    den = F_plus - M_minus
    t1 = -(-1.0 + F_plus) * (1.0 + M_minus) / (2.0 * den)
    t2 = -((z + np.conj(a0) + M_minus * (z - np.conj(a0)))
           * (-1.0 - a0 * z + F_plus * (1.0 - a0 * z))
           / (2.0 * rho0 ** 2 * z * den))
    return (t1 + t2) / z


def corner_trace(ctx: GZContext) -> complex:
    """G(0,0) + G(1,1) in closed form; must match gz_entry(0,0) + gz_entry(1,1)."""
    if abs(ctx.F_plus - ctx.M_minus) < 1e-13:
        raise DegenerateError("F_plus - M_minus too small")
    a0 = ctx.seq.alpha(0)
    return complex(corner_trace_sum(ctx.F_plus, ctx.M_minus, a0,
                                    ctx.seq.rho(0), ctx.z))


def F_extended(ctx: GZContext) -> complex:
    """Carathéodory function of the whole-line operator at |z| < 1.

    Normalized against the probability spectral measure of the cyclic
    pair, i.e. F = 1 + z (G00 + G11); this keeps Re F > 0 on the disk and
    unit total boundary mass.
    """
    if abs(ctx.z) >= 1.0:
        raise SpectralPointError("F_extended requires |z| < 1")
    return 1.0 + ctx.z * corner_trace(ctx)


def F_extended_batch(seq: VerblunskySequence, zs,
                     max_depth: int = 1 << 17) -> np.ndarray:
    """Vectorized F over an array of |z| < 1 points via the closed corner form."""
    if not seq.is_two_sided:
        raise SupportError("resolvent assembly needs a two-sided sequence")
    zs = np.asarray(zs, dtype=complex)
    right, left = operator.split_at_origin(seq)
    Fp = cara.schur_F_batch(right, zs, _SCHUR_TOL, max_depth)
    Fm = cara.schur_F_batch(left, zs, _SCHUR_TOL, max_depth)
    a_split, a0 = seq.alpha_array(-1, 1).tolist()
    Mm = cara.m_minus(Fm, a_split)
    sigma = corner_trace_sum(Fp, Mm, a0, rho_of(a0), zs)
    return 1.0 + zs * sigma


@dataclass(frozen=True)
class MeasureProfile:
    """Boundary density Re F(r e^{i theta})/2pi on a theta grid."""

    r: float
    thetas: np.ndarray
    density: np.ndarray

    @property
    def total_mass(self) -> float:
        """Trapezoid sum of the density over the periodic grid."""
        gaps = np.diff(np.concatenate([self.thetas, [self.thetas[0] + 2.0 * math.pi]]))
        ends = np.concatenate([self.density, [self.density[0]]])
        # a running sum adds in grid order, where np.sum would add pairwise
        return float(np.cumsum(0.5 * (ends[1:] + ends[:-1]) * gaps)[-1])


def lambda_r_profile(seq: VerblunskySequence, r: float, theta_grid,
                     max_depth: int = 1 << 17) -> MeasureProfile:
    """Sampled boundary measure at radius r on a sorted theta grid."""
    if not 0.0 < r < 1.0:
        raise SpectralPointError("r must lie in (0, 1)")
    thetas = np.asarray(theta_grid, dtype=float)
    zs = r * np.exp(1j * thetas)
    F = F_extended_batch(seq, zs, max_depth=max_depth)
    return MeasureProfile(float(r), thetas, F.real / (2.0 * math.pi))


# Gauss-Legendre orders of the arc masses and of their error estimate
_ARC_NODES = 8
_ARC_CHECK_NODES = 16


@dataclass(frozen=True)
class HolderFit:
    beta_hat: float
    envelope_beta: float
    eps: np.ndarray
    masses: np.ndarray
    quadrature_error: float  # largest relative gap of the masses to a finer rule


def holder_exponent(seq: VerblunskySequence, theta: float, eps,
                    max_depth: int = 1 << 17) -> HolderFit:
    """Least-squares slope of log arc-mass against log eps at theta.

    The mass of the arc [theta - eps, theta + eps] at r = 1 - eps is the
    `_ARC_NODES`-point Gauss-Legendre sum of the density on the arc itself:
    at that radius the density varies on the arc's own scale, so a fixed
    number of nodes serves every eps.  One `F_extended_batch` call takes
    those nodes and the `_ARC_CHECK_NODES` of the finer rule for every
    eps; `quadrature_error` is the largest relative difference of the two
    rules.  Also reports the envelope (minimum pairwise slope), the
    quantity relevant for uniform Hölder statements.
    """
    from numpy.polynomial import legendre  # not loaded by `import numpy`

    eps = np.asarray(list(eps), dtype=float)
    if len(set(eps.tolist())) < 4:
        raise InsufficientDataError("need >= 4 distinct eps")
    if not np.all((eps > 0.0) & (eps < math.pi)):
        raise ValueError("eps must lie in (0, pi)")
    (x, w), (xc, wc) = (legendre.leggauss(n) for n in (_ARC_NODES, _ARC_CHECK_NODES))
    nodes = np.concatenate([x, xc])
    zs = (1.0 - eps)[:, None] * np.exp(1j * (theta + eps[:, None] * nodes))
    density = F_extended_batch(seq, zs, max_depth=max_depth).real / (2.0 * math.pi)
    masses = eps * (density[:, :len(x)] @ w)
    check = eps * (density[:, len(x):] @ wc)
    if np.any(masses <= 0):
        raise InsufficientDataError("nonpositive arc mass")
    lx, ly = np.log(eps), np.log(masses)
    slope = float(np.polyfit(lx, ly, 1)[0])
    pair_slopes = []
    for i in range(len(eps)):
        for j in range(i + 1, len(eps)):
            if lx[j] != lx[i]:
                pair_slopes.append((ly[j] - ly[i]) / (lx[j] - lx[i]))
    return HolderFit(slope, float(min(pair_slopes)), eps, masses,
                     float(np.max(np.abs(masses - check) / check)))


def write_density_csv(profiles, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "r", "density"])
        for p in profiles:
            for theta, d in zip(p.thetas, p.density):
                writer.writerow([repr(float(theta)), repr(p.r), repr(float(d))])


def write_arcmass_csv(fit: HolderFit, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "arc_mass", "log_eps", "log_mass"])
        for e, m in zip(fit.eps, fit.masses):
            writer.writerow([repr(float(e)), repr(float(m)),
                             repr(math.log(e)), repr(math.log(m))])
