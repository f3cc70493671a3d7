"""Carathéodory-function machinery.

Evaluation of F(z) from Verblunsky coefficients by the Schur algorithm,
two independent oracles on unitary truncations (a banded resolvent solve
and, for small sizes, an eigen-decomposition), the fractional-linear map
producing the anti-Carathéodory left function, the Alexandrov-family
norms, the Jitomirskaya-Last scale x(r), and the exact Möbius boundary
supremum.
"""

from __future__ import annotations

import cmath
import csv
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .coeffs import VerblunskySequence
from .errors import (DepthError, DiskError, HorizonError, PoleError,
                     SupportError, UnconvergedWarning, WindowError)
from . import operator, transfer

SQRT2 = math.sqrt(2.0)


def _schur_f(alphas: np.ndarray, z) -> np.ndarray:
    """Schur continued fraction with zero tail, vectorized over z."""
    z = np.asarray(z, dtype=complex)
    f = np.zeros_like(z)
    for a in alphas[::-1]:
        zf = z * f
        f = (a + zf) / (1.0 + np.conj(a) * zf)
    return f


def _alpha_prefix(seq: VerblunskySequence, depth: int) -> np.ndarray:
    """First `depth` coefficients; sequences backed by a finite stored
    list are zero-extended past their range, consistent with the zero
    tail of the truncated Schur algorithm."""
    try:
        return seq.alpha_array(0, depth)
    except WindowError:
        vals = []
        for n in range(depth):
            try:
                vals.append(seq.alpha(n))
            except WindowError:
                break
        return np.array(vals, dtype=complex)


def schur_eval_F(seq: VerblunskySequence, z: complex, depth: int) -> complex:
    """F(z) from the depth-truncated Schur algorithm (tail function 0).

    Converges geometrically in `depth` for fixed |z| < 1; the map back is
    F = (1 + z f)/(1 - z f), which has Re F > 0 whenever |f| < 1.
    """
    if abs(z) >= 1.0:
        raise DiskError(f"|z| = {abs(z)} >= 1")
    if depth < 1:
        raise DepthError("depth must be >= 1")
    alphas = _alpha_prefix(seq, depth)
    f = complex(_schur_f(alphas, complex(z)))
    return (1.0 + z * f) / (1.0 - z * f)


def schur_F_batch(seq: VerblunskySequence, zs, tol: float = 1e-12,
                  max_depth: int = 1 << 17) -> np.ndarray:
    """Adaptive-depth Schur evaluation over an array of |z| < 1 points.

    Depth doubles until two consecutive depths agree to `tol` (sup over
    the batch) or `max_depth` is reached; in the latter case an
    UnconvergedWarning names the last depth and the sup gap it left.
    """
    zs = np.asarray(zs, dtype=complex)
    if np.any(np.abs(zs) >= 1.0):
        raise DiskError("batch contains |z| >= 1")
    depth = min(256, max_depth)
    alphas = _alpha_prefix(seq, depth)

    def F_of(f):
        zf = zs * f
        return (1.0 + zf) / (1.0 - zf)

    prev = F_of(_schur_f(alphas, zs))
    gap = math.inf
    while depth < max_depth:
        depth *= 2
        alphas = _alpha_prefix(seq, depth)
        cur = F_of(_schur_f(alphas, zs))
        gap = float(np.max(np.abs(cur - prev)))
        if gap < tol:
            return cur
        prev = cur
    warnings.warn(f"schur_F_batch: no convergence within max_depth {max_depth}: "
                  f"at depth {depth} the sup gap to the previous depth is "
                  f"{gap:.3e} (tol {tol:.1e})", UnconvergedWarning, stacklevel=2)
    return prev


def schur_eval_F_adaptive(seq: VerblunskySequence, z: complex,
                          tol: float = 1e-12, max_depth: int = 1 << 17) -> complex:
    return complex(schur_F_batch(seq, np.array([z]), tol, max_depth)[0])


@lru_cache(maxsize=8)
def _unitary_eigensystem(seq: VerblunskySequence, N: int, eta_b: complex):
    """Eigenvalues and delta_0 spectral weights of the closed truncation.

    Uses a complex Schur decomposition: for a unitary (normal) matrix the
    triangular factor is diagonal to machine precision and the transform
    is exactly unitary, so the weights sum to one by construction.
    """
    C = operator.build_finite_cmv(seq, N, eta_b).dense()
    T, Z = scipy.linalg.schur(C, output="complex")
    eigs = np.diag(T).copy()
    weights = np.abs(Z[0, :]) ** 2
    return eigs, weights


def measure_oracle_F(seq: VerblunskySequence, z: complex, N: int,
                     eta_b: complex = 1.0) -> complex:
    """F(z) via the spectral measure of delta_0 for the N-site truncation.

    O(N^3) per truncation; kept as the small-N cross-check of
    `resolvent_oracle_F`.
    """
    if abs(z) >= 1.0:
        raise DiskError(f"|z| = {abs(z)} >= 1")
    eigs, weights = _unitary_eigensystem(seq, N, complex(eta_b))
    return complex(np.sum(weights * (eigs + z) / (eigs - z)))


def resolvent_oracle_F(seq: VerblunskySequence, zs, N: int,
                       eta_b: complex = 1.0) -> np.ndarray:
    """F(z) = <delta_0, (C + z)(C - z)^{-1} delta_0> = 1 + 2z [(C - z)^{-1}]_00
    for the N-site truncation C, over an array of |z| < 1 points.

    One banded LU solve of (C - z) x = delta_0 per point.  Only the matrix
    and LAPACK enter, never the Schur recursion, so this is an independent
    check of `schur_F_batch`.
    """
    zs = np.asarray(zs, dtype=complex)
    if np.any(np.abs(zs) >= 1.0):
        raise DiskError("batch contains |z| >= 1")
    ab = operator.build_finite_cmv(seq, N, eta_b).banded()
    delta0 = np.zeros(N, dtype=complex)
    delta0[0] = 1.0
    F = np.empty(zs.shape, dtype=complex)
    for i, z in np.ndenumerate(zs):
        shifted = ab.copy()
        shifted[2] -= z
        x = scipy.linalg.solve_banded((2, 2), shifted, delta0, overwrite_ab=True)
        F[i] = 1.0 + 2.0 * z * x[0]
    return F


def m_minus(F_minus, alpha0: complex):
    """Anti-Carathéodory companion of the left half; F_minus may be an array.

    M = [Re(1 - conj(a0)) - i Im(1 + conj(a0)) F] /
        [i Im(1 - conj(a0)) - Re(1 + conj(a0)) F]

    maps {Re F > 0} into {Re M < 0} for every |a0| < 1 (the numerator of
    Re M works out to -Re(F) (1 - |a0|^2)).
    """
    a0c = complex(alpha0).conjugate()
    num = (1.0 - a0c).real - 1j * (1.0 + a0c).imag * F_minus
    den = 1j * (1.0 - a0c).imag - (1.0 + a0c).real * F_minus
    if np.any(np.abs(den) < 1e-300):
        raise PoleError("vanishing denominator in the M-minus map")
    return num / den


@dataclass(frozen=True)
class RotatedSequence(VerblunskySequence):
    """Coefficients lam * alpha(n): the Alexandrov family member at lam."""

    base: VerblunskySequence
    lam: complex
    support: str = "half"

    def alpha(self, n: int) -> complex:
        return self.lam * self.base.alpha(n)

    def alpha_array(self, lo: int, hi: int) -> np.ndarray:
        return self.lam * self.base.alpha_array(lo, hi)


def rotated(seq: VerblunskySequence, lam: complex) -> RotatedSequence:
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError("rotation parameter must be unimodular")
    if seq.support != "half":
        raise SupportError("Alexandrov rotation expects a one-sided sequence")
    return RotatedSequence(seq, complex(lam))


def alexandrov_norms(seq: VerblunskySequence, lam: complex, z: complex,
                     L: float) -> tuple:
    """(||phi^lam||_L, ||psi^lam||_L) from initial pairs (1, conj(lam))
    and (1, -conj(lam)); both satisfy the normalization |.|^2 sum = 2."""
    lc = complex(lam).conjugate()
    return (transfer.solution_norm(seq, z, (1.0, lc), L),
            transfer.solution_norm(seq, z, (1.0, -lc), L))


@dataclass(frozen=True)
class XofR:
    """The Jitomirskaya-Last scale x(r) and (norm_phi, norm_psi), the norms
    `alexandrov_norms(seq, lam, z, x)` read from the search's own profiles."""

    x: float
    norm_phi: float
    norm_psi: float
    clamped: bool = False

    def jl_ratio(self, F_lam: complex) -> float:
        """|F^lam| * ||phi^lam||_x / ||psi^lam||_x, with F^lam taken at r z."""
        return abs(F_lam) * self.norm_phi / self.norm_psi


def _x_from_profiles(s_phi: np.ndarray, s_psi: np.ndarray, r: float) -> XofR:
    """Root of the x(r) equation, and the norms there, given precomputed
    squared-norm profiles."""
    target = 2.0 / (1.0 - r) ** 2
    x = 0.0
    if s_phi[0] * s_psi[0] < target:
        # compare in log space; far off the spectrum the raw product overflows
        if math.log(s_phi[-1]) + math.log(s_psi[-1]) < math.log(target):
            raise HorizonError("profiles end before the x(r) root")
        lo, hi = 0.0, float(len(s_phi) - 1)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (transfer._interp_squared(s_phi, mid)
                    * transfer._interp_squared(s_psi, mid)) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, hi):
                break
        x = 0.5 * (lo + hi)
    # the bisection never returns exactly 0; only the clamp does
    return XofR(x, math.sqrt(transfer._interp_squared(s_phi, x)),
                math.sqrt(transfer._interp_squared(s_psi, x)), clamped=(x == 0.0))


def _search_x(propagate, r: float, horizon: int | None, max_horizon: int) -> list:
    """x(r) for each point of `propagate(n)`, the (phi, psi) squared-norm
    profiles to length n, one row per point.  Without a `horizon` n starts
    at max(64, 8 sqrt(2)/(1 - r)) and doubles up to `max_horizon` until
    every root lies inside; with one the search is strict at that n."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    n = horizon if horizon is not None else max(64, int(8 * SQRT2 / (1.0 - r)))
    while True:
        s_phi, s_psi = propagate(n)
        try:
            return [_x_from_profiles(p, q, r) for p, q in zip(s_phi, s_psi)]
        except HorizonError:
            if horizon is not None or n >= max_horizon:
                raise HorizonError(f"x(r) beyond horizon {n}") from None
            n *= 2


def solve_x_of_r(seq: VerblunskySequence, lam: complex, z: complex, r: float,
                 horizon: int | None = None, max_horizon: int = 1 << 21) -> XofR:
    """Unique x >= 0 with (1-r) ||phi||_x ||psi||_x = sqrt(2), with both norms.

    The interpolated squared-norm product is continuous and strictly
    increasing, so bracketing plus bisection is exact up to tolerance.
    With an explicit `horizon` the search is strict and HorizonError is
    raised when the root lies beyond it; otherwise the horizon doubles
    automatically up to `max_horizon`.  The pair is propagated by the
    scalar `transfer.norm_profile`.
    """
    lc = complex(lam).conjugate()

    def propagate(n):
        return ([transfer.norm_profile(seq, z, (1.0, lc), n)],
                [transfer.norm_profile(seq, z, (1.0, -lc), n)])

    return _search_x(propagate, r, horizon, max_horizon)[0]


def jl_ratio(seq: VerblunskySequence, lam: complex, z: complex, r: float,
             **kwargs) -> float:
    """|F^lam(r z)| * ||phi^lam||_x(r) / ||psi^lam||_x(r).

    Bounded above and below by universal constants when the
    Jitomirskaya-Last comparison applies; equals 1 identically for the
    free sequence.  The norms come from the x(r) search itself
    (`XofR.jl_ratio`); keyword arguments go to `solve_x_of_r`.
    """
    xr = solve_x_of_r(seq, lam, z, r, **kwargs)
    return xr.jl_ratio(schur_eval_F_adaptive(rotated(seq, lam), r * z))


def jl_ratio_sweep(seq: VerblunskySequence, lams, zs, r: float,
                   max_horizon: int = 1 << 21) -> np.ndarray:
    """jl_ratio over the (lam, z) product grid, shape (len(lams), len(zs)).

    Shares one batched pair propagation (`transfer.norm_profile_batch`)
    across the whole grid, which is much faster than pointwise evaluation
    for on-circle sweeps.
    """
    lams = np.asarray(lams, dtype=complex)
    zs = np.asarray(zs, dtype=complex)
    # grid point (i, j) sits at flat index i * len(zs) + j
    flatL, flatZ = np.repeat(lams, len(zs)), np.tile(zs, len(lams))
    init_phi = np.stack([np.ones_like(flatL), np.conj(flatL)], axis=-1)
    init_psi = np.stack([np.ones_like(flatL), -np.conj(flatL)], axis=-1)

    def propagate(n):
        return (transfer.norm_profile_batch(seq, flatZ, init_phi, n),
                transfer.norm_profile_batch(seq, flatZ, init_psi, n))

    xrs = _search_x(propagate, r, None, max_horizon)
    out = np.empty((len(lams), len(zs)))
    for i, lam in enumerate(lams):
        F_lam = schur_F_batch(rotated(seq, lam), r * zs)
        out[i] = [xr.jl_ratio(F) for xr, F in zip(xrs[i * len(zs):], F_lam)]
    return out


def mobius_map(F: complex, lam: complex) -> complex:
    return ((1.0 - lam) + (1.0 + lam) * F) / ((1.0 + lam) + (1.0 - lam) * F)


def mobius_sup(F: complex) -> float:
    """Exact sup over |lam| = 1 of |mobius_map(F, lam)| for Re F > 0.

    Closed form (|1+F| + |1-F|) / (|1+F| - |1-F|); the denominator is
    positive precisely because Re F > 0.
    """
    p = abs(1.0 + F)
    q = abs(1.0 - F)
    return (p + q) / (p - q)


def mobius_sup_grid(F: complex, n: int = 4096, refine: bool = True) -> float:
    """Grid maximum of the boundary Möbius family, with optional local
    ternary refinement around the best grid point (the profile is smooth
    and unimodal near its maximum, so this converges to the supremum)."""
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    lams = np.exp(1j * thetas)
    vals = np.abs(mobius_map(F, lams))
    k = int(np.argmax(vals))
    best = float(vals[k])
    if not refine:
        return best
    h = 2.0 * math.pi / n
    lo, hi = thetas[k] - h, thetas[k] + h

    def val(t: float) -> float:
        return abs(mobius_map(F, cmath.exp(1j * t)))

    for _ in range(120):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if val(m1) < val(m2):
            lo = m1
        else:
            hi = m2
    return max(best, val(0.5 * (lo + hi)))


def write_boundary_csv(rows, path) -> None:
    """rows: iterables (r, theta, F, x_of_r, jl_ratio, mobius_sup)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "theta", "re_F", "im_F", "x_of_r",
                         "jl_ratio", "mobius_sup"])
        for r, theta, F, x, ratio, sup in rows:
            writer.writerow([repr(float(r)), repr(float(theta)),
                             repr(float(F.real)), repr(float(F.imag)), repr(float(x)),
                             repr(float(ratio)), repr(float(sup))])
