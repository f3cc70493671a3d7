"""Carathéodory-function machinery.

Evaluation of F(z) from Verblunsky coefficients by the Schur algorithm,
two independent oracles on unitary truncations (a banded resolvent solve
and, for small sizes, an eigen-decomposition), the fractional-linear map
producing the anti-Carathéodory left function, the Alexandrov-family
norms, the Jitomirskaya-Last scale x(r), and the exact Möbius boundary
supremum.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeffs import VerblunskySequence
from .errors import (DepthError, DiskError, HorizonError, PoleError,
                     SupportError, UnconvergedWarning)
from . import operator, transfer

SQRT2 = math.sqrt(2.0)
_MAX_HORIZON = 1 << 21  # the longest norm profile the x(r) search propagates


def _nested_disks(seq: VerblunskySequence, zs: np.ndarray, tol: float,
                  max_depth: int, lam=1.0):
    """Schur algorithm forward, one pass, over a (B,) array of |z| < 1.

    M_k = [[z, a_k], [conj(a_k) z, 1]] maps the tail f_{k+1} to f_k and
    N = [[z, 1], [-z, 1]] maps f to F, so Q_d = N M_0 ... M_{d-1} =
    [[a, b], [c, e]] maps every tail in the closed disk into the disk about
    Q_d(0) = b/e of radius |det Q_d| / (|e| (|e| - |c|)).  log|det Q_d| =
    log 2 + (d + 1) log|z| + sum log(1 - |a_k|^2) is summed exactly, never
    formed as ae - bc.  Once per block of `transfer._BLOCK` sites the state
    is renormalized by |e| and a point whose radius is below `tol` leaves
    the batch with F = b/e.  At `seq.zero_tail()` the tail is exactly 0
    and every remaining point stops with radius 0.

    A unimodular `lam`, one per point or one for all, gives F^lam of the
    Alexandrov member lam * alpha on the same pass: with D = diag(1, conj(lam)),
    D M_k D^-1 is M_k at lam a_k, so Q^lam_d = N D P_d D^-1 for the base
    product P_d.  The D^-1 scales the (b, e) column by a unimodular factor,
    which leaves b/e, |e| and |det Q| alone, so only the start of that
    column changes: (conj(lam), conj(lam)) instead of (1, 1).

    Returns (F, radius, depth) per point; a radius not below `tol` marks a
    point that `max_depth` stopped.  With tol = 0 every point runs to
    min(max_depth, zero tail), the fixed-depth truncation.
    """
    B = zs.size
    F, radius = np.empty(B, dtype=complex), np.zeros(B)
    depth = np.zeros(B, dtype=np.int64)
    tail = seq.zero_tail()
    stop = min(max_depth, tail)
    with np.errstate(divide="ignore"):
        log_r = np.log(np.abs(zs))
    # columns (a, c) and (b, e) of Q, one column of each per active point
    lc = np.broadcast_to(np.conj(np.asarray(lam, dtype=complex)), (B,))
    left, right = np.stack([zs, -zs]), np.stack([lc, lc])
    logdet = math.log(2.0) + log_r
    active, z = np.arange(B), zs
    j0 = 0
    while j0 < stop and len(active):
        j1 = min(j0 + transfer._BLOCK, stop)
        alphas = seq.alpha_array(j0, j1)
        t, u = np.empty_like(left), np.empty_like(left)
        for a, ac in zip(alphas.tolist(), alphas.conj().tolist()):
            np.multiply(right, ac, out=t)
            t += left
            np.multiply(left, a, out=u)
            right += u
            np.multiply(t, z, out=left)
        s = np.abs(right[1])
        left /= s
        right /= s
        logdet += ((j1 - j0) * log_r - 2.0 * np.log(s)
                   + float(np.sum(np.log1p(-np.abs(alphas) ** 2))))
        j0 = j1
        gap = 1.0 - np.abs(left[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            rad = np.where(gap > 0.0, np.exp(logdet) / gap, np.inf)
        if j0 == tail:
            rad[:] = 0.0
        done = (rad < tol) | (j0 == stop)
        idx = active[done]
        F[idx] = right[0, done] / right[1, done]
        radius[idx], depth[idx] = rad[done], j0
        keep = ~done
        active, left, right = active[keep], left[:, keep], right[:, keep]
        z, log_r, logdet = z[keep], log_r[keep], logdet[keep]
    F[active] = right[0] / right[1]  # stop = 0: Q_0(0) = 1
    return F, radius, depth


def schur_eval_F(seq: VerblunskySequence, z: complex, depth: int) -> complex:
    """F(z) from the depth-truncated Schur algorithm (tail function 0).

    Converges geometrically in `depth` for fixed |z| < 1; this is Q_d(0)
    of `_nested_disks` at d = depth.
    """
    if abs(z) >= 1.0:
        raise DiskError(f"|z| = {abs(z)} >= 1")
    if depth < 1:
        raise DepthError("depth must be >= 1")
    return complex(_nested_disks(seq, np.array([complex(z)]), 0.0, depth)[0][0])


def schur_F_batch(seq: VerblunskySequence, zs, tol: float = 1e-12,
                  max_depth: int = 1 << 17, lam=None) -> np.ndarray:
    """Certified Schur evaluation over an array of |z| < 1 points.

    Each point runs forward until its nested-disk radius, a proven bound
    on |F - returned value| over every possible tail, is below `tol`, or
    until the sequence's zero tail (`_nested_disks`).  A point still above
    `tol` at `max_depth` raises an UnconvergedWarning naming the depth and
    the worst remaining tail bound.  The radius bounds the Schur tail only:
    rounding in the forward product adds about 2^-52 |F|^2 on top of it
    (1e-11 at |F| = 540), which no warning reports.

    With `lam` given, an array of unimodular lam that broadcasts against
    `zs`, each point returns F^lam(z) of the Alexandrov member
    `rotated(seq, lam)`, all from one pass over the base coefficients.
    """
    zs = np.asarray(zs, dtype=complex)
    if lam is None:
        lam = 1.0
    else:
        _check_rotation(seq, lam)
        zs, lam = np.broadcast_arrays(zs, np.asarray(lam, dtype=complex))
        lam = lam.ravel()
    if np.any(np.abs(zs) >= 1.0):
        raise DiskError("batch contains |z| >= 1")
    if max_depth < 1:
        raise DepthError("max_depth must be >= 1")
    F, radius, depth = _nested_disks(seq, zs.ravel(), tol, max_depth, lam)
    unproven = ~(radius < tol)  # a NaN bound counts as unproven
    if np.any(unproven):
        warnings.warn(f"schur_F_batch: no convergence within max_depth {max_depth}: "
                      f"{int(np.sum(unproven))} of {radius.size} points stopped "
                      f"at depth {int(depth.max())} with worst tail bound "
                      f"{float(radius.max()):.3e} (tol {tol:.1e})",
                      UnconvergedWarning, stacklevel=2)
    return F.reshape(zs.shape)


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
    import scipy.linalg  # only the truncation oracles need scipy
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
    C = operator.build_finite_cmv(seq, N, eta_b)
    delta0 = np.zeros(N, dtype=complex)
    delta0[0] = 1.0
    F = np.empty(zs.shape, dtype=complex)
    for i, z in np.ndenumerate(zs):
        F[i] = 1.0 + 2.0 * z * C.solve(z, delta0)[0]
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
    support = "half"

    def _values(self, lo: int, hi: int) -> np.ndarray:
        return self.lam * self.base._values(lo, hi)

    def zero_tail(self) -> float:
        return self.base.zero_tail()


def _check_rotation(seq: VerblunskySequence, lam) -> None:
    """Reject a lam (scalar or array) off the unit circle, or a two-sided seq."""
    if np.any(np.abs(np.abs(lam) - 1.0) > 1e-12):
        raise ValueError("rotation parameter must be unimodular")
    if seq.support != "half":
        raise SupportError("Alexandrov rotation expects a one-sided sequence")


def rotated(seq: VerblunskySequence, lam: complex) -> RotatedSequence:
    _check_rotation(seq, lam)
    return RotatedSequence(seq, complex(lam))


def alexandrov_norms(seq: VerblunskySequence, lam: complex, z: complex,
                     L: float) -> tuple:
    """(||phi^lam||_L, ||psi^lam||_L) from initial pairs (1, conj(lam))
    and (1, -conj(lam)); both satisfy the normalization |.|^2 sum = 2."""
    lc = complex(lam).conjugate()
    return tuple(transfer.solution_norms(seq, z, [(1.0, lc), (1.0, -lc)], L))


@dataclass(frozen=True)
class XofR:
    """The Jitomirskaya-Last scale x(r) and (norm_phi, norm_psi), the norms
    `alexandrov_norms(seq, lam, z, x)` read from the search's own profiles."""

    x: float
    norm_phi: float
    norm_psi: float

    def jl_ratio(self, F_lam: complex) -> float:
        """|F^lam| * ||phi^lam||_x / ||psi^lam||_x, with F^lam taken at r z."""
        return abs(F_lam) * self.norm_phi / self.norm_psi


def _x_from_profiles(s_phi: np.ndarray, s_psi: np.ndarray, r: float) -> list:
    """Root of the x(r) equation, and the norms there, for each row of the
    precomputed squared-norm profiles (shape (points, n + 1)).

    All rows are bisected together as arrays; each row stops at its own
    rule, so every root and norm is the one a bisection of that row alone
    gives."""
    target = 2.0 / (1.0 - r) ** 2
    bisect = s_phi[:, 0] * s_psi[:, 0] < target  # the others have x = 0
    active = np.flatnonzero(bisect)
    # compare in log space; far off the spectrum the raw product overflows
    if any(math.log(p) + math.log(q) < math.log(target)
           for p, q in zip(s_phi[active, -1].tolist(), s_psi[active, -1].tolist())):
        raise HorizonError("profiles end before the x(r) root")
    lo = np.zeros(len(s_phi))
    hi = np.where(bisect, float(s_phi.shape[1] - 1), 0.0)
    for _ in range(200):
        if not len(active):
            break
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        # linear interpolation of the squared norms, as `transfer._interp_squared`
        n = np.floor(mid).astype(np.intp)
        frac = mid - n
        # a product past the float range, or an escaped row's inf, is not below
        with np.errstate(over="ignore", invalid="ignore"):
            below = (((1.0 - frac) * s_phi[active, n] + frac * s_phi[active, n + 1])
                     * ((1.0 - frac) * s_psi[active, n] + frac * s_psi[active, n + 1])
                     < target)
        a, b = np.where(below, mid, a), np.where(below, b, mid)
        lo[active], hi[active] = a, b
        active = active[~(b - a < 1e-12 * np.maximum(1.0, b))]
    xs = 0.5 * (lo + hi)
    return [XofR(x, math.sqrt(transfer._interp_squared(p, x)),
                 math.sqrt(transfer._interp_squared(q, x)))
            for x, p, q in zip(xs.tolist(), s_phi, s_psi)]


def _search_x(seq: VerblunskySequence, lams, zs, r: float) -> list:
    """x(r) at each point (lams[i], zs[i]); one batched propagation carries
    the phi rows of all points, then their psi rows, to length n.  n starts
    at max(64, 8 sqrt(2)/(1 - r)) and doubles up to `_MAX_HORIZON` until
    every root lies inside."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    lc = np.conj(np.asarray(lams, dtype=complex))
    phi = np.stack([np.ones_like(lc), lc], axis=-1)
    inits = np.concatenate([phi, phi * [1.0, -1.0]])
    n = max(64, int(8 * SQRT2 / (1.0 - r)))
    while True:
        prof = transfer.norm_profile_batch(seq, np.tile(zs, 2), inits, n)
        try:
            return _x_from_profiles(prof[:len(lc)], prof[len(lc):], r)
        except HorizonError:
            if n >= _MAX_HORIZON:
                raise HorizonError(f"x(r) beyond horizon {n}") from None
            n *= 2


def solve_x_of_r(seq: VerblunskySequence, lam: complex, z: complex, r: float) -> XofR:
    """Unique x >= 0 with (1-r) ||phi||_x ||psi||_x = sqrt(2), with both norms.

    The interpolated squared-norm product is continuous and strictly
    increasing, so bracketing plus bisection is exact up to tolerance.
    The horizon doubles up to `_MAX_HORIZON`, past which HorizonError is
    raised; phi and psi share one propagation.
    """
    return _search_x(seq, [lam], [complex(z)], r)[0]


def jl_ratio(seq: VerblunskySequence, lam: complex, z: complex, r: float) -> float:
    """|F^lam(r z)| * ||phi^lam||_x(r) / ||psi^lam||_x(r).

    Bounded above and below by universal constants when the
    Jitomirskaya-Last comparison applies; equals 1 identically for the
    free sequence.  The norms come from the x(r) search itself
    (`XofR.jl_ratio`).
    """
    xr = solve_x_of_r(seq, lam, z, r)
    return xr.jl_ratio(schur_eval_F_adaptive(rotated(seq, lam), r * z))


def jl_ratio_sweep(seq: VerblunskySequence, lams, zs, r: float) -> np.ndarray:
    """jl_ratio over the (lam, z) product grid, shape (len(lams), len(zs)).

    One `transfer.norm_profile_batch` call per horizon carries the phi and
    psi pairs of the whole grid, and one `schur_F_batch` pass gives F^lam
    at every grid point, which is much faster than pointwise evaluation
    for on-circle sweeps.
    """
    lams = np.asarray(lams, dtype=complex)
    zs = np.asarray(zs, dtype=complex)
    # grid point (i, j) sits at flat index i * len(zs) + j
    lam_grid, z_grid = np.repeat(lams, len(zs)), np.tile(zs, len(lams))
    F_lam = schur_F_batch(seq, r * z_grid, lam=lam_grid)
    xrs = _search_x(seq, lam_grid, z_grid, r)
    return np.reshape([xr.jl_ratio(F) for xr, F in zip(xrs, F_lam.tolist())],
                      (len(lams), len(zs)))


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


def mobius_sup_grid(F):
    """Maximum of the boundary Möbius family on a 4096-point grid, refined
    by ternary search around the best grid point (the profile is smooth
    and unimodal near its maximum, so this converges to the supremum).

    F may be an array: the ternary search runs on all of it at once.  A
    scalar F returns a float.
    """
    F = np.asarray(F, dtype=complex)
    flat = F.ravel()
    n = 4096
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    lams = np.exp(1j * thetas)
    best, k = np.empty(flat.size), np.empty(flat.size, dtype=np.intp)
    for i, f in enumerate(flat):  # one F at a time: the grid stays one row
        vals = np.abs(mobius_map(f, lams))
        k[i] = np.argmax(vals)
        best[i] = vals[k[i]]
    h = 2.0 * math.pi / n
    lo, hi = thetas[k] - h, thetas[k] + h

    def val(t: np.ndarray) -> np.ndarray:
        return np.abs(mobius_map(flat, np.exp(1j * t)))

    for _ in range(120):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        left = val(m1) < val(m2)
        lo = np.where(left, m1, lo)
        hi = np.where(left, hi, m2)
    sup = np.maximum(best, val(0.5 * (lo + hi)))
    return float(sup[0]) if F.ndim == 0 else sup.reshape(F.shape)


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
