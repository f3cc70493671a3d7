"""Carathéodory-function machinery.

Evaluation of F(z) from Verblunsky coefficients by the Schur algorithm,
two independent oracles on unitary truncations (a pivot-free banded
resolvent solve of the rescaled I - zC*, whose margin 1 - |z| the
truncation's unitarity gives, and, for small sizes, an
eigen-decomposition), the fractional-linear map
producing the anti-Carathéodory left function, the Alexandrov-family
norms, the Jitomirskaya-Last scale x(r), and the exact Möbius boundary
supremum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeffs import VerblunskySequence
from .errors import (DepthError, DiskError, HorizonError, PoleError,
                     SupportError, UnconvergedWarning)
from . import operator, transfer
from .table import write_csv

_MAX_HORIZON = 1 << 21  # the longest norm profile the x(r) search propagates
# `_schur_F_words` accepts a table value whose check reading agrees within
# _WORD_RTOL relative.  At holder's arc nodes (5 eps x 24 nodes at two
# certified theta, max_depth 2^15) the readings differ by at most 2.1e-14
# on (0.5, -0.5), 5.2e-14 on (0.4 + 0.2j, -0.5) and 5.6e-13 on (0.9, -0.9).
_WORD_RTOL = 1e-12


def _nested_disks(seq: VerblunskySequence, zs: np.ndarray, tol: float,
                  max_depth: int, lam=1.0):
    """Schur algorithm forward, one pass, over a (B,) array of |z| < 1.

    M_k = [[z, a_k], [conj(a_k) z, 1]] maps the tail f_{k+1} to f_k and
    N = [[z, 1], [-z, 1]] maps f to F, so Q_d = N M_0 ... M_{d-1} =
    [[a, b], [c, e]] maps every tail in the closed disk into the disk about
    Q_d(0) = b/e of radius |det Q_d| / (|e| (|e| - |c|)).  Row i of Q_d is
    (z eta, -eta*) for the i-th of the lam rows of `transfer._szego_steps`,
    so b/e = eta*_0 / eta*_1 is F^lam (F at lam = 1), |e| = |eta*_1| and
    |c| = |z| |eta_1|; log|det Q_d| = log 2 + (d + 1) log|z| +
    sum log(1 - |a_k|^2) is summed exactly.  Once per block of
    `transfer._BLOCK` sites the pairs are renormalized by |e| and a point
    whose radius is below `tol` leaves the batch with F = b/e.  At
    `seq.zero_tail()` the tail is exactly 0 and every remaining point stops
    with radius 0.  `lam` is unimodular, one per point or one for all.

    Returns (F, radius, depth) per point; a radius not below `tol` marks a
    point that `max_depth` stopped.  With tol = 0 every point runs to
    min(max_depth, zero tail), the fixed-depth truncation.
    """
    B = zs.size
    F, radius, depth = np.empty(B, dtype=complex), np.zeros(B), np.zeros(B, dtype=np.int64)
    tail = seq.zero_tail()
    stop = min(max_depth, tail)
    with np.errstate(divide="ignore"):
        log_r = np.log(np.abs(zs))
    # state[:, i] is the pair (eta_i, eta*_i) of row i, one column per active point
    state = np.empty((2, 2, B), dtype=complex)
    state[0, 0], state[0, 1] = 1.0, -1.0
    state[1] = -np.conj(np.asarray(lam, dtype=complex))
    logdet = math.log(2.0) + log_r
    active, z = np.arange(B), np.stack([zs, zs])
    j0 = 0
    while j0 < stop and len(active):
        j1 = min(j0 + transfer._BLOCK, stop)
        alphas = seq.alpha_array(j0, j1)
        transfer._szego_steps(state, z, alphas)
        s = np.abs(state[1, 1])
        state /= s
        logdet += ((j1 - j0) * log_r - 2.0 * np.log(s)
                   + float(np.sum(np.log1p(-np.abs(alphas) ** 2))))
        j0 = j1
        gap = 1.0 - np.abs(z[1] * state[0, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            rad = np.where(gap > 0.0, np.exp(logdet) / gap, np.inf)
        if j0 == tail:
            rad[:] = 0.0
        done = (rad < tol) | (j0 == stop)
        idx = active[done]
        F[idx] = state[1, 0, done] / state[1, 1, done]
        radius[idx], depth[idx] = rad[done], j0
        # compress keeps the arrays C-ordered, as same-shape products need
        keep = ~done
        active, state, z = active[keep], state.compress(keep, -1), z.compress(keep, -1)
        log_r, logdet = log_r[keep], logdet[keep]
    F[active] = state[1, 0] / state[1, 1]  # stop = 0: Q_0(0) = 1
    return F, radius, depth


def schur_eval_F(seq: VerblunskySequence, z: complex, depth: int) -> complex:
    """F(z) from the depth-truncated Schur algorithm (tail function 0):
    Q_d(0) of `_nested_disks` at d = depth, geometric in `depth` for |z| < 1."""
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


def _schur_F_words(seq: VerblunskySequence, zs, tol: float, max_depth: int) -> np.ndarray:
    """F over an array of |z| < 1: from the golden word table where
    `seq.golden_route()` finds one and its check agrees, else by
    `schur_F_batch`.

    A prefix of depth d = lead + q_k is b^lead w_k, k >= 1, with the
    Szegő product T = T_{w_k} T_b^lead from `transfer._golden_words`.
    There F_d = -[T (1, -1)^T]_2 / [T (1, 1)^T]_2 = -psi*_d / phi*_d, whose
    nested-disk radius (`_nested_disks`) is
    2 |z|^(d+1) / (|phi*_d| (|phi*_d| - |z| |phi_d|)).  Each point takes the
    least d <= max_depth whose radius is below `tol`; the disks are
    nested, so the loop certifies every point that the table does.

    Composed words round worse than the loop where their products cancel,
    so the same batch also reads the table of lam alpha at
    `transfer._CHECK_LAM`, mapped back by D^-1 T^lam D, D = diag(1, lam):
    F_d = -[T^lam (1, -lam)^T]_2 / [T^lam (1, lam)^T]_2.  A point goes to
    `schur_F_batch` (bit for bit its value there, with its warning if it
    does not converge) when the readings differ by more than `_WORD_RTOL`
    relative, when either is not finite, or when no depth certifies it.
    The discrepancy estimates the table's error; it does not bound it.  The
    table's distance to the loop at the same depth reached 3.6e2 times the
    discrepancy at holder's arc nodes (five alphabets) and 2.4e3 on whole
    circles at r = 0.999 (4096 theta, three alphabets): that is the
    measured safety factor, so an accepted value is estimated within
    2.4e-9 relative (measured: within 2.4e-12).  `transfer.norm_squares`
    runs the same check; its docstring gives the counterexample on record.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    r = np.abs(flat)
    if np.any(r >= 1.0):
        raise DiskError("batch contains |z| >= 1")
    F, redo = np.empty(flat.shape, dtype=complex), np.ones(flat.shape, dtype=bool)
    route = seq.golden_route()
    if route is not None and route[1] < max_depth:  # the least depth, lead + q_1, fits
        (a, b), lead = route
        lam = np.array([[1.0], [transfer._CHECK_LAM]])
        q, T = transfer._golden_words((lam * a, lam * b), flat, max_depth - lead)
        d = lead + np.array(q[1:])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            T = np.stack(T[1:])  # (depth, table, point, 2, 2)
            if lead:
                T = transfer._mul(T, transfer.szego_matrices(lam * b, flat))
            t10, t11 = T[..., 1, 0], lam * T[..., 1, 1]
            Fd = (t11 - t10) / (t11 + t10)
            phi, phis = np.abs(T[:, 0, :, 0, 0] + T[:, 0, :, 0, 1]), np.abs(t10[:, 0] + t11[:, 0])
            rad = np.exp(math.log(2.0) + (d[:, None] + 1) * np.log(r) - 2.0 * np.log(phis)
                         - np.log(1.0 - r * phi / phis))
            certified = rad < tol  # a NaN radius, where |phi*| <= |z| |phi|, is not
            pick = certified.argmax(axis=0), np.arange(flat.size)
            F, check = Fd[:, 0][pick], Fd[:, 1][pick]
            redo = ~(certified.any(axis=0) & np.isfinite(F) & np.isfinite(check)
                     & (np.abs(F - check) <= _WORD_RTOL * np.abs(F)))
    if redo.any():
        F[redo] = schur_F_batch(seq, flat[redo], tol, max_depth)
    return F.reshape(zs.shape)


@lru_cache(maxsize=8)
def _unitary_eigensystem(seq: VerblunskySequence, N: int, eta_b: complex):
    """Eigenvalues and delta_0 spectral weights of the closed truncation.

    Uses a complex Schur decomposition: for a unitary (normal) matrix the
    triangular factor is diagonal to machine precision and the transform
    is exactly unitary, so the weights sum to one by construction.  This
    test oracle needs scipy, which the `test` extra installs; nothing else
    in the package imports it.
    """
    import scipy.linalg
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

    One banded solve of (C - z) x = delta_0 for all the points, by
    `operator.CMVBlock.solve`: since C is unitary, C - z = C (I - z C*),
    and I - z C* has Hermitian part at least 1 - |z|, so it is eliminated
    without pivoting (Golub & Van Loan, Linear Algebra Appl. 28, 1979;
    Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 10.4), from the bottom row up, and row 0 keeps no factor row.
    Only the matrix enters, never the Schur recursion, so this is an
    independent check of `schur_F_batch`.
    """
    zs = np.asarray(zs, dtype=complex)
    if np.any(np.abs(zs) >= 1.0):
        raise DiskError("batch contains |z| >= 1")
    delta0 = np.zeros(N, dtype=complex)
    delta0[0] = 1.0
    x0 = operator.build_finite_cmv(seq, N, eta_b).solve(zs, delta0, [0])[..., 0]
    return 1.0 + 2.0 * zs * x0


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


def _x_from_profiles(s_phi: np.ndarray, s_psi: np.ndarray, r) -> list:
    """Root of the x(r) equation, and the norms there, for each row of the
    precomputed squared-norm profiles (shape (points, n + 1)); r is one
    radius for all rows or one per row.

    With t = 2/(1 - r)^2, k is the first column where S_phi S_psi >= t (an
    overflowed or escaped product reads inf, above t).  Between columns
    n = k - 1 and k the squared norms are linear, p0 + f dp and q0 + f dq,
    so the root solves dp dq f^2 + b f - c = 0 with c = t - p0 q0 > 0 and
    b = p0 dq + q0 dp >= 0: f = 2c / (b + sqrt(b^2 + 4 dp dq c)), a form
    that subtracts no like-signed terms.  x = n + f, and x = 0 where k = 0.
    The root reads no column past k, and the norms are read through
    `transfer._interp_squared`, as `alexandrov_norms` reads them."""
    t = 2.0 / (1.0 - np.broadcast_to(np.asarray(r, dtype=float), (len(s_phi),))) ** 2
    with np.errstate(over="ignore"):
        crossed = s_phi * s_psi >= t[:, None]
    if not crossed[:, -1].all():
        raise HorizonError("profiles end before the x(r) root")
    k = crossed.argmax(axis=1)
    x = np.zeros(len(t))
    m = np.flatnonzero(k)  # the rows that start below the target
    n = k[m] - 1
    p0, q0 = s_phi[m, n], s_psi[m, n]
    dp, dq = s_phi[m, n + 1] - p0, s_psi[m, n + 1] - q0
    c, b = t[m] - p0 * q0, p0 * dq + q0 * dp
    # where the product at k is near t, rounding can put f past 1 (by 8e-12
    # on random columns); the root lies in [n, k]
    x[m] = n + np.minimum(2.0 * c / (b + np.sqrt(b * b + 4.0 * dp * dq * c)), 1.0)
    return [XofR(v, math.sqrt(transfer._interp_squared(p, v)),
                 math.sqrt(transfer._interp_squared(q, v)))
            for v, p, q in zip(x.tolist(), s_phi, s_psi)]


def _search_x(seq: VerblunskySequence, lams, zs, r) -> list:
    """x(r) at each point (lams[i], zs[i]), with r one radius for all or
    one per point.

    Each round carries the phi rows of the unfinished points, then their
    psi rows, in one batched propagation of n = 64, 128, ... sites, up to
    `_MAX_HORIZON`.  A point is finished once its product at column n
    reaches 2/(1 - r)^2; its root reads no column past that, so its x and
    norms do not depend on the round, nor on the other points."""
    lc = np.conj(np.asarray(lams, dtype=complex))
    zs = np.asarray(zs, dtype=complex)
    r = np.broadcast_to(np.asarray(r, dtype=float), lc.shape)
    if not np.all((0.0 < r) & (r < 1.0)):
        raise ValueError("r must lie in (0, 1)")
    target = 2.0 / (1.0 - r) ** 2
    phi = np.stack([np.ones_like(lc), lc], axis=-1)
    found = [None] * len(lc)
    todo, n = np.arange(len(lc)), 64
    while len(todo):
        if n > _MAX_HORIZON:
            raise HorizonError(f"x(r) beyond horizon {_MAX_HORIZON}")
        inits = np.concatenate([phi[todo], phi[todo] * [1.0, -1.0]])
        prof = transfer.norm_profile_batch(seq, np.tile(zs[todo], 2), inits, n)
        s_phi, s_psi = prof[:len(todo)], prof[len(todo):]
        with np.errstate(over="ignore"):
            done = s_phi[:, -1] * s_psi[:, -1] >= target[todo]
        for i, xr in zip(todo[done].tolist(),
                         _x_from_profiles(s_phi[done], s_psi[done], r[todo][done])):
            found[i] = xr
        todo, n = todo[~done], 2 * n
    return found


def solve_x_of_r(seq: VerblunskySequence, lam, z, r):
    """Unique x >= 0 with (1-r) ||phi||_x ||psi||_x = sqrt(2), with both norms.

    The squared norms are interpolated linearly, so the product is a
    quadratic between two columns and x is its root in closed form
    (`_x_from_profiles`).  The profiles double up to `_MAX_HORIZON`
    sites, past which HorizonError is raised; phi and psi share each
    propagation (`_search_x`).

    lam, z and r may be arrays that broadcast together: the points then
    share one search (`_search_x`) and a list of XofR returns, the same
    as one search per point.  Scalars return one XofR.
    """
    lam, z, r = np.broadcast_arrays(np.asarray(lam, dtype=complex),
                                    np.asarray(z, dtype=complex), np.asarray(r, dtype=float))
    found = _search_x(seq, lam.ravel(), z.ravel(), r.ravel())
    return found[0] if lam.ndim == 0 else found


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

    One x(r) search (`_search_x`) carries the phi and psi pairs of the
    whole grid, and one `schur_F_batch` pass gives F^lam
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
    r, theta, F, x, ratio, sup = np.array(list(rows), dtype=complex).reshape(-1, 6).T
    write_csv(path, ["r", "theta", "re_F", "im_F", "x_of_r", "jl_ratio", "mobius_sup"],
              [r.real, theta.real, F.real, F.imag, x.real, ratio.real, sup.real])
