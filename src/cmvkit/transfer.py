"""Szegő transfer cocycle: one-step matrices, products, SL(2,C)
normalization, truncated solution norms and power-law exponent fits.

The one-step matrix at site n is

    A(n, z) = (1/rho(n)) [[z, -conj(alpha(n))], [-alpha(n) z, 1]],

with det A = z, so the L-step product has determinant z^L and
M_L = T_L / z^(L/2) lies in SL(2,C) once a branch of the square root is
fixed.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import VerblunskySequence, rho_of
from .errors import (InsufficientDataError, NormalizationError,
                     SpectralPointError)

_RENORM_EVERY = 64
_BLOCK = 128      # norm-profile steps between escape tests


def branch_sqrt(z: complex) -> complex:
    """sqrt with the branch  |z|^(1/2) exp(i arg(z)/2),  arg in [0, 2pi)."""
    if z == 0:
        raise SpectralPointError("square-root branch undefined at z = 0")
    theta = cmath.phase(z) % (2.0 * math.pi)
    return math.sqrt(abs(z)) * cmath.exp(0.5j * theta)


def szego_matrices(alpha, z) -> np.ndarray:
    """One-step Szegő matrices A(alpha, z), broadcast over alpha and z;
    shape (..., 2, 2).  Raises DegenerateRhoError where rho vanishes."""
    a, z = np.broadcast_arrays(np.asarray(alpha, dtype=complex),
                               np.asarray(z, dtype=complex))
    inv = 1.0 / rho_of(a, nonzero=True)
    A = np.empty(a.shape + (2, 2), dtype=complex)
    A[..., 0, 0] = z * inv
    A[..., 0, 1] = -np.conj(a) * inv
    A[..., 1, 0] = -a * z * inv
    A[..., 1, 1] = inv
    return A


def cocycle_product(seq: VerblunskySequence, z: complex, L: int) -> np.ndarray:
    """Ordered product A(L-1) ... A(0), renormalized internally.

    Entries are rescaled every few steps and the scale reattached at the
    end; OverflowError is raised only if the final matrix itself exceeds
    the floating-point range.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    acc = np.eye(2, dtype=complex)
    log_scale = 0.0
    for j, A in enumerate(szego_matrices(seq.alpha_array(0, L), z)):
        acc = A @ acc
        if (j + 1) % _RENORM_EVERY == 0:
            m = np.max(np.abs(acc))
            if m > 1e100 or (0.0 < m < 1e-100):
                acc = acc * (1.0 / m)
                log_scale += math.log(m)
    if log_scale != 0.0:
        if log_scale > 700.0:
            raise OverflowError("cocycle product exceeds floating-point range")
        acc = acc * math.exp(log_scale)
    if not np.all(np.isfinite(acc)):
        raise OverflowError("cocycle product exceeds floating-point range")
    return acc


def normalize_sl2(T: np.ndarray, z: complex, n: int) -> np.ndarray:
    """M_n = T_n / z^(n/2) with the fixed square-root branch; det M = 1."""
    return T * branch_sqrt(z) ** (-n)


def norm_profile(seq: VerblunskySequence, z: complex, initial, n_max: int) -> np.ndarray:
    """Cumulative squared norms S[n] = sum_{j<=n} (|eta_j|^2 + |eta_j^*|^2)/2
    of the pair (eta_j, eta_j^*) propagated from `initial`: the one-row
    view of `norm_profile_batch`."""
    return norm_profile_batch(seq, [z], [initial], n_max)[0]


def norm_profile_batch(seq: VerblunskySequence, zs, initials, n_max: int) -> np.ndarray:
    """Cumulative squared norms, shape (batch, n_max + 1), one row per
    pair (eta_j, eta_j^*) propagated from an initial pair.

    zs and initials broadcast elementwise over the batch; the coefficient
    sequence is shared.
    Each step applies A(alpha_j, z) = A(alpha_j, 1) diag(z, 1) to the
    (2, batch) state by elementwise products, so a row's values depend
    neither on the batch it rides in nor on n_max.  A row whose pair
    leaves 1e150 saturates to inf from that step on, not into NaNs.
    """
    zs = np.asarray(zs, dtype=complex)
    init = np.asarray(initials, dtype=complex)
    B = np.broadcast(zs, init[..., 0]).size
    zs = np.broadcast_to(zs, (B,))
    state = np.broadcast_to(init, (B, 2)).T.copy()
    A = szego_matrices(seq.alpha_array(0, n_max), 1.0)
    col_u, col_v = A[:, :, 0, None], A[:, :, 1, None]
    out = np.empty((B, n_max + 1))
    out[:, 0] = 0.5 * (np.abs(state[0]) ** 2 + np.abs(state[1]) ** 2)
    block = np.empty((min(_BLOCK, n_max), 2, B), dtype=complex)
    # an escaped row runs on to the end of its block; its overflow is discarded
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, n_max, _BLOCK):
            m = min(_BLOCK, n_max - j0)
            for k in range(m):
                state = block[k] = (col_u[j0 + k] * (zs * state[0])
                                    + col_v[j0 + k] * state[1])
            mod = np.abs(block[:m])
            weights = 0.5 * (mod[:, 0] ** 2 + mod[:, 1] ** 2)
            big = (mod > 1e150).any(axis=1)
            if big.any():
                # each row is cut at its first crossing, as a per-step test would
                first = np.where(big.any(axis=0), big.argmax(axis=0), m)
                weights[np.arange(m)[:, None] >= first] = np.inf
                state[:, first < m] = 0.0
            # cumsum adds in order, so the sums do not depend on the block length
            sums = np.cumsum(np.concatenate([out[None, :, j0], weights]), axis=0)
            out[:, j0 + 1:j0 + m + 1] = sums[1:].T
    return out


def _interp_squared(profile: np.ndarray, L: float) -> float:
    # linear interpolation acts on the squared norms
    if L <= 0:
        return float(profile[0]) if L == 0 else math.nan
    n = int(math.floor(L))
    if n >= len(profile) - 1:
        if L <= len(profile) - 1:
            return float(profile[-1])
        raise ValueError("norm profile shorter than requested L")
    frac = L - n
    return float((1.0 - frac) * profile[n] + frac * profile[n + 1])


def solution_norms(seq: VerblunskySequence, z: complex, initials, L: float) -> list:
    """||eta||_L for the pair orbit from each initial pair, read from one
    batched propagation.

    Each initial pair must satisfy |eta_0|^2 + |eta_1|^2 = 2; squared norms
    are interpolated linearly between integer L.
    """
    for initial in initials:
        s = abs(complex(initial[0])) ** 2 + abs(complex(initial[1])) ** 2
        if abs(s - 2.0) > 1e-10:
            raise NormalizationError(f"|eta0|^2 + |eta1|^2 = {s}, expected 2")
    if L < 0:
        raise ValueError("L must be nonnegative")
    profiles = norm_profile_batch(seq, [z], initials, int(math.ceil(L)))
    return [math.sqrt(_interp_squared(p, L)) for p in profiles]


def solution_norm(seq: VerblunskySequence, z: complex, initial, L: float) -> float:
    """||eta||_L for the pair orbit started from `initial`."""
    return solution_norms(seq, z, [initial], L)[0]


@dataclass(frozen=True)
class FitResult:
    """Two-sided power-law envelope of ||eta||_L on a sampled range."""

    gamma_low: float
    gamma_high: float
    c_low: float
    c_high: float

    @property
    def beta(self) -> float:
        return 2.0 * self.gamma_low / (self.gamma_low + self.gamma_high)


def fit_power_law(samples) -> FitResult:
    """Envelope exponents from (L, norm) samples at geometrically spaced L.

    gamma_high / gamma_low are the extreme pairwise slopes of log norm
    against log L over pairs separated by at least half the sampled log
    range (closer pairs measure local oscillation, not the envelope).
    The constants are pinned so the two-sided bound
    c_low * L^gamma_low <= norm <= c_high * L^gamma_high holds at every
    sample.
    """
    pts = [(float(L), float(v)) for L, v in samples]
    if len(pts) < 8:
        raise InsufficientDataError(f"need >= 8 samples, got {len(pts)}")
    if any(L <= 0 or v <= 0 for L, v in pts):
        raise InsufficientDataError("samples must have positive L and norm")
    pts.sort()
    logs = [(math.log(L), math.log(v)) for L, v in pts]
    span = logs[-1][0] - logs[0][0]
    if span <= 0:
        raise InsufficientDataError("samples need distinct L values")
    slopes = []
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            dx = logs[j][0] - logs[i][0]
            if dx < 0.5 * span:
                continue
            slopes.append((logs[j][1] - logs[i][1]) / dx)
    g_low = min(slopes)
    g_high = max(slopes)
    try:
        c_low = min(v / L ** g_low for L, v in pts)
        c_high = max(v / L ** g_high for L, v in pts)
    except ArithmeticError as exc:  # L ** g leaves the float range, off the spectrum
        raise InsufficientDataError(f"exponents [{g_low:.3g}, {g_high:.3g}] overflow") from exc
    return FitResult(g_low, g_high, c_low, c_high)


@dataclass(frozen=True)
class PairGrowth:
    """Power-law growth of the four Alexandrov solutions at one z."""

    g_lo: float        # least-squares slopes of log norm against log L
    g_hi: float
    env_lo: float      # fit_power_law envelope exponents
    env_hi: float
    Ls: tuple          # sampled lengths
    profile: np.ndarray  # squared-norm profile of the initial pair (1, 1)

    @property
    def beta(self) -> float:
        return 2.0 * self.g_lo / (self.g_lo + self.g_hi)

    @property
    def envelope_beta(self) -> float:
        return 2.0 * self.env_lo / (self.env_lo + self.env_hi)

    def samples(self) -> list:
        """(L, norm) pairs of the (1, 1) solution at the sampled lengths."""
        return [(L, math.sqrt(self.profile[L])) for L in self.Ls]


def pair_growth_exponents(seq: VerblunskySequence, z: complex) -> PairGrowth:
    """Growth exponents of the solutions started from (1, +-conj(lam)),
    lam in {1, i}, sampled at L = 64, 128, ..., 8192.

    The slope range (g_lo, g_hi) feeds the transfer-growth prediction
    2 g_lo / (g_lo + g_hi) of the Hölder exponent; all four pairs share one
    batched propagation.  A sampled norm that is not finite raises
    InsufficientDataError before any fit (z off the spectrum).
    """
    Ls = [2 ** k for k in range(6, 14)]
    lx = np.log(np.array(Ls, dtype=float))
    inits = [[1.0, sign * np.conj(lam)] for lam in (1.0, 1j) for sign in (1.0, -1.0)]
    profiles = norm_profile_batch(seq, [complex(z)], inits, Ls[-1])
    escaped = ~np.isfinite(profiles[:, Ls]).all(axis=0)
    if escaped.any():
        raise InsufficientDataError(f"solution norms at z = {complex(z)} leave the "
                                    f"floating-point range by L = {Ls[escaped.argmax()]}")
    slopes = []
    env_lo, env_hi = math.inf, -math.inf
    for prof in profiles:
        slopes.append(float(np.polyfit(lx, 0.5 * np.log(prof[Ls]), 1)[0]))
        fit = fit_power_law([(L, math.sqrt(prof[L])) for L in Ls])
        env_lo = min(env_lo, fit.gamma_low)
        env_hi = max(env_hi, fit.gamma_high)
    return PairGrowth(min(slopes), max(slopes), env_lo, env_hi, tuple(Ls),
                      profiles[0])


def write_norm_csv(samples, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["L", "norm", "log_L", "log_norm"])
        for L, v in samples:
            writer.writerow([repr(float(L)), repr(float(v)),
                             repr(math.log(L)), repr(math.log(v))])


def fit_to_json(fit: FitResult, path=None):
    record = {
        "gamma_low": fit.gamma_low,
        "gamma_high": fit.gamma_high,
        "c_low": fit.c_low,
        "c_high": fit.c_high,
        "beta": fit.beta,
    }
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
    return record
