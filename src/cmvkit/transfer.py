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


def one_step(seq: VerblunskySequence, z: complex, n: int) -> np.ndarray:
    """One-step Szegő matrix at site n; det equals z."""
    return szego_matrices(seq.alpha(n), z)


def cocycle_product(seq: VerblunskySequence, z: complex, L: int,
                    start: int = 0) -> np.ndarray:
    """Ordered product A(start+L-1) ... A(start), renormalized internally.

    Entries are rescaled every few steps and the scale reattached at the
    end; OverflowError is raised only if the final matrix itself exceeds
    the floating-point range.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    acc = np.eye(2, dtype=complex)
    log_scale = 0.0
    for j, A in enumerate(szego_matrices(seq.alpha_array(start, start + L), z)):
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
    of the pair (eta_j, eta_j^*) propagated from `initial`.

    Exponentially escaping orbits saturate to inf once they leave the
    floating-point range instead of degrading into NaNs.
    """
    alphas = seq.alpha_array(0, n_max)
    rhos = rho_of(alphas, nonzero=True)
    orbit = np.empty((n_max + 1, 2), dtype=complex)
    u, v = complex(initial[0]), complex(initial[1])
    orbit[0] = (u, v)
    for j, (a, r) in enumerate(zip(alphas.tolist(), rhos.tolist())):
        u, v = (z * u - a.conjugate() * v) / r, (-a * z * u + v) / r
        if max(abs(u), abs(v)) > 1e150:
            orbit[j + 1:] = complex(math.inf, 0.0)
            break
        orbit[j + 1] = (u, v)
    weights = 0.5 * (np.abs(orbit[:, 0]) ** 2 + np.abs(orbit[:, 1]) ** 2)
    return np.cumsum(weights)


def norm_profile_batch(seq: VerblunskySequence, zs, initials, n_max: int) -> np.ndarray:
    """Batched cumulative squared norms, shape (batch, n_max + 1).

    zs and initials broadcast elementwise over the batch; the coefficient
    sequence is shared, which is what grid sweeps over the spectral
    parameter need.  The scalar `norm_profile` is the faster loop for a
    single point.
    """
    zs = np.asarray(zs, dtype=complex)
    init = np.asarray(initials, dtype=complex)
    B = max(len(zs), len(init))
    zs = np.broadcast_to(zs, (B,))
    u = np.broadcast_to(init[..., 0], (B,)).astype(complex).copy()
    v = np.broadcast_to(init[..., 1], (B,)).astype(complex).copy()
    alphas = seq.alpha_array(0, n_max)
    rhos = rho_of(alphas, nonzero=True)
    out = np.empty((B, n_max + 1))
    out[:, 0] = 0.5 * (np.abs(u) ** 2 + np.abs(v) ** 2)
    dead = np.zeros(B, dtype=bool)
    for j in range(n_max):
        a, r = alphas[j], rhos[j]
        u, v = (zs * u - np.conj(a) * v) / r, (-a * zs * u + v) / r
        escaped = (np.abs(u) > 1e150) | (np.abs(v) > 1e150)
        if escaped.any():
            # freeze escaped elements; their partial sums saturate to inf
            u[escaped] = 0.0
            v[escaped] = 0.0
            dead |= escaped
        out[:, j + 1] = out[:, j] + 0.5 * (np.abs(u) ** 2 + np.abs(v) ** 2)
        out[dead, j + 1] = np.inf
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


def solution_norm(seq: VerblunskySequence, z: complex, initial, L: float) -> float:
    """||eta||_L for the pair orbit started from `initial`.

    The initial pair must satisfy |eta_0|^2 + |eta_1|^2 = 2; squared norms
    are interpolated linearly between integer L.
    """
    s = abs(complex(initial[0])) ** 2 + abs(complex(initial[1])) ** 2
    if abs(s - 2.0) > 1e-10:
        raise NormalizationError(f"|eta0|^2 + |eta1|^2 = {s}, expected 2")
    if L < 0:
        raise ValueError("L must be nonnegative")
    profile = norm_profile(seq, z, initial, int(math.ceil(L)))
    return math.sqrt(_interp_squared(profile, L))


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
    c_low = min(v / L ** g_low for L, v in pts)
    c_high = max(v / L ** g_high for L, v in pts)
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
    batched propagation.
    """
    Ls = [2 ** k for k in range(6, 14)]
    lx = np.log(np.array(Ls, dtype=float))
    inits = [[1.0, sign * np.conj(lam)] for lam in (1.0, 1j) for sign in (1.0, -1.0)]
    profiles = norm_profile_batch(seq, [complex(z)], inits, Ls[-1])
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
