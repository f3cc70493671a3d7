"""Substitution dynamics for Sturmian transfer cocycles.

Convergent denominators q_n follow q_{n+1} = a_{n+1} q_n + q_{n-1} with
q_0 = q_1 = 1.  The associated standard words over the alphabet letters
(a, b) are w_0 = b, w_1 = a, w_{n+1} = w_n^{a_{n+1}} w_{n-1}; for the
golden mean their limit is the substitution fixed point a -> ab, b -> a,
so the SL(2,C)-normalized transfer products over w_n satisfy the exact
renormalization M_{q_{n+1}} = M_{q_{n-1}} M_{q_n}^{a_{n+1}}, composed by
`transfer._word_products`, the recursion behind the golden word tables.
Traces x_n = tr M_{q_n} and z_n = tr(M_{q_{n-1}} M_{q_n}) evolve with
the conserved Fricke invariant, which drives the spectrum approximation
and the explicit growth constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .coeffs import rho_of
from .errors import DomainError
from .table import write_csv, write_json
from .transfer import _mul, _word_products, branch_sqrt, szego_matrices

_BIG = 1e100
# traces beyond this size no longer support a trustworthy invariant
# (the Fricke polynomial loses ~|trace|^3 * eps to cancellation), so the
# orbit is flagged and truncated there
_TRACE_TRUST = 1e3


@dataclass(frozen=True)
class ContinuedFractionData:
    """Partial quotients with convergents, density and growth base.

    quotients[0] is a_1; the q-recursion consumes a_2 onward.  density is
    the numerical limsup of running quotient averages (maximum over the
    tail half of the computed range); growth_base is the smallest B with
    q_n <= B^n on the range unless overridden.
    """

    quotients: tuple
    q: tuple
    density: float
    growth_base: float


def cf_data(a, n_max: int, growth_base: float | None = None) -> ContinuedFractionData:
    """Convergent data for partial quotients a = (a_1, a_2, ...)."""
    a = tuple(int(x) for x in a)
    if len(a) < n_max:
        raise ValueError(f"need at least {n_max} partial quotients")
    if any(x < 1 for x in a):
        raise ValueError("partial quotients must be >= 1")
    q = [1, 1]
    for n in range(1, n_max):
        q.append(a[n] * q[n] + q[n - 1])
    sums = np.cumsum(a[:n_max])
    averages = sums / np.arange(1, n_max + 1)
    tail = averages[(n_max - 1) // 2:]
    density = float(np.max(tail))
    measured = max(q[n] ** (1.0 / n) for n in range(1, len(q)))
    B = float(growth_base) if growth_base is not None else float(measured)
    if any(q[n] > B ** n * (1 + 1e-12) for n in range(len(q))):
        raise DomainError(f"growth base {B} violates q_n <= B^n")
    return ContinuedFractionData(a[:n_max], tuple(q), density, B)


def golden_cf(n_max: int) -> ContinuedFractionData:
    """All partial quotients 1; growth base pinned to the golden ratio."""
    return cf_data((1,) * n_max, n_max, growth_base=(1 + math.sqrt(5)) / 2)


def standard_word(quotients, n: int) -> np.ndarray:
    """Letters of w_n, encoded 1 for the first alphabet letter, 0 for the
    second.  For n >= 1 each w_n is a prefix of the limit word."""
    if n == 0:
        return np.array([0], dtype=np.int8)
    w_prev, w_cur = [0], [1]
    for k in range(1, n):
        w_prev, w_cur = w_cur, w_cur * quotients[k] + w_prev
    return np.array(w_cur, dtype=np.int8)


def word_alphas(alphabet, word: np.ndarray) -> np.ndarray:
    a, b = complex(alphabet[0]), complex(alphabet[1])
    return np.where(np.asarray(word) == 1, a, b)


def _letter_matrices(alphabet, zs: np.ndarray) -> tuple:
    """SL(2,C)-normalized one-letter transfer matrices (M_a, M_b) of the
    alphabet letters, batched over z: `transfer._word_products`' `first`
    and `second`, the orbit seeds M_{q_1} = M_a and M_{q_0} = M_b of
    the standard words w_1 = a, w_0 = b."""
    s = branch_sqrt(zs)[:, None, None]
    Ma, Mb = (szego_matrices(letter, zs) / s for letter in alphabet)
    return Ma, Mb


def _norms(M: np.ndarray) -> np.ndarray:
    g = np.sum(np.abs(M) ** 2, axis=(-2, -1))
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    disc = np.maximum(g * g - 4.0 * np.abs(det) ** 2, 0.0)
    return np.sqrt(np.maximum((g + np.sqrt(disc)) / 2.0, 0.0))


def fricke_invariant(x_prev, x_cur, z_cur):
    """x_{n-1}^2 + x_n^2 + z_n^2 - x_{n-1} x_n z_n."""
    return x_prev ** 2 + x_cur ** 2 + z_cur ** 2 - x_prev * x_cur * z_cur


@dataclass(frozen=True)
class OrbitSweep:
    """Vectorized substitution orbits over a batch of spectral parameters.

    Arrays are indexed [n, g] for orbit level n and grid point g; traces
    at exploded points are +inf past their overflow level.
    """

    zs: np.ndarray
    n_max: int
    x: np.ndarray            # tr M_{q_n}, n = 0..n_max
    z_mix: np.ndarray        # tr M_{q_{n-1}} M_{q_n}, rows 1..n_max (row 0 = nan)
    invariant: np.ndarray    # Fricke invariant, rows 1..n_max (row 0 = nan)
    norms: np.ndarray        # ||M_{q_n}||
    seed_norms: np.ndarray   # rows: ||M_0||, ||M_1||, ||M_0 M_1||
    first_overflow: np.ndarray  # orbit level at which the point exploded (n_max+1 if never)

    @property
    def invariant_sup(self) -> float:
        """Grid maximum of |I(z)|, read at the first level: I is conserved
        along orbits and the seed traces there are exact.  For complex
        alphabets I(z) may acquire a small imaginary part; the magnitude is
        used."""
        return float(np.max(np.abs(self.invariant[1])))

    @property
    def seed_sups(self) -> tuple:
        """Grid suprema of (||M_0||, ||M_1||, ||M_0 M_1||)."""
        return tuple(float(np.max(row)) for row in self.seed_norms)

    def mask(self, K: float, n: int) -> np.ndarray:
        """Spectrum mask: a point passes iff for every orbit level m <= n
        at least one of |x_m|, |z_m| stays below K.  Levels up to n of a
        deeper sweep equal those of a level-n sweep, so one sweep serves
        every depth up to n_max."""
        if K <= 2.0:
            raise DomainError("the trace bound K must exceed 2")
        if not 1 <= n <= self.n_max:
            raise ValueError(f"mask level {n} outside 1..{self.n_max}")
        with np.errstate(invalid="ignore"):
            ax = np.abs(self.x[1:n + 1])
            az = np.abs(self.z_mix[1:n + 1])
        ok = (ax <= K) | (az <= K)
        ok &= np.isfinite(ax) | np.isfinite(az)
        return np.all(ok, axis=0)


def orbit_sweep(alphabet, cf: ContinuedFractionData, zs, n_max: int) -> OrbitSweep:
    zs = np.asarray(zs, dtype=complex)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if n_max + 1 > len(cf.q):
        raise ValueError("continued-fraction data shorter than n_max")
    G = len(zs)
    Ma, Mb = _letter_matrices(alphabet, zs)
    # M_{q_0} = b-letter, M_{q_1} = a-letter, then M_{q_n} for a_2 ... a_{n_max}
    words = _word_products(Ma, Mb, cf.quotients[1:n_max])
    M_prev = next(words)

    x, z_mix, inv = (np.full((n_max + 1, G), np.nan, dtype=complex) for _ in range(3))
    norms = np.full((n_max + 1, G), np.inf)
    first_overflow = np.full(G, n_max + 1, dtype=int)
    dead = np.zeros(G, dtype=bool)

    seed_norms = np.vstack([_norms(Mb), _norms(Ma), _norms(_mul(Mb, Ma))])

    def trace(M):
        return M[:, 0, 0] + M[:, 1, 1]

    x[0], norms[0] = trace(M_prev), _norms(M_prev)
    for n, M_cur in enumerate(words, start=1):
        with np.errstate(invalid="ignore", over="ignore"):
            x[n] = trace(M_cur)
            z_mix[n] = trace(_mul(M_prev, M_cur))
            inv[n] = fricke_invariant(x[n - 1], x[n], z_mix[n])
            norms[n] = _norms(M_cur)
            bad = (~np.isfinite(norms[n]) | (norms[n] > _BIG)
                   | (np.abs(x[n]) > _TRACE_TRUST) | (np.abs(z_mix[n]) > _TRACE_TRUST))
        first_overflow[bad & ~dead] = n
        dead |= bad
        x[n][dead] = z_mix[n][dead] = np.inf
        inv[n][dead] = np.nan
        norms[n][dead] = np.inf
        M_prev = M_cur
    return OrbitSweep(zs, n_max, x, z_mix, inv, norms, seed_norms, first_overflow)


@dataclass(frozen=True)
class OrbitRecord:
    n: int
    q: int
    x: complex
    z: complex
    invariant: complex
    norm: float


@dataclass(frozen=True)
class TraceOrbit:
    z: complex
    alphabet: tuple
    records: tuple
    seed_norms: tuple
    overflowed: bool


def trace_orbit(alphabet, cf: ContinuedFractionData, z: complex, n_max: int) -> TraceOrbit:
    """Substitution orbit at a single spectral parameter.

    Records (n, q_n, x_n, z_n, I_n) for n = 1..n_max, stopping early with
    a non-fatal overflow flag once matrix entries leave the floating
    range.
    """
    if z == 0:
        raise DomainError("z = 0 has no square-root branch")
    sweep = orbit_sweep(alphabet, cf, np.array([complex(z)]), n_max)
    cutoff = int(sweep.first_overflow[0])
    records = []
    for n in range(1, min(n_max, cutoff - 1) + 1):
        records.append(OrbitRecord(n, cf.q[n], complex(sweep.x[n, 0]),
                                   complex(sweep.z_mix[n, 0]),
                                   complex(sweep.invariant[n, 0]),
                                   float(sweep.norms[n, 0])))
    return TraceOrbit(complex(z), tuple(alphabet), tuple(records),
                      tuple(float(v) for v in sweep.seed_norms[:, 0]),
                      cutoff <= n_max)


def spectrum_approx(alphabet, cf: ContinuedFractionData, theta_grid, n: int,
                    K: float) -> np.ndarray:
    """Level-n spectrum mask over the theta grid (`OrbitSweep.mask`)."""
    zs = np.exp(1j * np.asarray(theta_grid, dtype=float))
    return orbit_sweep(alphabet, cf, zs, n).mask(K, n)


def default_trace_bound(I_sup: float) -> float:
    """K = 2 + sqrt(8 + I_sup), the bound built into the coupling constant."""
    if I_sup < -8.0:
        raise DomainError("invariant magnitude below -8")
    return 2.0 + math.sqrt(8.0 + I_sup)


def invariant_sup(alphabet, cf: ContinuedFractionData, theta_grid) -> float:
    """Grid maximum of |I(z)| on the circle (`OrbitSweep.invariant_sup`)."""
    zs = np.exp(1j * np.asarray(theta_grid, dtype=float))
    return orbit_sweep(alphabet, cf, zs, 1).invariant_sup


@dataclass(frozen=True)
class GammaConstants:
    density: float
    growth_base: float
    coupling: float      # C(alphabet): trace bound vs rho-product bound
    scale: float         # L
    gamma1: float
    gamma2: float
    upper_constant: float  # L^(4 d)

    @property
    def beta(self) -> float:
        return 2.0 * self.gamma1 / (self.gamma1 + self.gamma2)


def gamma_constants(alphabet, cf: ContinuedFractionData, I_sup: float,
                    seed_norms) -> GammaConstants:
    """Explicit power-law constants from orbit data.

    I_sup is the grid maximum of |I(z)| on the circle; seed_norms are the
    grid suprema of (||M_0||, ||M_1||, ||M_0 M_1||).  The trace suprema
    entering the scale L are realized through the certified bound
    2 + sqrt(8 + I_sup), which dominates |x_n| on the spectrum.
    """
    if I_sup < -8.0:
        raise DomainError("I_sup < -8 puts the square root off the real axis")
    ra, rb = (rho_of(letter, nonzero=True) for letter in alphabet)
    trace_sup = default_trace_bound(I_sup)
    coupling = max(trace_sup, 4.0 / (ra * rb))
    m = max(2.0, trace_sup)
    n0, n1, n01 = (float(v) for v in seed_norms)
    L = max(4.0 * m, 4.0 * n0, 4.0 * n1, 4.0 * n01) * (4.0 + 2.0 * m)
    d = cf.density
    gamma2 = 4.0 * d * math.log2(L)
    upper = L ** (4.0 * d)
    gamma1 = math.log(1.0 + 1.0 / (4.0 * coupling ** 2)) / (16.0 * math.log(cf.growth_base))
    return GammaConstants(d, cf.growth_base, coupling, L, gamma1, gamma2, upper)


def constants_to_json(c: GammaConstants, path=None):
    record = {**asdict(c), "beta": c.beta}
    if path is not None:
        write_json(path, record)
    return record


def write_orbit_csv(sweep: OrbitSweep, cf: ContinuedFractionData, thetas, mask,
                    path) -> None:
    """One row per (theta, n), n = 1..n_max: theta and its flag are
    columns over theta, n and q_n columns over the levels."""
    # np.hypot equals abs() of each complex scalar bit for bit; np.abs of
    # the complex array differs in the last place
    x, z, inv = sweep.x[1:].T, sweep.z_mix[1:].T, sweep.invariant[1:].T
    write_csv(path, ["theta", "n", "q_n", "abs_x", "abs_z", "re_I", "im_I", "in_spectrum"],
              [np.asarray(thetas, dtype=float)[:, None], np.arange(1, sweep.n_max + 1),
               cf.q[1:sweep.n_max + 1], np.hypot(x.real, x.imag), np.hypot(z.real, z.imag),
               inv.real, inv.imag, np.asarray(mask, dtype=bool).astype(int)[:, None]])
