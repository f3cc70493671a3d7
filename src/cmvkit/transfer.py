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
import math
from dataclasses import asdict, dataclass

import numpy as np

from .coeffs import VerblunskySequence, rho_of
from .errors import (InsufficientDataError, NormalizationError,
                     SpectralPointError)
from .table import write_csv, write_json

_RENORM_EVERY = 64
_BLOCK = 128      # sites per kernel call: escape tests, Schur stops
# `norm_squares` checks its Gram samples against a second table at the
# Alexandrov phase _CHECK_LAM, a generic one: at lam = -1 or i the two
# tables round alike.  On the level-16 masks of six alphabets, L = 64 ...
# 8192, the median ratio of the tables' discrepancy to the base samples'
# error (against the loop) is 0.7-1.0.  The discrepancy reaches 1.6e-9 on
# the mask of (0.5, -0.5), which steps no row at _GRAM_RTOL, 1.3e-8 on
# that of (0.4 + 0.2j, -0.5) (2 of 1278 rows stepped) and 1.2e-3 on that
# of (0.9, -0.9), at z = -1.
_CHECK_LAM = cmath.exp(0.7j)
_GRAM_RTOL = 1e-8


def branch_sqrt(z):
    """sqrt with the branch  |z|^(1/2) exp(i arg(z)/2),  arg in [0, 2pi),
    of a complex (a complex returns) or of an array of them.

    Every value is the one the scalar formula gives:
    math.sqrt(abs(z)) * cmath.exp(0.5j * theta), bit for bit.  np.hypot,
    np.sqrt, np.cos and np.sin round as abs, math.sqrt, math.cos and
    math.sin do; the phase is taken by cmath.phase per point, since
    np.arctan2 may differ from it in the last place.
    """
    zs = np.asarray(z, dtype=complex)
    if np.any(zs == 0):
        raise SpectralPointError("square-root branch undefined at z = 0")
    theta = np.fromiter(map(cmath.phase, zs.ravel().tolist()), float,
                        zs.size).reshape(zs.shape)
    half = 0.5 * (theta % (2.0 * math.pi))
    s = np.sqrt(np.hypot(zs.real, zs.imag))
    out = np.empty(zs.shape, dtype=complex)
    out.real, out.imag = s * np.cos(half), s * np.sin(half)
    return complex(out) if out.ndim == 0 else out


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


def _szego_steps(state: np.ndarray, z: np.ndarray, alphas: np.ndarray,
                 path=None) -> None:
    """The one per-site loop of the Szegő recurrence: steps state =
    (eta, eta*) in place through rho_j A(alpha_j, z) for alpha_j in `alphas`,
    eta <- z eta - conj(alpha_j) eta*,  eta* <- eta* - alpha_j z eta.  With
    `path`, step k's state is also stored in path[k].

    A site is three array operations: eta *= z, then state += (eta*, z eta)
    times (-conj(alpha_j), -alpha_j) through one buffer, which equals the
    differences bit for bit but for the sign of an exact zero.  z has eta's
    shape: numpy multiplies same-shape arrays about twice as fast as a (B,)
    z broadcast over more rows.  The Schur pass at lam
    (`caratheodory._nested_disks`) carries two rows per point, from
    (1, -conj(lam)) and (-1, -conj(lam)): psi and -phi of the Alexandrov
    member lam alpha, so F^lam = eta*_0 / eta*_1 = -psi*_d / phi*_d.
    """
    eta, swapped, buf = state[0], state[::-1], np.empty_like(state)
    negs = -np.stack([alphas.conj(), alphas], axis=1)  # scale eta* and eta
    for k, neg in enumerate(negs.reshape(negs.shape + (1,) * (state.ndim - 1))):
        eta *= z
        np.multiply(swapped, neg, out=buf)
        state += buf
        if path is not None:
            path[k] = state


def norm_profile_batch(seq: VerblunskySequence, zs, initials, n_max: int) -> np.ndarray:
    """Cumulative squared norms, shape (batch, n_max + 1), one row per
    pair (eta_j, eta_j^*) propagated from an initial pair; zs and initials
    broadcast elementwise over the batch.  Each block of _BLOCK sites is one
    `_szego_steps` call, whose stored steps are scaled by the running
    product of 1/rho, so the escape rule and the sums act on the true
    pairs, and a row depends neither on its batch nor on n_max.  A row
    whose pair leaves 1e150 saturates to inf from that step on, not into NaNs.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    zs = np.asarray(zs, dtype=complex)
    init = np.asarray(initials, dtype=complex)
    B = np.broadcast(zs, init[..., 0]).size
    z = np.broadcast_to(zs, (B,)).copy()
    state = np.broadcast_to(init, (B, 2)).T.copy()
    alphas = seq.alpha_array(0, n_max)
    inv_rho = 1.0 / rho_of(alphas, nonzero=True)
    out = np.empty((B, n_max + 1))
    out[:, 0] = 0.5 * (np.abs(state[0]) ** 2 + np.abs(state[1]) ** 2)
    path = np.empty((min(_BLOCK, n_max), 2, B), dtype=complex)
    # an escaped row runs on to the end of its block; its overflow is discarded
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, n_max, _BLOCK):
            m = min(_BLOCK, n_max - j0)
            _szego_steps(state, z, alphas[j0:j0 + m], path)
            scale = np.cumprod(inv_rho[j0:j0 + m])
            state *= scale[-1]
            mod = np.abs(path[:m]) * scale[:, None, None]
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


def norm_squares(seq: VerblunskySequence, zs, initials, Ls) -> np.ndarray:
    """Cumulative squared norms S_x[L] = sum_{j<=L} |P_j x|^2 / 2 at the
    lengths Ls only, shape (len(zs), len(initials), len(Ls)): every
    initial pair x at every z.

    On a golden word (`seq.golden_route()`: the Sturmian word, or the full
    word's left half) each sample is the quadratic form x* G_L x / 2 of
    G_L = sum_{j<=L} P_j* P_j, composed from substitution words in O(log L)
    steps (`_golden_grams`), so no initial pair is propagated.
    A sample that is not finite or exceeds 1e300 / 2, the loop's escape
    rule in squared form, reads inf.

    Composing words can lose far more than the step loop: the product of
    two words' matrices may cancel, and x* G x cancels when x lies near
    G's small direction (at z = 1 and (1, 1) on a real alphabet, or at
    z = -1 on the alphabet (0.9, -0.9), the samples are off by 1e-3 or
    worse).  So every sample is also read from the table of the
    Alexandrov member lam * alpha at the fixed phase `_CHECK_LAM`, whose
    products D T D^-1, D = diag(1, lam), equal the base ones exactly but
    round differently.  A (z, x) row whose two readings differ by more
    than `_GRAM_RTOL` relative, or fall below the L = 0 value |x|^2 / 2,
    is propagated by `norm_profile_batch` instead, as is every row of
    any other sequence; those rows are the loop's columns Ls bit for bit.

    The discrepancy estimates the error; it does not bound it.  Over the
    level-16 masks of five alphabets (4096 theta, the four pairs of
    `pair_growth_exponents`), a row's largest distance to the loop is at
    most 2.6e2 times its largest discrepancy: that is the measured safety
    factor, so an accepted row is estimated within 2.6e-6 relative.  The
    counterexample on record: at z = -1 (exp(i pi) in floats) on
    (0.7, -0.7) the pair (1, i) reads 3.5e-8 off the loop at L = 8192
    (4.9e-8 when it was recorded) while the tables agree within 7.2e-10,
    and the row is accepted.  Against a 40-digit propagation that sample
    is 4.5e-12 off and the loop 3.5e-8: there the loop is the less
    accurate route.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    init = np.asarray(initials, dtype=complex).reshape(-1, 2)
    Ls = [int(L) for L in Ls]
    route = seq.golden_route()
    if route is None:
        S = np.empty((len(zs), len(init), len(Ls)))
        redo = np.ones(S.shape[:2], dtype=bool)
    else:
        # the base table and the check table, in one batch
        (a, b), lead = route
        lam = np.array([[1.0], [_CHECK_LAM]])
        G = _golden_grams((lam * a, lam * b), zs, Ls, lead)
        S = _quadratic_forms(G[0], init)
        check = _quadratic_forms(G[1], init * [1.0, _CHECK_LAM])
        # S_x[L] >= S_x[0] = |x|^2 / 2; a reading below it is cancellation
        floor = (0.5 - _GRAM_RTOL) * np.sum(np.abs(init) ** 2, axis=1)[:, None]
        with np.errstate(invalid="ignore"):  # inf - inf: both escaped
            agree = (np.abs(S - check) <= _GRAM_RTOL * S) & (S >= floor)
        redo = ~(agree | (np.isinf(S) & np.isinf(check))).all(axis=2)
    if redo.any():
        iz, ix = np.nonzero(redo)
        S[iz, ix] = norm_profile_batch(seq, zs[iz], init[ix], max(Ls))[:, Ls]
    return S


def _quadratic_forms(G: np.ndarray, init: np.ndarray) -> np.ndarray:
    """x* G_L x / 2 for G of shape (Z, len(Ls), 2, 2) and each row x of
    init, shape (Z, len(init), len(Ls)); past the escape rule, inf."""
    G = G[:, None]
    x0, x1 = init[:, 0, None], init[:, 1, None]
    with np.errstate(over="ignore", invalid="ignore"):
        S = 0.5 * (x0.conj() * (G[..., 0, 0] * x0 + G[..., 0, 1] * x1)
                   + x1.conj() * (G[..., 1, 0] * x0 + G[..., 1, 1] * x1)).real
        return np.where(np.isfinite(S) & (S <= 0.5e300), S, np.inf)


def _ct(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


def _mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over stacks of 2 x 2 matrices, entry by entry: np.matmul
    pays a call per matrix, 5-9 times slower on these stacks."""
    C = np.empty(np.broadcast_shapes(A.shape, B.shape), dtype=complex)
    for i in range(2):
        for j in range(2):
            C[..., i, j] = A[..., i, 0] * B[..., 0, j] + A[..., i, 1] * B[..., 1, j]
    return C


def _word_products(first, second, quotients):
    """The one loop that composes word products: yields M_0 = `second`,
    M_1 = `first`, then M_{k+1} = M_{k-1} M_k^{a_{k+1}} for each a_{k+1} in
    `quotients`, one factor M_k at a time through `_mul`, holding the last
    two.  Products act per point: an inf or NaN stays at its own point."""
    M_prev, M_cur = second, first
    yield from (M_prev, M_cur)
    for a in quotients:
        M = M_prev
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(a):
                M = _mul(M, M_cur)
        M_prev, M_cur = M_cur, M
        yield M_cur


def _golden_words(letters, zs: np.ndarray, n: int) -> tuple:
    """Lengths q_k and Szegő products T_k of the golden standard words
    w_0 = b, w_1 = a, w_{k+1} = w_k w_{k-1} over `letters` = (a, b), for
    every k with q_k <= max(n, 1): `_word_products` with every quotient 1.
    The letters broadcast against zs; T_k has that shape + (2, 2), and
    concatenation gives T_uv = T_v T_u."""
    q = [1, 1]
    while q[-1] + q[-2] <= n:
        q.append(q[-1] + q[-2])
    Ta, Tb = szego_matrices(letters[0], zs), szego_matrices(letters[1], zs)
    return q, list(_word_products(Ta, Tb, [1] * (len(q) - 2)))


def _golden_grams(letters, zs: np.ndarray, Ls, lead: int) -> np.ndarray:
    """G_L = sum_{j<=L} P_j* P_j for each L in Ls on b^lead w, the golden
    word w over `letters` = (a, b) after `lead` sites of b, shape
    (broadcast of letters and zs) + (len(Ls), 2, 2): the empty prefix's I,
    then the words of `_golden_pieces(L, q, lead)` composed in order.  A
    word's prefix Gram G_w = sum T_p* T_p (nonempty prefixes p) follows
    G_uv = G_u + T_u* G_v T_u.  All Ls advance together; a shorter
    decomposition is padded at its front with the empty word (T = I,
    G = 0), which changes nothing there (at the back, an overflowed T
    times G = 0 would read NaN)."""
    q, T = _golden_words(letters, zs, max(Ls) - lead)
    G = [_mul(_ct(T[0]), T[0]), _mul(_ct(T[1]), T[1])]
    eye = np.broadcast_to(np.eye(2, dtype=complex), T[0].shape)
    pieces = [_golden_pieces(L, q, lead) for L in Ls]
    depth = max(len(p) for p in pieces)
    idx = np.array([[len(q)] * (depth - len(p)) + p for p in pieces]).reshape(len(Ls), depth)
    acc_T = acc_G = np.broadcast_to(eye[..., None, :, :], eye.shape[:-2] + (len(Ls), 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for Tk in T[1:-1]:
            G.append(G[-1] + _mul(_ct(Tk), _mul(G[-2], Tk)))
        Tt, Gt = np.stack(T + [eye], axis=-3), np.stack(G + [0.0 * eye], axis=-3)
        for i in range(depth):
            acc_G = acc_G + _mul(_ct(acc_T), _mul(Gt[..., idx[:, i], :, :], acc_T))
            acc_T = _mul(Tt[..., idx[:, i], :, :], acc_T)
    return acc_G


def _golden_pieces(L: int, q, lead: int) -> list:
    """Indices k of the words w_k whose concatenation spells sites
    0 ... L - 1 of b^lead w: `lead` words w_0 = b, then the greedy
    Zeckendorf decomposition of the rest over the lengths q_1, q_2, ...
    (largest first)."""
    pieces, rest = [0] * min(lead, L), L - min(lead, L)
    for k in range(len(q) - 1, 0, -1):
        if q[k] <= rest:
            pieces.append(k)
            rest -= q[k]
    return pieces


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


def _slope_range(lx, ly, gap: float = 0.0) -> tuple:
    """Least and greatest slope (ly_j - ly_i) / (lx_j - lx_i) over the
    pairs of ly's last axis with lx_j - lx_i > 0 and >= gap (either order
    gives the same bits), shape ly.shape[:-1]: gap is half the log range in
    `fit_power_law`, 0 in `spectral.holder_exponent`'s envelope and in
    `verify.certified_spectrum_points`' ranking."""
    lx, ly = np.asarray(lx, dtype=float), np.asarray(ly, dtype=float)
    dx = lx[None, :] - lx[:, None]
    i, j = np.nonzero((dx > 0) & (dx >= gap))
    s = (ly[..., j] - ly[..., i]) / dx[i, j]
    return s.min(axis=-1), s.max(axis=-1)


def fit_power_law(samples) -> FitResult:
    """Envelope exponents from (L, norm) samples at geometrically spaced L.

    gamma_high / gamma_low are the extreme pairwise slopes of log norm
    against log L over pairs separated by at least half the sampled log
    range (closer pairs measure local oscillation, not the envelope).
    The constants are pinned so the two-sided bound
    c_low * L^gamma_low <= norm <= c_high * L^gamma_high holds at every
    sample.  A nonpositive or non-finite sample raises InsufficientDataError.
    """
    pts = [(float(L), float(v)) for L, v in samples]
    if len(pts) < 8:
        raise InsufficientDataError(f"need >= 8 samples, got {len(pts)}")
    if not all(0 < L < math.inf and 0 < v < math.inf for L, v in pts):  # NaN too
        raise InsufficientDataError("samples must have positive, finite L and norm")
    pts.sort()
    # math.log, since np.log may differ in the last bit
    lx, ly = ([math.log(t) for t in col] for col in zip(*pts))
    span = lx[-1] - lx[0]
    if span <= 0:
        raise InsufficientDataError("samples need distinct L values")
    g_low, g_high = map(float, _slope_range(lx, ly, 0.5 * span))
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
    profile: np.ndarray  # squared norms of the initial pair (1, 1) at Ls

    @property
    def beta(self) -> float:
        return 2.0 * self.g_lo / (self.g_lo + self.g_hi)

    @property
    def envelope_beta(self) -> float:
        return 2.0 * self.env_lo / (self.env_lo + self.env_hi)

    def samples(self) -> list:
        """(L, norm) pairs of the (1, 1) solution at the sampled lengths."""
        return [(L, math.sqrt(s)) for L, s in zip(self.Ls, self.profile.tolist())]


def pair_growth_exponents(seq: VerblunskySequence, z: complex) -> PairGrowth:
    """Growth exponents of the solutions started from (1, +-conj(lam)),
    lam in {1, i}, sampled at L = 64, 128, ..., 8192.

    The slope range (g_lo, g_hi) feeds the transfer-growth prediction
    2 g_lo / (g_lo + g_hi) of the Hölder exponent; all four pairs read
    one `norm_squares` call.  A sampled norm that is not finite raises
    InsufficientDataError before any fit (z off the spectrum).
    """
    Ls = [2 ** k for k in range(6, 14)]
    lx = np.log(np.array(Ls, dtype=float))
    inits = [[1.0, sign * np.conj(lam)] for lam in (1.0, 1j) for sign in (1.0, -1.0)]
    samples = norm_squares(seq, [complex(z)], inits, Ls)[0]
    escaped = ~np.isfinite(samples).all(axis=0)
    if escaped.any():
        raise InsufficientDataError(f"solution norms at z = {complex(z)} leave the "
                                    f"floating-point range by L = {Ls[escaped.argmax()]}")
    slopes = []
    env_lo, env_hi = math.inf, -math.inf
    for row in samples:
        slopes.append(float(np.polyfit(lx, 0.5 * np.log(row), 1)[0]))
        fit = fit_power_law(list(zip(Ls, np.sqrt(row).tolist())))
        env_lo = min(env_lo, fit.gamma_low)
        env_hi = max(env_hi, fit.gamma_high)
    return PairGrowth(min(slopes), max(slopes), env_lo, env_hi, tuple(Ls), samples[0])


def write_norm_csv(samples, path) -> None:
    Ls, vs = np.array(list(samples), dtype=float).reshape(-1, 2).T.tolist()
    # math.log, since np.log may differ in the last bit
    write_csv(path, ["L", "norm", "log_L", "log_norm"],
              [Ls, vs, [math.log(L) for L in Ls], [math.log(v) for v in vs]])


def fit_to_json(fit: FitResult, path=None):
    record = {**asdict(fit), "beta": fit.beta}
    if path is not None:
        write_json(path, record)
    return record
