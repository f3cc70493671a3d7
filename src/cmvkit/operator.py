"""CMV operators: finite unitary truncations, extended (two-sided) band
application, origin splitting, a dense-truncation resolvent oracle,
spectral-basis reconstructions and quantum-walk evolution.

Band conventions.  The extended matrix has the pentadiagonal pattern

    E(2k,   2k-1) =  conj(a(2k)) r(2k-1)      E(2k,   2k)   = -conj(a(2k)) a(2k-1)
    E(2k,   2k+1) =  conj(a(2k+1)) r(2k)      E(2k,   2k+2) =  r(2k+1) r(2k)
    E(2k+1, 2k-1) =  r(2k) r(2k-1)            E(2k+1, 2k)   = -r(2k) a(2k-1)
    E(2k+1, 2k+1) = -conj(a(2k+1)) a(2k)      E(2k+1, 2k+2) = -r(2k+1) a(2k)

with a(n) the Verblunsky coefficients and r(n) = rho(n).  The one-sided
matrix is this pattern restricted to n >= 0 with the boundary value
a(-1) = -1, and a finite window is closed unitarily by placing a
unimodular coefficient at each cut (which forces rho = 0 there and
decouples the block).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coeffs import LeftHalf, RightHalf, VerblunskySequence, rho_of
from .errors import (DegenerateRhoError, DomainError, ModulusError, SingularError,
                     SizeError, SpectralPointError, SupportError, WindowError)
from .table import write_csv


def band_diagonals(alpha: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Five diagonals of the CMV pattern for rows r0 <= m < r1.

    `alpha` holds the coefficients of sites r0 - 2 ... r1 + 1, as
    `_band_alpha` reads them.  Returns the (5, r1 - r0) band whose row
    2 + k holds diagonal k, k in {-2, -1, 0, 1, 2}: entry [2 + k, m - r0]
    is E(m, m + k).  Each entry is formed in place there.
    """
    n = r1 - r0
    a = np.asarray(alpha, dtype=complex)
    r = rho_of(a)
    band = np.empty((5, n), dtype=complex)
    diag = {k: band[2 + k] for k in range(-2, 3)}

    def A(off):  # a(m + off) aligned with rows r0..r1
        return a[2 + off:2 + off + n]

    def R(off):
        return r[2 + off:2 + off + n]

    # each entry is formed in place by the operations of the pattern's
    # formula, in its order: (-conj(a)) a, conj(a) r, (-r) a and r r.  The
    # first factor is formed in row 0, which diagonal -2 fills last, and
    # every product is written apart from its factors: numpy may round a
    # product that overwrites a factor differently
    first, ev, od = band[0], slice(r0 % 2, n, 2), slice(1 - r0 % 2, n, 2)
    np.negative(np.conjugate(A(0), out=first), out=first)
    np.multiply(first, A(-1), out=diag[0])
    for k, c, s in ((1, 1, 0), (-1, 0, -1)):  # even rows m: conj(a(m + c)) r(m + s)
        np.multiply(np.conjugate(A(c)[ev], out=first[ev]), R(s)[ev], out=diag[k][ev])
    for k, s, c in ((1, 0, -1), (-1, -1, -2)):  # odd rows m: (-r(m + s)) a(m + c)
        np.multiply(np.negative(R(s)[od], out=first[od]), A(c)[od], out=diag[k][od])
    np.multiply(R(1)[ev], R(0)[ev], out=diag[2][ev])
    np.multiply(R(-1)[od], R(-2)[od], out=diag[-2][od])
    diag[2][od] = diag[-2][ev] = 0.0
    return band


def _band_alpha(seq: VerblunskySequence, r0: int, r1: int) -> np.ndarray:
    """Coefficients of sites r0 - 2 ... r1 + 1 for `band_diagonals`.

    Sites n < 0 of a one-sided sequence read as zero: `build_finite_cmv`
    overwrites site -1 and never reads site -2.
    """
    c = min(max(r0 - 2, 0), r1 + 2) if seq.support == "half" else r0 - 2
    return np.concatenate([np.zeros(c - r0 + 2, dtype=complex), seq.alpha_array(c, r1 + 2)])


def _shifted(x: np.ndarray, k: int) -> np.ndarray:
    """out[m] = x[m + k], zero past either end."""
    n = len(x)
    out = np.zeros((n,) + x.shape[1:], dtype=complex)
    out[max(0, -k):n - max(0, k)] = x[max(0, k):n + min(0, k)]
    return out


@dataclass(frozen=True)
class CMVBlock:
    """Rows and columns [lo, hi] of a CMV band matrix, held as the (5, n)
    `band` of `band_diagonals`: row 2 + k holds diagonal k, entry
    [2 + k, m - lo] is B(m, m + k).

    The one edge rule: an entry B(m, m + k) whose column m + k falls
    outside the block belongs to no row of B, and the block zeroes it in
    place when it is made.  Every reader then takes each diagonal whole.
    """

    lo: int
    hi: int
    band: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.hi + 1 - self.lo
        if self.band.shape != (5, n):
            raise ValueError(f"a block of {n} rows needs a (5, {n}) band")
        for off, arr in zip(range(-2, 3), self.band):
            arr[:max(0, -off)] = 0.0
            arr[n - max(0, off):] = 0.0

    def dense(self) -> np.ndarray:
        n = self.hi + 1 - self.lo
        out = np.zeros((n, n), dtype=complex)
        rows = np.arange(n)
        for off, arr in zip(range(-2, 3), self.band):
            i = rows[max(0, -off):n - max(0, off)]
            out[i, i + off] = arr[i]
        return out

    def adjoint(self) -> "CMVBlock":
        """The block's adjoint, B*(m, m + k) = conj(B(m + k, m)).  The
        entries that np.roll wraps round are the block's zeros past its
        edges.  The diagonals -2 and 2 hold real products rho rho, and
        their entries are taken as they are: conj would sign the zero
        imaginary parts."""
        band = np.empty_like(self.band)
        for off, arr in zip(range(-2, 3), self.band):
            band[2 - off] = np.roll(arr if abs(off) == 2 else np.conj(arr), off)
        return CMVBlock(self.lo, self.hi, band)

    def solve(self, z, rhs: np.ndarray, rows=None) -> np.ndarray:
        """(B - z)^{-1} rhs by elimination without pivoting.

        rhs is a vector or has one column per right-hand side; z is a
        scalar or an array, whose shape leads the result's.  With `rows`,
        only those rows of the solution are returned.

        Each z solves a rescaled system A y = g whose Hermitian part is
        at least |1 - |z|| times the identity, so elimination without
        pivoting is defined and stable in any order (Golub & Van Loan,
        "Unsymmetric positive definite linear systems", Linear Algebra
        Appl. 28, 1979; Higham, Accuracy and Stability of Numerical
        Algorithms, 2002, sec. 10.4):
          |z| < 1:  B - z = B (I - z B*),  A = I - z B*,  g = B* rhs;
          |z| >= 1: B - z = -z (I - B/z),  A = I - B/z,   g = -rhs / z.
        The first holds only for a unitary B: when some |z| < 1 and
        max |B*B - I| over the band exceeds 1e-12, `DomainError` is
        raised.  The second holds for any contraction.

        The sweep eliminates from the bottom row up and builds each row of
        A and g from the diagonals as it reaches it, so it holds two rows
        still to be eliminated, not the band; it factors A = U L, U unit
        upper and L lower triangular.  Forward substitution on L from row
        0 keeps only rows 0 ... max(rows) of L.  Every z is a lane of one
        loop, every operation acts per lane, and the elimination order
        never depends on `rows`: a lane's result is its one-z solve's,
        and the rows asked for are those of the whole solution, bit for
        bit.  A returned row that is not finite raises `SingularError`.
        """
        zs = np.asarray(z, dtype=complex)
        rhs = np.asarray(rhs, dtype=complex)
        n = self.hi + 1 - self.lo
        lanes = zs.reshape(-1)
        m = lanes.size
        cols = rhs.reshape(n, -1)
        k = cols.shape[1]
        inner = np.abs(lanes) < 1.0
        # own[m, 2 + d] = B(m, m + d) and adj[m, 2 + d] = B*(m, m + d).  Row
        # i of a lane's [A - I | g] is its coef times row 2 + i of its kind's
        # table, [B* | B* rhs] or [B | rhs]; rows 0 and 1 are zero and stand
        # for rows -2 and -1
        own = self.band.T
        kinds = []
        if inner.any():
            adj = self.adjoint().band.T
            # (B*B)(m, m + p) = sum_d B*(m, m + d) B(m + d, m + p), at [m, 4 + p]
            gram = np.zeros((n, 9), dtype=complex)
            for d in range(-2, 3):
                gram[:, 2 + d:7 + d] += adj[:, 2 + d, None] * _shifted(own, d)
            gram[:, 4] -= 1.0
            if np.abs(gram).max() > 1e-12:
                raise DomainError("a solve at |z| < 1 needs a unitary block")
            kinds.append((adj, sum(adj[:, 2 + d, None] * _shifted(cols, d)
                                   for d in range(-2, 3))))
        if not inner.all():
            kinds.append((own, cols))
        table = np.zeros((n + 2, len(kinds), 5 + k), dtype=complex)
        for i, (band, g) in enumerate(kinds):
            table[2:, i, :5], table[2:, i, 5:] = band, g
        # lanes of both kinds pick theirs; lanes of one kind share its rows
        pick = np.where(inner, 0, 1) if len(kinds) == 2 else 0
        coef = np.empty((m, 5 + k), dtype=complex)
        coef[inner] = 1.0
        coef[inner, :5] = -lanes[inner, None]
        coef[~inner] = -1.0 / lanes[~inner, None]
        # win[l, r] holds row j - r of lane l's [A | g] while the sweep
        # eliminates column j: the matrix entries of columns j - 4 ... j,
        # then g.  It starts at j = n + 1 on two rows of the identity.
        win = np.zeros((m, 3, 5 + k), dtype=complex)
        win[:, 0, 4] = win[:, 1, 3] = 1.0
        fresh, unit = win[:, 2], win[:, 2, 2]
        pivot, pivot_row, factor_row = win[:, :1, 4:5], win[:, :1, 2:], win[:, 0, 2:]
        below, below_rows = win[:, 1:, 4:5], win[:, 1:, 2:]
        # for the next column, row r + 1 becomes row r: its matrix entries
        # one place right, its g in place
        shifts = ((win[:, :2, 1:5], win[:, 1:, :4]), (win[:, :2, 5:], win[:, 1:, 5:]))
        mult = np.empty((m, 2, 1), dtype=complex)
        update = np.empty((m, 2, 3 + k), dtype=complex)
        rows = range(n) if rows is None else list(rows)
        top = max(rows, default=-1)
        # kept[j, l] = row j of lane l's L, columns j - 2 ... j, then its g
        kept = np.empty((top + 1, m, 3 + k), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(n + 1, -1, -1):
                np.multiply(coef, table[j, pick], out=fresh)  # row j - 2
                unit += 1.0
                np.divide(below, pivot, out=mult)
                np.multiply(mult, pivot_row, out=update)
                below_rows -= update
                if j <= top:
                    kept[j] = factor_row
                for dst, src in shifts:
                    np.copyto(dst, src)
            # y[2 + j] = row j of the solution, after two zero rows
            y = np.zeros((top + 3, m, k), dtype=complex)
            for j in range(top + 1):
                r = kept[j]
                y[j + 2] = (r[:, 3:] - r[:, :1] * y[j] - r[:, 1:2] * y[j + 1]) / r[:, 2:3]
        sol = y[2:][rows].transpose(1, 0, 2)
        if not np.all(np.isfinite(sol)):
            raise SingularError("truncated system numerically singular")
        return sol.reshape(zs.shape + (len(rows),) + rhs.shape[1:])


def extended_window(seq: VerblunskySequence, lo: int, hi: int,
                    closure: Optional[complex] = 1.0) -> CMVBlock:
    """Extract rows/columns [lo, hi].  With a unimodular `closure` the cut
    coefficients a(lo-1) and a(hi) are replaced so the block is unitary;
    closure=None keeps the raw doubly-infinite entries."""
    if hi < lo + 1:
        raise SizeError("window must contain at least two sites")
    alpha = _band_alpha(seq, lo, hi + 1)
    if closure is not None:
        if abs(abs(closure) - 1.0) > 1e-12:
            raise ModulusError("closure coefficient must be unimodular")
        alpha[1] = alpha[-3] = closure  # the cut sites lo - 1 and hi
    return CMVBlock(lo, hi, band_diagonals(alpha, lo, hi + 1))


def build_finite_cmv(seq: VerblunskySequence, N: int, eta_b: complex = 1.0) -> CMVBlock:
    """N x N unitary truncation: a(0..N-2) closed with the unimodular eta_b
    at N - 1."""
    if N < 2:
        raise SizeError(f"N = {N} < 2")
    if abs(abs(eta_b) - 1.0) > 1e-12:
        raise ModulusError(f"|eta_b| = {abs(eta_b)} != 1")
    alpha = _band_alpha(seq, 0, N)
    alpha[1] = -1.0            # the boundary site -1
    alpha[-3] = complex(eta_b)  # the cut site N - 1
    return CMVBlock(0, N - 1, band_diagonals(alpha, 0, N))


@dataclass(frozen=True)
class State:
    """Finitely supported vector: values[i] sits at site offset + i."""

    offset: int
    values: np.ndarray

    @classmethod
    def delta(cls, n: int) -> "State":
        return cls(n, np.array([1.0 + 0.0j]))

    @classmethod
    def from_dict(cls, entries: dict) -> "State":
        lo, hi = min(entries), max(entries)
        vals = np.zeros(hi - lo + 1, dtype=complex)
        for n, v in entries.items():
            vals[n - lo] = v
        return cls(lo, vals)

    def __getitem__(self, n: int) -> complex:
        i = n - self.offset
        if 0 <= i < len(self.values):
            return complex(self.values[i])
        return 0.0 + 0.0j

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def trimmed(self) -> "State":
        mask = self.values != 0  # a NaN entry is kept
        if not mask.any():
            return State(self.offset, np.zeros(1, dtype=complex))
        i0, i1 = np.argmax(mask), len(mask) - np.argmax(mask[::-1])
        return State(self.offset + int(i0), self.values[i0:i1].copy())


def apply_extended(seq: VerblunskySequence, state: State) -> State:
    """Apply the extended matrix to a finitely supported vector, exactly."""
    return evolve_walk(seq, state, 1)


def apply_extended_adjoint(seq: VerblunskySequence, state: State) -> State:
    """Apply the adjoint (= inverse) of the extended matrix."""
    return _light_cone(seq, state, 1, adjoint=True)


def split_at_origin(seq: VerblunskySequence):
    """Split a two-sided sequence at the origin (boundary value a(-1) = -1).

    Returns (right, left):  right carries a(0), a(1), ... unchanged; left is
    the negative block in standard one-sided form, which works out to
    left(j) = conj(a(-2-j)) after the diagonal gauge (-1)^j.  The gauge fixes
    the first basis vector, so spectral data of the left block is preserved.
    """
    if not seq.is_two_sided:
        raise SupportError("split_at_origin needs a two-sided sequence")
    return RightHalf(seq), LeftHalf(seq)


def resolvent_oracle_block(seq: VerblunskySequence, z, half_width: int,
                           xs, ys) -> np.ndarray:
    """Entries (x, y) of the inverse of the closed truncation of (E - z).

    z is a scalar or an array, whose shape leads the result's; all of its
    points share one `CMVBlock.solve`.  The closed window is unitary, so
    each z is eliminated without pivoting as I - z B* (|z| < 1) or
    I - B/z (|z| > 1), whose Hermitian part is at least |1 - |z||
    (Golub & Van Loan, Linear Algebra Appl. 28, 1979; Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, sec. 10.4).
    """
    zs = np.asarray(z, dtype=complex)
    if np.any(zs == 0):
        raise SpectralPointError("z = 0 is excluded")
    W = int(half_width)
    xs = list(xs)
    ys = list(ys)
    limit = W // 2
    if any(abs(x) > limit for x in xs) or any(abs(y) > limit for y in ys):
        raise WindowError("requested entries outside the safe interior")
    rhs = np.zeros((2 * W + 1, len(ys)), dtype=complex)
    for j, y in enumerate(ys):
        rhs[y + W, j] = 1.0
    return extended_window(seq, -W, W, closure=1.0).solve(zs, rhs, [x + W for x in xs])


@dataclass(frozen=True)
class BasisReachReport:
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def spectral_basis_reach(seq: VerblunskySequence, n: int) -> BasisReachReport:
    """Rebuild the four neighbours of the pair (delta_{2n}, delta_{2n+1})
    from band applications, reporting sup-norm reconstruction residuals.

    Each reconstruction follows the explicit eliminations in the spectral
    basis argument; one inverse application enters through the adjoint.
    """
    if not seq.is_two_sided:
        raise SupportError("spectral basis check needs a two-sided sequence")
    al = seq.alpha_array(2 * n - 2, 2 * n + 3)
    a = dict(enumerate(al.tolist(), start=2 * n - 2))
    r = dict(enumerate(rho_of(al).tolist(), start=2 * n - 2))
    for k in (2 * n - 2, 2 * n - 1, 2 * n + 1, 2 * n + 2):
        if r[k] <= 1e-12:
            raise DegenerateRhoError(f"rho({k}) vanished")

    def E(st):
        return apply_extended(seq, st)

    def Einv(st):
        return apply_extended_adjoint(seq, st)

    def combo(*pairs):
        entries = {}
        for coeff, st in pairs:
            for i, v in enumerate(st.values):
                key = st.offset + i
                entries[key] = entries.get(key, 0.0) + coeff * v
        return State.from_dict(entries)

    def residual(st: State, target: int) -> float:
        err = dict((st.offset + i, v) for i, v in enumerate(st.values))
        err[target] = err.get(target, 0.0) - 1.0
        return max(abs(v) for v in err.values())

    res = {}

    # delta_{2n+2}: invert the combination that lands on span{2n, 2n+1}
    y = combo((r[2 * n] / r[2 * n + 1], State.delta(2 * n)),
              (-a[2 * n] / r[2 * n + 1], State.delta(2 * n + 1)))
    rec = combo((1.0, Einv(y)),
                (-a[2 * n + 1] / r[2 * n + 1], State.delta(2 * n + 1)))
    res["2n+2"] = residual(rec, 2 * n + 2)

    # delta_{2n+3}: eliminate the left terms of E d_{2n+1}, E d_{2n+2}
    lhs = combo((1.0, E(State.delta(2 * n + 1))),
                (-a[2 * n + 1].conjugate() / r[2 * n + 1],
                 E(State.delta(2 * n + 2))))
    rec = combo((r[2 * n + 1] / r[2 * n + 2], lhs),
                (-a[2 * n + 2].conjugate() / r[2 * n + 2],
                 State.delta(2 * n + 2)))
    res["2n+3"] = residual(rec, 2 * n + 3)

    # delta_{2n-1}: E d_{2n-1} lies in known span; apply the inverse
    rhs = combo((a[2 * n - 1].conjugate() / r[2 * n - 1], E(State.delta(2 * n))),
                (a[2 * n].conjugate() / r[2 * n - 1], State.delta(2 * n)),
                (r[2 * n] / r[2 * n - 1], State.delta(2 * n + 1)))
    res["2n-1"] = residual(Einv(rhs), 2 * n - 1)

    # delta_{2n-2}: eliminate the right terms of E d_{2n-1}, E d_{2n}
    yp = combo((a[2 * n - 1] / r[2 * n - 1], E(State.delta(2 * n - 1))),
               (1.0, E(State.delta(2 * n))))
    rec = combo((r[2 * n - 1] / r[2 * n - 2], yp),
                (a[2 * n - 2] / r[2 * n - 2], State.delta(2 * n - 1)))
    res["2n-2"] = residual(rec, 2 * n - 2)

    return BasisReachReport(res)


_MARGIN = 256  # steps of its cone that a walk window holds at least


def _light_cone(seq: VerblunskySequence, psi0: State, k: int,
                adjoint: bool = False) -> State:
    """k applications of the extended matrix, or of its adjoint, to psi0.

    The band and two state buffers cover a raw window that follows the
    support [A, B): the t-step cone of it, rows A - 2t - 2 ... B + 2t + 1
    with t = min(steps left, max(_MARGIN, B - A)), rebuilt from the
    support alone when a step's rows would reach the window's two outer
    rows.  Edges move at most two sites a step, so a window lasts t steps
    at least, and a window short of the last has t >= B - A: its B - A +
    4t + 4 rows cost at most 5 + 4 / _MARGIN band rows and 1 / _MARGIN of
    a build's overhead per step.  No window exceeds 5 (B - A) + 4 _MARGIN
    + 4 rows, nor psi0's k-step cone, offset - 2k - 2 ... offset + len +
    2k + 1.  A band entry depends on its site alone and no step's rows
    reach a window's edge, so every window gives the same entries.

    Each step first narrows [a, b) to the exact nonzero range of the
    current state (an entry is zero when `x[i] == 0`, so a NaN stays in)
    and then updates only the rows [a - 2, b + 2).  Every other row of the
    full band product sums +0 and products of zeros, which gives +0 under
    round-to-nearest, and the loop never makes a -0 from a +0 start: the
    result is the full product's, bit for bit.  An all-zero state ends the
    loop early and sits at the cone's start, psi0.offset - 2k - 2.

    A step forms the five terms of its rows in one multiply of
    the band by a (5, n) strided view of the state, whose row 2 + j
    holds the state shifted by j, and adds them into the zeroed output
    one diagonal at a time, in a fixed order: diagonals 0, 1, -1, 2, -2
    of E (band rows 2, 3, 1, 4, 0), and their mirror 0, -1, 1, -2, 2 for
    E* (rows 2, 1, 3, 0, 4).  The terms go to one
    buffer that doubles when the support outgrows it: a fresh array each
    step, a little wider than the last, would be mapped anew from the
    system once it passes malloc's mmap threshold.
    """
    if not seq.is_two_sided:
        raise SupportError("extended application needs a two-sided sequence")
    # x holds the state from site lo; psi0's own values until the first window
    lo, x, a, b = psi0.offset, psi0.values, 0, len(psi0.values)
    top = -1  # the last b that the window's rows allow; none before the first window
    order = (2, 1, 3, 0, 4) if adjoint else (2, 3, 1, 4, 0)
    for left in range(k, 0, -1):
        rows = slice(a, b)  # x is +0 outside these rows
        while a < b and x[a] == 0:
            a += 1
        while a < b and x[b - 1] == 0:
            b -= 1
        if a == b:
            break
        if a < 4 or b > top:  # a new window: the t-step cone of the support
            vals = x[a:b].copy()
            x = y = xs = ys = buf = terms = out = band = None
            t = min(left, max(_MARGIN, b - a))
            lo, a, b = lo + a - 2 * t - 2, 2 * t + 2, 2 * t + 2 + b - a
            block = extended_window(seq, lo, lo + b + 2 * t + 1, closure=None)
            band = (block.adjoint() if adjoint else block).band
            del block
            x = np.zeros(band.shape[1], dtype=complex)
            y = np.zeros_like(x)
            x[a:b] = vals
            rows, top, vals = slice(a, b), len(x) - 4, None
            # xs[2 + j, m - 2] = x[m + j]: the state entries that row m reads
            xs, ys = (np.ndarray((5, len(v) - 4), complex, v, 0, (v.itemsize,) * 2) for v in (x, y))
            buf = np.empty((5, 0), dtype=complex)
        a, b = a - 2, b + 2
        if buf.shape[1] < b - a:
            buf = np.empty((5, min(2 * (b - a), len(x))), dtype=complex)
        terms = np.multiply(band[:, a:b], xs[:, a - 2:b - 2], out=buf[:, :b - a])
        out = y[a:b]
        for i in order:
            out += terms[i]
        # clear the consumed state, so that y is all +0 when next written,
        # also where a shrinking support leaves rows outside the new [a, b)
        x[rows] = 0.0
        x, y, xs, ys = y, x, ys, xs
    y = xs = ys = buf = terms = out = band = None  # the trimming holds the result's buffer alone
    out = State(lo, x).trimmed()
    if out.values[0] == 0:  # the zero state
        return State(psi0.offset - 2 * k - 2, out.values)
    return out


def evolve_walk(seq: VerblunskySequence, psi0: State, k: int) -> State:
    """k-fold band application; the support grows by at most two per step,
    and the memory held follows the support, not the k-step cone."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return State(psi0.offset, psi0.values.copy())
    return _light_cone(seq, psi0, k)


def write_state_csv(state: State, path) -> None:
    v = state.values
    # np.hypot is abs() of each complex bit for bit; |v| * |v| is the IEEE
    # product, where a float's ** 2 (C pow) may be a last place off
    mod = np.hypot(v.real, v.imag)
    write_csv(path, ["n", "re", "im", "abs2"],
              [np.arange(state.offset, state.offset + len(v)), v.real, v.imag, mod * mod])


def write_bands_csv(block: CMVBlock, path) -> None:
    """Nonzero entries of the block, row by row; rows and columns count
    from block.lo."""
    vals = block.band.T
    rows, k = np.nonzero(vals)
    vals = vals[rows, k]
    write_csv(path, ["row", "col", "re", "im"], [rows, rows + k - 2, vals.real, vals.imag])
