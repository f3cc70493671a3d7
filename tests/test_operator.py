import cmath
import math
import tracemalloc

import numpy as np
import pytest

from cmvkit import coeffs, operator
from cmvkit.errors import (DomainError, ModulusError, SingularError, SizeError,
                           SpectralPointError, SupportError, WindowError)

GOLDEN = coeffs.GOLDEN_MEAN


def random_half(rng, n, rad=0.8):
    mods = rng.uniform(0.0, rad, n)
    phases = rng.uniform(0.0, 2.0 * math.pi, n)
    return coeffs.make_explicit(mods * np.exp(1j * phases))


def random_two_sided(rng, n=256, rad=0.8):
    return coeffs.extend_two_sided(random_half(rng, n, rad),
                                   random_half(rng, n, rad))


FREE2 = coeffs.extend_two_sided(coeffs.make_constant(0.0),
                                coeffs.make_constant(0.0))


def test_free_finite_cmv_first_column():
    C = operator.build_finite_cmv(coeffs.make_constant(0.0), 8).dense()
    col = np.zeros(8)
    col[1] = 1.0
    assert np.allclose(C[:, 0], col)


def test_finite_cmv_unitary():
    rng = np.random.default_rng(1)
    seq = random_half(rng, 49, rad=0.9)
    C = operator.build_finite_cmv(seq, 50, cmath.exp(0.3j)).dense()
    eye = np.eye(50)
    assert np.max(np.abs(C.conj().T @ C - eye)) < 1e-12
    assert np.max(np.abs(C @ C.conj().T - eye)) < 1e-12


def test_finite_cmv_validation():
    with pytest.raises(ModulusError):
        operator.build_finite_cmv(coeffs.make_constant(0.0), 8, 1.2)
    with pytest.raises(SizeError):
        operator.build_finite_cmv(coeffs.make_constant(0.0), 1)


def test_band_pattern_matches_theta_factorization():
    # independent construction: E = L M with 2x2 rotation-like blocks
    # Theta(j) = [[conj(a_j), rho_j], [rho_j, -a_j]] placed at (j, j+1),
    # L carrying even j and M odd j
    rng = np.random.default_rng(2)
    seq = random_two_sided(rng, 32)
    lo, hi = -10, 11
    pad = 4
    n = hi - lo + 1 + 2 * pad
    Lmat = np.eye(n, dtype=complex)
    Mmat = np.eye(n, dtype=complex)
    for j in range(lo - pad, hi + pad):
        i = j - (lo - pad)
        if i + 1 >= n:
            continue
        a = seq.alpha(j)
        r = seq.rho(j)
        block = np.array([[np.conj(a), r], [r, -a]])
        target = Lmat if j % 2 == 0 else Mmat
        target[i:i + 2, i:i + 2] = block
    Efac = (Lmat @ Mmat)[pad:pad + (hi - lo + 1), pad:pad + (hi - lo + 1)]
    window = operator.extended_window(seq, lo, hi, closure=None).dense()
    assert np.max(np.abs(Efac - window)) < 1e-14


def _solve_blocks(rng, n=400):
    two = random_two_sided(rng, n)
    return (operator.build_finite_cmv(random_half(rng, n - 1, rad=0.9), n, cmath.exp(0.7j)),
            operator.extended_window(two, -n // 2, n // 2, closure=1.0),
            operator.extended_window(two, -n // 2, n // 2, closure=None))


def _solvable(block, zs, unitary):
    """Mask of the z the solve takes on `block`: every z on a unitary
    block.  The raw window (closure=None) is a contraction but not
    unitary, so the rescale by B* that the solve makes for |z| < 1 is not
    exact there: each such z raises DomainError, and only |z| > 1 stays."""
    if unitary:
        return np.ones(zs.shape, dtype=bool)
    n = block.hi + 1 - block.lo
    for z in zs[np.abs(zs) < 1.0]:
        with pytest.raises(DomainError):
            block.solve(z, np.eye(n)[:, 0])
    return np.abs(zs) > 1.0


def test_solve_matches_dense_solve():
    # a 4 x 3 batch of z, on and off the circle's both sides, with three
    # right-hand sides; the largest deviation from the dense LAPACK solve
    # measured 8.8e-14 of the solution's scale
    rng = np.random.default_rng(8)
    angles = rng.uniform(0.0, 2.0 * math.pi, 3)
    zs = np.array([[r * cmath.exp(1j * t) for t in angles] for r in (0.5, 0.999, 1.001, 2.0)])
    for block, unitary in zip(_solve_blocks(rng), (True, True, False)):
        n = block.hi + 1 - block.lo
        rhs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        lanes = zs[_solvable(block, zs, unitary).all(axis=1)]
        sol = block.solve(lanes, rhs)
        assert sol.shape == lanes.shape + rhs.shape
        for i in np.ndindex(lanes.shape):
            ref = np.linalg.solve(block.dense() - lanes[i] * np.eye(n), rhs)
            assert np.max(np.abs(sol[i] - ref)) < 5e-13 * np.max(np.abs(ref))


def test_solve_batch_equals_single_z_bitwise():
    rng = np.random.default_rng(9)
    zs = rng.uniform(0.3, 2.0, 7) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 7))
    for block, unitary in zip(_solve_blocks(rng, 120), (True, True, False)):
        n = block.hi + 1 - block.lo
        rhs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        lanes = zs[_solvable(block, zs, unitary)]
        batch = block.solve(lanes, rhs)
        for z, sol in zip(lanes, batch):
            assert np.array_equal(block.solve(z, rhs), sol)
        assert np.array_equal(block.solve(lanes[:3], rhs[:, 0]), batch[:3, :, 0])
        # rows that stop the forward substitution early, and right-hand
        # sides with leading zero rows, change no bit
        rhs[:n // 2] = 0.0
        rows = [n // 2 + 3, n // 3, n - 1]
        assert np.array_equal(block.solve(lanes, rhs, rows), block.solve(lanes, rhs)[:, rows])


def test_solve_rescale_is_safe_at_the_diagonal_block_eigenvalues():
    # the Fibonacci truncation's 2 x 2 diagonal blocks have the eigenvalues
    # +-0.5 and (1 +- i sqrt 3)/4, where B - z can lose its pivots: the
    # same bottom-up sweep run on B - z itself meets a zero pivot at
    # z = -0.5 and returns NaN.  The rescaled A keeps its margin 1 - |z|.
    C = operator.build_finite_cmv(coeffs.make_sturmian(0.5, -0.5, GOLDEN), 400)
    zs = np.array([0.5, -0.5, (1 + 1j * math.sqrt(3)) / 4, (1 - 1j * math.sqrt(3)) / 4])
    rng = np.random.default_rng(17)
    rhs = rng.normal(size=(400, 3)) + 1j * rng.normal(size=(400, 3))
    sol = C.solve(zs, rhs)
    for z, x in zip(zs, sol):
        ref = np.linalg.solve(C.dense() - z * np.eye(400), rhs)
        assert np.max(np.abs(x - ref)) < 5e-13 * np.max(np.abs(ref))


def test_solve_swaps_rows_at_a_zero_leading_pivot():
    # (C - z)(0, 0) = conj(a(0)) - z vanishes at z = conj(a(0)); no swap
    # is needed, since the solve eliminates I - z C*, whose Hermitian part
    # is at least 1 - |z| > 0 in every Schur complement
    rng = np.random.default_rng(10)
    seq = random_half(rng, 39, rad=0.9)
    C = operator.build_finite_cmv(seq, 40)
    z = np.conj(seq.alpha(0))
    A = C.dense() - z * np.eye(40)
    assert A[0, 0] == 0.0
    rhs = np.eye(40)[:, :3]
    sol = C.solve(z, rhs)
    assert np.max(np.abs(A @ sol - rhs)) < 1e-13 * np.max(np.abs(sol))


def test_solve_singular_raises():
    # the free truncation is a signed permutation matrix with eigenvalue 1,
    # where I - C/z loses its margin 1 - 1/|z| and no pivot order could
    # help; its elimination is exact, and a RuntimeWarning would fail this
    # test
    C = operator.build_finite_cmv(coeffs.make_constant(0.0), 8)
    with pytest.raises(SingularError):
        C.solve(1.0, np.eye(8)[:, 0])
    with pytest.raises(SingularError):
        C.solve([0.5, 1.0], np.eye(8)[:, 0])


def test_blocks_zero_their_out_of_block_entries(tmp_path):
    # B(m, m + k) is exactly 0 wherever the column m + k leaves the block,
    # on closed windows, on a truncation closed with a random unimodular
    # eta_b, and on raw windows, whose band runs on past both cuts; so the
    # adjoint's np.roll brings only zeros round, and the band writer lists
    # only columns in [0, n)
    rng = np.random.default_rng(14)
    two = random_two_sided(rng, 64)
    eta = cmath.exp(2j * math.pi * rng.uniform())
    blocks = [operator.extended_window(two, lo, hi, closure=closure)
              for lo, hi in ((-9, 10), (-8, 11), (-7, 9)) for closure in (1.0, None)]
    blocks.append(operator.build_finite_cmv(random_half(rng, 40, rad=0.9), 41, eta))
    for block in blocks:
        n = block.hi + 1 - block.lo
        for b in (block, block.adjoint()):
            for off in range(-2, 3):
                cols = np.arange(n) + off
                assert np.all(b.band[2 + off][(cols < 0) | (cols >= n)] == 0.0)
        assert np.array_equal(block.adjoint().dense(), block.dense().conj().T)
        operator.write_bands_csv(block, tmp_path / "bands.csv")
        cols = np.loadtxt(tmp_path / "bands.csv", delimiter=",", skiprows=1, usecols=1)
        assert cols.min() >= 0 and cols.max() < n
    # the raw window's band does run past the cut
    raw = operator.band_diagonals(two.alpha_array(-11, 12), -9, 11)
    assert raw[2 - 1][0] != 0.0 and raw[2 + 1][-1] != 0.0


def test_extended_window_interior_matches_raw():
    rng = np.random.default_rng(3)
    seq = random_two_sided(rng, 64)
    closed = operator.extended_window(seq, -12, 12, closure=1.0).dense()
    raw = operator.extended_window(seq, -12, 12, closure=None).dense()
    assert np.max(np.abs(closed[3:-3, 3:-3] - raw[3:-3, 3:-3])) == 0.0


def test_apply_extended_free_shifts():
    out = operator.apply_extended(FREE2, operator.State.delta(2))
    assert out.offset == 0 and np.allclose(out.values, [1.0])
    out = operator.apply_extended(FREE2, operator.State.delta(1))
    assert out.offset == 3 and np.allclose(out.values, [1.0])
    zero = operator.State(0, np.zeros(3, dtype=complex))
    assert operator.apply_extended(FREE2, zero).norm() == 0.0


def test_apply_extended_isometry_and_inverse():
    rng = np.random.default_rng(4)
    seq = random_two_sided(rng)
    vec = operator.State(-7, rng.normal(size=15) + 1j * rng.normal(size=15))
    out = operator.apply_extended(seq, vec)
    assert abs(out.norm() - vec.norm()) < 1e-12 * vec.norm()
    back = operator.apply_extended_adjoint(seq, out)
    assert abs((back[-3]) - vec[-3]) < 1e-12
    diff = max(abs(back[n] - vec[n]) for n in range(-12, 12))
    assert diff < 1e-12


def test_apply_extended_and_adjoint_match_dense_window():
    rng = np.random.default_rng(10)
    for _ in range(20):
        seq = random_two_sided(rng, 64)
        offset = int(rng.integers(-20, 10))
        width = int(rng.integers(1, 12))
        vec = operator.State(offset, rng.normal(size=width) + 1j * rng.normal(size=width))
        lo, hi = offset - 6, offset + width + 5
        window = operator.extended_window(seq, lo, hi, closure=None).dense()
        x = np.array([vec[n] for n in range(lo, hi + 1)])
        sites = range(lo + 2, hi - 1)  # rows whose band lies inside the window
        for apply, matrix in ((operator.apply_extended, window),
                              (operator.apply_extended_adjoint, window.conj().T)):
            out = apply(seq, vec)
            ref = matrix @ x
            assert max(abs(out[n] - ref[n - lo]) for n in sites) < 1e-14
            # the result lies inside the rows checked
            assert out.offset >= lo + 2 and out.offset + len(out.values) <= hi - 1


def test_apply_requires_two_sided():
    # the walk and both one-step views read the left half, which a
    # one-sided sequence does not have
    half = coeffs.make_constant(0.3)
    with pytest.raises(SupportError):
        operator.apply_extended(half, operator.State.delta(0))
    with pytest.raises(SupportError):
        operator.apply_extended_adjoint(half, operator.State.delta(0))
    with pytest.raises(SupportError):
        operator.evolve_walk(half, operator.State.delta(0), 3)


def test_split_at_origin_values_and_decoupling():
    rng = np.random.default_rng(5)
    seq = random_two_sided(rng, 32)
    right, left = operator.split_at_origin(seq)
    assert right.alpha(3) == seq.alpha(3)
    assert left.alpha(0) == np.conj(seq.alpha(-2))
    assert left.alpha(4) == np.conj(seq.alpha(-6))
    with pytest.raises(SupportError):
        operator.split_at_origin(right)
    # the modified operator decouples exactly at the origin
    alpha = seq.alpha_array(-12, 13)
    alpha[11] = -1.0  # site -1
    band = operator.band_diagonals(alpha, -10, 11)
    dense = operator.CMVBlock(-10, 10, band).dense()
    assert np.max(np.abs(dense[:10, 10:])) == 0.0
    assert np.max(np.abs(dense[10:, :10])) == 0.0
    # and the left block is the standard matrix of the reflected
    # coefficients after the alternating-sign gauge
    block = dense[:10, :10][::-1, ::-1]
    gauge = np.diag([(-1.0) ** j for j in range(10)])
    left_matrix = operator.build_finite_cmv(left, 10, 1.0).dense()
    assert np.max(np.abs((gauge @ block @ gauge - left_matrix)[:8, :8])) < 1e-14


def test_resolvent_oracle_guards():
    with pytest.raises(SpectralPointError):
        operator.resolvent_oracle_block(FREE2, 0.0, 50, [0], [0])[0, 0]
    with pytest.raises(WindowError):
        operator.resolvent_oracle_block(FREE2, 0.5, 50, [40], [0])[0, 0]


def test_resolvent_oracle_residual():
    rng = np.random.default_rng(6)
    seq = random_two_sided(rng)
    z = 0.6 * cmath.exp(0.4j)
    W = 80
    ys = list(range(-4, 5))
    # independent dense solve for the same closed truncation
    window = operator.extended_window(seq, -W, W, closure=1.0).dense()
    A = window - z * np.eye(2 * W + 1)
    rhs = np.zeros((2 * W + 1, len(ys)), dtype=complex)
    for j, y in enumerate(ys):
        rhs[y + W, j] = 1.0
    Gfull = np.linalg.solve(A, rhs)
    resid = A @ Gfull - rhs
    assert np.max(np.abs(resid)) < 1e-10
    # the banded oracle agrees with the dense solve on the safe interior
    xs = list(range(-10, 11))
    G = operator.resolvent_oracle_block(seq, z, W, xs, ys)
    assert np.max(np.abs(G - Gfull[[x + W for x in xs], :])) < 1e-11


def test_resolvent_oracle_doubling_stability():
    rng = np.random.default_rng(7)
    seq = random_two_sided(rng, 1024)
    for z in (0.9 * cmath.exp(0.8j), 1.1 * cmath.exp(2.0j)):
        a = operator.resolvent_oracle_block(seq, z, 400, [2], [-1])[0, 0]
        b = operator.resolvent_oracle_block(seq, z, 800, [2], [-1])[0, 0]
        assert abs(a - b) < 1e-8


def test_spectral_basis_free_reduction():
    # with alpha = 0 the first combination collapses to a single delta
    out = operator.apply_extended(FREE2, operator.State.delta(4))
    assert out.offset == 2 and np.allclose(out.values, [1.0])
    report = operator.spectral_basis_reach(FREE2, 1)
    assert report.max_residual < 1e-15


def test_spectral_basis_random_and_near_unit():
    rng = np.random.default_rng(8)
    for n in (-2, 0, 3):
        seq = random_two_sided(rng, 64, rad=0.9)
        assert operator.spectral_basis_reach(seq, n).max_residual < 1e-10
    # conditioning probe: one coefficient nearly unimodular
    vals = [0.3] * 16
    vals[2 * 0 + 1] = 0.999999  # rho small but nonzero at 2n+1, n = 0
    seq = coeffs.extend_two_sided(coeffs.make_explicit(vals),
                                  coeffs.make_constant(0.0))
    assert operator.spectral_basis_reach(seq, 0).max_residual < 1e-8


def test_evolve_walk_basics():
    psi = operator.State.delta(1)
    same = operator.evolve_walk(FREE2, psi, 0)
    assert same.offset == 1 and np.allclose(same.values, [1.0])
    step = operator.evolve_walk(FREE2, psi, 1)
    assert step.offset == 3 and np.allclose(step.values, [1.0])
    rng = np.random.default_rng(9)
    seq = random_two_sided(rng, 2100)
    out = operator.evolve_walk(seq, operator.State.delta(0), 1000)
    assert abs(out.norm() - 1.0) < 1e-12


def _apply_full_window(band, offs, x):
    # reference band product: every row of the window, rows and x sharing
    # one index range; columns m + off gather from x, diagonals summed in
    # the order of offs
    n = len(x)
    y = np.zeros(n, dtype=complex)
    for off in offs:
        arr = band[2 + off]
        if off >= 0:
            y[:n - off] += arr[:n - off] * x[off:]
        else:
            y[-off:] += arr[-off:] * x[:off]
    return y


def _full_window_walk(seq, psi0, k, adjoint=False):
    # reference: every step applies the band, or its adjoint, to the whole
    # window of psi0's k-step cone and one more row on each side
    lo = psi0.offset - 2 * k - 2
    hi = psi0.offset + len(psi0.values) + 2 * k + 2
    if adjoint:
        band = operator.extended_window(seq, lo, hi - 1, closure=None).adjoint().band
        offs = (0, -1, 1, -2, 2)
    else:
        band = operator.band_diagonals(seq.alpha_array(lo - 2, hi + 2), lo, hi)
        offs = (0, 1, -1, 2, -2)
    x = np.zeros(hi - lo, dtype=complex)
    x[psi0.offset - lo:psi0.offset - lo + len(psi0.values)] = psi0.values
    for _ in range(k):
        x = _apply_full_window(band, offs, x)
    return operator.State(lo, x).trimmed()


def _same_bits(got, want):
    # np.array_equal cannot tell -0.0 from +0.0
    return (got.offset == want.offset
            and np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64)))


def _count_windows(monkeypatch):
    # [windows built, rows built] by the walk's calls of extended_window
    built = [0, 0]
    window = operator.extended_window

    def counted(seq, lo, hi, closure=1.0):
        built[0] += 1
        built[1] += hi + 1 - lo
        return window(seq, lo, hi, closure)
    monkeypatch.setattr(operator, "extended_window", counted)
    return built


def test_evolve_walk_light_cone_matches_full_window(monkeypatch):
    # reference: every step applies the band to the whole 4k-wide window.
    # The loop follows the state's exact nonzero range, which differs from
    # the cone for a seed with interior and edge zeros, the zero state, a
    # moving delta (free left half), a random model whose cone edges
    # underflow to exact zeros, and the `gate` model: there every image of
    # the subnormal at site 1 underflows (each band entry of its column is
    # below 1/2 in real and imaginary part), so the support jumps past
    # it and the loop must clear it from the buffer it reuses.  The loop's
    # window follows the support, and is rebuilt many times over for a
    # delta moving right (free right half), for the word's delta and for
    # a seed wider than the window's least margin; the lone subnormal and
    # the empty state are the zero state from the first step on, which
    # sits at the cone's start.  Bit patterns are compared.
    k = 3000
    rng = np.random.default_rng(12)
    word = coeffs.make_sturmian(0.5, -0.5, GOLDEN, support="full")
    free_left = coeffs.extend_two_sided(coeffs.make_sturmian(0.5, -0.5, GOLDEN),
                                        coeffs.make_constant(0.0))
    free_right = coeffs.extend_two_sided(coeffs.make_constant(0.0),
                                         coeffs.make_sturmian(0.5, -0.5, GOLDEN))
    random = random_two_sided(rng, 2 * k + 2, rad=0.9)
    gate = coeffs.extend_two_sided(coeffs.make_explicit([0.0, 0.45 + 0.45j, 0.55 + 0.55j]),
                                   coeffs.make_constant(0.0))
    subnormal = np.zeros(9, dtype=complex)
    subnormal[[0, 8]] = 5e-324, 1.0
    wide = rng.normal(size=600) + 1j * rng.normal(size=600)
    wide[[0, 1, 300, 599]] = 0.0
    delta = operator.State.delta(0)
    cases = [(word, delta), (word, operator.State(-1, np.array([0.6, 0.0, 0.8j]))),
             (word, operator.State(-3, np.array([0, 0.6, 0, 0.8j, 0]))),
             (word, operator.State(2, np.zeros(3, dtype=complex))),
             (free_left, delta), (random, delta), (gate, operator.State(1, subnormal)),
             (free_right, operator.State.delta(1)), (word, operator.State(-300, wide)),
             (gate, operator.State(1, subnormal[:1])),
             (word, operator.State(5, np.zeros(0, dtype=complex)))]
    widths, windows = [], []
    built = _count_windows(monkeypatch)
    for seq, psi0 in cases:
        full = _full_window_walk(seq, psi0, k)
        built[:] = [0, 0]
        assert _same_bits(operator.evolve_walk(seq, psi0, k), full)
        widths.append(len(full.values))
        windows.append(built[0])
    # the zero state, the moving delta and the lost subnormal end one site
    # wide; the random model leaves thousands of exact-zero cone rows
    assert widths[3] == widths[4] == widths[6] == 1
    assert widths[5] < 4 * k + 1 - 2000
    # the right-moving delta keeps one site and crosses a window per
    # 256 steps; the word's walks outgrow their first windows; the zero
    # states build no window, and the lone subnormal one
    assert widths[7] == 1 and windows[7] == 12
    assert windows[0] > 1 and windows[8] > 1
    assert widths[9] == widths[10] == 1
    assert windows[3] == windows[10] == 0 and windows[9] == 1
    # one step of the adjoint: seeds with and without zeros, a wide seed
    # and the zero states
    for seq, psi0 in cases[:4] + cases[8:]:
        assert _same_bits(operator.apply_extended_adjoint(seq, psi0),
                          _full_window_walk(seq, psi0, 1, adjoint=True))
        assert _same_bits(operator.apply_extended(seq, psi0), _full_window_walk(seq, psi0, 1))


def test_walk_holds_one_band(monkeypatch):
    # memory follows the support, not the step count.  A delta moving on
    # the Fibonacci word with a free left half (the benchmark's walk)
    # holds one window of 1029 rows, its cone of 256 steps, at a time: it
    # peaked at 118 KB at both 10^4 and 4 10^4 steps.  The word's 2000-step
    # walk fills its cone, so its last window is the whole cone's
    # n = 4k + 5 rows: the band (5 rows of n), two state buffers (2) and
    # the terms (at most 5) peaked at 12.0 rows of n.  The bound of 13 rows
    # lies below the 14.6 rows of one whole-cone window built up front,
    # and fails when the last window's buffers are held while the next is
    # built (15.9 rows)
    free_left = coeffs.extend_two_sided(coeffs.make_sturmian(0.5, -0.5, GOLDEN),
                                        coeffs.make_constant(0.0))
    word = coeffs.make_sturmian(0.5, -0.5, GOLDEN, support="full")
    row = (4 * 2000 + 5) * np.dtype(complex).itemsize
    for seq, k, bound in ((free_left, 10 ** 4, 160_000), (free_left, 4 * 10 ** 4, 160_000),
                          (word, 2000, 13 * row)):
        tracemalloc.start()
        try:
            out = operator.evolve_walk(seq, operator.State.delta(0), k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.values) == (1 if seq is free_left else 4 * k)
        assert out.offset == -2 * k
        assert peak < bound
    # the margin rule: the delta's 10^4 steps take 39 windows of 256 steps
    # and one for the last 16
    built = _count_windows(monkeypatch)
    operator.evolve_walk(free_left, operator.State.delta(0), 10 ** 4)
    assert built == [40, 40200]
    built[:] = [0, 0]
    operator.evolve_walk(word, operator.State.delta(0), 2000)
    assert built == [3, 14157]


def test_trimmed_keeps_nan_entries():
    nan = float("nan")
    edged = operator.State(5, np.array([nan, 1.0, nan], dtype=complex)).trimmed()
    assert edged.offset == 5 and len(edged.values) == 3
    assert math.isnan(edged.norm())
    assert math.isnan(operator.State(0, np.full(4, nan, dtype=complex)).trimmed().norm())
    seed = operator.State(0, np.array([nan], dtype=complex))
    assert math.isnan(operator.evolve_walk(FREE2, seed, 10).norm())


def test_state_csv(tmp_path):
    path = tmp_path / "state.csv"
    operator.write_state_csv(operator.State.delta(-2), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,re,im,abs2"
    assert lines[1].startswith("-2,")
