import cmath
import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cmvkit import caratheodory as cara
from cmvkit import coeffs, operator, spectral, verify
from cmvkit.errors import (InsufficientDataError, SpectralPointError,
                           SupportError, WindowError)

GOLDEN = coeffs.GOLDEN_MEAN

FREE2 = coeffs.extend_two_sided(coeffs.make_constant(0.0),
                                coeffs.make_constant(0.0))
FIB2 = coeffs.extend_two_sided(coeffs.make_sturmian(0.5, -0.5, GOLDEN),
                               coeffs.make_constant(0.0))


def random_two_sided(seed=11, n=2048, lo=0.1, hi=0.7):
    rng = np.random.default_rng(seed)
    pos = coeffs.make_explicit(rng.uniform(lo, hi, n)
                               * np.exp(1j * rng.uniform(0, 2 * math.pi, n)))
    neg = coeffs.make_explicit(rng.uniform(lo, hi, n)
                               * np.exp(1j * rng.uniform(0, 2 * math.pi, n)))
    return coeffs.extend_two_sided(pos, neg)


RANDOM2 = random_two_sided()
FIB_WORD2 = coeffs.make_sturmian(0.5, -0.5, GOLDEN, support="full")


def _oracle_rel_err(ctx, seq, z):
    xs = list(range(-3, 4))
    G = operator.resolvent_oracle_block(seq, z, 160, xs, xs)
    floor = max(1e-9 * float(np.max(np.abs(G))), 1e-12)
    return max(abs(spectral.gz_entry(ctx, x, y) - G[i, j]) / max(abs(G[i, j]), floor)
               for i, x in enumerate(xs) for j, y in enumerate(xs))


def test_convention_resolution():
    assert spectral.resolve_m_minus_convention(RANDOM2) == "split-site"
    assert spectral.resolve_m_minus_convention(FREE2) == "split-site"
    z = 0.45 + 0.2j
    # the pinned split-site coefficient matches the oracle; the other
    # candidates miss it unless their coefficient value coincides with it
    # (on the Sturmian word origin-conj gives 0.5 too, so it ties)
    for seq, misses in ((RANDOM2, ("origin", "split-site-conj", "origin-conj")),
                        (FIB_WORD2, ("origin", "split-site-conj"))):
        assert _oracle_rel_err(spectral.build_gz_context(seq, z, 48), seq, z) < 1e-6
        for name in misses:
            ctx = spectral._build_context_with(
                seq, z, 48, spectral._convention_alpha(seq, name))
            assert _oracle_rel_err(ctx, seq, z) > 1e-3, name


def test_assembly_does_not_arbitrate_convention(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("resolvent assembly called the dense oracle")

    monkeypatch.setattr(operator, "resolvent_oracle_block", no_oracle)
    monkeypatch.setattr(spectral, "_convention_cache", {})
    spectral.build_gz_context(RANDOM2, 0.45 + 0.2j, 48)
    spectral.F_extended_batch(RANDOM2, [0.3, 0.5j])
    assert spectral._convention_cache == {}


@pytest.mark.parametrize("z", [0.45 + 0.2j, 0.9 * cmath.exp(0.7j),
                               1.1 * cmath.exp(2.1j)])
def test_gz_matches_oracle_random_model(z):
    ctx = spectral.build_gz_context(RANDOM2, z, 200)
    xs = list(range(-4, 5))
    G = operator.resolvent_oracle_block(RANDOM2, z, 300, xs, xs)
    floor = 1e-9 * float(np.max(np.abs(G)))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            g = spectral.gz_entry(ctx, x, y)
            assert abs(g - G[i, j]) / max(abs(G[i, j]), floor) < 1e-8


def test_corner_trace_identity_and_symmetry():
    for z in (0.7 * cmath.exp(0.3j), 0.45 + 0.2j, 1.15 * cmath.exp(1.9j)):
        ctx = spectral.build_gz_context(RANDOM2, z, 160)
        ct = spectral.corner_trace(ctx)
        diag = spectral.gz_entry(ctx, 0, 0) + spectral.gz_entry(ctx, 1, 1)
        assert abs(ct - diag) / abs(diag) < 1e-9
    # real coefficients and real z give a real corner trace
    rng = np.random.default_rng(3)
    real_seq = coeffs.extend_two_sided(
        coeffs.make_explicit(rng.uniform(-0.6, 0.6, 256)),
        coeffs.make_explicit(rng.uniform(-0.6, 0.6, 256)))
    ctx = spectral.build_gz_context(real_seq, 0.55, 120)
    assert abs(spectral.corner_trace(ctx).imag) < 1e-12


def test_free_case_entries():
    ctx = spectral.build_gz_context(FREE2, 0.5, 100)
    assert abs(spectral.corner_trace(ctx)) < 1e-14
    assert abs(spectral.F_extended(ctx) - 1.0) < 1e-14
    assert abs(spectral.gz_entry(ctx, 2, 0) - 1.0) < 1e-12
    assert abs(spectral.gz_entry(ctx, 0, 2)) < 1e-12
    assert abs(spectral.gz_entry(ctx, 0, 0)) < 1e-12
    assert abs(spectral.gz_entry(ctx, 1, 1)) < 1e-12
    # lower even part G(2j, 2m) = z^(j-m-1)
    assert abs(spectral.gz_entry(ctx, 6, 0) - 0.5 ** 2) < 1e-12


def test_moment_normalization_near_origin():
    ctx = spectral.build_gz_context(FIB2, 1e-5, 64)
    assert abs(spectral.F_extended(ctx) - 1.0) < 1e-4


def test_positivity_grid():
    thetas = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    for r in np.linspace(0.1, 0.9, 8):
        F = spectral.F_extended_batch(FIB2, r * np.exp(1j * thetas))
        assert np.all(F.real > 0.0)


def test_context_normalization_and_decay():
    z = 0.5 * cmath.exp(0.4j)
    ctx = spectral.build_gz_context(FIB2, z, 200)
    assert ctx.normalization_mismatch < 1e-9
    # origin values satisfy the stated normalizations exactly
    assert abs(ctx.u_plus[0] - ctx.z * (1 + ctx.F_plus)) < 1e-12
    assert abs(ctx.v_plus[0] - (-1 + ctx.F_plus)) < 1e-12
    assert abs(ctx.u_minus[0] - ctx.z * (1 + ctx.M_minus)) < 1e-12
    assert abs(ctx.v_minus[0] - (-1 + ctx.M_minus)) < 1e-12
    # u_plus decays toward +inf at rate |z| per double step
    mags = [abs(ctx.u_plus[n]) + abs(ctx.u_plus[n + 1]) for n in (20, 40, 60)]
    ratio = (mags[2] / mags[0]) ** (1.0 / 40.0)
    assert abs(ratio - math.sqrt(abs(z))) < 0.1
    # residual of the recurrence on the stored window, locally normalized;
    # the free left half has M_minus = -1, so u_minus(0) vanishes and is
    # measured against the largest value in its row instead
    for sol in (ctx.u_plus, ctx.u_minus):
        for n in range(-20, 20):
            row = 0.0
            for off in (-2, -1, 0, 1, 2):
                band = operator.band_diagonals(FIB2.alpha_array(n - 2, n + 3), n, n + 1)
                row += complex(band[2 + off][0]) * sol[n + off]
            row_max = max(abs(sol[n + off]) for off in (-2, -1, 0, 1, 2))
            scale = max(abs(sol[n]), 1e-7 * row_max, 1e-30)
            assert abs(row - z * sol[n]) / scale < 1e-9


@pytest.mark.parametrize("z", [0.6 * cmath.exp(0.9j), 1.4 * cmath.exp(2.1j)])
def test_two_site_matrix_table(z):
    # the table holds the even centres 2k, k = -20 .. 20, from the sites -41 .. 41
    alpha = RANDOM2.alpha_array(-41, 42)
    # each table has the rows t00, t01, t10, t11, one column per centre
    T, T_inv = (m.T.reshape(-1, 2, 2) for m in spectral._two_site_matrices(alpha, z))
    rho = coeffs.rho_of(alpha)
    assert len(T) == len(T_inv) == 41
    assert np.max(np.abs(T @ T_inv - np.eye(2))) < 1e-13
    # det T = rho(2k - 1)/rho(2k + 1)
    assert np.max(np.abs(np.linalg.det(T) - rho[:-2:2] / rho[2::2])) < 1e-13


def _sequential_solution(mats, k_base, direction, steps, store):
    # reference: the two-site recurrence one step at a time in scalar
    # complex arithmetic, rescaling by a power of two whenever the state
    # leaves [1e-120, 1e120]; the same (j0, pairs, exps) contract
    plus = direction == "plus"
    k0, k1 = steps[0], steps[-1]
    run = mats[1 if plus else 0][:, k0 - k_base:k1 - k_base + 1].T.tolist()
    order = slice(None, None, -1 if plus else 1)
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


def _context_runs(seq, z, store):
    # the two-site table and the two runs, as `_build_context_with` makes them
    margin = int(math.ceil(46.0 / abs(math.log(abs(z)))))
    runs = {d: spectral._two_site_steps(d, -store, store, margin) for d in ("plus", "minus")}
    k_lo = min(ks[0] for ks in runs.values())
    k_hi = max(ks[-1] for ks in runs.values())
    mats = spectral._two_site_matrices(seq.alpha_array(2 * k_lo - 1, 2 * k_hi + 2), z)
    return mats, k_lo, runs


def _chunk_length_of(mats, k_base, direction, steps):
    # the chunk length of a run, read in its running order
    run = mats[1 if direction == "plus" else 0][:, steps[0] - k_base:steps[-1] - k_base + 1]
    return spectral._chunk_length(run[:, ::-1] if direction == "plus" else run)


def _pair_errors(mats, k_base, direction, steps, store):
    """Each chunked pair's distance from the sequential one, relative to
    that pair, once both solutions are scaled by the one constant that
    matches them at the larger entry of the pair holding site 0 (as
    `_scale_to_targets` scales them); over the pairs where the reference
    is finite, which the chunked pairs must be too."""
    j0, pairs, exps = spectral._directional_solution(mats, k_base, direction, steps, store)
    r0, ref, ref_exps = _sequential_solution(mats, k_base, direction, steps, store)
    assert j0 == r0 and pairs.shape == ref.shape
    assert np.all(np.isfinite(pairs))
    new, old = (spectral._ldexp(p, e).reshape(-1, 2) for p, e in ((pairs, exps), (ref, ref_exps)))
    base = np.argmax(np.abs(old[-j0]))
    with np.errstate(invalid="ignore"):
        new = new * (old[-j0, base] / new[-j0, base])
        scale = np.max(np.abs(old), axis=1)
    # pairs in the normal float range: far from the circle the stored
    # solutions leave it within the window, by design
    kept = np.isfinite(scale) & (scale >= np.finfo(float).tiny)
    assert np.all(np.isfinite(new[kept]))
    return np.max(np.abs(new[kept] - old[kept]), axis=1) / scale[kept]


@pytest.mark.parametrize("seq", [FIB2, RANDOM2], ids=["fib", "random"])
@pytest.mark.parametrize("r", [1e-5, 0.5, 0.9, 0.998, 1.05, 3e3, 1e5])
def test_chunked_runs_match_the_sequential_loop(seq, r):
    # both runs of a default-window context, every stored pair.  Measured
    # worst: 2.6e-15 at |ln|z|| >= 0.05 and 1.8e-14 at |z| = 0.998, where
    # the rounding of the chunk carries decays slowest along the run
    z = r * cmath.exp(0.7j)
    mats, k_base, runs = _context_runs(seq, z, 200)
    bound = 5e-14 if r == 0.998 else 1e-14
    for direction, steps in runs.items():
        assert np.max(_pair_errors(mats, k_base, direction, steps, 200)) < bound


@pytest.mark.parametrize("n", [3, 4, 5, 16, 17, 101, 256, 257])
@pytest.mark.parametrize("r", [0.5, 1.05, 1e5])
def test_chunked_run_lengths(n, r):
    # runs of one step per chunk (n = 3), of whole chunks (4, 16, 256) and
    # of k L + 1 steps, whose last chunk holds one step and L - 1 identity
    # steps (5, 17, 101, 257); the three stored pairs end the run
    z = r * cmath.exp(2.1j)
    store = 0
    mats, k_base, _ = _context_runs(RANDOM2, z, 2 * n + 8)
    j0, j1 = -((store + 2) // 2), (store + 3) // 2
    for direction, steps in (("plus", range(j0, j0 + n)), ("minus", range(j1 - n, j1))):
        L = _chunk_length_of(mats, k_base, direction, steps)
        assert (n % L == 1) == (n in (5, 17, 101, 257))
        assert np.max(_pair_errors(mats, k_base, direction, steps, store)) < 1e-14


@pytest.mark.parametrize("window", [2000, 8000])
def test_chunked_runs_stay_finite_far_from_the_circle(window):
    # at |z| = 1e5 a step grows a state by up to about 2^17, so the chunk
    # length is halved below sqrt(n); at window 8000 a chunk of sqrt(n)
    # steps would grow by about 2^1070 and overflow
    z = 1e5 * cmath.exp(0.7j)
    mats, k_base, runs = _context_runs(FIB2, z, window)
    for direction, steps in runs.items():
        assert _chunk_length_of(mats, k_base, direction, steps) < math.isqrt(len(steps))
        j0, pairs, exps = spectral._directional_solution(mats, k_base, direction, steps, window)
        assert np.all(np.isfinite(pairs)) and np.all(np.abs(pairs).max(axis=1) >= 0.5)
        assert np.max(_pair_errors(mats, k_base, direction, steps, window)) < 1e-14


@pytest.mark.parametrize("z", [0.6 * cmath.exp(0.9j), 0.99 * cmath.exp(2j),
                               1.4 * cmath.exp(2.1j)])
def test_v_solutions_satisfy_transpose_equation(z):
    # v_plus and v_minus are M u / z, formed pairwise from the u runs; check
    # them against an independent band application of the transpose.  The
    # seed margin at |z| = 0.99 reaches past RANDOM2, so a longer draw is used
    seq = random_two_sided(n=8192)
    ctx = spectral.build_gz_context(seq, z, 160)
    for sol in (ctx.v_plus, ctx.v_minus):
        vec = operator.State.from_dict(
            {n: sol[n] for n in range(-30, 31)})
        # E^T v = conj(E^* conj(v))
        adj = operator.apply_extended_adjoint(
            seq, operator.State(vec.offset, np.conj(vec.values)))
        out = operator.State(adj.offset, np.conj(adj.values))
        for n in range(-25, 26):
            scale = max(abs(sol[n]), 1e-30)
            assert abs(out[n] - z * sol[n]) / scale < 1e-9


def test_guards():
    with pytest.raises(SpectralPointError):
        spectral.build_gz_context(FREE2, 0.0, 100)
    with pytest.raises(SpectralPointError):
        spectral.build_gz_context(FREE2, cmath.exp(0.3j) * 1.0001, 100)
    with pytest.raises(SupportError):
        spectral.build_gz_context(coeffs.make_constant(0.0), 0.5, 100)
    ctx = spectral.build_gz_context(FREE2, 0.5, 100)
    with pytest.raises(WindowError):
        spectral.gz_entry(ctx, 10 ** 4, 0)


def test_overflowed_entry_raises():
    # far outside the circle u_minus and v_minus grow past the float range:
    # |u_minus(1449)| = 7.6e307 relative to its origin pair and site 1450
    # overflows, while (920, 922) stays finite and matches the oracle
    z = -1.178 - 1.225j
    ctx = spectral.build_gz_context(FIB2, z, 2000)
    assert ctx.store_hi == 2000
    with pytest.raises(WindowError, match="site 1454"):
        spectral.gz_entry(ctx, 1454, 1456)
    with pytest.raises(WindowError, match="not finite"):
        spectral.gz_entry(ctx, 1456, 1454)
    G = operator.resolvent_oracle_block(FIB2, z, 1850, [920], [922])[0, 0]
    assert abs(spectral.gz_entry(ctx, 920, 922) - G) < 1e-6 * abs(G)
    assert cmath.isfinite(spectral.gz_entry(ctx, 0, 1))


@pytest.mark.parametrize("seq", [FIB2, FIB_WORD2], ids=["free-left", "word"])
@pytest.mark.parametrize("z", [1e-5, 3e3 * cmath.exp(0.7j), 1e5], ids=["1e-5", "3e3", "1e5"])
def test_gz_far_from_circle_matches_oracle_or_raises(seq, z):
    # far from the circle the directional solutions leave the float range
    # inside the default window; each entry there either raises or matches
    # the oracle, and the sites just inside that range still hold digits
    ctx = spectral.build_gz_context(seq, z)
    xs = list(range(-200, 201))
    G = operator.resolvent_oracle_block(seq, z, 400, xs, xs)
    floor = 1e-9 * float(np.max(np.abs(G)))
    deep = 0
    for a in range(len(xs)):
        for b in (a - 1, a, a + 1, a + 5):
            if not 0 <= b < len(xs):
                continue
            try:
                g = spectral.gz_entry(ctx, xs[a], xs[b])
            except WindowError:
                continue
            assert abs(g - G[a, b]) < 1e-6 * max(abs(G[a, b]), floor), (xs[a], xs[b])
            deep += abs(xs[a]) > 100
    assert deep >= 100


@pytest.mark.parametrize("seq", [FIB2, FIB_WORD2], ids=["free-left", "word"])
@pytest.mark.parametrize("r", [0.9, 0.95, 0.99, 0.998, 1.05])
def test_gz_matches_oracle_near_circle_default_window(seq, r):
    # the seed margin grows with 1/|ln|z||, so the default window holds
    # its accuracy up to the circle
    z = r * cmath.exp(0.7j)
    ctx = spectral.build_gz_context(seq, z)
    assert ctx.store_hi == 200
    assert ctx.normalization_mismatch < 1e-12
    xs = list(range(-5, 6))
    G = operator.resolvent_oracle_block(seq, z, 4000 if r > 1 else round(60 / (1 - r)),
                                        xs, xs)
    floor = max(1e-9 * float(np.max(np.abs(G))), 1e-300)
    err = max(abs(spectral.gz_entry(ctx, x, y) - G[i, j]) / max(abs(G[i, j]), floor)
              for i, x in enumerate(xs) for j, y in enumerate(xs))
    assert err < 1e-6


def test_free_profile_uniform():
    thetas = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
    prof = spectral.lambda_r_profile(FREE2, 0.9, thetas)
    assert np.max(np.abs(prof.density - 1.0 / (2 * math.pi))) < 1e-12
    assert abs(prof.total_mass - 1.0) < 1e-12


def test_fibonacci_profile_mass():
    thetas = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    prof = spectral.lambda_r_profile(FIB2, 0.99, thetas)
    assert abs(prof.total_mass - 1.0) < 1e-3
    assert prof.density.min() > -1e-12


def _per_row_density(profiles, path):
    """density.csv one row at a time through csv.writer: the reference
    for the block writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "r", "density"])
        for p in profiles:
            for theta, d in zip(p.thetas, p.density):
                writer.writerow([repr(float(theta)), repr(p.r), repr(float(d))])


def test_density_csv_matches_per_row_writer(tmp_path):
    thetas = np.linspace(0.0, 2 * math.pi, 1000, endpoint=False)
    profiles = [spectral.lambda_r_profile(random_two_sided(n=4096, lo=0.0, hi=0.1), r, thetas)
                for r in (0.9, 0.99, 0.999)]
    _per_row_density(profiles, tmp_path / "rows.csv")
    spectral.write_density_csv(profiles, tmp_path / "density.csv")
    data = (tmp_path / "density.csv").read_bytes()
    assert data == (tmp_path / "rows.csv").read_bytes()
    assert data.count(b"\r\n") == 3001


def _local_trapezoid(seq, theta, eps, r, n=2001):
    """Masses of the arcs [theta - eps, theta + eps] at radii r, by an
    n-point trapezoid on each arc; eps and r broadcast."""
    eps, r = np.broadcast_arrays(np.asarray(eps, dtype=float), np.asarray(r, dtype=float))
    grid = theta + eps[:, None] * np.linspace(-1.0, 1.0, n)
    F = spectral.F_extended_batch(seq, r[:, None] * np.exp(1j * grid))
    d = F.real / (2 * math.pi)
    return 2 * eps / (n - 1) * (d.sum(axis=1) - 0.5 * (d[:, 0] + d[:, -1]))


# the arc scales of `cmvkit holder`
HOLDER_EPS = (1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1)


@pytest.mark.parametrize("theta", [0.2485, 0.4004])
def test_arc_masses_match_fine_local_trapezoid(theta):
    # at the two certified angles of the two-sided word the 8-node masses
    # sit at most 8.8e-8 (relative) from the 2001-point trapezoid, which is
    # itself within 1.7e-8 of a 4001-point one; a whole-circle grid of
    # 1024 angles is off by +6.1 % at eps = 1e-3
    fit = spectral.holder_exponent(FIB_WORD2, theta, HOLDER_EPS)
    ref = _local_trapezoid(FIB_WORD2, theta, HOLDER_EPS, 1.0 - np.array(HOLDER_EPS))
    assert np.max(np.abs(fit.masses / ref - 1.0)) < 2e-7
    assert fit.quadrature_error < 2e-7


def _loop_fit(monkeypatch, *args):
    """holder_exponent with both halves on the Schur loop, as before the
    word table."""
    with monkeypatch.context() as m:
        m.setattr(cara, "_schur_F_words", cara.schur_F_batch)
        return spectral.holder_exponent(*args)


def test_holder_defaults_run_no_schur_loop(monkeypatch):
    # at holder's defaults on the golden word both halves read the word table
    theta = float(verify.certified_spectrum_points((0.5, -0.5), 1)[0])
    monkeypatch.setattr(cara, "_nested_disks", None)
    fit = spectral.holder_exponent(FIB_WORD2, theta, HOLDER_EPS, 1 << 15)
    assert abs(fit.beta_hat - 0.9564901852941743) < 1e-9  # the loop's value


@pytest.mark.parametrize("alphabet", [(0.5, -0.5), (0.4 + 0.2j, -0.5), (0.9, -0.9)])
def test_holder_word_masses_match_the_loop(alphabet, monkeypatch):
    # measured at two certified theta: the masses differ by at most 2.0e-14
    # (relative) on (0.5, -0.5), 4.8e-14 on (0.4 + 0.2j, -0.5) and 2.0e-13
    # on (0.9, -0.9), and beta_hat by at most 3.4e-14
    word = coeffs.make_sturmian(*alphabet, GOLDEN, support="full")
    for theta in verify.certified_spectrum_points(alphabet, 2):
        fit = spectral.holder_exponent(word, float(theta), HOLDER_EPS, 1 << 15)
        loop = _loop_fit(monkeypatch, word, float(theta), HOLDER_EPS, 1 << 15)
        assert np.max(np.abs(fit.masses / loop.masses - 1.0)) < 1e-12
        assert abs(fit.beta_hat - loop.beta_hat) < 1e-12


def test_holder_rows_failing_the_check_are_the_loop(monkeypatch):
    # every row sent back to the loop gives the loop's masses bit for bit
    monkeypatch.setattr(cara, "_WORD_RTOL", -1.0)
    fit = spectral.holder_exponent(FIB_WORD2, 0.2485, HOLDER_EPS, 1 << 15)
    loop = _loop_fit(monkeypatch, FIB_WORD2, 0.2485, HOLDER_EPS, 1 << 15)
    assert np.array_equal(fit.masses, loop.masses)
    assert fit.beta_hat == loop.beta_hat and fit.quadrature_error == loop.quadrature_error


def test_weak_convergence_probe():
    theta0, eps = 0.25, 0.5
    masses = _local_trapezoid(FIB2, theta0, eps, [0.9, 0.99, 0.999])
    assert abs(masses[2] - masses[1]) < abs(masses[1] - masses[0])
    assert abs(masses[2] - masses[1]) < 5e-3


def test_arc_mass_wrapping():
    eps = (0.1, 0.2, 0.3, 0.4)
    direct = spectral.holder_exponent(FREE2, 0.0, eps).masses[2]
    wrapped = spectral.holder_exponent(FREE2, 2 * math.pi, eps).masses[2]
    assert abs(direct - wrapped) < 1e-12
    assert abs(direct - 0.6 / (2 * math.pi)) < 1e-12


def test_free_arc_bound():
    # the proof-style bound: arc mass <= 2 eps (Re F((1-eps) z) + 1)
    for theta0 in (0.0, 1.2, 3.9):
        fit = spectral.holder_exponent(FREE2, theta0, (1e-3, 1e-2, 1e-1, 3e-1))
        for eps, mass in zip(fit.eps, fit.masses):
            F = spectral.F_extended_batch(
                FREE2, np.array([(1 - eps) * cmath.exp(1j * theta0)]))[0]
            assert mass <= 2 * eps * (F.real + 1.0)


def test_free_holder_exponent():
    eps = np.geomspace(1e-3, 1e-1, 6)
    fit = spectral.holder_exponent(FREE2, 2.0, eps)
    assert abs(fit.beta_hat - 1.0) < 0.02
    assert abs(fit.envelope_beta - 1.0) < 0.02
    with pytest.raises(InsufficientDataError):
        spectral.holder_exponent(FREE2, 2.0, eps[:2])


# A fit in a fresh interpreter: counting distinct eps must not import
# numpy.ma, which np.unique does under numpy 2.
_HOLDER_FRESH = """
import sys
import numpy as np
from cmvkit import coeffs, spectral
free = coeffs.extend_two_sided(coeffs.make_constant(0.0), coeffs.make_constant(0.0))
spectral.holder_exponent(free, 2.0, np.geomspace(1e-2, 1e-1, 4))
assert "numpy.ma" not in sys.modules
"""


def test_holder_exponent_leaves_numpy_ma_unloaded():
    src = Path(spectral.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", _HOLDER_FRESH], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_corner_vs_mobius_diagnostic():
    # |G00 + G11| is controlled by the boundary Möbius supremum of F_plus;
    # the constant is reported rather than asserted, but it must be finite
    # and stable across the sampled radii
    right, _ = operator.split_at_origin(FIB2)
    worst = 0.0
    for r in (0.9, 0.95, 0.99):
        for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            z = r * cmath.exp(1j * theta)
            ctx = spectral.build_gz_context(FIB2, z, 64)
            ratio = abs(spectral.corner_trace(ctx)) / cara.mobius_sup(ctx.F_plus)
            worst = max(worst, ratio)
    assert math.isfinite(worst)
    print(f"fitted corner/mobius constant C4 = {worst:.4f}")
