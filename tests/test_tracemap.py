import cmath
import csv
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvkit import coeffs, table, tracemap, transfer
from cmvkit.errors import DomainError, SpectralPointError

GOLDEN = coeffs.GOLDEN_MEAN
FIB = (0.5, -0.5)


def test_cf_fibonacci():
    cf = tracemap.cf_data((1,) * 20, 20)
    assert cf.q[:8] == (1, 1, 2, 3, 5, 8, 13, 21)
    assert cf.density == 1.0
    phi = (1 + math.sqrt(5)) / 2
    golden = tracemap.golden_cf(21)
    assert golden.growth_base == phi
    assert all(golden.q[n] <= phi ** n for n in range(21))


def test_cf_alternating_density():
    cf = tracemap.cf_data((1, 2) * 10, 20)
    assert abs(cf.density - 1.5) < 1e-12


def test_standard_word_prefix_structure():
    cf = tracemap.golden_cf(12)
    words = [tracemap.standard_word(cf.quotients, n) for n in range(1, 10)]
    for n in range(1, 9):
        assert len(words[n - 1]) == cf.q[n]
        # each standard word is a prefix of the next
        assert np.array_equal(words[n][:len(words[n - 1])], words[n - 1])
    # golden-mean limit equals the shifted indicator word
    w = words[-1]
    v = coeffs._sturmian_word(1, len(w) + 1, GOLDEN)
    assert np.array_equal(w, v)


def test_free_orbit_identity_point():
    orb = tracemap.trace_orbit((0.0, 0.0), tracemap.golden_cf(12), 1.0, 8)
    for rec in orb.records:
        assert abs(rec.x - 2.0) < 1e-14
        assert abs(rec.z - 2.0) < 1e-14
        assert abs(rec.invariant - 4.0) < 1e-13


def test_free_invariant_is_four_on_circle():
    cf = tracemap.golden_cf(14)
    zs = np.exp(1j * np.linspace(0.05, 6.2, 23))
    sweep = tracemap.orbit_sweep((0.0, 0.0), cf, zs, 10)
    assert np.max(np.abs(sweep.invariant[1:] - 4.0)) < 1e-12


def test_fricke_examples():
    assert tracemap.fricke_invariant(2.0, 2.0, 2.0) == 4.0
    assert tracemap.fricke_invariant(0.0, 0.0, 0.0) == 0.0


@settings(max_examples=80, deadline=None)
@given(*(st.floats(-3.0, 3.0) for _ in range(6)))
def test_fricke_duplicate_evaluation(ar, ai, br, bi, cr, ci):
    x, y, z = complex(ar, ai), complex(br, bi), complex(cr, ci)
    direct = tracemap.fricke_invariant(x, y, z)
    # independent arrangement of the same polynomial
    other = (x - y * z / 2.0) ** 2 + y ** 2 + z ** 2 - (y * z / 2.0) ** 2
    assert abs(direct - other) < 1e-10 * max(1.0, abs(direct))


def test_invariant_conservation_fibonacci():
    cf = tracemap.golden_cf(20)
    thetas = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    sweep = tracemap.orbit_sweep(FIB, cf, np.exp(1j * thetas), 15)
    for g in range(64):
        cutoff = int(sweep.first_overflow[g])
        vals = [sweep.invariant[n, g] for n in range(1, min(15, cutoff - 1) + 1)]
        if len(vals) > 1:
            ref = vals[0]
            drift = max(abs(v - ref) / (1 + abs(ref)) for v in vals)
            assert drift < 1e-8


def test_overflow_flag_truncates():
    # far off the spectrum at strong coupling the orbit must flag quickly
    orb = tracemap.trace_orbit((0.8, -0.8), tracemap.golden_cf(24), 1.0, 20)
    assert orb.overflowed
    assert orb.records[-1].n < 20
    assert all(np.isfinite(abs(r.x)) for r in orb.records)


@pytest.mark.parametrize("quotients", [(1,) * 20, (1, 2) * 8, (2,) * 16, (1, 1, 3, 1, 2) * 4],
                         ids=["golden", "1-2", "2-2", "1-1-3-1-2"])
def test_recursion_matches_direct_products(quotients):
    # the shared word recursion at every a_{n+1}, 1 or more, against the
    # direct product over w_n, for q_n <= 3000.  Both sides skip
    # quotients[0]: cf_data's q and standard_word start at a_2, so (2, 2, ...)
    # spells the words of (1, 2, 2, ...); that trap stays as it is here
    cf = tracemap.cf_data(quotients, len(quotients))
    n_max = max(n for n in range(len(cf.q)) if cf.q[n] <= 3000)
    word = tracemap.standard_word(cf.quotients, n_max)
    seq = coeffs.make_explicit(tracemap.word_alphas(FIB, word))
    z = cmath.exp(0.9j)
    Ma, Mb = tracemap._letter_matrices(FIB, np.array([z]))
    products = list(transfer._word_products(Ma, Mb, cf.quotients[1:n_max]))
    assert len(products) == n_max + 1 and len(word) == cf.q[n_max]
    for n in range(1, n_max + 1):
        qn = cf.q[n]
        direct = transfer.normalize_sl2(
            transfer.cocycle_product(seq, z, qn), z, qn)
        err = np.max(np.abs(products[n][0] - direct)) / np.max(np.abs(direct))
        assert err < 1e-10, f"level {n}"


def test_orbit_sweep_needs_a_level():
    cf = tracemap.golden_cf(12)
    with pytest.raises(ValueError, match="at least 1"):
        tracemap.orbit_sweep(FIB, cf, np.exp(1j * np.array([0.1, 0.2])), 0)
    with pytest.raises(ValueError, match="at least 1"):
        tracemap.spectrum_approx(FIB, cf, [0.1, 0.2], 0, 3.0)


def test_spectrum_masks_free_full_circle():
    cf = tracemap.golden_cf(16)
    thetas = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    K = tracemap.default_trace_bound(4.0)
    assert tracemap.spectrum_approx((0.0, 0.0), cf, thetas, 12, K).all()


def test_spectrum_masks_monotone_and_gapped():
    cf = tracemap.golden_cf(18)
    thetas = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    I_sup = tracemap.invariant_sup((0.8, -0.8), cf, thetas)
    K = tracemap.default_trace_bound(I_sup)
    deep = tracemap.spectrum_approx((0.8, -0.8), cf, thetas, 12, K)
    shallow = tracemap.spectrum_approx((0.8, -0.8), cf, thetas, 6, K)
    assert 0.0 < deep.mean() < 1.0
    assert np.all(shallow >= deep)
    # one level-12 sweep gives the invariant and the masks at every depth
    sweep = tracemap.orbit_sweep((0.8, -0.8), cf, np.exp(1j * thetas), 12)
    assert sweep.invariant_sup == I_sup
    assert np.array_equal(sweep.mask(K, 12), deep)
    assert np.array_equal(sweep.mask(K, 6), shallow)
    with pytest.raises(ValueError):
        sweep.mask(K, 13)
    wider = tracemap.spectrum_approx((0.8, -0.8), cf, thetas, 12, K + 3.0)
    assert np.all(wider >= deep)


def test_trace_bound_guard():
    with pytest.raises(DomainError):
        tracemap.default_trace_bound(-9.0)
    with pytest.raises(DomainError):
        tracemap.spectrum_approx((0.0, 0.0), tracemap.golden_cf(8),
                                 [0.1], 3, K=1.5)


def test_gamma_constants_arithmetic():
    # hand-evaluated reference: C = 2, B = golden ratio
    g1 = math.log(1 + 1 / 16) / (16 * math.log((1 + math.sqrt(5)) / 2))
    assert abs(g1 - 0.0078739521) < 1e-9
    cf = tracemap.golden_cf(12)
    gc = tracemap.gamma_constants((0.0, 0.0), cf, 4.0, (1.0, 1.0, 1.0))
    # free-case coupling: max(2 + sqrt(12), 4)
    assert abs(gc.coupling - (2 + math.sqrt(12))) < 1e-12
    assert gc.gamma2 == 4.0 * 1.0 * math.log2(gc.scale)
    assert abs(gc.upper_constant - gc.scale ** 4.0) < 1e-9 * gc.upper_constant
    assert 0.0 < gc.beta < 1.0
    assert gc.gamma1 < gc.gamma2
    with pytest.raises(DomainError):
        tracemap.gamma_constants((0.0, 0.0), cf, -9.0, (1.0, 1.0, 1.0))


def test_gamma_constants_beta_across_alphabets():
    cf = tracemap.golden_cf(14)
    thetas = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    for alphabet in ((0.3, -0.3), (0.5, -0.5), (0.2 + 0.1j, -0.4)):
        I_sup = tracemap.invariant_sup(alphabet, cf, thetas)
        sweep = tracemap.orbit_sweep(alphabet, cf, np.exp(1j * thetas), 1)
        gc = tracemap.gamma_constants(alphabet, cf, I_sup, sweep.seed_sups)
        assert 0.0 < gc.beta < 1.0 and gc.gamma1 < gc.gamma2


def test_norm_bound_on_mask():
    cf = tracemap.golden_cf(16)
    thetas = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
    I_sup = tracemap.invariant_sup(FIB, cf, thetas)
    K = tracemap.default_trace_bound(I_sup)
    mask = tracemap.spectrum_approx(FIB, cf, thetas, 10, K)
    sweep = tracemap.orbit_sweep(FIB, cf, np.exp(1j * thetas), 10)
    gc = tracemap.gamma_constants(FIB, cf, I_sup, sweep.seed_sups)
    for g in np.where(mask)[0]:
        for m in range(11):
            if np.isfinite(sweep.norms[m, g]):
                assert sweep.norms[m, g] <= gc.upper_constant * cf.q[m] ** gc.gamma2


def _matmul_sweep(alphabet, cf, zs, n_max):
    """The orbit recursion with np.matmul products, as a reference for the
    entrywise products of `orbit_sweep`."""
    G = len(zs)
    Ma, Mb = tracemap._letter_matrices(alphabet, zs)
    M_prev, M_cur = Mb.copy(), Ma.copy()
    x = np.full((n_max + 1, G), np.nan, dtype=complex)
    z_mix, inv = x.copy(), x.copy()
    norms = np.full((n_max + 1, G), np.inf)
    first_overflow = np.full(G, n_max + 1, dtype=int)
    dead = np.zeros(G, dtype=bool)
    seed_norms = np.vstack([tracemap._norms(Mb), tracemap._norms(Ma),
                            tracemap._norms(Mb @ Ma)])
    x[0] = np.trace(M_prev, axis1=1, axis2=2)
    for n in range(1, n_max + 1):
        with np.errstate(invalid="ignore", over="ignore"):
            x[n] = np.trace(M_cur, axis1=1, axis2=2)
            z_mix[n] = np.trace(M_prev @ M_cur, axis1=1, axis2=2)
            inv[n] = tracemap.fricke_invariant(x[n - 1], x[n], z_mix[n])
            norms[n] = tracemap._norms(M_cur)
            bad = (~np.isfinite(norms[n]) | (norms[n] > tracemap._BIG)
                   | (np.abs(x[n]) > tracemap._TRACE_TRUST)
                   | (np.abs(z_mix[n]) > tracemap._TRACE_TRUST))
        first_overflow[bad & ~dead] = n
        dead |= bad
        x[n][dead] = z_mix[n][dead] = np.inf
        inv[n][dead] = np.nan
        norms[n][dead] = np.inf
        M_cur[dead] = M_prev[dead] = np.eye(2)
        power = M_cur
        for _ in range(cf.quotients[n] - 1):
            power = power @ M_cur
        M_prev, M_cur = M_cur, M_prev @ power
    return tracemap.OrbitSweep(zs, n_max, x, z_mix, inv, norms, seed_norms,
                               first_overflow)


@pytest.mark.parametrize("alphabet", [(0.5, -0.5), (0.3, -0.3), (0.7, -0.7),
                                      (0.9, -0.9), (0.4 + 0.2j, -0.5)])
def test_orbit_sweep_matches_matmul_recursion(alphabet):
    cf = tracemap.golden_cf(20)
    zs = np.exp(1j * np.linspace(0.0, 2 * math.pi, 4096, endpoint=False))
    sweep = tracemap.orbit_sweep(alphabet, cf, zs, 16)
    ref = _matmul_sweep(alphabet, cf, zs, 16)
    assert np.array_equal(sweep.first_overflow, ref.first_overflow)
    assert abs(sweep.invariant_sup - ref.invariant_sup) <= 1e-14 * ref.invariant_sup
    K = tracemap.default_trace_bound(ref.invariant_sup)
    for n in range(1, 17):
        assert np.array_equal(sweep.mask(K, n), ref.mask(K, n)), f"level {n}"


def _scalar_branch_sqrt(z: complex) -> complex:
    """The branch |z|^(1/2) exp(i arg(z)/2), arg in [0, 2pi), one point at
    a time: the reference for the array `transfer.branch_sqrt`."""
    theta = cmath.phase(z) % (2.0 * math.pi)
    return math.sqrt(abs(z)) * cmath.exp(0.5j * theta)


def _same_bits(a, b) -> bool:
    # equal values and equal signs of zero, part by part
    return all(np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
               for x, y in ((a.real, b.real), (a.imag, b.imag)))


@pytest.mark.parametrize("name", ["2048", "4096", "off_circle"])
def test_branch_sqrt_array_matches_scalar_formula(name):
    if name == "off_circle":
        rng = np.random.default_rng(9)
        zs = (10.0 ** rng.uniform(-3.0, 3.0, 20000)
              * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 20000)))
        # the axes, both signs of zero, and the branch cut
        zs = np.concatenate([zs, [1.0, -1.0, 1j, -1j, complex(-1.0, -0.0),
                                  complex(1.0, -0.0), complex(-0.0, 1.0), 1e-300j]])
    else:
        zs = np.exp(1j * np.linspace(0.0, 2 * math.pi, int(name), endpoint=False))
    ref = np.array([_scalar_branch_sqrt(z) for z in zs.tolist()])
    assert _same_bits(transfer.branch_sqrt(zs), ref)
    assert _same_bits(np.array([transfer.branch_sqrt(z) for z in zs[:64].tolist()]),
                      ref[:64])
    with pytest.raises(SpectralPointError):
        transfer.branch_sqrt(np.concatenate([zs[:3], [0.0]]))


@pytest.mark.parametrize("alphabet", [(0.5, -0.5), (0.3, -0.3), (0.7, -0.7),
                                      (0.9, -0.9), (0.4 + 0.2j, -0.5)])
def test_letter_matrices_match_scalar_branch_loop(alphabet, monkeypatch):
    # the array branch gives the letter matrices, and so every mask, of
    # the scalar loop it replaced
    cf = tracemap.golden_cf(20)
    zs = np.exp(1j * np.linspace(0.0, 2 * math.pi, 4096, endpoint=False))
    sweep = tracemap.orbit_sweep(alphabet, cf, zs, 16)
    letters = tracemap._letter_matrices(alphabet, zs)

    def scalar_loop(alphabet, zs):
        s = np.array([_scalar_branch_sqrt(z) for z in zs])[:, None, None]
        return tuple(transfer.szego_matrices(letter, zs) / s for letter in alphabet)

    monkeypatch.setattr(tracemap, "_letter_matrices", scalar_loop)
    ref = tracemap.orbit_sweep(alphabet, cf, zs, 16)
    assert all(np.array_equal(m, r) for m, r in zip(letters, scalar_loop(alphabet, zs)))
    K = tracemap.default_trace_bound(ref.invariant_sup)
    assert sweep.invariant_sup == ref.invariant_sup
    for n in range(1, 17):
        assert np.array_equal(sweep.mask(K, n), ref.mask(K, n)), f"level {n}"


def _mp_orbit(alphabet, z, n_max):
    """M_{q_1} ... M_{q_n_max} at 40 digits, from the same float inputs."""
    with mp.workdps(40):
        z = mp.mpc(z)
        phase = mp.arg(z)
        if phase < 0:
            phase += 2 * mp.pi
        s = mp.sqrt(abs(z)) * mp.expj(phase / 2)

        def letter(a):
            a = mp.mpc(a)
            return mp.matrix([[z, -mp.conj(a)], [-a * z, 1]]) / (mp.sqrt(1 - abs(a) ** 2) * s)

        M_prev, M_cur = letter(alphabet[1]), letter(alphabet[0])
        orbit = []
        for _ in range(n_max):
            orbit.append(M_cur)
            M_prev, M_cur = M_cur, M_prev * M_cur
        return orbit


# Worst error of `orbit_sweep` against the 40-digit orbit at 64 angles,
# levels 1-16 before overflow: traces relative to the largest entry of
# M_{q_n}, norms relative to the norm.  Measured: (0.5, -0.5) 2.5e-12 and
# 1.1e-12 over 621 cells; (0.4 + 0.2j, -0.5) 5.0e-13 and 2.9e-13 over
# 595; (0.9, -0.9) 1.1e-10 and 1.4e-10 over 271, at z = -1, where the
# np.matmul recursion is 1.2e-3 and 2.1e-7 off.
@pytest.mark.parametrize("alphabet, tol", [((0.5, -0.5), 1e-11),
                                           ((0.4 + 0.2j, -0.5), 1e-11),
                                           ((0.9, -0.9), 1e-9)])
def test_orbit_sweep_against_mpmath(alphabet, tol):
    cf = tracemap.golden_cf(20)
    zs = np.exp(1j * np.linspace(0.0, 2 * math.pi, 64, endpoint=False))
    sweep = tracemap.orbit_sweep(alphabet, cf, zs, 16)
    assert np.any(sweep.first_overflow > 16)
    for g, z in enumerate(zs):
        orbit = _mp_orbit(alphabet, z, 16)
        for n in range(1, min(16, sweep.first_overflow[g] - 1) + 1):
            with mp.workdps(40):
                M = orbit[n - 1]
                big = max(abs(v) for v in M)
                gram = sum(abs(v) ** 2 for v in M)
                det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
                norm = mp.sqrt((gram + mp.sqrt(gram ** 2 - 4 * abs(det) ** 2)) / 2)
                assert abs(sweep.x[n, g] - (M[0, 0] + M[1, 1])) / big < tol, (g, n)
                assert abs(sweep.norms[n, g] - norm) / norm < tol, (g, n)


def _per_cell_atlas(sweep, cf, thetas, mask, path):
    """The atlas one row and one numpy scalar per cell at a time: the
    reference for the block writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "n", "q_n", "abs_x", "abs_z", "re_I", "im_I",
                         "in_spectrum"])
        for g, theta in enumerate(thetas):
            for n in range(1, sweep.n_max + 1):
                writer.writerow([
                    repr(float(theta)), n, cf.q[n],
                    repr(float(abs(sweep.x[n, g]))),
                    repr(float(abs(sweep.z_mix[n, g]))),
                    repr(float(sweep.invariant[n, g].real)),
                    repr(float(sweep.invariant[n, g].imag)),
                    int(bool(mask[g])),
                ])


@pytest.mark.parametrize("alphabet, count, levels", [
    ((0.5, -0.5), 2048, 10),        # exploded points: inf and nan cells
    ((0.4 + 0.2j, -0.5), 1000, 10),  # a partial last block, nonzero Im I
    ((0.0, 0.0), 64, 10),           # the free alphabet
    ((0.5, -0.5), 64, 1),           # a one-level sweep
])
def test_orbit_atlas_matches_per_cell_writer(tmp_path, alphabet, count, levels):
    cf = tracemap.golden_cf(22)
    thetas = np.linspace(0.0, 2 * math.pi, count, endpoint=False)
    sweep = tracemap.orbit_sweep(alphabet, cf, np.exp(1j * thetas), levels)
    mask = sweep.mask(tracemap.default_trace_bound(sweep.invariant_sup), levels)
    if count == 2048:
        assert np.isinf(sweep.x).any() and np.isnan(sweep.invariant[1:]).any()
    if count == 1000:
        assert count % (table._BLOCK // levels) and np.any(sweep.invariant[1:].imag != 0)
    _per_cell_atlas(sweep, cf, thetas, mask, tmp_path / "cells.csv")
    tracemap.write_orbit_csv(sweep, cf, thetas, mask, tmp_path / "atlas.csv")
    assert (tmp_path / "atlas.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
