import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvkit import coeffs, tracemap, transfer
from cmvkit.errors import DomainError

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


def test_recursion_matches_direct_products():
    cf = tracemap.golden_cf(16)
    word = tracemap.standard_word(cf.quotients, 11)
    seq = coeffs.make_explicit(tracemap.word_alphas(FIB, word))
    z = cmath.exp(0.9j)
    Ma, Mb = tracemap._letter_matrices(FIB, np.array([z]))
    M_prev, M_cur = Mb, Ma
    for n in range(1, 12):
        qn = cf.q[n]
        direct = transfer.normalize_sl2(
            transfer.cocycle_product(seq, z, qn), z, qn)
        err = np.max(np.abs(M_cur[0] - direct)) / np.max(np.abs(direct))
        assert err < 1e-10, f"level {n}"
        M_prev, M_cur = M_cur, M_prev @ M_cur


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
