import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvkit import caratheodory as cara
from cmvkit import coeffs
from cmvkit.errors import DiskError, HorizonError

GOLDEN = coeffs.GOLDEN_MEAN


def constant_F_oracle(a: complex, z: complex) -> complex:
    # fixed point of the constant-coefficient Schur step:
    # conj(a) z f^2 + (1 - z) f - a = 0, root inside the unit disk
    if a == 0:
        return 1.0 + 0.0j
    disc = cmath.sqrt((1 - z) ** 2 + 4 * np.conj(a) * z * a)
    f1 = (-(1 - z) + disc) / (2 * np.conj(a) * z)
    f2 = (-(1 - z) - disc) / (2 * np.conj(a) * z)
    f = f1 if abs(f1) < 1.0 else f2
    return (1 + z * f) / (1 - z * f)


def test_free_F_is_one():
    seq = coeffs.make_constant(0.0)
    for z in (0.0, 0.5, 0.9j, -0.7 + 0.2j):
        assert cara.schur_eval_F(seq, z, 40) == 1.0


def test_F_at_origin_is_one():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    assert cara.schur_eval_F(seq, 0.0, 64) == 1.0
    assert cara.schur_eval_F_adaptive(seq, 0.0) == 1.0


def test_disk_guard():
    with pytest.raises(DiskError):
        cara.schur_eval_F(coeffs.make_constant(0.0), 1.0, 8)
    with pytest.raises(DiskError):
        cara.resolvent_oracle_F(coeffs.make_constant(0.0), [0.5, 1.0], 8)


def test_schur_batch_warns_when_unconverged():
    # -0.9999 lies on the essential arc of the constant model, where depth
    # 4096 is far short of the ~1/(1 - |z|) the recursion needs
    with pytest.warns(RuntimeWarning, match="max_depth 4096"):
        cara.schur_F_batch(coeffs.make_constant(0.5), [-0.9999], max_depth=4096)


def test_schur_batch_converged_is_quiet():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    zs = 0.999 * np.exp(2j * math.pi * np.arange(64) / 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cara.schur_F_batch(seq, zs)


def test_constant_model_fixed_point_oracle():
    for a, z in ((0.5, 0.4), (0.3 + 0.4j, -0.2 + 0.5j), (0.72, 0.9j)):
        F = cara.schur_eval_F_adaptive(coeffs.make_constant(a), z)
        assert abs(F - constant_F_oracle(a, z)) < 1e-10


def test_eigen_oracle_free_uniform_weights():
    eigs, w = cara._unitary_eigensystem(coeffs.make_constant(0.0), 24, 1.0)
    assert np.max(np.abs(w - 1.0 / 24)) < 1e-12
    assert abs(w.sum() - 1.0) < 1e-12
    # eigenvalues are the 24th roots of unity
    roots = np.exp(2j * math.pi * np.arange(24) / 24)
    dist = np.abs(eigs[:, None] - roots[None, :]).min(axis=1)
    assert np.max(dist) < 1e-12


def test_weights_normalized_random():
    rng = np.random.default_rng(0)
    seq = coeffs.make_explicit(rng.uniform(0, 0.9, 39)
                               * np.exp(1j * rng.uniform(0, 2 * math.pi, 39)))
    _, w = cara._unitary_eigensystem(seq, 40, cmath.exp(0.2j))
    assert abs(w.sum() - 1.0) < 1e-12


def test_schur_vs_eigen_oracle_small():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    rng = np.random.default_rng(1)
    for _ in range(12):
        z = rng.uniform(0, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        F_s = cara.schur_eval_F_adaptive(seq, z)
        F_e = cara.measure_oracle_F(seq, z, 400)
        assert abs(F_s - F_e) < 1e-8


def test_resolvent_oracle_vs_eigen_oracle():
    rng = np.random.default_rng(4)
    explicit = coeffs.make_explicit(rng.uniform(0, 0.9, 399)
                                    * np.exp(1j * rng.uniform(0, 2 * math.pi, 399)))
    for seq, eta in ((coeffs.make_sturmian(0.5, -0.5, GOLDEN), 1.0),
                     (coeffs.make_constant(0.5), 1.0),
                     (explicit, cmath.exp(0.2j))):
        zs = (np.sqrt(rng.uniform(0, 1, 16)) * 0.95
              * np.exp(1j * rng.uniform(0, 2 * math.pi, 16)))
        F_res = cara.resolvent_oracle_F(seq, zs, 400, eta)
        F_eig = [cara.measure_oracle_F(seq, z, 400, eta) for z in zs]
        assert np.max(np.abs(F_res - F_eig)) < 1e-10


def test_m_minus_examples():
    assert cara.m_minus(1.0, 0.0) == -1.0
    assert cara.m_minus(2.0, 0.0) == -0.5


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 0.999), st.floats(0.0, 2 * math.pi),
       st.floats(0.001, 10.0), st.floats(-10.0, 10.0))
def test_m_minus_anti_caratheodory(mod, phase, re, im):
    a0 = mod * cmath.exp(1j * phase)
    F = complex(re, im)
    assert cara.m_minus(F, a0).real < 0.0


def test_caratheodory_positivity_sweep():
    rng = np.random.default_rng(2)
    families = [coeffs.make_explicit(rng.uniform(0, 0.95, 48)
                                     * np.exp(1j * rng.uniform(0, 2 * math.pi, 48)))
                for _ in range(10)]
    zs = (np.sqrt(rng.uniform(0, 1, 100)) * 0.999
          * np.exp(1j * rng.uniform(0, 2 * math.pi, 100)))
    for seq in families:
        F = cara.schur_F_batch(seq, zs)
        assert np.all(F.real > 0.0)


def test_alexandrov_norms_free():
    seq = coeffs.make_constant(0.0)
    z = cmath.exp(0.3j)
    lam = cmath.exp(1.1j)
    n_phi, n_psi = cara.alexandrov_norms(seq, lam, z, 15)
    assert abs(n_phi - 4.0) < 1e-12 and abs(n_psi - 4.0) < 1e-12


def test_alexandrov_lambda_sign_swap():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = cmath.exp(0.4j)
    lam = cmath.exp(0.9j)
    a = cara.alexandrov_norms(seq, lam, z, 33)
    b = cara.alexandrov_norms(seq, -lam, z, 33)
    assert abs(a[0] - b[1]) < 1e-12 and abs(a[1] - b[0]) < 1e-12


def test_x_of_r_free_closed_form():
    seq = coeffs.make_constant(0.0)
    z = cmath.exp(0.7j)
    for r in (0.9, 0.99):
        x = cara.solve_x_of_r(seq, 1.0, z, r).x
        assert abs(x - (math.sqrt(2) / (1 - r) - 1)) < 1e-8


def test_x_of_r_monotone_and_residual():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = cmath.exp(0.25j)
    xs = []
    for r in (0.9, 0.95, 0.99):
        xr = cara.solve_x_of_r(seq, 1.0, z, r)
        x = xr.x
        xs.append(x)
        n_phi, n_psi = cara.alexandrov_norms(seq, 1.0, z, x)
        assert abs((1 - r) * n_phi * n_psi - math.sqrt(2)) < 1e-10
        # the norms the search carries match an independent propagation
        assert (xr.norm_phi, xr.norm_psi) == (n_phi, n_psi)
    assert xs[0] < xs[1] < xs[2]


def test_x_of_r_strict_horizon():
    seq = coeffs.make_constant(0.0)
    with pytest.raises(HorizonError):
        cara.solve_x_of_r(seq, 1.0, cmath.exp(0.1j), 0.99, horizon=16)


def test_jl_ratio_free_is_one():
    seq = coeffs.make_constant(0.0)
    assert abs(cara.jl_ratio(seq, 1.0, cmath.exp(0.5j), 0.9) - 1.0) < 1e-9


def test_jl_ratio_horizon_stability():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = cmath.exp(0.25j)
    a = cara.jl_ratio(seq, 1j, z, 0.99)
    b = cara.jl_ratio(seq, 1j, z, 0.99, horizon=1 << 14)
    assert abs(a - b) < 1e-9


def test_jl_ratio_sweep_matches_pointwise():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    lams = [1.0, 1j, cmath.exp(0.9j)]
    zs = [cmath.exp(0.25j), cmath.exp(1.3j), cmath.exp(-2.0j)]
    for r in (0.9, 0.99):
        sweep = cara.jl_ratio_sweep(seq, lams, zs, r)
        assert sweep.shape == (3, 3)
        for i, lam in enumerate(lams):
            for j, z in enumerate(zs):
                point = cara.jl_ratio(seq, lam, z, r)
                assert abs(sweep[i, j] - point) <= 1e-12 * abs(point)


def test_mobius_examples():
    assert cara.mobius_sup(1.0 + 0.0j) == 1.0
    assert abs(cara.mobius_sup(2.0 + 0.0j) - 2.0) < 1e-14
    assert abs(cara.mobius_sup(1.0 + 1.0j) - (3 + math.sqrt(5)) / 2) < 1e-14


@settings(max_examples=60, deadline=None)
@given(st.floats(0.02, 4.0), st.floats(-4.0, 4.0))
def test_mobius_closed_form_vs_grid(re, im):
    F = complex(re, im)
    closed = cara.mobius_sup(F)
    grid = cara.mobius_sup_grid(F, 1024)
    assert abs(closed - grid) < 1e-10 * closed


def test_rotated_family_recovers_F_at_one():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = 0.3 + 0.4j
    F1 = cara.schur_eval_F_adaptive(cara.rotated(seq, 1.0), z)
    F = cara.schur_eval_F_adaptive(seq, z)
    assert F1 == F


def test_growth_contrast_on_vs_off_spectrum():
    # solution norms grow subpolynomially on the spectrum and
    # exponentially in a gap
    from cmvkit import tracemap, transfer

    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    cf = tracemap.golden_cf(22)
    thetas = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    I_sup = tracemap.invariant_sup((0.5, -0.5), cf, thetas)
    K = tracemap.default_trace_bound(I_sup)
    mask = tracemap.spectrum_approx((0.5, -0.5), cf, thetas, 14, K)
    runs, start = [], None
    for i, m in enumerate(np.concatenate([mask, [False]])):
        if m and start is None:
            start = i
        if not m and start is not None:
            runs.append((start, i))
            start = None
    runs.sort(key=lambda ab: ab[1] - ab[0], reverse=True)
    on = complex(np.exp(1j * thetas[(runs[0][0] + runs[0][1]) // 2]))
    gaps = np.where(~mask)[0]
    # deep gap point: far from any masked angle
    dist = np.array([min(abs(g - i) for i in np.where(mask)[0]) for g in gaps])
    off = complex(np.exp(1j * thetas[gaps[int(np.argmax(dist))]]))
    L = 4000
    n_on = transfer.solution_norm(seq, on, (1.0, 1.0), L)
    n_off = transfer.solution_norm(seq, off, (1.0, 1.0), L)
    assert n_on < 10.0 * L  # comfortably subexponential
    assert n_off > 1e6 * n_on  # exponential escape dominates
