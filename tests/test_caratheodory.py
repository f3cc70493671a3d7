import cmath
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvkit import caratheodory as cara
from cmvkit import coeffs, operator, transfer, verify
from cmvkit.errors import (DiskError, HorizonError, SupportError,
                           UnconvergedWarning)

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


@pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
def test_schur_batch_lam_matches_rotated_sequence(r):
    # one pass over the base coefficients, started from (conj(lam), conj(lam)),
    # against the Alexandrov member's own coefficients lam * alpha.  The
    # largest relative difference measured is 1.7e-13 at r = 0.999 (|F| up
    # to 135), the eps |F| rounding scale; a pass that keeps the (1, 1)
    # start returns the base F, off by at least 7e-2 here
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    rng = np.random.default_rng(18)
    lams = np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 8))
    zs = r * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 64))
    batch = cara.schur_F_batch(seq, zs[None, :], lam=lams[:, None])
    assert batch.shape == (8, 64)
    ref = np.stack([cara.schur_F_batch(cara.rotated(seq, lam), zs) for lam in lams])
    assert np.all(np.abs(batch - ref) <= 1e-12 * np.abs(ref))


def test_schur_batch_lam_warns_when_unconverged():
    lams = np.exp(2j * math.pi * np.arange(4) / 4)
    with pytest.warns(UnconvergedWarning, match="4 of 4 points stopped at depth 4096"):
        cara.schur_F_batch(coeffs.make_constant(0.5), -0.9999, max_depth=4096, lam=lams)


def test_schur_batch_lam_guards():
    with pytest.raises(ValueError):
        cara.schur_F_batch(coeffs.make_constant(0.5), [0.5], lam=[1.0, 1.01])
    two_sided = coeffs.extend_two_sided(coeffs.make_constant(0.5),
                                        coeffs.make_constant(0.0))
    with pytest.raises(SupportError):
        cara.schur_F_batch(two_sided, [0.5], lam=1j)


def schur_reference(seq, z: complex, depth: int) -> complex:
    # the backward Schur recursion f_k = (a_k + z f_{k+1})/(1 + conj(a_k) z f_{k+1})
    # from a zero tail at `depth`, at 40 digits
    with mp.workdps(40):
        zm, f = mp.mpc(z), mp.mpc(0)
        for a in seq.alpha_array(0, depth)[::-1].tolist():
            a = mp.mpc(a)
            zf = zm * f
            f = (a + zf) / (1 + mp.conj(a) * zf)
        return complex((1 + zm * f) / (1 - zm * f))


@pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
def test_certified_schur_vs_deep_backward_reference(r):
    # every returned value lies within its certified tail bound of F; the
    # reference runs half as deep again past the certified depth, where the
    # nested disks have shrunk far below tol.  Near the circle forward and
    # backward rounding differ by ~eps |F|^2 (1e-11 at |F| = 540,
    # theta = 3.0189 on the right half at r = 0.999)
    tol = 1e-12
    rng = np.random.default_rng(5)
    n = 1 << 15
    explicit = coeffs.make_explicit(rng.uniform(0, 0.1, n)
                                    * np.exp(2j * math.pi * rng.uniform(0, 1, n)))
    right, left = operator.split_at_origin(
        coeffs.make_sturmian(0.5, -0.5, GOLDEN, support="full"))
    zs = r * np.exp(1j * np.array([0.4, 3.0189]))
    for seq in (explicit, right, left, coeffs.make_constant(0.5)):
        F, radius, depth = cara._nested_disks(seq, zs, tol, 1 << 17)
        assert np.all(radius < tol)
        assert np.array_equal(cara.schur_F_batch(seq, zs, tol), F)
        for z, Fz, d in zip(zs, F, depth):
            ref = schur_reference(seq, z, int(d) * 3 // 2 + 256)
            assert abs(Fz - ref) <= tol + 64 * np.finfo(float).eps * abs(Fz) ** 2


def test_zero_tail_stops_with_bound_zero():
    # the constant 0 is exactly 0 from site 0 (F = 1 with no step), so is
    # the free left half of the Fibonacci model, and a short list from one
    # past its last nonzero value; the stop ignores tol
    free_left = operator.split_at_origin(coeffs.extend_two_sided(
        coeffs.make_sturmian(0.5, -0.5, GOLDEN), coeffs.make_constant(0.0)))[1]
    short = coeffs.make_explicit([0.3, 0.5j, 0.0, -0.2, 0.0, 0.0])
    zs = 0.999 * np.exp(2j * math.pi * np.arange(8) / 8)
    for seq, tail in ((coeffs.make_constant(0.0), 0), (free_left, 0), (short, 4)):
        F, radius, depth = cara._nested_disks(seq, zs, 0.0, 1 << 17)
        assert np.all(radius == 0.0) and np.all(depth == tail)
        if tail == 0:
            assert np.all(F == 1.0) and np.all(cara.schur_F_batch(seq, zs) == 1.0)


def test_fixed_depth_matches_backward_reference():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = 0.95 * cmath.exp(0.7j)
    assert abs(cara.schur_eval_F(seq, z, 300) - schur_reference(seq, z, 300)) < 1e-13


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


# Computes the three truncation oracles on the model saved in argv[1] in a
# fresh interpreter, so that scipy.linalg is first imported by the oracles.
_ORACLES_FRESH = """
import sys
import numpy as np
from cmvkit import caratheodory as cara, coeffs, operator
assert "scipy" not in sys.modules
right, left, zs = np.load(sys.argv[1])
seq = coeffs.make_explicit(right)
two = coeffs.extend_two_sided(seq, coeffs.make_explicit(left))
np.save(sys.argv[2], np.concatenate([
    cara.resolvent_oracle_F(seq, zs, 40),
    [cara.measure_oracle_F(seq, z, 40) for z in zs],
    operator.resolvent_oracle_block(two, zs[0], 30, [-3, 0, 2], [-1, 4]).ravel()]))
assert "scipy.linalg" in sys.modules
"""


def test_oracles_import_scipy_on_first_use(tmp_path):
    rng = np.random.default_rng(16)
    model = np.stack([0.8 * rng.uniform(size=8) * np.exp(2j * math.pi * rng.uniform(size=8))
                      for _ in range(3)])
    model[2] *= 0.9  # the spectral points, inside the disk
    np.save(tmp_path / "model.npy", model)
    src = Path(cara.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", _ORACLES_FRESH, str(tmp_path / "model.npy"),
                    str(tmp_path / "fresh.npy")], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
    right, left, zs = model
    seq = coeffs.make_explicit(right)
    two = coeffs.extend_two_sided(seq, coeffs.make_explicit(left))
    here = np.concatenate([
        cara.resolvent_oracle_F(seq, zs, 40),
        [cara.measure_oracle_F(seq, z, 40) for z in zs],
        operator.resolvent_oracle_block(two, zs[0], 30, [-3, 0, 2], [-1, 4]).ravel()])
    assert np.array_equal(np.load(tmp_path / "fresh.npy"), here)


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
    # 16-step profiles of the free case end before the r = 0.99 root
    prof = transfer.norm_profile_batch(coeffs.make_constant(0.0), cmath.exp(0.1j),
                                       [[1.0, 1.0], [1.0, -1.0]], 16)
    with pytest.raises(HorizonError):
        cara._x_from_profiles(prof[:1], prof[1:], 0.99)


def _scalar_x_of_r(s_phi, s_psi, r):
    """x(r) of one point by a bisection of its own, two interpolations a step."""
    target = 2.0 / (1.0 - r) ** 2
    x = 0.0
    if s_phi[0] * s_psi[0] < target:
        lo, hi = 0.0, float(len(s_phi) - 1)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (transfer._interp_squared(s_phi, mid)
                    * transfer._interp_squared(s_psi, mid)) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, hi):
                break
        x = 0.5 * (lo + hi)
    return (x, math.sqrt(transfer._interp_squared(s_phi, x)),
            math.sqrt(transfer._interp_squared(s_psi, x)))


@pytest.fixture(scope="module")
def criterion_10_profiles():
    """phi and psi profiles on criterion 10's grid: 8 lam times 8 angles
    of the spectrum mask, long enough for the r = 0.999 roots."""
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    zs = np.exp(1j * verify._spectrum_points(verify.FIB_ALPHABET, 8))
    lams = np.exp(2j * math.pi * np.arange(8) / 8.0)
    lc = np.conj(np.repeat(lams, len(zs)))
    phi = np.stack([np.ones_like(lc), lc], axis=-1)
    prof = transfer.norm_profile_batch(seq, np.tile(zs, 2 * len(lams)),
                                       np.concatenate([phi, phi * [1.0, -1.0]]),
                                       1 << 15)
    return prof[:len(lc)], prof[len(lc):]


@pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
def test_x_of_r_array_bisection_matches_scalar_loop(r, criterion_10_profiles):
    s_phi, s_psi = (p.copy() for p in criterion_10_profiles)
    # a row that starts above the target has x = 0; it rides along unbisected
    s_phi[3] *= 2.0 / (1.0 - r)
    s_psi[3] *= 2.0 / (1.0 - r)
    got = [(xr.x, xr.norm_phi, xr.norm_psi) for xr in cara._x_from_profiles(s_phi, s_psi, r)]
    assert got == [_scalar_x_of_r(p, q, r) for p, q in zip(s_phi, s_psi)]
    assert got[3][0] == 0.0 and all(x > 0.0 for i, (x, _, _) in enumerate(got) if i != 3)


def test_jl_ratio_free_is_one():
    seq = coeffs.make_constant(0.0)
    assert abs(cara.jl_ratio(seq, 1.0, cmath.exp(0.5j), 0.9) - 1.0) < 1e-9


def test_jl_ratio_horizon_stability():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = cmath.exp(0.25j)
    searched = cara.solve_x_of_r(seq, 1j, z, 0.99)
    # phi and psi of lam = i start from (1, -i) and (1, i)
    prof = transfer.norm_profile_batch(seq, z, [[1.0, -1j], [1.0, 1j]], 1 << 14)
    longer = cara._x_from_profiles(prof[:1], prof[1:], 0.99)[0]
    assert abs(searched.x - longer.x) <= 1e-9 * longer.x
    F_lam = cara.schur_eval_F_adaptive(cara.rotated(seq, 1j), 0.99 * z)
    assert abs(cara.jl_ratio(seq, 1j, z, 0.99) - longer.jl_ratio(F_lam)) < 1e-9


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
    grid = cara.mobius_sup_grid(F)
    assert abs(closed - grid) < 1e-10 * closed


def test_mobius_sup_grid_array_matches_scalar_calls():
    rng = np.random.default_rng(8)
    F = rng.uniform(0.01, 4.0, (3, 7)) + 1j * rng.uniform(-4.0, 4.0, (3, 7))
    grid = cara.mobius_sup_grid(F)
    assert grid.shape == F.shape
    scalar = [cara.mobius_sup_grid(complex(f)) for f in F.ravel()]
    assert all(isinstance(v, float) for v in scalar)
    np.testing.assert_array_equal(grid.ravel(), scalar)
    # and the array form still agrees with the closed form it checks
    closed = np.array([cara.mobius_sup(complex(f)) for f in F.ravel()])
    assert np.all(np.abs(grid.ravel() - closed) < 1e-10 * closed)


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
