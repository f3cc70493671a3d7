import cmath
import math
import os
import subprocess
import sys
import tracemalloc
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

import mp_szego

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


def _broadcast_nested_disks(seq, zs, tol, max_depth, lam=1.0):
    """The forward nested-disk pass on the columns (a, c) and (b, e) of
    Q_d, with a (B,) z broadcast over the two rows of each column: a
    second form of `_nested_disks`, which steps the Szegő pairs instead."""
    B = zs.size
    F, radius = np.empty(B, dtype=complex), np.zeros(B)
    depth = np.zeros(B, dtype=np.int64)
    tail = seq.zero_tail()
    stop = min(max_depth, tail)
    with np.errstate(divide="ignore"):
        log_r = np.log(np.abs(zs))
    lc = np.broadcast_to(np.conj(np.asarray(lam, dtype=complex)), (B,))
    left, right = np.stack([zs, -zs]), np.stack([lc, lc])
    logdet = math.log(2.0) + log_r
    active, z = np.arange(B), zs
    j0 = 0
    while j0 < stop and len(active):
        j1 = min(j0 + transfer._BLOCK, stop)
        alphas = seq.alpha_array(j0, j1)
        t, u = np.empty_like(left), np.empty_like(left)
        for a, ac in zip(alphas.tolist(), alphas.conj().tolist()):
            np.multiply(right, ac, out=t)
            t += left
            np.multiply(left, a, out=u)
            right += u
            np.multiply(t, z, out=left)
        s = np.abs(right[1])
        left /= s
        right /= s
        logdet += ((j1 - j0) * log_r - 2.0 * np.log(s)
                   + float(np.sum(np.log1p(-np.abs(alphas) ** 2))))
        j0 = j1
        gap = 1.0 - np.abs(left[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            rad = np.where(gap > 0.0, np.exp(logdet) / gap, np.inf)
        if j0 == tail:
            rad[:] = 0.0
        done = (rad < tol) | (j0 == stop)
        idx = active[done]
        F[idx] = right[0, done] / right[1, done]
        radius[idx], depth[idx] = rad[done], j0
        keep = ~done
        active, left, right = active[keep], left[:, keep], right[:, keep]
        z, log_r, logdet = z[keep], log_r[keep], logdet[keep]
    F[active] = right[0] / right[1]
    return F, radius, depth


def _small_list(rng, count):
    # |alpha| < 0.1: the depth near the circle grows like 1/(1 - |z|)
    return coeffs.make_explicit(rng.uniform(0.0, 0.1, count)
                                * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, count)))


@pytest.mark.parametrize("n", [1, 24, 120, 4096])
@pytest.mark.parametrize("case", ["adaptive", "lam", "fixed_depth", "zero_tail",
                                  "max_depth"])
def test_nested_disks_matches_broadcast_pass(n, case):
    # the pass on the Szegő pairs and the column form round differently:
    # over these cases F differs by at most 3.5e-14 and the radius by
    # 2.1e-13 relative (the radius divides by the gap 1 - |c|/|e|); every
    # depth, and so every stop, is the same
    rng = np.random.default_rng(n)
    radii = np.array([0.999]) if n == 1 else 1.0 - 10.0 ** -rng.uniform(0.5, 3.0, n)
    zs = radii * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))
    seq = _small_list(rng, 1 << 14)
    tol, max_depth, lam = 1e-12, 1 << 17, 1.0
    if case == "lam":
        lam = np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))
    elif case == "fixed_depth":
        seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
        tol, max_depth = 0.0, 200
    elif case == "zero_tail":  # 1000 values: the tail starts inside a block
        seq = _small_list(rng, 1000)
    elif case == "max_depth":
        max_depth = 300
    F, radius, depth = cara._nested_disks(seq, zs, tol, max_depth, lam)
    ref = _broadcast_nested_disks(seq, zs, tol, max_depth, lam)
    assert np.allclose(F, ref[0], rtol=1e-13, atol=0.0)
    assert np.array_equal(radius == 0.0, ref[1] == 0.0)
    assert np.allclose(radius, ref[1], rtol=1e-12, atol=0.0)
    assert np.array_equal(depth, ref[2])
    # each case reaches the stop it is named for
    if case == "fixed_depth":
        assert np.all(depth == 200)
    elif case == "zero_tail":
        assert np.any((depth == 1000) & (radius == 0.0))
    elif case == "max_depth":
        assert np.any((depth == 300) & ~(radius < tol))
    else:
        assert np.all(radius < tol)
    if n > 1 and case != "fixed_depth":  # points leave in different blocks
        assert len(np.unique(depth[depth < min(max_depth, 1000)])) > 1


@pytest.mark.parametrize("d", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("lam", [1.0, cmath.exp(0.7j), -1j])
def test_nested_disks_matches_the_cocycle_oracle(d, lam):
    # Geronimus: F^lam_d = -psi*_d / phi*_d, the second entries of
    # T_d (1, -conj(lam)) and T_d (1, conj(lam)) for the Szegő product
    # T_d of `cocycle_product` (criterion 6's np.matmul oracle), on either
    # side of a block end.  The worst measured relative difference is
    # 1.1e-14 (1.2e-14 for the column-form pass)
    seq = coeffs.make_sturmian(0.4 + 0.2j, -0.5, GOLDEN)
    zs = np.array([0.5 * cmath.exp(0.3j), 0.95 * cmath.exp(2.1j), 0.2j])
    F, radius, depth = cara._nested_disks(seq, zs, 0.0, d, lam)
    assert np.all(depth == d)
    lc = complex(lam).conjugate()
    for z, Fz in zip(zs, F):
        T = transfer.cocycle_product(seq, z, d)
        ref = -(T @ [1.0, -lc])[1] / (T @ [1.0, lc])[1]
        assert abs(Fz - ref) <= 5e-14 * abs(ref)


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


def test_resolvent_oracle_holds_no_band():
    # criterion 7's call: 64 z at N = 2000 on the one-sided Fibonacci word.
    # A stored (N, 64, 7) band with its right-hand sides took 16.6 MB; the
    # bottom-up sweep holds two rows per z, and row 0 keeps no factor
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    rng = np.random.default_rng(5)
    zs = np.sqrt(rng.uniform(0, 1, 64)) * 0.95 * np.exp(1j * rng.uniform(0, 2 * math.pi, 64))
    cara.resolvent_oracle_F(seq, zs, 2000)  # coefficient caches fill here
    tracemalloc.start()
    try:
        cara.resolvent_oracle_F(seq, zs, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# Computes the three truncation oracles on the model saved in argv[1] in a
# fresh interpreter: the two resolvent oracles leave scipy unloaded, and
# the eigen oracle loads it.
_ORACLES_FRESH = """
import sys
import numpy as np
from cmvkit import caratheodory as cara, coeffs, operator
right, left, zs = np.load(sys.argv[1])
seq = coeffs.make_explicit(right)
two = coeffs.extend_two_sided(seq, coeffs.make_explicit(left))
F_res = cara.resolvent_oracle_F(seq, zs, 40)
G = operator.resolvent_oracle_block(two, zs[0], 30, [-3, 0, 2], [-1, 4]).ravel()
assert "scipy" not in sys.modules
F_eig = [cara.measure_oracle_F(seq, z, 40) for z in zs]
assert "scipy.linalg" in sys.modules
np.save(sys.argv[2], np.concatenate([F_res, F_eig, G]))
"""


def test_only_the_eigen_oracle_imports_scipy(tmp_path):
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
        assert abs((1 - r) * n_phi * n_psi - math.sqrt(2)) < 1e-14
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
    """x(r) of one point by a bisection of its own, two interpolations a
    step, stopped at width 1e-12 max(1, x)."""
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
    return x


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
    # the closed-form roots of all rows lie within a scalar bisection's
    # stopping width of its root (measured: 4.5e-13 relative), and solve
    # the x(r) equation to rounding (measured: 7.9e-16 relative)
    s_phi, s_psi = (p.copy() for p in criterion_10_profiles)
    # a row that starts above the target has x = 0
    s_phi[3] *= 2.0 / (1.0 - r)
    s_psi[3] *= 2.0 / (1.0 - r)
    got = cara._x_from_profiles(s_phi, s_psi, r)
    for i, (xr, p, q) in enumerate(zip(got, s_phi, s_psi)):
        x = _scalar_x_of_r(p, q, r)
        assert abs(xr.x - x) <= 1e-12 * max(1.0, x)
        if i != 3:
            assert (abs((1.0 - r) * xr.norm_phi * xr.norm_psi - math.sqrt(2.0))
                    <= 1e-14 * math.sqrt(2.0))
    assert got[3].x == 0.0 and all(xr.x > 0.0 for i, xr in enumerate(got) if i != 3)


def _mp_root(s_phi, s_psi, r):
    """The root of the interpolated x(r) equation on 40-digit profiles."""
    with mp.workdps(mp_szego.DPS):
        t = 2 / (1 - mp.mpf(r)) ** 2
        k = next(j for j, (p, q) in enumerate(zip(s_phi, s_psi)) if p * q >= t)
        p0, q0 = s_phi[k - 1], s_psi[k - 1]
        dp, dq = s_phi[k] - p0, s_psi[k] - q0
        c, b = t - p0 * q0, p0 * dq + q0 * dp
        return float(k - 1 + 2 * c / (b + mp.sqrt(b * b + 4 * dp * dq * c)))


@pytest.mark.parametrize("lam", [1.0, 1j, cmath.exp(0.9j)], ids=["1", "i", "e^0.9i"])
def test_x_of_r_against_40_digit_profiles(lam):
    # at holder's theta, x(r) lies within 2e-13 relative of the root of
    # the same interpolated equation on 40-digit profiles (measured:
    # 5.3e-14; the bisection it replaced was 3.6e-13 off)
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = cmath.exp(0.24850488763747386j)
    rs = [0.9, 0.99, 0.999]
    xrs = cara.solve_x_of_r(seq, lam, z, rs)
    n = int(max(xr.x for xr in xrs)) + 1
    lc = complex(lam).conjugate()
    s_phi = mp_szego.norm_profile(seq, z, (1.0, lc), n)
    s_psi = mp_szego.norm_profile(seq, z, (1.0, -lc), n)
    for r, xr in zip(rs, xrs):
        ref = _mp_root(s_phi, s_psi, r)
        assert abs(xr.x - ref) <= 2e-13 * ref


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


def _spy_profiles(monkeypatch):
    """Record (rows, n_max) of every `norm_profile_batch` call."""
    calls = []
    loop = transfer.norm_profile_batch

    def spy(seq, zs, initials, n_max):
        calls.append((np.size(zs), n_max))
        return loop(seq, zs, initials, n_max)

    monkeypatch.setattr(transfer, "norm_profile_batch", spy)
    return calls


@pytest.mark.parametrize("first_horizon", ["default", "64 sites"])
def test_search_x_takes_r_per_point(first_horizon, monkeypatch):
    # one search over points with their own r equals one search per r and
    # the roots read from longer profiles, bit for bit; "64 sites" keeps
    # only the points whose roots lie inside the first 64-site round
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    lams = np.array([1.0, 1j, cmath.exp(0.9j), 1.0, -1j])
    zs = np.exp(1j * np.array([0.25, 1.3, 0.25, 0.7, 0.4]))
    rs = np.array([0.9, 0.999, 0.99, 0.99, 0.999])
    if first_horizon == "64 sites":
        keep = rs < 0.999
        lams, zs, rs = lams[keep], zs[keep], rs[keep]
    per_r = {}
    for r in sorted(set(rs.tolist())):
        group = np.flatnonzero(rs == r)
        per_r.update(zip(group.tolist(), cara._search_x(seq, lams[group], zs[group], r)))
    phi = np.stack([np.ones(len(lams)), np.conj(lams)], axis=-1)
    prof = transfer.norm_profile_batch(seq, np.tile(zs, 2),
                                       np.concatenate([phi, phi * [1.0, -1.0]]), 2048)
    longer = cara._x_from_profiles(prof[:len(lams)], prof[len(lams):], rs)
    assert [per_r[i] for i in range(len(rs))] == longer
    calls = _spy_profiles(monkeypatch)
    joint = cara.solve_x_of_r(seq, lams, zs, rs)
    assert joint == longer
    if first_horizon == "default":
        # the r = 0.9 and 0.99 roots lie inside 64 sites; each later round
        # propagates only the two r = 0.999 points, one of whose roots lies
        # past 512
        assert calls == [(10, 64), (2, 128), (2, 256), (2, 512), (2, 1024)]
    else:
        # every root lies inside 64 sites, so one round finishes the search
        assert calls == [(6, 64)]


def test_search_x_stops_at_max_horizon(monkeypatch):
    # the last round propagates exactly _MAX_HORIZON sites; the free root
    # at r = 0.999, sqrt(2)/(1 - r) - 1 = 1413, lies past 256
    monkeypatch.setattr(cara, "_MAX_HORIZON", 256)
    calls = _spy_profiles(monkeypatch)
    with pytest.raises(HorizonError):
        cara.solve_x_of_r(coeffs.make_constant(0.0), 1.0, cmath.exp(0.7j), 0.999)
    assert calls == [(2, 64), (2, 128), (2, 256)]


def test_x_from_profiles_root_stays_in_its_segment():
    # on these two columns the product at column 1 is the r = 0.99 target
    # to rounding, and the closed form rounds f to 1 + 2^-52; x stays at
    # the last column, where its norms can still be read
    s_phi = np.array([[1.0, 6.484263535370605]])
    s_psi = np.array([[55.40977507963289, 3084.3903692228437]])
    xr = cara._x_from_profiles(s_phi, s_psi, 0.99)[0]
    assert xr.x == 1.0 and xr.norm_phi == math.sqrt(s_phi[0, 1])


def test_x_from_profiles_stops_past_the_root(criterion_10_profiles):
    # a root reads no column past the first one whose product reaches the
    # target: a profile cut one column past the last root gives every root
    # and norm bit for bit, and a profile cut before its root raises
    s_phi, s_psi = criterion_10_profiles
    whole = cara._x_from_profiles(s_phi, s_psi, 0.999)
    # the last root lies between the last two columns of the cut profile
    cut = int(max(xr.x for xr in whole)) + 1
    assert cut < 1024 < s_phi.shape[1] - 1
    assert cara._x_from_profiles(s_phi[:, :cut + 1], s_psi[:, :cut + 1], 0.999) == whole
    with pytest.raises(HorizonError):
        cara._x_from_profiles(s_phi[:, :8], s_psi[:, :8], 0.999)


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


# the arc nodes of `cmvkit holder` at its defaults: 5 eps x (8 + 16) nodes
_HOLDER_EPS = np.array([1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1])


def _holder_nodes(theta: float) -> np.ndarray:
    x = np.concatenate([np.polynomial.legendre.leggauss(n)[0] for n in (8, 16)])
    return ((1.0 - _HOLDER_EPS)[:, None]
            * np.exp(1j * (theta + _HOLDER_EPS[:, None] * x))).ravel()


@pytest.mark.parametrize("alphabet", [(0.5, -0.5), (0.4 + 0.2j, -0.5)])
def test_golden_left_half_is_the_conjugated_shifted_right_half(alphabet):
    word = coeffs.make_sturmian(*alphabet, GOLDEN, support="full")
    right, left = operator.split_at_origin(word)
    n = 200_000
    assert np.array_equal(left.alpha_array(0, n), np.conj(right.alpha_array(1, n + 1)))
    a, b = complex(alphabet[0]), complex(alphabet[1])
    assert right.golden_route() == ((a, b), 1)
    assert left.golden_route() == ((a.conjugate(), b.conjugate()), 0)


@pytest.mark.parametrize("negative", ["constant", "word"])
def test_glued_left_half_takes_the_loop(negative, monkeypatch):
    # the left half of a glued sequence is its negative half without the
    # first site: no route after a constant, nor after the golden word w
    # itself (lead 0), whose first letter a the drop takes away
    word = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    w = coeffs.LeftHalf(coeffs.make_sturmian(0.5, -0.5, GOLDEN, support="full"))
    assert w.golden_route() == ((0.5, -0.5), 0)
    seq = coeffs.extend_two_sided(
        word, coeffs.make_constant(0.3) if negative == "constant" else w)
    left = operator.split_at_origin(seq)[1]
    assert left.golden_route() is None
    zs = _holder_nodes(0.2485)
    ref = cara.schur_F_batch(left, zs, 1e-13, 1 << 15)
    monkeypatch.setattr(transfer, "_golden_words", None)  # no table is read
    assert np.array_equal(cara._schur_F_words(left, zs, 1e-13, 1 << 15), ref)


@pytest.mark.parametrize("alphabet", [(0.5, -0.5), (0.4 + 0.2j, -0.5), (0.9, -0.9)])
def test_word_table_reads_both_halves_without_the_loop(alphabet, monkeypatch):
    # at holder's nodes every point of both halves is read from the table,
    # within 4.4e-13 of the certified loop (two tail radii below 1e-13,
    # at different depths, plus rounding; measured on these alphabets);
    # so is the left half of the Sturmian word glued on the left
    word = coeffs.make_sturmian(*alphabet, GOLDEN, support="full")
    glued = coeffs.extend_two_sided(*[coeffs.make_sturmian(*alphabet, GOLDEN)] * 2)
    zs = _holder_nodes(float(verify.certified_spectrum_points(alphabet, 1)[0]))
    for half in (*operator.split_at_origin(word), operator.split_at_origin(glued)[1]):
        ref = cara.schur_F_batch(half, zs, 1e-13, 1 << 15)
        with monkeypatch.context() as m:
            m.setattr(cara, "_nested_disks", None)
            F = cara._schur_F_words(half, zs, 1e-13, 1 << 15)
        assert np.max(np.abs(F - ref)) < 1e-12


def test_word_rows_that_fail_the_check_are_the_loop_bit_for_bit(monkeypatch):
    # a tolerance below some rows' discrepancy sends exactly those rows to
    # schur_F_batch, whose values do not depend on the batch
    right = operator.split_at_origin(
        coeffs.make_sturmian(0.4 + 0.2j, -0.5, GOLDEN, support="full"))[0]
    zs = _holder_nodes(0.2746)
    table = cara._schur_F_words(right, zs, 1e-13, 1 << 15)
    ref = cara.schur_F_batch(right, zs, 1e-13, 1 << 15)
    sent = []
    schur = cara.schur_F_batch

    def spy(seq, points, *args):
        sent.append(np.asarray(points).copy())
        return schur(seq, points, *args)

    monkeypatch.setattr(cara, "schur_F_batch", spy)
    monkeypatch.setattr(cara, "_WORD_RTOL", 1e-15)
    F = cara._schur_F_words(right, zs, 1e-13, 1 << 15)
    redo = np.isin(zs, sent[0])
    assert len(sent) == 1 and 0 < redo.sum() < len(zs)
    assert np.array_equal(F[redo], ref[redo])
    assert np.array_equal(F[~redo], table[~redo])


def test_word_table_unconverged_points_warn_from_the_loop():
    # at r = 0.999 no depth up to 256 certifies a point, so every point
    # runs the loop, which warns as it does for any point
    right = operator.split_at_origin(
        coeffs.make_sturmian(0.5, -0.5, GOLDEN, support="full"))[0]
    zs = 0.999 * np.exp(1j * np.array([0.2485, 0.25]))
    with pytest.warns(UnconvergedWarning, match="max_depth 256"):
        cara._schur_F_words(right, zs, 1e-13, 256)


def test_word_table_overflow_in_a_gap_is_quiet():
    # at theta = 2, in a gap of (0.5, -0.5), the word products leave the
    # float range from q = 4181 on; the radius certifies far earlier, and
    # the overflow stays inside np.errstate (a RuntimeWarning fails here)
    word = coeffs.make_sturmian(0.5, -0.5, GOLDEN, support="full")
    zs = 0.999 * np.exp(1j * np.array([1.9999, 2.0, 2.0001]))
    with np.errstate(over="ignore", invalid="ignore"):
        q, T = transfer._golden_words((0.5, -0.5), zs, 1 << 17)
    assert not np.isfinite(T[-1]).all()
    for half in operator.split_at_origin(word):
        F = cara._schur_F_words(half, zs, 1e-13, 1 << 17)
        assert np.max(np.abs(F - cara.schur_F_batch(half, zs, 1e-13, 1 << 17))) < 1e-14
