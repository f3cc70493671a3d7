import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvkit import coeffs, tracemap, transfer, verify
from cmvkit.errors import InsufficientDataError, NormalizationError

import mp_szego

GOLDEN = coeffs.GOLDEN_MEAN
# Relative accuracy of the Gram samples of `norm_squares` on the golden
# word, L = 64 ... 8192, from the rounding of composed word products.  The
# worst measured error is 7.0e-10 over the 276 mirror representatives of
# the (0.5, -0.5) level-16 mask and 5.1e-9 over the 639 mask points of
# (0.4 + 0.2j, -0.5), the latter confirmed against a 40-digit mpmath
# propagation, which the step loop matches to 3e-12.  Twice the worst:
GRAM_RTOL = 1e-8


def test_one_step_free():
    z = 0.3 + 0.4j
    A = transfer.szego_matrices(0.0, z)
    assert A[0, 0] == z and A[0, 1] == 0.0 and A[1, 0] == 0.0 and A[1, 1] == 1.0


def test_one_step_explicit_value():
    A = transfer.szego_matrices(0.6, 1.0)
    expect = np.array([[1.0, -0.6], [-0.6, 1.0]]) / 0.8
    assert np.allclose(A, expect, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi),
       st.floats(0.2, 1.8), st.floats(0.0, 2 * math.pi))
def test_one_step_det_is_z(mod, phase, zmod, zphase):
    a = mod * cmath.exp(1j * phase)
    z = zmod * cmath.exp(1j * zphase)
    A = transfer.szego_matrices(a, z)
    assert abs(np.linalg.det(A) - z) < 1e-14 * max(1.0, abs(z))


def test_cocycle_identity_and_free_norm():
    seq = coeffs.make_constant(0.0)
    T0 = transfer.cocycle_product(seq, 0.5 + 0.1j, 0)
    assert np.allclose(T0, np.eye(2))
    z = cmath.exp(0.7j)
    for L in (1, 10, 64, 257):
        T = transfer.cocycle_product(seq, z, L)
        assert abs(np.linalg.norm(T, 2) - 1.0) < 1e-12


def test_cocycle_det_tracking():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = cmath.exp(1j)
    L = 100
    T = transfer.cocycle_product(seq, z, L)
    assert abs(np.linalg.det(T) - z ** L) < 1e-10 * abs(z ** L)


def test_cocycle_det_long_product():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = cmath.exp(0.37j)
    L = 10 ** 4
    T = transfer.cocycle_product(seq, z, L)
    assert abs(np.linalg.det(T) - z ** L) < 1e-10 * abs(z ** L)


def test_cocycle_split_composition():
    seq = coeffs.make_sturmian(0.4, -0.3j, GOLDEN)
    z = 0.9 * cmath.exp(0.3j)
    m, n = 37, 23
    whole = transfer.cocycle_product(seq, z, m + n)
    back = transfer.cocycle_product(
        coeffs.make_explicit(seq.alpha_array(m, m + n)), z, n)
    front = transfer.cocycle_product(seq, z, m)
    prod = back @ front
    assert np.max(np.abs(whole - prod)) < 1e-10 * np.linalg.norm(whole, 2)


def test_normalize_free_quarter_turn():
    seq = coeffs.make_constant(0.0)
    z = cmath.exp(1j * math.pi / 2)
    M = transfer.normalize_sl2(transfer.cocycle_product(seq, z, 1), z, 1)
    expect = np.diag([cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)])
    assert np.allclose(M, expect, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi), st.integers(1, 40),
       st.floats(0.0, 2 * math.pi))
def test_normalized_det_one_and_norm_match(mod, phase, L, zphase):
    seq = coeffs.make_constant(mod * cmath.exp(1j * phase))
    z = cmath.exp(1j * zphase)
    T = transfer.cocycle_product(seq, z, L)
    M = transfer.normalize_sl2(T, z, L)
    norm_M, norm_T = np.linalg.norm(M, 2), np.linalg.norm(T, 2)
    assert abs(np.linalg.det(M) - 1.0) < 1e-10 * max(1.0, norm_M ** 2)
    # unimodular scaling: operator norms agree on the circle, and SL(2,C)
    # matrices have norm at least one
    assert abs(norm_M - norm_T) < 1e-9 * max(1.0, norm_T)
    assert norm_M >= 1.0 - 1e-12


def test_solution_norm_free_case():
    seq = coeffs.make_constant(0.0)
    z = cmath.exp(0.9j)
    assert abs(transfer.solution_norm(seq, z, (1.0, 1.0), 8) - 3.0) < 1e-13
    s85 = transfer.solution_norm(seq, z, (1.0, 1.0), 8.5) ** 2
    s8 = transfer.solution_norm(seq, z, (1.0, 1.0), 8) ** 2
    s9 = transfer.solution_norm(seq, z, (1.0, 1.0), 9) ** 2
    assert abs(s85 - 0.5 * (s8 + s9)) < 1e-12


def test_solution_norm_interpolates_squares_generally():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = cmath.exp(0.4j)
    init = (1.0, -1.0)
    sa = transfer.solution_norm(seq, z, init, 20) ** 2
    sb = transfer.solution_norm(seq, z, init, 21) ** 2
    sm = transfer.solution_norm(seq, z, init, 20.25) ** 2
    assert abs(sm - (0.75 * sa + 0.25 * sb)) < 1e-10 * sb


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 0.8), st.floats(0.0, 2 * math.pi), st.floats(0.1, 30.0),
       st.floats(0.5, 10.0))
def test_solution_norm_monotone(mod, phase, L1, dL):
    seq = coeffs.make_constant(mod * cmath.exp(1j * phase))
    z = cmath.exp(1.3j)
    a = transfer.solution_norm(seq, z, (1.0, 1.0), L1)
    b = transfer.solution_norm(seq, z, (1.0, 1.0), L1 + dL)
    assert b >= a - 1e-12


def test_solution_norm_rejects_bad_initial():
    with pytest.raises(NormalizationError):
        transfer.solution_norm(coeffs.make_constant(0.0), 0.5, (1.0, 0.5), 4)


def test_fit_power_law_clean_half_exponent():
    Ls = [2 ** k for k in range(10, 21)]
    samples = [(L, math.sqrt(L + 1.0)) for L in Ls]
    fit = transfer.fit_power_law(samples)
    assert abs(fit.gamma_low - 0.5) < 1e-2
    assert abs(fit.gamma_high - 0.5) < 1e-2
    assert abs(fit.beta - 1.0) < 2e-2
    for L, v in samples:
        assert fit.c_low * L ** fit.gamma_low <= v * (1 + 1e-12)
        assert v <= fit.c_high * L ** fit.gamma_high * (1 + 1e-12)


def test_fit_power_law_oscillatory_envelope():
    Ls = [2 ** k for k in range(4, 16)]
    samples = [(L, L ** 0.3 * (2.0 + math.sin(math.log(L)))) for L in Ls]
    fit = transfer.fit_power_law(samples)
    assert 0.0 < fit.gamma_low <= 0.3 <= fit.gamma_high
    for L, v in samples:
        assert fit.c_low * L ** fit.gamma_low <= v * (1 + 1e-12)
        assert v <= fit.c_high * L ** fit.gamma_high * (1 + 1e-12)


def test_fit_power_law_needs_samples():
    with pytest.raises(InsufficientDataError):
        transfer.fit_power_law([(10.0, 3.0)])
    with pytest.raises(InsufficientDataError):
        transfer.fit_power_law([(2.0 ** k, 1.0) for k in range(5)])


@pytest.mark.parametrize("slope", [90, -90])
def test_fit_power_law_exponent_past_float_range(slope):
    # finite norms whose envelope exponent makes L ** gamma leave the float
    # range at L = 8192 (as off the spectrum): an error, not an OverflowError
    samples = [(2.0 ** k, 2.0 ** (slope * (k - 13) + 100)) for k in range(6, 14)]
    with pytest.raises(InsufficientDataError, match="overflow"):
        transfer.fit_power_law(samples)


@pytest.mark.parametrize("column", [0, 1], ids=["L", "norm"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("position", range(8))
def test_fit_power_law_rejects_a_non_finite_sample(position, bad, column):
    # a NaN norm at the 4th or 8th of these samples once fitted as clean
    # data (gamma = 0.5, c = 1), and an inf norm at the 8th gave
    # gamma_high = inf and c_high = 0
    samples = [[2.0 ** k, 2.0 ** (k / 2)] for k in range(6, 14)]
    samples[position][column] = bad
    with pytest.raises(InsufficientDataError, match="finite"):
        transfer.fit_power_law(samples)


def test_slope_range_pairs_and_gap():
    lx = np.log([1.0, 2.0, 2.0, 8.0])
    ly = np.array([[0.0, 1.0, 3.0, 2.0], [0.0, 0.0, 0.0, 0.0]])
    lo, hi = transfer._slope_range(lx, ly)
    # the equal lx pair gives no slope; either order of a pair gives one value
    slopes = [(ly[0, j] - ly[0, i]) / (lx[j] - lx[i])
              for i in range(4) for j in range(i + 1, 4) if lx[j] != lx[i]]
    assert (lo.tolist(), hi.tolist()) == ([min(slopes), 0.0], [max(slopes), 0.0])
    assert transfer._slope_range(lx[::-1], ly[:, ::-1])[0].tolist() == lo.tolist()
    # with a gap of half the log range only the pairs reaching x = log 8 remain
    lo, hi = transfer._slope_range(lx, ly, 0.5 * (lx[-1] - lx[0]))
    assert lo[0] == min(slopes[2:]) and hi[0] == max(slopes[2:])


def _per_step_pairs(seq, z, initial, n_max):
    # the textbook recurrence, one step at a time:
    # u, v = ((z u - conj(a) v) / rho, (-a z u + v) / rho), saturating to
    # inf from the first step at which the pair leaves 1e150
    alphas = seq.alpha_array(0, n_max)
    rhos = np.sqrt(1.0 - np.abs(alphas) ** 2)
    pairs = np.full((n_max + 1, 2), complex(math.inf, 0.0))
    u, v = pairs[0] = complex(initial[0]), complex(initial[1])
    for j, (a, r) in enumerate(zip(alphas.tolist(), rhos.tolist())):
        u, v = (z * u - a.conjugate() * v) / r, (-a * z * u + v) / r
        if max(abs(u), abs(v)) > 1e150:
            break
        pairs[j + 1] = u, v
    return pairs


def test_norm_profile_batch_matches_per_step_recurrence():
    seq = coeffs.make_sturmian(0.4 + 0.2j, -0.5, GOLDEN)
    b = transfer._BLOCK
    n_max = 2 * b + 88
    zs = [cmath.exp(0.25j), cmath.exp(0.8j), 0.9 * cmath.exp(2.0j),
          1e3 * cmath.exp(0.3j)]
    inits = [(1.0, 1.0), (1.0, -1j), (1.0, 1.0), (1.0, 1.0)]
    # scale (1, 1) so that the pair first leaves 1e150 at a chosen step:
    # just before, on and just after the first block boundary, and at the
    # last step; the phase is the first at which that step sets a record
    for zmod, step in ((2.0, b - 1), (2.0, b), (2.0, b + 1), (1.05, n_max)):
        for phase in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            z = zmod * cmath.exp(1j * phase)
            top = np.abs(_per_step_pairs(seq, z, (1.0, 1.0), step)).max(axis=1)
            if top[-1] > (1.0 + 1e-6) * top[:-1].max():
                break
        else:
            pytest.fail(f"no phase sets a record at step {step}")
        c = 1e150 / math.sqrt(top[-1] * top[:-1].max())
        zs.append(z)
        inits.append((c, c))
    batch = transfer.norm_profile_batch(seq, zs, inits, n_max)
    assert batch.shape == (len(zs), n_max + 1)
    # one z and one initial pair make one row
    assert transfer.norm_profile_batch(seq, zs[:1], inits[0], n_max).shape == (1, n_max + 1)
    escapes = []
    for row, z, init in zip(batch, zs, inits):
        pairs = _per_step_pairs(seq, z, init, n_max)
        ref = np.cumsum(0.5 * (np.abs(pairs[:, 0]) ** 2 + np.abs(pairs[:, 1]) ** 2))
        assert np.array_equal(np.isinf(row), np.isinf(ref))
        finite = np.isfinite(ref)
        assert np.allclose(row[finite], ref[finite], rtol=1e-13, atol=0.0)
        escapes.append(int(np.argmax(np.isinf(row))) if not finite[-1] else None)
    assert escapes[:3] == [None] * 3 and escapes[3] < b - 1
    assert escapes[4:] == [b - 1, b, b + 1, n_max]


def test_pair_growth_exponents_free_and_batched():
    free = transfer.pair_growth_exponents(coeffs.make_constant(0.0), cmath.exp(0.7j))
    assert free.g_lo == free.g_hi and free.beta == 1.0
    Ls = [2 ** k for k in range(6, 14)]
    # the constant model takes the loop: its (1, 1) samples are the lone
    # propagation's columns bit for bit
    loop = transfer.norm_profile_batch(coeffs.make_constant(0.0), [cmath.exp(0.7j)],
                                       [[1.0, 1.0]], 8192)[0]
    assert np.array_equal(free.profile, loop[Ls])
    # the golden word's come from its Gram table, within its measured accuracy
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    z = cmath.exp(0.25j)
    growth = transfer.pair_growth_exponents(seq, z)
    assert growth.Ls == tuple(Ls)
    alone = transfer.norm_profile_batch(seq, [z], [[1.0, 1.0]], 8192)[0]
    assert np.allclose(growth.profile, alone[Ls], rtol=GRAM_RTOL, atol=0.0)
    assert growth.g_lo < growth.g_hi
    assert growth.samples() == [(L, math.sqrt(s)) for L, s in zip(Ls, growth.profile)]


def test_pair_growth_exponents_off_spectrum_raises_before_any_fit(monkeypatch):
    # theta = 2 lies in a gap of the Fibonacci spectrum: the norms grow
    # exponentially and leave the floating-point range before L = 8192
    def no_fit(samples):
        raise AssertionError("no fit may run on escaped norms")

    monkeypatch.setattr(transfer, "fit_power_law", no_fit)
    z = cmath.exp(2.0j)
    with pytest.raises(InsufficientDataError, match=r"L = 2048") as exc:
        transfer.pair_growth_exponents(coeffs.make_sturmian(0.5, -0.5, GOLDEN), z)
    assert str(z) in str(exc.value)


def test_golden_pieces_spell_the_sturmian_word():
    # site 0 is b; sites 1 ... L - 1 are the greedy Zeckendorf concatenation
    # of the standard words, read against the exact-floor Sturmian formula.
    # With lead 0 the pieces spell the word w from its site 1, as on the
    # full word's left half
    cf = tracemap.golden_cf(24)
    q = list(cf.q)
    words = [tracemap.standard_word(cf.quotients, k) for k in range(len(q))]
    letters = coeffs._sturmian_word(0, 10 ** 4 + 1, GOLDEN)
    for L in list(range(3000)) + [8191, 8192, 10 ** 4]:
        for lead in (1, 0):
            spelled = [words[k] for k in transfer._golden_pieces(L, q, lead)]
            assert np.array_equal(np.concatenate([[]] + spelled),
                                  letters[1 - lead:1 - lead + L]), (L, lead)


def test_golden_word_products_match_the_cocycle():
    # T_{w_k} is the Szegő product over sites 1 ... q_k; the Gram G_L of
    # sites 0 ... L - 1 holds the unit pairs' profile at L, times 2, on its
    # diagonal, at L = 1 + q_k (the pieces b, w_k) as at L between them
    alphabet = (0.4 + 0.2j, -0.5)
    seq = coeffs.make_sturmian(*alphabet, GOLDEN)
    zs = np.array([cmath.exp(0.7j), 0.9 * cmath.exp(2.1j)])
    q, T = transfer._golden_words(alphabet, zs, 500)
    assert q[-1] <= 500 < q[-1] + q[-2]
    for k in range(1, len(q)):
        tail = coeffs.make_explicit(seq.alpha_array(1, 1 + q[k]).tolist())
        for g, z in enumerate(zs):
            ref = transfer.cocycle_product(tail, z, q[k])
            assert np.allclose(T[k][g], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    Ls = [1 + qk for qk in q] + [7, 100, 500]
    G = transfer._golden_grams(alphabet, zs, Ls, 1)
    prof = transfer.norm_profile_batch(seq, np.repeat(zs, 2), np.tile(np.eye(2), (2, 1)), 500)
    diag = np.real(np.diagonal(G, axis1=-2, axis2=-1))  # (z, L, pair)
    assert np.allclose(diag, 2.0 * prof[:, Ls].reshape(2, 2, -1).swapaxes(1, 2),
                       rtol=1e-12, atol=0.0)


def _mask_points(alphabet):
    """The level-16 mask of `certified_spectrum_points`, one angle per
    mirror pair for a real alphabet."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    cand = np.flatnonzero(verify._spectrum_mask(alphabet, tracemap.golden_cf(22), thetas, 16))
    if all(complex(a).imag == 0.0 for a in alphabet):
        cand = np.array(sorted(set(np.minimum(cand, (4096 - cand) % 4096).tolist())))
    return np.exp(1j * thetas[cand])


def _gram_route(seq, zs, inits, Ls):
    """The base table's samples on seq's golden route, before
    `norm_squares` checks them."""
    letters, lead = seq.golden_route()
    return transfer._quadratic_forms(transfer._golden_grams(letters, np.asarray(zs), Ls, lead),
                                     np.asarray(inits, dtype=complex))


@pytest.mark.parametrize("alphabet", [(0.5, -0.5), (0.4 + 0.2j, -0.5)])
def test_norm_squares_golden_route_matches_the_loop(alphabet, monkeypatch):
    seq = coeffs.make_sturmian(*alphabet, GOLDEN)
    zs = _mask_points(alphabet)
    assert len(zs) == (276 if alphabet == (0.5, -0.5) else 639)
    Ls = [2 ** k for k in range(6, 14)]
    inits = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    loop = transfer.norm_profile_batch(seq, np.repeat(zs, 2), np.tile(inits, (len(zs), 1)),
                                       Ls[-1])[:, Ls].reshape(len(zs), 2, len(Ls))
    assert np.all(np.isfinite(loop))
    assert np.allclose(_gram_route(seq, zs, inits, Ls), loop, rtol=GRAM_RTOL, atol=0.0)
    calls = _spy_loop(monkeypatch)
    got = transfer.norm_squares(seq, zs, inits, Ls)
    assert np.allclose(got, loop, rtol=GRAM_RTOL, atol=0.0)
    # holder's mask steps no row; on the complex alphabet the two tables
    # differ by 1.3e-8 at one point, whose two rows read the loop
    assert calls == ([] if alphabet == (0.5, -0.5) else [(2, Ls[-1])])


@pytest.mark.parametrize("alphabet, k", [((0.5, -0.5), 162), ((0.4 + 0.2j, -0.5), 2179)])
def test_norm_squares_golden_route_against_mpmath(alphabet, k):
    # holder's pick, and the mask point of the complex alphabet where the
    # Gram route strays furthest from the loop; on the Sturmian word and on
    # the full word's left half, the conjugated word without its lead b
    # (there the table is 2.5e-10 off on the complex alphabet)
    full = coeffs.make_sturmian(*alphabet, GOLDEN, support="full")
    z = cmath.exp(2j * math.pi * k / 4096)
    Ls = [2 ** j for j in range(6, 12)]
    inits = [(1.0, 1.0), (1.0, -1.0)]
    for seq in (coeffs.make_sturmian(*alphabet, GOLDEN), coeffs.LeftHalf(full)):
        got = _gram_route(seq, [z], inits, Ls)[0]
        for row, init in zip(got, inits):
            profile = mp_szego.norm_profile(seq, z, init, Ls[-1])
            ref = np.array([float(profile[L]) for L in Ls])
            assert np.allclose(row, ref, rtol=GRAM_RTOL, atol=0.0)


def test_norm_squares_reads_the_left_half_from_the_table(monkeypatch):
    # the left half of the two-sided word over holder's mask, and the same
    # sites as the left half of a golden word glued on the left: every row
    # reads the Gram table, within GRAM_RTOL of the loop (7.6e-10 measured)
    left = coeffs.LeftHalf(coeffs.make_sturmian(0.5, -0.5, GOLDEN, support="full"))
    glued = coeffs.LeftHalf(coeffs.extend_two_sided(coeffs.make_constant(0.3),
                                                    coeffs.make_sturmian(0.5, -0.5, GOLDEN)))
    zs = _mask_points((0.5, -0.5))
    Ls = [2 ** k for k in range(6, 14)]
    assert np.array_equal(glued.alpha_array(0, Ls[-1]), left.alpha_array(0, Ls[-1]))
    inits = [[1.0, sign * np.conj(lam)] for lam in (1.0, 1j) for sign in (1.0, -1.0)]
    loop = transfer.norm_profile_batch(left, np.repeat(zs, 4), np.tile(inits, (len(zs), 1)),
                                       Ls[-1])[:, Ls].reshape(len(zs), 4, len(Ls))
    assert np.all(np.isfinite(loop))
    calls = _spy_loop(monkeypatch)
    for view in (left, glued):
        got = transfer.norm_squares(view, zs, inits, Ls)
        assert np.allclose(got, loop, rtol=GRAM_RTOL, atol=0.0)
    assert calls == []


def _spy_loop(monkeypatch):
    calls = []
    loop = transfer.norm_profile_batch

    def spy(seq, zs, initials, n_max):
        calls.append((np.size(zs), n_max))
        return loop(seq, zs, initials, n_max)

    monkeypatch.setattr(transfer, "norm_profile_batch", spy)
    return calls


@pytest.mark.parametrize("seq", [coeffs.make_sturmian(0.5, -0.5, 0.4),
                                 coeffs.make_explicit([0.1, 0.2 + 0.1j, -0.3] * 40)],
                         ids=["sturmian-0.4", "explicit"])
def test_norm_squares_other_sequences_take_the_loop(seq, monkeypatch):
    assert seq.golden_route() is None
    zs = np.exp(1j * np.array([0.3, 2.0]))
    inits = np.array([[1.0, 1.0], [1.0, -1j], [1.0, 0.5]], dtype=complex)
    Ls = [0, 1, 7, 64, 200]
    expect = transfer.norm_profile_batch(seq, np.repeat(zs, 3), np.tile(inits, (2, 1)), 200)
    calls = _spy_loop(monkeypatch)
    got = transfer.norm_squares(seq, zs, inits, Ls)
    assert calls == [(6, 200)]
    assert np.array_equal(got, expect[:, Ls].reshape(2, 3, len(Ls)))


def test_norm_squares_golden_route_never_steps(monkeypatch):
    two_sided = coeffs.make_sturmian(0.5, -0.5, GOLDEN, support="full")
    views = [coeffs.make_sturmian(0.5, -0.5, GOLDEN), two_sided,
             coeffs.RightHalf(two_sided),
             coeffs.extend_two_sided(coeffs.make_sturmian(0.5, -0.5, GOLDEN),
                                     coeffs.make_constant(0.0))]
    assert [v.golden_route() for v in views] == [((0.5, -0.5), 1)] * 4
    # the full word's left half is the same word, conjugated, without the lead b
    assert coeffs.LeftHalf(two_sided).golden_route() == ((0.5, -0.5), 0)
    calls = _spy_loop(monkeypatch)
    samples = [transfer.norm_squares(v, [cmath.exp(0.25j)], [(1.0, 1.0)], [0, 1, 2, 100])
               for v in views]
    assert calls == []
    assert all(np.array_equal(s, samples[0]) for s in samples)
    # L = 0 is the initial pair alone, L = 1 adds the b letter's step
    A = transfer.szego_matrices(-0.5, cmath.exp(0.25j))
    step = 0.5 * np.linalg.norm(A @ [1.0, 1.0]) ** 2
    assert samples[0][0, 0, 0] == 1.0
    assert abs(samples[0][0, 0, 1] - (1.0 + step)) < 1e-14


@pytest.mark.parametrize("alphabet, theta, rows", [((0.5, -0.5), 0.0, 1),
                                                   ((0.9, -0.9), math.pi, 4)])
def test_norm_squares_steps_the_rows_whose_gram_tables_disagree(alphabet, theta, rows,
                                                                monkeypatch):
    # at z = 1 the real letters share the eigenvector (1, 1), along which
    # the solution decays, so its x* G x cancels to nothing; at z = -1 the
    # word products of (0.9, -0.9) cancel, and the base and check tables
    # stray by up to 1.5e-3 and 1.4e-2.  The tables disagree on exactly
    # those rows (one, and all four), which read the loop
    seq = coeffs.make_sturmian(*alphabet, GOLDEN)
    z = cmath.exp(1j * theta)
    Ls = [2 ** k for k in range(6, 14)]
    inits = [[1.0, sign * np.conj(lam)] for lam in (1.0, 1j) for sign in (1.0, -1.0)]
    loop = transfer.norm_profile_batch(seq, [z] * 4, inits, Ls[-1])[:, Ls]
    base = _gram_route(seq, [z], inits, Ls)[0]
    with np.errstate(invalid="ignore"):  # inf - inf where both escape
        assert np.nanmax(np.abs(base - loop) / loop) > 1e-3
    calls = _spy_loop(monkeypatch)
    got = transfer.norm_squares(seq, [z], inits, Ls)[0]
    assert calls == [(rows, Ls[-1])]
    assert np.array_equal(got[0], loop[0])
    both = np.isfinite(got) & np.isfinite(loop)
    assert np.allclose(got[both], loop[both], rtol=GRAM_RTOL, atol=0.0)


def test_norm_squares_escape_reads_inf_in_a_gap():
    # theta = 2 lies in a gap: like the loop's rows, every sample reads inf
    # from L = 2048 on, never NaN
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    Ls = [2 ** k for k in range(6, 14)]
    inits = [[1.0, sign * np.conj(lam)] for lam in (1.0, 1j) for sign in (1.0, -1.0)]
    got = transfer.norm_squares(seq, [cmath.exp(2.0j)], inits, Ls)[0]
    loop = transfer.norm_profile_batch(seq, cmath.exp(2.0j), inits, Ls[-1])[:, Ls]
    assert np.array_equal(np.isinf(got), np.isinf(loop))
    assert np.all(np.isfinite(got[:, :Ls.index(2048)]))
    assert np.all(got[:, Ls.index(2048):] == np.inf)


def test_norm_profile_batch_reads_an_explicit_list_zero_extended():
    values = [0.1, 0.2 + 0.1j, -0.3]
    z, inits = cmath.exp(0.5j), [(1.0, 1.0), (1.0, -1j)]
    short = transfer.norm_profile_batch(coeffs.make_explicit(values), [z], inits, 300)
    padded = coeffs.make_explicit(values + [0.0] * 300)
    assert np.array_equal(short, transfer.norm_profile_batch(padded, [z], inits, 300))


def test_norm_profile_batch_rejects_a_negative_length():
    # as cocycle_product does for a negative L; n_max = 0 is the initial pair
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    with pytest.raises(ValueError, match="n_max"):
        transfer.norm_profile_batch(seq, [0.5], [(1.0, 1.0)], -1)
    assert transfer.norm_profile_batch(seq, [0.5, 2.0], [(1.0, 1.0)], 0).tolist() == [[1.0]] * 2


def test_propagation_loops_and_letters_use_the_szego_matrix():
    # each profile increment is half the squared norm of the pair that the
    # matrix product carries from the initial pair
    seq = coeffs.make_sturmian(0.4 + 0.2j, -0.5, GOLDEN)
    z = 1.05 * cmath.exp(0.8j)
    inits = [(1.0, 1.0), (1.0, -1j)]
    batch = transfer.norm_profile_batch(seq, [z], inits, 40)
    for row, init in zip(batch, inits):
        scalar = transfer.norm_profile(seq, z, init, 40)
        for j in (1, 2, 7, 23, 40):
            pair = transfer.cocycle_product(seq, z, j) @ np.array(init)
            step = 0.5 * np.linalg.norm(pair) ** 2
            assert abs((scalar[j] - scalar[j - 1]) - step) < 1e-12 * step
            assert abs((row[j] - row[j - 1]) - step) < 1e-12 * step
    # the trace map's letter matrices are the same one-step matrix, normalized
    alphabet = (0.5, -0.3 + 0.4j)
    zs = np.exp(1j * np.array([0.3, 2.0, 4.5]))
    letters = tracemap._letter_matrices(alphabet, zs)
    for M, letter in zip(letters, alphabet):
        for g, zg in enumerate(zs):
            A = transfer.normalize_sl2(
                transfer.szego_matrices(letter, zg), zg, 1)
            assert np.allclose(M[g], A, rtol=1e-14, atol=0.0)
