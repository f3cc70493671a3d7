import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvkit import caratheodory, coeffs, operator, spectral, transfer
from cmvkit.errors import FrequencyRangeError, ModulusError, SupportError

GOLDEN = coeffs.GOLDEN_MEAN
# |k| beyond which the golden floor leaves int64 for math.isqrt
SWITCH = 1_350_000_000


def fibonacci_word(length: int) -> np.ndarray:
    """Prefix of the fixed point of a -> ab, b -> a, encoded a=1, b=0."""
    word = [1]
    while len(word) < length:
        word = [x for w in word for x in ((1, 0) if w else (1,))]
    return np.array(word[:length], dtype=np.int8)


def test_golden_indicator_prefix():
    # direct evaluation of the floor formula
    v = coeffs._sturmian_word(0, 5, GOLDEN).tolist()
    assert v == [0, 1, 0, 1, 1]


def test_sturmian_prefix_letters():
    seq = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    assert [seq.alpha(n) for n in range(5)] == [-0.5, 0.5, -0.5, 0.5, 0.5]


def test_substitution_word_oracle():
    # the indicator word equals the substitution fixed point shifted by one:
    # v(n+1) = f(n) with f the fixed point of a -> ab, b -> a (a = 1)
    N = 10946  # a Fibonacci number, covers deep prefixes
    f = fibonacci_word(N)
    v = coeffs._sturmian_word(0, N + 1, GOLDEN)
    assert np.array_equal(f, v[1:])
    assert v[0] == 0


def test_balancedness():
    # number of ones among v(0..N-1) telescopes to floor(N * omega)
    for N in (10, 137, 4181, 100000):
        ones = int(np.sum(coeffs._sturmian_word(0, N, GOLDEN)))
        assert abs(ones - N * GOLDEN) < 1.0


def test_exact_floor_against_mpmath():
    mp.mp.dps = 60
    omega = (mp.sqrt(5) - 1) / 2
    ks = [10 ** 6, 10 ** 6 + 1, 832040, 7, 10 ** 7 + 123, -1, -7, -832040,
          -10 ** 7 - 123, SWITCH, SWITCH + 1, -SWITCH, -SWITCH - 1, 10 ** 15,
          2 ** 63 - 1, 2 ** 63 + 5, -2 ** 63 - 5, 10 ** 30]
    for k in ks:
        assert coeffs._floor_multiple(k, k + 1, GOLDEN)[0] == int(mp.floor(k * omega))


def _floor_golden_reference(k: int) -> int:
    # floor(k * omega) = (isqrt(5 k^2) - k) // 2 for k >= 0, and
    # floor(-x) = -floor(x) - 1 for the irrational k * omega, k != 0
    if k < 0:
        return -_floor_golden_reference(-k) - 1
    return (math.isqrt(5 * k * k) - k) // 2


def test_golden_floor_int64_matches_isqrt():
    # the int64 path up to |k| = SWITCH, and windows that straddle it
    for lo, hi in ((0, 1 << 17), (-(1 << 17), 0), ((1 << 30) - 5000, 1 << 30),
                   (SWITCH - 4000, SWITCH + 1), (-SWITCH, -SWITCH + 4000),
                   (SWITCH - 2000, SWITCH + 2000), (-SWITCH - 2000, -SWITCH + 2000)):
        expect = [_floor_golden_reference(k) for k in range(lo, hi)]
        assert np.array_equal(coeffs._floor_multiple(lo, hi, GOLDEN), expect)
    # indices past int64 read in Python integers, without overflow
    for lo, hi in ((2 ** 63 - 2, 2 ** 63 + 1), (-2 ** 63 - 1, -2 ** 63),
                   (10 ** 30, 10 ** 30 + 1)):
        expect = [_floor_golden_reference(n + 1) - _floor_golden_reference(n)
                  for n in range(lo, hi)]
        assert coeffs._sturmian_word(lo, hi, GOLDEN).tolist() == expect


def test_constant_examples():
    z = coeffs.make_constant(0.0)
    assert z.alpha(17) == 0.0 and z.rho(17) == 1.0
    s = coeffs.make_constant(0.6)
    assert abs(s.rho(3) - 0.8) < 1e-15
    coeffs.make_constant(0.99j)
    with pytest.raises(ModulusError):
        coeffs.make_constant(1.0j)


def test_degenerate_alphabet_reduces_to_constant():
    s = coeffs.make_sturmian(0.3 + 0.1j, 0.3 + 0.1j, GOLDEN)
    c = coeffs.make_constant(0.3 + 0.1j)
    for n in range(50):
        assert s.alpha(n) == c.alpha(n)


def test_frequency_range():
    with pytest.raises(FrequencyRangeError):
        coeffs.make_sturmian(0.1, 0.2, 1.5)
    with pytest.raises(FrequencyRangeError):
        coeffs.make_sturmian(0.1, 0.2, 0.0)


def test_two_sided_composition():
    pos = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    neg = coeffs.make_explicit([0.1, 0.2, 0.3])
    two = coeffs.extend_two_sided(pos, neg)
    assert two.alpha(0) == pos.alpha(0)
    assert two.alpha(-1) == 0.1 and two.alpha(-2) == 0.2
    both_zero = coeffs.extend_two_sided(coeffs.make_constant(0.0),
                                        coeffs.make_constant(0.0))
    assert both_zero.alpha(-5) == 0.0 and both_zero.alpha(5) == 0.0
    with pytest.raises(SupportError):
        coeffs.extend_two_sided(two, pos)


def test_one_sided_support_guard():
    s = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    with pytest.raises(SupportError):
        s.alpha(-1)
    assert coeffs.make_explicit([0.1]).alpha(3) == 0


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.999), st.floats(0.0, 2.0 * math.pi),
       st.integers(-50, 50))
def test_rho_identity(mod, phase, n):
    a = mod * complex(math.cos(phase), math.sin(phase))
    seq = coeffs.make_constant(a, support="full")
    assert abs(seq.alpha(n)) < 1.0
    assert abs(seq.rho(n) ** 2 + abs(seq.alpha(n)) ** 2 - 1.0) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 0.99), st.integers(0, 500))
def test_general_frequency_indicator_is_binary(omega, n):
    assert set(coeffs._sturmian_word(0, n + 1, omega).tolist()) <= {0, 1}


def test_two_sided_sturmian_matches_indicator():
    seq = coeffs.make_sturmian(0.4, -0.2, GOLDEN, support="full")
    word = coeffs._sturmian_word(-30, 30, GOLDEN)
    for n in range(-30, 30):
        expect = 0.4 if word[n + 30] else -0.2
        assert seq.alpha(n) == expect


def test_alpha_reads_its_array():
    # alpha(n) and alpha_array(lo, hi)[n - lo] are one read, bit for bit
    rng = np.random.default_rng(11)

    def explicit(n):
        return coeffs.make_explicit(rng.uniform(0, 0.9, n)
                                    * np.exp(2j * math.pi * rng.uniform(0, 1, n)))

    two = coeffs.extend_two_sided(explicit(40), explicit(30))
    right, left = operator.split_at_origin(two)
    word = coeffs.make_sturmian(0.3 + 0.2j, -0.4 - 0.1j, GOLDEN)
    cases = [
        (coeffs.make_constant(0.3 - 0.2j, support="full"), -20, 20),
        (coeffs.make_sturmian(0.4, -0.2, GOLDEN, support="full"), -50, 50),
        (coeffs.make_sturmian(0.4, -0.2, 0.3), 0, 100),
        (explicit(25), 0, 25),
        (two, -30, 40),
        (right, 0, 40),
        (left, 0, 28),
        (caratheodory.rotated(word, cmath.exp(0.9j)), 0, 2000),
    ]
    for seq, lo, hi in cases:
        a = seq.alpha_array(lo, hi)
        for n in range(lo, hi):
            assert seq.alpha(n) == a[n - lo]
            assert seq.rho(n) == coeffs.rho_of(a[n - lo])


def test_zero_tail_readers():
    # a short explicit list reads as if followed by stored zeros in every
    # reader: the Schur tail, band windows, cocycles, the spectral basis
    # check and the resolvent
    rng = np.random.default_rng(12)
    vals = 0.8 * rng.uniform(0, 1, 5) * np.exp(2j * math.pi * rng.uniform(0, 1, 5))
    short = coeffs.make_explicit(vals)
    padded = coeffs.make_explicit(np.concatenate([vals, np.zeros(600)]))
    assert np.array_equal(short.alpha_array(0, 605), padded.alpha_array(0, 605))
    zs = 0.9 * np.exp(2j * math.pi * np.arange(16) / 16)
    assert np.array_equal(caratheodory.schur_F_batch(short, zs),
                          caratheodory.schur_F_batch(padded, zs))
    for N in (6, 7, 12):
        assert np.array_equal(operator.build_finite_cmv(short, N).dense(),
                              operator.build_finite_cmv(padded, N).dense())
    for L in (6, 64):
        assert np.array_equal(transfer.cocycle_product(short, 0.7j, L),
                              transfer.cocycle_product(padded, 0.7j, L))
    free = coeffs.make_constant(0.0)
    short2, padded2 = (coeffs.extend_two_sided(s, free) for s in (short, padded))
    for n in (2, 5):
        assert (operator.spectral_basis_reach(short2, n).residuals
                == operator.spectral_basis_reach(padded2, n).residuals)
    z = 0.6 * cmath.exp(0.4j)
    xs = list(range(-6, 9))
    G = operator.resolvent_oracle_block(short2, z, 160, xs, xs)
    floor = 1e-9 * float(np.max(np.abs(G)))
    ctx_short, ctx_padded = (spectral.build_gz_context(s, z, 32) for s in (short2, padded2))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            g = spectral.gz_entry(ctx_short, x, y)
            assert g == spectral.gz_entry(ctx_padded, x, y)
            assert abs(g - G[i, j]) / max(abs(G[i, j]), floor) < 1e-8


def test_zero_tail_statements():
    # where each view says its zero tail begins, and that alpha_array
    # agrees: zeros from there on, a nonzero value just before
    short = coeffs.make_explicit([0.3, 0.0, 0.2j, 0.0, 0.0])
    fib = coeffs.make_sturmian(0.5, -0.5, GOLDEN)
    right, left = operator.split_at_origin(
        coeffs.extend_two_sided(fib, coeffs.make_explicit([0.1, 0.2, 0.4, 0.0])))
    free_right, free_left = operator.split_at_origin(
        coeffs.extend_two_sided(short, coeffs.make_constant(0.0)))
    cases = [(short, 3), (coeffs.make_constant(0.0), 0), (coeffs.make_constant(0.4), math.inf),
             (fib, math.inf), (caratheodory.rotated(short, 1j), 3), (right, math.inf),
             (left, 2), (free_right, 3), (free_left, 0)]
    for seq, tail in cases:
        assert seq.zero_tail() == tail
        if tail < math.inf:
            assert not np.any(seq.alpha_array(tail, tail + 64))
        if 0 < tail < math.inf:
            assert seq.alpha_array(tail - 1, tail)[0] != 0


def test_coeffs_csv(tmp_path):
    seq = coeffs.make_constant(0.6)
    path = tmp_path / "c.csv"
    coeffs.write_coeffs_csv(seq, 0, 4, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,re_alpha,im_alpha,rho"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and abs(float(first[3]) - 0.8) < 1e-15


class _CountingTuple(tuple):
    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_explicit_sequence_hashes_its_values_once():
    # memo keys (the M_minus convention cache, lru_cache) hash the sequence
    # on every lookup; the list is hashed once per object
    values = _CountingTuple(np.linspace(0.0, 0.5, 1 << 16).astype(complex).tolist())
    seq = coeffs.ExplicitSequence(values)
    two_sided = coeffs.extend_two_sided(seq, coeffs.make_constant(0.0))
    assert len({seq, seq, two_sided.positive}) == 1
    for _ in range(3):
        hash(two_sided)
    assert _CountingTuple.hashes == 1
    twin = coeffs.make_explicit(values)
    assert twin == seq and hash(twin) == hash(seq)
    assert hash(seq) == hash((tuple(values),))  # the dataclass's own hash


_A, _B = 0.4 + 0.2j, -0.5
_WORD = coeffs.make_sturmian(_A, _B, GOLDEN)
_FULL = coeffs.make_sturmian(_A, _B, GOLDEN, support="full")
_GLUED = coeffs.extend_two_sided(_WORD, _WORD)
_SB, _LEFT = ((_A, _B), 1), ((_A.conjugate(), _B.conjugate()), 0)


@pytest.mark.parametrize("seq, route", [
    (_WORD, _SB),
    (_FULL, _SB),
    (coeffs.make_sturmian(_A, _B, 0.618033988749895), _SB),  # one ulp off
    (coeffs.RightHalf(_FULL), _SB),
    (coeffs.LeftHalf(_FULL), _LEFT),
    (coeffs.extend_two_sided(_WORD, coeffs.make_constant(0.3)), _SB),
    (coeffs.RightHalf(_GLUED), _SB),
    (coeffs.LeftHalf(_GLUED), _LEFT),
    (coeffs.LeftHalf(coeffs.extend_two_sided(coeffs.make_constant(0.3), _WORD)), _LEFT),
    (coeffs.extend_two_sided(coeffs.make_constant(0.3), _WORD), None),
    (coeffs.make_sturmian(_A, _B, 0.4), None),
    (coeffs.make_sturmian(_A, _B, GOLDEN + 1e-14), None),
    (coeffs.LeftHalf(coeffs.make_sturmian(_A, _B, 0.4, support="full")), None),
    (coeffs.make_constant(0.3), None),
    (coeffs.make_explicit([_B, _A, _B, _A, _A]), None),
    (caratheodory.rotated(_WORD, 1j), None),
], ids=["sturmian", "sturmian-full", "sturmian-ulp", "right-half", "left-half",
        "glued", "glued-right-half", "glued-left-half", "glued-word-on-left",
        "glued-constant-right", "omega-0.4", "omega-off-by-1e-14", "left-half-0.4",
        "constant", "explicit", "rotated"])
def test_golden_route_of_every_view(seq, route):
    assert seq.golden_route() == route
    if route is not None:
        # sites n >= 0 are `lead` sites of b, then the golden word w, which
        # is the Sturmian word from site 1 on
        (a, b), lead = route
        n = 5000
        v = coeffs._sturmian_word(1, 1 + n - lead, GOLDEN)
        expect = np.concatenate([[b] * lead, np.where(v == 1, a, b)])
        assert np.array_equal(seq.alpha_array(0, n), expect)


def test_one_predicate_reads_the_golden_mean():
    assert coeffs.is_golden_mean(GOLDEN) and coeffs.is_golden_mean(0.618033988749895)
    assert not coeffs.is_golden_mean(GOLDEN + 1e-14)
    assert not coeffs.is_golden_mean(0.4) and not coeffs.is_golden_mean(math.nan)
    # wherever it holds the floor is the exact golden one
    assert np.array_equal(coeffs._floor_multiple(-10 ** 5, 10 ** 5, 0.618033988749895),
                          coeffs._floor_multiple(-10 ** 5, 10 ** 5, GOLDEN))
