"""Verblunsky coefficient sequences.

A sequence maps integer indices to coefficients alpha(n) in the open unit
disk, with rho(n) = sqrt(1 - |alpha(n)|^2).  One-sided sequences live on
n >= 0, two-sided ones on all of Z.  All sequences are immutable and
deterministic, so they are safe to share between threads and to memoize on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (DegenerateRhoError, FrequencyRangeError, ModulusError,
                     SupportError)
from .table import write_csv

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

_GOLDEN_TOL = 1e-15


def is_golden_mean(omega: float) -> bool:
    """The one test of the golden mean: there the floor is exact and the
    Sturmian word has a `golden_route`."""
    return abs(omega - GOLDEN_MEAN) < _GOLDEN_TOL


# 5 k^2 and (m + 1)^2 with m = floor(sqrt(5) |k|) stay below 2^63
_FLOOR_INT64_MAX = 1_350_000_000


def _floor_multiple(lo: int, hi: int, omega: float) -> np.ndarray:
    """floor(k * omega) for k in [lo, hi), exact at the golden mean.

    There floor(|k| omega) = (isqrt(5 k^2) - |k|) // 2.  While |k| <= 1.35e9
    the root is the float64 one moved by at most one in int64; a range
    reaching past that is read site by site in Python integers of any size.
    """
    golden = is_golden_mean(omega)
    if max(-lo, hi - 1) > _FLOOR_INT64_MAX:
        return np.array([_floor_golden(k) if golden else math.floor(k * omega)
                         for k in range(lo, hi)], dtype=object)
    k = np.arange(lo, hi, dtype=np.int64)
    if not golden:
        return np.floor(k * omega).astype(np.int64)
    a = np.abs(k)
    s = 5 * a * a
    m = np.sqrt(s.astype(float)).astype(np.int64)
    m -= m * m > s
    m += (m + 1) * (m + 1) <= s
    f = (m - a) // 2
    return np.where(k < 0, -f - 1, f)  # as in _floor_golden


def _floor_golden(k: int) -> int:
    f = (math.isqrt(5 * k * k) - abs(k)) // 2
    # k*omega is irrational for k != 0, so floor(-x) = -floor(x) - 1
    return -f - 1 if k < 0 else f


def _sturmian_word(lo: int, hi: int, omega: float) -> np.ndarray:
    """v(n) = floor((n+1)*omega) - floor(n*omega) for n in [lo, hi)."""
    return np.diff(_floor_multiple(lo, hi + 1, omega))


def rho_of(alpha, nonzero: bool = False):
    """rho = sqrt(1 - |alpha|^2), elementwise over an array or for one
    coefficient, clipped to 0 outside the open disk.

    With nonzero=True a rho at or below 1e-12 raises DegenerateRhoError:
    the Szegő recurrence divides by it.
    """
    a = np.asarray(alpha, dtype=complex)
    r = np.sqrt(np.maximum(1.0 - (a.real * a.real + a.imag * a.imag), 0.0))
    if nonzero and np.any(r <= 1e-12):
        raise DegenerateRhoError("rho vanished inside the requested range")
    return r if r.ndim else float(r)


def _check_modulus(a: complex) -> complex:
    a = complex(a)
    if not abs(a) < 1.0:  # also rejects NaN
        raise ModulusError(f"|alpha| = {abs(a)} >= 1")
    return a


class VerblunskySequence:
    """Base interface: alpha_array(lo, hi), the one coefficient reader,
    with alpha(n), rho(n) and the support flag read through it.

    Each class implements `_values(lo, hi)`, vectorized over the range.
    Every site n >= 0 is defined: an explicit list reads 0 past its end.
    `alpha_array` rejects n < 0 on a one-sided sequence.

    `zero_tail` and `zero_head` state where the sequence is known to
    vanish; the default states nothing, which is always safe.
    """

    support: str  # "half" (n >= 0) or "full" (n in Z)

    def _values(self, lo: int, hi: int) -> np.ndarray:
        """A new complex array of alpha(n) for n in [lo, hi).  Sites n < 0
        of a one-sided sequence are the caller's to reject: a two-sided
        view reads its halves only at n >= 0."""
        raise NotImplementedError

    def alpha_array(self, lo: int, hi: int) -> np.ndarray:
        """Vector of alpha(n) for n in [lo, hi)."""
        hi = max(lo, hi)  # an empty range reads nothing, as range(lo, hi) does
        if self.support == "half" and lo < 0:
            raise SupportError(f"one-sided sequence queried at n = {lo}")
        return self._values(lo, hi)

    def alpha(self, n: int) -> complex:
        return complex(self.alpha_array(n, n + 1)[0])

    def zero_tail(self) -> float:
        """A site n0 >= 0 with alpha(n) = 0 at every n >= n0, or inf: the
        Schur algorithm reads F exactly at depth n0."""
        return math.inf

    def zero_head(self) -> float:
        """A site n1 with alpha(n) = 0 at every n < n1, or -inf; read only
        by the views that reflect a two-sided sequence's left half."""
        return -math.inf

    def rho(self, n: int) -> float:
        return rho_of(self.alpha(n))

    def golden_route(self):
        """((a, b), lead) when the sites n >= 0 are b^lead w, w = a b a a b ...
        the golden word over a (v = 1) and b (v = 0), else None.  The word
        tables of `transfer.norm_squares` and `caratheodory._schur_F_words`
        read every route; without one they step site by site."""
        return None

    def left_route(self):
        """The same of j -> alpha(-2 - j), the sites n <= -2 read leftwards,
        which `LeftHalf` conjugates; None on a one-sided sequence."""
        return None

    @property
    def is_two_sided(self) -> bool:
        return self.support == "full"


@dataclass(frozen=True)
class ConstantSequence(VerblunskySequence):
    value: complex
    support: str = "half"

    def _values(self, lo: int, hi: int) -> np.ndarray:
        return np.full(hi - lo, self.value, dtype=complex)

    def zero_tail(self) -> float:
        return 0 if self.value == 0 else math.inf


@dataclass(frozen=True)
class SturmianSequence(VerblunskySequence):
    """alpha(n) = v(n)*letter_a + (1-v(n))*letter_b with the Sturmian v(n)."""

    letter_a: complex
    letter_b: complex
    omega: float
    support: str = "half"

    def _values(self, lo: int, hi: int) -> np.ndarray:
        v = _sturmian_word(lo, hi, self.omega)
        return np.where(v == 1, complex(self.letter_a), complex(self.letter_b))

    def golden_route(self):
        # sites n >= 0 of either support are b w
        if is_golden_mean(self.omega):
            return (complex(self.letter_a), complex(self.letter_b)), 1
        return None

    def left_route(self):
        # v(-2 - j) = v(j + 1): the sites n <= -2 read leftwards are w
        route = self.golden_route() if self.support == "full" else None
        return None if route is None else (route[0], 0)


@dataclass(frozen=True)
class ExplicitSequence(VerblunskySequence):
    values: tuple
    support = "half"

    @cached_property
    def _hash(self) -> int:
        return hash((self.values,))  # the dataclass's own hash, taken once

    def __hash__(self) -> int:
        # memo keys hash the sequence on every lookup; a list of 2^16
        # values takes about a millisecond each time
        return self._hash

    def _values(self, lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo, dtype=complex)  # 0 past the end of the list
        a, b = max(lo, 0), min(hi, len(self.values))
        if a < b:
            out[a - lo:b - lo] = self.values[a:b]
        return out

    def zero_tail(self) -> float:
        n = len(self.values)  # one past the last nonzero stored value
        while n and self.values[n - 1] == 0:
            n -= 1
        return n


@dataclass(frozen=True)
class TwoSidedSequence(VerblunskySequence):
    """Two halves glued at the origin; negative indices map to the
    reindexed negative half via n -> -1 - n."""

    positive: VerblunskySequence
    negative: VerblunskySequence
    support = "full"

    def _values(self, lo: int, hi: int) -> np.ndarray:
        c = min(max(lo, 0), hi)  # sites [lo, c) are j = -1 - n in reverse
        neg, pos = self.negative._values(-c, -lo)[::-1], self.positive._values(c, hi)
        return np.concatenate([neg, pos]) if len(neg) else pos

    def zero_tail(self) -> float:
        return self.positive.zero_tail()

    def golden_route(self):
        return self.positive.golden_route()

    def left_route(self):
        # the sites n <= -2 are the negative half without its first site
        route = self.negative.golden_route()
        return None if route is None or route[1] == 0 else (route[0], route[1] - 1)

    def zero_head(self) -> float:
        # negative(j) sits at n = -1 - j
        return -self.negative.zero_tail()


@dataclass(frozen=True)
class RightHalf(VerblunskySequence):
    """One-sided view n -> base(n), n >= 0, of a two-sided sequence."""

    base: VerblunskySequence
    support = "half"

    def _values(self, lo: int, hi: int) -> np.ndarray:
        return self.base._values(lo, hi)

    def zero_tail(self) -> float:
        return self.base.zero_tail()

    def golden_route(self):
        return self.base.golden_route()


@dataclass(frozen=True)
class LeftHalf(VerblunskySequence):
    """One-sided view j -> conj(base(-2 - j)); used to express the left
    half of a split two-sided operator in standard one-sided form."""

    base: VerblunskySequence
    support = "half"

    def _values(self, lo: int, hi: int) -> np.ndarray:
        return np.conj(self.base._values(-1 - hi, -1 - lo)[::-1])

    def zero_tail(self) -> float:
        return max(0, -1 - self.base.zero_head())

    def golden_route(self):
        route = self.base.left_route()
        return None if route is None else (tuple(x.conjugate() for x in route[0]), route[1])


def make_constant(a: complex, support: str = "half") -> ConstantSequence:
    """Constant sequence alpha(n) = a on the requested support."""
    return ConstantSequence(_check_modulus(a), support)


def make_sturmian(alpha: complex, beta: complex, omega: float,
                  support: str = "half") -> SturmianSequence:
    """Sturmian sequence over the alphabet (alpha, beta) at frequency omega."""
    if not 0.0 < omega < 1.0:
        raise FrequencyRangeError(f"omega = {omega} outside (0, 1)")
    return SturmianSequence(_check_modulus(alpha), _check_modulus(beta),
                            float(omega), support)


def make_explicit(values: Sequence[complex]) -> ExplicitSequence:
    vals = tuple(map(complex, values))
    # the moduli alone, not a complex copy of a list that may be 2^16 long
    bad = ~(np.fromiter(map(abs, vals), float, len(vals)) < 1.0)  # also flags NaN
    if bad.any():
        _check_modulus(vals[bad.argmax()])  # the first offender's error
    return ExplicitSequence(vals)


def extend_two_sided(positive: VerblunskySequence,
                     negative: VerblunskySequence) -> TwoSidedSequence:
    """Glue two one-sided sequences into a two-sided one.

    The positive half keeps its indices; the negative half is reindexed
    onto n <= -1 via n = -1 - j, so negative.alpha(0) sits at n = -1.
    """
    if positive.support != "half" or negative.support != "half":
        raise SupportError("extend_two_sided expects two one-sided sequences")
    return TwoSidedSequence(positive, negative)


def write_coeffs_csv(seq: VerblunskySequence, lo: int, hi: int, path) -> None:
    """Dump columns n, re_alpha, im_alpha, rho for n in [lo, hi)."""
    a = seq.alpha_array(lo, hi)
    write_csv(path, ["n", "re_alpha", "im_alpha", "rho"],
              [np.arange(lo, hi), a.real, a.imag, rho_of(a)])
