"""Verblunsky coefficient sequences.

A sequence maps integer indices to coefficients alpha(n) in the open unit
disk, with rho(n) = sqrt(1 - |alpha(n)|^2).  One-sided sequences live on
n >= 0, two-sided ones on all of Z.  All sequences are immutable and
deterministic, so they are safe to share between threads and to memoize on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DegenerateRhoError, FrequencyRangeError, ModulusError,
                     SupportError, WindowError)

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

_GOLDEN_TOL = 1e-15


def _floor_golden(k: int) -> int:
    """Exact floor(k * (sqrt(5)-1)/2) via integer square roots."""
    if k == 0:
        return 0
    if k < 0:
        # k*omega is irrational for k != 0, so floor(-x) = -floor(x) - 1
        return -_floor_golden(-k) - 1
    m = math.isqrt(5 * k * k)  # floor(k*sqrt(5))
    return (m - k) // 2


def sturmian_indicator(n: int, omega: float) -> int:
    """Return v(n) = floor((n+1)*omega) - floor(n*omega).

    For the golden mean the floors are evaluated in exact integer
    arithmetic, so the word is drift-free for arbitrarily large |n|.
    """
    if abs(omega - GOLDEN_MEAN) < _GOLDEN_TOL:
        return _floor_golden(n + 1) - _floor_golden(n)
    return math.floor((n + 1) * omega) - math.floor(n * omega)


def fibonacci_word(length: int) -> np.ndarray:
    """Prefix of the fixed point of a -> ab, b -> a, encoded a=1, b=0."""
    word = [1]
    while len(word) < length:
        word = [x for w in word for x in ((1, 0) if w else (1,))]
    return np.array(word[:length], dtype=np.int8)


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
    if abs(a) >= 1.0:
        raise ModulusError(f"|alpha| = {abs(a)} >= 1")
    return a


class VerblunskySequence:
    """Base interface: alpha(n), rho(n) and the support flag."""

    support: str  # "half" (n >= 0) or "full" (n in Z)

    def alpha(self, n: int) -> complex:
        raise NotImplementedError

    def rho(self, n: int) -> float:
        return rho_of(self.alpha(n))

    @property
    def is_two_sided(self) -> bool:
        return self.support == "full"

    def _check_index(self, n: int) -> None:
        if self.support == "half" and n < 0:
            raise SupportError(f"one-sided sequence queried at n = {n}")

    def alpha_array(self, lo: int, hi: int) -> np.ndarray:
        """Vector of alpha(n) for n in [lo, hi)."""
        return np.array([self.alpha(n) for n in range(lo, hi)], dtype=complex)


@dataclass(frozen=True)
class ConstantSequence(VerblunskySequence):
    value: complex
    support: str = "half"

    def alpha(self, n: int) -> complex:
        self._check_index(n)
        return self.value

    def alpha_array(self, lo: int, hi: int) -> np.ndarray:
        if self.support == "half" and lo < 0:
            raise SupportError("one-sided sequence queried at negative index")
        return np.full(hi - lo, self.value, dtype=complex)


@dataclass(frozen=True)
class SturmianSequence(VerblunskySequence):
    """alpha(n) = v(n)*letter_a + (1-v(n))*letter_b with the Sturmian v(n)."""

    letter_a: complex
    letter_b: complex
    omega: float
    support: str = "half"

    def indicator(self, n: int) -> int:
        self._check_index(n)
        return sturmian_indicator(n, self.omega)

    def alpha(self, n: int) -> complex:
        v = self.indicator(n)
        return self.letter_a if v else self.letter_b

    def alpha_array(self, lo: int, hi: int) -> np.ndarray:
        if self.support == "half" and lo < 0:
            raise SupportError("one-sided sequence queried at negative index")
        v = np.array([sturmian_indicator(n, self.omega) for n in range(lo, hi)])
        return np.where(v == 1, complex(self.letter_a), complex(self.letter_b))


@dataclass(frozen=True)
class ExplicitSequence(VerblunskySequence):
    values: tuple
    support: str = "half"

    def alpha(self, n: int) -> complex:
        self._check_index(n)
        if not 0 <= n < len(self.values):
            raise WindowError(f"explicit sequence has no entry at n = {n}")
        return self.values[n]


@dataclass(frozen=True)
class TwoSidedSequence(VerblunskySequence):
    """Two halves glued at the origin; negative indices map to the
    reindexed negative half via n -> -1 - n."""

    positive: VerblunskySequence
    negative: VerblunskySequence
    support: str = "full"

    def alpha(self, n: int) -> complex:
        if n >= 0:
            return self.positive.alpha(n)
        return self.negative.alpha(-1 - n)


@dataclass(frozen=True)
class ShiftedSequence(VerblunskySequence):
    base: VerblunskySequence
    offset: int
    support: str = "half"

    def alpha(self, n: int) -> complex:
        self._check_index(n)
        return self.base.alpha(n + self.offset)


@dataclass(frozen=True)
class ConjugateReflectedSequence(VerblunskySequence):
    """One-sided view j -> conj(base(start - j)); used to express the left
    half of a split two-sided operator in standard one-sided form."""

    base: VerblunskySequence
    start: int
    support: str = "half"

    def alpha(self, n: int) -> complex:
        self._check_index(n)
        return complex(self.base.alpha(self.start - n)).conjugate()


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


def make_explicit(values: Sequence[complex], support: str = "half") -> ExplicitSequence:
    return ExplicitSequence(tuple(_check_modulus(v) for v in values), support)


def extend_two_sided(positive: VerblunskySequence,
                     negative: VerblunskySequence) -> TwoSidedSequence:
    """Glue two one-sided sequences into a two-sided one.

    The positive half keeps its indices; the negative half is reindexed
    onto n <= -1 via n = -1 - j, so negative.alpha(0) sits at n = -1.
    """
    if positive.support != "half" or negative.support != "half":
        raise SupportError("extend_two_sided expects two one-sided sequences")
    return TwoSidedSequence(positive, negative)


def shifted(seq: VerblunskySequence, m: int) -> VerblunskySequence:
    """View of alpha(n + m).  One-sided sequences shift only forward."""
    if seq.support == "half" and m < 0:
        raise SupportError("cannot shift a one-sided sequence backwards")
    return ShiftedSequence(seq, m, seq.support)


def write_coeffs_csv(seq: VerblunskySequence, lo: int, hi: int, path) -> None:
    """Dump columns n, re_alpha, im_alpha, rho for n in [lo, hi)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "re_alpha", "im_alpha", "rho"])
        for n in range(lo, hi):
            a = seq.alpha(n)
            writer.writerow([n, repr(float(a.real)), repr(float(a.imag)),
                             repr(float(seq.rho(n)))])
