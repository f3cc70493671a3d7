"""Acceptance battery: one test per criterion, each printing its
pass/fail line.  The Hölder cross-check is soft (reported, not fatal)."""

import math

import numpy as np
import pytest

from cmvkit import coeffs, tracemap, transfer, verify


@pytest.mark.parametrize("number", range(1, 14))
def test_criterion(number, capsys):
    result = verify.ALL_CRITERIA[number - 1]()
    with capsys.disabled():
        print()
        print(result.line())
    if result.severity == "hard":
        assert result.passed, result.details
    else:
        # soft criterion: the computation must complete and report;
        # band violations are recorded in the emitted details
        assert result.measured, result.details


def test_criterion_8_draws_the_same_points():
    # the 1000 F of criterion 8, drawn one scalar at a time, re then im
    rng = np.random.default_rng(1)
    drawn = [complex(rng.uniform(0.01, 4.0), rng.uniform(-4.0, 4.0))
             for _ in range(1000)]
    assert verify._mobius_points().tolist() == drawn


def _full_route_points(alphabet, counts):
    """`certified_spectrum_points` for each of `counts`, with every mask
    candidate propagated."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    cand = np.where(verify._spectrum_mask(alphabet, tracemap.golden_cf(22), thetas, 16))[0]
    seq = coeffs.make_sturmian(*alphabet, coeffs.GOLDEN_MEAN)
    zs = np.exp(1j * thetas[cand])
    Ls = [2 ** k for k in range(6, 14)]
    lx = np.log(np.array(Ls, dtype=float))
    worst = np.full(len(cand), -np.inf)
    for sign in (1.0, -1.0):
        init = np.stack([np.ones(len(zs)), sign * np.ones(len(zs))], axis=-1)
        ly = 0.5 * np.log(transfer.norm_profile_batch(seq, zs, init, Ls[-1])[:, Ls])
        for i in range(len(Ls)):
            for j in range(i + 1, len(Ls)):
                worst = np.maximum(worst, (ly[:, j] - ly[:, i]) / (lx[j] - lx[i]))
    points = []
    for count in counts:
        picked = []
        for idx in np.argsort(worst):
            th = float(thetas[cand[idx]])
            if all(min(abs(th - p), 2.0 * math.pi - abs(th - p)) > 0.15 for p in picked):
                picked.append(th)
            if len(picked) == count:
                break
        points.append(sorted(picked))
    return points


def _spy_rows(monkeypatch):
    rows = []
    batch = transfer.norm_profile_batch

    def spy(seq, zs, *args):
        rows.append(np.size(zs))
        return batch(seq, zs, *args)

    monkeypatch.setattr(transfer, "norm_profile_batch", spy)
    return rows


@pytest.mark.parametrize("alphabet", [(0.5, -0.5), (0.3, -0.3)])
def test_certified_points_mirror_pairs(alphabet, monkeypatch):
    # a real alphabet propagates one angle of each mirror pair theta,
    # 2 pi - theta; the twins tie exactly and rank in grid order, which
    # picks the lower twin where the full route's rounding did too
    rows = _spy_rows(monkeypatch)
    got = [verify.certified_spectrum_points(alphabet, count).tolist() for count in (1, 4)]
    assert got == _full_route_points(alphabet, (1, 4))
    thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    cand = np.where(verify._spectrum_mask(alphabet, tracemap.golden_cf(22), thetas, 16))[0]
    reps = len(set(np.minimum(cand, (4096 - cand) % 4096).tolist()))
    assert rows[:4] == [reps] * 4 and reps < len(cand)


def test_certified_points_complex_alphabet_propagates_every_candidate(monkeypatch):
    alphabet = (0.5, 0.5j)
    rows = _spy_rows(monkeypatch)
    verify.certified_spectrum_points(alphabet, 1)
    thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    cand = np.where(verify._spectrum_mask(alphabet, tracemap.golden_cf(22), thetas, 16))[0]
    assert rows == [len(cand), len(cand)]
