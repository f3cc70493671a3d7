"""Span tracer that wraps cmvkit's public functions from outside.

The wrappers are installed on module attributes, on the `alpha_array`
methods of the sequence classes and on the two registries that hold
function references (`verify.ALL_CRITERIA`, `cli._COMMANDS`).  Calls made
inside a module look up the module attribute, so they are traced too.

Each call appends one span [name, start, end, parent, work] to a list in
memory; `summary` turns the spans into per-layer self times and counts.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from cmvkit import (caratheodory, cli, coeffs, operator, spectral, tracemap,
                    transfer, verify)

# Every function that writes a CLI artifact is traced under one span name.
WRITE = "cli.write"
_WRITERS = {
    coeffs: ["write_coeffs_csv"],
    caratheodory: ["write_boundary_csv"],
    operator: ["write_state_csv", "write_bands_csv"],
    spectral: ["write_density_csv", "write_arcmass_csv"],
    tracemap: ["write_orbit_csv", "constants_to_json"],
    transfer: ["write_norm_csv", "fit_to_json"],
    verify: ["report_to_json"],
}

_TARGETS = {
    caratheodory: ["schur_eval_F", "schur_F_batch", "schur_eval_F_adaptive",
                   "measure_oracle_F", "solve_x_of_r", "jl_ratio",
                   "jl_ratio_sweep", "alexandrov_norms", "mobius_sup_grid"],
    transfer: ["cocycle_product", "norm_profile", "norm_profile_batch",
               "solution_norm", "fit_power_law"],
    tracemap: ["orbit_sweep", "spectrum_approx", "invariant_sup", "trace_orbit",
               "gamma_constants"],
    spectral: ["lambda_r_profile", "F_extended_batch", "F_extended",
               "resolve_m_minus_convention", "build_gz_context", "gz_entry",
               "corner_trace", "holder_exponent"],
    operator: ["band_diagonals", "extended_window", "build_finite_cmv",
               "evolve_walk", "resolvent_oracle_block", "spectral_basis_reach",
               "apply_extended", "apply_extended_adjoint"],
    verify: [f"criterion_{i}" for i in range(1, 14)]
            + ["certified_spectrum_points", "run_all"],
    cli: ["main"] + [fn.__name__ for fn in cli._COMMANDS.values()],
}

_SEQUENCE_CLASSES = (coeffs.VerblunskySequence, coeffs.ConstantSequence,
                     coeffs.SturmianSequence, caratheodory.RotatedSequence)
ALPHA = "coeffs.alpha_array"

# the count that a span's work number adds to, by span name
_WORK = {
    ALPHA: f"{ALPHA}.sites",
    "caratheodory.schur_F_batch": "caratheodory.schur_F_batch.points",
    "spectral.F_extended_batch": "spectral.F_extended_batch.points",
    "transfer.norm_profile_batch": "transfer.norm_profile_batch.point_steps",
    "tracemap.orbit_sweep": "tracemap.orbit_sweep.point_levels",
    "operator.evolve_walk": "operator.evolve_walk.site_steps",
    "operator.band_diagonals": "operator.band_diagonals.rows",
}


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, work]
        self.counts = {}         # extra counts gathered from call results
        self._stack = []
        self._sites = {}         # sequence -> merged [lo, hi) intervals
        self._patches = []       # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, meter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i][2] = clock()
                stack.pop()
            if meter is not None:
                spans[i][4] = meter(spans[i][3], result, *args, **kwargs)
            return result
        return traced

    def _patch(self, owner, attr, name, meter=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, meter))

    def install(self) -> None:
        meters = {
            "caratheodory.schur_F_batch": _points_meter,
            "spectral.F_extended_batch": _points_meter,
            "transfer.norm_profile_batch": self._norm_profile_meter,
            "tracemap.orbit_sweep": _orbit_meter,
            "operator.evolve_walk": self._walk_meter,
            "operator.band_diagonals": _rows_meter,
        }
        for module, names in _TARGETS.items():
            for attr in names:
                name = f"{_layer(module)}.{attr}"
                self._patch(module, attr, name, meters.get(name))
        for module, names in _WRITERS.items():
            for attr in names:
                self._patch(module, attr, WRITE)
        for cls in _SEQUENCE_CLASSES:
            if "alpha_array" in cls.__dict__:
                self._patch(cls, "alpha_array", ALPHA, self._alpha_meter)
        _refresh_registries()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _refresh_registries()

    # -- meters: work done by one call, computed after it returns ----------

    def _add(self, key, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _alpha_meter(self, parent, result, seq, lo, hi):
        # nested calls (a rotated view asking its base) are not new sites
        if parent >= 0 and self.spans[parent][0] == ALPHA:
            return 0
        try:
            hash(seq)
            key = seq      # equal sequences share their sites
        except TypeError:
            key = id(seq)
        merged = []
        for a, b in sorted(self._sites.get(key, []) + [(lo, hi)]):
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        self._sites[key] = merged
        return hi - lo

    def _norm_profile_meter(self, parent, result, seq, zs, initials, n_max):
        self._add("transfer.norm_profile_batch.escaped",
                  int(np.count_nonzero(np.isinf(result[:, -1]))))
        return result.shape[0] * n_max

    def _walk_meter(self, parent, result, seq, psi0, k):
        width0 = len(psi0.values)
        swept = k * (width0 + 4 * k + 4)
        self._add("operator.evolve_walk.lightcone_sites",
                  k * width0 + 2 * k * (k + 1))
        return swept

    def distinct_sites(self) -> int:
        return sum(b - a for intervals in self._sites.values() for a, b in intervals)

    # -- summary -----------------------------------------------------------

    def summary(self, job_s: float) -> dict:
        """Flat metric table.  Per span name: `.s` self seconds, `.incl_s`
        inclusive seconds of its outermost calls and `.calls`; per layer
        `<layer>.s`; the work counts of _WORK and derived ratios; and
        `trace.*` for the job wall time and the time no span covers."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        self_s = dur[:]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self_s[s[3]] -= dur[i]
        out = dict.fromkeys(_WORK.values(), 0)
        out.update(self.counts)

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, (name, _, _, parent, work) in enumerate(spans):
            add(f"{name}.s", self_s[i])
            add(f"{name}.calls", 1)
            add(f"{name.split('.')[0]}.s", self_s[i])
            if not self._ancestor(i, name):
                add(f"{name}.incl_s", dur[i])
            if name in _WORK:
                add(_WORK[name], work)
            if name == ALPHA and work and self._ancestor(i, "caratheodory.schur_F_batch"):
                add("caratheodory.schur_F_batch.alpha_sites", work)
            if (name == "operator.resolvent_oracle_block" and parent >= 0
                    and spans[parent][0] == "spectral.resolve_m_minus_convention"):
                add("spectral.resolve_m_minus_convention.oracle_calls", 1)
        distinct = self.distinct_sites()
        swept = out["operator.evolve_walk.site_steps"]
        cone = out.pop("operator.evolve_walk.lightcone_sites", 0)
        out.update({
            f"{ALPHA}.redundancy": out[f"{ALPHA}.sites"] / distinct if distinct else 0.0,
            "operator.evolve_walk.lightcone_ratio": cone / swept if swept else 0.0,
            "trace.job_s": job_s,
            "trace.spans": len(spans),
            "trace.unattributed_s": job_s - sum(d for d, s in zip(dur, spans) if s[3] < 0),
        })
        return out

    def _ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False


def _refresh_registries() -> None:
    """Point the registries at whatever the module attributes now hold."""
    verify.ALL_CRITERIA[:] = [getattr(verify, fn.__name__)
                              for fn in verify.ALL_CRITERIA]
    for key, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[key] = getattr(cli, fn.__name__)


def _points_meter(parent, result, seq, zs, *args, **kwargs):
    return int(np.size(zs))


def _orbit_meter(parent, result, alphabet, cf, zs, n_max):
    return int(np.size(zs)) * n_max


def _rows_meter(parent, result, alpha, r0, r1):
    return r1 - r0
