"""Spectral toolkit for CMV and extended CMV operators.

Pipeline: Verblunsky coefficient sequences -> unitary CMV band matrices
and quantum-walk dynamics -> Szegő transfer cocycles and power-law norm
fits -> Carathéodory functions (Schur algorithm, resolvent and eigen
oracles) -> resolvent assembly for the whole-line operator -> boundary
spectral measures and Hölder-continuity exponents, with substitution
trace-map machinery and explicit growth constants for the golden-mean
model.
"""

from .coeffs import (GOLDEN_MEAN, VerblunskySequence, extend_two_sided,
                     make_constant, make_explicit, make_sturmian)
from .operator import (CMVBlock, State, apply_extended,
                       apply_extended_adjoint, build_finite_cmv, evolve_walk,
                       extended_window, resolvent_oracle_block,
                       spectral_basis_reach, split_at_origin)
from .transfer import (FitResult, branch_sqrt, cocycle_product,
                       fit_power_law, norm_profile, normalize_sl2,
                       pair_growth_exponents, solution_norm, szego_matrices)
from .caratheodory import (alexandrov_norms, jl_ratio, jl_ratio_sweep,
                           m_minus, measure_oracle_F, mobius_sup,
                           mobius_sup_grid, resolvent_oracle_F, rotated,
                           schur_eval_F, schur_eval_F_adaptive, solve_x_of_r)
from .tracemap import (ContinuedFractionData, GammaConstants, TraceOrbit,
                       cf_data, default_trace_bound, fricke_invariant,
                       gamma_constants, golden_cf, invariant_sup, orbit_sweep,
                       spectrum_approx, standard_word, trace_orbit)
from .spectral import (GZContext, HolderFit, MeasureProfile, F_extended,
                       build_gz_context, corner_trace, gz_entry,
                       holder_exponent, lambda_r_profile,
                       resolve_m_minus_convention)

__version__ = "0.1.0"
