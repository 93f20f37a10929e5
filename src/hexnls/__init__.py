"""Numerical toolkit for focusing NLS energy minimization on metric graphs.

Builds truncated hexagonal grids (plus line/star/square-grid comparison
graphs), stores each function as its vertex values plus uniform interior
samples per edge, evaluates and minimizes the mass-constrained NLS energy,
checks the Sobolev and Gagliardo-Nirenberg inequalities empirically,
reproduces the closed-form exponential trial-family identities, and maps
the dimensional-crossover phase diagram in (p, mass).
"""

from .analytic import (SolitonParams, build_trial_function, critical_mass_from_constant,
                       soliton_params, soliton_profile, trial_energy, trial_energy_terms,
                       trial_kinetic_integral, trial_lp_integral, trial_normalization,
                       trial_truncation_radius)
from .calculus import (Discretization, GraphFunction, constant_function, from_edge_samples,
                       from_vertex_values, gradient_norms, integrate_power, rescale_mass)
from .functionals import (RATIO_NAMES, EnergyReport, InequalityRatio, energy,
                          estimate_sharp_constant, inequality_ratio, random_corpus,
                          vertex_distances)
from .graph_core import (GraphBuilder, MetricGraph, build_graph, build_line, build_star,
                         validate)
from .honeycomb import (BridgeFamily, HoneycombLattice, PathFamily, bridge_line_index,
                        build_honeycomb, build_square_grid, decompose_bridges, decompose_paths,
                        path_coordinate)
from .solver import (BracketError, ResolutionError, SolveOutcome, SolverConfig,
                     bisect_critical_mass, demonstrate_unbounded, euler_lagrange_residual,
                     initial_function, minimize, soliton_bump, squeezed_profile)

__version__ = "0.1.0"

__all__ = [
    "BracketError", "BridgeFamily", "Discretization", "EnergyReport",
    "GraphBuilder", "GraphFunction", "HoneycombLattice", "InequalityRatio",
    "MetricGraph", "PathFamily", "RATIO_NAMES", "ResolutionError",
    "SolitonParams", "SolveOutcome", "SolverConfig",
    "bisect_critical_mass", "bridge_line_index", "build_graph", "build_honeycomb",
    "build_line", "build_square_grid", "build_star", "build_trial_function",
    "constant_function", "critical_mass_from_constant", "decompose_bridges",
    "decompose_paths", "demonstrate_unbounded", "energy",
    "estimate_sharp_constant", "euler_lagrange_residual", "from_edge_samples",
    "from_vertex_values", "gradient_norms", "initial_function", "inequality_ratio",
    "integrate_power", "minimize", "path_coordinate",
    "random_corpus", "rescale_mass", "soliton_bump", "soliton_params",
    "soliton_profile", "squeezed_profile", "trial_energy",
    "trial_energy_terms", "trial_kinetic_integral", "trial_lp_integral",
    "trial_normalization", "trial_truncation_radius", "validate", "vertex_distances",
]
