"""Robust symbol-level precoding under bounded linear distortion.

Library layout:

- :mod:`wcslp.realify` -- complex-to-real embeddings of channels and signals
- :mod:`wcslp.constellation` -- PSK alphabets and CI region geometry
- :mod:`wcslp.solver` -- the worst-case min-max design loop and the nominal baseline
- :mod:`wcslp.simulator` -- seeded Monte-Carlo link-level evaluation
- :mod:`wcslp.validation` -- numerical property checks used by the CLI, and
  the reference maths they use: the secular root search, one-design steps
- :mod:`wcslp.cli` -- ``solve`` / ``sweep`` / ``validate`` subcommands
"""

from .constellation import (CiGeometry, PskConstellation, build_ci_geometry,
                            ci_margin, ci_normals, ml_detect, ml_detect_many)
from .realify import (RealChannel, RealDistortionMatrix, build_real_channel,
                      build_real_distortion, embed_vector, pair_rows)
from .solver import (ProblemInstance, SolveReport, SolverConfig, nominal_slp,
                     phi, relaxed_objective, solve)
from .validation import (SolverState, apgd_t_step, count_secular_roots,
                         mu_bracket, secular_value, solve_mu, update_u,
                         worst_case_w)

__all__ = [
    "CiGeometry", "PskConstellation", "build_ci_geometry", "ci_margin",
    "ci_normals", "ml_detect", "ml_detect_many",
    "RealChannel", "RealDistortionMatrix", "build_real_channel",
    "build_real_distortion", "embed_vector", "pair_rows",
    "ProblemInstance", "SolveReport", "SolverConfig", "SolverState",
    "apgd_t_step", "count_secular_roots", "mu_bracket", "nominal_slp", "phi",
    "relaxed_objective", "secular_value", "solve", "solve_mu", "update_u",
    "worst_case_w",
]

__version__ = "0.1.0"
