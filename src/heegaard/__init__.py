"""Exact invariants of closed oriented 3-manifolds from Heegaard gluing data.

Given the four integer blocks R, P, S, Q of a gluing matrix, the package
computes first homology with its invariant factors, the torsion linking
form, and the level-k U(1) Chern-Simons and BF partition functions as
exact finite sums of rational phases, together with independent
brute-force oracles for the closed-form claims.
"""

from .exact import (
    IntMatrix,
    PhaseQ,
    frac_mod1,
    vec_dot,
)
from .fields import FiniteDBClass, bf_action, cs_action, db_pair, zero_mode_shift
from .homology import (
    HomologyProfile,
    TorsionElements,
    TorsionRep,
    curvature_lattice_basis,
    homology_profile,
    torsion_elements,
)
from .linking import LinkingMatrix, is_nondegenerate, linking_form, linking_matrix
from .partition import (
    PhaseSum,
    eval_numeric,
    free_mode_grid_oracle,
    gauss_sum_oracle,
    z_bf,
    z_bf_closed_form,
    z_cs,
)
from .splitting import (
    GluingData,
    ValidationError,
    block_relation_violations,
    connected_sum,
    lens,
    random_splitting,
    stabilize,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "IntMatrix",
    "PhaseQ",
    "frac_mod1",
    "vec_dot",
    "FiniteDBClass",
    "bf_action",
    "cs_action",
    "db_pair",
    "zero_mode_shift",
    "HomologyProfile",
    "TorsionElements",
    "TorsionRep",
    "curvature_lattice_basis",
    "homology_profile",
    "torsion_elements",
    "LinkingMatrix",
    "is_nondegenerate",
    "linking_form",
    "linking_matrix",
    "PhaseSum",
    "eval_numeric",
    "free_mode_grid_oracle",
    "gauss_sum_oracle",
    "z_bf",
    "z_bf_closed_form",
    "z_cs",
    "GluingData",
    "ValidationError",
    "block_relation_violations",
    "connected_sum",
    "lens",
    "random_splitting",
    "stabilize",
    "validate",
]
