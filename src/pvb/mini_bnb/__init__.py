"""Miniature MIP solver: dense simplex, MPS subset, branching rules."""

from .corpus import sparse_multiknapsack
from .mip import SENSES, MiniMip, MpsError, load_mps, save_mps
from .simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LpResult,
    LpSystem,
    SolverError,
    lp_system,
    solve_bounded_lp,
)
from .solver import (
    CUTOFF_FOUND,
    NODE_LIMIT,
    PSEUDOCOST_ONLY,
    BranchDecision,
    MipResult,
    Pseudocost,
    SbEval,
    ScanOutcome,
    SolverConfig,
    select_branching_variable,
    solve,
    strong_branch_candidate,
)

__all__ = [
    "SENSES",
    "MiniMip",
    "MpsError",
    "load_mps",
    "save_mps",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ITERATION_LIMIT",
    "NODE_LIMIT",
    "LpResult",
    "LpSystem",
    "SolverError",
    "lp_system",
    "solve_bounded_lp",
    "CUTOFF_FOUND",
    "PSEUDOCOST_ONLY",
    "BranchDecision",
    "MipResult",
    "Pseudocost",
    "SbEval",
    "ScanOutcome",
    "SolverConfig",
    "select_branching_variable",
    "solve",
    "strong_branch_candidate",
    "sparse_multiknapsack",
]
