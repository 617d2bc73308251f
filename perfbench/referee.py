"""Independent MIP referee for the benchmark's correctness checks.

It solves the same data the benchmark hands to pvb with scipy's HiGHS
branch and bound, and it never imports pvb. It is not
tests/oracles.linprog_lp: that helper maps HiGHS status 2 straight to
"infeasible", which the ROADMAP lists as a known defect. Here any status
other than optimal raises, so a referee failure cannot pass as an answer.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


class RefereeError(RuntimeError):
    """HiGHS did not certify an optimum for an instance the benchmark uses."""


def milp_objective(objective, matrix, senses, rhs, lower, upper, integer) -> float:
    """Optimal objective of min c @ x s.t. rows (senses) rhs, bounds, integrality."""
    c = np.asarray(objective, dtype=float)
    a = np.asarray(matrix, dtype=float).reshape(len(senses), len(c))
    b = np.asarray(rhs, dtype=float)
    row_lo = np.where([s in (">=", "=") for s in senses], b, -np.inf)
    row_hi = np.where([s in ("<=", "=") for s in senses], b, np.inf)
    res = milp(
        c,
        integrality=np.asarray(integer, dtype=int),
        bounds=Bounds(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)),
        constraints=LinearConstraint(a, row_lo, row_hi),
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RefereeError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun)
