"""Test-only helpers built on pvb: reference formulas, extra instance
families and writers that no pvb command reaches.

Unlike oracles.py these call into pvb, so agreement with them is not
independent evidence; they exist to build inputs and to state the abstract
model's formulas next to the tests that pin them. Imports stay to the
standard library, numpy and pvb, so test_cli.py collects without scipy.
"""

from __future__ import annotations

import csv

import numpy as np

from pvb.abstract_tree import UNBOUNDED, svb_tree_size
from pvb.gains import GAIN_FILE_HEADER, GainSeries
from pvb.lookahead import SbSession
from pvb.mini_bnb import MiniMip, sparse_multiknapsack

# ------------------------------------------------------------ lookahead


class NoUsableCandidateError(RuntimeError):
    """Every gain seen so far is zero; no finite tree can be priced yet."""


def nodes_if_stop(session: SbSession) -> int:
    """t_i: the best candidate's SVB tree plus 2 nodes per reveal."""
    if session.d_min == UNBOUNDED:
        raise NoUsableCandidateError(
            "no nonzero gain revealed yet; keep sampling"
        )
    return svb_tree_size(session.d_min) + 2 * session.iteration


# ---------------------------------------------------------------- gains


def save_gain_series(path: str, series: list[GainSeries]) -> None:
    """Write series back to the CSV schema with 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(GAIN_FILE_HEADER)
        for s in series:
            for var_id, pair in s.entries:
                writer.writerow([s.node_id, var_id, f"{pair.down:.17g}", f"{pair.up:.17g}"])


# ------------------------------------------------------------ instances


def dense(mip: MiniMip):
    """(c, A, senses, b, lo, hi) of mip as numpy arrays for the LP engine."""
    return (
        np.array(mip.objective, dtype=float),
        np.array(mip.matrix, dtype=float).reshape(mip.n_rows, mip.n_cols),
        mip.senses,
        np.array(mip.rhs, dtype=float),
        np.array(mip.lower, dtype=float),
        np.array(mip.upper, dtype=float),
    )


def multiknapsack(n_items: int, n_rows: int, seed: int, tightness: float = 0.55) -> MiniMip:
    """Binary maximization knapsack with n_rows dense capacity rows."""
    if n_items < 1 or n_rows < 1:
        raise ValueError("n_items and n_rows must be >= 1")
    if not 0.0 < tightness < 1.0:
        raise ValueError(f"tightness must be in (0,1), got {tightness!r}")
    rng = np.random.default_rng(seed)
    values = rng.integers(10, 100, size=n_items)
    weights = rng.integers(5, 51, size=(n_rows, n_items))
    capacity = np.floor(tightness * weights.sum(axis=1))
    return MiniMip(
        name=f"mk-{n_items}x{n_rows}-{seed}",
        col_names=tuple(f"x{j}" for j in range(n_items)),
        objective=tuple(-float(v) for v in values),
        row_names=tuple(f"cap{i}" for i in range(n_rows)),
        senses=("<=",) * n_rows,
        matrix=tuple(tuple(float(w) for w in row) for row in weights),
        rhs=tuple(float(v) for v in capacity),
        lower=(0.0,) * n_items,
        upper=(1.0,) * n_items,
        integer=(True,) * n_items,
    )


def toy_corpus(n_instances: int = 50) -> tuple[MiniMip, ...]:
    """The seeded corpus used for paired fixed-vs-dynamic comparisons."""
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    return tuple(
        sparse_multiknapsack(20, 12, seed, density=0.5)
        for seed in range(1, n_instances + 1)
    )


def random_binary_mip(seed: int, max_items: int = 14) -> MiniMip:
    """Small all-binary MIP with mixed senses and signed coefficients.

    Nine in ten instances anchor every row on a hidden binary point so
    they stay feasible; the rest are left unanchored and often are not.
    """
    if max_items < 2:
        raise ValueError("max_items must be >= 2")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, max_items + 1))
    m = int(rng.integers(2, 7))
    matrix = rng.integers(-9, 10, size=(m, n)).astype(float)
    mask = rng.random((m, n)) < 0.2
    matrix[mask] = 0.0
    objective = rng.integers(-50, 51, size=n).astype(float)
    senses = tuple(rng.choice(["<=", ">=", "="], p=[0.6, 0.3, 0.1]) for _ in range(m))
    anchor = rng.integers(0, 2, size=n).astype(float)
    anchored = rng.random() < 0.9
    rhs = []
    for i, sense in enumerate(senses):
        base = float(matrix[i] @ anchor) if anchored else float(rng.integers(-10, 11))
        if sense == "<=":
            rhs.append(base + float(rng.integers(0, 9)))
        elif sense == ">=":
            rhs.append(base - float(rng.integers(0, 9)))
        else:
            rhs.append(base)
    return MiniMip(
        name=f"rb-{seed}",
        col_names=tuple(f"x{j}" for j in range(n)),
        objective=tuple(objective),
        row_names=tuple(f"r{i}" for i in range(m)),
        senses=senses,
        matrix=tuple(tuple(row) for row in matrix),
        rhs=tuple(rhs),
        lower=(0.0,) * n,
        upper=(1.0,) * n,
        integer=(True,) * n,
    )
