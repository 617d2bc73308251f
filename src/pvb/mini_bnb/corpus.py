"""Seeded sparse knapsack instances for exercising the solver.

Each row constrains a random item subset, which pushes the root LP to
6-11 fractional variables and gives the strong-branching scan real
choices. sparse_multiknapsack(20, 12, s, density=0.5) for s = 1, 2, ...
is the fixed-vs-dynamic comparison corpus.
"""

from __future__ import annotations

import numpy as np

from .mip import MiniMip


def sparse_multiknapsack(n_items: int, n_rows: int, seed: int, density: float = 0.5) -> MiniMip:
    """Knapsack whose rows each constrain a random item subset.

    Row tightness is drawn per row from U(0.35, 0.55). Rows that come
    out empty get one item back so the instance stays bounded away from
    the trivial all-ones solution.
    """
    if n_items < 1 or n_rows < 1:
        raise ValueError("n_items and n_rows must be >= 1")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0,1], got {density!r}")
    rng = np.random.default_rng(seed)
    values = rng.integers(10, 100, size=n_items)
    weights = rng.integers(5, 51, size=(n_rows, n_items)).astype(float)
    weights *= rng.random((n_rows, n_items)) < density
    for i in range(n_rows):
        if not weights[i].any():
            weights[i, rng.integers(0, n_items)] = rng.integers(5, 51)
    tight = rng.uniform(0.35, 0.55, size=n_rows)
    capacity = np.maximum(np.floor(tight * weights.sum(axis=1)), 1.0)
    return MiniMip(
        name=f"smk-{n_items}x{n_rows}-{seed}",
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

