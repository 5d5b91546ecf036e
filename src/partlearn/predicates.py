"""Shared numeric predicates and the package-wide tolerance.

All geometric comparisons route through this module so membership, equality
and tie tests use one consistent tolerance band.  Algorithmic accuracy
targets (the various eps parameters) sit far above this band.
"""

from __future__ import annotations

import numpy as np

# Predicate tolerance for membership / equality / tie tests.
ETA = 1e-9


def row_sum(values: list) -> float:
    """The sum of a list of floats, bit for bit as numpy sums it.  Below 8
    terms numpy's pairwise summation adds left to right, so a short list
    (a point, a reduced mix) is summed here with no array; a longer one
    goes to numpy."""
    if len(values) < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    return float(np.sum(values))


def as_point(x) -> np.ndarray:
    """Coerce to a 1-d float array (a point; may be 0-dimensional)."""
    p = np.asarray(x, dtype=float).ravel()
    if not np.isfinite(p).all():
        raise ValueError("point has non-finite entries")
    return p
