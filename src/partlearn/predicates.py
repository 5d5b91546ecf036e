"""Shared numeric predicates and the package-wide tolerance.

All geometric comparisons route through this module so membership, equality
and tie tests use one consistent tolerance band.  Algorithmic accuracy
targets (the various eps parameters) sit far above this band.
"""

from __future__ import annotations

import numpy as np

# Predicate tolerance for membership / equality / tie tests.
ETA = 1e-9


def in_corner_simplex(x, tol: float = ETA) -> bool:
    """Membership test for the corner simplex {x >= 0, sum(x) <= 1}."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return True
    return bool(x.min() >= -tol and float(x.sum()) <= 1.0 + tol)


def as_point(x) -> np.ndarray:
    """Coerce to a 1-d float array (a point; may be 0-dimensional)."""
    p = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if not np.isfinite(p).all():
        raise ValueError("point has non-finite entries")
    return p
