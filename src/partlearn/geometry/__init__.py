"""Convex geometry over the corner simplex: polytopes, hulls, sections, LP."""

from .polytope import (
    Face,
    HPolytope,
    VPolytope,
    all_faces,
    corner_simplex_hpolytope,
    corner_simplex_vertices,
    empty_polytope,
)
from .hull import PointHull, convex_hull
from .lp import LPError, LPInfeasible, LPUnbounded, chebyshev, solve_lp
from .sections import (
    cross_section,
    enumerate_k_faces,
    face_lift,
    gamma_interior,
    section_lift,
    slice_polytope,
)
from .thickness import diameter, grid_thickness, vpolytope_thickness

__all__ = [
    "Face", "HPolytope", "VPolytope", "all_faces",
    "corner_simplex_hpolytope", "corner_simplex_vertices", "empty_polytope",
    "PointHull", "convex_hull",
    "LPError", "LPInfeasible", "LPUnbounded", "chebyshev", "solve_lp",
    "cross_section", "enumerate_k_faces", "face_lift", "gamma_interior",
    "section_lift", "slice_polytope",
    "diameter", "grid_thickness", "vpolytope_thickness",
]
