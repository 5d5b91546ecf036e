"""Convex geometry over the corner simplex: polytopes, hulls, sections, LP."""

from .polytope import (
    AffineMap,
    Face,
    HPolytope,
    VPolytope,
    all_faces,
    corner_simplex_hpolytope,
    corner_simplex_vertices,
    empty_polytope,
)
from .hull import PointHull, convex_hull, distance_to_hull, snap_points
from .lp import LPError, LPInfeasible, LPUnbounded, chebyshev, l1_distance_to_hull, solve_lp
from .sections import (
    cross_section,
    enumerate_k_faces,
    face_map,
    gamma_interior,
    lambda_embed,
    section_map,
    slice_polytope,
)
from .thickness import diameter, grid_thickness, vpolytope_thickness

__all__ = [
    "AffineMap", "Face", "HPolytope", "VPolytope", "all_faces",
    "corner_simplex_hpolytope", "corner_simplex_vertices", "empty_polytope",
    "PointHull", "convex_hull", "distance_to_hull", "snap_points",
    "LPError", "LPInfeasible", "LPUnbounded", "chebyshev", "l1_distance_to_hull", "solve_lp",
    "cross_section", "enumerate_k_faces", "face_map", "gamma_interior",
    "lambda_embed", "section_map", "slice_polytope",
    "diameter", "grid_thickness", "vpolytope_thickness",
]
