"""Learning convex polytope partitions of a simplex from membership queries,
and computing approximate well-supported equilibria from best-response
queries."""

__version__ = "0.1.0"

from .bimatrix import (BimatrixGame, BrOracles, GuardedGame, PayoffAudit, PayoffAuditError,
                       WsneCertificate, best_value, br_oracle, br_partition, lower_bound_game,
                       make_br_oracles, pure_utilities, solve_wsne, utilities, verify_wsne)
from .cdgbs import GbsConfig, cd_gbs, cd_gbs_adversarial, cdgbs_query_bound
from .coverage import CoverageReport, SimplexSlab, simplex_lattice, verify_eps_net
from .crgbs import CrConfig, cr_gbs
from .labelling import EmpiricalLabelling, interior_conflict, is_eps_close, voronoi_labels
from .multiplayer import (NormalFormGame, build_net, expected_utility,
                          learn_multiplayer_labellings, make_multi_oracles,
                          solve_wsne_multiplayer, verify_wsne_multiplayer)
from .partition import (Oracle, PartitionGroundTruth, QueryBudgetError, QueryLog, UEPP,
                        critical_coordinates, make_oracle, random_uepp, uepp_cells)
