"""Access methods for the selection operator (Section 4 of the paper)."""

from .basic import (
    SearchCounters,
    brute_force_matches,
    find_matches,
    scan_feasible_mates,
)
from .bipartite import has_semi_perfect_matching, hopcroft_karp
from .feasible_mates import (
    LOCAL_STRATEGIES,
    RetrievalStats,
    retrieve_feasible_mates,
)
from .neighborhood import (
    default_label,
    motif_profile,
    neighborhood_subgraph,
    neighborhood_subisomorphic,
    profile,
    profile_contained,
)
from .planner import (
    GraphMatcher,
    MatchOptions,
    MatchReport,
    baseline_options,
    optimized_options,
)
from .refinement import (
    RefinementStats,
    refine_search_space,
    space_reduction_ratio,
    space_size,
)
from .search_order import (
    CostModel,
    connected_order,
    greedy_order,
    order_cost,
)
from .statistics import GraphStatistics

__all__ = [
    "SearchCounters",
    "brute_force_matches",
    "find_matches",
    "scan_feasible_mates",
    "has_semi_perfect_matching",
    "hopcroft_karp",
    "LOCAL_STRATEGIES",
    "RetrievalStats",
    "retrieve_feasible_mates",
    "default_label",
    "motif_profile",
    "neighborhood_subgraph",
    "neighborhood_subisomorphic",
    "profile",
    "profile_contained",
    "GraphMatcher",
    "MatchOptions",
    "MatchReport",
    "baseline_options",
    "optimized_options",
    "RefinementStats",
    "refine_search_space",
    "space_reduction_ratio",
    "space_size",
    "CostModel",
    "connected_order",
    "greedy_order",
    "order_cost",
    "GraphStatistics",
]
