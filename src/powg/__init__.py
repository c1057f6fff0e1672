"""Exact power graphs of finite groups and their Hosoya-type invariants,
with evaluators for the published closed forms and a verification harness
that diffs the two."""

from .groups import (
    FamilyParams,
    FiniteGroup,
    GroupError,
    GroupPartition,
    build_cyclic,
    build_family,
    cyclic_subgroup,
    cyclic_subgroups,
    element_order,
    load_cayley_table,
    partition,
)
from .graphs import (
    EdgeClassification,
    Graph,
    StructureReport,
    build_power_graph,
    classify_edges,
    connected_components,
    degree_histogram,
    export,
    induced_subgraph,
    verify_structure_theorem,
)
from .distance import (
    DistanceDistribution,
    DistanceProfile,
    RationalExponentPolynomial,
    diameter,
    distance_profile,
    hosoya_polynomial,
    rs_hosoya_polynomial,
    reciprocal_status,
    wiener_index,
)
from .matching import (
    MatchingEngine,
    MatchingLimitError,
    MatchingPolynomial,
    brute_force_matchings,
    complete_graph_matchings,
    hosoya_index,
    matching_polynomial,
    telephone_number,
)
from .formulas import (
    paper_degree_claims,
    paper_edge_type_counts,
    paper_family_sums,
    paper_hosoya_coeffs,
    paper_hosoya_index,
    paper_rs_hosoya,
)

__version__ = "0.1.0"
