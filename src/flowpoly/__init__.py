"""Exact-arithmetic toolkit for flow polytopes: Kostant flow counting,
Ehrhart polynomials, closed-form volume and lattice-point formulas,
reduction trees, and unimodular dissections, all cross-checkable against
brute-force oracles."""

from .multigraph import (
    DegreeStats,
    DirectedMultigraph,
    GraphFormatError,
    NetflowVector,
    apply_incidence,
    attach_source,
    complete_graph,
    degree_stats,
    format_graph,
    parse_graph,
    read_graph,
    write_graph,
)
from .kostant import (
    EhrhartPolynomial,
    FlowCounter,
    FlowInstance,
    count_flows,
    ehrhart_polynomial,
    enumerate_flows,
    iter_flows,
    normalized_volume_oracle,
    reciprocity_volume,
)
from .lidskii import (
    LidskiiTerms,
    dominant_compositions,
    in_plus_c_netflow,
    lidskii_count,
    lidskii_count_c_form,
    lidskii_volume,
    multiset_coeff,
)
from .geometry import (
    AmbientLattice,
    VerificationReport,
    contains_flow,
    is_unimodular,
    unit_source_sink_netflow,
    verify_dissection,
    verify_in_vector_bijection,
)
from .reduction import (
    DEFAULT_NODE_CAP,
    LeafShapeError,
    NodeCapExceeded,
    NoncrossingTree,
    ProvenancedGraph,
    ReductionTree,
    SimplexCell,
    canonical_reduction_tree,
    census_to_json,
    dissection_cell_counts,
    enumerate_noncrossing_trees,
    iter_reduction_leaves,
    leaf_census,
    reduce_at_vertex,
    tree_census,
    unimodular_dissection,
    zero_vertex_dissection_children,
)

__version__ = "0.1.0"
