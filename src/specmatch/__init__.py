"""Distance spectral radius thresholds for perfect and fractional matchings.

Build the extremal hub-and-cliques families, compute certified distance
spectra, decide perfect and fractional matchings with certificates, work the
quotient-matrix algebra exactly, and run the verification suites behind the
threshold statements.
"""

from .graphs import (
    CapacityError,
    FamilySpec,
    Graph,
    Graph6Error,
    ParameterError,
    barrier_family,
    complete_graph,
    components,
    disjoint_union,
    empty_graph,
    extremal_family,
    extremal_partition,
    family_partition,
    is_connected,
    is_k_connected,
    isolated_count,
    join,
    mask_from_vertices,
    matches_clique_join,
    odd_component_counts,  # int8 numpy array of o(G[T]), indexed by vertex mask T
    odd_components,
    parse_edge_list,
    parse_graph6,
    universal_mask,
    vertices_from_mask,
    write_edge_list,
    write_graph6,
)
from .matching import (
    FractionalWitness,
    IsolationCertificate,
    Matching,
    TutteCertificate,
    fractional_certificate,
    has_fractional_pm,
    has_fractional_pm_exhaustive,
    has_perfect_matching,
    has_pm_bruteforce,
    matching_certificate,
    matching_number,
    max_matching,
    tutte_deficiency_bruteforce,
)
from .spectra import (
    DisconnectedError,
    SpectralEstimate,
    distance_matrix,
    distance_spectral_radius,
    wiener_index,
)
from .quotient import (
    CertifiedRoot,
    ExactPolynomial,
    char_poly,
    family_quartic,
    family_quartic_root,
    gap_bound_at_radius_floor,
    gap_bound_cubic,
    gap_bound_cubic_deriv,
    gap_bound_floor_deriv,
    hub_gap_coefficient,
    quotient_matrix,
)
from .harness import (
    SuiteReport,
    corollary_comparison,
    enumerate_graphs,
    identity_suite,
    lemma_suites,
    pm_threshold_scan,
    probe_extremal_bound,
    random_connected_graph,
    replay_violation,
    threshold_reference,
    verify_extremal_family,
    verify_ordering_chain,
)

__version__ = "0.1.0"
