"""Spectral analysis of regular graphs and symmetric association schemes.

The package verifies, numerically and with exact arithmetic where it
matters, a cluster of forced-structure results: graphs with many vertices
relative to the degree/diameter bound have pinned eigenprojector entries
at maximal distance; schemes with many points are P-polynomial; spherical
few-distance sets large against the absolute bound force eigenvalues of
their distance graphs; and the dual statements yield Q-polynomial
structure.
"""

from .errors import (
    AnalysisError,
    DegenerateElementError,
    DenseLimitError,
    GramError,
    GraphStructureError,
    MethodsDisagreeError,
    ParseError,
    SchemeAxiomError,
    SchurDisconnectedError,
    ToleranceAmbiguityError,
)
from .generators import (
    FamilySpec,
    build_graph,
    build_scheme,
    classical_intersection_numbers,
    family_parameters,
)
from .graphs import (
    Graph,
    GraphAnalysis,
    ProjectorFamily,
    analyze_graph,
    distance_data,
    format_edge_list,
    girth,
    k_factor_fraction,
    moore_bound,
    parse_edge_list,
    spectral_projectors,
)
from .numerics import (
    DEFAULT_MAX_DENSE,
    DEFAULT_TOL,
    EigenClusters,
    eigen_clusters,
)
from .polyprops import (
    INCONCLUSIVE,
    NOT_POLYNOMIAL,
    POLYNOMIAL,
    PolyVerdict,
    SchemeAnalysis,
    analyze_scheme,
    check_p_large,
    check_product_formula_P,
    check_product_formula_Q,
    check_q_large,
    p_polynomial_ordering,
    q_polynomial_ordering,
)
from .reports import TheoremReport, any_failed, reports_from_json, reports_to_json
from .schemes import (
    RelationPartition,
    SchemeParameters,
    eigenmatrices,
    format_intersection_tensor,
    format_relation_matrix,
    idempotents,
    krein_parameters,
    parametric_parameters,
    parse_intersection_tensor,
    parse_relation_matrix,
    validate_scheme,
)
from .spherical import (
    SphericalSet,
    absolute_bound,
    format_gram_matrix,
    from_gram,
    from_idempotent,
    parse_gram_matrix,
    schur_diameter,
    verify_sphere_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "DegenerateElementError",
    "DenseLimitError",
    "GramError",
    "GraphStructureError",
    "MethodsDisagreeError",
    "ParseError",
    "SchemeAxiomError",
    "SchurDisconnectedError",
    "ToleranceAmbiguityError",
    "FamilySpec",
    "build_graph",
    "build_scheme",
    "classical_intersection_numbers",
    "family_parameters",
    "Graph",
    "GraphAnalysis",
    "ProjectorFamily",
    "analyze_graph",
    "distance_data",
    "format_edge_list",
    "girth",
    "k_factor_fraction",
    "moore_bound",
    "parse_edge_list",
    "spectral_projectors",
    "DEFAULT_MAX_DENSE",
    "DEFAULT_TOL",
    "EigenClusters",
    "eigen_clusters",
    "INCONCLUSIVE",
    "NOT_POLYNOMIAL",
    "POLYNOMIAL",
    "PolyVerdict",
    "SchemeAnalysis",
    "analyze_scheme",
    "check_p_large",
    "check_product_formula_P",
    "check_product_formula_Q",
    "check_q_large",
    "p_polynomial_ordering",
    "q_polynomial_ordering",
    "TheoremReport",
    "any_failed",
    "reports_from_json",
    "reports_to_json",
    "RelationPartition",
    "SchemeParameters",
    "eigenmatrices",
    "format_intersection_tensor",
    "format_relation_matrix",
    "idempotents",
    "krein_parameters",
    "parametric_parameters",
    "parse_intersection_tensor",
    "parse_relation_matrix",
    "validate_scheme",
    "SphericalSet",
    "absolute_bound",
    "format_gram_matrix",
    "from_gram",
    "from_idempotent",
    "parse_gram_matrix",
    "schur_diameter",
    "verify_sphere_theorem",
    "__version__",
]
