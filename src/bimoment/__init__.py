"""Moment-based fitting and inference for covariate-adjusted bipartite
network models: degree-heterogeneity parameters for both node sets, a
fixed-dimensional covariate coefficient, structured Newton solvers
(exact Schur factorizations on small node sets, preconditioned conjugate
gradients on large ones), asymptotic standard errors with analytic bias
correction, and a Monte-Carlo laboratory."""

from .data import (
    BipartiteGraph,
    CovariateTensor,
    DegreeVector,
    MatchMapping,
    NodeAttributeTable,
    build_match_covariates,
    degrees,
    filter_by_degree,
    load_attribute_table,
    load_edge_list,
    save_edge_list,
)
from .errors import (
    BimomentError,
    ConfigError,
    DataError,
    DomainError,
    FitError,
    IllPosedError,
    MaxIterationsError,
    ModelDegeneracyError,
    NonExistenceError,
    SingularJacobianError,
)
from .families import LogisticFamily, ModelFamily, PoissonFamily, get_family
from .fitter import (
    FitOptions,
    FitResult,
    InverseApproximation,
    MomentResiduals,
    ParameterSet,
    StructuredJacobian,
    approx_inverse,
    fit,
)
from .inference import (
    Contrast,
    GammaInference,
    InferenceComponents,
    NodeStandardErrors,
    WaldTest,
    bias_corrected_coefficients,
    coefficient_covariance,
    coefficient_inference,
    components_from_fit,
    incidental_bias_expfam,
    incidental_bias_general,
    node_standard_errors,
    parse_contrast,
    report_rows,
    score_terms,
    wald_from_components,
    wald_test,
)
from .simlab import (
    ReplicationRecord,
    Scenario,
    ScenarioSummary,
    generate_covariates,
    generate_truth,
    ks_normality,
    run_scenario,
    simulate_network,
)

__version__ = "0.1.0"
