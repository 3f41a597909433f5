"""Dirichlet-multinomial scores for discrete Bayesian-network structure
learning, with tooling to probe where the split-weight (BDeu) score
misbehaves and the flat Jeffreys weighting does not.

The package covers the score family itself (marginal, ratio-form and
local-form conditionals), Bayesian conditional-independence decisions
with their asymptotic decomposition, a regularity auditor over nested
parent sets, exact structure search, and a CLI that drives seeded
replication experiments.
"""

from .citest import (
    CIStatistics,
    CIVerdict,
    asymptotic_residuals,
    bdeu_correction,
    ci_decide_cond,
    ci_decide_pair,
    ci_statistics,
    j_statistic,
    penalized_mutual_information,
)
from .dataset import (
    ContingencyTable,
    DataFormatError,
    Dataset,
    UnknownVariableError,
    VarSet,
    counts,
    empirical_cond_entropy,
    load_csv,
    save_csv,
)
from .numerics import log_gamma, log_gamma_ratio
from .regularity import (
    DeterministicSpec,
    InequalityCheck,
    RegularityViolation,
    audit,
    constant_pair_inequalities,
    j_statistic_profile,
    make_deterministic_dataset,
    source_variable_names,
)
from .scores import (
    BDeu,
    CustomDirichlet,
    InvalidPriorError,
    Jeffreys,
    PriorSpec,
    aic,
    bic,
    conditional_score_local,
    conditional_score_ratio,
    marginal_score,
    network_score,
    table_score,
    topological_order,
)
from .search import (
    MAX_EXACT_VARIABLES,
    Network,
    ParentSetTable,
    best_parent_set,
    build_parent_tables,
    class_posterior,
    enumerate_n3_classes,
    learn_exact,
)

__version__ = "0.1.0"

__all__ = [
    "BDeu",
    "CIStatistics",
    "CIVerdict",
    "ContingencyTable",
    "CustomDirichlet",
    "DataFormatError",
    "Dataset",
    "DeterministicSpec",
    "InequalityCheck",
    "InvalidPriorError",
    "Jeffreys",
    "MAX_EXACT_VARIABLES",
    "Network",
    "ParentSetTable",
    "PriorSpec",
    "RegularityViolation",
    "UnknownVariableError",
    "VarSet",
    "aic",
    "asymptotic_residuals",
    "audit",
    "best_parent_set",
    "bdeu_correction",
    "bic",
    "build_parent_tables",
    "ci_decide_cond",
    "ci_decide_pair",
    "ci_statistics",
    "class_posterior",
    "conditional_score_local",
    "conditional_score_ratio",
    "constant_pair_inequalities",
    "counts",
    "empirical_cond_entropy",
    "enumerate_n3_classes",
    "j_statistic",
    "j_statistic_profile",
    "learn_exact",
    "load_csv",
    "log_gamma",
    "log_gamma_ratio",
    "make_deterministic_dataset",
    "marginal_score",
    "network_score",
    "penalized_mutual_information",
    "save_csv",
    "source_variable_names",
    "table_score",
    "topological_order",
]
