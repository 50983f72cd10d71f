"""Exact and sampled squared prediction gaps for binary tree ensembles.

The package computes the squared prediction gap of a tree-ensemble
regression model under independent per-feature perturbations -- exactly,
through leaf-pair activation probabilities, and approximately through Monte
Carlo and quasi-Monte Carlo estimators -- and builds greedy feature rankings
with the evaluation tooling around them.
"""

__version__ = "0.1.0"

from .data import Dataset, PairSample, load_csv, sample_pairs
from .errors import FormatError, NumericDomainError, PredgapError, ValidationError
from .exact import (
    LeafPairTable,
    leaf_pair_probabilities,
    pg2_brute_force,
    pg2_exact,
)
from .metrics import mean_pgi2, nmae, pgi2, randomization_rmse, xi_random
from .model import (
    Tree,
    TreeEnsemble,
    as_feature_vector,
    load_ensemble,
    save_ensemble,
)
from .perturb import (
    Discrete,
    Distribution,
    Gaussian,
    PerturbationSpec,
    Uniform,
    halton_matrix,
    spec_from_config,
)
from .ranking import Ranking, greedy_pg2_ranking, ranking_from_attribution, topk_agreement
from .sampling import EstimatorConfig, pg2_sampled, pg2_sampled_prefixes

__all__ = [
    "Dataset",
    "Discrete",
    "Distribution",
    "EstimatorConfig",
    "FormatError",
    "Gaussian",
    "LeafPairTable",
    "NumericDomainError",
    "PairSample",
    "PerturbationSpec",
    "PredgapError",
    "Ranking",
    "Tree",
    "TreeEnsemble",
    "Uniform",
    "ValidationError",
    "as_feature_vector",
    "greedy_pg2_ranking",
    "halton_matrix",
    "leaf_pair_probabilities",
    "load_csv",
    "load_ensemble",
    "mean_pgi2",
    "nmae",
    "pg2_brute_force",
    "pg2_exact",
    "pg2_sampled",
    "pg2_sampled_prefixes",
    "pgi2",
    "randomization_rmse",
    "ranking_from_attribution",
    "sample_pairs",
    "save_ensemble",
    "spec_from_config",
    "topk_agreement",
    "xi_random",
]
