"""Matching-solution substrate: the systems Frost benchmarks.

Frost itself "does not execute the matching solutions [...] but takes
their results as input"; to reproduce the paper's evaluations offline
we implement the full six-step pipeline (§1.2) these solutions follow —
similarity measures, blocking, decision models (rule-based, threshold,
learned), duplicate clustering, and record fusion.
"""

from repro.matching.attribute_matching import (
    AttributeComparator,
    SimilarityVector,
    compare_pairs,
)
from repro.matching.blocking import (
    first_token_key,
    full_pairs,
    prefix_key,
    sorted_neighborhood,
    soundex_key,
    standard_blocking,
    token_blocking,
)
from repro.matching.clustering_algorithms import CLUSTERING_ALGORITHMS
from repro.matching.comparison import score_candidates
from repro.matching.fusion import FUSION_STRATEGIES, fuse_cluster, fuse_dataset
from repro.matching.lsh import LshBlocking, LshConfig, MinHasher, lsh_blocking
from repro.matching.ml import LogisticRegressionModel, NaiveBayesModel
from repro.matching.pipeline import (
    MatchingPipeline,
    PipelineRun,
    lowercase_values,
    normalize_whitespace,
)
from repro.matching.rules import (
    Rule,
    RuleSet,
    attribute_threshold_rule,
    weighted_average_rule,
)
from repro.matching.similarity import SIMILARITY_FUNCTIONS
from repro.matching.threshold import WeightedAverageModel, best_threshold

__all__ = [
    "AttributeComparator",
    "CLUSTERING_ALGORITHMS",
    "FUSION_STRATEGIES",
    "LogisticRegressionModel",
    "LshBlocking",
    "LshConfig",
    "MatchingPipeline",
    "MinHasher",
    "NaiveBayesModel",
    "PipelineRun",
    "Rule",
    "RuleSet",
    "SIMILARITY_FUNCTIONS",
    "SimilarityVector",
    "WeightedAverageModel",
    "attribute_threshold_rule",
    "best_threshold",
    "compare_pairs",
    "first_token_key",
    "full_pairs",
    "fuse_cluster",
    "fuse_dataset",
    "lowercase_values",
    "lsh_blocking",
    "normalize_whitespace",
    "prefix_key",
    "score_candidates",
    "sorted_neighborhood",
    "soundex_key",
    "standard_blocking",
    "token_blocking",
    "weighted_average_rule",
]
