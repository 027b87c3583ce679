"""Distribution-free FDR control for learning-to-rank recommendation sets.

Calibrates a score threshold for any pairwise ranking model so the returned
item sets keep their false discovery rate below a target level with high
probability, whatever the data distribution, and optionally prunes those
sets for embedding diversity under a size cap without giving up the
guarantee.
"""

from .calibrate import (
    CalibrationConfig,
    CalibrationResult,
    TraceEntry,
    calibrate,
    diverse_family,
    lambda_grid,
    plain_family,
    predict,
)
from .core import (
    LabeledQuery,
    PairwiseScores,
    PredictionSet,
    Ranking,
    item_scores,
    threshold_set,
)
from .data import (
    ParseError,
    RawQuery,
    SchemaError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    pairwise_from_utilities,
    parse_letor,
    ranking_from_relevance,
    write_dataset,
)
from .diversity import diversity, exhaustive_prune, greedy_prune
from .evaluate import (
    DiversityStats,
    EvalReport,
    Stratum,
    SweepRow,
    TrialProtocol,
    TrialRecord,
    relative_diversity_improvement,
    run_trials,
    stratified_fdr,
    sweep,
)
from .risk import (
    MRule,
    derive_m,
    empirical_fdr,
    fdp,
    get_bound,
    hoeffding_ucb,
    register_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationConfig",
    "CalibrationResult",
    "TraceEntry",
    "calibrate",
    "predict",
    "plain_family",
    "diverse_family",
    "lambda_grid",
    "LabeledQuery",
    "PairwiseScores",
    "PredictionSet",
    "Ranking",
    "item_scores",
    "threshold_set",
    "ParseError",
    "SchemaError",
    "RawQuery",
    "SyntheticSpec",
    "generate_synthetic",
    "load_dataset",
    "write_dataset",
    "parse_letor",
    "ranking_from_relevance",
    "pairwise_from_utilities",
    "diversity",
    "greedy_prune",
    "exhaustive_prune",
    "DiversityStats",
    "EvalReport",
    "Stratum",
    "SweepRow",
    "TrialProtocol",
    "TrialRecord",
    "run_trials",
    "stratified_fdr",
    "relative_diversity_improvement",
    "sweep",
    "MRule",
    "derive_m",
    "fdp",
    "empirical_fdr",
    "hoeffding_ucb",
    "register_bound",
    "get_bound",
    "__version__",
]
