"""Treatment effect estimation by matching in learned embeddings.

Workflow surface, in the order a study uses it: generate a dataset, fit an
embedder or a propensity model, match across treatment arms, then score the
estimates against ground truth. The experiments module wires these into
reproducible pipelines behind the CLI.
"""

from .data import (
    GroundTruth,
    ObservationalDataset,
    SwissRollConfig,
    duplicate_twins,
    gen_propensity_pairs,
    gen_swiss_roll,
    train_test_split,
)
from .embedding import (
    fit_autoencoder,
    fit_identity,
    fit_lle,
    fit_pca,
    lle_weight_matrix,
)
from .experiments import (
    ConfigError,
    GradcheckRun,
    PropensityRun,
    StageError,
    SwissRollRun,
    parse_propensity,
    parse_swissroll,
    run_gradcheck,
    run_propensity,
    run_swissroll,
)
from .gradcheck import default_grid, finite_difference_gradients, run_case
from .matching import (
    EffectEstimate,
    estimate_effects,
    estimate_effects_pooled,
    nearest_opposite,
    propensity_match,
)
from .metrics import (
    EffectReport,
    PropensityReport,
    ite_error,
    misassignment_report,
    silhouette,
    threshold_labels,
)
from .network import (
    LayerSpec,
    Network,
    NetworkSpec,
    TrainConfig,
    init_network,
    train,
)
from .propensity import (
    PropensityFitConfig,
    balance_report,
    build_propensity_net,
    log_odds,
)
from .propensity import fit as fit_propensity

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EffectEstimate",
    "EffectReport",
    "GradcheckRun",
    "GroundTruth",
    "LayerSpec",
    "Network",
    "NetworkSpec",
    "ObservationalDataset",
    "PropensityFitConfig",
    "PropensityReport",
    "PropensityRun",
    "StageError",
    "SwissRollConfig",
    "SwissRollRun",
    "TrainConfig",
    "balance_report",
    "build_propensity_net",
    "default_grid",
    "duplicate_twins",
    "estimate_effects",
    "estimate_effects_pooled",
    "finite_difference_gradients",
    "fit_autoencoder",
    "fit_identity",
    "fit_lle",
    "fit_pca",
    "fit_propensity",
    "gen_propensity_pairs",
    "gen_swiss_roll",
    "init_network",
    "ite_error",
    "lle_weight_matrix",
    "log_odds",
    "misassignment_report",
    "nearest_opposite",
    "parse_propensity",
    "parse_swissroll",
    "propensity_match",
    "run_case",
    "run_gradcheck",
    "run_propensity",
    "run_swissroll",
    "silhouette",
    "threshold_labels",
    "train",
    "train_test_split",
]
