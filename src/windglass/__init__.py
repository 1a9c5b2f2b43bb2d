"""windglass: glass-box wind power forecasting.

An additive model of boosted per-feature shape functions plus pairwise
interaction grids, with exact per-forecast attribution, reference
baselines (persistence, OLS, CART), evaluation metrics, and
model-agnostic explanation tools.

The public names are grouped by job, as in the README's API table.
"""

# Data: ingest a series, build and split a supervised matrix, bin it.
from .data import (
    BinningMap,
    CsvSchema,
    DataSplit,
    NormParams,
    SupervisedMatrix,
    TimeSeriesFrame,
    apply_bins,
    bin_centers,
    build_exogenous_features,
    build_lag_features,
    chronological_split,
    fit_bins,
    load_csv,
    normalize_apply,
    normalize_fit_apply,
)
from .datasets import make_autocorrelated_series, make_interaction_data

# Training: one call, or its three stages one at a time.
from .glassbox import (
    GlassBoxModel,
    PairShapeFunction,
    ShapeFunction,
    TrainConfig,
    rank_interaction_pairs,
    train,
    train_interactions,
    train_main_effects,
)

# Prediction and explanation: scores, term read-outs, PDP/PFI cross-checks.
from .explain import (
    ConsistencyResult,
    CurveExport,
    GlobalImportanceReport,
    LocalExplanation,
    PfiResult,
    export_pair_heatmap,
    export_shape,
    global_importance,
    local_explanation,
    pdp,
    pdp_importance,
    pfi,
    ranking_consistency,
)
from .metrics import EvalReport, evaluate, nmae, nrmse, r2

# Baselines: persistence, OLS and the CART tree.
from .baselines import (
    LinearModel,
    PersistenceModel,
    RTBaseline,
    RT_BASELINE_PARAMS,
    fit_ols,
    fit_rt_baseline,
)
from .trees import (
    RegressionTree,
    TreeNode,
    TreeParams,
    fit_cart,
    predict_tree,
)

# Model files: versioned, checksummed JSON for every forecaster.
from .model_io import FORMAT_VERSION, ModelFormatError, load_model, save_model

__version__ = "0.1.0"
