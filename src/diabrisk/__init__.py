"""From-scratch tabular classification pipeline for diabetes risk
prediction on the BRFSS-2015 health-indicators table."""

import os

# One BLAS thread unless the user chose a count: set before numpy loads
# OpenBLAS, so that the fits' bytes do not follow the machine's CPU count.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .dataset import (
    CANONICAL_COLUMNS,
    FEATURE_COLUMNS,
    HEALTH_MODEL_FEATURES,
    INCOME_CODES,
    DataTable,
    as_counts,
    as_labels,
    as_matrix,
    as_names,
    binarize_target,
    count_tables,
    distinct_rows,
    income_histogram,
    load_csv,
    pearson_correlation,
    select_columns,
    train_test_split,
)
from .feature_selection import consensus_rank, rfe
from .gridsearch import CvConfig, GridResult, grid_search, k_fold_indices
from .logistic import (
    LogRegModel,
    LogRegParams,
    fit_logreg,
    lasso_coefficients,
    loss_and_gradient,
    predict_label,
    predict_proba,
)
from .metrics import (
    ClassificationReport,
    PrCurve,
    RocCurve,
    classification_report,
    confusion,
    pr_curve,
    roc_curve,
)
from .smote import SmoteParams, smote_balance
from .tree import (
    DecisionTreeModel,
    ForestParams,
    TreeParams,
    fit_forest,
    fit_tree,
    impurity_importance,
    predict_tree,
)

__version__ = "0.1.0"
