"""From-scratch tabular classification pipeline for diabetes risk
prediction on the BRFSS-2015 health-indicators table."""

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
    income_histogram,
    load_csv,
    pearson_correlation,
    select_columns,
    train_test_split,
    write_csv,
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
    gini_impurity,
    impurity_importance,
    predict_tree,
)

__version__ = "0.1.0"
