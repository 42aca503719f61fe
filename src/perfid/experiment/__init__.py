"""Training loop, evaluation metrics, and the three study harnesses."""

from .metrics import Metrics, compute_metrics, confusion_matrix, from_confusion
from .pipeline import (
    ExtractionFailed,
    SplitSets,
    build_split_sets,
    extract_corpus,
    extract_performance,
    load_corpus,
)
from .training import (
    DivergedLoss,
    EmptySplit,
    EvalResult,
    SchemaMismatch,
    TrainConfig,
    TrainResult,
    evaluate,
    format_mean_std,
    repeat_runs,
    train,
)
from .studies import study1, study2, study3

__all__ = [
    "DivergedLoss",
    "EmptySplit",
    "EvalResult",
    "ExtractionFailed",
    "Metrics",
    "SchemaMismatch",
    "SplitSets",
    "TrainConfig",
    "TrainResult",
    "build_split_sets",
    "compute_metrics",
    "confusion_matrix",
    "evaluate",
    "extract_corpus",
    "extract_performance",
    "format_mean_std",
    "from_confusion",
    "load_corpus",
    "repeat_runs",
    "study1",
    "study2",
    "study3",
    "train",
]
