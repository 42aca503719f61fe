"""Seeded training runs and their checkpoints, split evaluation, repeated-run statistics."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .. import features
from ..neural import (
    AdamState,
    ModelConfig,
    PianistConvNet,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    softmax_cross_entropy,
)
from .metrics import Metrics, compute_metrics
from .pipeline import SplitSets


class EmptySplit(ValueError):
    """A split contributed no usable training or validation samples."""


class DivergedLoss(FloatingPointError):
    """The training loss left the finite range; aborts with context."""


class SchemaMismatch(ValueError):
    """Model and features disagree on the input columns."""


class UnusableRun(ValueError):
    """A checkpoint's run metadata is not what :func:`train` writes."""


@dataclass(frozen=True)
class TrainConfig:
    """One training run, fully determined by its fields.

    Model selection is fixed: the epoch with the best validation macro-F1
    wins. ``model`` names the architecture only: ``None`` is the reference
    network, :func:`~perfid.neural.desk_config` the slim one for CPU-budget
    experiments. :func:`train` sizes it to the split's columns and classes;
    the columns are those the split sets were built at.
    """

    batch_size: int = 16
    epochs: int = 60
    lr: float = 8e-5
    weight_decay: float = 1e-7
    segment_length: int | None = 1000
    seed: int = 0
    model: ModelConfig | None = None

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2 (batch norm)")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError("lr must be positive and finite")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ValueError("weight decay must be non-negative and finite")
        if self.segment_length is not None and self.segment_length < 2:
            raise ValueError("segment length must be >= 2 or None for Full")


@dataclass
class TrainResult:
    model: PianistConvNet
    config: TrainConfig
    log: list[dict]
    best_epoch: int
    best_valid: Metrics | None


@dataclass
class EvalResult:
    metrics: Metrics
    predictions: list[tuple[str, int, int, int]]  # piece_id, seg idx, true, pred
    majority: Metrics | None = None


def _items_from_matrices(
    matrices: list[features.FeatureMatrix],
    class_names: list[str],
    segment_length: int | None,
) -> list[tuple[str, int, np.ndarray, int]]:
    """(piece_id, segment_index, rows, label) tuples in deterministic order."""
    items = []
    for matrix in matrices:
        label = class_names.index(matrix.label)
        windows = ([matrix.rows] if segment_length is None
                   else features.segment(matrix, segment_length))
        items += [(matrix.piece_id, k, window, label) for k, window in enumerate(windows)]
    return items


def _batch_arrays(rows_list: list[np.ndarray]):
    """Stack [L, F] feature arrays into a padded (B, F, Lmax) batch."""
    lengths = np.array([r.shape[0] for r in rows_list], dtype=np.int64)
    max_len = int(lengths.max())
    batch = np.zeros((len(rows_list), rows_list[0].shape[1], max_len), np.float32)
    for i, rows in enumerate(rows_list):
        batch[i, :, : rows.shape[0]] = rows.T
    if np.all(lengths == max_len):
        return batch, None
    return batch, lengths


def _score_items(model: PianistConvNet, items, batch_size: int) -> np.ndarray:
    preds = np.empty(len(items), dtype=np.int64)
    for start in range(0, len(items), batch_size):
        chunk = items[start : start + batch_size]
        x, lengths = _batch_arrays([rows for _, _, rows, _ in chunk])
        preds[start : start + len(chunk)] = model.predict(x, lengths=lengths)
    return preds


def train(
    config: TrainConfig, sets: SplitSets, out_dir: str | Path | None = None
) -> TrainResult:
    """Run one seeded training job and keep the best-validation weights.

    The network takes ``config.model``'s architecture, sized to the
    split's feature columns and pianists. Writes ``epochs.csv`` and
    ``checkpoint.bin`` under ``out_dir`` when given. Identical config and
    data produce identical logs and weights.
    """
    n_classes = len(sets.class_names)
    train_items = _items_from_matrices(
        sets.train, sets.class_names, config.segment_length
    )
    valid_items = _items_from_matrices(
        sets.valid, sets.class_names, config.segment_length
    )
    if not train_items:
        raise EmptySplit("training split yielded no samples")
    if not valid_items:
        raise EmptySplit("validation split yielded no samples")

    model_cfg = replace(config.model or ModelConfig(),
                        in_features=len(sets.normalizer.columns), n_classes=n_classes)
    model = PianistConvNet(model_cfg, seed=config.seed)
    optimizer = AdamState(
        model.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))

    train_labels = np.array([label for _, _, _, label in train_items])
    valid_labels = np.array([label for _, _, _, label in valid_items])

    log: list[dict] = []
    best_f1 = -1.0
    best_epoch = 0
    best_valid: Metrics | None = None
    best_arrays: list[np.ndarray] | None = None

    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(len(train_items))
        losses = []
        for start in range(0, len(perm), config.batch_size):
            batch_idx = perm[start : start + config.batch_size]
            if batch_idx.size < 2:
                continue  # batch norm cannot standardize one sample
            x, lengths = _batch_arrays([train_items[i][2] for i in batch_idx])
            model.zero_grad()
            logits = model.forward(x, lengths=lengths, training=True)
            loss = softmax_cross_entropy(logits, train_labels[batch_idx])
            value = float(loss.data)
            if not np.isfinite(value):
                raise DivergedLoss(
                    f"non-finite loss {value} at epoch {epoch}, "
                    f"step {start // config.batch_size}, lr {config.lr}"
                )
            loss.backward()
            adam_step(model.parameters(), optimizer)
            losses.append(value)

        valid_pred = _score_items(model, valid_items, config.batch_size)
        valid_metrics = compute_metrics(valid_labels, valid_pred, n_classes)
        log.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)) if losses else float("nan"),
                "valid_accuracy": valid_metrics.accuracy,
                "valid_macro_f1": valid_metrics.macro_f1,
            }
        )
        if valid_metrics.macro_f1 > best_f1:
            best_f1 = valid_metrics.macro_f1
            best_epoch = epoch
            best_valid = valid_metrics
            best_arrays = [a.copy() for _, a in model.named_arrays()]

    if best_arrays is not None:
        model.set_arrays(best_arrays)

    result = TrainResult(model, config, log, best_epoch, best_valid)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "epochs.csv").write_text(epoch_log_to_csv(log))
        extras = {
            "class_names": list(sets.class_names),
            "segment_length": config.segment_length,
            "normalizer": sets.normalizer.to_json(),
            "split": {
                "Train": [m.piece_id for m in sets.train],
                "Valid": [m.piece_id for m in sets.valid],
                "Test": [m.piece_id for m in sets.test],
            },
            "best_epoch": best_epoch,
            "best_valid_macro_f1": best_valid.macro_f1 if best_valid else None,
        }
        save_checkpoint(out_dir / "checkpoint.bin", model, extras=extras)
    return result


def load_run(path: str | Path, split: str):
    """The model, normalizer, class names, segment length and ``split``'s record ids
    that :func:`train` wrote; metadata it would not write raises :class:`UnusableRun`."""
    model, header = load_checkpoint(path)
    n_classes, width = model.config.n_classes, model.config.in_features
    try:
        extras = header["extras"]
        stats = features.NormStats.from_json(extras["normalizer"])
        if not (stats.columns in features.COMBINATIONS.values() and len(stats.columns) == width
                and stats.mean.shape == stats.std.shape == (width,) and (stats.std > 0).all()
                and np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()):
            raise TypeError(f"normalizer is not one combo's {width} columns, each with a "
                            "finite mean and a finite std > 0")
        class_names = extras["class_names"]
        if not (isinstance(class_names, list) and all(isinstance(n, str) for n in class_names)
                and len(set(class_names)) == len(class_names) == n_classes):
            raise TypeError(f"class_names is not {n_classes} distinct names")
        segment_length = extras["segment_length"]
        if segment_length is not None and (type(segment_length) is not int or segment_length < 2):
            raise TypeError(f"segment_length {segment_length!r} is not null or an integer >= 2")
        record_ids = extras["split"][split]
        if not (isinstance(record_ids, list) and all(isinstance(i, str) for i in record_ids)):
            raise TypeError(f"{split} split is not a list of record ids")
    except (KeyError, TypeError, ValueError) as exc:
        raise UnusableRun(str(exc)) from exc
    return model, stats, class_names, segment_length, record_ids


def epoch_log_to_csv(log: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "train_loss", "valid_accuracy", "valid_macro_f1"])
    for row in log:
        writer.writerow(
            [
                row["epoch"],
                f"{row['train_loss']:.6f}",
                f"{row['valid_accuracy']:.6f}",
                f"{row['valid_macro_f1']:.6f}",
            ]
        )
    return buf.getvalue()


def evaluate(
    model: PianistConvNet,
    matrices: list[features.FeatureMatrix],
    class_names: list[str],
    level: str = "segment",
    segment_length: int | None = 1000,
    batch_size: int = 16,
) -> EvalResult:
    """Score a split at segment or piece granularity.

    Segment level windows each piece and also reports a majority-vote
    over each piece's segment predictions as an auxiliary metric (ties
    break toward the smaller class index). Piece level runs one masked
    forward per full piece.
    """
    if level not in ("segment", "piece"):
        raise ValueError(f"unknown evaluation level {level!r}")
    if not matrices:
        raise EmptySplit("nothing to evaluate")
    n_classes = len(class_names)
    width = len(matrices[0].schema)
    if any(len(m.schema) != width for m in matrices):
        raise SchemaMismatch("evaluation matrices disagree on columns")
    if width != model.config.in_features:
        raise SchemaMismatch(
            f"features have {width} columns, model expects "
            f"{model.config.in_features}"
        )

    if level == "segment":
        if segment_length is None:
            raise ValueError("segment-level evaluation needs a segment length")
        items = _items_from_matrices(matrices, class_names, segment_length)
        if not items:
            raise EmptySplit(
                f"no piece is long enough for {segment_length}-note segments"
            )
    else:
        items = _items_from_matrices(matrices, class_names, None)

    true = np.array([label for _, _, _, label in items])
    pred = _score_items(model, items, batch_size)
    predictions = [
        (piece_id, seg_idx, int(t), int(p))
        for (piece_id, seg_idx, _, _), t, p in zip(items, true, pred)
    ]
    metrics = compute_metrics(true, pred, n_classes)

    majority = None
    if level == "segment":
        by_piece: dict[str, list[int]] = {}
        piece_true: dict[str, int] = {}
        for (piece_id, _, _, label), p in zip(items, pred):
            by_piece.setdefault(piece_id, []).append(int(p))
            piece_true[piece_id] = label
        piece_ids = sorted(by_piece)
        votes = np.array(
            [np.bincount(by_piece[pid], minlength=n_classes).argmax() for pid in piece_ids]
        )
        majority = compute_metrics(
            np.array([piece_true[pid] for pid in piece_ids]), votes, n_classes
        )

    return EvalResult(metrics=metrics, predictions=predictions, majority=majority)


def predictions_to_csv(predictions: list[tuple[str, int, int, int]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["piece_id", "segment_index", "true", "pred"])
    for row in predictions:
        writer.writerow(list(row))
    return buf.getvalue()


def format_mean_std(mean: float, std: float) -> str:
    """Render the conventional report cell, e.g. ``0.766 (0.024)``."""
    return f"{mean:.3f} ({std:.3f})"


def score_test(
    result: TrainResult, sets: SplitSets, levels: tuple[str, ...], run_dir: Path | None
) -> dict:
    """Test-split ``<level>_accuracy`` and ``<level>_macro_f1`` per level.

    Segment level adds ``vote_accuracy``, the per-piece majority vote.
    Writes ``predictions_<level>.csv`` under ``run_dir`` when given.
    """
    scores = {}
    for level in levels:
        ev = evaluate(result.model, sets.test, sets.class_names, level=level,
                      segment_length=result.config.segment_length,
                      batch_size=result.config.batch_size)
        scores[f"{level}_accuracy"] = ev.metrics.accuracy
        scores[f"{level}_macro_f1"] = ev.metrics.macro_f1
        if ev.majority is not None:
            scores["vote_accuracy"] = ev.majority.accuracy
        if run_dir is not None:
            (run_dir / f"predictions_{level}.csv").write_text(
                predictions_to_csv(ev.predictions)
            )
    return scores


def repeat_runs(
    config: TrainConfig,
    seeds: list[int],
    sets: SplitSets,
    out_dir: str | Path | None = None,
) -> dict:
    """Train once per seed and aggregate test metrics.

    Each run is evaluated on the test split at segment level (when the
    config has a segment length) and always at piece level. Returns raw
    per-run values plus the mean and sample standard deviation per metric.
    """
    if len(seeds) < 2:
        raise ValueError("repeated runs need at least 2 seeds")
    levels = ("piece",) if config.segment_length is None else ("segment", "piece")
    runs = []
    for seed in seeds:
        run_dir = None if out_dir is None else Path(out_dir) / f"seed{seed}"
        result = train(replace(config, seed=int(seed)), sets, out_dir=run_dir)
        scores = score_test(result, sets, levels, run_dir)
        runs.append({"seed": int(seed), "best_epoch": result.best_epoch, **scores})

    metric_names = [k for k in runs[0] if k not in ("seed", "best_epoch")]
    mean = {m: float(np.mean([r[m] for r in runs])) for m in metric_names}
    std = {m: float(np.std([r[m] for r in runs], ddof=1)) for m in metric_names}
    return {"runs": runs, "mean": mean, "std": std}
