"""Seeded training runs, split evaluation, and repeated-run statistics."""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .. import features
from ..neural import (
    AdamState,
    ModelConfig,
    PianistConvNet,
    adam_step,
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


@dataclass(frozen=True)
class TrainConfig:
    """One training run, fully determined by its fields.

    Model selection is fixed: the epoch with the best validation macro-F1
    wins. ``model=None`` builds the full-size architecture sized to the
    feature combination; pass :func:`~perfid.neural.desk_config` output
    for CPU-budget experiments.
    """

    batch_size: int = 16
    epochs: int = 60
    lr: float = 8e-5
    weight_decay: float = 1e-7
    segment_length: int | None = 1000
    combo: str = "C5"
    seed: int = 0
    model: ModelConfig | None = None

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2 (batch norm)")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.lr <= 0 or self.weight_decay < 0:
            raise ValueError("lr must be positive, weight decay non-negative")
        if self.segment_length is not None and self.segment_length < 2:
            raise ValueError("segment length must be >= 2 or None for Full")
        features.resolve_schema(self.combo)  # raises on unknown combos

    def resolve_model(self, n_classes: int) -> ModelConfig:
        if self.model is not None:
            return self.model
        width = len(features.resolve_schema(self.combo))
        return ModelConfig(in_features=width, n_classes=n_classes)


@dataclass
class TrainResult:
    model: PianistConvNet
    config: TrainConfig
    log: list[dict]
    best_epoch: int
    best_valid: Metrics | None
    class_names: list[str]
    checkpoint_path: Path | None = None


@dataclass
class EvalResult:
    metrics: Metrics
    level: str
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
        if segment_length is None:
            items.append((matrix.piece_id, 0, matrix.rows, label))
        else:
            for k, seg in enumerate(features.segment(matrix, segment_length)):
                items.append((matrix.piece_id, k, seg.rows, label))
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

    Writes ``epochs.csv`` and ``checkpoint.bin`` under ``out_dir`` when
    given. Identical config and data produce identical logs and weights.
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

    model_cfg = config.resolve_model(n_classes)
    if len(sets.normalizer.columns) != model_cfg.in_features:
        raise SchemaMismatch(
            f"features have {len(sets.normalizer.columns)} columns, model "
            f"expects {model_cfg.in_features}"
        )
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
    best_arrays: dict[str, np.ndarray] | None = None

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
            adam_step(model.parameters(), None, optimizer)
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
            best_arrays = {n: a.copy() for n, a in model.named_arrays()}

    if best_arrays is not None:
        model.load_arrays(best_arrays)

    result = TrainResult(
        model=model,
        config=config,
        log=log,
        best_epoch=best_epoch,
        best_valid=best_valid,
        class_names=list(sets.class_names),
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "epochs.csv").write_text(epoch_log_to_csv(log))
        extras = {
            "class_names": result.class_names,
            "combo": config.combo,
            "segment_length": config.segment_length,
            "schema": list(sets.normalizer.columns),
            "normalizer": sets.normalizer.to_json(),
            "train_seed": config.seed,
            "best_epoch": best_epoch,
            "best_valid_macro_f1": best_valid.macro_f1 if best_valid else None,
        }
        result.checkpoint_path = out_dir / "checkpoint.bin"
        save_checkpoint(result.checkpoint_path, model, extras=extras)
    return result


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

    return EvalResult(
        metrics=metrics, level=level, predictions=predictions, majority=majority
    )


def predictions_to_csv(predictions: list[tuple[str, int, int, int]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["piece_id", "segment_index", "true", "pred"])
    for row in predictions:
        writer.writerow(list(row))
    return buf.getvalue()


def format_mean_std(mean: float, std: float, decimals: int = 3) -> str:
    """Render the conventional report cell, e.g. ``0.766 (0.024)``."""
    return f"{mean:.{decimals}f} ({std:.{decimals}f})"


_MEAN_STD = re.compile(r"^(\d+\.\d+) \((\d+\.\d+)\)$")


def parse_mean_std(cell: str) -> tuple[float, float]:
    match = _MEAN_STD.match(cell.strip())
    if not match:
        raise ValueError(f"not a mean (std) cell: {cell!r}")
    return float(match.group(1)), float(match.group(2))


def repeat_runs(
    config: TrainConfig,
    seeds: list[int],
    sets: SplitSets,
    out_dir: str | Path | None = None,
) -> dict:
    """Train once per seed and aggregate test metrics.

    Each run is evaluated on the test split at segment level (when the
    config has a segment length) and always at piece level. Returns raw
    per-run values plus mean, sample standard deviation, and formatted
    "mean (std)" cells per metric.
    """
    if len(seeds) < 2:
        raise ValueError("repeated runs need at least 2 seeds")
    runs = []
    for seed in seeds:
        run_config = replace(config, seed=int(seed))
        run_dir = None
        if out_dir is not None:
            run_dir = Path(out_dir) / f"seed{seed}"
        result = train(run_config, sets, out_dir=run_dir)
        row: dict = {"seed": int(seed), "best_epoch": result.best_epoch}
        if config.segment_length is not None:
            seg = evaluate(
                result.model,
                sets.test,
                sets.class_names,
                level="segment",
                segment_length=config.segment_length,
                batch_size=config.batch_size,
            )
            row["segment_accuracy"] = seg.metrics.accuracy
            row["segment_macro_f1"] = seg.metrics.macro_f1
            row["vote_accuracy"] = seg.majority.accuracy
            if run_dir is not None:
                (run_dir / "predictions_segment.csv").write_text(
                    predictions_to_csv(seg.predictions)
                )
        piece = evaluate(
            result.model,
            sets.test,
            sets.class_names,
            level="piece",
            batch_size=config.batch_size,
        )
        row["piece_accuracy"] = piece.metrics.accuracy
        row["piece_macro_f1"] = piece.metrics.macro_f1
        if run_dir is not None:
            (run_dir / "predictions_piece.csv").write_text(
                predictions_to_csv(piece.predictions)
            )
        runs.append(row)

    metric_names = [k for k in runs[0] if k not in ("seed", "best_epoch")]
    mean = {m: float(np.mean([r[m] for r in runs])) for m in metric_names}
    std = {m: float(np.std([r[m] for r in runs], ddof=1)) for m in metric_names}
    formatted = {m: format_mean_std(mean[m], std[m]) for m in metric_names}
    return {"runs": runs, "mean": mean, "std": std, "formatted": formatted}
