"""The three experiment suites: sequence length, feature sets, splits.

Study 1 sweeps training segment lengths {400, 600, 800, 1000, Full} at
the full feature set. Study 2 sweeps feature combinations C1..C5 at
length 1000. Study 3 re-splits two corpora five times each and compares
the spread of test accuracy across splits.

Each study writes a Markdown summary, a CSV with the raw aggregates, and
per-run artifacts (epoch logs, checkpoints, prediction dumps) under the
output directory, and returns the aggregate rows as data.
"""

from __future__ import annotations

import csv
import io
from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import features
from ..dataset import split
from ..neural import desk_config
from .pipeline import build_split_sets, extract_corpus, load_corpus
from .training import (
    TrainConfig,
    evaluate,
    format_mean_std,
    predictions_to_csv,
    repeat_runs,
    train,
)

STUDY1_LENGTHS: tuple[int | None, ...] = (400, 600, 800, 1000, None)
STUDY2_COMBOS = ("C1", "C2", "C3", "C4", "C5")
DESK_LR = 1e-3  # workable for the slim model within a 60-epoch budget


def profile_config(profile: str, n_classes: int = 6, **overrides) -> TrainConfig:
    """The training settings of a profile; the only code that knows them.

    ``desk`` trains the slim model sized to the combo and class count at
    ``DESK_LR``; ``full`` leaves ``model=None`` (the reference network)
    at ``TrainConfig``'s lr. ``overrides`` set any ``TrainConfig`` field.
    """
    if profile == "full":
        return TrainConfig(**overrides)
    if profile != "desk":
        raise ValueError(f"profile must be desk or full, got {profile!r}")
    config = TrainConfig(**{"lr": DESK_LR, **overrides})
    if config.model is None:
        width = len(features.resolve_schema(config.combo))
        config = replace(config, model=desk_config(width, n_classes))
    return config


def desk_train_config(n_classes: int = 6, **overrides) -> TrainConfig:
    """Desk-profile defaults: 60 epochs, higher lr, slim model per combo."""
    return profile_config("desk", n_classes, **overrides)


def _row_config(
    base: TrainConfig, combo: str, segment_length: int | None, n_classes: int
) -> TrainConfig:
    """``base`` for one study row; an explicit model is re-sized to the row."""
    model = base.model
    if model is not None:
        width = len(features.resolve_schema(combo))
        model = replace(model, in_features=width, n_classes=n_classes)
    return replace(base, combo=combo, segment_length=segment_length, model=model)


def _write_markdown(path: Path, title: str, header: list[str], rows: list[list]):
    lines = [f"# {title}", ""]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(["---"] * len(header)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    path.write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def _aggregate_cells(agg: dict, metric: str) -> str:
    if metric not in agg["mean"]:
        return "-"
    return agg["formatted"][metric]


def _sweep_report(
    out_dir: Path,
    title: str,
    row_label: str,
    sweep: list[tuple[str, dict]],
    extra_cols: dict[str, list] | None = None,
) -> dict:
    """Shared report writer for the study 1 and study 2 sweeps."""
    header = [row_label]
    if extra_cols:
        header.extend(extra_cols.keys())
    header.extend(
        [
            "Segment accuracy",
            "Segment macro-F1",
            "Piece accuracy",
            "Piece macro-F1",
        ]
    )
    md_rows, csv_rows = [], []
    for i, (name, agg) in enumerate(sweep):
        row = [name]
        if extra_cols:
            row.extend(col[i] for col in extra_cols.values())
        row.extend(
            [
                _aggregate_cells(agg, "segment_accuracy"),
                _aggregate_cells(agg, "segment_macro_f1"),
                _aggregate_cells(agg, "piece_accuracy"),
                _aggregate_cells(agg, "piece_macro_f1"),
            ]
        )
        md_rows.append(row)
        csv_row = [name]
        if extra_cols:
            csv_row.extend(col[i] for col in extra_cols.values())
        for metric in (
            "segment_accuracy",
            "segment_macro_f1",
            "piece_accuracy",
            "piece_macro_f1",
        ):
            csv_row.append(agg["mean"].get(metric, ""))
            csv_row.append(agg["std"].get(metric, ""))
        csv_rows.append(csv_row)

    csv_header = [row_label.lower().replace(" ", "_")]
    if extra_cols:
        csv_header.extend(k.lower().replace(" ", "_") for k in extra_cols)
    for metric in (
        "segment_accuracy",
        "segment_macro_f1",
        "piece_accuracy",
        "piece_macro_f1",
    ):
        csv_header.extend([f"{metric}_mean", f"{metric}_std"])

    _write_markdown(out_dir / "report.md", title, header, md_rows)
    _write_csv(out_dir / "report.csv", csv_header, csv_rows)
    return {
        "report_md": out_dir / "report.md",
        "report_csv": out_dir / "report.csv",
        "rows": {name: agg for name, agg in sweep},
    }


def study1(
    corpus_dir: str | Path,
    out_dir: str | Path,
    seeds: tuple[int, ...] = (1, 2, 3),
    split_seed: int = 7,
    config: TrainConfig | None = None,
) -> dict:
    """Sequence-length sweep at the full feature combination."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = load_corpus(corpus_dir)
    assignment = split(records, split_seed)
    matrices = extract_corpus(records, corpus_dir)
    sets = build_split_sets(matrices, assignment, "C5")
    n_classes = len(sets.class_names)
    base = config if config is not None else desk_train_config()

    sweep = []
    for length in STUDY1_LENGTHS:
        name = "Full" if length is None else str(length)
        cfg = _row_config(base, "C5", length, n_classes)
        agg = repeat_runs(cfg, list(seeds), sets, out_dir=out_dir / f"len_{name}")
        sweep.append((name, agg))
    return _sweep_report(out_dir, "Input sequence length", "Length", sweep)


def study2(
    corpus_dir: str | Path,
    out_dir: str | Path,
    seeds: tuple[int, ...] = (1, 2, 3),
    split_seed: int = 7,
    config: TrainConfig | None = None,
) -> dict:
    """Feature-combination sweep at segment length 1000."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = load_corpus(corpus_dir)
    assignment = split(records, split_seed)
    matrices = extract_corpus(records, corpus_dir)
    base = config if config is not None else desk_train_config()

    sweep = []
    n_features = []
    for combo in STUDY2_COMBOS:
        sets = build_split_sets(matrices, assignment, combo)
        cfg = _row_config(base, combo, 1000, len(sets.class_names))
        agg = repeat_runs(cfg, list(seeds), sets, out_dir=out_dir / combo)
        sweep.append((combo, agg))
        n_features.append(len(features.resolve_schema(combo)))
    return _sweep_report(
        out_dir,
        "Feature combinations",
        "Combination",
        sweep,
        extra_cols={"Features": n_features},
    )


def study3(
    corpus_a: str | Path,
    corpus_b: str | Path,
    out_dir: str | Path,
    split_seeds: tuple[int, ...] = (101, 102, 103, 104, 105),
    config: TrainConfig | None = None,
) -> dict:
    """Split sensitivity: re-split each corpus and compare accuracy spread.

    One training run per split seed (the split seed doubles as the train
    seed); reports the best and the average (std) test accuracy per
    corpus, segment level.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(split_seeds) < 2:
        raise ValueError("split sensitivity needs at least 2 split seeds")
    base = config if config is not None else desk_train_config()

    corpora = {"A": Path(corpus_a), "B": Path(corpus_b)}
    results: dict[str, dict] = {}
    md_rows, csv_rows = [], []
    for tag, corpus in corpora.items():
        records = load_corpus(corpus)
        matrices = extract_corpus(records, corpus)
        accuracies = []
        for split_seed in split_seeds:
            assignment = split(records, int(split_seed))
            sets = build_split_sets(matrices, assignment, base.combo)
            cfg = _row_config(
                replace(base, seed=int(split_seed)),
                base.combo,
                base.segment_length,
                len(sets.class_names),
            )
            run_dir = out_dir / f"corpus{tag}" / f"split{split_seed}"
            result = train(cfg, sets, out_dir=run_dir)
            ev = evaluate(
                result.model,
                sets.test,
                sets.class_names,
                level="segment",
                segment_length=cfg.segment_length,
                batch_size=cfg.batch_size,
            )
            (run_dir / "predictions_segment.csv").write_text(
                predictions_to_csv(ev.predictions)
            )
            accuracies.append(ev.metrics.accuracy)

        best = float(np.max(accuracies))
        mean = float(np.mean(accuracies))
        std = float(np.std(accuracies, ddof=1))
        results[tag] = {
            "corpus": str(corpus),
            "n_performances": len(records),
            "accuracies": accuracies,
            "best": best,
            "mean": mean,
            "std": std,
        }
        md_rows.append(
            [tag, str(corpus), len(records), f"{best:.3f}", format_mean_std(mean, std)]
        )
        csv_rows.append([tag, str(corpus), len(records), best, mean, std])

    _write_markdown(
        out_dir / "report.md",
        "Split sensitivity",
        ["Corpus", "Path", "Performances", "Best", "Average"],
        md_rows,
    )
    _write_csv(
        out_dir / "report.csv",
        ["corpus", "path", "n_performances", "best", "mean", "std"],
        csv_rows,
    )
    results["report_md"] = out_dir / "report.md"
    results["report_csv"] = out_dir / "report.csv"
    return results
