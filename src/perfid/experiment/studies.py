"""The three experiment suites: sequence length, feature sets, splits.

Study 1 sweeps training segment lengths {400, 600, 800, 1000, Full} at
the full feature set. Study 2 sweeps feature combinations C1..C5 at the
config's segment length (1000 by default). Study 3 re-splits two corpora
five times each and compares the spread of C5 test accuracy across splits.
Every row trains the config's architecture, which ``train`` sizes to the
row's feature columns and pianists.

Studies 1 and 2 are one experiment with different rows: ``_sweep``
extracts the corpus once, splits it once, and runs repeated seeded
training per row; ``study1`` and ``study2`` only list their rows. Every
study writes ``report.md`` and ``report.csv`` through ``_write_reports``
plus per-run artifacts (epoch logs, checkpoints, prediction dumps) under
the output directory, and returns the aggregate rows as data.
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
from .training import TrainConfig, format_mean_std, repeat_runs, score_test, train

STUDY1_LENGTHS: tuple[int | None, ...] = (400, 600, 800, 1000, None)
STUDY2_COMBOS = ("C1", "C2", "C3", "C4", "C5")
DESK_LR = 1e-3  # workable for the slim model within a 60-epoch budget
# (key in repeat_runs' aggregates, report column), in report order
REPORT_METRICS = (
    ("segment_accuracy", "Segment accuracy"),
    ("segment_macro_f1", "Segment macro-F1"),
    ("piece_accuracy", "Piece accuracy"),
    ("piece_macro_f1", "Piece macro-F1"),
)


def profile_config(profile: str, **overrides) -> TrainConfig:
    """The training settings of a profile; the only code that knows them.

    ``desk`` trains the slim architecture (:func:`desk_config`) at
    ``DESK_LR``; ``full`` leaves ``model=None`` (the reference network)
    at ``TrainConfig``'s lr. ``overrides`` set any ``TrainConfig`` field.
    """
    if profile == "full":
        return TrainConfig(**overrides)
    if profile != "desk":
        raise ValueError(f"profile must be desk or full, got {profile!r}")
    return TrainConfig(**{"lr": DESK_LR, "model": desk_config(), **overrides})


def _write_reports(
    out_dir: Path, title: str, header: list[str], md_rows: list[list],
    csv_header: list[str], csv_rows: list[list],
) -> dict:
    """Write ``report.md`` (a titled Markdown table) and ``report.csv``."""
    lines = [f"# {title}", ""]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(["---"] * len(header)) + "|")
    for row in md_rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    (out_dir / "report.md").write_text("\n".join(lines) + "\n")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(csv_header)
    writer.writerows(csv_rows)
    (out_dir / "report.csv").write_text(buf.getvalue())
    return {"report_md": out_dir / "report.md", "report_csv": out_dir / "report.csv"}


def _sweep(
    corpus_dir: str | Path, out_dir: str | Path, seeds: tuple[int, ...],
    split_seed: int, config: TrainConfig, title: str, header: list[str],
    rows: list[tuple[tuple, str, str, int | None]],
) -> dict:
    """Repeated seeded runs per row on one split, and one report row each.

    Each row is (leading cells, run dir name, combo, segment length); the
    first leading cell names the row. The corpus is extracted once and
    the split sets are rebuilt only when the combo changes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = load_corpus(corpus_dir)
    assignment = split(records, split_seed)
    matrices = extract_corpus(records, corpus_dir)

    aggregates, md_rows, csv_rows = {}, [], []
    sets_combo = None
    for cells, run_name, combo, length in rows:
        if combo != sets_combo:
            sets = build_split_sets(matrices, assignment, combo)
            sets_combo = combo
        cfg = replace(config, segment_length=length)
        agg = repeat_runs(cfg, list(seeds), sets, out_dir=out_dir / run_name)
        aggregates[cells[0]] = agg
        mean, std = agg["mean"], agg["std"]
        md_rows.append([*cells] + [
            format_mean_std(mean[m], std[m]) if m in mean else "-"
            for m, _ in REPORT_METRICS
        ])
        csv_rows.append([*cells] + [
            v for m, _ in REPORT_METRICS for v in (mean.get(m, ""), std.get(m, ""))
        ])

    csv_header = [h.lower().replace(" ", "_") for h in header]
    csv_header += [f"{m}_{stat}" for m, _ in REPORT_METRICS for stat in ("mean", "std")]
    header = header + [label for _, label in REPORT_METRICS]
    reports = _write_reports(out_dir, title, header, md_rows, csv_header, csv_rows)
    return {**reports, "rows": aggregates}


def study1(
    corpus_dir: str | Path,
    out_dir: str | Path,
    seeds: tuple[int, ...],
    split_seed: int,
    config: TrainConfig,
) -> dict:
    """Sequence-length sweep at the full feature combination."""
    rows = []
    for length in STUDY1_LENGTHS:
        name = "Full" if length is None else str(length)
        rows.append(((name,), f"len_{name}", "C5", length))
    return _sweep(corpus_dir, out_dir, seeds, split_seed, config,
                  "Input sequence length", ["Length"], rows)


def study2(
    corpus_dir: str | Path,
    out_dir: str | Path,
    seeds: tuple[int, ...],
    split_seed: int,
    config: TrainConfig,
) -> dict:
    """Feature-combination sweep at the config's segment length."""
    rows = [((combo, len(features.resolve_schema(combo))), combo, combo,
             config.segment_length) for combo in STUDY2_COMBOS]
    return _sweep(corpus_dir, out_dir, seeds, split_seed, config,
                  "Feature combinations", ["Combination", "Features"], rows)


def study3(
    corpus_a: str | Path,
    corpus_b: str | Path,
    out_dir: str | Path,
    split_seeds: tuple[int, ...],
    config: TrainConfig,
) -> dict:
    """Split sensitivity: re-split each corpus and compare accuracy spread.

    One training run per split seed at C5 (the split seed doubles as the
    train seed); reports the best and the average (std) test accuracy per
    corpus, segment level.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(split_seeds) < 2:
        raise ValueError("split sensitivity needs at least 2 split seeds")

    corpora = {"A": Path(corpus_a), "B": Path(corpus_b)}
    results: dict[str, dict] = {}
    md_rows, csv_rows = [], []
    for tag, corpus in corpora.items():
        records = load_corpus(corpus)
        matrices = extract_corpus(records, corpus)
        accuracies = []
        for split_seed in split_seeds:
            assignment = split(records, int(split_seed))
            sets = build_split_sets(matrices, assignment, "C5")
            run_dir = out_dir / f"corpus{tag}" / f"split{split_seed}"
            result = train(replace(config, seed=int(split_seed)), sets, out_dir=run_dir)
            scores = score_test(result, sets, ("segment",), run_dir)
            accuracies.append(scores["segment_accuracy"])

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

    results.update(_write_reports(
        out_dir, "Split sensitivity",
        ["Corpus", "Path", "Performances", "Best", "Average"], md_rows,
        ["corpus", "path", "n_performances", "best", "mean", "std"], csv_rows,
    ))
    return results
