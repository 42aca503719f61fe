"""Expressive feature extraction from matched (performance, score) pairs.

Seven note-wise columns are read straight off the performance notes:
pitch, velocity, onset, offset, duration, inter-onset interval (IOI,
onset-to-next-onset) and offset time duration (OTD, offset-to-next-onset;
negative for legato overlaps). The last note of a piece has no successor,
so its IOI and OTD are 0.

Six deviation columns subtract the score value from the performance value
after the score timeline is affinely mapped onto the performance timeline
(fit on matched onsets). Durations, IOIs and OTDs are time differences,
so only the fitted scale applies to them. Pitch has no deviation column:
matches are pitch-exact by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .align import fit_time_map
from .midi_io import NoteList

NOTE_COLUMNS = ("pitch", "velocity", "onset", "offset", "duration", "ioi", "otd")
DEV_COLUMNS = ("dev_velocity", "dev_onset", "dev_offset", "dev_duration", "dev_ioi", "dev_otd")
ALL_COLUMNS = NOTE_COLUMNS + DEV_COLUMNS

COMBINATIONS = {
    "C1": NOTE_COLUMNS,
    "C2": NOTE_COLUMNS[1:],
    "C3": DEV_COLUMNS,
    "C4": ("dev_velocity", "dev_duration", "dev_ioi"),
    "C5": ALL_COLUMNS,
}


class TooFewNotes(ValueError):
    """IOI/OTD need at least one successor note."""


class DegenerateFit(ValueError):
    """All score onsets equal; the time-map scale is undefined."""


class UnknownCombination(KeyError):
    """Not one of C1..C5."""


class EmptyTrainingSet(ValueError):
    """Normalizer statistics need at least one matrix."""


@dataclass(frozen=True)
class FeatureSchema:
    columns: tuple[str, ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("schema must name at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate schema columns")
        unknown = set(self.columns) - set(ALL_COLUMNS)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")

    def __len__(self) -> int:
        return len(self.columns)

    def index(self, column: str) -> int:
        return self.columns.index(column)


@dataclass
class NormStats:
    """Per-column z-scoring statistics fitted on the training split."""

    columns: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def to_json(self) -> dict:
        return {
            "columns": list(self.columns),
            "mean": [float(x) for x in self.mean],
            "std": [float(x) for x in self.std],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NormStats":
        return cls(
            columns=tuple(obj["columns"]),
            mean=np.asarray(obj["mean"], dtype=np.float64),
            std=np.asarray(obj["std"], dtype=np.float64),
        )


@dataclass
class FeatureMatrix:
    """One performance: a row per matched note, in onset order."""

    schema: FeatureSchema
    rows: np.ndarray
    label: str
    piece_id: str
    normalization: NormStats | None = field(default=None)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.schema):
            raise ValueError(f"rows shape {self.rows.shape} does not fit schema {self.schema.columns}")
        if self.rows.size and not np.all(np.isfinite(self.rows)):
            raise ValueError("non-finite feature values")

    @property
    def n_notes(self) -> int:
        return self.rows.shape[0]


def _gather(notes: NoteList, idx: np.ndarray) -> np.ndarray:
    """(pitch, velocity, onset, offset) float64 rows of the indexed notes."""
    return np.column_stack([notes.pitch[idx], notes.velocity[idx],
                            notes.onset[idx], notes.offset[idx]])


def _timing_columns(onsets: np.ndarray, offsets: np.ndarray):
    """duration, ioi, otd; the final note gets ioi = otd = 0."""
    if len(onsets) < 2:
        raise TooFewNotes(f"need at least 2 matched notes, got {len(onsets)}")
    duration = offsets - onsets
    ioi = np.zeros_like(onsets)
    otd = np.zeros_like(onsets)
    ioi[:-1] = onsets[1:] - onsets[:-1]
    otd[:-1] = onsets[1:] - offsets[:-1]
    return duration, ioi, otd


def _note_columns(perf: np.ndarray) -> np.ndarray:
    """The 7 note-wise columns from performance rows (see ``_gather``)."""
    duration, ioi, otd = _timing_columns(perf[:, 2], perf[:, 3])
    return np.column_stack([perf[:, 0], perf[:, 1], perf[:, 2], perf[:, 3], duration, ioi, otd])


def _deviation_columns(perf: np.ndarray, score: np.ndarray) -> np.ndarray:
    """The 6 deviation columns from matched performance and score rows."""
    p_dur, p_ioi, p_otd = _timing_columns(perf[:, 2], perf[:, 3])
    if np.ptp(score[:, 2]) == 0.0:
        raise DegenerateFit("all score onsets are equal")
    a, b = fit_time_map(score[:, 2], perf[:, 2])
    s_dur, s_ioi, s_otd = _timing_columns(score[:, 2], score[:, 3])
    return np.column_stack([
        perf[:, 1] - score[:, 1],
        perf[:, 2] - (a * score[:, 2] + b),
        perf[:, 3] - (a * score[:, 3] + b),
        p_dur - a * s_dur,
        p_ioi - a * s_ioi,
        p_otd - a * s_otd,
    ])


def resolve_schema(combo: str | FeatureSchema) -> FeatureSchema:
    if isinstance(combo, FeatureSchema):
        return combo
    try:
        return FeatureSchema(COMBINATIONS[combo])
    except KeyError:
        raise UnknownCombination(f"unknown feature combination {combo!r}") from None


def assemble(perf: NoteList, score: NoteList, matched: tuple[np.ndarray, np.ndarray],
             label: str = "", piece_id: str = "") -> FeatureMatrix:
    """All 13 columns (C5) for one performance; ``subset`` projects other combinations.

    ``matched`` holds the performance and score indices of the matched
    notes with performance indices ascending, as ``align.Alignment``'s
    ``perf_idx`` and ``score_idx`` columns do.
    """
    perf_rows, score_rows = _gather(perf, matched[0]), _gather(score, matched[1])
    rows = np.column_stack([_note_columns(perf_rows), _deviation_columns(perf_rows, score_rows)])
    return FeatureMatrix(FeatureSchema(ALL_COLUMNS), rows, label=label, piece_id=piece_id)


def subset(matrix: FeatureMatrix, combo: str | FeatureSchema) -> FeatureMatrix:
    """Project a matrix onto another combination's columns.

    Only defined for unnormalized matrices: statistics fitted on one
    column set do not transfer to another.
    """
    schema = resolve_schema(combo)
    if matrix.normalization is not None:
        raise ValueError("subset before normalization, not after")
    missing = [c for c in schema.columns if c not in matrix.schema.columns]
    if missing:
        raise UnknownCombination(f"matrix lacks columns {missing}")
    idx = [matrix.schema.index(c) for c in schema.columns]
    return FeatureMatrix(
        schema=schema,
        rows=matrix.rows[:, idx].copy(),
        label=matrix.label,
        piece_id=matrix.piece_id,
    )


def segment(matrix: FeatureMatrix, length: int) -> list[FeatureMatrix]:
    """Consecutive non-overlapping windows of exactly ``length`` rows.

    The trailing remainder is dropped; a piece shorter than ``length``
    yields no segments.
    """
    if length < 2:
        raise ValueError(f"segment length must be >= 2, got {length}")
    n_segments = matrix.n_notes // length
    return [
        replace(matrix, rows=matrix.rows[k * length : (k + 1) * length].copy())
        for k in range(n_segments)
    ]


STD_FLOOR = 1e-8


def fit_normalizer(training: list[FeatureMatrix]) -> NormStats:
    """Per-column mean and std over all training rows, left to right."""
    if not training:
        raise EmptyTrainingSet("no training matrices")
    schema = training[0].schema
    for m in training[1:]:
        if m.schema != schema:
            raise ValueError("normalizer inputs must share one schema")
    stacked = np.concatenate([m.rows for m in training], axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    return NormStats(columns=schema.columns, mean=mean, std=std)


def apply_normalizer(matrix: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    if matrix.schema.columns != stats.columns:
        raise ValueError("normalizer columns do not match matrix schema")
    rows = (matrix.rows - stats.mean) / stats.std
    return replace(matrix, rows=rows, normalization=stats)


def save_features(matrix: FeatureMatrix, path: str | Path) -> None:
    """Raw little-endian float32 rows plus a ``<name>.json`` sidecar."""
    path = Path(path)
    payload = matrix.rows.astype("<f4").tobytes(order="C")
    path.write_bytes(payload)
    sidecar = {
        "columns": list(matrix.schema.columns),
        "rows": matrix.n_notes,
        "label": matrix.label,
        "piece_id": matrix.piece_id,
        "normalization": matrix.normalization.to_json() if matrix.normalization else None,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")


def load_features(path: str | Path) -> FeatureMatrix:
    path = Path(path)
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    columns = tuple(sidecar["columns"])
    n_rows = int(sidecar["rows"])
    payload = path.read_bytes()
    expected = n_rows * len(columns) * 4
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(payload)}")
    rows = np.frombuffer(payload, dtype="<f4").reshape(n_rows, len(columns)).astype(np.float64)
    stats = sidecar.get("normalization")
    return FeatureMatrix(
        schema=FeatureSchema(columns),
        rows=rows,
        label=sidecar["label"],
        piece_id=sidecar["piece_id"],
        normalization=NormStats.from_json(stats) if stats else None,
    )
