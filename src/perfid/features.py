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

A matrix's schema is its column names, one of the ``COMBINATIONS`` C1..C5:
``assemble`` builds all 13 columns (C5), ``subset`` projects onto another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
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
    """One performance: a row per matched note in onset order, a column per ``schema`` name."""

    schema: tuple[str, ...]
    rows: np.ndarray
    label: str
    piece_id: str

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.schema):
            raise ValueError(f"rows shape {self.rows.shape} does not fit schema {self.schema}")
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


def resolve_schema(combo: str) -> tuple[str, ...]:
    """The column names of combination ``combo``."""
    try:
        return COMBINATIONS[combo]
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
    return FeatureMatrix(ALL_COLUMNS, rows, label=label, piece_id=piece_id)


def subset(matrix: FeatureMatrix, schema: tuple[str, ...]) -> FeatureMatrix:
    """Project an unnormalized matrix onto another combination's columns."""
    missing = [c for c in schema if c not in matrix.schema]
    if missing:
        raise UnknownCombination(f"matrix lacks columns {missing}")
    idx = [matrix.schema.index(c) for c in schema]
    # a column gather is F-ordered; the C-ordered copy lets segment return views
    return replace(matrix, schema=schema, rows=matrix.rows[:, idx].copy())


def segment(matrix: FeatureMatrix, length: int) -> np.ndarray:
    """Consecutive non-overlapping windows of exactly ``length`` rows.

    A (windows, length, columns) view of ``matrix.rows``. The trailing
    remainder is dropped; a piece shorter than ``length`` yields no windows.
    """
    if length < 2:
        raise ValueError(f"segment length must be >= 2, got {length}")
    n_segments = matrix.n_notes // length
    return matrix.rows[: n_segments * length].reshape(n_segments, length, len(matrix.schema))


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
    return NormStats(columns=schema, mean=mean, std=std)


def apply_normalizer(matrix: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    if matrix.schema != stats.columns:
        raise ValueError("normalizer columns do not match matrix schema")
    return replace(matrix, rows=(matrix.rows - stats.mean) / stats.std)


def save_features(matrix: FeatureMatrix, path: str | Path) -> None:
    """Raw little-endian float32 rows plus a ``<name>.json`` sidecar."""
    path = Path(path)
    payload = matrix.rows.astype("<f4").tobytes(order="C")
    path.write_bytes(payload)
    sidecar = {
        "columns": list(matrix.schema),
        "rows": matrix.n_notes,
        "label": matrix.label,
        "piece_id": matrix.piece_id,
        "normalization": None,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")


def load_features(path: str | Path) -> FeatureMatrix:
    """The matrix :func:`save_features` wrote; a malformed sidecar raises ValueError."""
    path = Path(path)
    try:
        sidecar = json.loads(Path(str(path) + ".json").read_text())
    except RecursionError as exc:
        raise ValueError(f"{path}.json: unreadable JSON: {exc}") from exc
    sidecar = sidecar if isinstance(sidecar, dict) else {}
    columns, n_rows, label, piece_id = map(sidecar.get, ("columns", "rows", "label", "piece_id"))
    columns = tuple(columns) if isinstance(columns, list) else None
    if not (columns in COMBINATIONS.values() and type(n_rows) is int and n_rows >= 0
            and isinstance(label, str) and isinstance(piece_id, str)):
        raise ValueError(f"{path}.json is not an object with one combination's columns, "
                         "a row count >= 0 and a string label and piece_id")
    payload = path.read_bytes()
    expected = n_rows * len(columns) * 4
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(payload)}")
    rows = np.frombuffer(payload, dtype="<f4").reshape(n_rows, len(columns)).astype(np.float64)
    return FeatureMatrix(schema=columns, rows=rows, label=label, piece_id=piece_id)
