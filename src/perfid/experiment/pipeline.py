"""From MIDI files on disk to normalized, labelled feature matrices.

The expensive steps (parsing and alignment) run once per performance;
every feature combination is a column projection of the full 13-column
matrix, so sweeping combinations re-uses the same extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .. import features
from ..align import align, filter_matched
from ..dataset import PerformanceRecord, SplitAssignment, load_registry
from ..midi_io import parse_midi


class ExtractionFailed(RuntimeError):
    """Alignment or parsing failed for one performance; names the piece."""

    def __init__(self, record_id: str, cause: Exception):
        super().__init__(f"{record_id}: {cause}")
        self.record_id = record_id
        self.cause = cause


def load_corpus(root: str | Path) -> list[PerformanceRecord]:
    """Read the registry under a corpus directory."""
    return load_registry(Path(root) / "registry.json")


def extract_performance(
    record: PerformanceRecord, root: str | Path
) -> features.FeatureMatrix:
    """Parse, align and featurize one performance against its score."""
    root = Path(root)
    perf = parse_midi((root / record.perf_midi).read_bytes())
    score = parse_midi((root / record.score_midi).read_bytes())
    alignment = align(perf, score)
    pairs = filter_matched(alignment, perf, score)
    return features.assemble(
        pairs, "C5", label=record.pianist, piece_id=record.id
    )


def extract_corpus(
    records: list[PerformanceRecord], root: str | Path
) -> dict[str, features.FeatureMatrix]:
    """Full 13-column matrices for every record, keyed by record id."""
    out: dict[str, features.FeatureMatrix] = {}
    for record in records:
        try:
            out[record.id] = extract_performance(record, root)
        except (ValueError, KeyError, OSError) as exc:
            raise ExtractionFailed(record.id, exc) from exc
    return out


@dataclass
class SplitSets:
    """Normalized full-piece matrices per split, plus the label universe."""

    train: list[features.FeatureMatrix]
    valid: list[features.FeatureMatrix]
    test: list[features.FeatureMatrix]
    normalizer: features.NormStats
    class_names: list[str]

    def class_index(self, label: str) -> int:
        return self.class_names.index(label)


def build_split_sets(
    matrices: dict[str, features.FeatureMatrix],
    assignment: SplitAssignment,
    combo: str = "C5",
) -> SplitSets:
    """Project to a combination, fit normalization on Train, apply to all.

    Matrices are ordered by record id within each split so downstream
    shuffling is the only source of ordering randomness.
    """
    buckets: dict[str, list[features.FeatureMatrix]] = {
        "Train": [],
        "Valid": [],
        "Test": [],
    }
    for rec_id in sorted(matrices):
        split_name = assignment.assignment.get(rec_id)
        if split_name is None:
            continue
        buckets[split_name].append(features.subset(matrices[rec_id], combo))

    stats = features.fit_normalizer(buckets["Train"])
    normalized = {
        name: [features.apply_normalizer(m, stats) for m in bucket]
        for name, bucket in buckets.items()
    }
    class_names = sorted({m.label for bucket in buckets.values() for m in bucket})
    return SplitSets(
        train=normalized["Train"],
        valid=normalized["Valid"],
        test=normalized["Test"],
        normalizer=stats,
        class_names=class_names,
    )
