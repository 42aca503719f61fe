"""From MIDI files on disk to normalized, labelled feature matrices.

The expensive steps (parsing and alignment) run once per performance;
every feature combination is a column projection of the full 13-column
matrix, so sweeping combinations re-uses the same extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .. import features
from ..align import align
from ..dataset import MalformedRegistry, PerformanceRecord, SplitAssignment, load_registry
from ..midi_io import NoteList, parse_midi


class ExtractionFailed(RuntimeError):
    """Alignment or parsing failed for one performance; names the piece."""

    def __init__(self, record_id: str, cause: Exception):
        super().__init__(f"{record_id}: {cause}")
        self.record_id = record_id
        self.cause = cause


def load_corpus(root: str | Path) -> list[PerformanceRecord]:
    """Read the registry under a corpus directory, whose MIDI paths lie in it."""
    records = load_registry(Path(root) / "registry.json")
    base = Path(root).resolve()
    for record in records:
        for rel in (record.perf_midi, record.score_midi):
            if not rel or "\0" in rel:
                raise MalformedRegistry(f"{record.id}: {rel!r} is not a file path")
            if not (base / rel).resolve().is_relative_to(base):
                raise MalformedRegistry(f"{record.id}: {rel} lies outside the corpus {root}")
    return records


def extract_performance(
    record: PerformanceRecord, root: str | Path, score: NoteList
) -> features.FeatureMatrix:
    """Parse one performance, align it to its parsed score and featurize it."""
    perf = parse_midi((Path(root) / record.perf_midi).read_bytes())
    alignment = align(perf, score)
    matched = (alignment.perf_idx, alignment.score_idx)
    return features.assemble(perf, score, matched, label=record.pianist, piece_id=record.id)


def extract_corpus(
    records: list[PerformanceRecord], root: str | Path
) -> dict[str, features.FeatureMatrix]:
    """Full 13-column matrices for every record, keyed by record id; parses each score once."""
    root = Path(root)
    scores: dict[str, NoteList] = {}
    out: dict[str, features.FeatureMatrix] = {}
    for record in records:
        try:
            if record.score_midi not in scores:
                scores[record.score_midi] = parse_midi((root / record.score_midi).read_bytes())
            out[record.id] = extract_performance(record, root, scores[record.score_midi])
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
    schema = features.resolve_schema(combo)
    for rec_id in sorted(matrices):
        split_name = assignment.assignment.get(rec_id)
        if split_name is None:
            continue
        buckets[split_name].append(features.subset(matrices[rec_id], schema))

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
