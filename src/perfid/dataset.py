"""Performance registry, splitting, and the synthetic desk-scale corpus.

The splitter groups performances by (composition, pianist) and assigns
each group to Train/Valid/Test so that groups with at least 3 members put
exactly one performance into Valid and one into Test, and larger groups
approach 8:1:1. Group sizes:

    n <= 1      all to Train
    n == 2      one to Train, the other to Valid or Test by a fair coin
    3 <= n <= 9 one to Valid, one to Test, the rest to Train
    n >= 10     round(4n/5) to Train, remainder halved (odd extra to Valid)

The synthetic generator stands in for the unavailable recorded corpora:
shared random diatonic scores are rendered once per pianist with that
pianist's style transform (velocity bias/spread, sinusoidal tempo curve,
micro-timing jitter, articulation ratio, extra/missing note rates), so
the ground-truth "performer" signal is known by construction.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .midi_io import NoteList, write_midi

SPLITS = ("Train", "Valid", "Test")

# C major across the piano's comfortable middle range
_DIATONIC = tuple(
    p for p in range(36, 97) if p % 12 in (0, 2, 4, 5, 7, 9, 11)
)


class InvalidStyleConfig(ValueError):
    """Style parameters outside their documented ranges."""


class MalformedRegistry(ValueError):
    """Not UTF-8 JSON holding a list of records with string fields, a repeated
    record id, or a record whose MIDI path is empty, holds a NUL byte or
    leaves its corpus directory."""


class MalformedSplitCsv(ValueError):
    """A split CSV with a bad header, a row without 4 fields, an unknown
    split or a repeated record id; names the 1-based line."""


@dataclass(frozen=True)
class PerformanceRecord:
    id: str
    pianist: str
    composition: str
    perf_midi: str
    score_midi: str


@dataclass
class SplitAssignment:
    assignment: dict[str, str]

    def __getitem__(self, record_id: str) -> str:
        return self.assignment[record_id]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _random_split(items: list, r: float, rng: random.Random) -> tuple[list, list]:
    """Uniformly pick round(r*|items|) elements into the first part."""
    k = _round_half_up(r * len(items))
    shuffled = list(items)
    rng.shuffle(shuffled)
    return shuffled[:k], shuffled[k:]


def split(records: list[PerformanceRecord], seed: int) -> SplitAssignment:
    """Assign every record to Train/Valid/Test, reproducibly from the seed."""
    groups: dict[tuple[str, str], list[PerformanceRecord]] = {}
    for rec in records:
        groups.setdefault((rec.composition, rec.pianist), []).append(rec)

    rng = random.Random(seed)
    assignment: dict[str, str] = {}
    for key in sorted(groups):
        group = sorted(groups[key], key=lambda r: r.id)
        n = len(group)
        if n <= 1:
            chosen = {rec.id: "Train" for rec in group}
        elif n == 2:
            a, b = _random_split(group, 1 / n, rng)
            chosen = {b[0].id: "Train"}
            chosen[a[0].id] = "Valid" if rng.random() <= 0.5 else "Test"
        elif n <= 9:
            a, b = _random_split(group, 1 / n, rng)
            b, c = _random_split(b, 1 / (n - 1), rng)
            chosen = {a[0].id: "Valid", b[0].id: "Test"}
            chosen.update({rec.id: "Train" for rec in c})
        else:
            a, b = _random_split(group, 4 / 5, rng)
            b, c = _random_split(b, 1 / 2, rng)
            chosen = {rec.id: "Train" for rec in a}
            chosen.update({rec.id: "Valid" for rec in b})
            chosen.update({rec.id: "Test" for rec in c})
        assignment.update(chosen)
    return SplitAssignment(assignment=assignment)


def assignment_to_csv(assignment: SplitAssignment, records: list[PerformanceRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "pianist", "composition", "split"])
    for rec in sorted(records, key=lambda r: r.id):
        writer.writerow([rec.id, rec.pianist, rec.composition, assignment[rec.id]])
    return buf.getvalue()


def assignment_from_csv(text: str) -> SplitAssignment:
    reader = csv.reader(io.StringIO(text, newline=""))
    try:  # (1-based line, fields) of every line that is not blank
        rows = [(reader.line_num, row) for row in reader if len(row) > 1 or "".join(row).strip()]
    except csv.Error as exc:
        raise MalformedSplitCsv(f"line {reader.line_num}: {exc}") from exc
    if not rows or rows[0][1] != ["id", "pianist", "composition", "split"]:
        raise MalformedSplitCsv("bad split CSV header")
    assignment = {}
    for k, row in rows[1:]:
        if len(row) != 4:
            raise MalformedSplitCsv(f"line {k}: want 4 fields, got {len(row)}")
        rec_id, _, _, s = row
        if s not in SPLITS:
            raise MalformedSplitCsv(f"line {k}: unknown split {s!r}")
        if rec_id in assignment:
            raise MalformedSplitCsv(f"line {k}: repeated record id {rec_id!r}")
        assignment[rec_id] = s
    return SplitAssignment(assignment=assignment)


def save_registry(records: list[PerformanceRecord], path: str | Path,
                  provenance: dict | None = None) -> None:
    doc = {
        "records": [asdict(r) for r in records],
        "provenance": provenance or {},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_registry(path: str | Path) -> list[PerformanceRecord]:
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MalformedRegistry(f"{path}: unreadable JSON: {exc}") from exc
    rows = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise MalformedRegistry(f"{path}: want an object with a 'records' list")
    keys = {f.name for f in fields(PerformanceRecord)}
    for k, row in enumerate(rows):
        if not (isinstance(row, dict) and row.keys() == keys
                and all(isinstance(v, str) for v in row.values())):
            raise MalformedRegistry(f"{path}: record {k} wants the string fields {sorted(keys)}")
    records = [PerformanceRecord(**r) for r in rows]
    ids = [r.id for r in records]
    for rec_id in ids:  # an id names the record's feature file
        if rec_id in ("", "..") or Path(rec_id).name != rec_id:
            raise MalformedRegistry(f"{path}: record id {rec_id!r} is not a file name")
    if len(set(ids)) != len(ids):
        raise MalformedRegistry("duplicate record ids in registry")
    return records


@dataclass(frozen=True)
class StyleConfig:
    """One pianist's rendering habits applied on top of the score."""

    velocity_bias: float = 0.0
    velocity_spread: float = 0.0
    tempo_amplitude: float = 0.0  # seconds of sinusoidal timeline warp
    tempo_period: float = 16.0  # seconds
    timing_jitter: float = 0.0  # sigma, seconds
    articulation: float = 1.0  # duration ratio; < 1 detached, > 1 legato
    extra_rate: float = 0.0
    missing_rate: float = 0.0

    def __post_init__(self):
        if self.velocity_spread < 0 or self.timing_jitter < 0:
            raise InvalidStyleConfig("spread and jitter must be non-negative")
        if self.articulation <= 0:
            raise InvalidStyleConfig("articulation ratio must be positive")
        if self.tempo_period <= 0:
            raise InvalidStyleConfig("tempo period must be positive")
        if not 0 <= self.extra_rate < 1 or not 0 <= self.missing_rate < 1:
            raise InvalidStyleConfig("note rates must lie in [0, 1)")
        if self.tempo_amplitude < 0:
            raise InvalidStyleConfig("tempo amplitude must be non-negative")
        # keep the warped timeline monotonic
        if self.tempo_amplitude * 2 * math.pi / self.tempo_period >= 1:
            raise InvalidStyleConfig("tempo curve would fold time back on itself")


def default_styles(n_pianists: int = 6) -> list[StyleConfig]:
    """Six clearly separated synthetic pianists (velocity bias spans +-10)."""
    if n_pianists < 2:
        raise InvalidStyleConfig("need at least 2 pianists")
    styles = []
    for k in range(n_pianists):
        frac = k / (n_pianists - 1)
        styles.append(
            StyleConfig(
                velocity_bias=-10.0 + 20.0 * frac,
                velocity_spread=4.0,
                tempo_amplitude=0.02 + 0.05 * frac,
                tempo_period=8.0 + 4.0 * k,
                timing_jitter=0.004 + 0.004 * frac,
                articulation=0.70 + 0.12 * k,
                extra_rate=0.01,
                missing_rate=0.01,
            )
        )
    return styles


def hard_styles(n_pianists: int = 6) -> list[StyleConfig]:
    """Closely spaced pianists for split-sensitivity experiments.

    Style gaps sit near the noise floor, so test accuracy depends
    noticeably on which performances land in the training split.
    """
    if n_pianists < 2:
        raise InvalidStyleConfig("need at least 2 pianists")
    styles = []
    for k in range(n_pianists):
        frac = k / (n_pianists - 1)
        styles.append(
            StyleConfig(
                velocity_bias=-4.0 + 8.0 * frac,
                velocity_spread=6.0,
                tempo_amplitude=0.010 + 0.012 * frac,
                tempo_period=10.0 + 2.0 * k,
                timing_jitter=0.010,
                articulation=0.85 + 0.05 * k,
                extra_rate=0.03,
                missing_rate=0.03,
            )
        )
    return styles


def _make_score(rng: np.random.Generator, n_notes: int) -> NoteList:
    """Random diatonic stream on a light rhythmic grid."""
    iois = rng.choice([0.2, 0.25, 0.3, 0.4, 0.5], size=n_notes, p=[0.2, 0.35, 0.2, 0.15, 0.1])
    onsets = np.concatenate([[0.0], np.cumsum(iois[:-1])])
    steps = rng.integers(-3, 4, size=n_notes)
    degree = np.clip(np.cumsum(steps) + len(_DIATONIC) // 2, 0, len(_DIATONIC) - 1)
    velocities = rng.integers(58, 72, size=n_notes)
    return NoteList(np.array(_DIATONIC)[degree], onsets, onsets + iois * 0.85, velocities)


def render_performance(score: NoteList, style: StyleConfig,
                       rng: np.random.Generator) -> NoteList:
    """Apply one pianist's style transform to a score.

    After one uniform draw for the tempo curve's phase, each score note
    draws, in this order: a uniform for a miss; for a sounded note, two
    normals (timing jitter, velocity) and a uniform for an extra note; for
    an extra note, an integer for its pitch step and a uniform for its
    onset shift. Only the draws run note by note; the arithmetic then runs
    on arrays in the same float operations, so a generator state always
    renders the same performance. Each extra note follows its note.
    """
    random, normal, integers, uniform = rng.random, rng.standard_normal, rng.integers, rng.uniform
    missing_rate, extra_rate = style.missing_rate, style.extra_rate
    two_pi = 2 * math.pi
    phase = uniform(0, two_pi)
    missed, noise, extras = [], [], []  # score rows; two normals per kept row; (row, step, shift)
    put = noise.append
    for k in range(len(score)):
        if random() < missing_rate:
            missed.append(k)
            continue
        put(normal())
        put(normal())
        if random() < extra_rate:
            extras.append((k, integers(0, 4), uniform(-0.03, 0.03)))

    kept = np.delete(np.arange(len(score)), missed)
    noise = np.array(noise).reshape(-1, 2)
    start = score.onset[kept]
    # math.sin per element: NumPy's vectorised sin need not round as libm's does
    curve = np.array(list(map(math.sin, (two_pi * start / style.tempo_period + phase).tolist())))
    onset = start + style.tempo_amplitude * curve + style.timing_jitter * noise[:, 0]
    duration = (score.offset[kept] - start) * style.articulation
    velocity = np.rint(score.velocity[kept] + style.velocity_bias
                       + style.velocity_spread * noise[:, 1])
    pitch = score.pitch[kept]
    clamped = np.where(onset > 0.0, onset, 0.0)
    rows = np.stack([pitch, clamped, clamped + duration, np.clip(velocity, 1, 127)], axis=1)

    # a brushed wrong note right next to the real one
    row, step, shift = np.array(extras).reshape(-1, 3).T
    at = np.searchsorted(kept, row)  # the extra note's real note among the kept
    extra_onset = onset[at] + shift
    extra_onset = np.where(extra_onset > 0.0, extra_onset, 0.0)
    wrong = pitch[at] + np.array([-2, -1, 1, 2])[step.astype(np.int64)]
    extra = np.stack([np.clip(wrong, 0, 127), extra_onset, extra_onset + duration[at] * 0.5,
                      np.clip(velocity[at] - 8, 1, 127)], axis=1)
    rows = np.insert(rows, at + 1, extra, axis=0)
    return NoteList(*rows.T).sorted()


def synth_generate(styles: list[StyleConfig], n_pieces: int, perf_per_cell: int,
                   seed: int, out_dir: str | Path,
                   length_range: tuple[int, int] = (300, 3000)) -> list[PerformanceRecord]:
    """Write a labelled synthetic corpus and its registry under ``out_dir``.

    Returns the performance records. Equal arguments produce byte-identical
    files; per-piece and per-performance generators are derived from the
    root seed, so pieces may be generated in any order.
    """
    if len(styles) < 2:
        raise InvalidStyleConfig("need at least 2 pianist styles")
    if not 1 <= length_range[0] <= length_range[1]:
        raise ValueError(f"bad length range {length_range}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "scores").mkdir(exist_ok=True)

    root = np.random.SeedSequence(seed)
    piece_seeds = root.spawn(n_pieces)
    records: list[PerformanceRecord] = []
    pianists = [f"pianist_{k:02d}" for k in range(len(styles))]

    for piece_idx in range(n_pieces):
        piece_id = f"piece_{piece_idx:03d}"
        piece_root = piece_seeds[piece_idx]
        score_rng = np.random.default_rng(piece_root)
        n_notes = int(score_rng.integers(length_range[0], length_range[1] + 1))
        score = _make_score(score_rng, n_notes)
        score_path = out_dir / "scores" / f"{piece_id}.mid"
        score_path.write_bytes(write_midi(score))

        perf_seeds = piece_root.spawn(len(styles) * perf_per_cell)
        for p_idx, (pianist, style) in enumerate(zip(pianists, styles)):
            pianist_dir = out_dir / "corpus" / pianist
            pianist_dir.mkdir(parents=True, exist_ok=True)
            for k in range(perf_per_cell):
                rng = np.random.default_rng(perf_seeds[p_idx * perf_per_cell + k])
                performance = render_performance(score, style, rng)
                perf_path = pianist_dir / f"{piece_id}__take{k}.mid"
                perf_path.write_bytes(write_midi(performance))
                records.append(
                    PerformanceRecord(
                        id=f"{pianist}__{piece_id}__take{k}",
                        pianist=pianist,
                        composition=piece_id,
                        perf_midi=str(perf_path.relative_to(out_dir)),
                        score_midi=str(score_path.relative_to(out_dir)),
                    )
                )

    save_registry(
        records,
        out_dir / "registry.json",
        provenance={
            "generator": "synthetic",
            "seed": seed,
            "n_pieces": n_pieces,
            "perf_per_cell": perf_per_cell,
            "length_range": list(length_range),
            "styles": [asdict(s) for s in styles],
        },
    )
    return records
