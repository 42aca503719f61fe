"""The benchmark's workloads: corpus set-up, one timed cycle, output checks.

Each workload is one closed-loop client: a cycle issues its commands one
after another and the next cycle starts when the previous one has ended.
``extract-long`` and ``train-eval-desk`` run the ``perfid`` command line
in child processes, as a user would; ``train-full`` calls
``perfid.experiment`` in this process. perfid sees only the files that
set-up generated from the workload seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from perfid import dataset, features
from perfid.experiment import pipeline, training
from perfid.midi_io import parse_midi

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
SPLIT_SEED = 7  # the CLI's default split seed, used by train-full as well

# Corpus generator settings, chosen so that the work a cycle does barely
# depends on the seed. Every piece of a corpus has the same length. Long
# hard-style takes always take alignment's re-seed path (7-8 DP passes).
# Clean takes (no extra or missing notes) align in one pass. Takes with a
# few wrong notes, long easy-style or short ones, re-seed at random, which
# made the alignment work of a run vary by up to a factor of two between
# seeds.
GENERATORS = {
    "extract-long": {"difficulty": "hard", "clean": False, "pianists": 2,
                     "pieces": 3, "per_cell": 1, "notes": 2600},
    "train-eval-desk": {"difficulty": "easy", "clean": True, "pianists": 3,
                        "pieces": 4, "per_cell": 2, "notes": 750},
    "train-full": {"difficulty": "easy", "clean": False, "pianists": 3,
                   "pieces": 3, "per_cell": 2, "notes": 450},
}
# The smoke test's corpus sizes.
TINY_GENERATORS = {
    "extract-long": {"pieces": 2, "notes": 300},
    "train-eval-desk": {"pieces": 2, "notes": 260},
    "train-full": {"pieces": 2, "notes": 130},
}
DESK_SEGMENT = 200  # the CLI default of 1000 exceeds every piece here
FULL_SEGMENT = 100
FULL_EPOCHS = 3

# Workload-specific end-to-end metrics: name -> (unit, better).
WORKLOAD_METRICS = {
    "extract-long": {
        "extract_notes_per_s": ("notes/s", "higher"),
        "info_loss_pct": ("%", "lower"),
        "failed_frac": ("frac", "lower"),
    },
    "train-eval-desk": {
        "train_cmd_s": ("s", "lower"),
        "eval_cmd_s": ("s", "lower"),
        "test_segment_accuracy": ("frac", "higher"),
        "test_piece_accuracy": ("frac", "higher"),
        "train_loss_final": ("nats", "lower"),
        "failed_frac": ("frac", "lower"),
    },
    "train-full": {
        "train_samples_per_s": ("1/s", "higher"),
        "train_loss_final": ("nats", "lower"),
        "failed_frac": ("frac", "lower"),
    },
}


def files_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def tree_digest(root: Path) -> str:
    return files_digest(p for p in root.rglob("*") if p.is_file())


class Cycle:
    """What one timed cycle did and whether its outputs passed the checks."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.values: dict[str, float] = {}
        self.records: list[dict] = []

    def tally(self, problems: list[str]) -> None:
        """Count one attempted unit of work, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


class Workload:
    """Shared set-up and child-process plumbing; subclasses add the cycle."""

    name = ""
    in_process = False  # True when perfid runs in this process, not in children

    def __init__(self, work: Path, tiny: bool):
        self.work = work
        self.gen = dict(GENERATORS[self.name])
        if tiny:
            self.gen.update(TINY_GENERATORS[self.name])
        self.tiny = tiny
        self.corpus: Path | None = None
        self.records: list[dataset.PerformanceRecord] = []
        self.notes: dict[str, int] = {}
        self.reference: dict[str, object] = {}  # first cycle's outputs

    # -- set-up --------------------------------------------------------------

    def synthesize(self, dest: Path, seed: int) -> list[dataset.PerformanceRecord]:
        g = self.gen
        styles = (dataset.default_styles if g["difficulty"] == "easy"
                  else dataset.hard_styles)(g["pianists"])
        if g["clean"]:
            styles = [replace(s, extra_rate=0.0, missing_rate=0.0) for s in styles]
        return dataset.synth_generate(
            styles, g["pieces"], g["per_cell"], seed, dest,
            length_range=(g["notes"], g["notes"]),
        )

    def setup(self, dest: Path, seed: int) -> None:
        """The timed set-up: build the corpus (and whatever else the cycle needs)."""
        self.records = self.synthesize(dest, seed)
        self.corpus = dest

    def count_notes(self) -> None:
        """Performance note counts, for info-loss and the row-count check."""
        self.notes = {
            r.id: len(parse_midi((self.corpus / r.perf_midi).read_bytes()))
            for r in self.records
        }

    # -- timed phase -----------------------------------------------------------

    def run_cli(self, args: list, spans: Path | None, run_id: str):
        """Run one perfid command; returns (seconds, problems)."""
        args = [str(a) for a in args]
        if spans is None:
            cmd = [sys.executable, "-m", "perfid.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                   str(spans), run_id, "--", *args]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.work, capture_output=True, text=True,
            timeout=170,
        )
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return seconds, [f"perfid {args[0]} exited {proc.returncode}: "
                             + " | ".join(tail)]
        return seconds, []

    def same_as_first(self, key: str, value) -> list[str]:
        """Reruns on identical inputs must reproduce the first cycle's output."""
        first = self.reference.setdefault(key, value)
        return [] if first == value else [f"{key} differs from the first cycle"]

    def cycle(self, k: int, traced: bool) -> Cycle:
        raise NotImplementedError

    def summarize(self, cycles: list[Cycle]) -> dict[str, float]:
        raise NotImplementedError


def _median_of(cycles: list[Cycle], key: str) -> float:
    return tracing.median(c.values[key] for c in cycles if key in c.values)


class ExtractLong(Workload):
    """``perfid extract --combo C5`` over long pieces, one take each."""

    name = "extract-long"

    def cycle(self, k: int, traced: bool) -> Cycle:
        c = Cycle(traced)
        out = self.work / f"cycle{k}"
        spans = out.with_suffix(".spans") if traced else None
        c.wall, cmd_problems = self.run_cli(
            ["extract", "--corpus", self.corpus, "--out", out, "--combo", "C5"],
            spans, f"cycle{k}/extract",
        )
        rows = 0
        for rec in self.records:
            problems = list(cmd_problems)
            if not problems:
                path = out / f"{rec.id}.f32"
                n_rows, problems = check_features(path, self.notes[rec.id])
                rows += n_rows
            if not problems:
                problems = self.same_as_first(rec.id, files_digest(
                    [path, path.with_name(path.name + ".json")]))
            c.tally(problems)
        c.values["rows"] = rows
        if spans is not None and spans.exists():
            c.records = tracing.read_records(spans)
        return c

    def summarize(self, cycles: list[Cycle]) -> dict[str, float]:
        notes = sum(self.notes.values())
        rows = _median_of(cycles, "rows")
        return {
            "extract_notes_per_s": notes / tracing.median(c.wall for c in cycles),
            "info_loss_pct": 100.0 * (1.0 - rows / notes),
        }


def check_features(path: Path, n_notes: int) -> tuple[int, list[str]]:
    """Rows in one written feature file, and what is wrong with it."""
    try:
        matrix = features.load_features(path)
    except (OSError, ValueError, KeyError) as exc:
        return 0, [f"{path.name} does not load: {exc}"]
    problems = []
    if len(matrix.schema) != 13:
        problems.append(f"{path.name} has {len(matrix.schema)} columns, not 13")
    if not np.isfinite(matrix.rows).all():
        problems.append(f"{path.name} holds non-finite values")
    if matrix.n_notes > n_notes:
        problems.append(f"{path.name} has {matrix.n_notes} rows for {n_notes} notes")
    return matrix.n_notes, problems


class TrainEvalDesk(Workload):
    """``perfid train`` (desk profile), then ``perfid eval`` per level."""

    name = "train-eval-desk"

    def cycle(self, k: int, traced: bool) -> Cycle:
        c = Cycle(traced)
        base = self.work / f"cycle{k}"
        spans = base.with_suffix(".spans") if traced else None
        run = base / "train"
        train_args = ["train", "--corpus", self.corpus, "--out", run,
                      "--length", DESK_SEGMENT]
        epochs = 60
        if self.tiny:
            epochs = 2
            train_args += ["--epochs", epochs]
        seconds, problems = self.run_cli(train_args, spans, f"cycle{k}/train")
        if not problems:
            c.values["train_loss_final"], problems = check_epochs(
                run / "epochs.csv", epochs)
            problems += self.same_as_first("train", files_digest(
                [run / "epochs.csv", run / "checkpoint.bin"]))
        c.tally(problems)
        c.values["train_cmd_s"] = seconds
        c.values["eval_cmd_s"] = 0.0
        for level in ("segment", "piece"):
            out = base / level
            seconds, problems = self.run_cli(
                ["eval", "--corpus", self.corpus, "--checkpoint",
                 run / "checkpoint.bin", "--out", out, "--level", level],
                spans, f"cycle{k}/eval-{level}",
            )
            if not problems:
                c.values[f"test_{level}_accuracy"], problems = check_metrics(
                    out / "metrics.json")
                problems += self.same_as_first(level, files_digest(
                    [out / "metrics.json", out / "predictions.csv"]))
            c.tally(problems)
            c.values["eval_cmd_s"] += seconds
        c.wall = c.values["train_cmd_s"] + c.values["eval_cmd_s"]
        if spans is not None and spans.exists():
            c.records = tracing.read_records(spans)
        return c

    def summarize(self, cycles: list[Cycle]) -> dict[str, float]:
        return {key: _median_of(cycles, key) for key in (
            "train_cmd_s", "eval_cmd_s", "test_segment_accuracy",
            "test_piece_accuracy", "train_loss_final")}


def check_epochs(path: Path, epochs: int) -> tuple[float, list[str]]:
    """The last training loss in an ``epochs.csv``, and what is wrong with it."""
    try:
        with open(path, newline="") as fh:
            losses = [float(row["train_loss"]) for row in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return math.nan, [f"{path.name} does not parse: {exc}"]
    problems = []
    if len(losses) != epochs:
        problems.append(f"{path.name} has {len(losses)} epochs, expected {epochs}")
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"{path.name} holds a non-finite training loss")
    return (losses[-1] if losses else math.nan), problems


def check_metrics(path: Path) -> tuple[float, list[str]]:
    """The accuracy in an evaluation ``metrics.json``, and what is wrong with it."""
    try:
        accuracy = float(json.loads(path.read_text())["metrics"]["accuracy"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return math.nan, [f"{path.name} does not parse: {exc}"]
    if not 0.0 <= accuracy <= 1.0:
        return accuracy, [f"{path.name} reports accuracy {accuracy}"]
    return accuracy, []


class TrainFull(Workload):
    """``experiment.train`` on the full reference model, then ``evaluate``."""

    name = "train-full"
    in_process = True

    def setup(self, dest: Path, seed: int) -> None:
        super().setup(dest, seed)
        matrices = pipeline.extract_corpus(self.records, dest)
        self.sets = pipeline.build_split_sets(
            matrices, dataset.split(self.records, SPLIT_SEED), "C5")

    def cycle(self, k: int, traced: bool) -> Cycle:
        c = Cycle(traced)
        epochs = 1 if self.tiny else FULL_EPOCHS
        config = training.TrainConfig(epochs=epochs, segment_length=FULL_SEGMENT)
        tracer = tracing.Tracer(f"cycle{k}") if traced else None
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            result = training.train(config, self.sets)
            trained = time.perf_counter()
            ev = training.evaluate(
                result.model, self.sets.test, self.sets.class_names,
                level="segment", segment_length=FULL_SEGMENT,
            )
            c.wall = time.perf_counter() - start
        except Exception:  # a failing program is a result to report, not a crash
            traceback.print_exc()
            c.tally(["experiment.train or evaluate raised"])
            return c
        finally:
            if tracer:
                tracer.uninstall()
                c.records = tracer.take("done")
        losses = [row["train_loss"] for row in result.log]
        problems = []
        if len(losses) != epochs or not all(math.isfinite(x) for x in losses):
            problems.append(f"training log has losses {losses}")
        c.tally(problems + self.same_as_first("train", losses))
        problems = []
        if not 0.0 <= ev.metrics.accuracy <= 1.0:
            problems.append(f"evaluation reports accuracy {ev.metrics.accuracy}")
        c.tally(problems + self.same_as_first("evaluate", ev.predictions))
        segments = sum(m.n_notes // FULL_SEGMENT for m in self.sets.train)
        c.values["train_samples_per_s"] = segments * epochs / (trained - start)
        c.values["train_loss_final"] = losses[-1]
        return c

    def summarize(self, cycles: list[Cycle]) -> dict[str, float]:
        return {key: _median_of(cycles, key)
                for key in ("train_samples_per_s", "train_loss_final")}


WORKLOADS = {w.name: w for w in (ExtractLong, TrainEvalDesk, TrainFull)}
