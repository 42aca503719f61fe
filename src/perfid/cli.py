"""``perfid``: reproducible pipelines over the library modules.

Every subcommand resolves its settings with one precedence rule
(explicit flag > ``--config`` JSON > built-in default), writes its
artifacts under ``--out``, refuses to overwrite existing artifacts
unless ``--force`` is passed, and drops a manifest describing exactly
what ran: the resolved configuration, the seeds, and digests of the
inputs. Re-running a manifest's command reproduces its artifacts byte
for byte.

Exit codes: 0 success, 1 pipeline failure (diagnostic names the failing
piece or file), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, dataset, features
from .align import align, export_alignment, info_loss
from .experiment import pipeline, studies, training
from .experiment.training import TrainConfig, evaluate, predictions_to_csv
from .midi_io import parse_midi
from .neural import load_checkpoint


class UsageError(ValueError):
    """Bad flag combination or missing input; exits with code 2."""


class PipelineError(RuntimeError):
    """A stage failed while processing; exits with code 1."""


# ---------------------------------------------------------------------------
# plumbing


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_corpus(root: Path) -> dict:
    """Digest of a corpus directory: registry plus a rollup of the MIDIs."""
    registry = root / "registry.json"
    records = pipeline.load_corpus(root)
    rollup = hashlib.sha256()
    paths = sorted({r.perf_midi for r in records} | {r.score_midi for r in records})
    for rel in paths:
        rollup.update(rel.encode())
        rollup.update(bytes.fromhex(_sha256_file(root / rel)))
    return {
        "registry": _sha256_file(registry),
        "midi_rollup": rollup.hexdigest(),
        "n_midi_files": len(paths),
    }


def _manifest_path(out: Path) -> Path:
    if out.suffix and not out.is_dir():
        return out.with_name(out.name + ".manifest.json")
    return out / "manifest.json"


def _write_manifest(
    out: Path, command: str, config: dict, seeds: list[int], inputs: dict,
    artifacts: list[Path],
) -> Path:
    base = out if out.is_dir() else out.parent
    doc = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "inputs": inputs,
        "artifacts": sorted(
            str(p.relative_to(base)) if p.is_relative_to(base) else str(p)
            for p in artifacts
        ),
        "version": __version__,
    }
    path = _manifest_path(out)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return path


def _refuse_existing(paths: list[Path], force: bool) -> None:
    clashes = [p for p in paths if p.exists()]
    if clashes and not force:
        raise PipelineError(
            f"output exists: {clashes[0]} (pass --force to overwrite)"
        )


def _existing_file(path: Path | None, what: str) -> Path:
    if path is None:
        raise UsageError(f"{what} is required")
    if not path.is_file():
        raise UsageError(f"{what} not found: {path}")
    return path


def _existing_dir(path: Path | None, what: str) -> Path:
    if path is None:
        raise UsageError(f"{what} is required")
    if not path.is_dir():
        raise UsageError(f"{what} not found: {path}")
    return path


class _Resolver:
    """Applies the flag > config-file > default precedence."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict = {}
        if args.config is not None:
            cfg_path = _existing_file(Path(args.config), "config file")
            try:
                self.config = json.loads(cfg_path.read_text())
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file is not valid JSON: {exc}") from exc
            if not isinstance(self.config, dict):
                raise UsageError("config file must hold a JSON object")
        self.resolved: dict = {}

    def get(self, name: str, default=None):
        flag = getattr(self.args, name.replace("-", "_"), None)
        if flag is not None:
            value = flag
        elif name in self.config:
            value = self.config[name]
        else:
            value = default
        self.resolved[name] = value
        return value

    def workdir(self) -> Path:
        return Path(self.get("workdir", "."))

    def path(self, name: str, default=None) -> Path | None:
        value = self.get(name, default)
        if value is None:
            return None
        path = Path(value)
        return path if path.is_absolute() else self.workdir() / path

    def out(self) -> Path:
        out = self.path("out")
        if out is None:
            raise UsageError("--out is required")
        return out

    def seeds_list(self, name: str, default: str) -> list[int]:
        raw = self.get(name, default)
        if isinstance(raw, (list, tuple)):
            return [int(s) for s in raw]
        try:
            return [int(part) for part in str(raw).split(",") if part.strip()]
        except ValueError as exc:
            raise UsageError(f"--{name} wants comma-separated integers") from exc


def _segment_length(value) -> int | None:
    if value is None:
        return None
    text = str(value).strip().lower()
    if text == "full":
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"--length wants an integer or 'full', got {value!r}") from exc


def _split_csv(resolver: _Resolver) -> dataset.SplitAssignment | None:
    csv_path = resolver.path("split-csv")
    if csv_path is None:
        return None
    _existing_file(csv_path, "split CSV")
    return dataset.assignment_from_csv(csv_path.read_text())


def _train_config(resolver: _Resolver, n_classes: int = 6) -> TrainConfig:
    """The ``--profile`` settings with every training flag applied.

    Invalid values are usage errors. ``study`` keeps the default
    ``n_classes``: each study row re-sizes the model to its corpus.
    """
    lr = resolver.get("lr", None)
    try:
        config = studies.profile_config(
            str(resolver.get("profile", "desk")),
            n_classes,
            batch_size=int(resolver.get("batch-size", 16)),
            epochs=int(resolver.get("epochs", 60)),
            weight_decay=float(resolver.get("weight-decay", 1e-7)),
            segment_length=_segment_length(resolver.get("length", 1000)),
            combo=str(resolver.get("combo", "C5")),
            seed=int(resolver.get("seed", 0)),
            **({} if lr is None else {"lr": float(lr)}),
        )
    except (ValueError, features.UnknownCombination) as exc:
        raise UsageError(str(exc)) from exc
    resolver.resolved["lr"] = config.lr  # the manifest records the profile's lr
    return config


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    resolver = _Resolver(args)
    out = resolver.out()
    seed = int(resolver.get("seed", 0))
    n_pianists = int(resolver.get("pianists", 6))
    n_pieces = int(resolver.get("pieces", 40))
    per_cell = int(resolver.get("per-cell", 3))
    length_min = int(resolver.get("length-min", 1100))
    length_max = int(resolver.get("length-max", 2200))
    difficulty = str(resolver.get("difficulty", "easy"))
    if difficulty == "easy":
        styles = dataset.default_styles(n_pianists)
    elif difficulty == "hard":
        styles = dataset.hard_styles(n_pianists)
    else:
        raise UsageError(f"--difficulty must be easy or hard, got {difficulty!r}")

    _refuse_existing([out / "registry.json"], bool(resolver.get("force", False)))
    records = dataset.synth_generate(
        styles, n_pieces, per_cell, seed, out, length_range=(length_min, length_max)
    )
    artifacts = [out / "registry.json"]
    artifacts += [out / r.perf_midi for r in records]
    artifacts += sorted({out / r.score_midi for r in records})
    _write_manifest(out, "synth", resolver.resolved, [seed], {}, artifacts)
    print(f"wrote {len(records)} performances to {out}")
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    resolver = _Resolver(args)
    out = resolver.out()
    perf_path = _existing_file(resolver.path("perf"), "performance MIDI")
    score_path = _existing_file(resolver.path("score"), "score MIDI")
    _refuse_existing([out], bool(resolver.get("force", False)))

    try:
        perf = parse_midi(perf_path.read_bytes())
        score = parse_midi(score_path.read_bytes())
        alignment = align(perf, score)
        table = export_alignment(alignment, perf, score)
    except (ValueError, KeyError) as exc:
        raise PipelineError(f"{perf_path.name}: {exc}") from exc

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(table)
    inputs = {"perf": _sha256_file(perf_path), "score": _sha256_file(score_path)}
    _write_manifest(out, "align", resolver.resolved, [], inputs, [out])
    print(
        f"matched {len(alignment.pairs)}, missing {len(alignment.missing)}, "
        f"extra {len(alignment.extra)}, info_loss "
        f"{info_loss(alignment):.2f}%"
    )
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    resolver = _Resolver(args)
    out = resolver.out()
    corpus = _existing_dir(resolver.path("corpus"), "corpus directory")
    combo = str(resolver.get("combo", "C5"))
    records = pipeline.load_corpus(corpus)
    _refuse_existing(
        [out / f"{r.id}.f32" for r in records], bool(resolver.get("force", False))
    )
    try:
        schema = features.resolve_schema(combo)
    except features.UnknownCombination as exc:
        raise UsageError(str(exc)) from exc

    matrices = pipeline.extract_corpus(records, corpus)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for rec_id in sorted(matrices):
        matrix = features.subset(matrices[rec_id], schema)
        path = out / f"{rec_id}.f32"
        features.save_features(matrix, path)
        artifacts += [path, Path(str(path) + ".json")]
    inputs = _hash_corpus(corpus)
    _write_manifest(out, "extract", resolver.resolved, [], inputs, artifacts)
    print(f"extracted {len(matrices)} matrices ({len(schema)} columns) to {out}")
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    resolver = _Resolver(args)
    out = resolver.out()
    registry = _existing_file(resolver.path("registry"), "registry")
    seed = int(resolver.get("seed", 0))
    _refuse_existing([out], bool(resolver.get("force", False)))

    records = dataset.load_registry(registry)
    assignment = dataset.split(records, seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(dataset.assignment_to_csv(assignment, records))
    inputs = {"registry": _sha256_file(registry)}
    _write_manifest(out, "split", resolver.resolved, [seed], inputs, [out])
    stats = dataset.split_stats(assignment, records)
    print(json.dumps(stats["splits"], sort_keys=True))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    resolver = _Resolver(args)
    out = resolver.out()
    corpus = _existing_dir(resolver.path("corpus"), "corpus directory")
    _refuse_existing(
        [out / "checkpoint.bin", out / "epochs.csv"],
        bool(resolver.get("force", False)),
    )
    records = pipeline.load_corpus(corpus)
    assignment = _split_csv(resolver)
    if assignment is None:
        assignment = dataset.split(records, int(resolver.get("split-seed", 7)))
    config = _train_config(resolver, len({r.pianist for r in records}))

    matrices = pipeline.extract_corpus(records, corpus)
    sets = pipeline.build_split_sets(matrices, assignment, config.combo)
    result = training.train(config, sets, out_dir=out)

    inputs = _hash_corpus(corpus)
    artifacts = [out / "epochs.csv", out / "checkpoint.bin"]
    _write_manifest(
        out, "train", resolver.resolved, [config.seed], inputs, artifacts
    )
    best = result.best_valid
    print(
        f"best epoch {result.best_epoch}: valid accuracy "
        f"{best.accuracy:.4f}, macro-F1 {best.macro_f1:.4f}"
        if best is not None
        else "zero-epoch run: checkpoint holds the initialized model"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    resolver = _Resolver(args)
    out = resolver.out()
    corpus = _existing_dir(resolver.path("corpus"), "corpus directory")
    ckpt_path = _existing_file(resolver.path("checkpoint"), "checkpoint")
    split_name = str(resolver.get("split", "Test"))
    if split_name not in dataset.SPLITS:
        raise UsageError(f"--split must be one of {dataset.SPLITS}")
    level = str(resolver.get("level", "segment"))
    if level not in ("segment", "piece"):
        raise UsageError("--level must be segment or piece")
    _refuse_existing(
        [out / "metrics.json", out / "predictions.csv"],
        bool(resolver.get("force", False)),
    )

    model, header = load_checkpoint(ckpt_path)
    extras = header.get("extras", {})
    try:
        stats = features.NormStats.from_json(extras["normalizer"])
        class_names = list(extras["class_names"])
        combo_cols = tuple(extras["schema"])
        segment_length = extras.get("segment_length")
        split_seed = extras["split_seed"]
    except KeyError as exc:
        raise PipelineError(f"checkpoint lacks evaluation metadata: {exc}") from exc

    # score the split the model was trained against
    records = pipeline.load_corpus(corpus)
    assignment = _split_csv(resolver)
    if assignment is None and split_seed is None:
        raise UsageError("the checkpoint was trained on a split CSV: pass --split-csv")
    if assignment is not None and split_seed is not None:
        raise UsageError(
            f"the checkpoint records split seed {split_seed}: drop --split-csv"
        )
    if assignment is None:
        assignment = dataset.split(records, split_seed)
    resolver.resolved["split-seed"] = split_seed  # the manifest records it
    wanted = set(assignment.ids(split_name))
    chosen = [r for r in records if r.id in wanted]
    if not chosen:
        raise PipelineError(f"split {split_name} selects no performances")
    unknown = sorted({r.pianist for r in chosen} - set(class_names))
    if unknown:
        raise PipelineError(f"pianists unseen at training time: {unknown}")

    matrices = pipeline.extract_corpus(chosen, corpus)
    schema = features.FeatureSchema(columns=combo_cols)
    prepared = [
        features.apply_normalizer(features.subset(matrices[rid], schema), stats)
        for rid in sorted(matrices)
    ]
    length_flag = resolver.get("length", None)
    if length_flag is not None:
        segment_length = _segment_length(length_flag)
    result = evaluate(
        model,
        prepared,
        class_names,
        level=level,
        segment_length=segment_length,
    )

    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "level": level,
        "split": split_name,
        "metrics": result.metrics.to_json(),
        "majority_vote": result.majority.to_json() if result.majority else None,
        "class_names": class_names,
    }
    (out / "metrics.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    (out / "predictions.csv").write_text(predictions_to_csv(result.predictions))
    inputs = _hash_corpus(corpus)
    inputs["checkpoint"] = _sha256_file(ckpt_path)
    _write_manifest(
        out,
        "eval",
        resolver.resolved,
        [],
        inputs,
        [out / "metrics.json", out / "predictions.csv"],
    )
    print(
        f"{split_name} {level}: accuracy {result.metrics.accuracy:.4f}, "
        f"macro-F1 {result.metrics.macro_f1:.4f} over {result.metrics.n_eval}"
    )
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    resolver = _Resolver(args)
    out = resolver.out()
    study_id = str(resolver.get("id", ""))
    if study_id not in ("study1", "study2", "study3"):
        raise UsageError("--id must be study1, study2, or study3")
    corpus = _existing_dir(resolver.path("corpus"), "corpus directory")
    _refuse_existing([out / "report.md"], bool(resolver.get("force", False)))

    config = _train_config(resolver)

    if study_id == "study3":
        corpus_b = _existing_dir(resolver.path("corpus-b"), "second corpus")
        split_seeds = resolver.seeds_list("split-seeds", "101,102,103,104,105")
        result = studies.study3(
            corpus, corpus_b, out,
            split_seeds=tuple(split_seeds), config=config,
        )
        seeds = split_seeds
        inputs = {"corpus_a": _hash_corpus(corpus), "corpus_b": _hash_corpus(corpus_b)}
    else:
        seeds = resolver.seeds_list("seeds", "1,2,3")
        split_seed = int(resolver.get("split-seed", 7))
        fn = studies.study1 if study_id == "study1" else studies.study2
        result = fn(
            corpus, out,
            seeds=tuple(seeds), split_seed=split_seed, config=config,
        )
        inputs = {"corpus": _hash_corpus(corpus)}

    artifacts = [Path(result["report_md"]), Path(result["report_csv"])]
    _write_manifest(out, f"study:{study_id}", resolver.resolved, seeds, inputs, artifacts)
    print(f"{study_id} report: {result['report_md']}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfid",
        description="Pianist identification experiments on expressive MIDI.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="root random seed")
    common.add_argument("--out", default=None, help="output file or directory")
    common.add_argument(
        "--force", action="store_true", default=None,
        help="overwrite existing outputs",
    )
    common.add_argument("--config", default=None, help="JSON file with defaults")
    common.add_argument(
        "--workdir", default=None, help="base for relative paths (default .)"
    )

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--pianists", type=int, default=None, help="number of styles")
    p.add_argument("--pieces", type=int, default=None, help="number of compositions")
    p.add_argument("--per-cell", type=int, default=None,
                   help="performances per (pianist, piece)")
    p.add_argument("--length-min", type=int, default=None, help="min notes per piece")
    p.add_argument("--length-max", type=int, default=None, help="max notes per piece")
    p.add_argument("--difficulty", choices=["easy", "hard"], default=None,
                   help="style separation (easy: wide gaps)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("align", parents=[common],
                       help="align one performance to its score")
    p.add_argument("--perf", default=None, help="performance MIDI file")
    p.add_argument("--score", default=None, help="score MIDI file")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("extract", parents=[common],
                       help="write feature matrices for every performance")
    p.add_argument("--corpus", default=None, help="corpus directory with registry")
    p.add_argument("--combo", default=None, help="feature combination C1..C5")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("split", parents=[common],
                       help="assign performances to Train/Valid/Test")
    p.add_argument("--registry", default=None, help="registry JSON")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", parents=[common], help="run one training job")
    p.add_argument("--corpus", default=None, help="corpus directory")
    p.add_argument("--split-csv", default=None, help="existing split assignment")
    p.add_argument("--split-seed", type=int, default=None,
                   help="derive the split from this seed (default 7)")
    p.add_argument("--combo", default=None, help="feature combination (default C5)")
    p.add_argument("--length", default=None,
                   help="segment length in notes, or 'full' (default 1000)")
    p.add_argument("--epochs", type=int, default=None, help="epochs (default 60)")
    p.add_argument("--batch-size", type=int, default=None, help="default 16")
    p.add_argument("--lr", type=float, default=None,
                   help="learning rate (desk default 1e-3, full 8e-5)")
    p.add_argument("--weight-decay", type=float, default=None, help="default 1e-7")
    p.add_argument("--profile", choices=["desk", "full"], default=None,
                   help="model size and lr defaults (default desk)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="score a checkpoint on a split")
    p.add_argument("--checkpoint", default=None, help="checkpoint file")
    p.add_argument("--corpus", default=None, help="corpus directory")
    p.add_argument("--split-csv", default=None,
                   help="the split CSV the checkpoint was trained on "
                        "(otherwise its recorded split seed is used)")
    p.add_argument("--split", default=None, help="Train, Valid, or Test (default)")
    p.add_argument("--level", default=None, help="segment or piece (default segment)")
    p.add_argument("--length", default=None,
                   help="override the checkpoint's segment length")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("study", parents=[common], help="run an experiment suite")
    p.add_argument("--id", default=None, help="study1, study2, or study3")
    p.add_argument("--corpus", default=None, help="corpus directory")
    p.add_argument("--corpus-b", default=None,
                   help="second corpus (study3 only)")
    p.add_argument("--seeds", default=None, help="training seeds, e.g. 1,2,3")
    p.add_argument("--split-seed", type=int, default=None,
                   help="split seed for study1/study2 (default 7)")
    p.add_argument("--split-seeds", default=None,
                   help="split seeds for study3, e.g. 101,102,103,104,105")
    p.add_argument("--profile", choices=["desk", "full"], default=None)
    p.add_argument("--epochs", type=int, default=None, help="override epochs")
    p.add_argument("--lr", type=float, default=None, help="override learning rate")
    p.add_argument("--batch-size", type=int, default=None, help="override batch size")
    p.add_argument("--length", default=None,
                   help="base segment length for study3 rows (study1 sweeps its own)")
    p.set_defaults(func=cmd_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        pipeline.ExtractionFailed,
        training.EmptySplit,
        training.DivergedLoss,
        training.SchemaMismatch,
        features.EmptyTrainingSet,
        OSError,
        ValueError,
        KeyError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
