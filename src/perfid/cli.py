"""``perfid``: reproducible pipelines over the library modules.

Every subcommand takes its settings from its flags alone; each flag's
default is defined in ``build_parser`` and shown by ``perfid <cmd>
--help``. A subcommand writes its artifacts under ``--out`` and refuses
to overwrite existing artifacts unless ``--force`` is passed; ``main``
then writes the manifest of what ran: every parsed flag, the seeds,
digests of the inputs and the artifacts. Re-running a manifest's command
reproduces its artifacts byte for byte.

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


class UsageError(ValueError):
    """Bad flag combination or missing input; exits with code 2."""


class PipelineError(RuntimeError):
    """A stage failed while processing; exits with code 1."""


# what a subcommand returns for its manifest: artifacts, seeds, input digests
Written = tuple[list[Path], list[int], dict]


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


def _write_manifest(args: argparse.Namespace, written: Written) -> None:
    """Record what a command wrote and every parsed flag, keyed as on the command
    line: inside a directory output, or beside a file output."""
    (artifacts, seeds, inputs), out = written, args.out
    base, path = ((out, out / "manifest.json") if out.is_dir()
                  else (out.parent, out.with_name(out.name + ".manifest.json")))
    doc = {
        "command": f"study:{args.id}" if args.command == "study" else args.command,
        "config": {k.replace("_", "-"): v for k, v in vars(args).items()
                   if k not in ("command", "func")},
        "seeds": seeds,
        "inputs": inputs,
        "artifacts": sorted(
            str(p.relative_to(base)) if p.is_relative_to(base) else str(p)
            for p in artifacts
        ),
        "version": __version__,
    }
    # default=str writes the Path-typed flags as strings
    path.write_text(json.dumps(doc, sort_keys=True, indent=1, default=str) + "\n")


def _refuse_existing(paths: list[Path], force: bool) -> None:
    clashes = [p for p in paths if p.exists()]
    if clashes and not force:
        raise PipelineError(
            f"output exists: {clashes[0]} (pass --force to overwrite)"
        )


def _existing(path: Path | None, what: str, exists=Path.is_file) -> Path:
    if path is None:
        raise UsageError(f"{what} is required")
    if not exists(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _with_ids(records: list, ids, what: str) -> list:
    """The ``records`` whose id is in ``ids``; an id the corpus lacks is an error."""
    chosen = [r for r in records if r.id in ids]
    if missing := set(ids) - {r.id for r in chosen}:
        raise PipelineError(f"corpus lacks {len(missing)} of {what}, first {min(missing)}")
    return chosen


# The ``type=`` parsers raise ArgumentTypeError, whose message argparse
# prints; it replaces any other ValueError's with "invalid <type> value".


def _segment_length(text: str) -> int | str:
    """``--length``: a number of notes, or ``full`` for whole pieces."""
    if text.strip().lower() == "full":
        return "full"
    try:
        length = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"want an integer or 'full', got {text!r}") from None
    if length < 2:
        raise argparse.ArgumentTypeError(f"want at least 2 notes, got {length}")
    return length


def _seed_list(low: int | None = None):
    """A ``type=`` for ``--seeds``/``--split-seeds``: at least 2 distinct
    comma-separated integers, each at least ``low`` when it is given."""

    def parse(text: str) -> list[int]:
        try:
            seeds = [int(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"want comma-separated integers, got {text!r}") from None
        if len(seeds) < 2:
            raise argparse.ArgumentTypeError(f"want at least 2 seeds, got {text!r}")
        if len(set(seeds)) < len(seeds):
            raise argparse.ArgumentTypeError(f"want distinct seeds, got {text!r}")
        if low is not None and min(seeds) < low:
            raise argparse.ArgumentTypeError(f"want seeds >= {low}, got {text!r}")
        return seeds

    return parse


def _at_least(low: int):
    """A ``type=`` for integer flags that must be at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"want an integer >= {low}, got {value}")
        return value

    parse.__name__ = f"integer >= {low}"  # argparse names the type when int() fails
    return parse


def _train_config(args: argparse.Namespace) -> TrainConfig:
    """The ``--profile`` settings with every training flag applied.

    Invalid values are usage errors. ``args.lr`` becomes the resolved lr, so
    the manifest records the profile's when ``--lr`` is absent.
    """
    overrides = {} if args.lr is None else {"lr": args.lr}
    if args.command == "train":  # study keeps TrainConfig's decay and seed
        overrides.update(weight_decay=args.weight_decay, seed=args.seed)
    try:
        config = studies.profile_config(
            args.profile,
            batch_size=args.batch_size,
            epochs=args.epochs,
            segment_length=None if args.length == "full" else args.length,
            **overrides,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    args.lr = config.lr
    return config


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args: argparse.Namespace) -> Written:
    out = args.out
    if args.length_min > args.length_max:
        raise UsageError("--length-min exceeds --length-max")
    hard = args.difficulty == "hard"
    styles = (dataset.hard_styles if hard else dataset.default_styles)(args.pianists)
    _refuse_existing([out / "registry.json"], args.force)
    records = dataset.synth_generate(
        styles, args.pieces, args.per_cell, args.seed, out,
        length_range=(args.length_min, args.length_max),
    )
    artifacts = [out / "registry.json"]
    artifacts += [out / r.perf_midi for r in records]
    artifacts += sorted({out / r.score_midi for r in records})
    print(f"wrote {len(records)} performances to {out}")
    return artifacts, [args.seed], {}


def cmd_align(args: argparse.Namespace) -> Written:
    out = args.out
    perf_path = _existing(args.perf, "performance MIDI")
    score_path = _existing(args.score, "score MIDI")
    _refuse_existing([out], args.force)

    try:
        perf = parse_midi(perf_path.read_bytes())
        score = parse_midi(score_path.read_bytes())
        alignment = align(perf, score)
        table = export_alignment(alignment, perf, score)
    except (ValueError, KeyError) as exc:
        raise PipelineError(f"{perf_path.name}: {exc}") from exc

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(table)
    matched = len(alignment.perf_idx)
    print(
        f"matched {matched}, missing {alignment.n_score - matched}, "
        f"extra {alignment.n_perf - matched}, info_loss "
        f"{info_loss(alignment):.2f}%, seed {alignment.seed}, "
        f"dp_passes {alignment.dp_passes}"
    )
    return [out], [], {"perf": _sha256_file(perf_path), "score": _sha256_file(score_path)}


def cmd_extract(args: argparse.Namespace) -> Written:
    out = args.out
    corpus = _existing(args.corpus, "corpus directory", Path.is_dir)
    records = pipeline.load_corpus(corpus)
    _refuse_existing([out / f"{r.id}.f32" for r in records], args.force)
    schema = features.resolve_schema(args.combo)

    matrices = pipeline.extract_corpus(records, corpus)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for rec_id in sorted(matrices):
        matrix = features.subset(matrices[rec_id], schema)
        path = out / f"{rec_id}.f32"
        features.save_features(matrix, path)
        artifacts += [path, Path(str(path) + ".json")]
    print(f"extracted {len(matrices)} matrices ({len(schema)} columns) to {out}")
    return artifacts, [], _hash_corpus(corpus)


def cmd_split(args: argparse.Namespace) -> Written:
    out = args.out
    registry = _existing(args.registry, "registry")
    _refuse_existing([out], args.force)

    records = dataset.load_registry(registry)
    assignment = dataset.split(records, args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(dataset.assignment_to_csv(assignment, records))
    splits = list(assignment.assignment.values())
    print(json.dumps({s: splits.count(s) for s in dataset.SPLITS}, sort_keys=True))
    return [out], [args.seed], {"registry": _sha256_file(registry)}


def cmd_train(args: argparse.Namespace) -> Written:
    out = args.out
    corpus = _existing(args.corpus, "corpus directory", Path.is_dir)
    _refuse_existing([out / "checkpoint.bin", out / "epochs.csv"], args.force)
    records = pipeline.load_corpus(corpus)
    if args.split_csv is None:
        assignment = dataset.split(records, args.split_seed)
    else:
        path = _existing(args.split_csv, "split CSV")
        try:
            assignment = dataset.assignment_from_csv(path.read_text())
        except UnicodeDecodeError as exc:
            raise dataset.MalformedSplitCsv(f"{path}: not UTF-8: {exc}") from exc
        del args.split_seed  # the CSV fixes the split; the manifest records no seed
        records = _with_ids(records, assignment.assignment, "the split CSV's record ids")
    config = _train_config(args)

    matrices = pipeline.extract_corpus(records, corpus)
    sets = pipeline.build_split_sets(matrices, assignment, args.combo)
    result = training.train(config, sets, out_dir=out)

    best = result.best_valid
    print(
        f"best epoch {result.best_epoch}: valid accuracy "
        f"{best.accuracy:.4f}, macro-F1 {best.macro_f1:.4f}"
        if best is not None
        else "zero-epoch run: checkpoint holds the initialized model"
    )
    return [out / "epochs.csv", out / "checkpoint.bin"], [config.seed], _hash_corpus(corpus)


def cmd_eval(args: argparse.Namespace) -> Written:
    out = args.out
    corpus = _existing(args.corpus, "corpus directory", Path.is_dir)
    ckpt_path = _existing(args.checkpoint, "checkpoint")
    _refuse_existing([out / "metrics.json", out / "predictions.csv"], args.force)

    try:
        model, stats, class_names, segment_length, split_ids = training.load_run(
            ckpt_path, args.split)
    except training.UnusableRun as exc:
        raise PipelineError(f"checkpoint lacks usable evaluation metadata: {exc}") from exc
    if args.length is not None:  # absent: the checkpoint's segment length
        segment_length = None if args.length == "full" else args.length
    if args.level == "segment" and segment_length is None:
        raise UsageError("segment-level evaluation needs a segment length: "
                         "pass --length or --level piece")

    # score exactly the records the model was split against
    chosen = _with_ids(pipeline.load_corpus(corpus), set(split_ids),
                       f"the checkpoint's {args.split} record ids")
    if not chosen:
        raise PipelineError(f"split {args.split} selects no performances")
    unknown = sorted({r.pianist for r in chosen} - set(class_names))
    if unknown:
        raise PipelineError(f"pianists unseen at training time: {unknown}")

    matrices = pipeline.extract_corpus(chosen, corpus)
    prepared = [features.apply_normalizer(features.subset(matrices[rid], stats.columns), stats)
                for rid in sorted(matrices)]
    result = evaluate(model, prepared, class_names, level=args.level,
                      segment_length=segment_length)

    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "level": args.level,
        "split": args.split,
        "metrics": result.metrics.to_json(),
        "majority_vote": result.majority.to_json() if result.majority else None,
        "class_names": class_names,
    }
    (out / "metrics.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    (out / "predictions.csv").write_text(predictions_to_csv(result.predictions))
    print(
        f"{args.split} {args.level}: accuracy {result.metrics.accuracy:.4f}, "
        f"macro-F1 {result.metrics.macro_f1:.4f} over {result.metrics.n_eval}"
    )
    inputs = {**_hash_corpus(corpus), "checkpoint": _sha256_file(ckpt_path)}
    return [out / "metrics.json", out / "predictions.csv"], [], inputs


def cmd_study(args: argparse.Namespace) -> Written:
    out = args.out
    corpus = _existing(args.corpus, "corpus directory", Path.is_dir)
    _refuse_existing([out / "report.md"], args.force)
    config = _train_config(args)

    if args.id == "study3":
        corpus_b = _existing(args.corpus_b, "second corpus", Path.is_dir)
        seeds = args.split_seeds
        result = studies.study3(
            corpus, corpus_b, out, split_seeds=tuple(seeds), config=config
        )
        inputs = {"corpus_a": _hash_corpus(corpus), "corpus_b": _hash_corpus(corpus_b)}
    else:
        seeds = args.seeds
        fn = studies.study1 if args.id == "study1" else studies.study2
        result = fn(
            corpus, out, seeds=tuple(seeds), split_seed=args.split_seed, config=config
        )
        inputs = {"corpus": _hash_corpus(corpus)}

    print(f"{args.id} report: {result['report_md']}")
    return [Path(result["report_md"]), Path(result["report_csv"])], seeds, inputs


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
    common.add_argument("--out", type=Path, help="output file or directory (required)")
    common.add_argument("--force", action="store_true", help="overwrite existing outputs")

    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--profile", choices=["desk", "full"], default="desk",
                         help="model size and lr defaults (default %(default)s)")
    fitting.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                         help="default %(default)s")
    fitting.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                         help="default %(default)s")
    fitting.add_argument("--lr", type=float, default=None,
                         help=f"learning rate (default {studies.DESK_LR} for desk, "
                              f"{TrainConfig.lr} for full)")
    fitting.add_argument("--length", type=_segment_length,
                         default=TrainConfig.segment_length,
                         help="segment length in notes, or 'full' (default "
                              "%(default)s; study1 sweeps its own)")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--seed", type=_at_least(0), default=0,
                   help="root random seed, >= 0 (default %(default)s)")
    p.add_argument("--pianists", type=_at_least(2), default=6,
                   help="number of styles (default %(default)s)")
    p.add_argument("--pieces", type=_at_least(1), default=40,
                   help="number of compositions (default %(default)s)")
    p.add_argument("--per-cell", type=_at_least(1), default=3,
                   help="performances per (pianist, piece) (default %(default)s)")
    p.add_argument("--length-min", type=_at_least(1), default=1100,
                   help="min notes per piece (default %(default)s)")
    p.add_argument("--length-max", type=_at_least(1), default=2200,
                   help="max notes per piece (default %(default)s)")
    p.add_argument("--difficulty", choices=["easy", "hard"], default="easy",
                   help="style separation, easy has wide gaps (default %(default)s)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("align", parents=[common],
                       help="align one performance to its score")
    p.add_argument("--perf", type=Path, help="performance MIDI file")
    p.add_argument("--score", type=Path, help="score MIDI file")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("extract", parents=[common],
                       help="write feature matrices for every performance")
    p.add_argument("--corpus", type=Path, help="corpus directory with registry")
    p.add_argument("--combo", choices=list(features.COMBINATIONS), default="C5",
                   help="feature combination (default %(default)s)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("split", parents=[common],
                       help="assign performances to Train/Valid/Test")
    p.add_argument("--registry", type=Path, help="registry JSON")
    p.add_argument("--seed", type=int, default=0,
                   help="split seed (default %(default)s)")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", parents=[common, fitting], help="run one training job")
    p.add_argument("--corpus", type=Path, help="corpus directory")
    p.add_argument("--seed", type=_at_least(0), default=TrainConfig.seed,
                   help="training seed, >= 0 (default %(default)s)")
    p.add_argument("--split-csv", type=Path, help="existing split assignment")
    p.add_argument("--split-seed", type=int, default=7,
                   help="derive the split from this seed unless --split-csv "
                        "is given (default %(default)s)")
    p.add_argument("--combo", choices=list(features.COMBINATIONS),
                   default="C5", help="default %(default)s")
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay,
                   help="default %(default)s")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="score a checkpoint on a split")
    p.add_argument("--checkpoint", type=Path, help="checkpoint file")
    p.add_argument("--corpus", type=Path, help="corpus directory")
    p.add_argument("--split", choices=dataset.SPLITS, default="Test",
                   help="recorded split to score (default %(default)s)")
    p.add_argument("--level", choices=["segment", "piece"], default="segment",
                   help="default %(default)s")
    p.add_argument("--length", type=_segment_length,
                   help="segment length in notes, or 'full' (default: the "
                        "checkpoint's)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("study", parents=[common, fitting],
                       help="run an experiment suite")
    p.add_argument("--id", choices=["study1", "study2", "study3"], required=True,
                   help="the suite to run")
    p.add_argument("--corpus", type=Path, help="corpus directory")
    p.add_argument("--corpus-b", type=Path, help="second corpus (study3 only)")
    p.add_argument("--seeds", type=_seed_list(0), default="1,2,3",
                   help="training seeds >= 0 for study1/study2 (default %(default)s)")
    p.add_argument("--split-seed", type=int, default=7,
                   help="split seed for study1/study2 (default %(default)s)")
    p.add_argument("--split-seeds", type=_seed_list(), default="101,102,103,104,105",
                   help="split seeds for study3 (default %(default)s)")
    p.set_defaults(func=cmd_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    try:
        if args.out is None:
            raise UsageError("--out is required")
        _write_manifest(args, args.func(args))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        pipeline.ExtractionFailed,
        training.DivergedLoss,
        OSError,
        ValueError,
        KeyError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
