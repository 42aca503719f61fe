"""End-to-end checks of the command line pipeline.

Every test drives ``perfid.cli.main`` in-process with an argv list and
asserts on exit codes, printed output, and the files left behind.
"""

import csv
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from helpers import tree_hashes
from perfid import dataset, features
from perfid.cli import main
from perfid.experiment import pipeline, studies
from perfid.neural import ModelConfig, desk_config, load_checkpoint

SMALL = [
    "--pianists", "2", "--pieces", "2", "--per-cell", "3",
    "--length-min", "40", "--length-max", "60", "--seed", "5",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli_corpus") / "c"
    assert main(["synth", "--out", str(root)] + SMALL) == 0
    return root


@pytest.fixture(scope="module")
def long_corpus(tmp_path_factory) -> Path:
    """Pieces long enough for 1000-note segments (study sweeps)."""
    root = tmp_path_factory.mktemp("cli_long") / "c"
    argv = [
        "synth", "--out", str(root),
        "--pianists", "2", "--pieces", "2", "--per-cell", "3",
        "--length-min", "1050", "--length-max", "1200", "--seed", "11",
    ]
    assert main(argv) == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus) -> Path:
    out = tmp_path_factory.mktemp("cli_train") / "run"
    argv = [
        "train", "--corpus", str(corpus), "--out", str(out),
        "--epochs", "2", "--length", "full", "--seed", "1",
    ]
    assert main(argv) == 0
    return out


# ---------------------------------------------------------------------------
# parser-level behaviour


def test_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for name in ("synth", "align", "extract", "split", "train", "eval", "study"):
        assert name in text


def test_version_flag(capsys):
    from perfid import __version__

    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_unknown_flag_is_usage_error():
    assert main(["synth", "--bogus", "1"]) == 2


def test_missing_out_is_usage_error(capsys):
    assert main(["synth"]) == 2
    assert "--out is required" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_registry_and_manifest(corpus):
    records = dataset.load_registry(corpus / "registry.json")
    assert len(records) == 12
    for rec in records:
        assert (corpus / rec.perf_midi).is_file()
        assert (corpus / rec.score_midi).is_file()

    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seeds"] == [5]
    assert "registry.json" in manifest["artifacts"]
    assert manifest["config"]["per-cell"] == 3


def test_synth_refuses_overwrite_then_yields_to_force(corpus, capsys):
    assert main(["synth", "--out", str(corpus)] + SMALL) == 1
    assert "output exists" in capsys.readouterr().err
    assert main(["synth", "--out", str(corpus), "--force"] + SMALL) == 0


def test_synth_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "c"
    argv = ["synth", "--out", str(out)] + SMALL
    assert main(argv) == 0
    before = tree_hashes(out)
    shutil.rmtree(out)
    assert main(argv) == 0
    assert tree_hashes(out) == before


def test_synth_rejects_unknown_difficulty(tmp_path):
    argv = ["synth", "--out", str(tmp_path / "c"), "--difficulty", "brutal"]
    assert main(argv) == 2


# ---------------------------------------------------------------------------
# align


def test_align_writes_table_and_manifest(corpus, tmp_path, capsys):
    rec = dataset.load_registry(corpus / "registry.json")[0]
    out = tmp_path / "pairs.tsv"
    argv = [
        "align", "--perf", str(corpus / rec.perf_midi),
        "--score", str(corpus / rec.score_midi), "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_text().startswith("perf_id\tperf_onset\tperf_pitch")
    manifest = json.loads((tmp_path / "pairs.tsv.manifest.json").read_text())
    assert manifest["command"] == "align"
    assert set(manifest["inputs"]) == {"perf", "score"}
    assert "matched" in capsys.readouterr().out

    assert main(argv) == 1  # overwrite refusal applies to single files too
    assert main(argv + ["--force"]) == 0


def test_align_missing_input_is_usage_error(corpus, tmp_path):
    rec = dataset.load_registry(corpus / "registry.json")[0]
    argv = [
        "align", "--perf", str(tmp_path / "ghost.mid"),
        "--score", str(corpus / rec.score_midi), "--out", str(tmp_path / "t.tsv"),
    ]
    assert main(argv) == 2


def test_align_garbage_midi_is_pipeline_error(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.mid"
    bad.write_bytes(b"not a midi file")
    rec = dataset.load_registry(corpus / "registry.json")[0]
    argv = [
        "align", "--perf", str(bad),
        "--score", str(corpus / rec.score_midi), "--out", str(tmp_path / "t.tsv"),
    ]
    assert main(argv) == 1
    assert "bad.mid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# extract


def test_extract_writes_feature_files(corpus, tmp_path, capsys):
    out = tmp_path / "feat"
    argv = ["extract", "--corpus", str(corpus), "--out", str(out), "--combo", "C4"]
    assert main(argv) == 0
    assert "extracted 12 matrices (3 columns)" in capsys.readouterr().out

    records = dataset.load_registry(corpus / "registry.json")
    schema = features.resolve_schema("C4")
    for rec in records:
        path = out / f"{rec.id}.f32"
        assert path.is_file() and Path(str(path) + ".json").is_file()
        matrix = features.load_features(path)
        assert matrix.schema.columns == schema.columns

    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == 2 * len(records)


def test_extract_rejects_unknown_combo(corpus, tmp_path):
    argv = [
        "extract", "--corpus", str(corpus),
        "--out", str(tmp_path / "f"), "--combo", "C9",
    ]
    assert main(argv) == 2


def test_extract_rerun_is_byte_identical(corpus, tmp_path):
    out = tmp_path / "feat"
    argv = [
        "extract", "--corpus", str(corpus), "--out", str(out), "--force",
    ]
    assert main(argv) == 0
    before = tree_hashes(out)
    assert main(argv) == 0
    assert tree_hashes(out) == before


# ---------------------------------------------------------------------------
# split


def test_split_writes_csv_and_counts(corpus, tmp_path, capsys):
    out = tmp_path / "splits.csv"
    argv = [
        "split", "--registry", str(corpus / "registry.json"),
        "--seed", "3", "--out", str(out),
    ]
    assert main(argv) == 0
    counts = json.loads(capsys.readouterr().out)
    # 4 groups of 3 takes: one take per group to each split
    assert counts == {"Train": 4, "Valid": 4, "Test": 4}

    assignment = dataset.assignment_from_csv(out.read_text())
    records = dataset.load_registry(corpus / "registry.json")
    assert {r.id for r in records} == set(assignment.assignment)
    assert (tmp_path / "splits.csv.manifest.json").is_file()


def test_split_missing_registry_is_usage_error(tmp_path):
    argv = [
        "split", "--registry", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "s.csv"),
    ]
    assert main(argv) == 2


def test_workdir_resolves_relative_outputs(corpus, tmp_path):
    argv = [
        "split", "--workdir", str(tmp_path),
        "--registry", str(corpus / "registry.json"),
        "--seed", "3", "--out", "sub/splits.csv",
    ]
    assert main(argv) == 0
    assert (tmp_path / "sub" / "splits.csv").is_file()


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_log(trained, capsys):
    assert (trained / "checkpoint.bin").is_file()
    with open(trained / "epochs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2

    manifest = json.loads((trained / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert sorted(manifest["artifacts"]) == ["checkpoint.bin", "epochs.csv"]
    assert set(manifest["inputs"]) == {"registry", "midi_rollup", "n_midi_files"}

    _, header = load_checkpoint(trained / "checkpoint.bin")
    extras = header["extras"]
    assert len(extras["class_names"]) == 2
    assert extras["segment_length"] is None
    assert extras["schema"] == list(features.resolve_schema("C5").columns)


def test_train_refuses_overwrite(corpus, trained):
    argv = [
        "train", "--corpus", str(corpus), "--out", str(trained),
        "--epochs", "2", "--length", "full", "--seed", "1",
    ]
    assert main(argv) == 1
    assert main(argv + ["--force"]) == 0


def test_train_runs_are_reproducible(corpus, tmp_path):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        argv = [
            "train", "--corpus", str(corpus), "--out", str(out),
            "--epochs", "2", "--length", "full", "--seed", "1",
        ]
        assert main(argv) == 0
        digests.append(
            (
                hashlib.sha256((out / "checkpoint.bin").read_bytes()).hexdigest(),
                (out / "epochs.csv").read_text(),
            )
        )
    assert digests[0] == digests[1]


def test_train_bad_length_is_usage_error(corpus, tmp_path):
    argv = [
        "train", "--corpus", str(corpus), "--out", str(tmp_path / "t"),
        "--length", "sometimes",
    ]
    assert main(argv) == 2


def test_config_file_supplies_defaults_flags_override(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "length": "full", "seed": 1}))

    out1 = tmp_path / "r1"
    argv = ["train", "--corpus", str(corpus), "--out", str(out1), "--config", str(cfg)]
    assert main(argv) == 0
    with open(out1 / "epochs.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 1

    out2 = tmp_path / "r2"
    argv = [
        "train", "--corpus", str(corpus), "--out", str(out2),
        "--config", str(cfg), "--epochs", "2",
    ]
    assert main(argv) == 0
    with open(out2 / "epochs.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 2
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2  # flag beat the config file
    assert manifest["config"]["length"] == "full"  # config beat the default


def test_malformed_config_file_is_usage_error(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    argv = ["train", "--corpus", str(corpus), "--out", str(tmp_path / "t"),
            "--config", str(cfg)]
    assert main(argv) == 2


# ---------------------------------------------------------------------------
# eval


def test_eval_piece_level(corpus, trained, tmp_path, capsys):
    out = tmp_path / "ev"
    argv = [
        "eval", "--corpus", str(corpus),
        "--checkpoint", str(trained / "checkpoint.bin"),
        "--out", str(out), "--split", "Test", "--level", "piece",
    ]
    assert main(argv) == 0
    assert "Test piece: accuracy" in capsys.readouterr().out

    doc = json.loads((out / "metrics.json").read_text())
    assert doc["level"] == "piece" and doc["split"] == "Test"
    assert doc["metrics"]["n_eval"] == 4
    assert doc["majority_vote"] is None

    lines = [l for l in (out / "predictions.csv").read_text().splitlines() if l]
    assert lines[0] == "piece_id,segment_index,true,pred"
    assert len(lines) == doc["metrics"]["n_eval"] + 1

    manifest = json.loads((out / "manifest.json").read_text())
    assert "checkpoint" in manifest["inputs"]


def test_eval_segment_level_with_length_override(corpus, trained, tmp_path):
    out = tmp_path / "ev"
    argv = [
        "eval", "--corpus", str(corpus),
        "--checkpoint", str(trained / "checkpoint.bin"),
        "--out", str(out), "--split", "Test", "--length", "20",
    ]
    assert main(argv) == 0
    doc = json.loads((out / "metrics.json").read_text())

    records = pipeline.load_corpus(corpus)
    assignment = dataset.split(records, 7)
    matrices = pipeline.extract_corpus(records, corpus)
    wanted = set(assignment.ids("Test"))
    expected = sum(matrices[r.id].rows.shape[0] // 20 for r in records if r.id in wanted)
    assert doc["metrics"]["n_eval"] == expected
    assert doc["majority_vote"]["n_eval"] == 4


def test_eval_rejects_bad_split_and_level(corpus, trained, tmp_path):
    base = [
        "eval", "--corpus", str(corpus),
        "--checkpoint", str(trained / "checkpoint.bin"),
        "--out", str(tmp_path / "ev"),
    ]
    assert main(base + ["--split", "Dev"]) == 2
    assert main(base + ["--level", "note"]) == 2


def test_eval_missing_checkpoint_is_usage_error(corpus, tmp_path):
    argv = [
        "eval", "--corpus", str(corpus),
        "--checkpoint", str(tmp_path / "ghost.bin"),
        "--out", str(tmp_path / "ev"),
    ]
    assert main(argv) == 2


def test_eval_unknown_pianists_fail(trained, tmp_path, capsys):
    other = tmp_path / "other"
    argv = [
        "synth", "--out", str(other), "--pianists", "3", "--pieces", "1",
        "--per-cell", "3", "--length-min", "40", "--length-max", "60",
        "--seed", "6",
    ]
    assert main(argv) == 0
    argv = [
        "eval", "--corpus", str(other),
        "--checkpoint", str(trained / "checkpoint.bin"),
        "--out", str(tmp_path / "ev"), "--level", "piece",
    ]
    assert main(argv) == 1
    assert "unseen at training time" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# studies


def test_study_rejects_bad_id_and_seeds(corpus, tmp_path):
    base = ["study", "--corpus", str(corpus), "--out", str(tmp_path / "s")]
    assert main(base + ["--id", "study9"]) == 2
    assert main(base + ["--id", "study1", "--seeds", "1,x"]) == 2


def test_study1_mini_sweep(long_corpus, tmp_path, capsys):
    out = tmp_path / "s1"
    argv = [
        "study", "--id", "study1", "--corpus", str(long_corpus),
        "--out", str(out), "--seeds", "1,2", "--epochs", "1",
    ]
    assert main(argv) == 0
    assert "study1 report" in capsys.readouterr().out

    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["length"] for r in rows] == ["400", "600", "800", "1000", "Full"]
    for row in rows:
        assert 0.0 <= float(row["piece_accuracy_mean"]) <= 1.0
    assert (out / "report.md").is_file()
    assert (out / "manifest.json").is_file()


def test_study2_mini_sweep(long_corpus, tmp_path):
    out = tmp_path / "s2"
    argv = [
        "study", "--id", "study2", "--corpus", str(long_corpus),
        "--out", str(out), "--seeds", "1,2", "--epochs", "1",
    ]
    assert main(argv) == 0
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["combination"] for r in rows] == ["C1", "C2", "C3", "C4", "C5"]
    assert [int(r["features"]) for r in rows] == [7, 6, 6, 3, 13]


@pytest.mark.parametrize("study_id", ["study1", "study2"])
def test_study_rows_train_the_requested_profile(study_id, corpus, tmp_path, monkeypatch):
    """``--profile full`` sweeps the reference network; desk the slim one."""
    rows = []

    def record_row(config, seeds, sets, out_dir=None):
        rows.append((config, len(sets.class_names)))
        return {"mean": {}, "std": {}, "formatted": {}}

    monkeypatch.setattr(studies, "repeat_runs", record_row)
    for profile in ("full", "desk"):
        argv = [
            "study", "--id", study_id, "--corpus", str(corpus), "--seeds", "1",
            "--out", str(tmp_path / profile), "--profile", profile,
        ]
        assert main(argv) == 0
    full, desk = rows[: len(rows) // 2], rows[len(rows) // 2 :]

    for config, n_classes in full:
        model = config.resolve_model(n_classes)
        assert config.lr == 8e-5
        assert model.channels == ModelConfig().channels == (128, 256, 512, 512, 768)
        assert model.in_features == len(features.resolve_schema(config.combo))
    if study_id == "study2":
        config, n_classes = full[0]
        assert (config.combo, config.resolve_model(n_classes).in_features) == ("C1", 7)
    for config, n_classes in desk:
        width = len(features.resolve_schema(config.combo))
        assert config.lr == studies.DESK_LR
        assert config.model == desk_config(width, n_classes)


def test_study3_mini_split_sensitivity(corpus, tmp_path, capsys):
    other = tmp_path / "b"
    assert main(["synth", "--out", str(other)] + SMALL[:-2] + ["--seed", "6"]) == 0

    out = tmp_path / "s3"
    argv = [
        "study", "--id", "study3", "--corpus", str(corpus),
        "--corpus-b", str(other), "--out", str(out),
        "--split-seeds", "11,12", "--epochs", "1", "--length", "20",
    ]
    assert main(argv) == 0
    assert "study3 report" in capsys.readouterr().out

    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["corpus"] for r in rows] == ["A", "B"]
    for row in rows:
        assert int(row["n_performances"]) == 12
        assert float(row["std"]) >= 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["inputs"]) == {"corpus_a", "corpus_b"}


def test_study3_requires_second_corpus(corpus, tmp_path):
    argv = [
        "study", "--id", "study3", "--corpus", str(corpus),
        "--out", str(tmp_path / "s3"),
    ]
    assert main(argv) == 2
