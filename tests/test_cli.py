"""End-to-end checks of the command line pipeline.

Every test drives ``perfid.cli.main`` in-process with an argv list and
asserts on exit codes, printed output, and the files left behind.
"""

import csv
import hashlib
import json
import re
import shutil
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import tree_hashes
from perfid import dataset, features
from perfid.cli import main
from perfid.experiment import pipeline, studies
from perfid.neural import desk_config, load_checkpoint
from perfid.neural import model as model_module

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


def rewrite_registry(root: Path, edit) -> None:
    """Replace the corpus registry under ``root`` with ``edit(records)``."""
    records = dataset.load_registry(root / "registry.json")
    dataset.save_registry(edit(records), root / "registry.json")


def scored_pieces(corpus: Path, ckpt: Path, out: Path) -> set[str] | int:
    """The piece ids a piece-level ``eval`` scores, or its exit code on failure."""
    argv = ["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
            "--out", str(out), "--level", "piece"]
    code = main(argv)
    if code != 0:
        return code
    with open(out / "predictions.csv") as fh:
        return {row["piece_id"] for row in csv.DictReader(fh)}


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


@pytest.mark.parametrize(
    "command", ["synth", "align", "extract", "split", "train", "eval", "study"]
)
def test_subcommand_help_renders_its_defaults(command, capsys):
    assert main([command, "--help"]) == 0
    assert "--out" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["extract", "eval", "split"])
def test_flags_a_command_ignores_are_usage_errors(command, corpus, trained, tmp_path):
    """``--seed`` where nothing is seeded, the retired ``--workdir`` and
    ``eval --split-csv`` (the checkpoint records its split)."""
    split_csv = tmp_path / "s7.csv"
    assert main(["split", "--registry", str(corpus / "registry.json"),
                 "--out", str(split_csv)]) == 0
    ev = ["--corpus", str(corpus), "--out", str(tmp_path / "ev"),
          "--checkpoint", str(trained / "checkpoint.bin"), "--level", "piece"]
    argvs = {
        "extract": [["--corpus", str(corpus), "--out", str(tmp_path / "f"),
                     "--seed", "3"]],
        "eval": [ev + ["--seed", "1"], ev + ["--split-csv", str(split_csv)]],
        "split": [["--registry", str(corpus / "registry.json"),
                   "--out", str(tmp_path / "s.csv"), "--workdir", str(tmp_path)]],
    }[command]
    for argv in argvs:
        assert main([command, *argv]) == 2


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


@pytest.mark.parametrize("bad", [
    ["--pieces", "-2"], ["--per-cell", "-1"], ["--pianists", "1"],
    ["--length-min", "0"], ["--length-min", "50", "--length-max", "10"],
    ["--pieces", "0"], ["--per-cell", "0"],
])
def test_synth_bad_counts_are_usage_errors(bad, tmp_path):
    out = tmp_path / "c"
    argv = ["synth", "--out", str(out), "--pianists", "2", "--pieces", "2",
            "--length-min", "20", "--length-max", "30", *bad]
    assert main(argv) == 2
    assert not out.exists()


def test_synth_negative_seed_is_usage_error_before_any_file(tmp_path):
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), "--seed", "-1"] + SMALL[:-2]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["study", "--id", "study2", "--seeds", "1,1"], "--seeds: want distinct seeds"),
    (["study", "--id", "study1", "--seeds=1,-2"], "--seeds: want seeds >= 0"),
    (["study", "--id", "study1", "--seeds", "1,x"], "--seeds: want comma-separated integers"),
    (["study", "--id", "study3", "--split-seeds", "5"], "--split-seeds: want at least 2 seeds"),
    (["synth", "--seed", "-1"], "--seed: want an integer >= 0, got -1"),
    (["synth", "--pianists", "1"], "--pianists: want an integer >= 2, got 1"),
    (["train", "--length", "1"], "--length: want at least 2 notes, got 1"),
    (["train", "--length", "sometimes"], "--length: want an integer or 'full'"),
], ids=["repeated-seed", "negative-seed", "non-integer-seed", "one-split-seed",
        "negative-synth-seed", "one-pianist", "short-length", "word-length"])
def test_flag_value_errors_name_the_reason(argv, reason, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"argument {reason}" in capsys.readouterr().err
    assert not out.exists()


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
    summary = capsys.readouterr().out
    assert "matched" in summary
    assert re.search(r", seed (least-squares|consensus|offset), dp_passes \d+$", summary)

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


def test_align_truncated_midi_is_pipeline_error(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.mid"  # a note-on whose velocity byte lies past the file end
    bad.write_bytes(b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480)
                    + b"MTrk" + struct.pack(">I", 3) + b"\x00\x90\x3c")
    rec = dataset.load_registry(corpus / "registry.json")[0]
    argv = [
        "align", "--perf", str(bad),
        "--score", str(corpus / rec.score_midi), "--out", str(tmp_path / "t.tsv"),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad.mid") and "Traceback" not in err


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
        assert matrix.schema == schema

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


RECORD = {"id": "a", "pianist": "p", "composition": "c",
          "perf_midi": "a.mid", "score_midi": "s.mid"}


@pytest.mark.parametrize("doc", [
    {"records": [1, 2]},
    {"records": [{k: v for k, v in RECORD.items() if k != "score_midi"}]},
    [RECORD],
], ids=["non-object-records", "record-missing-a-key", "top-level-list"])
def test_extract_malformed_registry_is_pipeline_error(doc, tmp_path, capsys):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "registry.json").write_text(json.dumps(doc))
    assert main(["extract", "--corpus", str(corpus), "--out", str(tmp_path / "f")]) == 1
    assert "error: MalformedRegistry: " in capsys.readouterr().err


@pytest.mark.parametrize("path", ["../../etc/hostname", "/etc/hostname", "sub/../../x.mid"])
def test_extract_refuses_records_outside_the_corpus(path, corpus, tmp_path, capsys,
                                                    monkeypatch):
    root = tmp_path / "c"
    root.mkdir()
    records = dataset.load_registry(corpus / "registry.json")
    bad = replace(records[1], score_midi=path)
    dataset.save_registry([records[0], bad, *records[2:]], root / "registry.json")

    def no_parse(*args):
        raise AssertionError("read a MIDI file before checking the registry")

    monkeypatch.setattr(pipeline, "parse_midi", no_parse)
    assert main(["extract", "--corpus", str(root), "--out", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert f"error: MalformedRegistry: {bad.id}: {path} lies outside" in err


@pytest.mark.parametrize("rec_id", ["", "..", "../outside", "sub/take"])
@pytest.mark.parametrize("command", ["train", "extract"])
def test_a_record_id_that_is_not_a_file_name_is_refused(command, rec_id, corpus, tmp_path,
                                                        capsys):
    root = tmp_path / "c"
    shutil.copytree(corpus, root)
    records = dataset.load_registry(root / "registry.json")
    dataset.save_registry([replace(records[0], id=rec_id), *records[1:]],
                          root / "registry.json")
    argv = [command, "--corpus", str(root), "--out", str(tmp_path / "out" / "run")]
    if command == "train":
        argv += ["--epochs", "1", "--length", "20"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: MalformedRegistry: {root / 'registry.json'}: record id ")
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".f32")]


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


def test_a_file_output_without_a_suffix_gets_its_manifest_beside_it(corpus, tmp_path, capsys):
    perf, score = "corpus/pianist_00/piece_000__take0.mid", "scores/piece_000.mid"
    runs = {
        "pairs": ["align", "--perf", str(corpus / perf), "--score", str(corpus / score)],
        "splits": ["split", "--registry", str(corpus / "registry.json")],
    }
    for name, argv in runs.items():
        argv += ["--out", str(tmp_path / name)]
        assert main(argv) == 0, name
        assert (tmp_path / name).is_file()
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["artifacts"] == [name]
        capsys.readouterr()
        assert main(argv) == 1, name
        assert "output exists" in capsys.readouterr().err


def test_split_missing_registry_is_usage_error(tmp_path):
    argv = [
        "split", "--registry", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "s.csv"),
    ]
    assert main(argv) == 2


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
    assert extras["normalizer"]["columns"] == list(features.resolve_schema("C5"))
    assert not {"schema", "combo", "train_seed"} & set(extras)


def test_train_manifest_records_every_setting(trained):
    """Defaults are recorded as parsed; the profile's lr as resolved."""
    config = json.loads((trained / "manifest.json").read_text())["config"]
    assert config["epochs"] == 2 and config["length"] == "full"
    assert config["profile"] == "desk" and config["lr"] == studies.DESK_LR
    assert (config["batch-size"], config["split-seed"], config["combo"]) == (16, 7, "C5")


def test_train_combo_reaches_the_model_through_the_split_sets(corpus, tmp_path):
    out = tmp_path / "c4"
    argv = ["train", "--corpus", str(corpus), "--out", str(out), "--combo", "C4",
            "--epochs", "1", "--length", "full", "--seed", "1"]
    assert main(argv) == 0
    model, header = load_checkpoint(out / "checkpoint.bin")
    assert model.config.in_features == 3
    assert header["extras"]["normalizer"]["columns"] == list(features.COMBINATIONS["C4"])
    pieces = scored_pieces(corpus, out / "checkpoint.bin", tmp_path / "ev")
    assert isinstance(pieces, set) and pieces  # eval exited 0 and scored the Test split


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


def test_train_negative_seed_is_usage_error_before_extraction(corpus, tmp_path,
                                                               monkeypatch):
    def extract_corpus(*args, **kwargs):
        raise AssertionError("the corpus was extracted before the seed was checked")

    monkeypatch.setattr(pipeline, "extract_corpus", extract_corpus)
    out = tmp_path / "t"
    assert main(["train", "--corpus", str(corpus), "--out", str(out), "--seed", "-1"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--lr", "--weight-decay"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_non_finite_lr_or_decay_is_usage_error(flag, value, corpus, tmp_path,
                                                      monkeypatch):
    def extract_corpus(*args, **kwargs):
        raise AssertionError("the corpus was extracted before the flag was checked")

    monkeypatch.setattr(pipeline, "extract_corpus", extract_corpus)
    argv = [
        "train", "--corpus", str(corpus), "--out", str(tmp_path / "t"),
        flag, value,
    ]
    assert main(argv) == 2


def test_train_sizes_the_model_to_the_pianists_of_the_split(tmp_path, monkeypatch):
    """A split CSV without one pianist trains a model without that class,
    and ``train`` extracts only the takes the CSV assigns."""
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--pianists", "3", "--pieces", "3",
                 "--per-cell", "3", "--length-min", "120", "--length-max", "150",
                 "--seed", "4"]) == 0
    split_csv = tmp_path / "split.csv"
    assert main(["split", "--registry", str(corpus / "registry.json"),
                 "--seed", "7", "--out", str(split_csv)]) == 0
    lines = split_csv.read_text().splitlines()
    split_csv.write_text("\n".join(l for l in lines if ",pianist_02," not in l) + "\n")

    extracted = []
    real_extract = pipeline.extract_performance

    def counting_extract(record, root, score):
        extracted.append(record.id)
        return real_extract(record, root, score)

    monkeypatch.setattr(pipeline, "extract_performance", counting_extract)
    out = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--split-csv", str(split_csv),
                 "--out", str(out), "--epochs", "1", "--length", "50"]) == 0
    assert len(extracted) == 18
    assert not [rec_id for rec_id in extracted if rec_id.startswith("pianist_02")]
    model, header = load_checkpoint(out / "checkpoint.bin")
    assert header["extras"]["class_names"] == ["pianist_00", "pianist_01"]
    assert model.config.n_classes == 2


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0]] + rows[3:], "line 3: want 4 fields"),
    (lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0] + ",Dev"] + rows[3:],
     "line 3: unknown split 'Dev'"),
    (lambda rows: rows + [rows[1]], "repeated record id"),
], ids=["three-fields", "unknown-split", "repeated-id"])
def test_train_rejects_a_malformed_split_csv(edit, message, corpus, tmp_path, capsys):
    split_csv = tmp_path / "split.csv"
    assert main(["split", "--registry", str(corpus / "registry.json"),
                 "--out", str(split_csv)]) == 0
    split_csv.write_text("\n".join(edit(split_csv.read_text().splitlines())) + "\n")
    capsys.readouterr()
    argv = ["train", "--corpus", str(corpus), "--split-csv", str(split_csv),
            "--out", str(tmp_path / "run"), "--epochs", "1", "--length", "20"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: MalformedSplitCsv: " in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "checkpoint.bin").exists()


def test_train_names_a_split_csv_that_is_not_utf8(corpus, tmp_path, capsys):
    split_csv = tmp_path / "split.csv"
    assert main(["split", "--registry", str(corpus / "registry.json"),
                 "--out", str(split_csv)]) == 0
    split_csv.write_bytes(split_csv.read_bytes().replace(b",Train", b",Tr\xffain", 1))
    capsys.readouterr()
    argv = ["train", "--corpus", str(corpus), "--split-csv", str(split_csv),
            "--out", str(tmp_path / "run"), "--epochs", "1", "--length", "20"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"error: MalformedSplitCsv: {split_csv}: not UTF-8: ")
    assert not (tmp_path / "run" / "checkpoint.bin").exists()


def test_train_refuses_split_csv_ids_the_corpus_lacks(corpus, tmp_path, capsys):
    split_csv = tmp_path / "split.csv"
    assert main(["split", "--registry", str(corpus / "registry.json"),
                 "--out", str(split_csv)]) == 0
    with open(split_csv, "a") as fh:
        fh.write("ghost__id,pianist_00,piece_000,Train\n")
    capsys.readouterr()
    argv = ["train", "--corpus", str(corpus), "--split-csv", str(split_csv),
            "--out", str(tmp_path / "run"), "--epochs", "1", "--length", "20"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: corpus lacks 1 of the split CSV's record ids, first ghost__id\n")
    assert not (tmp_path / "run" / "checkpoint.bin").exists()


def test_ids_and_pianists_with_commas_round_trip_the_split_csv(corpus, tmp_path):
    """``split`` quotes a field holding a comma, so ``train --split-csv`` reads
    back the CSV that ``split`` wrote."""
    root = tmp_path / "c"
    shutil.copytree(corpus, root)
    first = "pianist_00__piece_000__take0"
    rewrite_registry(root, lambda records: [
        replace(r, id="a,b" if r.id == first else r.id,
                pianist="Horowitz, V." if r.pianist == "pianist_00" else r.pianist)
        for r in records
    ])
    split_csv = tmp_path / "split.csv"
    assert main(["split", "--registry", str(root / "registry.json"),
                 "--out", str(split_csv)]) == 0
    assert '"a,b","Horowitz, V.",' in split_csv.read_text()
    out = tmp_path / "run"
    assert main(["train", "--corpus", str(root), "--split-csv", str(split_csv),
                 "--out", str(out), "--epochs", "1", "--length", "full"]) == 0
    extras = load_checkpoint(out / "checkpoint.bin")[1]["extras"]
    assert "Horowitz, V." in extras["class_names"]
    assert "a,b" in sum(extras["split"].values(), [])


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_train_on_a_one_pianist_split_fails(profile, corpus, tmp_path, capsys):
    split_csv = tmp_path / "split.csv"
    assert main(["split", "--registry", str(corpus / "registry.json"),
                 "--out", str(split_csv)]) == 0
    lines = split_csv.read_text().splitlines()
    split_csv.write_text("\n".join(l for l in lines if ",pianist_01," not in l) + "\n")
    capsys.readouterr()
    argv = ["train", "--corpus", str(corpus), "--split-csv", str(split_csv),
            "--out", str(tmp_path / "run"), "--epochs", "1", "--length", "20",
            "--profile", profile]
    assert main(argv) == 1
    assert "error: ValueError: need at least two classes" in capsys.readouterr().err


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
    wanted = {rec_id for rec_id, s in assignment.assignment.items() if s == "Test"}
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
    for length in ("1", "0", "-3"):
        assert main(base + ["--length", length]) == 2


def test_eval_missing_checkpoint_is_usage_error(corpus, tmp_path):
    argv = [
        "eval", "--corpus", str(corpus),
        "--checkpoint", str(tmp_path / "ghost.bin"),
        "--out", str(tmp_path / "ev"),
    ]
    assert main(argv) == 2


def test_eval_scores_the_split_the_model_was_trained_on(corpus, tmp_path):
    """Seed- and CSV-trained models are scored on their recorded Test ids."""
    records = pipeline.load_corpus(corpus)

    def test_ids(seed):
        assignment = dataset.split(records, seed).assignment
        return sorted(rec_id for rec_id, s in assignment.items() if s == "Test")

    assert test_ids(3) != test_ids(7)  # 7 is the default split seed
    csv_path = tmp_path / "split3.csv"
    assert main(["split", "--registry", str(corpus / "registry.json"),
                 "--seed", "3", "--out", str(csv_path)]) == 0

    for name, split_args in [("seed3", ["--split-seed", "3"]),
                             ("csv3", ["--split-csv", str(csv_path)])]:
        run = tmp_path / name
        assert main(["train", "--corpus", str(corpus), "--out", str(run),
                     "--epochs", "1", "--length", "full", "--seed", "1",
                     *split_args]) == 0
        ckpt = run / "checkpoint.bin"
        assert load_checkpoint(ckpt)[1]["extras"]["split"]["Test"] == test_ids(3)
        assert scored_pieces(corpus, ckpt, tmp_path / f"ev_{name}") == set(test_ids(3))
    assert "split-seed" not in json.loads(
        (tmp_path / "csv3" / "manifest.json").read_text())["config"]


def test_eval_scores_the_recorded_ids_of_a_grown_corpus(tmp_path, capsys):
    """A take added after training changes no scored id; a lost one is an error."""
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--pianists", "3", "--pieces", "4",
                 "--per-cell", "3", "--length-min", "60", "--length-max", "80",
                 "--seed", "4"]) == 0
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--epochs", "1", "--length", "full", "--seed", "1"]) == 0
    ckpt = run / "checkpoint.bin"
    split7 = dataset.split(pipeline.load_corpus(corpus), 7).assignment
    ids = {name: sorted(i for i, s in split7.items() if s == name)
           for name in dataset.SPLITS}

    def add_take3(records):
        take0 = next(r for r in records if r.id == "pianist_00__piece_000__take0")
        return records + [replace(take0, id="pianist_00__piece_000__take3")]

    rewrite_registry(corpus, add_take3)
    scored = scored_pieces(corpus, ckpt, tmp_path / "ev_grown")
    assert not scored & set(ids["Train"])
    assert scored == set(ids["Test"])
    assert load_checkpoint(ckpt)[1]["extras"]["split"] == ids

    lost = ids["Test"][0]
    rewrite_registry(corpus, lambda records: [r for r in records if r.id != lost])
    capsys.readouterr()
    assert scored_pieces(corpus, ckpt, tmp_path / "ev_lost") == 1
    assert f"lacks 1 of the checkpoint's Test record ids, first {lost}" in (
        capsys.readouterr().err)


def test_eval_unknown_pianists_fail(corpus, trained, tmp_path, capsys):
    """A foreign corpus lacks the recorded ids; a relabelled take is unseen."""
    ckpt = trained / "checkpoint.bin"
    other = tmp_path / "other"
    argv = [
        "synth", "--out", str(other), "--pianists", "3", "--pieces", "1",
        "--per-cell", "3", "--length-min", "40", "--length-max", "60",
        "--seed", "6",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert scored_pieces(other, ckpt, tmp_path / "ev_other") == 1
    assert "of the checkpoint's Test record ids" in capsys.readouterr().err

    relabelled = tmp_path / "relabelled"
    shutil.copytree(corpus, relabelled)
    test_id = load_checkpoint(ckpt)[1]["extras"]["split"]["Test"][0]
    rewrite_registry(relabelled, lambda records: [
        replace(r, pianist="pianist_09") if r.id == test_id else r for r in records
    ])
    assert scored_pieces(relabelled, ckpt, tmp_path / "ev_relabelled") == 1
    assert "unseen at training time: ['pianist_09']" in capsys.readouterr().err


def test_eval_at_segment_level_needs_a_segment_length(
    corpus, trained, tmp_path, capsys, monkeypatch
):
    """A ``--length full`` model is refused at segment level before extraction."""
    base = ["eval", "--corpus", str(corpus),
            "--checkpoint", str(trained / "checkpoint.bin")]

    def no_extraction(*args):
        raise AssertionError("extracted before rejecting the flags")

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "extract_corpus", no_extraction)
        assert main(base + ["--out", str(tmp_path / "seg")]) == 2
    assert "needs a segment length" in capsys.readouterr().err
    assert main(base + ["--out", str(tmp_path / "piece"), "--level", "piece"]) == 0


def test_eval_corrupt_checkpoint_is_pipeline_error(corpus, trained, tmp_path, capsys):
    raw = bytearray((trained / "checkpoint.bin").read_bytes())
    raw[-1] ^= 0x01
    ckpt = tmp_path / "flipped.bin"
    ckpt.write_bytes(bytes(raw))
    argv = [
        "eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
        "--out", str(tmp_path / "ev"), "--level", "piece",
    ]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "metrics.json").exists()


def set_config(header):
    header["config"] = 5


def set_test_split(header):
    header["extras"]["split"] = {"Test": 3}


def set_array_shape(header):
    header["arrays"][0]["shape"] = ["a"]


def set_segment_length(value):
    def edit(header):
        header["extras"]["segment_length"] = value
    return edit


def set_class_names(edit_names):
    def edit(header):
        header["extras"]["class_names"] = edit_names(header["extras"]["class_names"])
    return edit


def set_normalizer(key, edit_values):
    def edit(header):
        normalizer = header["extras"]["normalizer"]
        normalizer[key] = edit_values(normalizer[key])
    return edit


@pytest.mark.parametrize("edit, message", [
    (set_config, "error: CorruptCheckpoint: "),
    (set_test_split, "error: checkpoint lacks usable evaluation metadata: "),
    (set_array_shape, "error: CorruptCheckpoint: "),
    (set_segment_length("x"), "error: checkpoint lacks usable evaluation metadata: "),
    (set_segment_length(1), "error: checkpoint lacks usable evaluation metadata: "),
    (set_segment_length(True), "error: checkpoint lacks usable evaluation metadata: "),
    (set_class_names(lambda names: names + ["ghost"]),
     "error: checkpoint lacks usable evaluation metadata: "),
    (set_class_names(lambda names: [[n] for n in names]),
     "error: checkpoint lacks usable evaluation metadata: "),
    (set_class_names(lambda names: [names[0]] * len(names)),
     "error: checkpoint lacks usable evaluation metadata: "),
    (set_normalizer("mean", lambda values: values[:-1]),
     "error: checkpoint lacks usable evaluation metadata: "),
    (set_normalizer("mean", lambda values: [float("nan")] + values[1:]),
     "error: checkpoint lacks usable evaluation metadata: "),
    (set_normalizer("std", lambda values: [0.0] + values[1:]),
     "error: checkpoint lacks usable evaluation metadata: "),
    (set_normalizer("std", lambda values: [-1.0] + values[1:]),
     "error: checkpoint lacks usable evaluation metadata: "),
    (set_normalizer("std", lambda values: [float("inf")] + values[1:]),
     "error: checkpoint lacks usable evaluation metadata: "),
    (set_normalizer("columns", lambda values: values[::-1]),
     "error: checkpoint lacks usable evaluation metadata: "),
], ids=["config-is-5", "test-split-is-3", "array-shape-is-a", "segment-length-is-x",
        "segment-length-is-1", "segment-length-is-true", "class-names-with-a-ghost",
        "class-names-as-lists", "class-names-repeated", "normalizer-mean-short",
        "normalizer-mean-nan", "normalizer-std-zero", "normalizer-std-negative",
        "normalizer-std-inf", "normalizer-columns-reversed"])
def test_eval_bad_header_field_is_pipeline_error(edit, message, corpus, trained, tmp_path,
                                                 capsys):
    """A header edited behind a still-valid payload digest exits 1, not a traceback."""
    line, payload = (trained / "checkpoint.bin").read_bytes().split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    ckpt = tmp_path / "edited.bin"
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    argv = [
        "eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
        "--out", str(tmp_path / "ev"), "--level", "piece",
    ]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ev" / "metrics.json").exists()


def test_deeply_nested_json_is_a_typed_error(corpus, trained, tmp_path, capsys):
    """A 100,000-deep JSON array as the registry or as the checkpoint header
    exits 1 with a typed error, not a RecursionError traceback."""
    deep = b"[" * 100_000
    root = tmp_path / "c"
    shutil.copytree(corpus, root)
    (root / "registry.json").write_bytes(deep)
    assert main(["extract", "--corpus", str(root), "--out", str(tmp_path / "f")]) == 1
    assert "error: MalformedRegistry: " in capsys.readouterr().err

    payload = (trained / "checkpoint.bin").read_bytes().split(b"\n", 1)[1]
    ckpt = tmp_path / "deep.bin"
    ckpt.write_bytes(deep + b"\n" + payload)
    argv = ["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "ev"), "--level", "piece"]
    assert main(argv) == 1
    assert "error: CorruptCheckpoint: unreadable checkpoint header" in capsys.readouterr().err


def write_checkpoint(path: Path, header: dict, payload: bytes) -> Path:
    """A checkpoint file whose payload digest is recomputed, unless removed."""
    if "payload_sha256" in header:
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return path


def test_eval_forged_architecture_builds_no_model(corpus, trained, tmp_path, capsys, monkeypatch):
    """A header declaring a 20000-channel network over a desk payload is refused
    from its sizes alone: no model (and no 15 GiB of weights) is ever built."""
    line, payload = (trained / "checkpoint.bin").read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["config"].update(channels=[20000, 20000], strides=[1, 2], conv_dropout=[0.0, 0.0])
    ckpt = write_checkpoint(tmp_path / "forged.bin", header, payload)

    def no_model(*args, **kwargs):
        raise AssertionError("load_checkpoint built a model")

    monkeypatch.setattr(model_module, "PianistConvNet", no_model)
    argv = ["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "ev"), "--level", "piece"]
    assert main(argv) == 1
    assert "error: CorruptCheckpoint: payload size" in capsys.readouterr().err


CONFIG_FIELDS = ("in_features", "n_classes", "channels", "kernel_size", "strides",
                 "conv_dropout", "dense_dropout")
SIZE_FIELDS = ("in_features", "n_classes", "channels", "kernel_size")
WRONG_TYPES = ("x", "7", None, {}, [[1]], 13.5, True, float("inf"))
TOP_KEYS = ("format", "version", "config", "seed", "arrays", "extras", "payload_sha256")


def bad_value(rng, value, kind):
    """A wrong-typed, zero-or-negative or huge stand-in for a config value."""
    if kind == "type":
        return WRONG_TYPES[rng.integers(len(WRONG_TYPES))]
    if isinstance(value, list):  # one bad entry in a per-block list
        value = list(value)
        value[rng.integers(len(value))] = bad_value(rng, value[0], kind)
        return value
    if kind == "sign":
        return -0.5 if isinstance(value, float) else int(rng.integers(-3, 1))
    return 10 ** int(rng.integers(6, 12)) + 1  # odd, so a huge kernel passes validation


def edit_config(field, kind):
    def mutate(header, payload, rng):
        header["config"][field] = bad_value(rng, header["config"][field], kind)
        return header, payload
    return mutate


def drop_key(key, config=False):
    def mutate(header, payload, rng):
        del (header["config"] if config else header)[key]
        return header, payload
    return mutate


def edit_arrays(how):
    def mutate(header, payload, rng):
        arrays = header["arrays"]
        i, j = rng.choice(len(arrays), size=2, replace=False)
        if how == "renamed":
            arrays[i]["name"] = arrays[j]["name"]
        elif how == "reordered":
            arrays[i], arrays[j] = arrays[j], arrays[i]
        elif how == "reshaped":
            arrays[i]["shape"] = arrays[i]["shape"][::-1] + [1]
        elif how == "dropped":
            del arrays[i]
        else:
            header["arrays"] = {a["name"]: a["shape"] for a in arrays}
        return header, payload
    return mutate


def edit_payload(n_bytes):
    def mutate(header, payload, rng):
        k = int(rng.integers(1, 9)) * (4 if n_bytes % 4 == 0 else 1)
        return header, payload[:-k] if n_bytes < 0 else payload + rng.bytes(k)
    return mutate


FUZZ_CASES = (
    [(f"config-{f}-{k}", edit_config(f, k)) for k in ("type", "sign") for f in CONFIG_FIELDS]
    + [(f"config-{f}-huge", edit_config(f, "huge")) for f in SIZE_FIELDS]
    + [(f"missing-{key}", drop_key(key)) for key in TOP_KEYS]
    + [(f"missing-config-{f}", drop_key(f, config=True)) for f in CONFIG_FIELDS]
    + [(f"arrays-{how}", edit_arrays(how))
       for how in ("renamed", "reordered", "reshaped", "dropped", "not-a-list")]
    + [(f"payload-{name}", edit_payload(n)) for name, n in
       (("truncated", -1), ("truncated-floats", -4), ("extended", 1), ("extended-floats", 4))]
)


@pytest.mark.parametrize("seed", range(3))
def test_eval_checkpoint_structural_fuzz(seed, corpus, trained, tmp_path, capsys):
    """Seeded structural mutations of a real desk checkpoint, each driven
    through ``perfid eval``: every one exits 1 with an ``error:`` line."""
    line, payload = (trained / "checkpoint.bin").read_bytes().split(b"\n", 1)
    for k, (name, mutate) in enumerate(FUZZ_CASES):
        rng = np.random.default_rng([seed, k])
        header, body = mutate(json.loads(line), payload, rng)
        ckpt = write_checkpoint(tmp_path / f"{name}.bin", header, body)
        argv = ["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "ev"), "--level", "piece"]
        assert main(argv) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: "), (name, err)
        assert "CorruptCheckpoint" in err or name == "missing-extras", (name, err)
    assert not (tmp_path / "ev" / "metrics.json").exists()


RECORD_FIELDS = ("id", "pianist", "composition", "perf_midi", "score_midi")
PATH_FIELDS = ("perf_midi", "score_midi")


def registry_edit(edit):
    """A mutation of the registry's parsed JSON, re-encoded."""
    def mutate(text, rng):
        doc = json.loads(text)
        edit(doc, doc["records"][rng.integers(len(doc["records"]))], rng)
        return json.dumps(doc).encode()
    return mutate


def set_field(field, value):
    def edit(doc, record, rng):
        record[field] = value(rng, record[field]) if callable(value) else value
    return edit


def with_nul(rng, path):
    k = int(rng.integers(len(path) + 1))
    return path[:k] + "\0" + path[k:]


def wrong_type(rng, value):
    choices = [v for v in WRONG_TYPES if not isinstance(v, str)]
    return choices[rng.integers(len(choices))]


def insert_byte(byte):
    def mutate(text, rng):
        data = text.encode()
        k = int(rng.integers(len(data) + 1))
        return data[:k] + byte + data[k:]
    return mutate


def csv_rows(edit):
    """A mutation of one data row of the split CSV (line 1 is the header)."""
    def mutate(text, rng):
        rows = text.splitlines()
        k = int(rng.integers(1, len(rows)))
        rows[k] = edit(rows[k], rows, rng)
        return ("\n".join(rows) + "\n").encode()
    return mutate


REGISTRY_CASES = (
    [("nested-100000-deep", lambda text, rng: b"[" * 100_000),
     ("truncated", lambda text, rng: text.encode()[:int(rng.integers(len(text)))]),
     ("non-utf8-byte", insert_byte(b"\xff")),
     ("records-not-a-list", registry_edit(lambda doc, record, rng: doc.update(records={}))),
     ("id-empty", registry_edit(set_field("id", "")))]
    + [(f"{f}-nul-byte", registry_edit(set_field(f, with_nul))) for f in PATH_FIELDS]
    + [(f"{f}-empty", registry_edit(set_field(f, ""))) for f in PATH_FIELDS]
    + [(f"{f}-wrong-type", registry_edit(set_field(f, wrong_type))) for f in RECORD_FIELDS]
)
SPLIT_CSV_CASES = [
    ("row-missing-a-field", csv_rows(lambda row, rows, rng: row.rsplit(",", 1)[0])),
    ("row-with-an-extra-field", csv_rows(lambda row, rows, rng: row + ",Train")),
    ("row-empty-fields", csv_rows(lambda row, rows, rng: ",,,")),
    ("unknown-split", csv_rows(lambda row, rows, rng: row.rsplit(",", 1)[0] + ",Dev")),
    ("repeated-row", csv_rows(lambda row, rows, rng: rows[2] if row == rows[1] else rows[1])),
    ("bad-header", lambda text, rng: text.replace("split", "fold", 1).encode()),
    ("non-utf8-byte", insert_byte(b"\xfe")),
]


@pytest.mark.parametrize("seed", range(3))
def test_train_registry_and_split_csv_structural_fuzz(seed, corpus, tmp_path, capsys):
    """Seeded structural mutations of ``registry.json`` and of the split CSV,
    each driven through ``perfid train``: every one exits 1 or 2 with an
    ``error:`` or ``usage error:`` line, never a traceback."""
    registry = (corpus / "registry.json").read_text()
    split_csv = tmp_path / "split.csv"
    assert main(["split", "--registry", str(corpus / "registry.json"),
                 "--out", str(split_csv)]) == 0
    split_text = split_csv.read_text()
    root = tmp_path / "c"
    shutil.copytree(corpus, root)
    cases = [(f"registry-{name}", mutate, root / "registry.json", registry, [])
             for name, mutate in REGISTRY_CASES]
    cases += [(f"split-csv-{name}", mutate, split_csv, split_text,
               ["--split-csv", str(split_csv)]) for name, mutate in SPLIT_CSV_CASES]
    for k, (name, mutate, target, text, flags) in enumerate(cases):
        (root / "registry.json").write_text(registry)
        target.write_bytes(mutate(text, np.random.default_rng([seed, k])))
        argv = ["train", "--corpus", str(root), "--out", str(tmp_path / "run"),
                "--epochs", "1", "--length", "20"] + flags
        assert main(argv) in (1, 2), name
        err = capsys.readouterr().err
        assert err.startswith(("error: ", "usage error: ")), (name, err)
        assert "Traceback" not in err, name
    assert not (tmp_path / "run" / "checkpoint.bin").exists()


# ---------------------------------------------------------------------------
# studies


def test_study_rejects_bad_id_and_seeds(corpus, tmp_path):
    base = ["study", "--corpus", str(corpus), "--out", str(tmp_path / "s")]
    assert main(base + ["--id", "study9"]) == 2
    assert main(base + ["--id", "study1", "--seeds", "1,x"]) == 2
    assert main(base + ["--id", "study1", "--lr", "0"]) == 2
    assert main(base + ["--id", "study1", "--batch-size", "1"]) == 2
    assert main(base + ["--id", "study1", "--seeds", "1"]) == 2
    assert main(base + ["--id", "study2", "--seeds", "1,1"]) == 2
    assert main(base + ["--id", "study3", "--corpus-b", str(corpus),
                        "--split-seeds", "7"]) == 2
    assert main(base + ["--id", "study3", "--corpus-b", str(corpus),
                        "--split-seeds", "7,7"]) == 2
    assert main(base + ["--id", "study2", "--seeds=-1,2"]) == 2
    assert main(base + ["--id", "study1", "--seeds=1,-2"]) == 2
    assert not (tmp_path / "s").exists()


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


def test_study2_trains_at_the_requested_length(tmp_path):
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--pianists", "2", "--pieces", "2",
                 "--per-cell", "3", "--length-min", "300", "--length-max", "400",
                 "--seed", "5"]) == 0
    out = tmp_path / "s2"
    assert main(["study", "--id", "study2", "--corpus", str(corpus), "--out", str(out),
                 "--length", "100", "--seeds", "1,2", "--epochs", "1"]) == 0
    checkpoints = sorted(out.glob("C*/seed*/checkpoint.bin"))
    assert len(checkpoints) == 10
    for path in checkpoints:
        assert load_checkpoint(path)[1]["extras"]["segment_length"] == 100


@pytest.mark.parametrize("study_id", ["study1", "study2"])
def test_study_rows_train_the_requested_profile(study_id, corpus, tmp_path, monkeypatch):
    """``--profile full`` sweeps the reference network; desk the slim one."""
    rows = []

    def record_row(config, seeds, sets, out_dir=None):
        rows.append((config, sets.normalizer.columns))
        return {"mean": {}, "std": {}}

    monkeypatch.setattr(studies, "repeat_runs", record_row)
    for profile in ("full", "desk"):
        argv = [
            "study", "--id", study_id, "--corpus", str(corpus), "--seeds", "1,2",
            "--out", str(tmp_path / profile), "--profile", profile,
        ]
        assert main(argv) == 0
    full, desk = rows[: len(rows) // 2], rows[len(rows) // 2 :]

    assert {(c.lr, c.model) for c, _ in full} == {(8e-5, None)}
    assert {(c.lr, c.model) for c, _ in desk} == {(studies.DESK_LR, desk_config())}
    combos = studies.STUDY2_COMBOS if study_id == "study2" else ["C5"] * len(full)
    assert [columns for _, columns in full] == [features.COMBINATIONS[c] for c in combos]


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


SWEEP_MD = "| Segment accuracy | Segment macro-F1 | Piece accuracy | Piece macro-F1 |"
SWEEP_CSV = [
    "segment_accuracy_mean", "segment_accuracy_std",
    "segment_macro_f1_mean", "segment_macro_f1_std",
    "piece_accuracy_mean", "piece_accuracy_std",
    "piece_macro_f1_mean", "piece_macro_f1_std",
]


@pytest.mark.parametrize("study_id, md_head, csv_head", [
    ("study1",
     ["# Input sequence length", "", "| Length " + SWEEP_MD, "|---|---|---|---|---|"],
     ["length", *SWEEP_CSV]),
    ("study2",
     ["# Feature combinations", "", "| Combination | Features " + SWEEP_MD,
      "|---|---|---|---|---|---|"],
     ["combination", "features", *SWEEP_CSV]),
    ("study3",
     ["# Split sensitivity", "", "| Corpus | Path | Performances | Best | Average |",
      "|---|---|---|---|---|"],
     ["corpus", "path", "n_performances", "best", "mean", "std"]),
])
def test_study_reports_pin_their_layout(
    study_id, md_head, csv_head, corpus, long_corpus, tmp_path
):
    out = tmp_path / study_id
    argv = ["study", "--id", study_id, "--out", str(out), "--epochs", "1"]
    if study_id == "study3":
        argv += ["--corpus", str(corpus), "--corpus-b", str(corpus),
                 "--split-seeds", "11,12", "--length", "20"]
    else:
        argv += ["--corpus", str(long_corpus), "--seeds", "1,2"]
    assert main(argv) == 0

    lines = (out / "report.md").read_text().splitlines()
    assert lines[:4] == md_head
    with open(out / "report.csv", newline="") as fh:
        assert next(csv.reader(fh)) == csv_head
    if study_id == "study1":  # whole pieces have no segment-level metrics
        cell = r"\d\.\d{3} \(\d\.\d{3}\)"
        assert re.fullmatch(rf"\| Full \| - \| - \| {cell} \| {cell} \|", lines[-1])


def test_study3_requires_second_corpus(corpus, tmp_path):
    argv = [
        "study", "--id", "study3", "--corpus", str(corpus),
        "--out", str(tmp_path / "s3"),
    ]
    assert main(argv) == 2
