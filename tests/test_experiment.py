"""Tests for metrics, the training loop, and the extraction pipeline."""

import csv
import io
import re
from dataclasses import replace

import numpy as np
import pytest

from perfid import features, midi_io
from perfid.dataset import SplitAssignment, default_styles, synth_generate
from perfid.experiment.metrics import compute_metrics, confusion_matrix, from_confusion
from perfid.experiment import pipeline
from perfid.experiment.pipeline import (
    ExtractionFailed,
    SplitSets,
    build_split_sets,
    extract_corpus,
    extract_performance,
    load_corpus,
)
from perfid.experiment.studies import (
    DESK_LR,
    STUDY1_LENGTHS,
    STUDY2_COMBOS,
    profile_config,
)
from perfid.experiment.training import (
    EmptySplit,
    TrainConfig,
    epoch_log_to_csv,
    evaluate,
    format_mean_std,
    load_run,
    predictions_to_csv,
    repeat_runs,
    train,
)
from perfid.neural import ModelConfig, desk_config, load_checkpoint


def test_confusion_matrix_counts():
    true = np.array([0, 0, 1, 2, 2, 2])
    pred = np.array([0, 1, 1, 2, 2, 0])
    counts = confusion_matrix(true, pred, 3)
    assert counts.tolist() == [[1, 1, 0], [0, 1, 0], [1, 0, 2]]
    assert counts.sum() == 6


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0, 1]), np.array([0]), 2)
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0, 2]), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        confusion_matrix(np.array([-1]), np.array([0]), 2)


def test_perfect_predictions():
    true = np.array([0, 1, 2, 0, 1, 2])
    m = compute_metrics(true, true, 3)
    assert m.accuracy == 1.0
    assert m.macro_f1 == 1.0
    assert np.array_equal(m.confusion, np.eye(3, dtype=int) * 2)


def test_constant_classifier_macro_f1():
    # 6 balanced classes, always predict class 0: per-class F1 is 2/7 for
    # class 0 and 0 elsewhere, so the macro average is exactly 1/21
    true = np.repeat(np.arange(6), 10)
    pred = np.zeros_like(true)
    m = compute_metrics(true, pred, 6)
    assert m.accuracy == pytest.approx(1 / 6)
    assert m.macro_f1 == pytest.approx(1 / 21)
    assert m.recall[0] == 1.0
    assert m.precision[0] == pytest.approx(1 / 6)


def test_metrics_derive_from_confusion():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        true = rng.integers(0, 4, size=n)
        pred = rng.integers(0, 4, size=n)
        m = compute_metrics(true, pred, 4)
        assert m.accuracy == pytest.approx(np.mean(true == pred))
        assert m.n_eval == n
        assert np.array_equal(m.confusion.sum(axis=1), np.bincount(true, minlength=4))
        assert np.array_equal(m.confusion.sum(axis=0), np.bincount(pred, minlength=4))
        again = from_confusion(m.confusion)
        assert again.macro_f1 == pytest.approx(m.macro_f1)


def test_from_confusion_validation_and_empty():
    with pytest.raises(ValueError):
        from_confusion(np.zeros((2, 3)))
    empty = from_confusion(np.zeros((3, 3)))
    assert empty.accuracy == 0.0
    assert empty.macro_f1 == 0.0


MEAN_STD_CELL = re.compile(r"^\d+\.\d{3} \(\d+\.\d{3}\)$")


def test_mean_std_cells():
    assert format_mean_std(0.7662, 0.0244) == "0.766 (0.024)"
    assert format_mean_std(0.5, 0.01) == "0.500 (0.010)"
    assert MEAN_STD_CELL.match(format_mean_std(12.0, 0.0))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(segment_length=1)


@pytest.mark.parametrize("bad", [
    {"lr": float("nan")}, {"lr": float("inf")},
    {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
])
def test_train_config_rejects_non_finite_lr_and_decay(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_desk_train_config_defaults_and_overrides():
    config = profile_config("desk")
    assert config.lr == DESK_LR
    assert config.epochs == 60
    # the desk profile names the slim architecture; train sizes it
    assert config.model.channels == (16, 24, 32, 32, 48)
    fast = profile_config("desk", epochs=2)
    assert fast.epochs == 2
    assert fast.model == desk_config()
    explicit = profile_config("desk", model=TOY_MODEL)
    assert explicit.model is TOY_MODEL
    assert STUDY1_LENGTHS[-1] is None
    assert STUDY2_COMBOS == ("C1", "C2", "C3", "C4", "C5")


def test_full_profile_is_the_reference_network_and_others_are_refused():
    full = profile_config("full", epochs=3)
    assert (full.model, full.lr, full.epochs) == (None, TrainConfig().lr, 3)
    with pytest.raises(ValueError, match="desk or full"):
        profile_config("laptop")


TOY_MODEL = ModelConfig(
    in_features=3, n_classes=2, channels=(4, 4), kernel_size=3,
    strides=(1, 2), conv_dropout=(0.0, 0.0), dense_dropout=0.0,
)


def toy_sets(n_rows=24, seed=0):
    """Two trivially separable classes, already normalized SplitSets."""
    rng = np.random.default_rng(seed)
    schema = features.COMBINATIONS["C4"]

    def make(label, piece, shift):
        rows = rng.normal(loc=shift, scale=0.3, size=(n_rows, 3))
        return features.FeatureMatrix(schema=schema, rows=rows,
                                      label=label, piece_id=piece)

    def bucket(prefix, count):
        return [
            make("low" if i % 2 == 0 else "high", f"{prefix}{i}",
                 0.0 if i % 2 == 0 else 2.0)
            for i in range(count)
        ]

    train, valid, test = bucket("tr", 8), bucket("va", 4), bucket("te", 4)
    stats = features.fit_normalizer(train)
    normalize = lambda ms: [features.apply_normalizer(m, stats) for m in ms]
    return SplitSets(
        train=normalize(train), valid=normalize(valid), test=normalize(test),
        normalizer=stats, class_names=["high", "low"],
    )


def toy_config(**overrides):
    base = dict(batch_size=4, epochs=10, lr=3e-3, weight_decay=0.0,
                segment_length=None, seed=1, model=TOY_MODEL)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_learns_separable_toy_data(tmp_path):
    sets = toy_sets()
    result = train(toy_config(), sets, out_dir=tmp_path)
    assert len(result.log) == 10
    assert result.log[-1]["train_loss"] < result.log[0]["train_loss"]
    assert 1 <= result.best_epoch <= 10
    assert result.best_valid.accuracy == 1.0

    ev = evaluate(result.model, sets.test, sets.class_names, level="piece")
    assert ev.metrics.accuracy == 1.0
    assert ev.majority is None
    assert len(ev.predictions) == 4

    # artifacts: parseable epoch log and a checkpoint that scores the same
    rows = list(csv.DictReader(io.StringIO((tmp_path / "epochs.csv").read_text())))
    assert len(rows) == 10
    assert float(rows[0]["train_loss"]) == pytest.approx(
        result.log[0]["train_loss"], abs=1e-6
    )
    loaded, header = load_checkpoint(tmp_path / "checkpoint.bin")
    assert header["extras"]["class_names"] == ["high", "low"]
    x = np.stack([m.rows.T for m in sets.test]).astype(np.float32)
    assert np.array_equal(loaded.predict(x), result.model.predict(x))


def test_load_run_reads_back_what_train_wrote(tmp_path):
    sets = toy_sets()
    config = toy_config(epochs=3, segment_length=12)
    result = train(config, sets, out_dir=tmp_path)
    for split, matrices in zip(("Train", "Valid", "Test"), (sets.train, sets.valid, sets.test)):
        model, stats, class_names, segment_length, record_ids = load_run(
            tmp_path / "checkpoint.bin", split)
        assert record_ids == [m.piece_id for m in matrices]
    assert stats.to_json() == sets.normalizer.to_json()
    assert class_names == sets.class_names
    assert segment_length == config.segment_length
    trained = [(name, a.tobytes()) for name, a in result.model.named_arrays()]
    assert [(name, a.tobytes()) for name, a in model.named_arrays()] == trained


def test_train_is_deterministic():
    sets = toy_sets()
    a = train(toy_config(), sets)
    b = train(toy_config(), sets)
    assert a.log == b.log
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert np.array_equal(pa.data, pb.data)
    c = train(toy_config(seed=2), sets)
    assert a.log != c.log


def test_segment_level_evaluation_votes_per_piece():
    sets = toy_sets(n_rows=24)
    result = train(toy_config(), sets)
    ev = evaluate(result.model, sets.test, sets.class_names,
                  level="segment", segment_length=12)
    assert len(ev.predictions) == 8  # 4 pieces x 2 windows
    assert ev.majority is not None
    assert ev.majority.n_eval == 4
    assert ev.metrics.accuracy == 1.0

    text = predictions_to_csv(ev.predictions)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed[0]["piece_id"] == ev.predictions[0][0]
    assert len(parsed) == 8


def test_evaluate_argument_errors():
    sets = toy_sets()
    result = train(toy_config(), sets)
    with pytest.raises(ValueError):
        evaluate(result.model, sets.test, sets.class_names, level="note")
    with pytest.raises(EmptySplit):
        evaluate(result.model, [], sets.class_names, level="piece")
    with pytest.raises(ValueError):
        evaluate(result.model, sets.test, sets.class_names,
                 level="segment", segment_length=None)
    with pytest.raises(EmptySplit):
        evaluate(result.model, sets.test, sets.class_names,
                 level="segment", segment_length=500)


def test_train_empty_split_errors():
    sets = toy_sets()
    with pytest.raises(EmptySplit):
        train(toy_config(), replace(sets, train=[]))
    # pieces shorter than the window leave nothing to train on
    with pytest.raises(EmptySplit):
        train(toy_config(segment_length=1000), sets)


def test_train_sizes_the_model_to_the_split():
    sets = toy_sets()  # 3 columns (C4), 2 classes
    missized = replace(TOY_MODEL, in_features=5, n_classes=3)
    sized = train(toy_config(epochs=1, model=missized), sets).model.config
    assert sized == TOY_MODEL
    reference = train(toy_config(epochs=1, model=None), sets).model.config
    assert reference == ModelConfig(in_features=3, n_classes=2)


def test_repeat_runs_aggregates(tmp_path):
    sets = toy_sets()
    agg = repeat_runs(toy_config(epochs=6), seeds=[1, 2], sets=sets,
                      out_dir=tmp_path)
    assert [r["seed"] for r in agg["runs"]] == [1, 2]
    for row in agg["runs"]:
        assert set(row) == {"seed", "best_epoch", "piece_accuracy", "piece_macro_f1"}
    values = [r["piece_accuracy"] for r in agg["runs"]]
    assert agg["mean"]["piece_accuracy"] == pytest.approx(np.mean(values))
    assert agg["std"]["piece_accuracy"] == pytest.approx(np.std(values, ddof=1))
    assert (tmp_path / "seed1" / "predictions_piece.csv").exists()
    assert (tmp_path / "seed2" / "checkpoint.bin").exists()

    with pytest.raises(ValueError):
        repeat_runs(toy_config(), seeds=[1], sets=sets)


def test_repeat_runs_includes_segment_metrics():
    sets = toy_sets(n_rows=24)
    agg = repeat_runs(toy_config(epochs=6, segment_length=12), seeds=[1, 2],
                      sets=sets)
    for row in agg["runs"]:
        assert {"segment_accuracy", "segment_macro_f1", "vote_accuracy"} <= set(row)


def corpus_on_disk(tmp_path, n_pieces=2, perf_per_cell=2):
    return synth_generate(
        default_styles(2), n_pieces=n_pieces, perf_per_cell=perf_per_cell,
        seed=3, out_dir=tmp_path, length_range=(40, 60),
    )


def test_extract_corpus_keys_full_matrices_by_record(tmp_path):
    records = corpus_on_disk(tmp_path)
    assert load_corpus(tmp_path) == records
    matrices = extract_corpus(records, tmp_path)
    assert sorted(matrices) == sorted(r.id for r in records)
    for record in records:
        matrix = matrices[record.id]
        assert matrix.schema == features.ALL_COLUMNS
        assert matrix.n_notes > 0
        assert matrix.label == record.pianist


def test_extract_corpus_parses_each_score_once(tmp_path, monkeypatch):
    records = corpus_on_disk(tmp_path)  # 2 pieces x 2 pianists x 2 takes
    # the per-record form: every take parses its own copy of the score
    want = {
        r.id: extract_performance(
            r, tmp_path, midi_io.parse_midi((tmp_path / r.score_midi).read_bytes())
        ).rows.tobytes()
        for r in records
    }
    parsed = []

    def counting_parse(data):
        parsed.append(data)
        return midi_io.parse_midi(data)

    monkeypatch.setattr(pipeline, "parse_midi", counting_parse)
    got = extract_corpus(records, tmp_path)
    assert len(parsed) == len(records) + 2
    assert {rec_id: m.rows.tobytes() for rec_id, m in got.items()} == want


def test_extraction_failure_names_the_record(tmp_path):
    records = corpus_on_disk(tmp_path)
    victim = records[0]
    (tmp_path / victim.perf_midi).write_bytes(b"not a midi file")
    with pytest.raises(ExtractionFailed) as err:
        extract_corpus(records, tmp_path)
    assert err.value.record_id == victim.id
    assert victim.id in str(err.value)


def test_build_split_sets(tmp_path):
    records = corpus_on_disk(tmp_path)
    matrices = extract_corpus(records, tmp_path)
    by_piece = {}
    for rec in records:
        by_piece.setdefault((rec.pianist, rec.composition), []).append(rec.id)
    assignment = {}
    for (pianist, piece), ids in sorted(by_piece.items()):
        assignment[ids[0]] = "Train"
        assignment[ids[1]] = "Valid" if piece.endswith("0") else "Test"

    sets = build_split_sets(matrices, SplitAssignment(assignment), "C4")
    assert sets.class_names == ["pianist_00", "pianist_01"]
    assert (len(sets.train), len(sets.valid), len(sets.test)) == (4, 2, 2)
    for matrix in sets.train + sets.valid + sets.test:
        assert matrix.schema == features.COMBINATIONS["C4"]
    assert sets.normalizer.columns == features.COMBINATIONS["C4"]

    stacked = np.concatenate([m.rows for m in sets.train])
    assert stacked.mean(axis=0) == pytest.approx(np.zeros(3), abs=1e-9)
    assert stacked.std(axis=0) == pytest.approx(np.ones(3), rel=1e-6)
    assert sets.class_names.index("pianist_01") == 1


def test_build_split_sets_skips_unassigned(tmp_path):
    records = corpus_on_disk(tmp_path)
    matrices = extract_corpus(records, tmp_path)
    assignment = {rec.id: "Train" for rec in records[:-1]}
    sets = build_split_sets(matrices, SplitAssignment(assignment))
    assert len(sets.train) == len(records) - 1
    assert len(sets.valid) == len(sets.test) == 0


def test_epoch_log_csv_format():
    log = [{"epoch": 1, "train_loss": 0.5, "valid_accuracy": 0.25,
            "valid_macro_f1": 0.2}]
    text = epoch_log_to_csv(log)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["epoch", "train_loss", "valid_accuracy", "valid_macro_f1"]
    assert rows[1] == ["1", "0.500000", "0.250000", "0.200000"]
