"""Tests for note-wise features, deviations, combos, and segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import Note, deviation_features, from_notes, note_list, notes_of
from perfid.features import (
    ALL_COLUMNS,
    COMBINATIONS,
    DegenerateFit,
    EmptyTrainingSet,
    FeatureMatrix,
    TooFewNotes,
    UnknownCombination,
    apply_normalizer,
    assemble,
    fit_normalizer,
    load_features,
    resolve_schema,
    save_features,
    segment,
    subset,
)


def pairs_from(perf, score):
    return list(zip(notes_of(perf), notes_of(score)))


def matched(perf, score):
    """``assemble``'s leading arguments with note k of each side matched."""
    idx = np.arange(len(perf))
    return perf, score, (idx, idx)


def identity_notes(n=10, step=0.4):
    return note_list([(60 + k % 12, step * k) for k in range(n)])


def identity_match(n=10, step=0.4):
    x = identity_notes(n, step)
    return matched(x, x)


def projected(match, combo, **labels):
    """``assemble``'s 13-column matrix projected onto one combination."""
    return subset(assemble(*match, **labels), resolve_schema(combo))


def note_columns(notes):
    """The 7 note-wise (C1) columns of notes matched to themselves."""
    x = from_notes(notes)
    return projected(matched(x, x), "C1").rows


def test_note_feature_columns():
    perf = [Note(60, 0.0, 0.4, 64), Note(62, 0.5, 0.9, 70)]
    rows = note_columns(perf)
    assert rows.shape == (2, 7)
    pitch, velocity, onset, offset, duration, ioi, otd = rows.T
    assert list(pitch) == [60, 62]
    assert list(velocity) == [64, 70]
    assert ioi == pytest.approx([0.5, 0.0])
    assert otd == pytest.approx([0.1, 0.0])
    assert duration == pytest.approx([0.4, 0.4])


def test_otd_negative_for_legato():
    perf = [Note(60, 0.0, 0.6, 64), Note(62, 0.5, 0.9, 64)]
    rows = note_columns(perf)
    otd = rows[:, 6]
    assert otd[0] == pytest.approx(-0.1)


def test_ioi_three_notes():
    perf = [Note(60, 0.0, 0.1, 64), Note(62, 0.5, 0.6, 64), Note(64, 1.25, 1.3, 64)]
    rows = note_columns(perf)
    assert rows[:, 5] == pytest.approx([0.5, 0.75, 0.0])


def test_too_few_notes():
    with pytest.raises(TooFewNotes):
        note_columns([Note(60, 0.0, 0.4, 64)])
    with pytest.raises(TooFewNotes):
        deviation_features([])


def test_identity_deviations_are_zero():
    x = identity_notes()
    rows = deviation_features(pairs_from(x, x))
    assert rows.shape == (10, 6)
    assert np.allclose(rows, 0.0, atol=1e-12)


def test_uniform_slowdown_absorbed_by_fit():
    score = note_list([(60 + k % 7, 0.3 * k) for k in range(12)])
    slowed = [
        Note(s.pitch, 2.0 * s.onset, 2.0 * s.offset, s.velocity)
        for s in notes_of(score)
    ]
    rows = deviation_features(list(zip(slowed, notes_of(score))))
    assert np.allclose(rows, 0.0, atol=1e-9)


def test_single_velocity_accent():
    score = note_list([(60 + k, 0.3 * k) for k in range(6)])
    perf_notes = [
        Note(s.pitch, s.onset, s.offset, s.velocity + (20 if k == 3 else 0))
        for k, s in enumerate(notes_of(score))
    ]
    rows = deviation_features(list(zip(perf_notes, notes_of(score))))
    dev_velocity = rows[:, 0]
    assert dev_velocity[3] == pytest.approx(20.0)
    assert np.allclose(np.delete(dev_velocity, 3), 0.0)


def test_degenerate_fit_rejected():
    chord = [Note(60 + k, 1.0, 1.4, 64) for k in range(4)]
    with pytest.raises(DegenerateFit):
        deviation_features([(n, n) for n in chord])


def test_combo_column_counts():
    assert assemble(*identity_match()).schema == ALL_COLUMNS
    expected = {"C1": 7, "C2": 6, "C3": 6, "C4": 3, "C5": 13}
    for combo, count in expected.items():
        matrix = projected(identity_match(), combo)
        assert len(matrix.schema) == count, combo
        assert matrix.rows.shape == (10, count)


def test_combo_contents():
    assert COMBINATIONS["C2"] == COMBINATIONS["C1"][1:]
    assert "pitch" not in COMBINATIONS["C2"]
    assert COMBINATIONS["C4"] == ("dev_velocity", "dev_duration", "dev_ioi")
    assert all(c.startswith("dev_") for c in COMBINATIONS["C3"])
    assert COMBINATIONS["C5"] == ALL_COLUMNS


def test_unknown_combination():
    with pytest.raises(UnknownCombination):
        projected(identity_match(), "C9")


def test_shift_invariance():
    score = note_list([(60 + k % 5, 0.35 * k) for k in range(15)])
    rng = np.random.default_rng(0)
    perf_notes = [
        Note(s.pitch, s.onset + rng.uniform(-0.02, 0.02), s.offset, s.velocity)
        for s in notes_of(score)
    ]
    base = assemble(*matched(from_notes(perf_notes), score))

    shift = 17.5
    moved_perf = [
        Note(n.pitch, n.onset + shift, n.offset + shift, n.velocity)
        for n in perf_notes
    ]
    moved_score = [
        Note(n.pitch, n.onset + shift, n.offset + shift, n.velocity)
        for n in notes_of(score)
    ]
    moved = assemble(*matched(from_notes(moved_perf), from_notes(moved_score)))

    for column in ALL_COLUMNS:
        k = base.schema.index(column)
        got, want = moved.rows[:, k], base.rows[:, k]
        if column in ("onset", "offset"):
            assert got == pytest.approx(want + shift)
        else:
            assert got == pytest.approx(want, abs=1e-9), column


def test_assemble_equals_the_pair_functions():
    # assemble gathers rows by index; the (Note, Note)-pair oracle and
    # the note attributes give the same rows, so the columns agree bit for bit
    rng = np.random.default_rng(5)
    score = note_list([(60 + k % 5, 0.35 * k, 50 + k) for k in range(15)])
    perf = note_list([(60 + k % 5, 0.35 * k + rng.uniform(-0.02, 0.02), 60 + k)
                      for k in range(15)])
    perf_idx = np.array([0, 2, 3, 7, 8, 14])
    score_idx = np.array([1, 2, 4, 7, 9, 13])
    rows = assemble(perf, score, (perf_idx, score_idx)).rows
    pairs = [(notes_of(perf)[i], notes_of(score)[j]) for i, j in zip(perf_idx, score_idx)]
    pitch, velocity, onset, offset = np.array(
        [(p.pitch, p.velocity, p.onset, p.offset) for p, _ in pairs]).T
    ioi = np.append(onset[1:] - onset[:-1], 0.0)
    otd = np.append(onset[1:] - offset[:-1], 0.0)
    want = np.column_stack([pitch, velocity, onset, offset, offset - onset, ioi, otd,
                            deviation_features(pairs)])
    assert np.array_equal(rows, want)


def test_segment_counts():
    matrix = projected(identity_match(25), "C4")
    assert len(segment(matrix, 10)) == 2
    assert len(segment(matrix, 25)) == 1
    assert len(segment(matrix, 26)) == 0
    assert segment(matrix, 26).shape == (0, 26, 3)
    assert np.shares_memory(segment(matrix, 10), matrix.rows)
    with pytest.raises(ValueError):
        segment(matrix, 1)


def test_segment_windows_are_consecutive_row_blocks():
    matrix = projected(identity_match(9), "C4")
    parts = segment(matrix, 4)
    assert np.array_equal(parts[0], matrix.rows[:4])
    assert np.array_equal(parts[1], matrix.rows[4:8])


@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=2, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_segment_conserves_rows(n_rows, length):
    rows = np.zeros((n_rows, 3))
    matrix = FeatureMatrix(schema=COMBINATIONS["C4"], rows=rows, label="x", piece_id="y")
    parts = segment(matrix, length)
    assert len(parts) == n_rows // length
    assert sum(len(p) for p in parts) == (n_rows // length) * length
    assert parts.shape[1:] == (length, 3)
    assert np.shares_memory(parts, matrix.rows) == (len(parts) > 0)


def test_subset_matches_direct_assembly():
    full = assemble(*identity_match(12), label="a", piece_id="b")
    for combo in ("C1", "C2", "C3", "C4"):
        part = subset(full, COMBINATIONS[combo])
        assert part.schema == COMBINATIONS[combo]
        for k, column in enumerate(part.schema):
            assert np.array_equal(part.rows[:, k], full.rows[:, ALL_COLUMNS.index(column)])
        assert part.label == "a" and part.piece_id == "b"


def test_subset_needs_source_columns():
    narrow = projected(identity_match(), "C4")
    with pytest.raises(UnknownCombination):
        subset(narrow, ALL_COLUMNS)


def test_normalizer_matches_two_pass_oracle():
    rng = np.random.default_rng(11)
    mats = [
        FeatureMatrix(
            schema=COMBINATIONS["C4"],
            rows=rng.normal(5, 3, size=(rng.integers(3, 40), 3)),
            label="x",
            piece_id=str(k),
        )
        for k in range(5)
    ]
    stats = fit_normalizer(mats)
    stacked = np.concatenate([m.rows for m in mats])
    # independent two-pass computation
    want_mean = stacked.sum(axis=0) / len(stacked)
    want_var = ((stacked - want_mean) ** 2).sum(axis=0) / len(stacked)
    assert stats.mean == pytest.approx(want_mean)
    assert stats.std == pytest.approx(np.sqrt(want_var))


def test_normalizer_constant_column_floored():
    rows = np.column_stack([np.full(20, 7.0), np.arange(20.0), np.arange(20.0)])
    matrix = FeatureMatrix(
        schema=COMBINATIONS["C4"], rows=rows, label="x", piece_id="y"
    )
    stats = fit_normalizer([matrix])
    normalized = apply_normalizer(matrix, stats)
    assert np.allclose(normalized.rows[:, normalized.schema.index("dev_velocity")], 0.0)
    assert np.isfinite(normalized.rows).all()


def test_normalizer_idempotent_on_standardized_data():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(4000, 3))
    rows = (rows - rows.mean(axis=0)) / rows.std(axis=0)
    matrix = FeatureMatrix(
        schema=COMBINATIONS["C4"], rows=rows, label="x", piece_id="y"
    )
    normalized = apply_normalizer(matrix, fit_normalizer([matrix]))
    assert np.allclose(normalized.rows, rows, atol=1e-6)


def test_normalizer_empty_rejected():
    with pytest.raises(EmptyTrainingSet):
        fit_normalizer([])


def test_normalizer_schema_mismatch():
    a = projected(identity_match(), "C4")
    b = assemble(*identity_match())
    with pytest.raises(ValueError):
        apply_normalizer(b, fit_normalizer([a]))


def test_matrix_validation():
    schema = COMBINATIONS["C4"]
    with pytest.raises(ValueError):
        FeatureMatrix(schema=schema, rows=np.zeros((3, 5)), label="x", piece_id="y")
    bad = np.zeros((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        FeatureMatrix(schema=schema, rows=bad, label="x", piece_id="y")


def test_save_load_round_trip(tmp_path):
    matrix = assemble(*identity_match(30), label="p3", piece_id="op7")
    target = tmp_path / "op7.f32"
    save_features(matrix, target)
    loaded = load_features(target)
    assert loaded.schema == matrix.schema
    assert loaded.label == "p3" and loaded.piece_id == "op7"
    # payload is float32, so expect single-precision agreement only
    assert np.allclose(loaded.rows, matrix.rows, atol=1e-5)


def test_load_rejects_truncated_payload(tmp_path):
    matrix = projected(identity_match(8), "C4")
    target = tmp_path / "x.f32"
    save_features(matrix, target)
    target.write_bytes(target.read_bytes()[:-4])
    with pytest.raises(ValueError):
        load_features(target)


C4_SIDECAR = '"columns": ["dev_velocity", "dev_duration", "dev_ioi"], '
MALFORMED_SIDECARS = {
    "list": "[]",
    "null": "null",
    "string": '"C4"',
    "deeply-nested": "[" * 100_000,
    "columns-number": '{"columns": 5, "rows": 8, "label": "x", "piece_id": "y"}',
    "columns-no-combination": '{"columns": ["dev_velocity", "dev_ioi", "dev_duration"], '
                              '"rows": 8, "label": "x", "piece_id": "y"}',
    "columns-nested": '{"columns": [["dev_velocity"]], "rows": 8, "label": "x", "piece_id": "y"}',
    "columns-missing": '{"rows": 8, "label": "x", "piece_id": "y"}',
    "rows-string": "{" + C4_SIDECAR + '"rows": "8", "label": "x", "piece_id": "y"}',
    "rows-float": "{" + C4_SIDECAR + '"rows": 8.0, "label": "x", "piece_id": "y"}',
    "rows-negative": "{" + C4_SIDECAR + '"rows": -1, "label": "x", "piece_id": "y"}',
    "rows-bool": "{" + C4_SIDECAR + '"rows": true, "label": "x", "piece_id": "y"}',
    "rows-null": "{" + C4_SIDECAR + '"rows": null, "label": "x", "piece_id": "y"}',
    "label-number": "{" + C4_SIDECAR + '"rows": 8, "label": 3, "piece_id": "y"}',
    "piece-id-missing": "{" + C4_SIDECAR + '"rows": 8, "label": "x"}',
}


@pytest.mark.parametrize("sidecar", MALFORMED_SIDECARS.values(), ids=MALFORMED_SIDECARS)
def test_load_rejects_malformed_sidecar(tmp_path, sidecar):
    target = tmp_path / "x.f32"
    save_features(projected(identity_match(8), "C4"), target)
    (tmp_path / "x.f32.json").write_text(sidecar)
    with pytest.raises(ValueError):
        load_features(target)
