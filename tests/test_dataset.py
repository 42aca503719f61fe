"""Tests for the registry, the group splitter, and the synthetic corpus."""

import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import note_list, notes_of, render_performance_loop
from perfid import dataset
from perfid.dataset import (
    InvalidStyleConfig,
    MalformedSplitCsv,
    PerformanceRecord,
    StyleConfig,
    assignment_from_csv,
    assignment_to_csv,
    default_styles,
    hard_styles,
    load_registry,
    render_performance,
    save_registry,
    split,
    synth_generate,
)
from perfid.midi_io import parse_midi


def make_records(group_sizes):
    """One group per size, unique compositions, ids unique overall."""
    records = []
    for g, size in enumerate(group_sizes):
        for k in range(size):
            records.append(
                PerformanceRecord(
                    id=f"g{g:02d}_r{k:02d}",
                    pianist=f"p{g % 3}",
                    composition=f"c{g:02d}",
                    perf_midi=f"perf/g{g}_{k}.mid",
                    score_midi=f"scores/c{g}.mid",
                )
            )
    return records


def expected_counts(n):
    """Per-split totals the splitter must produce for a group of n."""
    if n <= 1:
        return (n, 0, 0)
    if n <= 9:
        return (n - 2, 1, 1)
    train = math.floor(4 * n / 5 + 0.5)
    rest = n - train
    valid = math.floor(rest / 2 + 0.5)
    return (train, valid, rest - valid)


def check_branches(records, result):
    groups = {}
    for rec in records:
        groups.setdefault((rec.composition, rec.pianist), []).append(rec.id)
    for ids in groups.values():
        got = Counter(result[i] for i in ids)
        n = len(ids)
        if n == 2:
            assert got["Train"] == 1
            assert got["Valid"] + got["Test"] == 1
        else:
            want = expected_counts(n)
            assert (got["Train"], got["Valid"], got["Test"]) == want, n


def test_split_partitions_all_ids():
    records = make_records([1, 2, 3, 5, 9, 10, 11, 17])
    result = split(records, seed=4)
    assert sorted(result.assignment) == sorted(r.id for r in records)
    assert set(result.assignment.values()) <= {"Train", "Valid", "Test"}
    by_split = [[i for i, t in result.assignment.items() if t == s]
                for s in ("Train", "Valid", "Test")]
    assert sum(len(part) for part in by_split) == len(records)


def test_split_branch_counts_random_registries():
    rng = np.random.default_rng(3)
    for _ in range(120):
        sizes = rng.integers(1, 15, size=rng.integers(1, 10)).tolist()
        records = make_records(sizes)
        result = split(records, seed=int(rng.integers(0, 10_000)))
        check_branches(records, result)


@given(
    st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=100, deadline=None)
def test_split_branch_counts_property(sizes, seed):
    records = make_records(sizes)
    result = split(records, seed=seed)
    check_branches(records, result)
    assert sorted(result.assignment) == sorted(r.id for r in records)


def test_split_deterministic_per_seed():
    records = make_records([2, 2, 2, 2, 4, 12])
    assert split(records, seed=9).assignment == split(records, seed=9).assignment
    # with six coin-flip groups two seeds agreeing everywhere is ~impossible
    assert split(records, seed=9).assignment != split(records, seed=10).assignment


def test_assignment_csv_round_trip():
    records = make_records([4, 2, 1])
    result = split(records, seed=6)
    text = assignment_to_csv(result, records)
    back = assignment_from_csv(text)
    assert back.assignment == result.assignment

    with pytest.raises(ValueError):
        assignment_from_csv("wrong,header\n")
    with pytest.raises(ValueError):
        assignment_from_csv("id,pianist,composition,split\na,p,c,Dev\n")


@pytest.mark.parametrize("row, message", [
    ("b,p,c", "line 4: want 4 fields, got 3"),
    ("b,p,c,Dev", "line 4: unknown split 'Dev'"),
    ("a,p,c,Test", "line 4: repeated record id 'a'"),
    ("x" * 200_000 + ",p,c,Test", "line 4: field larger than field limit"),
], ids=["three-fields", "unknown-split", "repeated-id", "huge-field"])
def test_split_csv_errors_name_the_line(row, message):
    text = f"id,pianist,composition,split\na,p,c,Train\n\n{row}\n"
    with pytest.raises(MalformedSplitCsv, match=re.escape(message)):
        assignment_from_csv(text)


def test_registry_round_trip(tmp_path):
    records = make_records([2, 3])
    path = tmp_path / "registry.json"
    save_registry(records, path, provenance={"origin": "test"})
    assert load_registry(path) == records
    doc = json.loads(path.read_text())
    assert doc["provenance"]["origin"] == "test"


def test_registry_rejects_duplicate_ids(tmp_path):
    records = make_records([2])
    path = tmp_path / "registry.json"
    save_registry(records + [records[0]], path)
    with pytest.raises(ValueError):
        load_registry(path)


def test_style_validation():
    with pytest.raises(InvalidStyleConfig):
        StyleConfig(velocity_spread=-1)
    with pytest.raises(InvalidStyleConfig):
        StyleConfig(timing_jitter=-0.1)
    with pytest.raises(InvalidStyleConfig):
        StyleConfig(articulation=0.0)
    with pytest.raises(InvalidStyleConfig):
        StyleConfig(tempo_period=-4)
    with pytest.raises(InvalidStyleConfig):
        StyleConfig(extra_rate=1.0)
    with pytest.raises(InvalidStyleConfig):
        StyleConfig(missing_rate=-0.1)
    with pytest.raises(InvalidStyleConfig):
        StyleConfig(tempo_amplitude=-0.01)
    # warp derivative magnitude amplitude*2*pi/period must stay below 1
    with pytest.raises(InvalidStyleConfig):
        StyleConfig(tempo_amplitude=2.0, tempo_period=10.0)
    StyleConfig(tempo_amplitude=0.15, tempo_period=1.0)  # 0.94, still fine


def test_builtin_style_sets():
    for maker in (default_styles, hard_styles):
        styles = maker(6)
        assert len(styles) == 6
        biases = [s.velocity_bias for s in styles]
        assert biases == sorted(biases)
        assert len(set(biases)) == 6
        with pytest.raises(InvalidStyleConfig):
            maker(1)


def test_neutral_style_reproduces_score():
    score = note_list([(60 + k % 8, 0.25 * k) for k in range(30)], duration=0.2)
    out = render_performance(score, StyleConfig(), np.random.default_rng(0))
    assert len(out) == len(score)
    for got, want in zip(notes_of(out), notes_of(score)):
        assert got.pitch == want.pitch
        assert got.velocity == want.velocity
        assert got.onset == pytest.approx(want.onset)
        assert got.offset == pytest.approx(want.offset)


def test_articulation_scales_duration():
    score = note_list([(60, 0.0), (64, 0.5), (67, 1.0)], duration=0.4)
    out = render_performance(score, StyleConfig(articulation=0.5), np.random.default_rng(1))
    for got, want in zip(notes_of(out), notes_of(score)):
        assert got.offset - got.onset == pytest.approx((want.offset - want.onset) * 0.5)


def test_velocity_bias_applied_and_clipped():
    score = note_list([(60 + k, 0.3 * k) for k in range(10)], velocity=120)
    out = render_performance(score, StyleConfig(velocity_bias=20.0), np.random.default_rng(2))
    assert all(n.velocity == 127 for n in notes_of(out))
    out = render_performance(score, StyleConfig(velocity_bias=-5.0), np.random.default_rng(2))
    assert all(n.velocity == 115 for n in notes_of(out))


def test_missing_and_extra_rates_change_counts():
    score = note_list([(60 + k % 12, 0.25 * k) for k in range(200)])
    thinned = render_performance(score, StyleConfig(missing_rate=0.5), np.random.default_rng(3))
    assert len(thinned) < 150
    padded = render_performance(score, StyleConfig(extra_rate=0.5), np.random.default_rng(3))
    assert len(padded) > 250


# a wrong note on about every second sounded note, so the step draw runs often
BUSY_STYLE = StyleConfig(velocity_bias=3.0, velocity_spread=5.0, tempo_amplitude=0.03,
                         tempo_period=9.0, timing_jitter=0.02, articulation=0.8,
                         extra_rate=0.5, missing_rate=0.3)


@pytest.mark.parametrize("styles", [default_styles(), hard_styles(), [BUSY_STYLE]],
                         ids=["default", "hard", "busy"])
def test_render_matches_the_per_note_loop(styles):
    empty = note_list([])
    for seed in range(24):
        rng = np.random.default_rng([seed, 3])
        score = empty if seed == 0 else dataset._make_score(rng, int(rng.integers(1, 400)))
        style = styles[seed % len(styles)]
        got = render_performance(score, style, np.random.default_rng(seed))
        want = render_performance_loop(score, style, np.random.default_rng(seed))
        for name in ("pitch", "onset", "offset", "velocity", "channel"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (seed, name)


def test_synth_generate_layout(tmp_path):
    styles = default_styles(2)
    records = synth_generate(styles, n_pieces=2, perf_per_cell=2, seed=11,
                             out_dir=tmp_path, length_range=(20, 40))
    assert len(records) == 2 * 2 * 2
    assert len(set(r.id for r in records)) == len(records)
    assert load_registry(tmp_path / "registry.json") == records
    for rec in records:
        perf = parse_midi((tmp_path / rec.perf_midi).read_bytes())
        score = parse_midi((tmp_path / rec.score_midi).read_bytes())
        assert 20 <= len(score) <= 40
        assert len(perf) > 0


def test_synth_generate_byte_identical_reruns(tmp_path):
    styles = default_styles(2)
    kwargs = dict(n_pieces=2, perf_per_cell=1, seed=5, length_range=(20, 40))
    a = synth_generate(styles, out_dir=tmp_path / "a", **kwargs)
    b = synth_generate(styles, out_dir=tmp_path / "b", **kwargs)
    assert a == b

    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_synth_generate_argument_checks(tmp_path):
    with pytest.raises(InvalidStyleConfig):
        synth_generate([StyleConfig()], 1, 1, seed=0, out_dir=tmp_path)
    with pytest.raises(ValueError):
        synth_generate(default_styles(2), 1, 1, seed=0, out_dir=tmp_path,
                       length_range=(50, 10))
