"""Tests for SMF parsing, serialization, and the tempo map."""

import os
import random
import re
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perfid
from helpers import Note, from_notes, notes_of, parse_per_note, write_midi_loop
from perfid.midi_io import (
    MalformedHeader,
    NoteList,
    UnsupportedFormat,
    parse_midi,
    write_midi,
)


def varlen(value):
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(chunks))


def track(events, end_delta=0):
    body = b"".join(varlen(delta) + payload for delta, payload in events)
    body += varlen(end_delta) + bytes([0xFF, 0x2F, 0x00])
    return b"MTrk" + struct.pack(">I", len(body)) + body


def smf(tracks, tpq=480, fmt=1):
    header = b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), tpq)
    return header + b"".join(tracks)


def tempo_event(us_per_quarter):
    return bytes([0xFF, 0x51, 0x03]) + us_per_quarter.to_bytes(3, "big")


def on(pitch, vel, ch=0):
    return bytes([0x90 | ch, pitch, vel])


def off(pitch, ch=0):
    return bytes([0x80 | ch, pitch, 0])


def test_single_note_default_tempo():
    data = smf([track([(0, on(60, 64)), (480, off(60))])])
    result = parse_midi(data)
    assert len(result) == 1
    note = notes_of(result)[0]
    assert note.pitch == 60
    assert note.onset == 0.0
    assert note.offset == pytest.approx(0.5)
    assert note.velocity == 64


def test_empty_track():
    result = parse_midi(smf([track([])]))
    assert len(result) == 0


def test_two_tempo_integration():
    # 480 ticks at 500000 us/qn then 480 ticks at 250000 us/qn: 0.5 + 0.25 s
    events = [
        (0, tempo_event(500000)),
        (0, on(72, 80)),
        (480, tempo_event(250000)),
        (480, off(72)),
    ]
    result = parse_midi(smf([track(events)]))
    assert len(result) == 1
    assert notes_of(result)[0].onset == 0.0
    assert notes_of(result)[0].offset == pytest.approx(0.75)


def test_tempo_change_before_onset():
    # note entirely inside the 250000 us/qn region
    events = [
        (0, tempo_event(250000)),
        (480, on(60, 50)),
        (480, off(60)),
    ]
    result = parse_midi(smf([track(events)]))
    assert notes_of(result)[0].onset == pytest.approx(0.25)
    assert notes_of(result)[0].offset == pytest.approx(0.5)


def test_velocity_zero_note_on_is_off():
    data = smf([track([(0, on(60, 64)), (240, bytes([0x90, 60, 0]))])])
    result = parse_midi(data)
    assert len(result) == 1
    assert notes_of(result)[0].offset == pytest.approx(0.25)


def test_fifo_pairing_overlapping_same_pitch():
    events = [
        (0, on(60, 10)),
        (240, on(60, 99)),
        (240, off(60)),
        (480, off(60)),
    ]
    result = parse_midi(smf([track(events)]))
    assert len(result) == 2
    first, second = notes_of(result)
    assert (first.velocity, first.onset, first.offset) == (10, 0.0, pytest.approx(0.5))
    assert (second.velocity, second.onset) == (99, pytest.approx(0.25))
    assert second.offset == pytest.approx(1.0)


def test_unterminated_note_closed_at_track_end():
    data = smf([track([(0, on(60, 64)), (100, on(62, 64)), (380, off(62))], end_delta=120)])
    result = parse_midi(data)
    pitches = [n.pitch for n in notes_of(result)]
    assert pitches == [60, 62]
    closed = [n for n in notes_of(result) if n.pitch == 60][0]
    assert closed.offset == pytest.approx(600 / 960)


def test_running_status():
    # second note-on omits the status byte
    body = varlen(0) + bytes([0x90, 60, 64])
    body += varlen(0) + bytes([64, 64])
    body += varlen(480) + bytes([60, 0]) + varlen(0) + bytes([64, 0])
    body += varlen(0) + bytes([0xFF, 0x2F, 0x00])
    data = smf([b"MTrk" + struct.pack(">I", len(body)) + body])
    result = parse_midi(data)
    assert sorted(n.pitch for n in notes_of(result)) == [60, 64]


def test_multiple_tracks_merged():
    t1 = track([(0, on(60, 64)), (480, off(60))])
    t2 = track([(240, on(72, 70)), (480, off(72))])
    result = parse_midi(smf([t1, t2]))
    assert [n.pitch for n in notes_of(result)] == [60, 72]
    assert notes_of(result)[1].onset == pytest.approx(0.25)


def test_zero_duration_note_dropped():
    data = smf([track([(0, on(60, 64)), (0, off(60))])])
    assert len(parse_midi(data)) == 0


def test_notes_sorted_by_onset_then_pitch():
    events = [
        (0, on(70, 64)),
        (0, on(60, 64)),
        (480, off(70)),
        (0, off(60)),
    ]
    result = parse_midi(smf([track(events)]))
    assert [n.pitch for n in notes_of(result)] == [60, 70]


def assert_columns_equal_oracle(data):
    """parse_midi's columns equal the per-note oracle's values bit for bit."""
    got, want = parse_midi(data), parse_per_note(data)
    assert len(got) == len(want)
    for name in ("pitch", "onset", "offset", "velocity", "channel"):
        column = getattr(got, name)
        assert column.tolist() == [getattr(n, name) for n in want], name
    return got


def test_parse_equals_oracle_on_notes_at_tempo_changes():
    # three tempo changes; notes start and end exactly on their ticks, so
    # a conversion that resolved a change tick to the earlier segment
    # (searchsorted side="left") would give different seconds
    tempo = track([(0, tempo_event(500000)), (480, tempo_event(250000)),
                   (480, tempo_event(731111)), (300, tempo_event(412345))])
    notes = track([(0, on(60, 64)), (480, off(60)), (0, on(62, 70)), (480, on(64, 71)),
                   (0, off(62)), (300, off(64)), (0, on(65, 72)), (7, on(67, 73)),
                   (1001, off(65)), (0, off(67))])
    result = assert_columns_equal_oracle(smf([tempo, notes]))
    assert len(result) == 5
    assert result.onset[1] == 0.5 and result.onset[2] == 0.75


def test_parse_equals_oracle_on_unterminated_notes():
    events = [(0, tempo_event(600000)), (0, on(60, 64)), (10, on(61, 65, ch=2)),
              (10, on(60, 66)), (50, off(60)), (100, on(62, 67)), (0, on(63, 68, ch=9))]
    result = assert_columns_equal_oracle(smf([track(events, end_delta=333)]))
    # the four notes left on are closed at the track's end, tick 503
    assert len(result) == 5
    assert np.isclose(result.offset, 503 * 600000 / (1e6 * 480)).sum() == 4


def test_parse_equals_oracle_on_onset_and_pitch_ties_across_channels():
    # equal (onset, pitch) on channels 5, 0, 3 and twice on channel 0 with
    # different velocities: sorted by channel, equal keys in file order
    events = [(0, on(60, 10, ch=5)), (0, on(60, 11)), (0, on(60, 12, ch=3)),
              (0, on(59, 13, ch=1)), (240, off(60, ch=5)), (0, off(60)),
              (0, off(60, ch=3)), (0, off(59, ch=1))]
    second = track([(0, on(60, 14)), (240, off(60))])
    result = assert_columns_equal_oracle(smf([track(events), second]))
    assert result.pitch.tolist() == [59, 60, 60, 60, 60]
    assert result.channel.tolist() == [1, 0, 0, 3, 5]
    assert result.velocity.tolist() == [13, 11, 14, 12, 10]


def test_parse_equals_oracle_on_random_tempo_maps():
    rng = random.Random(8)
    for _ in range(40):
        events = []
        for _ in range(rng.randint(1, 60)):
            delta = rng.choice([0, 0, 1, rng.randint(1, 2000)])
            kind = rng.random()
            if kind < 0.15:
                events.append((delta, tempo_event(rng.randint(1, 2 ** 24 - 1))))
            elif kind < 0.6:
                events.append((delta, on(rng.randint(58, 62), rng.randint(1, 127),
                                         ch=rng.randint(0, 2))))
            else:
                events.append((delta, off(rng.randint(58, 62), ch=rng.randint(0, 2))))
        assert_columns_equal_oracle(smf([track(events, end_delta=rng.randint(0, 50))],
                                        tpq=rng.randint(1, 960)))


def test_note_list_checks_every_row():
    good = dict(pitch=[60, 61], onset=[0.0, 1.0], offset=[0.5, 1.5], velocity=[64, 64])
    assert len(NoteList(**good)) == 2
    for name, bad, message in [
        ("pitch", [60, 128], "pitch 128 outside [0, 127]"),
        ("velocity", [64, 0], "velocity 0 outside [1, 127]"),
        ("offset", [0.5, 1.0], "offset 1.0 must exceed onset 1.0"),
        ("channel", [0, 16], "channel 16 outside [0, 15]"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            NoteList(**{**good, name: bad})
    with pytest.raises(ValueError):
        NoteList(**{**good, "velocity": [64]})


def test_note_list_sorted_is_stable():
    notes = NoteList(pitch=[62, 60, 60, 60], onset=[0.0, 0.0, 0.0, 0.0],
                     offset=[1.0, 1.0, 1.0, 1.0], velocity=[1, 2, 3, 4], channel=[0, 4, 0, 0])
    ordered = notes.sorted()
    assert ordered.velocity.tolist() == [3, 4, 2, 1]
    assert ordered.pitch.dtype == np.int64 and ordered.onset.dtype == np.float64


def test_bad_magic_rejected():
    with pytest.raises(MalformedHeader):
        parse_midi(b"RIFF" + b"\x00" * 20)


def test_truncated_file_rejected():
    data = smf([track([(0, on(60, 64)), (480, off(60))])])
    with pytest.raises(MalformedHeader):
        parse_midi(data[:20])


def test_format_2_rejected():
    with pytest.raises(UnsupportedFormat):
        parse_midi(smf([track([])], fmt=2))


def test_smpte_division_rejected():
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, 0xE250)
    with pytest.raises(UnsupportedFormat):
        parse_midi(header + track([]))


def test_note_event_data_byte_rejected():
    with pytest.raises(MalformedHeader):
        parse_midi(smf([track([(0, on(60, 0x81)), (480, off(60))])]))


def test_fuzzed_files_parse_or_raise_typed_errors():
    """Mutated and truncated files end in a NoteList or a typed error."""
    # 60 notes at 960 ticks per quarter and a tempo change at tick 960, so
    # mutations hit tempo events too
    timed = [(0, tempo_event(500000)), (960, tempo_event(400000))]
    for i in range(60):
        timed += [(i * 480, on(36 + i % 48, 20 + i)), (i * 480 + 384, off(36 + i % 48))]
    timed.sort(key=lambda event: event[0])
    ticks = [0] + [tick for tick, _ in timed]
    base = smf([track([(tick - previous, payload)
                       for previous, (tick, payload) in zip(ticks, timed)])], tpq=960, fmt=0)
    outcomes = set()
    for case in range(3000):
        rng = random.Random(case)
        data = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(14, len(data))] = rng.randrange(256)
        if rng.random() < 0.5:
            data = data[: rng.randrange(14, len(data))]
        try:
            outcomes.add(type(parse_midi(bytes(data))))
        except (MalformedHeader, UnsupportedFormat) as exc:
            outcomes.add(type(exc))
    assert NoteList in outcomes and MalformedHeader in outcomes


def test_zero_tempo_rejected():
    data = smf([track([(0, tempo_event(0)), (0, on(60, 64)), (480, off(60))])])
    with pytest.raises(MalformedHeader):
        parse_midi(data)


@st.composite
def note_lists(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    pitches = draw(
        st.lists(st.integers(0, 127), min_size=n, max_size=n, unique=True)
    )
    notes = []
    for pitch in pitches:
        on_tick = draw(st.integers(0, 20000))
        dur = draw(st.integers(1, 2000))
        vel = draw(st.integers(1, 127))
        notes.append(Note(pitch, on_tick / 960, (on_tick + dur) / 960, vel))
    notes.sort(key=lambda x: (x.onset, x.pitch, x.channel))
    return from_notes(notes)


@given(note_lists())
@settings(max_examples=100, deadline=None)
def test_round_trip_preserves_notes(note_list):
    result = parse_midi(write_midi(note_list))
    assert len(result) == len(note_list)
    tick = 1 / 960  # quantization bound at 480 tpq, default tempo
    for got, want in zip(notes_of(result), notes_of(note_list)):
        assert got.pitch == want.pitch
        assert got.velocity == want.velocity
        assert abs(got.onset - want.onset) <= tick
        assert abs(got.offset - want.offset) <= tick


@given(note_lists())
@settings(max_examples=50, deadline=None)
def test_round_trip_is_idempotent(note_list):
    once = parse_midi(write_midi(note_list))
    twice = parse_midi(write_midi(once))
    assert notes_of(once) == notes_of(twice)


@st.composite
def writable_note_lists(draw):
    """Lists every tick of which fits a 4-byte delta: several channels, notes
    on one grid (equal ticks across channels), offsets that quantize onto
    their onset, and late notes that need 2- to 4-byte deltas."""
    n = draw(st.integers(0, 40))
    onset = draw(st.lists(st.one_of(st.integers(0, 40).map(lambda k: 0.125 * k),
                                    st.floats(0, 10_000)), min_size=n, max_size=n))
    length = draw(st.lists(st.one_of(st.just(1e-6), st.floats(1e-6, 3.0)),
                           min_size=n, max_size=n))
    columns = [draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
               for lo, hi in ((0, 127), (1, 127), (0, 15))]
    offset = [t + d for t, d in zip(onset, length)]
    return NoteList(columns[0], onset, offset, *columns[1:])


@given(writable_note_lists())
@settings(max_examples=300, deadline=None)
def test_writer_matches_the_per_event_loop(note_list):
    assert write_midi(note_list) == write_midi_loop(note_list)


def test_writer_matches_the_per_event_loop_on_the_empty_list():
    empty = NoteList([], [], [], [])
    assert write_midi(empty) == write_midi_loop(empty)
    assert len(parse_midi(write_midi(empty))) == 0


@pytest.mark.parametrize("notes, expected", [
    ("NoteList([60], [-1.0], [0.5], [64])", "onset -1.0 s"),
    ("NoteList([60], [600000.0], [600000.5], [64])", "onset 600000.0 s"),
], ids=["negative-onset", "note-at-600000s"])
def test_writer_refuses_what_it_cannot_write(notes, expected):
    # in a child process, so a writer that loops forever fails here rather than hangs
    code = textwrap.dedent(f"""
        from perfid.midi_io import NoteList, write_midi
        try:
            write_midi({notes})
        except ValueError as exc:
            print(type(exc).__name__, exc)
        else:
            print("wrote a file")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(perfid.__file__).parents[1])},
    )
    assert proc.stdout.startswith("ValueError ") and expected in proc.stdout, (
        proc.stdout, proc.stderr)
