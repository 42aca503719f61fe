"""Tests for SMF parsing, serialization, and the tempo map."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfid.midi_io import (
    DEFAULT_TEMPO,
    MalformedHeader,
    Note,
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
    note = result.notes[0]
    assert note.pitch == 60
    assert note.onset == 0.0
    assert note.offset == pytest.approx(0.5)
    assert note.velocity == 64


def test_empty_track():
    result = parse_midi(smf([track([])]))
    assert len(result) == 0
    assert result.tempo_map == [(0, DEFAULT_TEMPO)]


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
    assert result.notes[0].onset == 0.0
    assert result.notes[0].offset == pytest.approx(0.75)


def test_tempo_change_before_onset():
    # note entirely inside the 250000 us/qn region
    events = [
        (0, tempo_event(250000)),
        (480, on(60, 50)),
        (480, off(60)),
    ]
    result = parse_midi(smf([track(events)]))
    assert result.notes[0].onset == pytest.approx(0.25)
    assert result.notes[0].offset == pytest.approx(0.5)


def test_velocity_zero_note_on_is_off():
    data = smf([track([(0, on(60, 64)), (240, bytes([0x90, 60, 0]))])])
    result = parse_midi(data)
    assert len(result) == 1
    assert result.notes[0].offset == pytest.approx(0.25)


def test_fifo_pairing_overlapping_same_pitch():
    events = [
        (0, on(60, 10)),
        (240, on(60, 99)),
        (240, off(60)),
        (480, off(60)),
    ]
    result = parse_midi(smf([track(events)]))
    assert len(result) == 2
    first, second = result.notes
    assert (first.velocity, first.onset, first.offset) == (10, 0.0, pytest.approx(0.5))
    assert (second.velocity, second.onset) == (99, pytest.approx(0.25))
    assert second.offset == pytest.approx(1.0)


def test_unterminated_note_closed_at_track_end():
    data = smf([track([(0, on(60, 64)), (100, on(62, 64)), (380, off(62))], end_delta=120)])
    result = parse_midi(data)
    assert result.n_unterminated == 1
    pitches = [n.pitch for n in result.notes]
    assert pitches == [60, 62]
    closed = [n for n in result.notes if n.pitch == 60][0]
    assert closed.offset == pytest.approx(600 / 960)


def test_running_status():
    # second note-on omits the status byte
    body = varlen(0) + bytes([0x90, 60, 64])
    body += varlen(0) + bytes([64, 64])
    body += varlen(480) + bytes([60, 0]) + varlen(0) + bytes([64, 0])
    body += varlen(0) + bytes([0xFF, 0x2F, 0x00])
    data = smf([b"MTrk" + struct.pack(">I", len(body)) + body])
    result = parse_midi(data)
    assert sorted(n.pitch for n in result.notes) == [60, 64]


def test_multiple_tracks_merged():
    t1 = track([(0, on(60, 64)), (480, off(60))])
    t2 = track([(240, on(72, 70)), (480, off(72))])
    result = parse_midi(smf([t1, t2]))
    assert [n.pitch for n in result.notes] == [60, 72]
    assert result.notes[1].onset == pytest.approx(0.25)


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
    assert [n.pitch for n in result.notes] == [60, 70]


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
    notes = [Note(36 + i % 48, i * 0.25, i * 0.25 + 0.2, 20 + i) for i in range(60)]
    base = write_midi(NoteList(notes=notes, tempo_map=[(0, 500000), (960, 400000)]))
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


def test_note_validation():
    with pytest.raises(ValueError):
        Note(pitch=60, onset=1.0, offset=1.0, velocity=64)
    with pytest.raises(ValueError):
        Note(pitch=60, onset=0.0, offset=1.0, velocity=0)
    with pytest.raises(ValueError):
        Note(pitch=128, onset=0.0, offset=1.0, velocity=64)


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
    return NoteList(notes=notes)


@given(note_lists())
@settings(max_examples=100, deadline=None)
def test_round_trip_preserves_notes(note_list):
    result = parse_midi(write_midi(note_list))
    assert len(result) == len(note_list)
    tick = 1 / 960  # quantization bound at 480 tpq, default tempo
    for got, want in zip(result.notes, note_list.notes):
        assert got.pitch == want.pitch
        assert got.velocity == want.velocity
        assert abs(got.onset - want.onset) <= tick
        assert abs(got.offset - want.offset) <= tick


@given(note_lists())
@settings(max_examples=50, deadline=None)
def test_round_trip_is_idempotent(note_list):
    once = parse_midi(write_midi(note_list))
    twice = parse_midi(write_midi(once))
    assert once.notes == twice.notes


def test_round_trip_keeps_tempo_map():
    notes = [Note(60, 0.0, 0.5, 64), Note(62, 1.0, 1.5, 64)]
    source = NoteList(notes=notes, tempo_map=[(0, 500000), (480, 250000)])
    result = parse_midi(write_midi(source))
    assert result.tempo_map == [(0, 500000), (480, 250000)]
