"""Standard MIDI File (format 0/1) reading and writing, and the note format.

Performances and scores are flattened to a single ordered note stream with
absolute times in seconds, which is all the downstream alignment and
feature code needs. Tempo events convert ticks to seconds and every other
meta event is skipped; sustain pedal is not modelled (offsets are taken
as transcribed). The writer serves the synthetic corpus, which always
uses 480 ticks per quarter and the default tempo.

A ``NoteList`` holds that stream as five equal-length columns: int64
``pitch``, ``velocity`` and ``channel``, float64 ``onset``/``offset``
seconds. Parsed and synthetic lists are in (onset, pitch, channel) order,
ties in input order. Every stage reads and builds whole columns; no
object stands for a single note.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

DEFAULT_TEMPO = 500000  # microseconds per quarter note
TICKS_PER_QUARTER = 480  # the division write_midi writes
MAX_TICK = (1 << 28) - 1  # the largest delta a 4-byte variable-length quantity holds
COLUMNS = (("pitch", np.int64), ("onset", np.float64), ("offset", np.float64),
           ("velocity", np.int64), ("channel", np.int64))


class MalformedHeader(ValueError):
    """Bad chunk magic or length, a truncated file, or a malformed event."""


class UnsupportedFormat(ValueError):
    """SMF format 2 or SMPTE time division."""


def _check_notes(pitch, onset, offset, velocity, channel) -> None:
    """Raise ValueError naming the first note value outside its range."""
    for name, values, lo, hi in (("pitch", pitch, 0, 127), ("velocity", velocity, 1, 127),
                                 ("channel", channel, 0, 15)):
        bad = np.flatnonzero((values < lo) | (values > hi))
        if bad.size:
            raise ValueError(f"{name} {values[bad[0]]} outside [{lo}, {hi}]")
    bad = np.flatnonzero(~(offset > onset))
    if bad.size:
        raise ValueError(f"offset {offset[bad[0]]} must exceed onset {onset[bad[0]]}")


@dataclass(eq=False)
class NoteList:
    """Notes as five equal-length 1-D columns.

    ``pitch``, ``velocity`` and ``channel`` are int64, ``onset`` and
    ``offset`` float64 seconds; row k of every column is note k. Lists from
    ``parse_midi``, the synthetic generator and ``sorted`` are in
    (onset, pitch, channel) order. Construction converts the columns to
    their dtypes and checks every note's ranges, raising ValueError for
    the first bad value, but does not sort. A missing ``channel`` puts
    every note on channel 0.
    """

    pitch: np.ndarray
    onset: np.ndarray
    offset: np.ndarray
    velocity: np.ndarray
    channel: np.ndarray | None = None

    def __post_init__(self):
        if self.channel is None:
            self.channel = np.zeros(len(self.pitch), dtype=np.int64)
        for name, dtype in COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({getattr(self, name).shape for name, _ in COLUMNS}) != 1 or self.pitch.ndim != 1:
            raise ValueError("note columns must be 1-D arrays of one length")
        _check_notes(self.pitch, self.onset, self.offset, self.velocity, self.channel)

    def __len__(self) -> int:
        return len(self.pitch)

    def sorted(self) -> NoteList:
        """The notes in (onset, pitch, channel) order, equal keys kept in place."""
        order = np.lexsort((self.channel, self.pitch, self.onset))
        return NoteList(*(getattr(self, name)[order] for name, _ in COLUMNS))


def _read_varlen(data: bytes, pos: int, end: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        if pos >= end:
            raise MalformedHeader("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MalformedHeader("variable-length quantity longer than 4 bytes")


def _to_seconds(ticks: np.ndarray, tempo_map: list[tuple[int, int]],
                division: int) -> np.ndarray:
    """Seconds of each tick under ``tempo_map``, piecewise linear between entries."""
    times = [0.0]
    for (t0, tempo), (t1, _) in zip(tempo_map, tempo_map[1:]):
        times.append(times[-1] + (t1 - t0) * tempo / (1e6 * division))
    starts = np.array([t for t, _ in tempo_map], dtype=np.int64)
    tempos = np.array([tempo for _, tempo in tempo_map], dtype=np.float64)
    # tick differences and tempos are exact in float64, so their product
    # is the exact integer product rounded once
    i = np.searchsorted(starts, ticks, side="right") - 1
    elapsed = (ticks - starts[i]).astype(np.float64)
    return np.array(times)[i] + elapsed * tempos[i] / (1e6 * division)


def _scan(data: bytes):
    """``parse_midi``'s event loop: division, raw notes and tempo map.

    The tempo map is (tick, microseconds per quarter) entries sorted by
    tick, the first at tick 0 (the default tempo unless an event sets it).
    """
    if len(data) < 14 or data[:4] != b"MThd":
        raise MalformedHeader("missing MThd magic")
    header_len = struct.unpack(">I", data[4:8])[0]
    if header_len < 6 or len(data) < 8 + header_len:
        raise MalformedHeader(f"bad header length {header_len}")
    fmt, n_tracks, division = struct.unpack(">HHH", data[8:14])
    if fmt == 2:
        raise UnsupportedFormat("SMF format 2 is not supported")
    if fmt not in (0, 1):
        raise UnsupportedFormat(f"unknown SMF format {fmt}")
    if division & 0x8000:
        raise UnsupportedFormat("SMPTE time division is not supported")
    if division == 0:
        raise MalformedHeader("zero ticks per quarter")

    raw_notes: list[tuple[int, int, int, int, int]] = []  # on, off, pitch, vel, ch
    tempo_events = {0: DEFAULT_TEMPO}

    pos = 8 + header_len
    tracks_seen = 0
    while pos < len(data) and tracks_seen < n_tracks:
        if pos + 8 > len(data):
            raise MalformedHeader("truncated chunk header")
        chunk_type = data[pos : pos + 4]
        chunk_len = struct.unpack(">I", data[pos + 4 : pos + 8])[0]
        body_start = pos + 8
        if body_start + chunk_len > len(data):
            raise MalformedHeader("truncated track chunk")
        pos = body_start + chunk_len
        if chunk_type != b"MTrk":
            continue  # unknown chunk types are legal in SMF; skip them
        tracks_seen += 1

        tick = 0
        p = body_start
        end = body_start + chunk_len
        running_status = None
        active: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (ch, pitch) -> [(tick, vel)]
        while p < end:
            delta, p = _read_varlen(data, p, end)
            tick += delta
            if p >= end:
                raise MalformedHeader("track chunk ends inside an event")
            status = data[p]
            if status & 0x80:
                p += 1
                if status < 0xF0:
                    running_status = status
            else:
                if running_status is None:
                    raise MalformedHeader("data byte with no running status")
                status = running_status

            kind = status & 0xF0
            channel = status & 0x0F
            if status == 0xFF:
                meta_type = data[p] if p < end else None  # _read_varlen rejects p >= end
                length, p = _read_varlen(data, p + 1, end)
                payload = data[p : p + length]
                p += length
                if meta_type == 0x51 and length == 3:
                    tempo_events[tick] = int.from_bytes(payload, "big")
                elif meta_type == 0x2F:
                    break
            elif status in (0xF0, 0xF7):
                length, p = _read_varlen(data, p, end)
                p += length
            elif kind in (0x80, 0x90):
                if p + 2 > end:
                    raise MalformedHeader("track chunk ends inside a note event")
                pitch, velocity = data[p], data[p + 1]
                if (pitch | velocity) & 0x80:
                    raise MalformedHeader("note event data byte >= 0x80")
                p += 2
                key = (channel, pitch)
                if kind == 0x90 and velocity > 0:
                    active.setdefault(key, []).append((tick, velocity))
                else:
                    stack = active.get(key)
                    if stack:
                        on_tick, on_vel = stack.pop(0)
                        if tick > on_tick:
                            raw_notes.append((on_tick, tick, pitch, on_vel, channel))
            elif kind in (0xA0, 0xB0, 0xE0):
                p += 2
            elif kind in (0xC0, 0xD0):
                p += 1
            else:
                raise MalformedHeader(f"unexpected status byte 0x{status:02x}")
            if p > end:
                raise MalformedHeader("track chunk ends inside an event")

        for (channel, pitch), stack in active.items():
            for on_tick, on_vel in stack:
                if tick > on_tick:
                    raw_notes.append((on_tick, tick, pitch, on_vel, channel))

    return division, raw_notes, sorted(tempo_events.items())


def parse_midi(data: bytes) -> NoteList:
    """Parse SMF format 0/1 bytes into a NoteList.

    All tracks are merged into one stream. Note-ons pair with the next
    matching off (or velocity-0 on) on the same pitch and channel,
    first-in-first-out; unterminated note-ons are closed at track end.
    Zero-duration on/off pairs are dropped.
    """
    division, raw_notes, tempo_map = _scan(data)
    on, off, pitch, velocity, channel = np.array(raw_notes, dtype=np.int64).reshape(-1, 5).T
    try:
        notes = NoteList(pitch, _to_seconds(on, tempo_map, division),
                         _to_seconds(off, tempo_map, division), velocity, channel)
    except ValueError as exc:  # a zero tempo leaves a note without duration
        raise MalformedHeader(f"bad note: {exc}") from exc
    return notes.sorted()


def write_midi(note_list: NoteList) -> bytes:
    """Serialize a NoteList as a single-track SMF format 0 file.

    The file has TICKS_PER_QUARTER ticks per quarter and one DEFAULT_TEMPO
    event at tick 0. Times are quantized to the nearest tick, so a
    parse(write(x)) round trip preserves pitch/velocity exactly and times
    to within one tick. The track is built from arrays: one row per
    note-on and note-off event, sorted by (tick, off before on, payload
    bytes), then each row's variable-length delta and payload are kept
    through a byte mask into one buffer.

    Raises ValueError, before building any byte, for the first note whose
    on or off tick falls outside [0, MAX_TICK]: a negative onset, or a
    time past what a 4-byte delta from tick 0 reaches (77 hours).
    """
    on = np.rint(note_list.onset * 1e6 * TICKS_PER_QUARTER / DEFAULT_TEMPO)
    off = np.maximum(np.rint(note_list.offset * 1e6 * TICKS_PER_QUARTER / DEFAULT_TEMPO), on + 1)
    bad = np.flatnonzero(~((on >= 0) & (off <= MAX_TICK)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"note {k} (onset {note_list.onset[k]} s, offset "
                         f"{note_list.offset[k]} s) falls outside ticks [0, {MAX_TICK}]")

    n = len(note_list)
    tick = np.concatenate([on, off]).astype(np.int64)
    payload = np.zeros((2 * n, 3), dtype=np.uint8)
    payload[:n, 0] = 0x90 | note_list.channel
    payload[n:, 0] = 0x80 | note_list.channel
    payload[:, 1] = np.tile(note_list.pitch, 2)
    payload[:n, 2] = note_list.velocity
    # at equal ticks, status 0x8n sorts every off before every on (0x9n)
    order = np.lexsort((payload[:, 2], payload[:, 1], payload[:, 0], tick))
    tick, payload = tick[order], payload[order]

    # each event as 7 bytes, 4 of delta (7 bits each, most significant
    # first) and 3 of payload; the mask keeps the delta's bytes from its
    # highest nonzero one on, and the payload
    delta = np.diff(tick, prepend=0)
    rows = np.empty((len(tick), 7), dtype=np.uint8)
    rows[:, :4] = (delta[:, None] >> [21, 14, 7, 0]) & 0x7F
    rows[:, :3] |= 0x80
    rows[:, 4:] = payload
    keep = np.empty(rows.shape, dtype=bool)
    keep[:, :4] = delta[:, None] >= [1 << 21, 1 << 14, 1 << 7, 0]  # least delta using each
    keep[:, 4:] = True
    tempo = bytes([0x00, 0xFF, 0x51, 0x03]) + DEFAULT_TEMPO.to_bytes(3, "big")
    body = tempo + rows[keep].tobytes() + bytes([0x00, 0xFF, 0x2F, 0x00])

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_QUARTER)
    return header + b"MTrk" + struct.pack(">I", len(body)) + body
