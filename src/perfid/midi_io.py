"""Standard MIDI File (format 0/1) reading and writing.

Performances and scores are flattened to a single ordered note stream with
absolute times in seconds, which is all the downstream alignment and
feature code needs. Meta events other than tempo are skipped; sustain
pedal is not modelled (offsets are taken as transcribed).
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field

DEFAULT_TEMPO = 500000  # microseconds per quarter note


class MalformedHeader(ValueError):
    """Bad chunk magic, length, or a truncated file."""


class UnsupportedFormat(ValueError):
    """SMF format 2 or SMPTE time division."""


@dataclass(frozen=True)
class Note:
    """One sounded note with absolute times in seconds."""

    pitch: int
    onset: float
    offset: float
    velocity: int
    channel: int = 0

    def __post_init__(self):
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch {self.pitch} outside [0, 127]")
        if not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity {self.velocity} outside [1, 127]")
        if not 0 <= self.channel <= 15:
            raise ValueError(f"channel {self.channel} outside [0, 15]")
        if not self.offset > self.onset:
            raise ValueError(f"offset {self.offset} must exceed onset {self.onset}")

    @property
    def duration(self) -> float:
        return self.offset - self.onset


@dataclass
class NoteList:
    """Notes sorted by (onset, pitch, channel) plus the tempo map.

    ``tempo_map`` holds (tick, microseconds per quarter) entries sorted by
    tick with the first entry at tick 0. ``n_unterminated`` counts note-ons
    that had no matching off and were closed at track end.
    """

    notes: list[Note]
    ticks_per_quarter: int = 480
    tempo_map: list[tuple[int, int]] = field(default_factory=lambda: [(0, DEFAULT_TEMPO)])
    n_unterminated: int = 0

    def __len__(self) -> int:
        return len(self.notes)

    def __iter__(self):
        return iter(self.notes)


def _sorted_notes(notes) -> list[Note]:
    return sorted(notes, key=lambda n: (n.onset, n.pitch, n.channel))


def _read_varlen(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        if pos >= len(data):
            raise MalformedHeader("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MalformedHeader("variable-length quantity longer than 4 bytes")


def _write_varlen(value: int) -> bytes:
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(chunks))


class _TempoMap:
    """Piecewise-linear tick<->second conversion."""

    def __init__(self, entries: list[tuple[int, int]], ticks_per_quarter: int):
        self.entries = entries
        self.tpq = ticks_per_quarter
        self.ticks = [t for t, _ in entries]
        self.times = [0.0]
        for (t0, tempo), (t1, _) in zip(entries, entries[1:]):
            self.times.append(self.times[-1] + (t1 - t0) * tempo / (1e6 * self.tpq))

    def to_seconds(self, tick: int) -> float:
        i = bisect_right(self.ticks, tick) - 1
        t0, tempo = self.entries[i]
        return self.times[i] + (tick - t0) * tempo / (1e6 * self.tpq)

    def to_tick(self, seconds: float) -> int:
        i = bisect_right(self.times, seconds) - 1
        i = max(i, 0)
        t0, tempo = self.entries[i]
        return t0 + int(round((seconds - self.times[i]) * 1e6 * self.tpq / tempo))


def _normalize_tempo_map(raw: dict[int, int]) -> list[tuple[int, int]]:
    entries = sorted(raw.items())
    if not entries or entries[0][0] != 0:
        entries.insert(0, (0, DEFAULT_TEMPO))
    return entries


def parse_midi(data: bytes) -> NoteList:
    """Parse SMF format 0/1 bytes into a NoteList.

    All tracks are merged into one stream. Note-ons pair with the next
    matching off (or velocity-0 on) on the same pitch and channel,
    first-in-first-out; unterminated note-ons are closed at track end and
    counted in ``n_unterminated``. Zero-duration on/off pairs are dropped.
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
    tempo_events: dict[int, int] = {}
    n_unterminated = 0

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
            delta, p = _read_varlen(data, p)
            tick += delta
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
                meta_type = data[p]
                length, p = _read_varlen(data, p + 1)
                payload = data[p : p + length]
                p += length
                if meta_type == 0x51 and length == 3:
                    tempo_events[tick] = int.from_bytes(payload, "big")
                elif meta_type == 0x2F:
                    break
            elif status in (0xF0, 0xF7):
                length, p = _read_varlen(data, p)
                p += length
            elif kind in (0x80, 0x90):
                pitch, velocity = data[p], data[p + 1]
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

        for (channel, pitch), stack in active.items():
            for on_tick, on_vel in stack:
                n_unterminated += 1
                if tick > on_tick:
                    raw_notes.append((on_tick, tick, pitch, on_vel, channel))

    tempo_map = _normalize_tempo_map(tempo_events)
    tmap = _TempoMap(tempo_map, division)
    notes = [
        Note(pitch, tmap.to_seconds(on), tmap.to_seconds(off), vel, ch)
        for on, off, pitch, vel, ch in raw_notes
    ]
    return NoteList(
        notes=_sorted_notes(notes),
        ticks_per_quarter=division,
        tempo_map=tempo_map,
        n_unterminated=n_unterminated,
    )


def write_midi(note_list: NoteList) -> bytes:
    """Serialize a NoteList as a single-track SMF format 0 file.

    Times are quantized back to ticks through the tempo map, so a
    parse(write(x)) round trip preserves pitch/velocity exactly and times
    to within one tick.
    """
    tpq = note_list.ticks_per_quarter
    tmap = _TempoMap(_normalize_tempo_map(dict(note_list.tempo_map)), tpq)

    # priority: tempo changes, then offs, then ons at equal ticks
    events: list[tuple[int, int, bytes]] = []
    for tick, tempo in tmap.entries:
        events.append((tick, 0, bytes([0xFF, 0x51, 0x03]) + tempo.to_bytes(3, "big")))
    for note in note_list.notes:
        on = tmap.to_tick(note.onset)
        off = max(tmap.to_tick(note.offset), on + 1)
        events.append((on, 2, bytes([0x90 | note.channel, note.pitch, note.velocity])))
        events.append((off, 1, bytes([0x80 | note.channel, note.pitch, 0])))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    body = bytearray()
    previous = 0
    for tick, _, payload in events:
        body += _write_varlen(tick - previous)
        body += payload
        previous = tick
    body += _write_varlen(0) + bytes([0xFF, 0x2F, 0x00])

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, tpq)
    return header + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def dump_notes(note_list: NoteList) -> str:
    """Debug dump: one ``pitch<TAB>onset<TAB>offset<TAB>velocity`` line per note."""
    return "".join(
        f"{n.pitch}\t{n.onset:.6f}\t{n.offset:.6f}\t{n.velocity}\n" for n in note_list.notes
    )
