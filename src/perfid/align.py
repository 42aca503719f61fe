"""Note-level correspondence between a performance and a score.

A global dynamic-programming alignment pairs performance and score notes.
Matches are only allowed on equal pitch; the match cost is the absolute
onset difference after the score timeline has been affinely mapped onto
the performance timeline (least-squares fit over a per-pitch greedy
pre-match), and skipping a note on either side costs 1.0. Unmatched
performance notes are "extra", unmatched score notes are "missing".

Each DP pass is exact but computes only a certified band of diagonals.
The pass is given an upper bound C on its optimal cost: the cheapest of a
greedy same-pitch path and every path already solved for this
performance, each costed under the pass's own map. Since a path through
cell (i, j) skips at least |i - j| + |(n - m) - (i - j)| notes, no path of
cost <= C leaves the diagonals within reach of that many skips (Ukkonen's
cutoff), so the band needs no widen-and-retry. Within one ``align`` call
each time map is solved at most once.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .midi_io import Note, NoteList

SKIP_PENALTY = 1.0
MAX_REFINEMENTS = 2  # time-map refits after the first DP pass in one convergence
OFFSET_WINDOW = 0.4  # seconds; width of an anchor-offset plateau
MAX_OFFSET_CANDIDATES = 8


class EmptyInput(ValueError):
    """Alignment of an empty performance or score is undefined."""


class ZeroNotes(ValueError):
    """Information loss is undefined for an empty performance."""


class IndexMismatch(IndexError):
    """Alignment indices do not fit the given note lists."""


@dataclass
class Alignment:
    """Matched index pairs plus missing/extra classifications.

    ``pairs`` maps performance note indices to score note indices, one to
    one and monotonic. ``missing`` holds unmatched score indices,
    ``extra`` unmatched performance indices. ``n_p`` is the performance
    note count and ``n_e`` the extra-note count.
    """

    pairs: list[tuple[int, int]]
    missing: list[int]
    extra: list[int]
    n_p: int = field(default=0)
    n_e: int = field(default=0)
    time_map: tuple[float, float] | None = None  # (a, b) the matcher settled on

    def __post_init__(self):
        if self.n_p == 0:
            self.n_p = len(self.pairs) + len(self.extra)
        if self.n_e == 0:
            self.n_e = len(self.extra)
        self.validate()

    def validate(self) -> None:
        perf_idx = [p for p, _ in self.pairs]
        score_idx = [s for _, s in self.pairs]
        if len(set(perf_idx)) != len(perf_idx) or len(set(score_idx)) != len(score_idx):
            raise ValueError("alignment pairs are not one-to-one")
        if set(perf_idx) & set(self.extra):
            raise ValueError("performance index both paired and extra")
        if set(score_idx) & set(self.missing):
            raise ValueError("score index both paired and missing")
        ordered = sorted(self.pairs, key=lambda ps: ps[1])
        if any(a[0] >= b[0] for a, b in zip(ordered, ordered[1:])):
            raise ValueError("alignment is not monotonic")
        if self.n_e != len(self.extra):
            raise ValueError("n_e does not equal |extra|")
        if self.n_p != len(self.pairs) + len(self.extra):
            raise ValueError("n_p does not equal |pairs| + |extra|")


def fit_time_map(score_onsets, perf_onsets) -> tuple[float, float]:
    """Least-squares a, b with perf ~= a * score + b.

    Falls back to a=1 with a mean offset when the score onsets carry no
    variance (callers that must signal this case check it themselves).
    """
    s = np.asarray(score_onsets, dtype=np.float64)
    p = np.asarray(perf_onsets, dtype=np.float64)
    if s.size == 0:
        return 1.0, 0.0
    var = float(np.var(s))
    if var == 0.0 or s.size < 2:
        return 1.0, float(np.mean(p) - np.mean(s))
    a = float(np.cov(s, p, bias=True)[0, 1] / var)
    b = float(np.mean(p) - a * np.mean(s))
    return a, b


def greedy_pitch_prematch(perf: NoteList, score: NoteList) -> list[tuple[int, int]]:
    """Anchor pairs for the time-map fit: k-th occurrence of each pitch on
    one side pairs with the k-th occurrence on the other."""
    by_pitch_perf: dict[int, list[int]] = {}
    by_pitch_score: dict[int, list[int]] = {}
    for i, note in enumerate(perf.notes):
        by_pitch_perf.setdefault(note.pitch, []).append(i)
    for j, note in enumerate(score.notes):
        by_pitch_score.setdefault(note.pitch, []).append(j)
    anchors = []
    for pitch, perf_ids in by_pitch_perf.items():
        score_ids = by_pitch_score.get(pitch, [])
        anchors.extend(zip(perf_ids, score_ids))
    anchors.sort()
    return anchors


def _greedy_path(
    perf_on: np.ndarray,
    perf_pitch: np.ndarray,
    score_mapped: np.ndarray,
    score_pitch: np.ndarray,
) -> list[tuple[int, int]]:
    """A cheap monotone same-pitch path, used only to bound a DP pass.

    Each performance note takes the score note of its pitch after the last
    match that lies nearest in time, when their onsets differ by less than
    the skip penalty.
    """
    lanes: dict[int, list[int]] = {}
    for j, p in enumerate(score_pitch.tolist()):
        lanes.setdefault(p, []).append(j)
    heads = dict.fromkeys(lanes, 0)
    mapped = score_mapped.tolist()
    pairs: list[tuple[int, int]] = []
    last = -1
    for i, (t, p) in enumerate(zip(perf_on.tolist(), perf_pitch.tolist())):
        lane = lanes.get(p)
        if lane is None:
            continue
        k = heads[p]
        while k < len(lane) and (lane[k] <= last or mapped[lane[k]] <= t - SKIP_PENALTY):
            k += 1
        while k + 1 < len(lane) and abs(t - mapped[lane[k + 1]]) < abs(t - mapped[lane[k]]):
            k += 1
        if k < len(lane) and abs(t - mapped[lane[k]]) < SKIP_PENALTY:
            last = lane[k]
            pairs.append((i, last))
            k += 1
        heads[p] = k
    return pairs


def _path_cost(
    pairs: list[tuple[int, int]],
    perf_on: np.ndarray,
    score_mapped: np.ndarray,
) -> float:
    """DP objective of a matching: skips plus matched onset distances."""
    cost = SKIP_PENALTY * ((len(perf_on) - len(pairs)) + (len(score_mapped) - len(pairs)))
    if pairs:
        idx = np.asarray(pairs)
        cost += float(np.abs(perf_on[idx[:, 0]] - score_mapped[idx[:, 1]]).sum())
    return cost


def _dp_match(
    perf_on: np.ndarray,
    perf_pitch: np.ndarray,
    score_mapped: np.ndarray,
    score_pitch: np.ndarray,
    bound: float,
    table: np.ndarray,
) -> list[tuple[int, int]]:
    """Minimum-cost monotonic matching for one fixed time map.

    ``bound`` is the cost of some monotone matching under this map. Only
    the diagonals that a path within the bound (plus one skip of slack
    against rounding) can reach are computed; see the module docstring.
    In-band cells use the dense recurrence's float operations in the same
    order, and every cell a path within the bound visits holds its dense
    value, so the pairs equal the full table's. ``table`` is float64
    scratch of at least (n + 1) * (m + 3) values; only the band's share
    of it is written.
    """
    n, m = len(perf_on), len(score_mapped)
    diff = n - m
    half = int((bound / SKIP_PENALTY + 1 - abs(diff)) // 2)
    d_hi = max(0, diff) + half
    w = min(m + 1, d_hi - (min(0, diff) - half) + 1)
    # row i holds columns [start[i], start[i] + w) in slots 1..w; slots 0
    # and w + 1 are inf sentinels, so out-of-band neighbours read as inf
    start = np.clip(np.arange(n + 1) - d_hi, 0, m + 1 - w).tolist()
    dp = table[: (n + 1) * (w + 2)].reshape(n + 1, w + 2)
    dp[:, 0] = np.inf
    dp[:, w + 1] = np.inf
    col = np.arange(m + 1, dtype=np.float64) * SKIP_PENALTY
    dp[0, 1 : w + 1] = col[:w]

    # slot j holds score note j - 1 where its pitch is the lane's and inf
    # elsewhere, so |onset - slot| is the dense match cost; slot 0 never matches
    lanes = {
        p: np.concatenate(([np.inf], np.where(score_pitch == p, score_mapped, np.inf)))
        for p in np.unique(perf_pitch).tolist()
    }
    skip = np.full(w, SKIP_PENALTY)
    cand = np.empty(w)
    diag = np.empty(w)
    for i, (onset, pitch) in enumerate(zip(perf_on.tolist(), perf_pitch.tolist()), 1):
        lo = start[i]
        shift = lo - start[i - 1]  # 0 or 1
        prev = dp[i - 1]
        np.add(prev[1 + shift : 1 + shift + w], skip, out=cand)  # skip performance note i-1
        np.subtract(onset, lanes[pitch][lo : lo + w], out=diag)
        np.abs(diag, out=diag)
        np.add(prev[shift : shift + w], diag, out=diag)  # diagonal match
        np.minimum(cand, diag, out=cand)
        # fold in the left-neighbour skip via a running minimum
        band_col = col[lo : lo + w]
        np.subtract(cand, band_col, out=cand)
        row = dp[i, 1 : w + 1]
        np.fmin.accumulate(cand, out=row)  # minimum's values (no NaN), faster
        np.add(row, band_col, out=row)

    def cell(i: int, j: int) -> float:
        return dp.item(i, j - start[i] + 1)

    # the running-minimum formulation reassociates float sums, so backtrack
    # with a tolerance far below any meaningful cost difference
    tol = 1e-9 * max(1.0, cell(n, m))
    perf_t, score_t = perf_on.tolist(), score_mapped.tolist()
    perf_p, score_p = perf_pitch.tolist(), score_pitch.tolist()
    pairs: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 and j > 0:
        here = cell(i, j)
        if perf_p[i - 1] == score_p[j - 1] and (
            here >= cell(i - 1, j - 1) + abs(perf_t[i - 1] - score_t[j - 1]) - tol
        ):
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif here >= cell(i - 1, j) + SKIP_PENALTY - tol:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    return pairs


def _consensus_time_map(
    score_on: np.ndarray, perf_on: np.ndarray
) -> tuple[float, float] | None:
    """Affine fit that tolerates heavily corrupted anchor pairs.

    Plain least squares over the greedy pre-match collapses when many
    anchors pair the wrong occurrence of a pitch, so sample anchor pairs
    RANSAC-style, keep the map with the largest consensus, and refit on
    its inliers. Deterministic via a fixed sampling seed. Returns None
    when no usable consensus exists.
    """
    k = len(score_on)
    if k < 2:
        return None
    span = float(score_on.max() - score_on.min())
    min_gap = max(1e-6, 0.05 * span)
    tol = 0.2
    rng = np.random.default_rng(0)
    best: tuple[float, float] | None = None
    best_count = 0
    # truncated squared error, so a tight cluster beats a diffuse band of
    # equal size; drifted anchors form exactly such a diffuse ramp
    best_score = np.inf
    for _ in range(256):
        i1, i2 = rng.integers(0, k, size=2)
        ds = score_on[i2] - score_on[i1]
        if abs(ds) < min_gap:
            continue
        a = (perf_on[i2] - perf_on[i1]) / ds
        b = perf_on[i1] - a * score_on[i1]
        res_sq = np.square(perf_on - (a * score_on + b))
        score = float(np.minimum(res_sq, tol * tol).sum())
        if score < best_score:
            best_score = score
            best_count = int((res_sq < tol * tol).sum())
            best = (float(a), float(b))
    if best is None or best_count < max(2, 0.05 * k):
        return None
    # two refit rounds on the consensus set tighten the sampled map
    a, b = best
    for _ in range(2):
        keep = np.abs(perf_on - (a * score_on + b)) < tol
        if keep.sum() < 2:
            break
        a, b = fit_time_map(score_on[keep], perf_on[keep])
    return a, b


def _offset_candidates(score_on: np.ndarray, perf_on: np.ndarray) -> list[float]:
    """Centres of the densest windows of anchor offsets, densest first.

    Cumulative insertion/deletion drift bends the anchor offsets into a
    ramp with plateaus that can outvote the true offset in any fitting
    scheme, so every plateau becomes a unit-slope candidate and the
    caller ranks them by matching cost.
    """
    if len(score_on) == 0:
        return []
    d = np.sort(perf_on - score_on)
    hi = np.searchsorted(d, d + OFFSET_WINDOW, side="right")
    chosen: list[float] = []
    for i in np.argsort(np.arange(len(d)) - hi):  # descending window count
        b = float(d[i:hi[i]].mean())
        if all(abs(b - c) > OFFSET_WINDOW for c in chosen):
            chosen.append(b)
            if len(chosen) == MAX_OFFSET_CANDIDATES:
                break
    return chosen


def _pitch_lanes(onsets: np.ndarray, pitches: np.ndarray) -> dict[int, np.ndarray]:
    return {int(p): onsets[pitches == p] for p in np.unique(pitches)}


def _match_cost_proxy(
    perf_lanes: dict[int, np.ndarray],
    score_lanes: dict[int, np.ndarray],
    a: float,
    b: float,
) -> float:
    """Fast lower-bound surrogate for the DP cost under one time map.

    Sums each performance note's distance to the nearest same-pitch
    score note, clipped at the skip penalty, ignoring monotonicity and
    exclusivity. Good maps separate from bad ones by a wide margin.
    """
    total = 0.0
    for pitch, po_arr in perf_lanes.items():
        so_arr = score_lanes.get(pitch)
        if so_arr is None:
            total += SKIP_PENALTY * len(po_arr)
            continue
        mapped = a * so_arr + b
        j = np.searchsorted(mapped, po_arr)
        left = np.abs(po_arr - mapped[np.clip(j - 1, 0, len(mapped) - 1)])
        right = np.abs(po_arr - mapped[np.clip(j, 0, len(mapped) - 1)])
        total += float(np.minimum(np.minimum(left, right), SKIP_PENALTY).sum())
    return total


def align(perf: NoteList, score: NoteList) -> Alignment:
    """Optimal monotonic pitch-consistent matching under the DP cost.

    The initial time map comes from the greedy pitch pre-match, which
    drifts on long pieces with inserted or dropped notes, so the map is
    refit on the matched pairs and the matching repeated until it stops
    changing. When that still leaves a suspiciously sparse matching (the
    pre-match can pull the map onto a shifted diagonal that confirms
    itself), robust anchor fits seed alternative candidate maps and the
    cheapest alignment wins.

    Solved maps are remembered for the call, so a convergence that revisits
    a map (a seed that equals the first fit, a refit that lands on a map
    another seed already reached) runs no DP pass for it, and every known
    path bounds the band of each later pass. One DP table of the dense
    size is requested per call, but passes write only their band's share,
    so peak memory follows the widest band rather than n * m.
    """
    if len(perf) == 0 or len(score) == 0:
        raise EmptyInput("cannot align an empty note list")
    n, m = len(perf), len(score)

    perf_on = np.array([note.onset for note in perf.notes], dtype=np.float64)
    perf_pitch = np.array([note.pitch for note in perf.notes])
    score_on = np.array([note.onset for note in score.notes], dtype=np.float64)
    score_pitch = np.array([note.pitch for note in score.notes])

    def refit(pairs: list[tuple[int, int]]) -> tuple[float, float]:
        idx = np.asarray(pairs)
        return fit_time_map(score_on[idx[:, 1]], perf_on[idx[:, 0]])

    solved: dict[tuple[float, float], list[tuple[int, int]]] = {}
    # One dense-sized table serves every pass, and each pass writes only its
    # band's share: untouched pages cost no memory, later passes fault in no
    # new pages, and no freed table is left in the allocator's heap.
    table = np.empty((n + 1) * (m + 3), dtype=np.float64)

    def solve(a: float, b: float) -> list[tuple[int, int]]:
        if (a, b) not in solved:
            mapped = a * score_on + b
            greedy = _greedy_path(perf_on, perf_pitch, mapped, score_pitch)
            bound = min(
                _path_cost(p, perf_on, mapped) for p in [greedy, *solved.values()]
            )
            solved[(a, b)] = _dp_match(
                perf_on, perf_pitch, mapped, score_pitch, bound, table
            )
        return solved[(a, b)]

    def converge(a: float, b: float):
        pairs = solve(a, b)
        for _ in range(MAX_REFINEMENTS):
            if len(pairs) < 2:
                break
            a, b = refit(pairs)
            new_pairs = solve(a, b)
            if new_pairs == pairs:
                break
            pairs = new_pairs
        return pairs, a, b

    anchors = greedy_pitch_prematch(perf, score)
    anchor_s = score_on[[j for _, j in anchors]]
    anchor_p = perf_on[[i for i, _ in anchors]]
    a0, b0 = fit_time_map(anchor_s, anchor_p)
    pairs, a, b = converge(a0, b0)

    if len(pairs) < 0.95 * min(n, m):
        seeds: list[tuple[float, float]] = []
        consensus = _consensus_time_map(anchor_s, anchor_p)
        if consensus is not None:
            seeds.append(consensus)
        offsets = _offset_candidates(anchor_s, anchor_p)
        if offsets:
            perf_lanes = _pitch_lanes(perf_on, perf_pitch)
            score_lanes = _pitch_lanes(score_on, score_pitch)
            seeds.append(
                (
                    1.0,
                    min(
                        offsets,
                        key=lambda off: _match_cost_proxy(
                            perf_lanes, score_lanes, 1.0, off
                        ),
                    ),
                )
            )
        for seed in seeds:
            alt_pairs, a1, b1 = converge(*seed)
            alt_cost = _path_cost(alt_pairs, perf_on, a1 * score_on + b1)
            if alt_cost < _path_cost(pairs, perf_on, a * score_on + b):
                pairs, a, b = alt_pairs, a1, b1

    matched_p = {p for p, _ in pairs}
    matched_s = {s for _, s in pairs}
    return Alignment(
        pairs=pairs,
        missing=[j for j in range(m) if j not in matched_s],
        extra=[i for i in range(n) if i not in matched_p],
        time_map=(a, b),
    )


def alignment_cost(alignment: Alignment, perf: NoteList, score: NoteList) -> float:
    """Cost of a given alignment under the DP objective (used by tests)."""
    a, b = alignment.time_map
    cost = SKIP_PENALTY * (len(alignment.missing) + len(alignment.extra))
    for i, j in alignment.pairs:
        cost += abs(perf.notes[i].onset - (a * score.notes[j].onset + b))
    return cost


def info_loss(alignment: Alignment) -> float:
    """Percentage of performance notes that are extra, in [0, 100]."""
    if alignment.n_p == 0:
        raise ZeroNotes("information loss needs at least one performance note")
    return alignment.n_e / alignment.n_p * 100.0


def filter_matched(alignment: Alignment, perf: NoteList, score: NoteList) -> list[tuple[Note, Note]]:
    """Matched (performance, score) note pairs in performance onset order."""
    for i, j in alignment.pairs:
        if i >= len(perf) or j >= len(score):
            raise IndexMismatch(f"pair ({i}, {j}) out of bounds")
    if alignment.extra and max(alignment.extra) >= len(perf):
        raise IndexMismatch("extra index out of bounds")
    if alignment.missing and max(alignment.missing) >= len(score):
        raise IndexMismatch("missing index out of bounds")
    return [(perf.notes[i], score.notes[j]) for i, j in sorted(alignment.pairs)]


def export_alignment(alignment: Alignment, perf: NoteList, score: NoteList) -> str:
    """Alignment as TSV: one row per performance note, then missing rows.

    Unmatched sides carry ``*``.
    """
    filter_matched(alignment, perf, score)  # bounds check
    score_for_perf = dict(alignment.pairs)
    out = io.StringIO()
    out.write("perf_id\tperf_onset\tperf_pitch\tscore_id\tscore_onset\tscore_pitch\n")
    for i, note in enumerate(perf.notes):
        j = score_for_perf.get(i)
        if j is None:
            out.write(f"{i}\t{note.onset:.6f}\t{note.pitch}\t*\t*\t*\n")
        else:
            s = score.notes[j]
            out.write(f"{i}\t{note.onset:.6f}\t{note.pitch}\t{j}\t{s.onset:.6f}\t{s.pitch}\n")
    for j in alignment.missing:
        s = score.notes[j]
        out.write(f"*\t*\t*\t{j}\t{s.onset:.6f}\t{s.pitch}\n")
    return out.getvalue()

