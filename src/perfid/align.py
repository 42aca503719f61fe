"""Note-level correspondence between a performance and a score.

A global dynamic-programming alignment pairs performance and score notes.
Matches are only allowed on equal pitch; the match cost is the absolute
onset difference after the score timeline has been affinely mapped onto
the performance timeline, and skipping a note on either side costs 1.0.
Unmatched performance notes are "extra", unmatched score notes are
"missing".

One index per call, the score sorted by (pitch, onset), serves every
same-pitch lookup outside the DP. Its anchors pair the k-th occurrence of
each pitch on both sides and give three candidate maps (a least-squares
fit, a RANSAC consensus fit and the best unit-slope offset), all built
before any DP pass. A proxy from each note's nearest same-pitch score note
lower-bounds the performance side of each map's DP cost; the cheapest map
is refined by DP passes and refits. The other seeds run DP passes only
when that leaves fewer than 95 % of notes matched.

Each DP pass is exact but computes only a certified band of diagonals.
The pass is given an upper bound C on its optimal cost: the cheapest of a
greedy path of nearest notes and every path already solved for this
performance, each costed under the pass's own map. Since a path through
cell (i, j) skips at least |i - j| + |(n - m) - (i - j)| notes, no path of
cost <= C leaves the diagonals within reach of that many skips (Ukkonen's
cutoff), so the band needs no widen-and-retry. A pass keeps the floats
of one block of band rows and two backtrack bits per band cell, so even
a take that does not fit its score, whose band spans every diagonal,
costs a quarter byte per cell rather than a float64 table. Within one
``align`` call each time map is solved at most once, and not at all when
a known path already costs no more than the proxy bound plus the score
notes any path must skip: that path is optimal. On takes without wrong
notes the greedy path usually is.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .midi_io import NoteList

SKIP_PENALTY = 1.0
MAX_REFINEMENTS = 2  # time-map refits after the first DP pass in one convergence
OFFSET_WINDOW = 0.4  # seconds; width of an anchor-offset plateau
MAX_OFFSET_CANDIDATES = 8
DP_BLOCK_CELLS = 2**15  # band cells per block of DP rows computed at once


class EmptyInput(ValueError):
    """Alignment of an empty performance or score is undefined."""


class ZeroNotes(ValueError):
    """Information loss is undefined for an empty performance."""


class IndexMismatch(IndexError):
    """An alignment index outside its note count, or note lists that do not fit."""


@dataclass(eq=False)
class Alignment:
    """Matched note indices of one performance against one score.

    Row k of ``perf_idx`` and ``score_idx`` (int64) is one matched pair;
    both columns strictly increase, so the matching is one to one and
    monotonic. ``n_perf`` and ``n_score`` count the notes on each side;
    unmatched performance notes are extra and unmatched score notes
    missing. Construction raises ValueError for columns that are not 1-D,
    of one length and strictly increasing, and IndexMismatch for an index
    outside ``[0, n)``.
    """

    perf_idx: np.ndarray
    score_idx: np.ndarray
    n_perf: int
    n_score: int
    time_map: tuple[float, float] | None = None  # (a, b) the matcher settled on
    seed: str | None = None  # "least-squares", "consensus" or "offset"
    dp_passes: int = 0  # DP passes the matcher ran

    def __post_init__(self):
        self.perf_idx = np.asarray(self.perf_idx, dtype=np.int64)
        self.score_idx = np.asarray(self.score_idx, dtype=np.int64)
        if self.perf_idx.ndim != 1 or self.perf_idx.shape != self.score_idx.shape:
            raise ValueError("alignment index columns must be 1-D arrays of one length")
        for idx, n in ((self.perf_idx, self.n_perf), (self.score_idx, self.n_score)):
            if np.any(np.diff(idx) <= 0):
                raise ValueError("alignment pairs are not one-to-one and monotonic")
            if idx.size and (idx[0] < 0 or idx[-1] >= n):
                raise IndexMismatch(f"alignment index outside [0, {n})")


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
) -> list[tuple[int, int]]:
    """Minimum-cost monotonic matching for one fixed time map.

    ``bound`` is the cost of some monotone matching under this map. Only
    the diagonals that a path within the bound (plus one skip of slack
    against rounding) can reach are computed; see the module docstring.
    Cell (i, j) holds ``dp(i, j) - (i + j) * SKIP_PENALTY``, where ``dp``
    is the dense table's cost of matching the first i performance and j
    score notes. Under that shift both skips cost 0 and a match costs its
    onset distance minus two skips, so a row is a diagonal add, a minimum
    with the row above and a running minimum for the left neighbour. The
    values equal ``dp - i - j`` up to rounding, and every cell a path
    within the bound visits is in the band.

    Rows are computed in blocks of about ``DP_BLOCK_CELLS`` cells, and only
    the current block and the row above it are kept. Each band cell leaves
    two bits: whether it is reached from its diagonal neighbour by a match,
    and whether from the row above by skipping a performance note, each
    within a tolerance of ``1e-9 * max(1, bound)``. The backtrack walks
    these bits with the dense table's priority (match, then skip the
    performance note, then the score note). The bound is at least the
    optimum, so that tolerance still lies far below any meaningful cost
    difference while it absorbs the shift's rounding, and the pairs equal
    the dense table's. Memory is two bits per band cell.
    """
    n, m = len(perf_on), len(score_mapped)
    diff = n - m
    half = int((bound / SKIP_PENALTY + 1 - abs(diff)) // 2)
    d_hi = max(0, diff) + half
    w = min(m + 1, d_hi - (min(0, diff) - half) + 1)
    # row i holds columns [start[i], start[i] + w) in slots 1..w; slots 0
    # and w + 1 are inf sentinels, so out-of-band neighbours read as inf
    start = np.clip(np.arange(n + 1) - d_hi, 0, m + 1 - w)
    # the band moves one column right from row i - 1 to row i exactly for
    # rows i in (d_hi, d_hi + m + 1 - w]; no block straddles an end of that
    # range, so each block's neighbours sit at one fixed offset
    cut, uncut = np.clip([d_hi, d_hi + m + 1 - w], 0, n).tolist()
    rows = min(n, max(1, DP_BLOCK_CELLS // w))
    blocks = [
        (lo, min(end, lo + rows), shift)
        for begin, end, shift in ((0, cut, 0), (cut, uncut, 1), (uncut, n, 0))
        for lo in range(begin, end, rows)
    ]
    # slot rows 1..rows of ``f`` hold a block, slot row 0 the row above it
    flat = np.empty((rows + 1) * (w + 2))
    f = flat.reshape(rows + 1, w + 2)
    f[:, 0] = np.inf
    f[:, w + 1] = np.inf
    f[0, 1 : w + 1] = 0.0
    # every w-value window of the flat block, so each row operand is one
    # lookup: block row t's band starts at offset t * (w + 2) + 1, its
    # diagonal neighbours w + 3 - shift before that, and its vertical
    # neighbours one slot after those
    band = sliding_window_view(flat, w, writeable=True)
    row_at = (np.arange(1, rows + 1) * (w + 2) + 1).tolist()
    # row i's bits are bytes (i - 1) * stride onwards: its match bits from
    # bit 0 and its skip bits from bit w, each in slot order
    stride = (2 * w + 7) // 8
    reached = np.zeros((rows, 8 * stride), dtype=bool)
    bits = np.empty(n * stride, dtype=np.uint8)
    tol = 1e-9 * max(1.0, bound)

    # lane k, slot j holds score note j - 1 where its pitch is the k-th
    # performance pitch and inf elsewhere, so |onset - slot| is the dense
    # match cost (the rows add it less two skips); slot 0 never matches
    pitches, lane_of = np.unique(perf_pitch, return_inverse=True)
    lanes = np.full((len(pitches), m + 1), np.inf)
    np.copyto(lanes[:, 1:], score_mapped, where=score_pitch == pitches[:, None])
    windows = sliding_window_view(lanes, w, axis=1)
    for lo, hi, shift in blocks:
        k = hi - lo
        match = windows[lane_of[lo:hi], start[lo + 1 : hi + 1]]  # rows lo + 1 .. hi
        np.subtract(perf_on[lo:hi, None], match, out=match)
        np.abs(match, out=match)
        np.subtract(match, 2 * SKIP_PENALTY, out=match)
        back = w + 3 - shift
        for r, cost in zip(row_at[:k], match):
            row, d = band[r], r - back
            np.add(band[d], cost, out=cost)  # kept for the match bits
            np.minimum(cost, band[d + 1], out=row)
            np.fmin.accumulate(row, out=row)  # minimum's values (no NaN), faster
        # match bits: the cell within tol of its diagonal sum; skip bits:
        # within tol of the cell above
        here = f[1 : k + 1, 1 : w + 1]
        np.subtract(match, tol, out=match)
        np.greater_equal(here, match, out=reached[:k, :w])
        np.subtract(f[:k, shift + 1 : shift + w + 1], tol, out=match)
        np.greater_equal(here, match, out=reached[:k, w : 2 * w])
        bits[lo * stride : hi * stride] = np.packbits(reached[:k], bitorder="little")
        f[0] = f[k]

    start = start.tolist()
    flag = bits.data
    pairs: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 and j > 0:
        at, c = (i - 1) * stride, j - start[i]  # row i's bytes, column j's bit
        if flag[at + (c >> 3)] >> (c & 7) & 1:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif flag[at + ((w + c) >> 3)] >> ((w + c) & 7) & 1:
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
    i1, i2 = np.random.default_rng(0).integers(0, k, size=(256, 2)).T
    ds = score_on[i2] - score_on[i1]
    usable = np.abs(ds) >= min_gap
    if not usable.any():
        return None
    i1, ds = i1[usable], ds[usable]
    slopes = (perf_on[i2[usable]] - perf_on[i1]) / ds
    offsets = perf_on[i1] - slopes * score_on[i1]
    # truncated squared error, so a tight cluster beats a diffuse band of
    # equal size; drifted anchors form exactly such a diffuse ramp. Rows
    # are scored 32 maps at a time to keep the temporaries small.
    scores = np.empty(len(slopes))
    for lo in range(0, len(slopes), 32):
        mapped = slopes[lo : lo + 32, None] * score_on + offsets[lo : lo + 32, None]
        res_sq = np.square(perf_on - mapped)
        scores[lo : lo + 32] = np.minimum(res_sq, tol * tol).sum(axis=1)
    best = int(np.argmin(scores))  # the first strict minimum, in draw order
    a, b = float(slopes[best]), float(offsets[best])
    if int((np.square(perf_on - (a * score_on + b)) < tol * tol).sum()) < max(2, 0.05 * k):
        return None
    # two refit rounds on the consensus set tighten the sampled map
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
    # A window whose whole range lies within the plateau width of a chosen
    # centre has its mean there too, so it is rejected without computing
    # it. Offsets are seconds: a nanosecond of margin covers the rounding
    # that can carry a float mean just past its window's ends.
    reach = OFFSET_WINDOW - 1e-9
    covered = np.zeros(len(d), dtype=bool)
    chosen: list[float] = []
    for i in np.argsort(np.arange(len(d)) - hi).tolist():  # descending window count
        if covered[i]:
            continue
        b = float(d[i:hi[i]].mean())
        if all(abs(b - c) > OFFSET_WINDOW for c in chosen):
            chosen.append(b)
            if len(chosen) == MAX_OFFSET_CANDIDATES:
                break
            covered |= (d >= b - reach) & (d[hi - 1] <= b + reach)
    return chosen


def _score_lanes(score_on: np.ndarray, score_pitch: np.ndarray, perf_pitch: np.ndarray):
    """The score sorted by (pitch, onset), built once per ``align`` call.

    Returns the sorted positions' score indices and onsets; one ascending
    key, ``pitch * stride + onset``, in which each pitch owns a contiguous
    run; each performance note's ``pitch * stride``; and ``lo``/``hi``,
    the bounds of its pitch's run (empty when the score lacks the pitch).
    """
    order = np.lexsort((score_on, score_pitch))
    onset, pitch = score_on[order], score_pitch[order]
    stride = float(onset.max() - onset.min()) + 2.0
    lo, hi = (np.searchsorted(pitch, perf_pitch, side=side) for side in ("left", "right"))
    return order, onset, pitch * stride + onset, perf_pitch * stride, lo, hi


def _nearest(perf_on: np.ndarray, lanes, a: float, b: float):
    """Each performance note's nearest same-pitch score note under one map.

    Returns score indices and onset distances (inf where the score lacks
    the pitch; ties go to the earlier score onset). The search runs in
    score time: a query past either end of its pitch's run is clamped to
    the run's end note.
    """
    order, onset, key, perf_base, lo, hi = lanes
    target = (perf_on - b) / a if a else perf_on  # a == 0: every note is equally near
    j = np.searchsorted(key, perf_base + target)
    left, right = np.clip(j - 1, lo, hi - 1), np.clip(j, lo, hi - 1)
    d_left = np.abs(perf_on - (a * onset[left] + b))
    d_right = np.abs(perf_on - (a * onset[right] + b))
    near = order[np.where(d_right < d_left, right, left)]
    return near, np.where(lo < hi, np.minimum(d_left, d_right), np.inf)


def _match_cost_proxy(perf_on: np.ndarray, lanes, a: float, b: float) -> float:
    """Fast lower bound on the performance side of the DP cost under one map.

    Sums each performance note's distance to the nearest same-pitch
    score note, clipped at the skip penalty, ignoring monotonicity and
    exclusivity. Good maps separate from bad ones by a wide margin.
    """
    return float(np.minimum(_nearest(perf_on, lanes, a, b)[1], SKIP_PENALTY).sum())


def _greedy_path(perf_on: np.ndarray, lanes, a: float, b: float) -> list[tuple[int, int]]:
    """A cheap monotone same-pitch path, used only to bound a DP pass.

    Notes within the skip penalty of their nearest same-pitch score note
    join in order when that score note follows every earlier one's. A note
    left out lies at or before a member's, so that is "after the last match".
    """
    near, dist = _nearest(perf_on, lanes, a, b)
    cand = np.flatnonzero(dist < SKIP_PENALTY)
    j = near[cand]
    keep = j > np.maximum.accumulate(np.concatenate(([-1], j[:-1])))
    return list(zip(cand[keep].tolist(), j[keep].tolist()))


def _anchors(perf_pitch: np.ndarray, score_pitch: np.ndarray, lanes):
    """Anchor pairs for the time-map fit: the k-th occurrence of each pitch
    in index order on one side pairs with the k-th on the other. Returns
    the performance indices (ascending) and their score indices.
    """
    lo, hi = lanes[4:]  # a stable pitch sort of the score has these runs too
    by_pitch = np.argsort(perf_pitch, kind="stable")
    pitch = perf_pitch[by_pitch]
    pos = np.empty_like(by_pitch)  # lo plus the note's rank within its pitch
    pos[by_pitch] = lo[by_pitch] + np.arange(len(pos)) - np.searchsorted(pitch, pitch)
    perf_idx = np.flatnonzero(pos < hi)
    return perf_idx, np.argsort(score_pitch, kind="stable")[pos[perf_idx]]


def align(perf: NoteList, score: NoteList) -> Alignment:
    """Optimal monotonic pitch-consistent matching under the DP cost.

    Anchors, proxy and greedy paths all read one (pitch, onset) index of
    the score. Three seed maps come from the anchors: their least-squares
    fit (which drifts on long pieces with inserted or dropped notes, and
    can settle on a shifted diagonal that confirms itself), a RANSAC
    consensus fit, and the unit-slope anchor-offset plateau with the
    lowest proxy. The seed with the lowest proxy (ties kept in that order)
    is refit on its matched pairs and matched again until the pairs stop
    changing. Only when that matches fewer than 95 % of notes do the other
    seeds converge too, and the cheapest alignment wins. ``seed`` and
    ``dp_passes`` record the winning seed and the DP passes the call ran.

    Solved maps are remembered for the call, so a refit that revisits a
    map runs no DP pass for it, and every known path bounds the band of
    each later pass. A map whose cheapest known path reaches the proxy's
    lower bound runs no pass either. A pass keeps one block of band rows
    and two bits per band cell, so peak memory follows the widest band at
    a quarter byte per cell rather than n * m floats.
    """
    if len(perf) == 0 or len(score) == 0:
        raise EmptyInput("cannot align an empty note list")
    n, m = len(perf), len(score)

    perf_on, perf_pitch = perf.onset, perf.pitch
    score_on, score_pitch = score.onset, score.pitch
    lanes = _score_lanes(score_on, score_pitch, perf_pitch)

    def proxy(time_map: tuple[float, float]) -> float:
        return _match_cost_proxy(perf_on, lanes, *time_map)

    solved: dict[tuple[float, float], list[tuple[int, int]]] = {}
    passes = 0

    def solve(a: float, b: float) -> list[tuple[int, int]]:
        nonlocal passes
        if (a, b) not in solved:
            mapped = a * score_on + b
            known = [_greedy_path(perf_on, lanes, a, b), *solved.values()]
            costs = [_path_cost(p, perf_on, mapped) for p in known]
            bound = min(costs)
            # the proxy bounds the performance side and every path skips at
            # least m - n score notes, so the sum bounds the optimum from
            # below: a known path that reaches it is optimal and needs no pass
            if bound <= proxy((a, b)) + SKIP_PENALTY * max(0, m - n):
                solved[(a, b)] = known[costs.index(bound)]
            else:
                passes += 1
                solved[(a, b)] = _dp_match(perf_on, perf_pitch, mapped, score_pitch, bound)
        return solved[(a, b)]

    def converge(a: float, b: float):
        pairs = solve(a, b)
        for _ in range(MAX_REFINEMENTS):
            if len(pairs) < 2:
                break
            idx = np.asarray(pairs)
            a, b = fit_time_map(score_on[idx[:, 1]], perf_on[idx[:, 0]])
            new_pairs = solve(a, b)
            if new_pairs == pairs:
                break
            pairs = new_pairs
        return pairs, a, b

    anchor_p, anchor_s = _anchors(perf_pitch, score_pitch, lanes)
    anchor_p, anchor_s = perf_on[anchor_p], score_on[anchor_s]
    seeds = {"least-squares": fit_time_map(anchor_s, anchor_p)}
    consensus = _consensus_time_map(anchor_s, anchor_p)
    if consensus is not None:
        seeds["consensus"] = consensus
    offsets = _offset_candidates(anchor_s, anchor_p)
    if offsets:
        seeds["offset"] = min(((1.0, off) for off in offsets), key=proxy)
    ranked = sorted(seeds, key=lambda name: proxy(seeds[name]))  # stable on ties
    seed = ranked[0]
    pairs, a, b = converge(*seeds[seed])
    if len(pairs) < 0.95 * min(n, m):
        # the proxy ignores monotonicity, so a sparse result may come from a
        # misranked seed: the others converge too and the cheapest wins
        for name in ranked[1:]:
            alt_pairs, a1, b1 = converge(*seeds[name])
            alt_cost = _path_cost(alt_pairs, perf_on, a1 * score_on + b1)
            if alt_cost < _path_cost(pairs, perf_on, a * score_on + b):
                seed, pairs, a, b = name, alt_pairs, a1, b1

    idx = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return Alignment(idx[:, 0], idx[:, 1], n, m, time_map=(a, b), seed=seed, dp_passes=passes)


def info_loss(alignment: Alignment) -> float:
    """Percentage of performance notes that are extra, in [0, 100]."""
    if alignment.n_perf == 0:
        raise ZeroNotes("information loss needs at least one performance note")
    return (alignment.n_perf - len(alignment.perf_idx)) / alignment.n_perf * 100.0


def export_alignment(alignment: Alignment, perf: NoteList, score: NoteList) -> str:
    """Alignment as TSV: one row per performance note, then missing rows.

    Unmatched sides carry ``*``. Raises IndexMismatch for note lists
    whose lengths differ from the alignment's counts.
    """
    if (len(perf), len(score)) != (alignment.n_perf, alignment.n_score):
        raise IndexMismatch(f"{len(perf)} and {len(score)} notes for an alignment of "
                            f"{alignment.n_perf} and {alignment.n_score}")
    score_for_perf = dict(zip(alignment.perf_idx.tolist(), alignment.score_idx.tolist()))
    score_on, score_pitch = score.onset.tolist(), score.pitch.tolist()

    def score_cells(j: int | None) -> str:
        return "*\t*\t*" if j is None else f"{j}\t{score_on[j]:.6f}\t{score_pitch[j]}"

    out = io.StringIO()
    out.write("perf_id\tperf_onset\tperf_pitch\tscore_id\tscore_onset\tscore_pitch\n")
    for i, (onset, pitch) in enumerate(zip(perf.onset.tolist(), perf.pitch.tolist())):
        out.write(f"{i}\t{onset:.6f}\t{pitch}\t{score_cells(score_for_perf.get(i))}\n")
    for j in np.delete(np.arange(len(score)), alignment.score_idx).tolist():
        out.write(f"*\t*\t*\t{score_cells(j)}\n")
    return out.getvalue()
