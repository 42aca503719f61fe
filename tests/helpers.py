"""Shared test utilities: instance builders and brute-force oracles."""

import hashlib
import itertools
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from perfid import align as aligner
from perfid import features, midi_io
from perfid.midi_io import NoteList
from perfid.neural import Tensor, ops
from perfid.neural.optim import BETA1, BETA2, EPS


def tree_hashes(root: Path) -> dict:
    """Digest of every file under ``root``, keyed by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out[str(path.relative_to(root))] = digest
    return out


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def weighted_sum(t, proj):
    """Scalar projection so any layer output can drive a gradient check."""

    def backward(grad):
        return (grad * proj,)

    return Tensor((t.data * proj).sum(), parents=(t,), backward_fn=backward)


def check_gradients(fn, tensors, h=1e-5, rel_tol=1e-4):
    """Central-difference check of every coordinate of every tensor."""
    for t in tensors:
        t.grad = None
    fn().backward()
    for t in tensors:
        analytic = np.asarray(t.grad, dtype=float).reshape(-1)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = float(fn().data)
            flat[i] = keep - h
            lo = float(fn().data)
            flat[i] = keep
            numeric = (hi - lo) / (2 * h)
            scale = max(abs(numeric), abs(analytic[i]), 1e-6)
            assert abs(numeric - analytic[i]) <= rel_tol * scale, (t, i)


@dataclass(frozen=True)
class Note:
    """One note with absolute times in seconds: a row of a ``NoteList``."""

    pitch: int
    onset: float
    offset: float
    velocity: int
    channel: int = 0


def notes_of(note_list):
    """One ``Note`` per row of a ``NoteList``."""
    return list(map(Note, *(getattr(note_list, name).tolist() for name, _ in midi_io.COLUMNS)))


def sorted_notes(notes):
    """Reference for ``NoteList.sorted``: a keyed sort of Note objects."""
    return sorted(notes, key=lambda n: (n.onset, n.pitch, n.channel))


def from_notes(notes):
    """NoteList whose row k is ``notes[k]``."""
    columns = [[getattr(n, name) for n in notes] for name, _ in midi_io.COLUMNS]
    return NoteList(*columns)


def note_list(events, duration=0.1, velocity=64):
    """NoteList from (pitch, onset) or (pitch, onset, velocity) tuples."""
    notes = []
    for event in events:
        pitch, onset = event[0], event[1]
        vel = event[2] if len(event) > 2 else velocity
        notes.append(Note(pitch, onset, onset + duration, vel))
    return from_notes(sorted_notes(notes))


def parse_per_note(data):
    """Reference for ``perfid.midi_io.parse_midi``'s notes: one bisect
    tick-to-second conversion and one ``Note`` per note, then a keyed sort.
    Reads the same note events, so the two must agree bit for bit."""
    division, raw_notes, tempo_map = midi_io._scan(data)
    ticks = [t for t, _ in tempo_map]
    times = [0.0]
    for (t0, tempo), (t1, _) in zip(tempo_map, tempo_map[1:]):
        times.append(times[-1] + (t1 - t0) * tempo / (1e6 * division))

    def to_seconds(tick):
        i = bisect_right(ticks, tick) - 1
        t0, tempo = tempo_map[i]
        return times[i] + (tick - t0) * tempo / (1e6 * division)

    return sorted_notes(
        Note(pitch, to_seconds(on), to_seconds(off), vel, ch)
        for on, off, pitch, vel, ch in raw_notes
    )


def write_midi_loop(note_list):
    """Reference for ``perfid.midi_io.write_midi`` on writable input: one
    tick rounded by ``round`` per time, one (tick, priority, payload) tuple
    per event, a keyed sort, and one variable-length delta per event. The
    array writer rounds the same products, sorts on the same keys and
    encodes the same deltas, so the two must agree byte for byte.
    """

    def varlen(value):
        chunks = [value & 0x7F]
        value >>= 7
        while value:
            chunks.append((value & 0x7F) | 0x80)
            value >>= 7
        return bytes(reversed(chunks))

    tpq, tempo = midi_io.TICKS_PER_QUARTER, midi_io.DEFAULT_TEMPO

    # priority: the tempo, then offs, then ons at equal ticks
    events = [(0, 0, bytes([0xFF, 0x51, 0x03]) + tempo.to_bytes(3, "big"))]
    rows = zip(note_list.onset.tolist(), note_list.offset.tolist(), note_list.pitch.tolist(),
               note_list.velocity.tolist(), note_list.channel.tolist())
    for onset, offset, pitch, velocity, channel in rows:
        on_tick = round(onset * 1e6 * tpq / tempo)  # round half to even, as np.rint
        off_tick = max(round(offset * 1e6 * tpq / tempo), on_tick + 1)
        events.append((on_tick, 2, bytes([0x90 | channel, pitch, velocity])))
        events.append((off_tick, 1, bytes([0x80 | channel, pitch, 0])))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    body = bytearray()
    previous = 0
    for tick, _, payload in events:
        body += varlen(tick - previous)
        body += payload
        previous = tick
    body += varlen(0) + bytes([0xFF, 0x2F, 0x00])

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, tpq)
    return header + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def render_performance_loop(score, style, rng):
    """Reference for ``perfid.dataset.render_performance``: style fields and
    generator methods looked up on every note, and the wrong note drawn by
    ``rng.choice``. The renderer makes the same draws in the same order, so
    the two must agree bit for bit."""
    two_pi = 2 * math.pi
    phase = rng.uniform(0, two_pi)

    def warp(t):
        return t + style.tempo_amplitude * math.sin(two_pi * t / style.tempo_period + phase)

    rows = []  # (pitch, onset, offset, velocity)
    for pitch, start, end, score_velocity in zip(
        score.pitch.tolist(), score.onset.tolist(), score.offset.tolist(), score.velocity.tolist()
    ):
        if rng.random() < style.missing_rate:
            continue
        onset = warp(start) + style.timing_jitter * rng.standard_normal()
        duration = (end - start) * style.articulation
        velocity = int(round(score_velocity + style.velocity_bias
                             + style.velocity_spread * rng.standard_normal()))
        rows.append((pitch, max(0.0, onset), max(0.0, onset) + duration,
                     min(max(velocity, 1), 127)))
        if rng.random() < style.extra_rate:
            # a brushed wrong note right next to the real one
            wrong = int(pitch + rng.choice([-2, -1, 1, 2]))
            extra_onset = max(0.0, onset + rng.uniform(-0.03, 0.03))
            rows.append((min(max(wrong, 0), 127), extra_onset, extra_onset + duration * 0.5,
                         min(max(velocity - 8, 1), 127)))
    columns = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    return NoteList(*columns).sorted()


def pairs_of(alignment):
    """An alignment's matched (performance, score) index pairs, in order."""
    return list(zip(alignment.perf_idx.tolist(), alignment.score_idx.tolist()))


def unmatched(alignment):
    """An alignment's extra performance and missing score indices."""
    return (np.delete(np.arange(alignment.n_perf), alignment.perf_idx).tolist(),
            np.delete(np.arange(alignment.n_score), alignment.score_idx).tolist())


def alignment_cost(alignment, perf, score):
    """Cost of an alignment under the DP objective, at its own time map."""
    assert (len(perf), len(score)) == (alignment.n_perf, alignment.n_score)
    a, b = alignment.time_map
    return aligner._path_cost(pairs_of(alignment), perf.onset, a * score.onset + b)


def deviation_features(pairs):
    """The 6 deviation columns of (performance ``Note``, score ``Note``)
    pairs, through the columns ``features.assemble`` uses."""
    rows = np.array([[(n.pitch, n.velocity, n.onset, n.offset) for n in pair] for pair in pairs],
                    dtype=np.float64).reshape(-1, 2, 4)
    return features._deviation_columns(rows[:, 0], rows[:, 1])


def random_alignment_instance(rng, max_notes=7, n_pitches=3):
    """A small random (perf, score) pair with an ambiguous pitch alphabet."""
    pitches = [60 + 2 * k for k in range(n_pitches)]
    n = int(rng.integers(1, max_notes + 1))
    m = int(rng.integers(1, max_notes + 1))
    perf = note_list(
        sorted(
            (int(rng.choice(pitches)), float(t))
            for t in rng.uniform(0, 4, size=n)
        )
    )
    score = note_list(
        sorted(
            (int(rng.choice(pitches)), float(t))
            for t in rng.uniform(0, 4, size=m)
        )
    )
    return perf, score


def min_alignment_cost(perf, score, a, b, skip=1.0):
    """Exhaustive minimum of the alignment objective for a fixed time map.

    Every monotonic matching is a sorted performance index subset zipped
    with an equal-size sorted score index subset, so enumerate all of
    them. Feasible only when zipped pitches agree elementwise.
    """
    po, pp, so, sp = perf.onset, perf.pitch, score.onset, score.pitch
    mapped = a * so + b
    n, m = len(po), len(so)
    best = skip * (n + m)  # the empty matching
    for k in range(1, min(n, m) + 1):
        perf_subsets = np.array(list(itertools.combinations(range(n), k)))
        score_subsets = np.array(list(itertools.combinations(range(m), k)))
        feasible = (
            pp[perf_subsets][:, None, :] == sp[score_subsets][None, :, :]
        ).all(axis=2)
        if not feasible.any():
            continue
        match_cost = np.abs(
            po[perf_subsets][:, None, :] - mapped[score_subsets][None, :, :]
        ).sum(axis=2)
        total = match_cost + skip * (n + m - 2 * k)
        best = min(best, float(total[feasible].min()))
    return best


def dense_dp_pairs(perf_on, perf_pitch, score_mapped, score_pitch, skip=1.0):
    """Reference for ``perfid.align._dp_match``: the full (n+1)(m+1) table.

    Same recurrence, float operations and backtrack as the banded DP,
    with no band, so the two must return identical pairs.
    """
    n, m = len(perf_on), len(score_mapped)
    dp = np.empty((n + 1, m + 1), dtype=np.float64)
    col = np.arange(m + 1, dtype=np.float64) * skip
    dp[0] = col
    for i in range(1, n + 1):
        match_cost = np.abs(perf_on[i - 1] - score_mapped)
        match_cost[score_pitch != perf_pitch[i - 1]] = np.inf
        cand = dp[i - 1] + skip
        cand[1:] = np.minimum(cand[1:], dp[i - 1, :-1] + match_cost)
        dp[i] = np.minimum.accumulate(cand - col) + col
    tol = 1e-9 * max(1.0, float(dp[n, m]))
    pairs = []
    i, j = n, m
    while i > 0 and j > 0:
        cost = (
            abs(perf_on[i - 1] - score_mapped[j - 1])
            if perf_pitch[i - 1] == score_pitch[j - 1]
            else np.inf
        )
        if np.isfinite(cost) and dp[i, j] >= dp[i - 1, j - 1] + cost - tol:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif dp[i, j] >= dp[i - 1, j] + skip - tol:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    return pairs


def adam_step_expression(params, state):
    """Reference for ``perfid.neural.adam_step``: whole-array expressions.

    The same ufuncs in the same order with the same scalars as the
    sliced update, so the two must agree bit for bit.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        if g is None:
            continue
        if state.weight_decay > 0.0:
            g = g + state.weight_decay * p.data
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= (state.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(
            p.data.dtype, copy=False
        )
    return params


def conv1d_expression(x, weight, bias, stride=1):
    """Reference for ``ops.conv1d``: ``np.pad`` and one copy of the
    transposed sliding windows as the im2col matrix. Same GEMMs, same
    output layout, so the two must agree bit for bit.
    """
    batch, c_in, length = x.data.shape
    c_out, _, kernel = weight.data.shape
    pad = (kernel - 1) // 2
    x_pad = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    windows = sliding_window_view(x_pad, kernel, axis=2)[:, :, ::stride, :]
    out_len = windows.shape[2]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(
        batch * out_len, c_in * kernel
    )
    w2 = weight.data.reshape(c_out, c_in * kernel)
    out = (cols @ w2.T).reshape(batch, out_len, c_out).transpose(0, 2, 1)
    out = out + bias.data[None, :, None]

    def backward(grad):
        g2 = np.ascontiguousarray(grad.transpose(0, 2, 1)).reshape(batch * out_len, c_out)
        grad_w = (g2.T @ cols).reshape(c_out, c_in, kernel)
        grad_b = grad.sum(axis=(0, 2))
        dcols = (g2 @ w2).reshape(batch, out_len, c_in, kernel).transpose(0, 2, 1, 3)
        dx_pad = np.zeros_like(x_pad)
        for k in range(kernel):
            dx_pad[:, :, k : k + stride * out_len : stride] += dcols[:, :, :, k]
        return dx_pad[:, :, pad : pad + length], grad_w, grad_b

    return Tensor(out, parents=(x, weight, bias), backward_fn=backward)


def relu_expression(x):
    """Reference for ``ops.relu``: ``np.where`` on a mask in ``x``'s layout."""
    positive = x.data > 0

    def backward(grad):
        return (grad * positive,)

    return Tensor(np.where(positive, x.data, 0), parents=(x,), backward_fn=backward)


def batchnorm1d_expression(x, gamma, beta, running_mean, running_var, training,
                           lengths=None):
    """Reference for ``ops.batchnorm1d``: ``xhat`` recomputed from ``x`` and
    used in ``x``'s layout by the backward pass."""
    batch, _, length = x.data.shape
    mask = None
    if lengths is not None:
        mask = ops._length_mask(lengths, batch, length).astype(x.data.dtype)
        count = float(mask.sum())
    else:
        count = float(batch * length)
    if training:
        xm = x.data if mask is None else x.data * mask
        mean = xm.sum(axis=(0, 2)) / count
        centered = x.data - mean[None, :, None]
        if mask is not None:
            centered = centered * mask
        var = (centered * centered).sum(axis=(0, 2)) / count
        running_mean *= 1.0 - ops.BN_MOMENTUM
        running_mean += ops.BN_MOMENTUM * mean
        running_var *= 1.0 - ops.BN_MOMENTUM
        running_var += ops.BN_MOMENTUM * var
    else:
        mean = running_mean.astype(x.data.dtype)
        var = running_var.astype(x.data.dtype)
    inv_std = 1.0 / np.sqrt(var + ops.BN_EPS)
    xhat = (x.data - mean[None, :, None]) * inv_std[None, :, None]
    if mask is not None:
        xhat = xhat * mask
    out = gamma.data[None, :, None] * xhat + beta.data[None, :, None]
    if mask is not None:
        out = out * mask

    def backward(grad):
        g = grad if mask is None else grad * mask
        dxhat = g * gamma.data[None, :, None]
        if training:
            sum_d = dxhat.sum(axis=(0, 2))[None, :, None]
            sum_dx = (dxhat * xhat).sum(axis=(0, 2))[None, :, None]
            grad_x = inv_std[None, :, None] * (dxhat - sum_d / count - xhat * sum_dx / count)
        else:
            grad_x = dxhat * inv_std[None, :, None]
        if mask is not None:
            grad_x = grad_x * mask
        return grad_x, (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2))

    return Tensor(out, parents=(x, gamma, beta), backward_fn=backward)


def forward_on_tape(model, x, lengths=None):
    """Reference for eval-mode ``PianistConvNet.forward``: the same ops in
    the same order, run on the model's own parameter Tensors, so every op
    records its backward closure as a training pass would.
    """
    p, buffers = model.params, model.buffers
    cur = Tensor(np.asarray(x, dtype=model.dtype))
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.int64)
    for i, stride in enumerate(model.config.strides):
        cur = ops.conv1d(cur, p[f"conv{i}.weight"], p[f"conv{i}.bias"], stride=stride)
        if lengths is not None:
            lengths = (lengths + stride - 1) // stride
        cur = ops.batchnorm1d(ops.relu(cur), p[f"bn{i}.gamma"], p[f"bn{i}.beta"],
                              buffers[f"bn{i}.running_mean"], buffers[f"bn{i}.running_var"],
                              training=False, lengths=lengths)
    cur = ops.masked_global_avg_pool(cur, lengths)
    return ops.dense(cur, p["dense.weight"], p["dense.bias"])  # eval dropout is the identity


def consensus_time_map_loop(score_on, perf_on):
    """Reference for ``perfid.align._consensus_time_map``: one draw and one
    scored map per iteration. The vectorized form draws the same stream
    and runs the same float operations, so the two must agree bit for bit.
    """
    k = len(score_on)
    if k < 2:
        return None
    span = float(score_on.max() - score_on.min())
    min_gap = max(1e-6, 0.05 * span)
    tol = 0.2
    rng = np.random.default_rng(0)
    best = None
    best_count = 0
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
    a, b = best
    for _ in range(2):
        keep = np.abs(perf_on - (a * score_on + b)) < tol
        if keep.sum() < 2:
            break
        a, b = aligner.fit_time_map(score_on[keep], perf_on[keep])
    return a, b


def offset_candidates_loop(score_on, perf_on):
    """Reference for ``perfid.align._offset_candidates``: the mean of every
    window in descending-count order, with no window skipped."""
    if len(score_on) == 0:
        return []
    d = np.sort(perf_on - score_on)
    hi = np.searchsorted(d, d + aligner.OFFSET_WINDOW, side="right")
    chosen = []
    for i in np.argsort(np.arange(len(d)) - hi):
        b = float(d[i:hi[i]].mean())
        if all(abs(b - c) > aligner.OFFSET_WINDOW for c in chosen):
            chosen.append(b)
            if len(chosen) == aligner.MAX_OFFSET_CANDIDATES:
                break
    return chosen


def match_cost_proxy_lanes(perf_on, perf_pitch, score_on, score_pitch, a, b):
    """Reference for ``perfid.align._match_cost_proxy`` at slope a > 0: one
    ``searchsorted`` per pitch lane, in the lane's mapped onsets."""
    total = 0.0
    for pitch in np.unique(perf_pitch).tolist():
        po_arr = perf_on[perf_pitch == pitch]
        so_arr = score_on[score_pitch == pitch]
        if so_arr.size == 0:
            total += aligner.SKIP_PENALTY * len(po_arr)
            continue
        mapped = a * so_arr + b
        j = np.searchsorted(mapped, po_arr)
        left = np.abs(po_arr - mapped[np.clip(j - 1, 0, len(mapped) - 1)])
        right = np.abs(po_arr - mapped[np.clip(j, 0, len(mapped) - 1)])
        total += float(np.minimum(np.minimum(left, right), aligner.SKIP_PENALTY).sum())
    return total


def greedy_pitch_prematch(perf, score):
    """Reference for ``perfid.align._anchors``: anchor pairs for the
    time-map fit, the k-th occurrence of each pitch on one side paired
    with the k-th occurrence on the other."""
    by_pitch_perf = {}
    by_pitch_score = {}
    for i, pitch in enumerate(perf.pitch.tolist()):
        by_pitch_perf.setdefault(pitch, []).append(i)
    for j, pitch in enumerate(score.pitch.tolist()):
        by_pitch_score.setdefault(pitch, []).append(j)
    anchors = []
    for pitch, perf_ids in by_pitch_perf.items():
        score_ids = by_pitch_score.get(pitch, [])
        anchors.extend(zip(perf_ids, score_ids))
    anchors.sort()
    return anchors


def greedy_path_loop(perf_on, perf_pitch, score_mapped, score_pitch):
    """A per-note form of ``perfid.align._greedy_path``'s bound path.

    Each performance note takes the score note of its pitch after the last
    match that lies nearest in time, when their onsets differ by less than
    the skip penalty. It may match notes the lane form leaves out, so the
    two paths need not be equal.
    """
    lanes = {}
    for j, p in enumerate(score_pitch.tolist()):
        lanes.setdefault(p, []).append(j)
    heads = dict.fromkeys(lanes, 0)
    mapped = score_mapped.tolist()
    pairs = []
    last = -1
    for i, (t, p) in enumerate(zip(perf_on.tolist(), perf_pitch.tolist())):
        lane = lanes.get(p)
        if lane is None:
            continue
        k = heads[p]
        while k < len(lane) and (lane[k] <= last or mapped[lane[k]] <= t - aligner.SKIP_PENALTY):
            k += 1
        while k + 1 < len(lane) and abs(t - mapped[lane[k + 1]]) < abs(t - mapped[lane[k]]):
            k += 1
        if k < len(lane) and abs(t - mapped[lane[k]]) < aligner.SKIP_PENALTY:
            last = lane[k]
            pairs.append((i, last))
            k += 1
        heads[p] = k
    return pairs


def gated_align(perf, score):
    """Reference for ``perfid.align.align``'s seed choice: converge from the
    least-squares pre-match map, and only when fewer than 95 % of notes
    match, also from the consensus and best-offset seeds, keeping the
    cheapest result. Returns (pairs, (a, b), DP passes)."""
    n, m = len(perf), len(score)
    perf_on, perf_pitch = perf.onset, perf.pitch
    score_on, score_pitch = score.onset, score.pitch
    solved = {}

    def solve(a, b):
        if (a, b) not in solved:
            mapped = a * score_on + b
            greedy = greedy_path_loop(perf_on, perf_pitch, mapped, score_pitch)
            bound = min(
                aligner._path_cost(p, perf_on, mapped) for p in [greedy, *solved.values()]
            )
            solved[(a, b)] = aligner._dp_match(perf_on, perf_pitch, mapped, score_pitch, bound)
        return solved[(a, b)]

    def converge(a, b):
        pairs = solve(a, b)
        for _ in range(aligner.MAX_REFINEMENTS):
            if len(pairs) < 2:
                break
            idx = np.asarray(pairs)
            a, b = aligner.fit_time_map(score_on[idx[:, 1]], perf_on[idx[:, 0]])
            new_pairs = solve(a, b)
            if new_pairs == pairs:
                break
            pairs = new_pairs
        return pairs, a, b

    def cost(pairs, a, b):
        return aligner._path_cost(pairs, perf_on, a * score_on + b)

    anchors = greedy_pitch_prematch(perf, score)
    anchor_s = score_on[[j for _, j in anchors]]
    anchor_p = perf_on[[i for i, _ in anchors]]
    pairs, a, b = converge(*aligner.fit_time_map(anchor_s, anchor_p))
    if len(pairs) < 0.95 * min(n, m):
        seeds = []
        consensus = consensus_time_map_loop(anchor_s, anchor_p)
        if consensus is not None:
            seeds.append(consensus)
        offsets = offset_candidates_loop(anchor_s, anchor_p)
        if offsets:
            seeds.append((1.0, min(offsets, key=lambda off: match_cost_proxy_lanes(
                perf_on, perf_pitch, score_on, score_pitch, 1.0, off))))
        for seed in seeds:
            alt_pairs, a1, b1 = converge(*seed)
            if cost(alt_pairs, a1, b1) < cost(pairs, a, b):
                pairs, a, b = alt_pairs, a1, b1
    return pairs, (a, b), len(solved)
