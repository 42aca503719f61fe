#!/usr/bin/env python3
"""Time ``align`` on a fixed set of synthetic takes and digest its results.

* 240 takes, ``default_rng([31, k])``: a score of 150-1,600 notes and a
  performance of it, in default (even k) and hard (odd k) styles.
* 12 misfit takes, ``default_rng([32, k])``: a hard-style performance of
  one 600-1,700-note score aligned against another score, so the DP
  passes run near-full bands.

Prints the summed ``align`` wall time of all takes and, on a line of its
own, of the 12 misfits; the total DP passes; one SHA-256 over every
``Alignment``'s matched index pairs (one int64 row per pair) and time
map; and the process's peak RSS (``ru_maxrss``). Two checkouts that
print the same digest and pass count aligned every take alike; run it in
each:

    PYTHONPATH=src python scripts/align_probe.py
"""

from __future__ import annotations

import hashlib
import resource
import struct
import time

import numpy as np

from perfid import dataset
from perfid.align import align

STYLES = (dataset.default_styles(3), dataset.hard_styles(3))
REGULAR = 240  # takes before the misfits


def takes():
    """(performance, score) pairs in a fixed order."""
    for k in range(REGULAR):
        rng = np.random.default_rng([31, k])
        score = dataset._make_score(rng, int(rng.integers(150, 1601)))
        yield dataset.render_performance(score, STYLES[k % 2][k // 2 % 3], rng), score
    for k in range(12):
        rng = np.random.default_rng([32, k])
        played = dataset._make_score(rng, int(rng.integers(600, 1701)))
        other = dataset._make_score(rng, int(rng.integers(600, 1701)))
        yield dataset.render_performance(played, STYLES[1][k % 3], rng), other


def main() -> int:
    digest = hashlib.sha256()
    seconds, misfit_seconds, passes = 0.0, 0.0, 0
    for k, (perf, score) in enumerate(takes()):
        t0 = time.perf_counter()
        result = align(perf, score)
        elapsed = time.perf_counter() - t0
        seconds += elapsed
        if k >= REGULAR:
            misfit_seconds += elapsed
        passes += result.dp_passes
        digest.update(np.column_stack((result.perf_idx, result.score_idx)).tobytes())
        digest.update(struct.pack("<2d", *result.time_map))
    print(f"align_s {seconds:.3f}")
    print(f"misfit_align_s {misfit_seconds:.3f}")
    print(f"dp_passes {passes}")
    print(f"sha256 {digest.hexdigest()}")
    # ru_maxrss is in KiB on Linux
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
