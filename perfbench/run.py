"""perfid's benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload extract-long --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; perfid is imported
from the checkout's ``src/``. The run sets up its corpus from ``--seed``
several times (``setup_s`` is the median), then repeats the workload's
cycle until ``--seconds`` have passed and reports medians over cycles.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced cycles and prints the
per-layer metrics, which come from spans recorded around perfid's public
functions by wrappers from ``tracer.py``; the untraced cycles give the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files,
the spans and a stamped copy of the result go under ``.perfbench/`` in the
checkout; the scratch files are deleted when the run ends. The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# One closed-loop client on a 2-core box: perfid's --threads stays at its
# default of 1 and BLAS gets one thread, so a run measures no contention.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpora and few epochs, for the smoke test")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def stamp(seed: int) -> dict:
    """What a number from this run depends on besides the code."""
    import numpy as np
    from workloads import tree_digest

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC / "perfid"),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "perfid" / "__init__.py").is_file():
        print(f"perfbench: no perfid sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)  # for the perfid child processes
    sys.path.insert(0, str(SRC))
    import perfid

    if Path(perfid.__file__).resolve().parent != SRC / "perfid":
        print(f"perfbench: imported perfid from {perfid.__file__}", file=sys.stderr)
        return 2
    import perfid.cli  # compiles every module once, before any timed command
    import workloads

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-",
        dir=ROOT / ".perfbench"))
    work = out_dir / "work"
    work.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.tiny)
        result = run(workload, args, spec, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["stamp"] = stamp(args.seed)
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


def run(workload, args, spec, out_dir: Path) -> dict:
    from workloads import WORKLOAD_METRICS, tree_digest

    problems: list[str] = []
    tracer = tracing.Tracer("setup0") if args.trace else None
    setup_records: list[dict] = []
    setup_times, digests = [], []
    repeats = 2 if args.tiny else SETUP_REPEATS
    if tracer:
        tracer.install()
    try:
        # every set-up builds the same corpus afresh; the cycles use the last
        for i in range(repeats):
            dest = workload.work / f"setup{i}"
            start = time.perf_counter()
            workload.setup(dest, args.seed)
            setup_times.append(time.perf_counter() - start)
            digests.append(tree_digest(dest))
            if tracer:
                setup_records += tracer.take(f"setup{i + 1}")
            if i + 1 < repeats:
                shutil.rmtree(dest)
    finally:
        if tracer:
            tracer.uninstall()
    if len(set(digests)) != 1:
        problems.append("repeated set-ups wrote different corpora")
    workload.count_notes()

    cycles = []
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced cycles
        cycle = workload.cycle(len(cycles), traced=bool(args.trace) and len(cycles) % 2 == 1)
        cycles.append(cycle)
        if cycle.failed:
            break
        if time.perf_counter() - start >= args.seconds and (
                not args.trace or len(cycles) >= 2):
            break

    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    problems += [p for c in cycles for p in c.problems]
    untraced = [c for c in cycles if not c.traced]
    traced = [(c.records, c.wall) for c in cycles if c.traced]
    setup_s = statistics.median(setup_times)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(cycles)} cycles, {len(setup_times)} set-ups")

    extra: dict[str, float] = {}
    if args.trace:
        tracing.write_records(out_dir / "spans.jsonl",
                              setup_records + [r for c in cycles for r in c.records])
        metrics = tracing.layer_metrics(traced, [c.wall for c in untraced], setup_records)
        wanted = spec["per_layer"]
        print("largest self time per traced cycle: " + ", ".join(
            f"{name} {seconds:.4f} s" for name, seconds in tracing.largest_self(traced)[:5]))
    else:
        usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(c.wall for c in untraced),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        extra = workload.summarize(untraced)
        extra["failed_frac"] = failed / attempted
        for name, (unit, better) in WORKLOAD_METRICS[args.workload].items():
            print(f"  {name:40s} {extra[name]:<12.6g} {unit} ({better} is better)")

    reported = {}
    for m in wanted:
        value = metrics.get(m["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {m['name']} is {value}")
            value = 0.0
        reported[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"  {m['name']:40s} {value:<12.6g} {m['unit']}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
        "problems": problems,
        "workload_metrics": extra,
        "cycle_walls": [c.wall for c in cycles],
        "setup_times": setup_times,
    }


if __name__ == "__main__":
    sys.exit(main())
