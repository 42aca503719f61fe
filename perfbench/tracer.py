"""Span tracing for the benchmark, installed from outside the program.

The tracer replaces public functions of the ``perfid`` modules with thin
wrappers that record a span per call: name, start, end, the span that was
open when the call started (its parent) and a run id. Spans stay in
memory until :meth:`Tracer.write`. :meth:`Tracer.uninstall` puts every
original object back, so untraced runs execute unmodified code.

Each op in ``perfid.neural.ops`` gets a forward span and, by wrapping the
``_backward_fn`` of the Tensor it returns, a backward span. Calls to
``perfid.align._dp_match`` are counted, not spanned: a span there would
move the dense DP out of ``align.align``'s self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# span name -> (module, attribute) of a public function
FUNCTIONS = {
    "midi_io.parse": ("perfid.midi_io", "parse_midi"),
    "align.align": ("perfid.align", "align"),
    "features.assemble": ("perfid.features", "assemble"),
    "experiment.extract_performance": (
        "perfid.experiment.pipeline", "extract_performance"),
    "experiment.extract_corpus": ("perfid.experiment.pipeline", "extract_corpus"),
    "experiment.build_split_sets": (
        "perfid.experiment.pipeline", "build_split_sets"),
    "experiment.train": ("perfid.experiment.training", "train"),
    "experiment.evaluate": ("perfid.experiment.training", "evaluate"),
    "neural.adam": ("perfid.neural.optim", "adam_step"),
    "dataset.synth_generate": ("perfid.dataset", "synth_generate"),
    "cli": ("perfid.cli", "main"),
}
# span name -> (module, class, method)
METHODS = {
    "neural.backward": ("perfid.neural.tensor", "Tensor", "backward"),
    "neural.predict": ("perfid.neural.model", "PianistConvNet", "predict"),
    "neural.forward": ("perfid.neural.model", "PianistConvNet", "forward"),
}
OPS = (
    "conv1d",
    "relu",
    "batchnorm1d",
    "dropout",
    "masked_global_avg_pool",
    "dense",
    "softmax_cross_entropy",
)
# counter name -> (module, attribute)
COUNTERS = {"align.dp_pass": ("perfid.align", "_dp_match")}


def _perfid_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "perfid" or name.startswith("perfid."))
    ]


class Tracer:
    """Records spans and counts for one process; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()  # counter name -> calls
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._before: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, fields: dict | None = None):
        span = {
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if fields:
            span["fields"] = fields
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def _function(self, name: str, fn, fields_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fields = fields_of(args, kwargs) if fields_of else None
            return self.call(name, fn, args, kwargs, fields)

        return wrapper

    def _op(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name + ".fwd", fn, args, kwargs)
            backward = getattr(out, "_backward_fn", None)
            # dropout in eval mode hands back its input: nothing new to time
            if backward is not None and not any(out is a for a in args):
                out._backward_fn = self._function(name + ".bwd", backward)
            return out

        return wrapper

    def _forward(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            training = kwargs.get("training", args[3] if len(args) > 3 else False)
            name = "neural.forward" if training else "neural.forward_eval"
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _replace_everywhere(self, module: str, attr: str, make_wrapper) -> None:
        """Swap a function in its module and in every module that imported it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = make_wrapper(original)
        for mod in _perfid_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        importlib.import_module("perfid.cli")  # loads every perfid module
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._before = bindings()
        for name, (module, attr) in FUNCTIONS.items():
            fields_of = _extract_fields if name == "experiment.extract_performance" else None
            self._replace_everywhere(
                module, attr, lambda fn, n=name, f=fields_of: self._function(n, fn, f)
            )
        for op in OPS:
            self._replace_everywhere(
                "perfid.neural.ops", op,
                lambda fn, n=f"neural.ops.{op}": self._op(n, fn),
            )
        for name, (module, attr) in COUNTERS.items():
            self._replace_everywhere(
                module, attr, lambda fn, n=name: self._counter(n, fn)
            )
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            wrapper = (
                self._forward(original) if name == "neural.forward"
                else self._function(name, original)
            )
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name; raises if any name is not the original."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        changed = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, value in self._before
            if vars(owner).get(attr) is not value
        ]
        if changed:
            raise RuntimeError(f"names not restored after tracing: {changed}")

    # -- output ------------------------------------------------------------

    def take(self, run_id: str) -> list[dict]:
        """Hand over what was recorded and start a new run with ``run_id``.

        Parent indices in the returned spans count from its first span.
        """
        if self._stack:
            raise RuntimeError("cannot end a run while a span is open")
        out = self.spans
        out += [{"count": name, "run": self.run_id, "n": n}
                for name, n in sorted(self.counts.items())]
        self.spans = []
        self.counts = Counter()
        self.run_id = run_id
        return out


def bindings() -> list[tuple[object, str, object]]:
    """(owner, name, object) for every name in the perfid modules and the
    classes whose methods the tracer patches."""
    out = [(mod, key, value) for mod in _perfid_modules()
           for key, value in vars(mod).items()]
    for module, cls_name, _ in METHODS.values():
        cls = getattr(importlib.import_module(module), cls_name)
        out += [(cls, key, value) for key, value in vars(cls).items()]
    return out


def _extract_fields(args, kwargs) -> dict:
    record = args[0] if args else kwargs["record"]
    root = Path(args[1] if len(args) > 1 else kwargs["root"]).resolve()
    return {"perf": str(root / record.perf_midi), "score": str(root / record.score_midi)}


# ---------------------------------------------------------------------------
# analysis


def write_records(path: Path, records: list[dict]) -> None:
    with open(path, "a") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_records(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Duration minus the children's durations, per span of one run.

    A run is single-threaded, so a span's children never overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def cycle_summary(records: list[dict]) -> dict:
    """Per-name totals for one traced cycle, which may span several runs."""
    by_run: dict[str, list[dict]] = defaultdict(list)
    counts: Counter = Counter()
    for rec in records:
        if "count" in rec:
            counts[rec["count"]] += rec["n"]
        else:
            by_run[rec["run"]].append(rec)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    extract_keys = []
    for spans in by_run.values():
        for span, own in zip(spans, self_times(spans)):
            name = span["name"]
            dur = span["end"] - span["start"]
            calls[name] += 1
            self_s[name] += own
            total_s[name] += dur
            durations[name].append(dur)
            if name == "experiment.extract_performance":
                extract_keys.append((span["fields"]["perf"], span["fields"]["score"]))
    return {
        "calls": calls,
        "counts": counts,
        "self_s": self_s,
        "total_s": total_s,
        "durations": durations,
        "extract_keys": extract_keys,
    }


def tail(values_ms: list[float]) -> tuple[float, float]:
    """The highest sample with ten samples beyond it, and its percentile.

    Falls back to the median when there are fewer than twenty samples.
    """
    n = len(values_ms)
    if n == 0:
        return 0.0, 0.0
    if n < 20:
        return median(values_ms), 50.0
    k = n - 11
    return sorted(values_ms)[k], 100.0 * (k + 1) / n


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _sha256(path: str, cache: dict) -> str:
    if path not in cache:
        cache[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return cache[path]


def layer_metrics(traced: list[tuple[list[dict], float]], untraced_walls: list[float],
                  setup_records: list[dict]) -> dict[str, float]:
    """Every per-layer metric, from the traced cycles (records, wall seconds).

    Counts and self times are per cycle (the median over traced cycles);
    latency percentiles pool the calls of all traced cycles. A layer that
    does not run in a workload's timed phase reads 0.
    """
    cycles = [cycle_summary(records) for records, _ in traced]
    walls = [wall for _, wall in traced]
    hashes: dict[str, str] = {}
    m: dict[str, float] = {}

    def per_cycle(fn) -> float:
        return median(fn(c) for c in cycles)

    def pooled_ms(name: str) -> list[float]:
        return [1e3 * d for c in cycles for d in c["durations"].get(name, [])]

    def calls(name):
        return per_cycle(lambda c: c["calls"][name])

    def self_s(name):
        return per_cycle(lambda c: c["self_s"].get(name, 0.0))

    def repeat_frac(c) -> float:
        keys = [(_sha256(p, hashes), _sha256(s, hashes)) for p, s in c["extract_keys"]]
        return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0

    def ops_s(op: str, direction: str) -> float:
        return per_cycle(lambda c: c["total_s"].get(f"neural.ops.{op}.{direction}", 0.0))

    m["midi_io.parse.calls"] = calls("midi_io.parse")
    m["midi_io.parse.ms_p50"] = median(pooled_ms("midi_io.parse"))
    m["midi_io.parse.self_s"] = self_s("midi_io.parse")
    align_ms = pooled_ms("align.align")
    m["align.align.calls"] = calls("align.align")
    m["align.align.ms_p50"] = median(align_ms)
    m["align.align.ms_tail"], m["align.align.ms_tail_pct"] = tail(align_ms)
    m["align.align.samples"] = len(align_ms)
    m["align.align.self_s"] = self_s("align.align")
    m["align.align.share"] = median(
        c["self_s"].get("align.align", 0.0) / w for c, w in zip(cycles, walls))
    m["align.dp_passes_per_call"] = per_cycle(
        lambda c: c["counts"]["align.dp_pass"] / max(1, c["calls"]["align.align"]))
    m["features.assemble.ms_p50"] = median(pooled_ms("features.assemble"))
    m["features.assemble.self_s"] = self_s("features.assemble")
    m["experiment.extract_performance.calls"] = calls("experiment.extract_performance")
    m["experiment.repeat_extract_frac"] = per_cycle(repeat_frac)
    for fn in ("extract_corpus", "build_split_sets", "train", "evaluate"):
        m[f"experiment.{fn}.self_s"] = self_s(f"experiment.{fn}")
    forward_ms = pooled_ms("neural.forward")
    m["neural.steps"] = calls("neural.adam")
    m["neural.forward.ms_p50"] = median(forward_ms)
    m["neural.forward.ms_tail"], m["neural.forward.ms_tail_pct"] = tail(forward_ms)
    m["neural.forward.samples"] = len(forward_ms)
    m["neural.backward.ms_p50"] = median(pooled_ms("neural.backward"))
    m["neural.adam.ms_p50"] = median(pooled_ms("neural.adam"))
    m["neural.predict.calls"] = calls("neural.predict")
    m["neural.predict.ms_p50"] = median(pooled_ms("neural.predict"))
    for op in OPS:
        m[f"neural.ops.{op}.fwd_s"] = ops_s(op, "fwd")
        m[f"neural.ops.{op}.bwd_s"] = ops_s(op, "bwd")
    m["dataset.synth_generate.s"] = median(
        r["end"] - r["start"] for r in setup_records
        if r.get("name") == "dataset.synth_generate")
    m["cli.self_s"] = self_s("cli")
    traced_wall, untraced_wall = median(walls), median(untraced_walls)
    m["trace.traced_wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return m


def largest_self(traced: list[tuple[list[dict], float]]) -> list[tuple[str, float]]:
    """Span names by median self time per cycle, op forward and backward summed."""
    cycles = [cycle_summary(records) for records, _ in traced]
    names = {n for c in cycles for n in c["self_s"]}
    rows = {}
    for name in names:
        key = name.rsplit(".", 1)[0] if name.startswith("neural.ops.") else name
        rows[key] = rows.get(key, 0.0) + median(c["self_s"].get(name, 0.0) for c in cycles)
    return sorted(rows.items(), key=lambda kv: -kv[1])
