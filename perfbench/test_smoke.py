"""Smoke test of the benchmark at tiny corpus sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload prints each metric named in BENCHMARK.json
with its unit, traced and untraced, and that tracing leaves every
wrapped perfid function as the original object afterwards.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / "smoke"


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1]
             if line.startswith("  ")}
    for m in wanted:
        assert table.get(m["name"]) == m["unit"], m["name"]


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("extract-long", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracing_restores_every_wrapped_name():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import perfid.align
    import perfid.cli
    import perfid.neural
    import perfid.neural.ops
    from perfid import dataset
    from perfid.experiment import pipeline, training
    from perfid.neural.model import PianistConvNet
    from perfid.neural.tensor import Tensor

    import tracer

    def names():
        return {
            "perfid.neural.ops.conv1d": perfid.neural.ops.conv1d,
            "perfid.neural.conv1d": perfid.neural.conv1d,
            "perfid.neural.ops.batchnorm1d": perfid.neural.ops.batchnorm1d,
            "perfid.align.align": perfid.align.align,
            "perfid.align._dp_match": perfid.align._dp_match,
            "perfid.experiment.pipeline.align": pipeline.align,
            "perfid.experiment.training.train": training.train,
            "perfid.cli.evaluate": perfid.cli.evaluate,
            "perfid.cli.main": perfid.cli.main,
            "perfid.dataset.synth_generate": dataset.synth_generate,
            "PianistConvNet.forward": PianistConvNet.__dict__["forward"],
            "Tensor.backward": Tensor.__dict__["backward"],
        }

    before = names()
    corpus = SCRATCH / "trace"
    shutil.rmtree(corpus, ignore_errors=True)
    t = tracer.Tracer("smoke")
    t.install()
    try:
        assert all(names()[k] is not v for k, v in before.items())
        records = dataset.synth_generate(
            dataset.default_styles(2), 2, 2, 1, corpus, length_range=(130, 130))
        matrices = pipeline.extract_corpus(records, corpus)
        sets = pipeline.build_split_sets(matrices, dataset.split(records, 7))
        config = training.TrainConfig(
            epochs=1, segment_length=50, model=perfid.neural.desk_config(13, 2))
        training.train(config, sets)
    finally:
        t.uninstall()
        shutil.rmtree(corpus, ignore_errors=True)
    after = names()
    assert all(after[k] is v for k, v in before.items())
    spans = {r["name"] for r in t.take("done") if "name" in r}
    assert {"align.align", "neural.ops.conv1d.fwd", "neural.ops.conv1d.bwd",
            "neural.backward", "experiment.train"} <= spans
