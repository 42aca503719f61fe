"""Acceptance gate: ten checks with pinned tolerances and runtime budgets.

Each criterion is one test, so ``pytest -v`` reports one pass/fail line
per criterion. The synthetic corpus, its feature extraction, and the
repeated training runs are shared through module fixtures; the budget
assertions charge each criterion for the stages it actually consumed.
"""

import math
import shutil
import time
from collections import Counter

import numpy as np
import pytest

from helpers import (
    alignment_cost,
    check_gradients,
    deviation_features,
    leaf,
    min_alignment_cost,
    note_list,
    notes_of,
    pairs_of,
    random_alignment_instance,
    tree_hashes,
    unmatched,
    weighted_sum,
)
from perfid import dataset, features
from perfid.align import Alignment, align, info_loss
from perfid.cli import main as cli_main
from perfid.dataset import PerformanceRecord
from perfid.experiment import pipeline, studies, training
from perfid.neural import (
    ModelConfig,
    PianistConvNet,
    batchnorm1d,
    conv1d,
    dense,
    dropout,
    masked_global_avg_pool,
    param_count,
    softmax_cross_entropy,
)

TIMINGS: dict = {}


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# shared end-to-end fixtures (criteria 7, 8)


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """The 6-style benchmark corpus: 40 pieces, 3 performances per cell."""
    root = tmp_path_factory.mktemp("acceptance") / "corpus"
    t0 = time.perf_counter()
    records = dataset.synth_generate(
        dataset.default_styles(6), 40, 3, 7, root, length_range=(1100, 1500)
    )
    TIMINGS["gen"] = time.perf_counter() - t0
    assignment = dataset.split(records, 7)
    t0 = time.perf_counter()
    matrices = pipeline.extract_corpus(records, root)
    TIMINGS["extract"] = time.perf_counter() - t0
    return {"records": records, "assignment": assignment, "matrices": matrices}


def _three_seed_runs(shipped, combo):
    sets = pipeline.build_split_sets(
        shipped["matrices"], shipped["assignment"], combo
    )
    config = studies.profile_config("desk", segment_length=1000)
    t0 = time.perf_counter()
    agg = training.repeat_runs(config, [1, 2, 3], sets)
    TIMINGS[combo] = time.perf_counter() - t0
    return agg


@pytest.fixture(scope="module")
def c5_agg(shipped):
    return _three_seed_runs(shipped, "C5")


@pytest.fixture(scope="module")
def c4_agg(shipped):
    return _three_seed_runs(shipped, "C4")


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_information_loss_oracle():
    start = time.perf_counter()
    def consistent(n_p, n_e):
        return Alignment(np.arange(n_e, n_p), np.arange(n_p - n_e), n_p, n_p - n_e)

    assert info_loss(consistent(100, 15)) == 15.0

    rng = np.random.default_rng(10)
    for _ in range(1000):
        n_p = int(rng.integers(1, 4000))
        n_e = int(rng.integers(0, n_p + 1))
        assert abs(info_loss(consistent(n_p, n_e)) - (n_e / n_p) * 100.0) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_02_split_branch_postconditions():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(500):
        sizes = [int(s) for s in rng.integers(1, 26, size=int(rng.integers(1, 9)))]
        records = []
        for g, size in enumerate(sizes):
            records += [
                PerformanceRecord(
                    id=f"r{g}_{k}",
                    pianist=f"p{g % 3}",
                    composition=f"w{g}",
                    perf_midi=f"r{g}_{k}.mid",
                    score_midi=f"w{g}.mid",
                )
                for k in range(size)
            ]
        assignment = dataset.split(records, int(rng.integers(0, 2**31)))

        assert set(assignment.assignment) == {r.id for r in records}
        assert set(assignment.assignment.values()) <= set(dataset.SPLITS)

        for g, size in enumerate(sizes):
            counts = Counter(
                assignment[f"r{g}_{k}"] for k in range(size)
            )
            train, valid, test = (
                counts["Train"], counts["Valid"], counts["Test"]
            )
            if size <= 1:
                assert (train, valid, test) == (size, 0, 0)
            elif size == 2:
                assert train == 1 and valid + test == 1
            elif size <= 9:
                assert valid == 1 and test == 1 and train == size - 2
            else:
                want_train = _round_half_up(0.8 * size)
                want_valid = _round_half_up((size - want_train) / 2)
                want_test = size - want_train - want_valid
                assert (train, valid, test) == (want_train, want_valid, want_test)
    assert time.perf_counter() - start < 10.0


def test_criterion_03_alignment_matches_exhaustive_minimum():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    for _ in range(200):
        perf, score = random_alignment_instance(rng, max_notes=10)
        result = align(perf, score)
        a, b = result.time_map
        got = alignment_cost(result, perf, score)
        want = min_alignment_cost(perf, score, a, b)
        assert got == pytest.approx(want, abs=1e-9)

    for n in (1, 2, 7, 40):
        same = note_list([(60 + k % 12, 0.35 * k) for k in range(n)])
        result = align(same, same)
        assert unmatched(result) == ([], [])
        assert len(pairs_of(result)) == n
    assert time.perf_counter() - start < 30.0


def test_criterion_04_feature_contracts():
    start = time.perf_counter()
    counts = {c: len(features.COMBINATIONS[c]) for c in sorted(features.COMBINATIONS)}
    assert counts == {"C1": 7, "C2": 6, "C3": 6, "C4": 3, "C5": 13}

    same = note_list([(60 + k % 12, 0.4 * k) for k in range(50)])
    pairs = list(zip(notes_of(same), notes_of(same)))
    assert np.all(deviation_features(pairs) == 0.0)

    rng = np.random.default_rng(13)
    schema = features.resolve_schema("C4")
    for _ in range(1000):
        n = int(rng.integers(0, 400))
        length = int(rng.integers(2, 60))
        matrix = features.FeatureMatrix(
            schema, rng.standard_normal((n, 3)), "p", "w"
        )
        parts = features.segment(matrix, length)
        assert len(parts) == n // length
        assert all(p.shape == (length, 3) for p in parts)
        if len(parts):
            stacked = parts.reshape(-1, 3)
            assert np.array_equal(stacked, matrix.rows[: stacked.shape[0]])
    assert time.perf_counter() - start < 5.0


def test_criterion_05_gradient_suite_all_layers():
    start = time.perf_counter()
    rng = np.random.default_rng(14)

    for case in range(20):  # conv1d, cycling through strides 1..3
        stride = case % 3 + 1
        b, cin, cout = (int(rng.integers(1, 4)) for _ in range(3))
        length = int(rng.integers(3, 9))
        kernel = int(rng.choice([1, 3, 5]))
        x, w, bias = leaf(rng, b, cin, length), leaf(rng, cout, cin, kernel), leaf(rng, cout)
        proj = rng.standard_normal((b, cout, -(-length // stride)))
        check_gradients(
            lambda x=x, w=w, bias=bias, s=stride, p=proj: weighted_sum(
                conv1d(x, w, bias, stride=s), p
            ),
            [x, w, bias],
        )

    for _ in range(20):  # batchnorm in training mode, masked
        b = int(rng.integers(2, 5))
        c = int(rng.integers(1, 4))
        length = int(rng.integers(2, 8))
        x, gamma, beta = leaf(rng, b, c, length), leaf(rng, c), leaf(rng, c)
        lengths = rng.integers(1, length + 1, size=b)
        proj = rng.standard_normal((b, c, length))

        def fn(x=x, gamma=gamma, beta=beta, lengths=lengths, proj=proj, c=c):
            out = batchnorm1d(
                x, gamma, beta, np.zeros(c), np.ones(c),
                training=True, lengths=lengths,
            )
            return weighted_sum(out, proj)

        check_gradients(fn, [x, gamma, beta])

    for _ in range(20):  # dense
        b, fin, fout = (int(rng.integers(1, 6)) for _ in range(3))
        x, w, bias = leaf(rng, b, fin), leaf(rng, fin, fout), leaf(rng, fout)
        proj = rng.standard_normal((b, fout))
        check_gradients(
            lambda x=x, w=w, bias=bias, p=proj: weighted_sum(dense(x, w, bias), p),
            [x, w, bias],
        )

    for _ in range(20):  # masked pooling
        b, c = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        length = int(rng.integers(2, 9))
        x = leaf(rng, b, c, length)
        lengths = rng.integers(1, length + 1, size=b)
        proj = rng.standard_normal((b, c))
        check_gradients(
            lambda x=x, l=lengths, p=proj: weighted_sum(
                masked_global_avg_pool(x, l), p
            ),
            [x],
        )

    for _ in range(20):  # softmax cross-entropy
        b, classes = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        logits = leaf(rng, b, classes)
        labels = rng.integers(0, classes, size=b)
        check_gradients(
            lambda lg=logits, lb=labels: softmax_cross_entropy(lg, lb), [logits]
        )

    for _ in range(20):  # disabled dropout passes gradients through
        b, f = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        x = leaf(rng, b, f)
        proj = rng.standard_normal((b, f))
        check_gradients(
            lambda x=x, p=proj: weighted_sum(
                dropout(x, 0.4, np.random.default_rng(0), training=False), p
            ),
            [x],
        )
    assert time.perf_counter() - start < 120.0


def test_criterion_06_parameter_count_band():
    start = time.perf_counter()
    config = ModelConfig(in_features=13, n_classes=6)
    n = param_count(config)
    assert n == 5_757_190
    assert 5_500_000 <= n <= 6_800_000

    model = PianistConvNet(config, seed=0)
    assert sum(p.data.size for p in model.parameters()) == n
    assert time.perf_counter() - start < 1.0


def test_criterion_07_synthetic_corpus_accuracy(shipped, c5_agg):
    records = shipped["records"]
    assert len({r.composition for r in records}) == 40
    assert len({r.pianist for r in records}) == 6
    cells = Counter((r.pianist, r.composition) for r in records)
    assert set(cells.values()) == {3}

    seg = c5_agg["mean"]["segment_accuracy"]
    piece = c5_agg["mean"]["piece_accuracy"]
    assert seg >= 0.80
    assert piece >= seg - 0.05

    total = TIMINGS["gen"] + TIMINGS["extract"] + TIMINGS["C5"]
    assert total <= 1200.0


def test_criterion_08_feature_ablation_direction(c5_agg, c4_agg):
    assert len(c5_agg["runs"]) == 3 and len(c4_agg["runs"]) == 3
    assert (
        c5_agg["mean"]["segment_accuracy"] >= c4_agg["mean"]["segment_accuracy"]
    )


def test_criterion_09_split_sensitivity_shrinks_with_corpus(tmp_path_factory):
    start = time.perf_counter()
    base = tmp_path_factory.mktemp("splitsens")
    small, large = base / "small", base / "large"
    dataset.synth_generate(
        dataset.hard_styles(6), 16, 2, 21, small, length_range=(600, 900)
    )
    dataset.synth_generate(
        dataset.hard_styles(6), 40, 2, 22, large, length_range=(600, 900)
    )

    config = studies.profile_config("desk", segment_length=500)
    result = studies.study3(
        small, large, base / "out",
        split_seeds=(101, 102, 103, 104, 105), config=config,
    )
    assert result["A"]["n_performances"] == 192
    assert result["B"]["n_performances"] == 480  # 2.5x the small corpus
    assert result["B"]["std"] < result["A"]["std"]
    assert time.perf_counter() - start <= 2700.0


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    corpus, run, ev = tmp_path / "corpus", tmp_path / "run", tmp_path / "eval"
    commands = [
        [
            "synth", "--out", str(corpus), "--pianists", "2", "--pieces", "2",
            "--per-cell", "3", "--length-min", "40", "--length-max", "60",
            "--seed", "5",
        ],
        [
            "train", "--corpus", str(corpus), "--out", str(run),
            "--epochs", "2", "--length", "full", "--seed", "1",
        ],
        [
            "eval", "--corpus", str(corpus),
            "--checkpoint", str(run / "checkpoint.bin"),
            "--out", str(ev), "--level", "piece",
        ],
    ]

    snapshots = []
    for _ in range(2):
        for argv in commands:
            assert cli_main(argv) == 0
        snapshots.append(
            {name: tree_hashes(d) for name, d in
             (("corpus", corpus), ("run", run), ("eval", ev))}
        )
        for d in (corpus, run, ev):
            shutil.rmtree(d)
    assert snapshots[0] == snapshots[1]
