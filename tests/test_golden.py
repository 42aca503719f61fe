"""Pinned digests of a small synthetic corpus, its feature files and a
desk model trained and evaluated on it.

Reruns within one checkout are compared elsewhere; these digests are the
check that fails when a change to the note representation, the MIDI
writer, the alignment, the features or the network (its parameter order,
its init draws, its checkpoint layout) alters a single output byte.
Update them only for a change that means to alter outputs, and say so.
"""

import hashlib
import json

from helpers import tree_hashes
from perfid import dataset, features
from perfid.cli import main
from perfid.experiment import pipeline

CORPUS_SHA256 = "31dd582ea928a3269a97362861627410fba1f4f69b81ab1a6a1c2e74184fecbf"
FEATURES_SHA256 = "8cca1b46e811a612759790ce819e632c18bce7ee6c6d1d7e6b12575e9dacd8b5"

# 2-epoch desk train at --length 10, then eval at both levels
TRAIN_SHA256 = {
    "checkpoint.bin": "a60b3af04ff273b1d6285b0852dc78a36051406662110e438a973d8966bb9f7f",
    "epochs.csv": "3fd3224d83c993bf235e345ee145f1c07419b7aad34b134523d9e7c8bc63bc02",
}
EVAL_SHA256 = {
    "segment": {
        "metrics.json": "77713c9b6855859dfcbee61afe8321056f5afb1c19c5eb2f206d80524e06d7c7",
        "predictions.csv": "10c4bab3567815128316fbc90df7c7268f56a308102b81634d9fcf646bd84b79",
    },
    "piece": {
        "metrics.json": "12de787e115e6d9447be622d12dde427f8bb423516fd91ed450ef2037a8ff1d7",
        "predictions.csv": "d7bb343972a1eb7fd2c814f8c6485cbbf7fd803a86fcdd3a37ce2981a6d32466",
    },
}


def tree_digest(root) -> str:
    return hashlib.sha256(json.dumps(tree_hashes(root), sort_keys=True).encode()).hexdigest()


def file_digests(root, names) -> dict:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def synth_corpus(corpus):
    # 2 styles x 2 pieces x 2 takes of 20-30 notes: about 200 performance notes
    return dataset.synth_generate(dataset.default_styles(2), n_pieces=2, perf_per_cell=2,
                                  seed=5, out_dir=corpus, length_range=(20, 30))


def test_corpus_and_feature_bytes_are_pinned(tmp_path):
    corpus, out = tmp_path / "corpus", tmp_path / "features"
    records = synth_corpus(corpus)
    out.mkdir()
    for rec_id, matrix in pipeline.extract_corpus(records, corpus).items():
        features.save_features(matrix, out / f"{rec_id}.f32")
    assert tree_digest(corpus) == CORPUS_SHA256
    assert tree_digest(out) == FEATURES_SHA256


def test_desk_train_and_eval_bytes_are_pinned(tmp_path):
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    synth_corpus(corpus)
    argv = ["train", "--corpus", str(corpus), "--out", str(run),
            "--epochs", "2", "--length", "10", "--seed", "1"]
    assert main(argv) == 0
    assert file_digests(run, TRAIN_SHA256) == TRAIN_SHA256
    for level, pinned in EVAL_SHA256.items():
        out = tmp_path / level
        assert main(["eval", "--corpus", str(corpus), "--checkpoint", str(run / "checkpoint.bin"),
                     "--out", str(out), "--level", level]) == 0
        assert file_digests(out, pinned) == pinned, level
