"""Pinned digests of two small synthetic corpora (easy and hard styles),
the feature files of each, a desk model trained and evaluated on the easy
one, and the manifests the commands write.

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
# hard styles at a 3 % extra rate: 51 wrong-note draws over 8 takes of 300 notes
HARD_CORPUS_SHA256 = "2aeb0c273604e11a67777d8409fe9689e56fa4851d743ef73e756352c8d1fc70"
# its feature files: extracting them runs 16 banded DP passes
HARD_FEATURES_SHA256 = "818316ab0f22bb7522fc3d0a22abba8a4f1944ef0eda3f7430a95df6c25acea2"

# 2-epoch desk train at --length 10, then eval at both levels
TRAIN_SHA256 = {
    "checkpoint.bin": "35bee6adaf1882ffe1cb177ca4a095d57c0467b64e3981de132a02ecb821f8fd",
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

# manifest of each command, run with relative paths on the pinned corpus
MANIFEST_SHA256 = {
    "synth": "cdf0d3d6271cd980cda0f5b7f59b1b023d5052f764b45dc165efe4bf16d098bb",
    "align": "4002dabe667b897dbca7afa095e0b7ff3a006f6a0e899e3cb21ec003027c2b37",
    "extract": "30462b41fc9f191fe1222b8168c1875b0602c5f09d9bf4f78d862cb80c2166e2",
    "split": "97d91c5def33c78db8834338e34d0ac5780b7f058964a6ae843e75492fe6312a",
    "train": "8901a26e9d4a116a7ac491f4f38645dc7817b36c9e3754bf0f6703437fc25cb8",
    "train --split-csv": "3dc84dcd0beea5fdf271640887d821f8009cb245c1e3433c8242e1a33d1bce5a",
}

# `perfid align` of each hard 2,600-note take against its score: TSV digest
# and summary line
ALIGN_PINS = {
    "pianist_00": ("9e42d711c3f9c3fd4cafff789ed1741a385fd02b3fc39ad07b7fb48ca91fd981",
                   "matched 2526, missing 74, extra 55, info_loss 2.13%, seed consensus, "
                   "dp_passes 2"),
    "pianist_01": ("fc8b60c886e6edb1b050f60afd3f74b00feaeca5319f01413729685ca16839b2",
                   "matched 2514, missing 86, extra 75, info_loss 2.90%, seed consensus, "
                   "dp_passes 2"),
}


def tree_digest(root, skip=()) -> str:
    hashes = {k: v for k, v in tree_hashes(root).items() if k not in skip}
    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


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


def synth_hard_corpus(corpus):
    # 2 hard styles x 2 pieces x 2 takes of 300 notes
    return dataset.synth_generate(dataset.hard_styles(2), n_pieces=2, perf_per_cell=2,
                                  seed=5, out_dir=corpus, length_range=(300, 300))


def test_hard_style_corpus_bytes_are_pinned(tmp_path):
    synth_hard_corpus(tmp_path)
    assert tree_digest(tmp_path) == HARD_CORPUS_SHA256


def test_hard_style_feature_bytes_are_pinned(tmp_path):
    # the wrong notes make align run DP passes where clean takes certify
    corpus, out = tmp_path / "corpus", tmp_path / "features"
    records = synth_hard_corpus(corpus)
    out.mkdir()
    for rec_id, matrix in pipeline.extract_corpus(records, corpus).items():
        features.save_features(matrix, out / f"{rec_id}.f32")
    assert tree_digest(corpus) == HARD_CORPUS_SHA256
    assert tree_digest(out) == HARD_FEATURES_SHA256


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


def test_manifest_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = {
        "synth": (["synth", "--out", "corpus", "--pianists", "2", "--pieces", "2",
                   "--per-cell", "2", "--seed", "5", "--length-min", "20",
                   "--length-max", "30"], "corpus/manifest.json"),
        "align": (["align", "--perf", "corpus/corpus/pianist_00/piece_000__take0.mid",
                   "--score", "corpus/scores/piece_000.mid", "--out", "pairs.tsv"],
                  "pairs.tsv.manifest.json"),
        "extract": (["extract", "--corpus", "corpus", "--out", "features"],
                    "features/manifest.json"),
        "split": (["split", "--registry", "corpus/registry.json", "--out", "splits.csv"],
                  "splits.csv.manifest.json"),
        "train": (["train", "--corpus", "corpus", "--out", "run", "--epochs", "1",
                   "--length", "10"], "run/manifest.json"),
        "train --split-csv": (["train", "--corpus", "corpus", "--split-csv", "splits.csv",
                               "--out", "run_csv", "--epochs", "1", "--length", "10"],
                              "run_csv/manifest.json"),
    }
    digests = {}
    for name, (argv, manifest) in runs.items():
        assert main(argv) == 0, name
        digests[name] = hashlib.sha256((tmp_path / manifest).read_bytes()).hexdigest()
    assert tree_digest(tmp_path / "corpus", skip={"manifest.json"}) == CORPUS_SHA256
    assert digests == MANIFEST_SHA256


def test_align_table_and_summary_are_pinned(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "3", "--pianists", "2",
                 "--pieces", "1", "--per-cell", "1", "--length-min", "2600",
                 "--length-max", "2600", "--difficulty", "hard"]) == 0
    capsys.readouterr()
    pins = {}
    for pianist in ALIGN_PINS:
        out = tmp_path / f"{pianist}.tsv"
        assert main(["align", "--perf", str(corpus / "corpus" / pianist / "piece_000__take0.mid"),
                     "--score", str(corpus / "scores" / "piece_000.mid"),
                     "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        pins[pianist] = (digest, capsys.readouterr().out.strip())
    assert pins == ALIGN_PINS
