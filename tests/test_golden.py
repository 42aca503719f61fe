"""Pinned digests of a small synthetic corpus and of its feature files.

Reruns within one checkout are compared elsewhere; these digests are the
check that fails when a change to the note representation, the MIDI
writer, the alignment or the features alters a single output byte.
Update them only for a change that means to alter outputs, and say so.
"""

import hashlib
import json

from helpers import tree_hashes
from perfid import dataset, features
from perfid.experiment import pipeline

CORPUS_SHA256 = "31dd582ea928a3269a97362861627410fba1f4f69b81ab1a6a1c2e74184fecbf"
FEATURES_SHA256 = "8cca1b46e811a612759790ce819e632c18bce7ee6c6d1d7e6b12575e9dacd8b5"


def tree_digest(root) -> str:
    return hashlib.sha256(json.dumps(tree_hashes(root), sort_keys=True).encode()).hexdigest()


def test_corpus_and_feature_bytes_are_pinned(tmp_path):
    # 2 styles x 2 pieces x 2 takes of 20-30 notes: about 200 performance notes
    corpus, out = tmp_path / "corpus", tmp_path / "features"
    records = dataset.synth_generate(dataset.default_styles(2), n_pieces=2, perf_per_cell=2,
                                     seed=5, out_dir=corpus, length_range=(20, 30))
    out.mkdir()
    for rec_id, matrix in pipeline.extract_corpus(records, corpus).items():
        features.save_features(matrix, out / f"{rec_id}.f32")
    assert tree_digest(corpus) == CORPUS_SHA256
    assert tree_digest(out) == FEATURES_SHA256
