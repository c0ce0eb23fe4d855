"""Property tests of the other readers: a valid ranked-list file, training
set or parameter file (with its ``.meta.json``), with bytes flipped, cut
off or inserted, either loads or fails with an artifact error, never with
another exception."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from gaitrerank.baseline import BaselineConfig, init_baseline, load_baseline, save_baseline
from gaitrerank.errors import ArtifactError
from gaitrerank.feature_store import FeatureSet
from gaitrerank.ranking import rank_all, read_ranked_lists, write_ranked_lists
from gaitrerank.reranker import RerankerConfig, init_weights, load_checkpoint, save_checkpoint
from gaitrerank.training import build_training_set, read_training_set, write_training_set

from conftest import make_maps
from test_feature_store_fuzz import EDIT, _apply

# JSON tokens inserted whole, so that mutations reach the record checks
# and not only the UTF-8 and JSON syntax ones
TOKENS = [b"[", b"]", b"{", b"}", b",", b":", b'"', b"-", b"0", b"1.5", b"true", b"null",
          b"NaN", b"-Infinity", b"1e999", b"9" * 400]
JSON_EDIT = st.one_of(EDIT, st.tuples(st.just("insert"), st.integers(0, 1 << 16),
                                      st.sampled_from(TOKENS)))
FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    fs = FeatureSet.from_entries(make_maps(3, 2, 2, 3, seed=4))
    write_ranked_lists(rank_all(fs, fs, k=3), root / "lists.jsonl")
    write_training_set(build_training_set(fs, v=3), root / "train.jsonl")
    cfg = RerankerConfig(s=2, d=3, num_classes=3, heads=1, hidden=2, mlp_hidden=2)
    save_checkpoint(init_weights(cfg, seed=0), root / "model.cgrk", metadata={"run": 1})
    save_baseline(init_baseline(BaselineConfig(s=2, d=3, hidden=2), seed=0),
                  root / "model.cgbl", metadata={"run": 1})
    return {f.name: f.read_bytes() for f in root.iterdir()}


def _mutated(tmp_path, valid_files, name, edits):
    path = tmp_path / name
    blob = valid_files[name]
    for edit in edits:
        blob = _apply(blob, edit)
    path.write_bytes(blob)
    return path


@FUZZ
@given(edits=st.lists(JSON_EDIT, min_size=1, max_size=3))
def test_mutated_ranked_lists_load_valid_or_raise(tmp_path, valid_files, edits):
    path = _mutated(tmp_path, valid_files, "lists.jsonl", edits)
    try:
        lists = read_ranked_lists(path)
    except ArtifactError:
        return
    for rl in lists:
        assert isinstance(rl.probe_id, str) and all(isinstance(c, str) for c in rl.ids())
        dists = rl.distances()
        assert all(type(d) is float and math.isfinite(d) for d in dists)
        assert dists == sorted(dists) and len(set(rl.ids())) == len(rl)


@FUZZ
@given(edits=st.lists(JSON_EDIT, min_size=1, max_size=3))
def test_mutated_training_set_loads_valid_or_raises(tmp_path, valid_files, edits):
    path = _mutated(tmp_path, valid_files, "train.jsonl", edits)
    try:
        ts = read_training_set(path)
    except ArtifactError:
        return
    assert type(ts.v) is int and ts.v >= 2
    for e in ts.entries:
        assert isinstance(e.probe_id, str) and all(isinstance(c, str) for c in e.candidate_ids)
        assert all(type(d) is float and math.isfinite(d) for d in e.distances)
        assert all(type(p) is bool for p in e.positive)
        assert len(e.candidate_ids) == len(e.distances) == len(e.positive)
        assert len(set(e.candidate_ids)) == len(e.candidate_ids)
        assert e.probe_id not in e.candidate_ids
        assert list(e.distances) == sorted(e.distances)


@FUZZ
@given(
    fmt=st.sampled_from([("model.cgrk", load_checkpoint), ("model.cgbl", load_baseline)]),
    target=st.sampled_from(["parameters", "meta", "both"]),
    edits=st.lists(JSON_EDIT, min_size=1, max_size=3),
)
def test_mutated_parameter_file_loads_or_raises(tmp_path, valid_files, fmt, target, edits):
    name, load = fmt
    meta = name + ".meta.json"
    path = tmp_path / name
    path.write_bytes(valid_files[name])
    (tmp_path / meta).write_bytes(valid_files[meta])
    for changed in {"parameters": [name], "meta": [meta], "both": [name, meta]}[target]:
        _mutated(tmp_path, valid_files, changed, edits)
    try:
        weights, cfg, _ = load(path)
    except ArtifactError:
        return
    assert weights.config == cfg
