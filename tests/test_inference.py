import numpy as np
import pytest

from gaitrerank import inference
from gaitrerank.baseline import (
    BaselineConfig,
    baseline_rerank,
    baseline_scores,
    bce_forward_backward,
    init_baseline,
)
from gaitrerank.errors import DataError, MissingIdError, ShapeError
from gaitrerank.feature_store import FeatureMap, FeatureSet
from gaitrerank.inference import rerank, rerank_all, splice_reordered
from gaitrerank.ranking import RankedList, rank_all, rank_gallery
from gaitrerank.reranker import (
    RerankerConfig,
    TripletBatch,
    attended_pair,
    batch_loss,
    forward_backward,
    init_weights,
    pair_distances,
    rerank_distance,
)

from conftest import make_maps


@pytest.fixture(scope="module")
def setup():
    entries = make_maps(8, 3, 4, 6, seed=19)
    fs = FeatureSet.from_entries(entries)
    cfg = RerankerConfig(s=4, d=6, num_classes=8, heads=2, hidden=8, mlp_hidden=8)
    weights = init_weights(cfg, seed=2)
    return fs, weights


# ---------------------------------------------------------------------------
# splice_reordered
# ---------------------------------------------------------------------------


def li(*pairs):
    return RankedList("p-00", tuple(pairs))


def test_splice_identity_order_returns_input_object():
    initial = li(("a", 0.1), ("b", 0.2), ("c", 0.9))
    out = splice_reordered(initial, 2, [0.5, 0.7])
    assert out is initial


def test_splice_reorders_and_rescales_into_tail_bound():
    initial = li(("a", 0.1), ("b", 0.2), ("c", 0.3), ("t", 2.0))
    out = splice_reordered(initial, 3, [9.0, 3.0, 6.0])
    assert out.ids() == ["b", "c", "a", "t"]
    # prefix affinely mapped from [3, 9] onto [0, 2.0]; tail untouched
    assert out.distances() == [0.0, 1.0, 2.0, 2.0]
    assert out.distances() == sorted(out.distances())


def test_splice_all_equal_values_keep_id_tiebreak_and_zero_prefix():
    initial = li(("b", 0.1), ("a", 0.2), ("t", 1.5))
    out = splice_reordered(initial, 2, [4.0, 4.0])
    assert out.ids() == ["a", "b", "t"]
    assert out.distances()[:2] == [0.0, 0.0]


def test_splice_without_tail_keeps_raw_values():
    initial = li(("a", 0.1), ("b", 0.2))
    out = splice_reordered(initial, 2, [7.0, 3.0])
    assert out.ids() == ["b", "a"]
    assert out.distances() == [3.0, 7.0]


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------


def test_rerank_guards(setup):
    fs, weights = setup
    probe = fs.entries[0]
    initial = rank_gallery(probe, fs, k=None)
    with pytest.raises(DataError):
        rerank(probe, initial, fs, weights, k=0)
    with pytest.raises(DataError):
        rerank(fs.entries[1], initial, fs, weights)
    with pytest.raises(DataError):
        rerank(probe, RankedList(probe.sequence_id, ()), fs, weights)
    with pytest.raises(MissingIdError):
        rerank(
            probe,
            RankedList(probe.sequence_id, (("ghost-00", 0.5),)),
            fs,
            weights,
        )


def test_rerank_preserves_id_sets_and_tail(setup):
    fs, weights = setup
    k = 5
    for probe in fs.entries[:6]:
        initial = rank_gallery(probe, fs, k=None)
        out = rerank(probe, initial, fs, weights, k=k)
        assert set(out.ids()[:k]) == set(initial.ids()[:k])
        assert out.items[k:] == initial.items[k:]
        assert out.probe_id == initial.probe_id
        d = out.distances()
        assert d == sorted(d)


def test_rerank_orders_prefix_by_attended_distance(setup):
    fs, weights = setup
    probe = fs.entries[0]
    initial = rank_gallery(probe, fs, k=None)
    k = 6
    out = rerank(probe, initial, fs, weights, k=k)
    cand = np.stack([fs.entries[fs.row_of[cid]].strips for cid in initial.ids()[:k]])
    dists = pair_distances(probe.strips, cand, weights)
    want = [cid for _, cid in sorted(zip(dists, initial.ids()[:k]))]
    assert out.ids()[:k] == want


def test_rerank_k_larger_than_list_reranks_everything(setup):
    fs, weights = setup
    probe = fs.entries[2]
    initial = rank_gallery(probe, fs, k=4)
    out = rerank(probe, initial, fs, weights, k=100)
    assert set(out.ids()) == set(initial.ids())


def test_rerank_accepts_mapping_features(setup):
    fs, weights = setup
    probe = fs.entries[1]
    initial = rank_gallery(probe, fs, k=None)
    lookup = {e.sequence_id: e.strips for e in fs.entries}
    a = rerank(probe, initial, fs, weights, k=5)
    b = rerank(probe, initial, lookup, weights, k=5)
    assert a == b


def test_zeroed_attention_rerank_is_a_bitwise_no_op(setup):
    """Degenerate weights keep the global ordering, so the exact input
    object comes back: same ids, same distance bytes."""
    fs, _ = setup
    cfg = RerankerConfig(s=4, d=6, num_classes=8, heads=2, hidden=8, mlp_hidden=8)
    zeroed = init_weights(cfg, seed=5).zero_attention()
    for probe in fs.entries:
        initial = rank_gallery(probe, fs, k=None)
        out = rerank(probe, initial, fs, zeroed, k=10)
        assert out is initial


@pytest.mark.parametrize("model", ["reranker", "baseline"])
def test_rerank_all_matches_elementwise_and_reports_latency(setup, model, monkeypatch):
    fs, weights = setup
    one = rerank
    if model == "baseline":
        weights, one = init_baseline(BaselineConfig(s=4, d=6, hidden=8), seed=2), baseline_rerank
    probes = list(fs.entries)
    lists = rank_all(fs, fs, k=None)
    seq, lat = rerank_all(probes, lists, fs, weights, k=5)
    assert len(seq) == len(probes) and len(lat) == len(probes)
    assert all(ms >= 0 for ms in lat)
    for probe, initial, out in zip(probes, lists, seq):
        expected = one(probe, initial, fs, weights, k=5)
        assert out == expected and out.dists.tobytes() == expected.dists.tobytes()

    # one re-rank path serves both models, looked up once per probe
    assert baseline_rerank is inference.rerank
    calls = []

    def counting(probe, *args, **kwargs):
        calls.append(probe.sequence_id)
        return rerank(probe, *args, **kwargs)

    monkeypatch.setattr(inference, "rerank", counting)
    assert rerank_all(probes, lists, fs, weights, k=5)[0] == seq
    assert calls == [p.sequence_id for p in probes]


def test_rerank_all_length_mismatch(setup):
    fs, weights = setup
    lists = rank_all(fs, fs, k=3)
    with pytest.raises(DataError):
        rerank_all(list(fs.entries)[:2], lists, fs, weights)


def test_rerank_all_error_names_probe(setup):
    fs, weights = setup
    probes = [fs.entries[0]]
    bad = [RankedList(fs.entries[0].sequence_id, (("ghost-００", 1.0),))]
    with pytest.raises(MissingIdError, match=fs.entries[0].sequence_id):
        rerank_all(probes, bad, fs, weights)


class _TwoArgError(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


class _FailingLookup(dict):
    def __getitem__(self, key):
        raise _TwoArgError(5, key)


def test_rerank_all_reraises_the_original_exception_with_the_probe(setup):
    fs, weights = setup
    probe = fs.entries[0]
    lists = rank_all([probe], fs, k=3)
    with pytest.raises(_TwoArgError) as info:
        rerank_all([probe], lists, _FailingLookup(), weights)
    assert str(info.value).startswith("5: ")
    assert info.value.__notes__ == [f"probe {probe.sequence_id!r}"]


@pytest.mark.parametrize("model", ["reranker", "baseline"])
def test_rerank_all_takes_a_probe_set_and_builds_no_entries(model):
    fs = FeatureSet.from_entries(make_maps(8, 3, 4, 6, seed=23))
    if model == "reranker":
        weights = init_weights(RerankerConfig(s=4, d=6, num_classes=8, heads=2, hidden=8,
                                              mlp_hidden=8), seed=3)
    else:
        weights = init_baseline(BaselineConfig(s=4, d=6, hidden=8), seed=3)
    # the lists in another order than the set's, one probe twice
    lists = rank_all(fs, fs, k=None)
    lists = lists[::-2] + lists[:1]
    aligned = [FeatureMap(rl.probe_id, "", fs.strips[fs.row_of[rl.probe_id]]) for rl in lists]
    from_set, _ = rerank_all(fs, lists, fs, weights, k=5)
    from_maps, _ = rerank_all(aligned, lists, fs, weights, k=5)
    assert from_set == from_maps
    assert [rl.dists.tobytes() for rl in from_set] == [rl.dists.tobytes() for rl in from_maps]
    assert "entries" not in vars(fs)

    ghost = RankedList("ghost-00", ((fs.sequence_ids[0], 0.5),))
    with pytest.raises(MissingIdError) as info:
        rerank_all(fs, [lists[0], ghost], fs, weights)
    assert str(info.value) == "no probe features for 'ghost-00'"
    assert not getattr(info.value, "__notes__", None)
    assert "entries" not in vars(fs)


# ---------------------------------------------------------------------------
# the one shape rule of both pair models
# ---------------------------------------------------------------------------

GOOD, BAD = (3, 5), (4, 6)


def _initial(n):
    return RankedList("p", tuple((f"c{i}", float(i)) for i in range(n)))


def _gallery(cands, mapping):
    ids = tuple(f"c{i}" for i in range(len(cands)))
    return dict(zip(ids, cands)) if mapping else FeatureSet(cands, ids, ids)


def _batch(fn):
    return lambda w, probe, cands: fn(
        TripletBatch(probe[None], cands[:1], cands[1:2], np.zeros((1, 3), dtype=int)), w, 0.01, 0.1)


# entry point -> (its models, the name a wrong candidate side gets, call)
ENTRY_POINTS = {
    "rerank, mapping": (("reranker", "baseline"), "candidate", lambda w, probe, cands: rerank(
        FeatureMap("p", "p", probe), _initial(len(cands)), _gallery(cands, True), w)),
    "rerank, set": (("reranker", "baseline"), "gallery", lambda w, probe, cands: rerank(
        FeatureMap("p", "p", probe), _initial(len(cands)), _gallery(cands, False), w)),
    "rerank_all, maps": (("reranker", "baseline"), "candidate", lambda w, probe, cands: rerank_all(
        [FeatureMap("p", "p", probe)], [_initial(len(cands))], _gallery(cands, True), w)),
    "rerank_all, set": (("reranker", "baseline"), "gallery", lambda w, probe, cands: rerank_all(
        FeatureSet(probe[None], ("p",), ("p",)), [_initial(len(cands))],
        _gallery(cands, False), w)),
    "pair_distances": (("reranker",), "candidate", lambda w, probe, cands: pair_distances(
        probe, cands, w)),
    "rerank_distance": (("reranker",), "candidate", lambda w, probe, cands: rerank_distance(
        probe, cands[0], w)),
    "attended_pair": (("reranker",), "candidate", lambda w, probe, cands: attended_pair(
        probe, cands[0], w)),
    "baseline_scores": (("baseline",), "candidate", lambda w, probe, cands: baseline_scores(
        probe, cands, w)),
    "bce_forward_backward": (("baseline",), "candidate", lambda w, probe, cands: (
        bce_forward_backward(np.stack([probe] * len(cands)), cands, np.zeros(len(cands)), w))),
    "batch_loss": (("reranker",), None, _batch(batch_loss)),
    "forward_backward": (("reranker",), None, _batch(forward_backward)),
}


@pytest.mark.parametrize("entry, model, fault", [
    (entry, model, fault) for entry, (models, other, _) in ENTRY_POINTS.items()
    for model in models for fault in ("probe", "candidate")[: 2 if other else 1]])
def test_every_entry_point_of_both_models_states_the_one_shape_rule(entry, model, fault):
    """A model of (3, 5) given maps of (4, 6): the probe is named first (a
    triplet batch, one array, as the batch), then a wrong candidate side."""
    _, other, call = ENTRY_POINTS[entry]
    if model == "reranker":
        weights = init_weights(RerankerConfig(s=3, d=5, num_classes=2, heads=1, hidden=4,
                                              mlp_hidden=4), seed=0)
    else:
        weights = init_baseline(BaselineConfig(s=3, d=5, hidden=4), seed=0)
    rng = np.random.default_rng(7)
    probe = rng.standard_normal(BAD if fault == "probe" else GOOD).astype(np.float32)
    cands = rng.standard_normal((3, *BAD)).astype(np.float32)
    what = {"probe": "probe" if other else "batch", "candidate": other}[fault]
    with pytest.raises(ShapeError) as info:
        call(weights, probe, cands)
    assert str(info.value) == f"{what} maps are {BAD}, the model declares {GOOD}"


@pytest.mark.parametrize("model", ["reranker", "baseline"])
def test_a_mapping_gallery_states_the_shape_rule_for_one_odd_candidate(model):
    if model == "reranker":
        weights = init_weights(RerankerConfig(s=3, d=5, num_classes=2, heads=1, hidden=4,
                                              mlp_hidden=4), seed=0)
    else:
        weights = init_baseline(BaselineConfig(s=3, d=5, hidden=4), seed=0)
    rng = np.random.default_rng(7)
    probe = rng.standard_normal(GOOD).astype(np.float32)
    cands = [rng.standard_normal(shape).astype(np.float32) for shape in (GOOD, BAD, GOOD)]
    with pytest.raises(ShapeError) as info:
        rerank(FeatureMap("p", "p", probe), _initial(3), _gallery(cands, True), weights)
    assert str(info.value) == f"candidate maps are {BAD}, the model declares {GOOD}"


@pytest.mark.parametrize("mapping", [False, True])
def test_rerank_names_an_absent_candidate(setup, mapping):
    fs, weights = setup
    probe = fs.entries[0]
    gallery = {e.sequence_id: e.strips for e in fs.entries} if mapping else fs
    initial = RankedList(probe.sequence_id, ((fs.sequence_ids[1], 0.1), ("x", 0.2)))
    with pytest.raises(MissingIdError) as info:
        rerank(probe, initial, gallery, weights)
    assert str(info.value) == "no features for candidate 'x'"
