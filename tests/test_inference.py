import numpy as np
import pytest

from gaitrerank.errors import DataError, MissingIdError
from gaitrerank.feature_store import FeatureMap, FeatureSet
from gaitrerank.inference import rerank, rerank_all, splice_reordered
from gaitrerank.ranking import RankedList, rank_all, rank_gallery
from gaitrerank.reranker import RerankerConfig, init_weights, pair_distances

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
    cand = np.stack([fs.get(cid).strips for cid in initial.ids()[:k]])
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


def test_rerank_all_matches_elementwise_and_reports_latency(setup):
    fs, weights = setup
    probes = list(fs.entries)
    lists = rank_all(fs, fs, k=None)
    seq, lat = rerank_all(probes, lists, fs, weights, k=5)
    assert len(seq) == len(probes) and len(lat) == len(probes)
    assert all(ms >= 0 for ms in lat)
    for probe, initial, out in zip(probes, lists, seq):
        assert out == rerank(probe, initial, fs, weights, k=5)


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
