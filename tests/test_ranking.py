import math

import numpy as np
import pytest

from gaitrerank import ranking
from gaitrerank.baseline import BaselineConfig, baseline_rerank, init_baseline
from gaitrerank.errors import DataError, FormatError, NonFiniteError, ShapeError
from gaitrerank.feature_store import FeatureMap, FeatureSet
from gaitrerank.inference import rerank_all
from gaitrerank.ranking import (
    RankedList,
    rank_all,
    rank_gallery,
    read_ranked_lists,
    strip_distance,
    strip_mean_distance,
    write_ranked_lists,
)
from gaitrerank.reranker import RerankerConfig, init_weights

from conftest import make_maps


def test_strip_mean_distance_hand_value():
    a = np.array([[0.0, 0.0], [3.0, 4.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    # strip norms: 1 and 5 -> mean 3
    assert strip_mean_distance(a, b) == 3.0


def test_strip_distance_is_float64_even_for_float32_inputs():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 7)).astype(np.float32)
    b = rng.standard_normal((5, 7)).astype(np.float32)
    want = np.linalg.norm(
        a.astype(np.float64) - b.astype(np.float64), axis=1
    ).mean()
    got = strip_distance(FeatureMap("a-00", "a", a), FeatureMap("b-00", "b", b))
    assert got == want


def test_strip_distance_shape_mismatch():
    a = FeatureMap("a-00", "a", np.ones((2, 2), dtype=np.float32))
    b = FeatureMap("b-00", "b", np.ones((3, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        strip_distance(a, b)


def test_rank_gallery_matches_scalar_oracle():
    entries = make_maps(5, 2, 3, 4, seed=5)
    gallery = FeatureSet.from_entries(entries)
    probe = entries[0]
    rl = rank_gallery(probe, gallery)
    oracle = sorted(
        (strip_distance(probe, e), e.sequence_id)
        for e in entries
        if e.sequence_id != probe.sequence_id
    )
    assert [cid for cid, _ in rl.items] == [cid for _, cid in oracle]
    assert rl.distances() == [d for d, _ in oracle]


def test_rank_gallery_excludes_self_and_truncates():
    entries = make_maps(4, 3, 2, 2, seed=9)
    gallery = FeatureSet.from_entries(entries)
    rl = rank_gallery(entries[0], gallery, k=5)
    assert len(rl) == 5
    assert entries[0].sequence_id not in rl.ids()


def test_rank_gallery_tie_break_by_sequence_id():
    strips = np.ones((2, 2), dtype=np.float32)
    entries = [
        FeatureMap("p-00", "p", np.zeros((2, 2), dtype=np.float32)),
        FeatureMap("z-00", "z", strips),
        FeatureMap("a-00", "a", strips),
        FeatureMap("m-00", "m", strips),
    ]
    gallery = FeatureSet.from_entries(entries)
    rl = rank_gallery(entries[0], gallery)
    assert rl.ids() == ["a-00", "m-00", "z-00"]


def test_rank_gallery_k_validation_and_empty_gallery():
    entries = make_maps(1, 1, 2, 2)
    gallery = FeatureSet.from_entries(entries)
    with pytest.raises(DataError):
        rank_gallery(entries[0], gallery)  # only itself present
    gallery2 = FeatureSet.from_entries(make_maps(2, 1, 2, 2))
    with pytest.raises(DataError):
        rank_gallery(entries[0], gallery2, k=0)


def test_rank_all_accepts_set_or_sequence():
    entries = make_maps(6, 2, 3, 3, seed=1)
    gallery = FeatureSet.from_entries(entries)
    a = rank_all(gallery, gallery, k=4)
    b = rank_all(entries, gallery, k=4)
    assert [rl.probe_id for rl in a] == [e.sequence_id for e in entries]
    assert a == b


def oracle_rank(probe, gallery, k=None):
    """The original first stage: the whole gallery as one float64 stack,
    one difference tensor, and a Python sort of (distance, id) tuples."""
    stack = np.stack([e.strips for e in gallery.entries]).astype(np.float64)
    diff = stack - probe.strips.astype(np.float64)
    dists = np.sqrt((diff * diff).sum(axis=2)).mean(axis=1)
    order = sorted(
        (float(dists[i]), e.sequence_id)
        for i, e in enumerate(gallery.entries)
        if e.sequence_id != probe.sequence_id
    )
    if k is not None:
        order = order[:k]
    return RankedList(probe.sequence_id, tuple((cid, d) for d, cid in order))


@pytest.mark.parametrize(
    "n, s, d, levels, block_rows",
    [
        (23, 9, 5, None, 4),  # s >= 9: numpy's pairwise summation over strips
        (40, 12, 17, None, 7),
        (31, 3, 2, 2, 5),  # quantised and repeated maps: exact ties
        (50, 10, 9, 3, 1),
        (17, 1, 1, 4, 16),  # one row in the last block
        (64, 16, 64, None, 1 << 20),  # one block
    ],
)
def test_rank_matches_original_formula_bit_for_bit(monkeypatch, n, s, d, levels, block_rows):
    monkeypatch.setattr(ranking, "BLOCK_BYTES", 8 * s * d * block_rows)
    rng = np.random.default_rng(n * s + d)
    values = rng.standard_normal((n, s, d))
    if levels is not None:
        values = np.round(values * levels / 2) / levels
        values[n // 2 :] = values[: n - n // 2]
    # shuffled ids whose str order is not the entry order
    ids = [f"q{i * 7919 % 1000:03d}" for i in rng.permutation(n)]
    gallery = FeatureSet.from_entries(
        [FeatureMap(sid, sid[:2], v) for sid, v in zip(ids, values)]
    )
    outside = FeatureMap("zz-outside", "zz", values[0] + 0.5)
    probes = [gallery.entries[0], gallery.entries[-1], outside]
    dists = sorted(ranking.strip_distance(probes[0], e) for e in gallery.entries[1:])
    # the k-th and (k+1)-th candidates of probes[0] tie at k=tie_k
    tie_k = next((i for i in range(1, len(dists)) if dists[i] == dists[i - 1]), None)
    assert levels is None or tie_k is not None
    for k in (None, 1, 3, n - 1, n + 5) + ((tie_k,) if tie_k else ()):
        want = [oracle_rank(p, gallery, k) for p in probes]
        assert [rank_gallery(p, gallery, k) for p in probes] == want
        assert rank_all(probes, gallery, k) == want


def _bitwise(rl: RankedList) -> tuple:
    return rl.probe_id, rl.ids(), np.array(rl.distances()).tobytes()


def _gallery(values) -> FeatureSet:
    # shuffled ids whose str order is not the entry order
    n = len(values)
    ids = [f"g{i * 7919 % 1000:03d}" for i in range(n)]
    return FeatureSet.from_entries([FeatureMap(sid, sid, v) for sid, v in zip(ids, values)])


@pytest.mark.parametrize(
    "scale",
    [
        1.0,
        1e20,  # float32 squares overflow: the exact path is taken
        1e-30,  # float32 products underflow to zero: every row is a candidate
        3e18,  # the norms are finite, some squared distances near float32's top
    ],
)
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "repeated-maps"])
def test_top_k_is_the_exact_full_list_prefix_bitwise(scale, ties):
    rng = np.random.default_rng(17)
    n, s, d = 60, 4, 8
    values = rng.standard_normal((n, s, d))
    if ties:
        # every map repeated three times: the k-th distance ties across rows
        values = np.round(values[: n // 3] * 2) / 2
        values = np.concatenate([values] * 3)
    gallery = _gallery(values * scale)
    probes = [gallery.entries[0], gallery.entries[n // 2],
              FeatureMap("zz-outside", "zz", values[1] * scale * 1.5 + 0.25 * scale)]
    for probe in probes:
        full = rank_gallery(probe, gallery)
        eligible = len(full)
        for k in (1, 2, 7, eligible - 1, eligible, eligible + 5):
            want = RankedList(probe.sequence_id, full.items[:k])
            assert _bitwise(rank_gallery(probe, gallery, k)) == _bitwise(want), (probe, k)


@pytest.mark.parametrize(
    "kind", ["normal", "offset", "mixed-scales", "quantised", "tiny", "huge-finite"]
)
def test_distance_bounds_enclose_every_exact_distance(kind):
    rng = np.random.default_rng(len(kind))
    n, s, d = 200, 6, 33
    values = rng.standard_normal((n, s, d))
    if kind == "offset":
        # a large common offset: |a|^2 + |b|^2 - 2a.b cancels almost entirely
        values = 1000.0 + 1e-3 * values
    elif kind == "mixed-scales":
        values *= 10.0 ** rng.integers(-20, 18, size=(n, 1, 1))
    elif kind == "quantised":
        values = np.round(values)
    elif kind == "tiny":
        values *= 1e-22
    elif kind == "huge-finite":
        values *= 1e17
    gallery = _gallery(values)
    for probe in (*gallery.entries[:5], FeatureMap("x", "x", values[7] * 0.5)):
        exact = ranking._distances_to_stack(probe.strips.astype(np.float64), gallery.strips)
        lo, hi = ranking._distance_bounds(probe.strips, gallery)
        assert (lo <= exact).all() and (exact <= hi).all()
        assert (lo >= 0).all()


def test_top_k_rescores_only_rows_that_can_reach_the_kth(monkeypatch):
    gallery = FeatureSet.from_entries(make_maps(100, 3, 8, 16, seed=6))
    exact = ranking._distances_to_stack
    rescored = []

    def counting(probe, stack, rows=None):
        rescored.append(len(stack) if rows is None else len(rows))
        return exact(probe, stack, rows)

    monkeypatch.setattr(ranking, "_distances_to_stack", counting)
    for probe in gallery.entries[:10]:
        rank_gallery(probe, gallery, k=5)
    # a random gallery separates well: few rows beyond the k cross the cut
    assert max(rescored) < len(gallery) // 10, rescored


def test_product_blocks_cover_every_row_up_to_a_partial_last_block(monkeypatch):
    # four blocks of 16 rows and a partial fifth of 5
    n, s, d, block = 69, 5, 12, 16
    monkeypatch.setattr(ranking, "BLOCK_BYTES", 8 * s * d * block)
    assert ranking._block_rows(s, d, 8) == block
    values = np.random.default_rng(23).standard_normal((n, s, d))
    gallery = _gallery(values)
    for probe in (gallery.entries[0], gallery.entries[-1],
                  FeatureMap("zz-outside", "zz", values[3] * 0.5)):
        exact = ranking._distances_to_stack(probe.strips.astype(np.float64), gallery.strips)
        lo, hi = ranking._distance_bounds(probe.strips, gallery)
        assert (lo <= exact).all() and (exact <= hi).all()
        full = rank_gallery(probe, gallery)
        for k in (1, 7, block + 1, len(full) - 1):
            want = RankedList(probe.sequence_id, full.items[:k])
            assert _bitwise(rank_gallery(probe, gallery, k)) == _bitwise(want), (probe, k)

    # float32 squares overflow in one row of the last, partial block only:
    # no bounds, so every eligible row is scored exactly
    values[-2] *= 1e20
    gallery = _gallery(values)
    probe = gallery.entries[0]
    assert ranking._distance_bounds(probe.strips, gallery) is None
    exact = ranking._distances_to_stack
    rescored = []

    def counting(probe, stack, rows=None):
        rescored.append(len(stack) if rows is None else len(rows))
        return exact(probe, stack, rows)

    monkeypatch.setattr(ranking, "_distances_to_stack", counting)
    top = rank_gallery(probe, gallery, k=5)
    assert rescored == [n - 1]
    assert _bitwise(top) == _bitwise(RankedList(probe.sequence_id, rank_gallery(probe, gallery).items[:5]))


def test_strips_are_read_only_float32_and_id_keys_cached(small_set):
    assert small_set.id_rank is small_set.id_rank
    assert small_set.rank_of is small_set.rank_of
    stack = small_set.strips
    assert stack.dtype == np.float32 and not stack.flags.writeable
    assert small_set.sequence_ids == tuple(small_set.ids())
    # the set's view is read-only; the array it was built from is not
    values = np.zeros((1, 2, 2), dtype=np.float32)
    assert not FeatureSet(values, ("a",), ("a",)).strips.flags.writeable
    assert values.flags.writeable


def test_rank_tie_break_uses_python_str_order():
    # numpy "U" arrays drop trailing NULs: "a\0" and "a" would compare equal
    strips = np.ones((2, 2), dtype=np.float32)
    entries = [
        FeatureMap("p", "p", np.zeros((2, 2), dtype=np.float32)),
        FeatureMap("a\0", "a", strips),
        FeatureMap("a", "a", strips),
        FeatureMap("B", "b", strips),
    ]
    gallery = FeatureSet.from_entries(entries)
    assert rank_gallery(entries[0], gallery).ids() == ["B", "a", "a\0"]
    assert rank_gallery(entries[0], gallery, k=2).ids() == ["B", "a"]


def test_ranked_lists_roundtrip(tmp_path):
    lists = [
        RankedList("p-00", (("a-00", 0.5), ("b-00", 1.25))),
        RankedList("p-01", (("b-00", 0.0),)),
    ]
    path = tmp_path / "lists.jsonl"
    write_ranked_lists(lists, path, latencies_ms=[0.1, 0.2])
    assert read_ranked_lists(path) == lists
    text = path.read_text()
    assert '"latency_ms":0.1' in text


def test_ranked_lists_exact_bytes(tmp_path):
    path = tmp_path / "lists.jsonl"
    write_ranked_lists(iter([RankedList("p", (("a", 0.5),)), RankedList("q", ())]), path)
    assert path.read_bytes() == b'{"probe_id":"p","items":[["a",0.5]]}\n{"probe_id":"q","items":[]}\n'
    write_ranked_lists([], path)
    assert path.read_bytes() == b""


def test_ranked_lists_writer_refuses_non_finite_distances(tmp_path):
    # a feature set cannot hold a NaN map, but a hand-built list can hold a
    # NaN distance, which the reader would reject
    lists = [RankedList("p-00", (("a-00", 0.5),)), RankedList("p-01", (("a-00", math.nan),))]
    path = tmp_path / "lists.jsonl"
    with pytest.raises(NonFiniteError, match="'p-01'"):
        write_ranked_lists(lists, path)
    assert not path.exists()
    finite = [RankedList("p", (("a", 0.5),))]
    write_ranked_lists(finite, path)
    before = path.read_bytes()
    with pytest.raises(NonFiniteError, match="'p-01'"):
        write_ranked_lists(lists, path)
    with pytest.raises(NonFiniteError, match="'p'"):
        write_ranked_lists(finite, path, latencies_ms=[math.inf])
    assert path.read_bytes() == before


def test_ranked_lists_bad_record(tmp_path):
    path = tmp_path / "lists.jsonl"
    path.write_text('{"probe_id": "p"}\n')
    with pytest.raises(FormatError):
        read_ranked_lists(path)
    with pytest.raises(FileNotFoundError):
        read_ranked_lists(tmp_path / "absent.jsonl")


def test_rank_and_rerank_outputs_roundtrip(tmp_path, small_set):
    initial = rank_all(small_set, small_set)
    cfg = RerankerConfig(s=4, d=6, num_classes=6, heads=2, hidden=8, mlp_hidden=8)
    reranked, _ = rerank_all(list(small_set), initial, small_set, init_weights(cfg, seed=4), k=8)
    weights = init_baseline(BaselineConfig(s=4, d=6, hidden=8), seed=4)
    baselined = [
        baseline_rerank(p, rl, small_set, weights, k=8) for p, rl in zip(small_set, initial)
    ]
    assert reranked != initial and baselined != initial
    for lists in (initial, rank_all(small_set, small_set, k=5), reranked, baselined):
        path = tmp_path / "lists.jsonl"
        write_ranked_lists(lists, path)
        assert read_ranked_lists(path) == lists


@pytest.mark.parametrize(
    "items, error",
    [
        ('[["a-00", NaN]]', NonFiniteError),
        ('[["a-00", 0.5], ["b-00", Infinity]]', NonFiniteError),
        ('[["a-00", 0.5], ["b-00", 0.25]]', FormatError),
        ('[["a-00", 0.5], ["a-00", 0.75]]', FormatError),
    ],
)
def test_ranked_lists_reject_bad_items(tmp_path, items, error):
    path = tmp_path / "lists.jsonl"
    path.write_text('{"probe_id":"p-00","items":[["a-00",0.1]]}\n'
                    f'{{"probe_id":"p-01","items":{items}}}\n')
    with pytest.raises(error, match=":2:"):
        read_ranked_lists(path)
