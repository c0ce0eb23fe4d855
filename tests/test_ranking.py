import json
import math
import tracemalloc

import numpy as np
import pytest

from gaitrerank import ranking, synth
from gaitrerank.cli import main
from gaitrerank.baseline import BaselineConfig, baseline_rerank, init_baseline
from gaitrerank.errors import DataError, FormatError, NonFiniteError, ShapeError
from gaitrerank.feature_store import FeatureMap, FeatureSet
from gaitrerank.inference import rerank_all, splice_reordered
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


@pytest.mark.parametrize(
    "cascade",
    [{}, {"CASCADE_ROWS": 0, "DENSE_SHARE": -1}, {"CASCADE_ROWS": 0, "DENSE_SHARE": math.inf}],
    ids=["default", "streaming", "gathering"],
)
def test_rank_all_accepts_set_or_sequence(monkeypatch, cascade):
    for name, value in cascade.items():
        monkeypatch.setattr(ranking, name, value)
    entries = make_maps(6, 2, 3, 3, seed=1)
    gallery = FeatureSet.from_entries(entries)
    a = rank_all(gallery, gallery, k=4)
    b = rank_all(entries, gallery, k=4)
    assert [rl.probe_id for rl in a] == [e.sequence_id for e in entries]
    assert a == b
    # a probe set whose ids are in the gallery and outside it, interleaved
    rng = np.random.default_rng(4)
    outside = [FeatureMap(f"zz{i}", "zz", rng.standard_normal((3, 3))) for i in range(4)]
    maps = [m for pair in zip(entries[::3], outside) for m in pair]
    probes = FeatureSet.from_entries(maps, partition="probe")
    n = len(gallery)
    # k = n - 1 is every eligible row of a probe in the gallery, n of one outside it
    for k in (None, 1, 4, n - 1, n, n + 3):
        want = [_bitwise(rl) for rl in rank_all(maps, gallery, k)]
        assert [_bitwise(rl) for rl in rank_all(probes, gallery, k)] == want, k
        assert "entries" not in vars(probes)


def test_rank_all_of_no_probes_is_empty_whatever_their_shape():
    gallery = FeatureSet.from_entries(make_maps(3, 2, 2, 3, seed=1))
    assert rank_all([], gallery) == []
    other = FeatureSet(np.empty((0, 5, 7)), (), (), "probe")
    for k in (None, 1):
        assert rank_all(other, gallery, k) == []


def test_rank_gallery_does_not_go_through_rank_all(monkeypatch):
    # perfbench wraps both names: work counted under each would count twice
    def refuse(*args, **kwargs):
        raise AssertionError("rank_gallery called rank_all")

    monkeypatch.setattr(ranking, "rank_all", refuse)
    gallery = FeatureSet.from_entries(make_maps(3, 2, 2, 3, seed=1))
    for k in (None, 2):
        assert isinstance(ranking.rank_gallery(gallery.entries[0], gallery, k), RankedList)


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
    # the gallery against itself, each pair scored once and mirrored
    for k in (None, n - 1):
        assert rank_all(gallery, gallery, k) == [oracle_rank(e, gallery, k) for e in gallery.entries]


def _bitwise(rl: RankedList) -> tuple:
    return rl.probe_id, rl.ids(), np.array(rl.distances()).tobytes()


def _count_rescored(monkeypatch) -> list[int]:
    """Patch the exact distance pass to record, in probe order, how many
    rows it scores for each probe: every row of the stack for a full
    pass, and for a bounded group the pairs each probe owns in the
    group's two pair passes together."""
    exact = ranking._distances_to_stack
    rescored = []
    second = False  # the next pair pass is its group's second

    def counting(probes, stack, rows=None, owner=None):
        nonlocal second
        p = probes.size // stack[0].size
        if rows is None:
            rescored.extend([len(stack)] * p)
        else:
            counts = np.bincount(owner, minlength=p).tolist()
            if second:
                rescored[-p:] = [a + b for a, b in zip(rescored[-p:], counts)]
            else:
                rescored.extend(counts)
            second = not second
        return exact(probes, stack, rows, owner)

    monkeypatch.setattr(ranking, "_distances_to_stack", counting)
    return rescored


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
    # an infinite value: every distance is inf, and the probe's own id
    # must still be left out
    probes.append(FeatureMap(gallery.entries[1].sequence_id, "x", np.full((s, d), np.inf)))
    for probe in probes:
        full = rank_gallery(probe, gallery)
        eligible = len(full)
        for k in (1, 2, 7, eligible - 1, eligible, eligible + 5):
            want = RankedList(probe.sequence_id, full.items[:k])
            assert _bitwise(rank_gallery(probe, gallery, k)) == _bitwise(want), (probe, k)


@pytest.mark.parametrize("group", [1, 16])
@pytest.mark.parametrize("k", [None, 3])
def test_a_probe_holding_a_nan_is_refused_by_name(monkeypatch, k, group):
    monkeypatch.setattr(ranking, "GROUP_PROBES", group)
    # every distance of a NaN probe is NaN and every lower bound 0: its k=3
    # list was the first eligible rows in entry order (g00, g02, g05), not
    # the prefix of its full list (g00, g01, g02)
    values = np.random.default_rng(5).standard_normal((8, 2, 3))
    sids = tuple(f"g{i:02d}" for i in (0, 5, 2, 7, 1, 4, 6, 3))
    gallery = FeatureSet(values, sids, sids)
    nan = values[0].copy()
    nan[1, 2] = np.nan
    probes = [gallery.entries[1], FeatureMap("p-nan", "p", nan), FeatureMap("g03", "g", nan)]
    with pytest.raises(NonFiniteError, match=r"^NaN in probe 'p-nan'$"):
        rank_gallery(probes[1], gallery, k)
    # in one group or one group per probe, the first NaN probe is named
    with pytest.raises(NonFiniteError, match=r"^NaN in probe 'p-nan'$"):
        rank_all(probes, gallery, k)
    with pytest.raises(NonFiniteError, match=r"^NaN in probe 'g03'$"):
        rank_all(probes[::-1], gallery, k)


@pytest.mark.parametrize(
    "kind",
    ["normal", "offset", "mixed-scales", "quantised", "tiny", "huge-finite", "strip-constant",
     "cancelling-strips"],
)
def test_distance_bounds_enclose_every_exact_distance(kind):
    rng = np.random.default_rng(len(kind))
    n, s, d = 200, 6, 33
    values = rng.standard_normal((n, s, d))
    if kind == "strip-constant":
        # every strip of a map equal: the strip-sum bound is the exact
        # distance in exact arithmetic, and only its slack keeps it below
        values = np.repeat(values[:, :1], s, axis=1)
    elif kind == "cancelling-strips":
        # strip-constant but for +-2**60 in the first and last strip: the
        # float64 strip sums lose a column's middle to rounding, which only
        # the sums' error term covers
        values = np.repeat(np.round(300 * values[:, :1]), s, axis=1)
        values[:, 0], values[:, -1] = 2.0**60, -(2.0**60)
    elif kind == "offset":
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
        lo = ranking._distance_bounds(probe.strips, gallery)
        assert (lo <= exact).all()
        assert (lo >= 0).all()
        by_sums = ranking._sum_bounds(probe.strips.astype(np.float64), gallery)
        assert (by_sums <= exact).all()
        if kind == "strip-constant":
            assert np.allclose(by_sums, exact, rtol=1e-5, atol=1e-4)


def test_top_k_rescores_only_rows_that_can_reach_the_kth(monkeypatch):
    gallery = FeatureSet.from_entries(make_maps(100, 3, 8, 16, seed=6))
    rescored = _count_rescored(monkeypatch)
    for probe in gallery.entries[:10]:
        rank_gallery(probe, gallery, k=5)
    # a random gallery separates well: few rows beyond the k cross the cut
    assert max(rescored) < len(gallery) // 10, rescored


def test_product_blocks_cover_every_row_up_to_a_partial_last_block(monkeypatch):
    # four product blocks of 16 rows and a partial fifth of 5
    n, s, d, block = 69, 5, 12, 16
    monkeypatch.setattr(ranking, "BLOCK_BYTES", 16 * s * d * block)
    assert ranking._block_rows(s, d, 16) == block
    values = np.random.default_rng(23).standard_normal((n, s, d))
    gallery = _gallery(values)
    for probe in (gallery.entries[0], gallery.entries[-1],
                  FeatureMap("zz-outside", "zz", values[3] * 0.5)):
        exact = ranking._distances_to_stack(probe.strips.astype(np.float64), gallery.strips)
        lo = ranking._distance_bounds(probe.strips, gallery)
        assert (lo <= exact).all() and (lo >= 0).all()
        full = rank_gallery(probe, gallery)
        for k in (1, 7, block + 1, len(full) - 1):
            want = RankedList(probe.sequence_id, full.items[:k])
            assert _bitwise(rank_gallery(probe, gallery, k)) == _bitwise(want), (probe, k)

    # float32 squares overflow in one row of the last, partial block only:
    # a lower bound of 0 for every row, so every eligible row is scored
    values[-2] *= 1e20
    gallery = _gallery(values)
    probe = gallery.entries[0]
    assert (ranking._distance_bounds(probe.strips, gallery) == 0).all()
    rescored = _count_rescored(monkeypatch)
    top = rank_gallery(probe, gallery, k=5)
    assert rescored == [n - 1]
    assert _bitwise(top) == _bitwise(RankedList(probe.sequence_id, rank_gallery(probe, gallery).items[:5]))


@pytest.mark.parametrize("group", [1, 3, 16])
def test_rank_all_top_k_groups_equal_per_probe_rank_gallery_bitwise(monkeypatch, group):
    # product blocks of 16 rows; a float64 pass for 3 probes spans 64 rows
    # (four blocks), so the last pass is partial, as is the last group of 3
    n, s, d, block = 69, 5, 12, 16
    monkeypatch.setattr(ranking, "BLOCK_BYTES", 16 * s * d * block)
    monkeypatch.setattr(ranking, "GROUP_PROBES", group)
    values = np.random.default_rng(29).standard_normal((n, s, d))
    gallery = _gallery(values)
    probes = list(gallery.entries[:4]) + [
        FeatureMap(f"zz{i}", "zz", values[i] * 0.5 + 0.25) for i in range(3)
    ]
    # float32 squares of this probe overflow: it alone has no bounds
    probes[5] = FeatureMap("zz-huge", "zz", values[5] * 1e20)
    # at k = n - 1 the gallery's own entries take the exact path, the
    # others are bounded, in the same call
    for k in (1, 5, block + 1, n - 2, n - 1, n + 5):
        want = [_bitwise(rank_gallery(probe, gallery, k)) for probe in probes]
        assert [_bitwise(rl) for rl in rank_all(probes, gallery, k)] == want, k

    rescored = _count_rescored(monkeypatch)
    rank_all(probes, gallery, k=5)
    # one count per probe, in probe order, read through each group's owner
    # index: every row for the huge probe, a few for each of the others
    assert rescored[5] == n
    assert max(rescored[:5] + rescored[6:]) < n // 4, rescored


@pytest.mark.parametrize("group", [1, 16])
def test_top_k_on_a_synth_gallery_gathers_a_few_rows_not_every_row(monkeypatch, group):
    # identities on strip-constant offsets, as synth draws them: the strip
    # sums alone rule out most rows, so no probe takes the streaming pass
    monkeypatch.setattr(ranking, "GROUP_PROBES", group)
    gallery = synth.generate(600, 4, 8, 16, hardness=0.7, noise=0.3, seed=3)
    n, k = len(gallery), 20
    assert n >= ranking.CASCADE_ROWS
    outside = FeatureMap("zz-outside", "zz", gallery.strips[5] + 0.1)
    probes = list(gallery.entries[::197]) + [outside]
    bounded, scored = [], []
    product, exact = ranking._distance_bounds, ranking._distances_to_stack

    def bounding(strips, gal, rows=None):
        bounded.append(n if rows is None else len(rows))
        return product(strips, gal, rows)

    def scoring(wide, stack, rows=None, owner=None):
        scored.append(len(stack) if rows is None else len(rows))
        return exact(wide, stack, rows, owner)

    monkeypatch.setattr(ranking, "_distance_bounds", bounding)
    monkeypatch.setattr(ranking, "_distances_to_stack", scoring)
    top = rank_all(probes, gallery, k=k)
    # one gathered product pass per probe, far fewer rows than the gallery's;
    # the streaming pass would bound all n rows
    assert len(bounded) == len(probes) and max(bounded) < n // 10, bounded
    assert sum(scored) < 3 * k * len(probes), scored
    monkeypatch.undo()
    full = rank_all(probes, gallery)
    assert [_bitwise(rl) for rl in top] == [
        _bitwise(RankedList(rl.probe_id, rl.items[:k])) for rl in full]


@pytest.mark.parametrize("crossover", [-1.0, math.inf], ids=["streamed", "gathered"])
def test_top_k_keeps_rows_tied_at_a_cut_of_zero(monkeypatch, crossover):
    # four copies of each map: a probe equal to one has four rows at
    # distance 0, whose bounds are 0 too, so the cut of 0 must keep them all
    monkeypatch.setattr(ranking, "CASCADE_ROWS", 0)
    monkeypatch.setattr(ranking, "DENSE_SHARE", crossover)
    values = np.repeat(np.random.default_rng(0).standard_normal((5, 3, 4)), 4, axis=0)
    gallery = _gallery(values)
    probe = FeatureMap("zz", "zz", values[0])
    full = rank_gallery(probe, gallery)
    for k in (1, 2, 3, 5):
        want = RankedList(probe.sequence_id, full.items[:k])
        assert _bitwise(rank_gallery(probe, gallery, k)) == _bitwise(want), k


def _inverted_gallery() -> tuple[FeatureSet, list[FeatureMap]]:
    """Rows whose exact distances to the probes differ by less than the
    bounds' slack: at a common offset of 1000, 6 rows lie 3.0-3.0004 from
    the probes and 8 rows 3.001-3.002, but the latter have the larger
    norms, so the wider slack gives them the lower bounds."""
    s, d = 4, 8
    centre = np.zeros((s, d))
    centre[:, 0] = 1000.0

    def row(shift, eps):
        v = centre.copy()
        v[:, 0] += shift
        v[:, 1] = eps
        return v

    rng = np.random.default_rng(37)
    values = [row(-3.0, 0.01 * j) for j in range(6)] + [row(3.001, 0.01 * j) for j in range(8)]
    values += [centre + 10 * rng.standard_normal((s, d)) for _ in range(20)]
    gallery = _gallery(np.array(values))
    probes = [FeatureMap(f"zz{j}", "zz", centre + 0.002 * j * np.eye(s, d, 2)) for j in range(5)]
    return gallery, probes + list(gallery.entries[:2]) + list(gallery.entries[6:8])


@pytest.mark.parametrize("group", [1, 3, 16])
def test_top_k_cut_holds_when_the_lowest_bounds_are_not_the_top_k(monkeypatch, group):
    monkeypatch.setattr(ranking, "GROUP_PROBES", group)
    gallery, probes = _inverted_gallery()
    # the 6 rows with the smallest lower bounds are not the 6 nearest
    lo = ranking._distance_bounds(probes[0].strips, gallery)[0]
    exact = ranking._distances_to_stack(probes[0].strips.astype(np.float64), gallery.strips)[0]
    assert set(np.argsort(lo)[:6]) & set(np.argsort(exact)[:6]) == set()

    exact_pass = ranking._distances_to_stack
    scored = []

    def recording(wide, stack, rows=None, owner=None):
        if rows is not None:
            scored.extend((wide[o].tobytes(), r) for o, r in zip(owner.tolist(), rows.tolist()))
        return exact_pass(wide, stack, rows, owner)

    monkeypatch.setattr(ranking, "_distances_to_stack", recording)
    for k in (1, 3, 6, 7, 10, 15):
        want = [_bitwise(RankedList(p.sequence_id, rank_gallery(p, gallery).items[:k])) for p in probes]
        scored.clear()
        assert [_bitwise(rank_gallery(p, gallery, k)) for p in probes] == want, k
        assert len(set(scored)) == len(scored), k
        scored.clear()
        assert [_bitwise(rl) for rl in rank_all(probes, gallery, k)] == want, k
        # no (probe, row) pair is scored twice
        assert len(set(scored)) == len(scored), k


def test_top_k_needs_no_numpy_2_function(monkeypatch, tmp_path, capsys):
    # pyproject.toml allows numpy 1.24, which has no np.vecdot
    monkeypatch.delattr(np, "vecdot", raising=False)
    gallery = FeatureSet.from_entries(make_maps(6, 3, 4, 8, seed=2))
    lists = rank_all(gallery, gallery, k=3)
    assert lists == [RankedList(rl.probe_id, rl.items[:3]) for rl in rank_all(gallery, gallery)]
    assert main(["synth", "--ids", "6", "--per-id", "2", "--strips", "3", "--dim", "4",
                 "--out", str(tmp_path / "f.gfm")]) == 0
    assert json.loads(capsys.readouterr().out)["sequences"] == 12


def test_pair_pass_equals_the_full_pass_bitwise_in_any_order(monkeypatch):
    # pair blocks of 5 (12 bytes a value): pairs of several probes share a
    # block, unsorted and repeated, and the last block is partial; s and d
    # >= 8 take numpy's pairwise summation
    n, s, d, m = 23, 9, 17, 37
    monkeypatch.setattr(ranking, "BLOCK_BYTES", 12 * s * d * 5)
    rng = np.random.default_rng(31)
    stack = rng.standard_normal((n, s, d)).astype(np.float32)
    probes = rng.standard_normal((4, s, d)).astype(np.float32).astype(np.float64)
    full = ranking._distances_to_stack(probes, stack)
    owner, rows = rng.integers(0, len(probes), m), rng.integers(0, n, m)
    pairs = ranking._distances_to_stack(probes, stack, rows, owner)
    assert pairs.tobytes() == full[owner, rows].tobytes()


def test_self_ranking_allocates_nothing_the_size_of_its_distances_but_them(monkeypatch):
    # many rows of few values each: the (n, n) float64 distances dwarf the
    # stack, so one n x n temporary, even of bools, or one block's worth
    # of triangle indices would break the bound; 64-row blocks put most
    # pairs off the diagonal blocks
    n, s, d = 1500, 1, 2
    monkeypatch.setattr(ranking, "BLOCK_BYTES", 16 * s * d * 64)
    stack = np.random.default_rng(9).standard_normal((n, s, d)).astype(np.float32)
    tracemalloc.start()
    try:
        mirrored = ranking._distances_to_stack(stack, stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output, the float64 copy of the stack, one block and slack
    assert peak < 8 * n * n + 8 * n * s * d + ranking.BLOCK_BYTES + (64 << 10), peak
    full = ranking._distances_to_stack(stack.astype(np.float64), stack)
    assert mirrored.tobytes() == full.tobytes()


def test_leave_one_out_ranking_takes_the_mirrored_pass(monkeypatch, small_set):
    seen = []
    exact = ranking._distances_to_stack

    def recording(probes, stack, rows=None, owner=None):
        seen.append(probes is stack)
        return exact(probes, stack, rows, owner)

    monkeypatch.setattr(ranking, "_distances_to_stack", recording)
    n = len(small_set)
    for k in (None, n - 1):
        rank_all(small_set, small_set, k)
    # other probes, and a top-k list short of the whole gallery, do not
    rank_all(small_set.entries, small_set)
    rank_all(small_set, small_set, n - 2)
    assert seen[:3] == [True, True, False] and not any(seen[3:])


def test_rank_all_checks_k_once_before_any_probe():
    gallery = _gallery(np.ones((3, 2, 2)))
    wide = FeatureMap("wide", "w", np.ones((2, 3)))
    for probes in ([], gallery, [wide]):
        with pytest.raises(DataError) as exc:
            rank_all(probes, gallery, k=0)
        assert str(exc.value) == "k must be >= 1, got 0"


def test_top_k_call_allocates_nothing_the_size_of_the_strip_norms():
    # many rows of few values each: one float64 (s, n) array, 5 MB here,
    # dwarfs the bound pass's block-sized buffers
    n, s, d = 40_000, 16, 2
    ids = tuple(f"g{i:05d}" for i in range(n))
    gallery = FeatureSet(np.random.default_rng(5).standard_normal((n, s, d)), ids, ids)
    probe = gallery.entries[7]
    # the warm-up call fills the set's strip norm terms, cached once
    want = rank_gallery(probe, gallery, k=10)
    tracemalloc.start()
    try:
        got = rank_gallery(probe, gallery, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 8 * s * n, peak


def test_strips_are_read_only_float32_and_id_keys_cached(small_set):
    assert small_set.id_rank is small_set.id_rank
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
    write_ranked_lists(lists, path)
    assert read_ranked_lists(path) == lists
    # lists once carried a per-probe latency_ms field; such files still read
    path.write_text('{"probe_id":"p-00","items":[["a-00",0.5],["b-00",1.25]],"latency_ms":0.1}\n'
                    '{"probe_id":"p-01","items":[["b-00",0.0]],"latency_ms":0.2}\n')
    assert read_ranked_lists(path) == lists


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
    for bad in (math.nan, math.inf, -math.inf):
        lists[1] = RankedList("p-01", (("a-00", 0.5), ("b-00", bad)))
        with pytest.raises(NonFiniteError, match="'p-01'"):
            write_ranked_lists(lists, path)
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
    reranked, _ = rerank_all(small_set.entries, initial, small_set, init_weights(cfg, seed=4), k=8)
    weights = init_baseline(BaselineConfig(s=4, d=6, hidden=8), seed=4)
    baselined = [
        baseline_rerank(p, rl, small_set, weights, k=8) for p, rl in zip(small_set.entries, initial)
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


@pytest.mark.parametrize("n_probes", [1, 2, 9])
def test_rank_all_full_lists_equal_per_probe_rank_gallery_bitwise(monkeypatch, n_probes):
    n, s, d = 41, 3, 5
    # 4 gallery rows per block: 9 probes are more than a block has rows
    monkeypatch.setattr(ranking, "BLOCK_BYTES", 16 * s * d * 4)
    values = np.random.default_rng(n_probes).standard_normal((n, s, d))
    gallery = _gallery(values)
    inside = list(gallery.entries[: (n_probes + 1) // 2])
    outside = [FeatureMap(f"zz{i}", "zz", values[i] * 0.5 + 0.25) for i in range(n_probes // 2)]
    probes = inside + outside
    want = [_bitwise(rank_gallery(probe, gallery)) for probe in probes]
    assert want == [_bitwise(oracle_rank(probe, gallery)) for probe in probes]
    assert [_bitwise(rl) for rl in rank_all(probes, gallery)] == want


def test_rank_all_full_lists_name_the_failing_probe():
    gallery = _gallery(np.ones((3, 2, 2)))
    wide = FeatureMap("wide", "w", np.ones((2, 3)))
    with pytest.raises(ShapeError) as exc:
        rank_all([gallery.entries[0], wide], gallery)
    assert str(exc.value) == "probe 'wide': probe 'wide' is (2, 3), gallery declares (2, 2)"
    alone = _gallery(np.ones((1, 2, 2)))
    with pytest.raises(DataError) as exc:
        rank_all(alone, alone)
    assert str(exc.value) == "probe 'g000': empty effective gallery for probe 'g000'"


def test_a_columnar_list_compares_by_value_with_an_items_built_one():
    gallery = _gallery(np.random.default_rng(2).standard_normal((6, 2, 3)))
    probe = gallery.entries[0]
    for rl in (rank_gallery(probe, gallery), rank_gallery(probe, gallery, k=2)):
        assert type(rl.items) is tuple and len(rl.items) == len(rl)
        assert all(type(cid) is str and type(d) is float for cid, d in rl.items)
        built = RankedList(probe.sequence_id, rl.items)
        assert built == rl and rl == built and not built != rl
        assert built.ids() == rl.ids() and built.distances() == rl.distances()
        nudged = list(rl.items)
        nudged[-1] = (nudged[-1][0], np.nextafter(nudged[-1][1], np.inf))
        assert RankedList(probe.sequence_id, nudged) != rl
        assert RankedList("other", rl.items) != rl
        assert rl != list(rl.items)


def test_a_ranked_list_refuses_hashing_and_its_distances_are_read_only():
    # lists compare by value, so they are not hashable
    gallery = _gallery(np.ones((3, 2, 2)))
    rl = rank_gallery(gallery.entries[0], gallery)
    for lst in (rl, RankedList("p", [("a", 0.5)])):
        with pytest.raises(TypeError):
            hash(lst)
        with pytest.raises(ValueError):
            lst.dists[0] = 0.0
    dists = np.array([0.25, 0.5])
    shared = RankedList("p", dists=dists, ids=("a", "b"))
    assert dists.flags.writeable and not shared.dists.flags.writeable


@pytest.mark.parametrize("k", [None, 4])
def test_an_unchanged_order_splices_to_the_initial_list_itself(k):
    gallery = _gallery(np.random.default_rng(4).standard_normal((7, 2, 3)))
    for initial in (rank_gallery(gallery.entries[0], gallery, k=k),
                    RankedList("p", [("a", 0.5), ("b", 0.75), ("c", 1.0), ("d", 1.0)])):
        assert splice_reordered(initial, 3, [0.1, 0.2, 0.3]) is initial
        # the reversed prefix is rescaled into [0, the first tail distance]
        spliced = splice_reordered(initial, 3, [3.0, 2.0, 1.0])
        assert spliced.ids() == initial.ids()[2::-1] + initial.ids()[3:]
        bound = initial.dists[3]
        assert spliced.distances() == [0.0, bound / 2, bound] + initial.distances()[3:]
