import math
import tracemalloc

import numpy as np
import pytest

from gaitrerank.errors import FormatError, NonFiniteError, ShapeError
from gaitrerank.ranking import strip_mean_distance
from gaitrerank.reranker import (
    IndexedBatch,
    RerankerConfig,
    TripletBatch,
    _attention_forward,
    attended_pair,
    batch_loss,
    forward_backward,
    init_weights,
    load_checkpoint,
    pair_distances,
    rerank_distance,
    save_checkpoint,
)
from gaitrerank.training import Triplet


# ---------------------------------------------------------------------------
# scalar reference implementations, kept deliberately loop-heavy
# ---------------------------------------------------------------------------


def ref_softmax(row):
    m = max(row)
    e = [math.exp(x - m) for x in row]
    z = sum(e)
    return [x / z for x in e]


def ref_cross_attend(x, kv, weights):
    """One query map conditioned on one kv map, head by head, in float64."""
    cfg = weights.config
    dh = cfg.head_dim
    cur = np.asarray(x, dtype=np.float64)
    kv = np.asarray(kv, dtype=np.float64)
    for b in range(cfg.blocks):
        prefix = f"block{b}."
        blk = {name[len(prefix):]: arr.astype(np.float64)
               for name, arr in weights.params().items() if name.startswith(prefix)}
        q = cur @ blk["w_q"] + blk["b_q"]
        k = kv @ blk["w_k"] + blk["b_k"]
        v = kv @ blk["w_v"] + blk["b_v"]
        cols = []
        for h in range(cfg.heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
            attn = np.array([ref_softmax(list(r)) for r in scores])
            cols.append(attn @ v[:, sl])
        concat = np.concatenate(cols, axis=1)
        cur = cur + concat @ blk["w_o"] + blk["b_o"]
    return cur


def ref_batch_loss(batch, weights, alpha, beta):
    params = weights.params()
    w1 = params["cls.w1"].astype(np.float64)
    b1 = params["cls.b1"].astype(np.float64)
    w2 = params["cls.w2"].astype(np.float64)
    b2 = params["cls.b2"].astype(np.float64)
    total = 0.0
    ces = []
    for i in range(len(batch)):
        p, pos, neg = batch.probe[i], batch.pos[i], batch.neg[i]
        e_p_pos = ref_cross_attend(p, pos, weights)
        e_pos = ref_cross_attend(pos, p, weights)
        e_p_neg = ref_cross_attend(p, neg, weights)
        e_neg = ref_cross_attend(neg, p, weights)
        d_pos = np.linalg.norm(e_p_pos - e_pos, axis=1).mean()
        d_neg = np.linalg.norm(e_p_neg - e_neg, axis=1).mean()
        x = d_neg - d_pos
        lstar = math.log1p(math.exp(-abs(x))) + max(-x, 0.0)
        total += beta * lstar if x >= 0 else lstar
        occurrences = [
            (e_p_pos, batch.labels[i, 0]),
            (e_pos, batch.labels[i, 1]),
            (e_p_neg, batch.labels[i, 0]),
            (e_neg, batch.labels[i, 2]),
        ]
        for emap, label in occurrences:
            act = np.tanh(emap.mean(axis=0) @ w1 + b1)
            logits = act @ w2 + b2
            m = logits.max()
            lse = m + math.log(np.exp(logits - m).sum())
            ces.append(lse - logits[label])
    return total + alpha * float(np.mean(ces))


def random_batch(cfg, B, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return TripletBatch(
        probe=rng.standard_normal((B, cfg.s, cfg.d)).astype(dtype),
        pos=rng.standard_normal((B, cfg.s, cfg.d)).astype(dtype),
        neg=rng.standard_normal((B, cfg.s, cfg.d)).astype(dtype),
        labels=rng.integers(0, cfg.num_classes, size=(B, 3)),
    )


# ---------------------------------------------------------------------------
# forward path
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        RerankerConfig(s=0, d=4, num_classes=2)
    with pytest.raises(ValueError):
        RerankerConfig(s=2, d=4, num_classes=2, heads=3, hidden=8)
    cfg = RerankerConfig(s=2, d=4, num_classes=2, heads=2, hidden=8)
    assert cfg.head_dim == 4


def test_init_weights_deterministic_and_shaped():
    cfg = RerankerConfig(s=3, d=5, num_classes=4, heads=2, hidden=6, blocks=2, mlp_hidden=7)
    w1 = init_weights(cfg, seed=42)
    w2 = init_weights(cfg, seed=42)
    for (na, a), (nb, b) in zip(w1.params().items(), w2.params().items()):
        assert na == nb
        assert a.tobytes() == b.tobytes()
    params = w1.params()
    assert params["block0.w_q"].shape == (5, 6)
    assert params["block0.w_o"].shape == (6, 5)
    assert params["cls.w2"].shape == (7, 4)
    assert all(np.all(params[f"block{b}.{n}"] == 0) for b in range(2) for n in ("b_q", "b_k", "b_v", "b_o"))


@pytest.mark.parametrize(
    "heads,hidden,blocks,biases",
    # head_dim 8, 4 and 4 against d=6, then above, below and equal to d
    # with every bias non-zero, the key bias included
    [(1, 8, 1, False), (2, 8, 1, False), (2, 8, 2, False),
     (1, 8, 1, True), (2, 8, 2, True), (2, 12, 2, True)],
    ids=["1-1", "2-1", "2-2", "1-1-biases", "2-2-biases", "2-2-biases-d-equals-head_dim"],
)
def test_cross_attend_matches_scalar_reference(heads, hidden, blocks, biases):
    """attended_pair conditions each map on the other with one weight set."""
    cfg = RerankerConfig(s=4, d=6, num_classes=3, heads=heads, hidden=hidden, blocks=blocks,
                         mlp_hidden=5)
    w = init_weights(cfg, seed=7, dtype=np.float64)
    if biases:
        bias_rng = np.random.default_rng(2)
        for name, arr in w.params().items():
            if name.startswith("block") and arr.ndim == 1:
                arr[:] = bias_rng.standard_normal(arr.shape)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 6))
    kv = rng.standard_normal((4, 6))
    e_x, e_kv = attended_pair(x, kv, w)
    np.testing.assert_allclose(e_x, ref_cross_attend(x, kv, w), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(e_kv, ref_cross_attend(kv, x, w), rtol=1e-12, atol=1e-12)

    # a key bias adds the same amount to every score of a query row: moving
    # it moves no output bit, and its gradient is exactly zero
    moved = w.copy()
    for i in range(blocks):
        moved.params()[f"block{i}.b_k"][:] += 1.5
    for got, want in zip(attended_pair(x, kv, moved), (e_x, e_kv)):
        assert got.tobytes() == want.tobytes()
    batch = random_batch(cfg, B=3, seed=3)
    _, grads = forward_backward(batch, w, alpha=0.05, beta=0.1)
    for i in range(blocks):
        assert not grads[f"block{i}.b_k"].any()
    if biases:
        # zero biases hide the bias terms of the chain rule through the fold
        pick = np.random.default_rng(4)
        for name, g in grads.items():
            for idx in pick.choice(g.size, size=min(4, g.size), replace=False):
                fd = fd_gradient(batch, w, 0.05, 0.1, name, idx)
                a = g.reshape(-1)[idx]
                assert abs(a - fd) <= 1e-4 * max(abs(a), abs(fd), 1e-4), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zeroed_attention_is_identity(dtype):
    """With zeroed projections the conditioned map is bitwise the input."""
    cfg = RerankerConfig(s=4, d=5, num_classes=3, heads=1, hidden=4, blocks=2, mlp_hidden=4)
    w = init_weights(cfg, seed=0).zero_attention()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 5)).astype(dtype)
    kv = rng.standard_normal((4, 5)).astype(dtype)
    e_x, e_kv = attended_pair(x, kv, w)
    assert e_x.tobytes() == x.astype(e_x.dtype).tobytes()
    assert e_kv.tobytes() == kv.astype(e_kv.dtype).tobytes()
    assert rerank_distance(x, kv, w) == strip_mean_distance(x, kv)


@pytest.mark.parametrize("zeroed", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rerank_distance_is_the_strip_distance_of_the_attended_pair(dtype, zeroed):
    cfg = RerankerConfig(s=5, d=6, num_classes=3, heads=2, hidden=8, blocks=2, mlp_hidden=4)
    w = init_weights(cfg, seed=12, dtype=dtype)
    if zeroed:
        w = w.zero_attention()
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = rng.standard_normal((5, 6)).astype(dtype)
        b = rng.standard_normal((5, 6)).astype(dtype)
        assert rerank_distance(a, b, w) == strip_mean_distance(*attended_pair(a, b, w))


@pytest.mark.parametrize("w_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("map_dtype", [np.float32, np.float64])
def test_pair_distances_matches_per_pair_calls(w_dtype, map_dtype):
    cfg = RerankerConfig(s=3, d=4, num_classes=2, heads=2, hidden=6, mlp_hidden=4)
    w = init_weights(cfg, seed=9, dtype=w_dtype)
    rng = np.random.default_rng(4)
    probe = rng.standard_normal((3, 4)).astype(map_dtype)
    cands = rng.standard_normal((7, 3, 4)).astype(map_dtype)
    batched = pair_distances(probe, cands, w)
    assert batched.dtype == np.float64
    singles = [rerank_distance(probe, c, w) for c in cands]
    np.testing.assert_array_equal(batched, np.array(singles))


@pytest.mark.parametrize("m", [2, 10, 100])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pair_distances_agree_with_per_pair_calls_within_rounding(dtype, m):
    """At some shapes the batched GEMMs round differently from the
    one-pair ones, so agreement is to a few ulps of the compute dtype.
    At s=7, d=3 they agree bitwise; 100 float32 candidates at s=8, d=24
    differ, which the last assertion checks, so rounding is tested."""
    for s, d, hidden in ((7, 3, 36), (8, 24, 64)):
        cfg = RerankerConfig(s=s, d=d, num_classes=2, heads=4, hidden=hidden, mlp_hidden=4)
        w = init_weights(cfg, seed=m, dtype=dtype)
        rng = np.random.default_rng(m)
        probe = rng.standard_normal((s, d)).astype(dtype)
        cands = rng.standard_normal((m, s, d)).astype(dtype)
        singles = [rerank_distance(probe, c, w) for c in cands]
        batched = pair_distances(probe, cands, w)
        np.testing.assert_allclose(batched, singles, rtol=64 * np.finfo(dtype).eps, atol=0)
    if dtype == np.float32 and m == 100:
        assert not np.array_equal(batched, singles)


def test_shape_guards():
    cfg = RerankerConfig(s=3, d=4, num_classes=2, heads=1, hidden=4, mlp_hidden=4)
    w = init_weights(cfg, seed=0)
    with pytest.raises(ShapeError):
        attended_pair(np.ones((2, 4)), np.ones((3, 4)), w)
    with pytest.raises(ShapeError):
        pair_distances(np.ones((3, 4)), np.ones((2, 3, 5)), w)


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha,beta", [(0.01, 0.1), (0.0, 1.0), (0.3, 0.5)])
def test_batch_loss_matches_scalar_reference(alpha, beta):
    cfg = RerankerConfig(s=3, d=5, num_classes=4, heads=2, hidden=8, blocks=2, mlp_hidden=6)
    w = init_weights(cfg, seed=13, dtype=np.float64)
    batch = random_batch(cfg, B=4, seed=21)
    got = batch_loss(batch, w, alpha=alpha, beta=beta)
    want = ref_batch_loss(batch, w, alpha=alpha, beta=beta)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_batch_loss_float32_weights_still_match_reference():
    # distances and CE are evaluated in float64 even for float32 parameters
    cfg = RerankerConfig(s=2, d=4, num_classes=3, heads=1, hidden=4, mlp_hidden=4)
    w = init_weights(cfg, seed=1, dtype=np.float32)
    batch = random_batch(cfg, B=3, seed=2, dtype=np.float32)
    got = batch_loss(batch, w, alpha=0.01, beta=0.1)
    want = ref_batch_loss(batch, w, alpha=0.01, beta=0.1)
    assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def fd_gradient(batch, weights, alpha, beta, name, index, h=1e-5):
    arr = weights.params()[name]
    flat = arr.reshape(-1)
    old = flat[index]
    flat[index] = old + h
    up = batch_loss(batch, weights, alpha, beta)
    flat[index] = old - h
    down = batch_loss(batch, weights, alpha, beta)
    flat[index] = old
    return (up - down) / (2 * h)


def test_gradients_match_finite_differences_spot():
    """Dense check of one small config; the wide sweep is in acceptance."""
    cfg = RerankerConfig(s=3, d=4, num_classes=3, heads=2, hidden=8, blocks=2, mlp_hidden=5)
    w = init_weights(cfg, seed=17, dtype=np.float64)
    batch = random_batch(cfg, B=2, seed=23)
    _, grads = forward_backward(batch, w, alpha=0.05, beta=0.1)
    rng = np.random.default_rng(0)
    worst = 0.0
    for name, g in grads.items():
        idxs = rng.choice(g.size, size=min(6, g.size), replace=False)
        for idx in idxs:
            fd = fd_gradient(batch, w, 0.05, 0.1, name, idx)
            a = g.reshape(-1)[idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-4)
            worst = max(worst, rel)
    assert worst <= 1e-4


def test_gradients_cover_every_parameter():
    cfg = RerankerConfig(s=2, d=3, num_classes=2, heads=1, hidden=4, blocks=2, mlp_hidden=4)
    w = init_weights(cfg, seed=5, dtype=np.float64)
    batch = random_batch(cfg, B=2, seed=6)
    loss, grads = forward_backward(batch, w, alpha=0.01, beta=0.1)
    assert math.isfinite(loss)
    assert set(grads) == set(w.params())
    # with this much data touching every path, no gradient is identically
    # zero but the key biases', which softmax ignores
    nonzero = [n for n, g in grads.items() if np.any(g != 0)]
    assert set(nonzero) == set(grads) - {"block0.b_k", "block1.b_k"}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_key_bias_gradient_is_exactly_zero(dtype):
    # a key bias adds the same q.b_k to every score of a query row, so its
    # exact gradient is zero; the backward pass adds nothing for it, not
    # even rounding noise, while the other biases get theirs
    cfg = RerankerConfig(s=3, d=4, num_classes=3, heads=2, hidden=8, blocks=2, mlp_hidden=5)
    w = init_weights(cfg, seed=3, dtype=dtype)
    batch = random_batch(cfg, B=4, seed=8, dtype=dtype)
    _, grads = forward_backward(batch, w, alpha=0.05, beta=0.1)
    for i in range(cfg.blocks):
        assert not grads[f"block{i}.b_k"].any()
        assert grads[f"block{i}.b_q"].any() and grads[f"block{i}.b_v"].any()


def test_alpha_zero_losses_drop_classifier_gradients():
    cfg = RerankerConfig(s=2, d=3, num_classes=2, heads=1, hidden=4, mlp_hidden=4)
    w = init_weights(cfg, seed=5, dtype=np.float64)
    batch = random_batch(cfg, B=2, seed=6)
    _, grads = forward_backward(batch, w, alpha=0.0, beta=0.1)
    assert np.all(grads["cls.w1"] == 0) and np.all(grads["cls.w2"] == 0)
    assert np.any(grads["block0.w_q"] != 0)


def test_batch_forward_validations():
    cfg = RerankerConfig(s=2, d=3, num_classes=2, heads=1, hidden=4, mlp_hidden=4)
    w = init_weights(cfg, seed=0)
    good = random_batch(cfg, B=2, seed=1)
    bad_labels = TripletBatch(good.probe, good.pos, good.neg, np.full((2, 3), 5))
    with pytest.raises(ValueError):
        batch_loss(bad_labels, w, alpha=0.01, beta=0.1)
    bad_shape = TripletBatch(good.probe[:, :1], good.pos[:, :1], good.neg[:, :1], good.labels)
    with pytest.raises(ShapeError):
        batch_loss(bad_shape, w, alpha=0.01, beta=0.1)


# ---------------------------------------------------------------------------
# one compute dtype; each distinct map projected once
# ---------------------------------------------------------------------------


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    else:
        for item in obj:
            yield from _arrays(item)


def test_engine_computes_in_the_parameters_dtype():
    cfg = RerankerConfig(s=4, d=6, num_classes=3, heads=2, hidden=8, blocks=2, mlp_hidden=5)
    w = init_weights(cfg, seed=3)
    batch = random_batch(cfg, B=3, seed=4, dtype=np.float32)
    maps, index = batch.unique_maps()
    out, caches = _attention_forward(maps, index[:, 0], index[:, 1], w, want_cache=True)
    arrays = [out, *_arrays(caches)]
    assert len(arrays) == 3 + 5 * cfg.blocks
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    _, grads = forward_backward(batch, w, alpha=0.01, beta=0.1)
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}

    x, kv = batch.probe[0], batch.pos[0]
    for dtype in (np.float32, np.float64):
        # float32 weights: float32 maps stay float32, float64 maps widen
        e_p, e_c = attended_pair(x.astype(dtype), kv.astype(dtype), w)
        assert e_p.dtype == e_c.dtype == dtype


def test_indexed_batch_matches_explicit_maps_and_reference():
    cfg = RerankerConfig(s=3, d=4, num_classes=4, heads=2, hidden=6, blocks=2, mlp_hidden=5)
    w = init_weights(cfg, seed=8, dtype=np.float64)
    rng = np.random.default_rng(12)
    strips = {name: rng.standard_normal((3, 4)) for name in "abcdefgh"}
    labels = {name: i % 4 for i, name in enumerate(strips)}
    # "a" probes three triplets; "c" is a negative, then a positive
    triplets = [
        Triplet("a", "b", "c"),
        Triplet("a", "c", "d"),
        Triplet("e", "a", "b"),
        Triplet("a", "b", "f"),
    ]
    # "g" and "h" are stacked but unused, so unused rows must not matter
    names = sorted(strips)
    row = {name: r for r, name in enumerate(names)}
    ids = [i for t in triplets for i in (t.probe_id, t.pos_id, t.neg_id)]
    indexed = IndexedBatch(
        maps=np.stack([strips[name] for name in names]),
        index=np.array([row[i] for i in ids]).reshape(-1, 3),
        labels=np.array([labels[i] for i in ids]).reshape(-1, 3),
    )
    assert len(indexed.unique_maps()[0]) == 6
    explicit = TripletBatch(
        probe=np.stack([strips[t.probe_id].copy() for t in triplets]),
        pos=np.stack([strips[t.pos_id].copy() for t in triplets]),
        neg=np.stack([strips[t.neg_id].copy() for t in triplets]),
        labels=indexed.labels.copy(),
    )
    loss, grads = forward_backward(indexed, w, alpha=0.3, beta=0.2)
    want_loss, want_grads = forward_backward(explicit, w, alpha=0.3, beta=0.2)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert loss == pytest.approx(ref_batch_loss(explicit, w, 0.3, 0.2), rel=1e-12)
    assert batch_loss(indexed, w, alpha=0.3, beta=0.2) == loss
    assert list(grads) == list(want_grads)
    for name, want in want_grads.items():
        # the true b_k gradient is zero (softmax ignores a key bias): only
        # rounding noise remains there, hence the absolute floor
        np.testing.assert_allclose(grads[name], want, rtol=1e-12, atol=1e-15, err_msg=name)
    assert np.abs(want_grads["block0.w_k"]).max() > 1e-3


def test_repeated_and_swapped_pairs_match_the_expanded_batch_and_reference():
    cfg = RerankerConfig(s=3, d=4, num_classes=4, heads=2, hidden=6, blocks=2, mlp_hidden=5)
    w = init_weights(cfg, seed=4, dtype=np.float64)
    rng = np.random.default_rng(31)
    maps = rng.standard_normal((6, 3, 4))
    labels = np.array([0, 1, 2, 3, 0, 1])
    # rows repeat; (0, 1) is attended as a positive pair both ways round,
    # (1, 2) as a negative pair both ways round, and (0, 3) is a positive
    # pair in one triplet and a negative pair in another
    index = np.array([[0, 1, 2], [1, 0, 2], [0, 1, 3], [2, 4, 1], [0, 3, 4], [4, 5, 0],
                      [0, 1, 2]])
    batch = IndexedBatch(maps, index, labels[index])
    expanded = TripletBatch(batch.probe, batch.pos, batch.neg, batch.labels)
    for alpha in (0.0, 0.4):
        loss, grads = forward_backward(batch, w, alpha=alpha, beta=0.3)
        want_loss, want_grads = forward_backward(expanded, w, alpha=alpha, beta=0.3)
        assert loss == pytest.approx(ref_batch_loss(expanded, w, alpha, 0.3), rel=1e-12)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert list(grads) == list(want_grads)
        for name, want in want_grads.items():
            np.testing.assert_allclose(grads[name], want, rtol=1e-10, atol=1e-13, err_msg=name)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_a_triplet_repeated_b_times_counts_b_times(alpha):
    cfg = RerankerConfig(s=3, d=4, num_classes=3, heads=2, hidden=8, blocks=2, mlp_hidden=5)
    w = init_weights(cfg, seed=6, dtype=np.float64)
    one = random_batch(cfg, B=1, seed=7)
    B = 5
    repeated = IndexedBatch(one.maps, np.repeat(one.index, B, axis=0),
                            np.repeat(one.labels, B, axis=0))
    # the ranking term sums over triplets; the cross-entropy term is a mean,
    # so repeats leave it as it is
    rank_loss, rank_grads = forward_backward(one, w, alpha=0.0, beta=0.1)
    loss1, grads1 = forward_backward(one, w, alpha=alpha, beta=0.1)
    loss, grads = forward_backward(repeated, w, alpha=alpha, beta=0.1)
    assert loss == pytest.approx((B - 1) * rank_loss + loss1, rel=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(g, (B - 1) * rank_grads[name] + grads1[name],
                                   rtol=1e-10, atol=1e-13, err_msg=name)


def _harness_batch(s, d, seed=0):
    """32 x 4 triplets drawn from 40 identities x 6 float32 maps, the size
    of the acceptance harness's batches."""
    rng = np.random.default_rng(seed)
    index = rng.integers(0, 240, size=(128, 3))
    return IndexedBatch(rng.standard_normal((240, s, d)).astype(np.float32), index, index // 6)


@pytest.mark.parametrize("s, d", [(8, 16), (16, 64)])
def test_forward_backward_peak_fits_the_batch_arrays_it_needs(s, d):
    cfg = RerankerConfig(s=s, d=d, num_classes=40, heads=4, hidden=64, mlp_hidden=64)
    w = init_weights(cfg, seed=1)
    batch = _harness_batch(s, d)
    forward_backward(batch, w, alpha=0.01, beta=0.1)
    tracemalloc.start()
    try:
        forward_backward(batch, w, alpha=0.01, beta=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # N directions: each distinct pair of rows, attended both ways
    p, pos, neg = batch.index.T
    pairs = np.sort(np.stack([np.r_[p, p], np.r_[pos, neg]], axis=1), axis=1)
    N, H = 2 * len(np.unique(pairs, axis=0)), cfg.heads
    wide = N * s * H * d * 4  # one (N*s, H*d) array: concat, d ctx or d q
    scores = N * H * s * s * 4  # attn or d scores
    stack = N * s * d * 8  # one float64 (N, s, d) stack
    # two wide arrays, one score array and five float64 stacks at once: a
    # step that holds concat, d ctx and d q, or both score arrays, at once
    # exceeds it
    assert peak < 2 * wide + scores + 5 * stack, (peak, N)


@pytest.mark.parametrize("blocks", [1, 2])
def test_forward_backward_repeats_bitwise_and_returns_unshared_gradients(blocks):
    cfg = RerankerConfig(s=8, d=16, num_classes=40, heads=4, hidden=64, blocks=blocks,
                         mlp_hidden=64)
    w = init_weights(cfg, seed=2)
    batch = _harness_batch(8, 16, seed=3)
    loss, grads = forward_backward(batch, w, alpha=0.01, beta=0.1)
    again, grads_again = forward_backward(batch, w, alpha=0.01, beta=0.1)
    assert np.float64(loss).tobytes() == np.float64(again).tobytes()
    assert list(grads) == list(grads_again)
    for name, g in grads.items():
        assert g.tobytes() == grads_again[name].tobytes(), name
    held = [batch.maps, batch.index, batch.labels, *w.params().values()]
    arrays = list(grads.values())
    for i, g in enumerate(arrays):
        assert not any(np.shares_memory(g, other) for other in arrays[i + 1 :] + held)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_roundtrip_bit_exact(tmp_path, dtype):
    cfg = RerankerConfig(s=3, d=4, num_classes=5, heads=2, hidden=6, blocks=2, mlp_hidden=7)
    w = init_weights(cfg, seed=31, dtype=dtype)
    path = tmp_path / "model.cgrk"
    save_checkpoint(w, path, metadata={"seed": 31, "note": "unit"})
    back, cfg2, meta = load_checkpoint(path)
    assert cfg2 == cfg
    assert meta == {"seed": 31, "note": "unit"}
    for (na, a), (nb, b) in zip(w.params().items(), back.params().items()):
        assert na == nb
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def test_checkpoint_corruption_detection(tmp_path):
    cfg = RerankerConfig(s=2, d=3, num_classes=2, heads=1, hidden=4, mlp_hidden=4)
    w = init_weights(cfg, seed=2)
    path = tmp_path / "model.cgrk"
    save_checkpoint(w, path)
    blob = path.read_bytes()

    path.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)
    path.write_bytes(blob[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.cgrk")


def test_checkpoint_missing_metadata_is_empty(tmp_path):
    cfg = RerankerConfig(s=2, d=3, num_classes=2, heads=1, hidden=4, mlp_hidden=4)
    w = init_weights(cfg, seed=2)
    path = tmp_path / "model.cgrk"
    save_checkpoint(w, path)
    (tmp_path / "model.cgrk.meta.json").unlink()
    _, _, meta = load_checkpoint(path)
    assert meta == {}


def test_projections_past_float32_raise_only_the_non_finite_error():
    # finite float32 weights whose products overflow: the test suite
    # raises numpy's RuntimeWarnings, so an overflow or invalid warning
    # would surface here in place of the error
    cfg = RerankerConfig(s=4, d=6, num_classes=3, heads=2, hidden=8, mlp_hidden=8)
    w = init_weights(cfg, seed=0)
    for name in ("w_q", "w_k", "w_v", "w_o"):
        w.block(0)[name][...] = 3e30
    maps = np.random.default_rng(4).standard_normal((3, cfg.s, cfg.d)).astype(np.float32)
    with pytest.raises(NonFiniteError, match="^pair_distances produced non-finite values$"):
        pair_distances(maps[0], maps[1:], w)
