import math

import numpy as np
import pytest

from gaitrerank.errors import FormatError, NonFiniteError, ShapeError
from gaitrerank.ranking import strip_mean_distance
from gaitrerank.reranker import (
    RerankerConfig,
    TripletBatch,
    _attention_forward,
    attended_pair,
    batch_loss,
    classify,
    cross_attend,
    forward_backward,
    init_weights,
    load_checkpoint,
    pair_distances,
    rerank_distance,
    save_checkpoint,
)
from gaitrerank.training import MapStack, Triplet, make_batch


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


@pytest.mark.parametrize("heads,blocks", [(1, 1), (2, 1), (2, 2)])
def test_cross_attend_matches_scalar_reference(heads, blocks):
    cfg = RerankerConfig(s=4, d=6, num_classes=3, heads=heads, hidden=8, blocks=blocks, mlp_hidden=5)
    w = init_weights(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 6))
    kv = rng.standard_normal((4, 6))
    got = cross_attend(x, kv, w)
    want = ref_cross_attend(x, kv, w)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_attended_pair_uses_shared_weights_both_directions():
    cfg = RerankerConfig(s=3, d=4, num_classes=2, heads=2, hidden=8, mlp_hidden=4)
    w = init_weights(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(5)
    p = rng.standard_normal((3, 4))
    c = rng.standard_normal((3, 4))
    pair = attended_pair(p, c, w)
    np.testing.assert_array_equal(pair.e_p, cross_attend(p, c, w))
    np.testing.assert_array_equal(pair.e_c, cross_attend(c, p, w))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zeroed_attention_is_identity(dtype):
    """With zeroed projections the conditioned map is bitwise the input."""
    cfg = RerankerConfig(s=4, d=5, num_classes=3, heads=1, hidden=4, blocks=2, mlp_hidden=4)
    w = init_weights(cfg, seed=0).zero_attention()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 5)).astype(dtype)
    kv = rng.standard_normal((4, 5)).astype(dtype)
    out = cross_attend(x, kv, w)
    assert out.tobytes() == x.astype(out.dtype).tobytes()
    assert rerank_distance(x, kv, w) == strip_mean_distance(x, kv)


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


def test_shape_guards():
    cfg = RerankerConfig(s=3, d=4, num_classes=2, heads=1, hidden=4, mlp_hidden=4)
    w = init_weights(cfg, seed=0)
    with pytest.raises(ShapeError):
        cross_attend(np.ones((2, 4)), np.ones((3, 4)), w)
    with pytest.raises(ShapeError):
        pair_distances(np.ones((3, 4)), np.ones((2, 3, 5)), w)
    with pytest.raises(ShapeError):
        classify(np.ones((4, 4)), w)


def test_classify_matches_hand_mlp():
    cfg = RerankerConfig(s=2, d=3, num_classes=4, heads=1, hidden=4, mlp_hidden=5)
    w = init_weights(cfg, seed=11, dtype=np.float64)
    e = np.random.default_rng(0).standard_normal((2, 3))
    logits = classify(e, w)
    p = w.params()
    want = np.tanh(e.mean(axis=0) @ p["cls.w1"] + p["cls.b1"]) @ p["cls.w2"] + p["cls.b2"]
    np.testing.assert_allclose(logits, want, rtol=1e-12)
    assert logits.shape == (4,)


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
    # with this much data touching every path, no gradient is identically zero
    nonzero = [n for n, g in grads.items() if np.any(g != 0)]
    assert set(nonzero) == set(grads)


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


def test_non_finite_input_names_a_triplet():
    cfg = RerankerConfig(s=2, d=3, num_classes=2, heads=1, hidden=4, mlp_hidden=4)
    w = init_weights(cfg, seed=0, dtype=np.float64)
    batch = random_batch(cfg, B=3, seed=1)
    batch.probe[1, 0, 0] = np.nan
    with pytest.raises(NonFiniteError, match="triplet"):
        batch_loss(batch, w, alpha=0.01, beta=0.1)


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
    assert len(arrays) == 1 + 7 * cfg.blocks
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    _, grads = forward_backward(batch, w, alpha=0.01, beta=0.1)
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}

    x, kv = batch.probe[0], batch.pos[0]
    for dtype in (np.float32, np.float64):
        # float32 weights: float32 maps stay float32, float64 maps widen
        pair = attended_pair(x.astype(dtype), kv.astype(dtype), w)
        assert cross_attend(x.astype(dtype), kv.astype(dtype), w).dtype == dtype
        assert pair.e_p.dtype == pair.e_c.dtype == dtype


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
    stack = MapStack.of(strips, sorted(strips))
    indexed = make_batch(triplets, stack, labels)
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


def test_checkpoint_expected_config_guard(tmp_path):
    cfg = RerankerConfig(s=3, d=4, num_classes=5, heads=2, hidden=6, mlp_hidden=7)
    w = init_weights(cfg, seed=1)
    path = tmp_path / "model.cgrk"
    save_checkpoint(w, path)
    other = RerankerConfig(s=3, d=4, num_classes=6, heads=2, hidden=6, mlp_hidden=7)
    with pytest.raises(ShapeError):
        load_checkpoint(path, expected_config=other)
    loaded, _, _ = load_checkpoint(path, expected_config=cfg)
    assert loaded.config == cfg


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
