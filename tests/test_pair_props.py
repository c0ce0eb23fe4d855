"""Property tests of the pair models: ``pair_distances`` against per-pair
``rerank_distance`` calls across shapes and dtypes, the one shape rule
(``ParamStore.check_maps``) for any wrongly shaped input, and the
baseline's BCE gradients against central differences."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from gaitrerank.baseline import BaselineConfig, bce_forward_backward, init_baseline
from gaitrerank.errors import ShapeError
from gaitrerank.reranker import (
    RerankerConfig,
    attended_pair,
    init_weights,
    pair_distances,
    rerank_distance,
)

DTYPES = {"float32": np.float32, "float64": np.float64}


@settings(max_examples=40, deadline=None)
@given(
    s=st.integers(1, 8), d=st.integers(1, 24), heads=st.sampled_from([1, 2, 4]),
    head_dim=st.integers(1, 16), blocks=st.integers(1, 2), m=st.integers(1, 40),
    dtype=st.sampled_from(sorted(DTYPES)), seed=st.integers(0, 2**32 - 1),
)
# the shape at which the batched GEMMs round differently from per-pair ones
@example(s=8, d=24, heads=4, head_dim=16, blocks=1, m=40, dtype="float32", seed=100)
def test_pair_distances_agree_with_per_pair_calls(s, d, heads, head_dim, blocks, m, dtype,
                                                   seed):
    dtype = DTYPES[dtype]
    cfg = RerankerConfig(s=s, d=d, num_classes=2, heads=heads, hidden=heads * head_dim,
                         blocks=blocks, mlp_hidden=4)
    w = init_weights(cfg, seed=seed % 1000, dtype=dtype)
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal((s, d)).astype(dtype)
    cands = rng.standard_normal((m, s, d)).astype(dtype)
    batched = pair_distances(probe, cands, w)
    assert batched.dtype == np.float64 and batched.shape == (m,)
    singles = np.array([rerank_distance(probe, c, w) for c in cands])
    # the two paths' conditioned maps differ by a few ulps of their rows'
    # norms; by the triangle inequality a distance then moves by at most
    # about that much, however small the distance itself is
    scale = np.array([sum(np.linalg.norm(e.astype(np.float64), axis=1).mean()
                          for e in attended_pair(probe, c, w)) for c in cands])
    assert np.all(np.abs(batched - singles) <= 64 * np.finfo(dtype).eps * scale)


shape = st.lists(st.integers(1, 6), min_size=0, max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(s=st.integers(1, 5), d=st.integers(1, 5), probe_shape=shape, cand_shape=shape,
       m=st.integers(1, 3))
def test_any_wrong_shape_gets_the_one_wording(s, d, probe_shape, cand_shape, m):
    w = init_weights(RerankerConfig(s=s, d=d, num_classes=2, heads=1, hidden=2, mlp_hidden=2),
                     seed=0)
    want = (s, d)
    # the probe is checked first, then one candidate map
    bad = [(what, got) for what, got in (("probe", probe_shape), ("candidate", cand_shape))
           if got != want]
    probe, cands = np.ones(probe_shape), np.ones((m, *cand_shape))
    if not bad:
        assert pair_distances(probe, cands, w).shape == (m,)
        return
    what, got = bad[0]
    message = f"{what} maps are {got}, the model declares {want}"
    with pytest.raises(ShapeError) as info:
        pair_distances(probe, cands, w)
    assert str(info.value) == message
    with pytest.raises(ShapeError) as info:
        rerank_distance(probe, np.ones(cand_shape), w)
    assert str(info.value) == message


@settings(max_examples=40, deadline=None)
@given(s=st.integers(1, 4), d=st.integers(1, 4), hidden=st.integers(1, 8),
       labels=st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_bce_gradients_match_central_differences_across_shapes(s, d, hidden, labels, seed):
    # gate 1's rule: h = 1e-5, relative error <= 1e-4 with a 1e-4 floor
    w = init_baseline(BaselineConfig(s=s, d=d, hidden=hidden), seed=seed % 1000,
                      dtype=np.float64)
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, len(labels), s, d))
    y = np.array(labels)
    _, grads = bce_forward_backward(a, b, y, w)
    h = 1e-5
    for name, grad in grads.items():
        flat = w.params()[name].reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + h
            up, _ = bce_forward_backward(a, b, y, w, want_grads=False)
            flat[idx] = old - h
            down, _ = bce_forward_backward(a, b, y, w, want_grads=False)
            flat[idx] = old
            fd, an = (up - down) / (2 * h), grad.reshape(-1)[idx]
            assert abs(an - fd) / max(abs(an), abs(fd), 1e-4) <= 1e-4, (name, idx)
