"""Property test of the training step's distinct-pair batch: an
``IndexedBatch`` whose rows repeat maps and attend pairs both ways round
gives the loss and gradients of its expanded ``TripletBatch``, where every
map counts as distinct."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gaitrerank.reranker import IndexedBatch, RerankerConfig, TripletBatch, forward_backward, init_weights


@st.composite
def batches(draw):
    n = draw(st.integers(2, 6))
    row = st.tuples(*[st.integers(0, n - 1)] * 3)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    # each extra row repeats a row, or attends its positive or its
    # negative pair the other way round
    for kind, i in draw(st.lists(st.tuples(st.sampled_from(["repeat", "pos", "neg"]),
                                           st.integers(0, len(rows) - 1)), max_size=6)):
        p, q, r = rows[i]
        rows.append({"repeat": (p, q, r), "pos": (q, p, r), "neg": (r, q, p)}[kind])
    return n, np.array(rows)


@settings(max_examples=50, deadline=None)
@given(
    batch=batches(), s=st.integers(1, 4), d=st.integers(1, 5), heads=st.sampled_from([1, 2]),
    head_dim=st.integers(1, 3), blocks=st.integers(1, 2), classes=st.integers(1, 4),
    alpha=st.sampled_from([0.0, 0.4]), seed=st.integers(0, 2**32 - 1),
)
def test_distinct_pair_batch_matches_its_expanded_batch(batch, s, d, heads, head_dim, blocks,
                                                        classes, alpha, seed):
    n, index = batch
    cfg = RerankerConfig(s=s, d=d, num_classes=classes, heads=heads, hidden=heads * head_dim,
                         blocks=blocks, mlp_hidden=3)
    w = init_weights(cfg, seed=seed % 1000, dtype=np.float64)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    indexed = IndexedBatch(rng.standard_normal((n, s, d)), index, labels[index])
    expanded = TripletBatch(indexed.probe, indexed.pos, indexed.neg, indexed.labels)
    loss, grads = forward_backward(indexed, w, alpha=alpha, beta=0.3)
    want_loss, want_grads = forward_backward(expanded, w, alpha=alpha, beta=0.3)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert list(grads) == list(want_grads)
    for name, want in want_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=1e-10, atol=1e-13, err_msg=name)
