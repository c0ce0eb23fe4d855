"""Property test of the training loop's row sampler: over random training
sets (ragged positive and negative counts, ineligible entries, batches
both larger and smaller than the eligible count) the batches both models
train on are exactly ``make_batch(sample_triplets(...))`` from the same
generator, ``sample_triplets`` draws as a per-triplet sampler over the
entries would, and the fixed validation batch holds the rows of a
per-triplet id draw."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from gaitrerank import baseline, training
from gaitrerank.feature_store import FeatureSet
from gaitrerank.reranker import RerankerConfig
from gaitrerank.training import (TrainConfig, TrainingEntry, TrainingSet, Triplet, make_batch,
                                 referenced_sequences, sample_triplets)

POOL = [f"s{i}" for i in range(9)]


@st.composite
def training_sets(draw):
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        probe = draw(st.sampled_from(POOL))
        others = draw(st.permutations([s for s in POOL if s != probe]))
        cands = others[: draw(st.integers(1, len(others)))]
        flags = draw(st.lists(st.booleans(), min_size=len(cands), max_size=len(cands)))
        entries.append(TrainingEntry(probe, tuple(cands), tuple(0.1 * np.arange(len(cands))),
                                     tuple(flags)))
    return TrainingSet(tuple(entries), v=2)


def per_triplet_sample(ts, cfg, rng):
    """sample_triplets as a loop over entries: one scalar draw per index."""
    eligible = [e for e in ts.entries if any(e.positive) and not all(e.positive)]
    probes = rng.choice(len(eligible), size=cfg.batch_probes,
                        replace=len(eligible) < cfg.batch_probes)
    out = []
    for i in probes:
        e = eligible[int(i)]
        pos = [c for c, p in zip(e.candidate_ids, e.positive) if p]
        neg = [c for c, p in zip(e.candidate_ids, e.positive) if not p]
        for _ in range(cfg.triplets_per_probe):
            out.append(Triplet(e.probe_id, pos[int(rng.integers(len(pos)))],
                               neg[int(rng.integers(len(neg)))]))
    return out


def per_triplet_val_rows(ts, cfg, features, rng):
    """The validation batch's index as a loop of per-triplet id draws."""
    eligible = [e for e in ts.entries if any(e.positive) and not all(e.positive)]
    ids = []
    for _ in range(cfg.val_triplets):
        e = eligible[int(rng.integers(len(eligible)))]
        pos = [c for c, p in zip(e.candidate_ids, e.positive) if p]
        neg = [c for c, p in zip(e.candidate_ids, e.positive) if not p]
        ids += e.probe_id, pos[int(rng.integers(len(pos)))], neg[int(rng.integers(len(neg)))]
    return np.array([features.row_of[i] for i in ids]).reshape(-1, 3)


@settings(deadline=None)
@given(train_ts=training_sets(), val_ts=training_sets(), data=st.data(),
       model=st.sampled_from(["reranker", "baseline"]))
def test_the_loop_trains_on_make_batch_of_sample_triplets(train_ts, val_ts, data, model):
    n_eligible = len(train_ts.eligible_entries())
    assume(n_eligible and val_ts.eligible_entries())
    # features hold every pool id in a drawn order, so rows differ from
    # positions in the sorted ids
    order = data.draw(st.permutations(POOL))
    identity = {sid: f"p{data.draw(st.integers(0, 3))}" for sid in sorted(POOL)}
    strips = np.random.default_rng(0).standard_normal((len(POOL), 2, 2)).astype(np.float32)
    features = FeatureSet(strips, tuple(order), tuple(identity[s] for s in order))
    cfg = TrainConfig(batch_probes=data.draw(st.integers(1, 2 * n_eligible + 1)),
                      triplets_per_probe=data.draw(st.integers(1, 3)), iterations=3, t_val=2,
                      val_triplets=data.draw(st.integers(1, 6)), seed=data.draw(st.integers(0, 9)))
    referenced = sorted(referenced_sequences(train_ts))
    if model == "reranker":
        classes = sorted({identity[s] for s in referenced})
        labels = {s: classes.index(identity[s]) for s in referenced}
    else:
        labels = dict.fromkeys(referenced, 0)

    seen = []
    if model == "reranker":
        real = training.forward_backward

        def step(batch, w, **kwargs):
            seen.append(batch)
            return real(batch, w, **kwargs)

        with mock.patch.object(training, "forward_backward", step):
            training.train(train_ts, val_ts, features, cfg, model=RerankerConfig(
                s=2, d=2, num_classes=4, heads=1, hidden=2, mlp_hidden=2))
    else:
        real = baseline._pair_bce

        def step(batch, w, want_grads=True):
            if want_grads:
                seen.append(batch)
            return real(batch, w, want_grads=want_grads)

        with mock.patch.object(baseline, "_pair_bce", step):
            baseline.train_baseline(train_ts, val_ts, features, cfg, hidden=2)

    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(3)]
    rng, ref = np.random.default_rng(seeds[1]), np.random.default_rng(seeds[1])
    assert len(seen) == cfg.iterations
    for batch in seen:
        triplets = sample_triplets(train_ts, cfg, rng)
        assert triplets == per_triplet_sample(train_ts, cfg, ref)
        want = make_batch(triplets, features, labels)
        assert batch.maps is features.strips
        for got, exp in ((batch.index, want.index), (batch.labels, want.labels)):
            assert got.dtype == exp.dtype and got.shape == exp.shape
            np.testing.assert_array_equal(got, exp)

    val = training._fixed_val_batch(val_ts, cfg, features, np.random.default_rng(seeds[2]))
    want = per_triplet_val_rows(val_ts, cfg, features, np.random.default_rng(seeds[2]))
    assert val.maps is features.strips and val.index.dtype == np.intp
    np.testing.assert_array_equal(val.index, want)
    np.testing.assert_array_equal(val.labels, np.zeros((cfg.val_triplets, 3)))
