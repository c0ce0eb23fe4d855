import math
import platform

import numpy as np
import pytest

import gaitrerank.training as training
from gaitrerank.errors import DataError, MissingIdError
from gaitrerank.feature_store import FeatureSet
from gaitrerank.reranker import RerankerConfig, batch_loss, init_weights
from gaitrerank.training import (
    TrainConfig,
    TrainingEntry,
    TrainingSet,
    Triplet,
    adamw_step,
    build_training_set,
    init_adamw,
    make_batch,
    ranking_loss,
    read_training_log,
    read_training_set,
    referenced_sequences,
    sample_triplets,
    split_train_val,
    train,
    validation_loss,
    write_training_log,
    write_training_set,
)

from conftest import make_maps


def entry(probe, cands, dists, pos):
    return TrainingEntry(
        probe_id=probe,
        candidate_ids=tuple(cands),
        distances=tuple(dists),
        positive=tuple(pos),
    )


# ---------------------------------------------------------------------------
# splits and training-set construction
# ---------------------------------------------------------------------------


def test_split_train_val_partitions_identities():
    fs = FeatureSet.from_entries(make_maps(20, 2, 3, 4, seed=1))
    tr, va = split_train_val(fs, val_fraction=0.10)
    assert tr.partition == "train" and va.partition == "val"
    assert len(tr.identities()) == 18 and len(va.identities()) == 2
    assert set(tr.identities()).isdisjoint(va.identities())
    # the split is by sorted identity, so it is stable across calls
    tr2, va2 = split_train_val(fs, val_fraction=0.10)
    assert tr.ids() == tr2.ids() and va.ids() == va2.ids()
    assert va.identities() == ["id018", "id019"]


def test_split_train_val_requires_enough_identities():
    fs = FeatureSet.from_entries(make_maps(9, 2, 2, 2))
    with pytest.raises(DataError):
        split_train_val(fs)


def test_build_training_set_lists_are_truncated_and_sorted():
    fs = FeatureSet.from_entries(make_maps(12, 3, 3, 4, seed=2))
    ts = build_training_set(fs, v=7)
    assert ts.v == 7
    idmap = fs.identity_map()
    for e in ts.entries:
        assert len(e.candidate_ids) == 7
        assert e.probe_id not in e.candidate_ids
        assert list(e.distances) == sorted(e.distances)
        for cid, is_pos in zip(e.candidate_ids, e.positive):
            assert is_pos == (idmap[cid] == idmap[e.probe_id])


def test_training_set_roundtrip(tmp_path):
    fs = FeatureSet.from_entries(make_maps(10, 2, 2, 3, seed=3))
    ts = build_training_set(fs, v=5)
    path = tmp_path / "train.jsonl"
    write_training_set(ts, path)
    back = read_training_set(path)
    assert back == ts
    assert referenced_sequences(back) == referenced_sequences(ts)


def test_eligibility_requires_a_positive_and_a_negative():
    e_ok = entry("p", ["a", "b"], [0.1, 0.2], [True, False])
    e_all_pos = entry("q", ["c", "d"], [0.1, 0.2], [True, True])
    e_all_neg = entry("r", ["e", "f"], [0.1, 0.2], [False, False])
    ts = TrainingSet(entries=(e_ok, e_all_pos, e_all_neg), v=2)
    assert [e.probe_id for e in ts.eligible_entries()] == ["p"]


# ---------------------------------------------------------------------------
# triplet sampling and batching
# ---------------------------------------------------------------------------


def eligible_ts(n_probes, n_pos=2, n_neg=3):
    entries = []
    for i in range(n_probes):
        cands = [f"pos{i}-{j}" for j in range(n_pos)] + [f"neg{i}-{j}" for j in range(n_neg)]
        entries.append(
            entry(
                f"probe{i}",
                cands,
                [0.1 * (j + 1) for j in range(n_pos + n_neg)],
                [True] * n_pos + [False] * n_neg,
            )
        )
    return TrainingSet(entries=tuple(entries), v=n_pos + n_neg)


def test_sample_triplets_counts_and_membership():
    ts = eligible_ts(40)
    cfg = TrainConfig(batch_probes=8, triplets_per_probe=3)
    trips = sample_triplets(ts, cfg, np.random.default_rng(0))
    assert len(trips) == 24
    probes = [t.probe_id for t in trips[::3]]
    assert len(set(probes)) == 8  # without replacement when enough eligible
    for t in trips:
        i = t.probe_id.removeprefix("probe")
        assert t.pos_id.startswith(f"pos{i}-")
        assert t.neg_id.startswith(f"neg{i}-")


def test_sample_triplets_with_replacement_when_short():
    ts = eligible_ts(3)
    cfg = TrainConfig(batch_probes=8, triplets_per_probe=1)
    trips = sample_triplets(ts, cfg, np.random.default_rng(0))
    assert len(trips) == 8


def test_sample_triplets_deterministic():
    ts = eligible_ts(20)
    cfg = TrainConfig(batch_probes=4, triplets_per_probe=2)
    a = sample_triplets(ts, cfg, np.random.default_rng(7))
    b = sample_triplets(ts, cfg, np.random.default_rng(7))
    assert a == b


def test_sample_triplets_draws_as_the_uncached_sampler():
    def uncached(ts, cfg, rng):
        eligible = tuple(e for e in ts.entries if any(e.positive) and not all(e.positive))
        replace = len(eligible) < cfg.batch_probes
        idx = rng.choice(len(eligible), size=cfg.batch_probes, replace=replace)
        out = []
        for i in idx:
            e = eligible[int(i)]
            pos = [c for c, p in zip(e.candidate_ids, e.positive) if p]
            neg = [c for c, p in zip(e.candidate_ids, e.positive) if not p]
            for _ in range(cfg.triplets_per_probe):
                out.append(Triplet(e.probe_id, pos[int(rng.integers(len(pos)))],
                                   neg[int(rng.integers(len(neg)))]))
        return out

    # entries of differing positive and negative counts, plus one ineligible
    entries = [
        entry(f"p{i}", [f"c{i}-{j}" for j in range(2 + i % 5)], [0.1] * (2 + i % 5),
              [j <= i % 3 for j in range(2 + i % 5)])
        for i in range(12)
    ]
    ts = TrainingSet(entries=tuple(entries) + (entry("x", ["a"], [0.1], [True]),), v=6)
    assert len({(len(e.positives), len(e.negatives)) for e in ts.eligible_entries()}) > 4
    for batch_probes in (4, 20):
        cfg = TrainConfig(batch_probes=batch_probes, triplets_per_probe=3)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            assert sample_triplets(ts, cfg, rng) == uncached(ts, cfg, ref)


def test_sample_triplets_no_eligible():
    ts = TrainingSet(entries=(entry("p", ["a"], [0.1], [True]),), v=1)
    with pytest.raises(DataError):
        sample_triplets(ts, TrainConfig(), np.random.default_rng(0))


def test_make_batch_shapes_and_missing_id():
    strips = {k: np.full((2, 3), i, dtype=np.float32) for i, k in enumerate("abc")}
    labels = {"a": 0, "b": 1, "c": 0}
    trips = [Triplet("a", "b", "c"), Triplet("b", "a", "c")]
    batch = make_batch(trips, strips, labels)
    assert batch.probe.shape == (2, 2, 3)
    assert batch.labels.tolist() == [[0, 1, 0], [1, 0, 0]]
    with pytest.raises(MissingIdError):
        make_batch([Triplet("a", "b", "zzz")], strips, labels)


# ---------------------------------------------------------------------------
# ranking loss
# ---------------------------------------------------------------------------


def test_ranking_loss_equal_distances_is_damped_ln2():
    assert abs(ranking_loss(1.3, 1.3, beta=0.1) - 0.1 * math.log(2.0)) <= 1e-12


def test_ranking_loss_beta_scaling_identity():
    # on correctly ranked triplets the damped loss is exactly beta * undamped
    d_pos, d_neg = 0.4, 1.9
    assert ranking_loss(d_pos, d_neg, beta=0.1) == 0.1 * ranking_loss(d_pos, d_neg, beta=1.0)


def test_ranking_loss_matches_closed_form_both_branches():
    for d_pos, d_neg, beta in [(2.0, 0.5, 0.1), (0.5, 2.0, 0.3), (1.0, 1.0, 0.7)]:
        x = d_neg - d_pos
        want = -math.log(1.0 / (1.0 + math.exp(-x)))
        if x >= 0:
            want *= beta
        assert abs(ranking_loss(d_pos, d_neg, beta=beta) - want) <= 1e-12


def test_ranking_loss_extreme_arguments_are_stable():
    assert ranking_loss(0.0, 60.0, beta=0.1) == pytest.approx(0.1 * math.exp(-60.0), rel=1e-6)
    assert ranking_loss(60.0, 0.0, beta=0.1) == pytest.approx(60.0, rel=1e-12)
    assert math.isfinite(ranking_loss(0.0, 800.0, beta=0.1))
    assert math.isfinite(ranking_loss(800.0, 0.0, beta=0.1))


def test_ranking_loss_vectorized():
    d_pos = np.array([1.0, 2.0, 0.1])
    d_neg = np.array([1.0, 0.5, 3.0])
    out = ranking_loss(d_pos, d_neg, beta=0.5)
    assert out.shape == (3,)
    for i in range(3):
        assert out[i] == ranking_loss(float(d_pos[i]), float(d_neg[i]), beta=0.5)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def test_adamw_matches_hand_recurrence():
    cfg = TrainConfig(lr=1e-2, weight_decay=0.05, beta1=0.8, beta2=0.9, eps=1e-8)
    model = RerankerConfig(s=2, d=3, num_classes=2, heads=1, hidden=4, mlp_hidden=4)
    w = init_weights(model, seed=4, dtype=np.float64)
    ref = {k: p.copy() for k, p in w.params().items()}
    m = {k: np.zeros_like(p) for k, p in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    state = init_adamw(w)
    rng = np.random.default_rng(5)
    for t in range(1, 4):
        grads = {k: rng.standard_normal(p.shape) for k, p in ref.items()}
        adamw_step(w, grads, state, cfg)
        for k in ref:
            ref[k] *= 1.0 - cfg.lr * cfg.weight_decay
            m[k] = cfg.beta1 * m[k] + (1 - cfg.beta1) * grads[k]
            v[k] = cfg.beta2 * v[k] + (1 - cfg.beta2) * grads[k] ** 2
            mhat = m[k] / (1 - cfg.beta1**t)
            vhat = v[k] / (1 - cfg.beta2**t)
            ref[k] -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
    for k, p in w.params().items():
        np.testing.assert_allclose(p, ref[k], rtol=1e-12, atol=1e-14)
    assert state.step == 3


def test_adamw_zero_gradients_is_pure_decay():
    cfg = TrainConfig(lr=1e-3, weight_decay=0.5)
    model = RerankerConfig(s=2, d=2, num_classes=2, heads=1, hidden=2, mlp_hidden=2)
    w = init_weights(model, seed=1, dtype=np.float64)
    before = {k: p.copy() for k, p in w.params().items()}
    zeros = {k: np.zeros_like(p) for k, p in w.params().items()}
    state = init_adamw(w)
    adamw_step(w, zeros, state, cfg)
    for k, p in w.params().items():
        np.testing.assert_array_equal(p, before[k] * (1.0 - cfg.lr * cfg.weight_decay))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(beta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta=1.5)
    with pytest.raises(ValueError):
        TrainConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(v=1)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_pipeline():
    fs = FeatureSet.from_entries(make_maps(12, 3, 3, 4, seed=8))
    tr_fs, va_fs = split_train_val(fs, val_fraction=0.2)
    train_ts = build_training_set(tr_fs, v=8)
    val_ts = build_training_set(va_fs, v=8)
    return fs, train_ts, val_ts


def test_train_snapshot_is_validation_argmin(tiny_pipeline):
    fs, train_ts, val_ts = tiny_pipeline
    cfg = TrainConfig(lr=1e-3, iterations=30, t_val=10, val_triplets=16,
                      batch_probes=4, triplets_per_probe=2, seed=3)
    model = RerankerConfig(s=3, d=4, num_classes=16, heads=2, hidden=8, mlp_hidden=8)
    res = train(train_ts, val_ts, fs, cfg, model=model)

    evaluated = [r for r in res.history if r.val_loss is not None]
    assert [r.iteration for r in evaluated] == [0, 10, 20, 30]
    assert res.best_val_loss == min(r.val_loss for r in evaluated)
    assert res.best_iteration == next(
        r.iteration for r in evaluated if r.val_loss == res.best_val_loss
    )
    # returned weights really are the snapshot: re-scoring them on the same
    # fixed validation batch reproduces best_val_loss
    strips = {e.sequence_id: e.strips for e in fs.entries}
    ss = np.random.SeedSequence(cfg.seed)
    val_seed = int(ss.spawn(3)[2].generate_state(1)[0])
    val_batch = training._fixed_val_batch(
        val_ts, cfg, strips, np.random.default_rng(val_seed)
    )
    assert validation_loss(val_batch, res.weights, cfg.beta) == res.best_val_loss


def test_train_is_deterministic(tiny_pipeline):
    fs, train_ts, val_ts = tiny_pipeline
    cfg = TrainConfig(lr=1e-3, iterations=12, t_val=5, val_triplets=8,
                      batch_probes=4, triplets_per_probe=2, seed=9)
    model = RerankerConfig(s=3, d=4, num_classes=16, heads=2, hidden=8, mlp_hidden=8)
    a = train(train_ts, val_ts, fs, cfg, model=model)
    b = train(train_ts, val_ts, fs, cfg, model=model)
    assert a.best_iteration == b.best_iteration
    assert a.best_val_loss == b.best_val_loss
    for pa, pb in zip(a.weights.params().values(), b.weights.params().values()):
        assert pa.tobytes() == pb.tobytes()
    # final evaluation lands on the last iteration even when unaligned
    assert [r.iteration for r in a.history if r.val_loss is not None] == [0, 5, 10, 12]


def test_train_validates_missing_features_and_class_budget(tiny_pipeline):
    fs, train_ts, val_ts = tiny_pipeline
    fs_small = FeatureSet.from_entries(fs.entries[:3])
    cfg = TrainConfig(iterations=1, t_val=1)
    with pytest.raises(MissingIdError):
        train(train_ts, val_ts, fs_small, cfg)
    model = RerankerConfig(s=3, d=4, num_classes=2, heads=2, hidden=8, mlp_hidden=8)
    with pytest.raises(ValueError):
        train(train_ts, val_ts, fs, cfg, model=model)


def test_training_does_not_mutate_input_features(tiny_pipeline):
    fs, train_ts, val_ts = tiny_pipeline
    before = [e.strips.copy() for e in fs.entries]
    cfg = TrainConfig(lr=1e-3, iterations=5, t_val=5, val_triplets=8,
                      batch_probes=4, triplets_per_probe=2)
    model = RerankerConfig(s=3, d=4, num_classes=16, heads=2, hidden=8, mlp_hidden=8)
    train(train_ts, val_ts, fs, cfg, model=model)
    for e, b in zip(fs.entries, before):
        assert e.strips.tobytes() == b.tobytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's")
def test_training_iterations_reuse_freed_memory():
    # at the acceptance harness size an iteration allocates and frees about
    # 10 MB of temporaries; without the heap setting glibc hands them back
    # to the kernel and each iteration faults 1,000-2,000 pages back in
    import resource

    fs = FeatureSet.from_entries(make_maps(40, 6, 8, 16, seed=5))
    tr_fs, va_fs = split_train_val(fs)
    train_ts = build_training_set(tr_fs, v=30)
    val_ts = build_training_set(va_fs, v=30)
    cfg = TrainConfig(lr=3e-4, iterations=40, t_val=20, val_triplets=256,
                      batch_probes=32, triplets_per_probe=4, seed=1)
    model = RerankerConfig(s=8, d=16, num_classes=40, heads=4, hidden=64, mlp_hidden=64)
    train(train_ts, val_ts, fs, cfg, model=model)  # the heap grows to its peak once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(train_ts, val_ts, fs, cfg, model=model)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 10 * cfg.iterations


def test_training_log_roundtrip(tmp_path, tiny_pipeline):
    fs, train_ts, val_ts = tiny_pipeline
    cfg = TrainConfig(lr=1e-3, iterations=6, t_val=3, val_triplets=8,
                      batch_probes=4, triplets_per_probe=2)
    model = RerankerConfig(s=3, d=4, num_classes=16, heads=2, hidden=8, mlp_hidden=8)
    res = train(train_ts, val_ts, fs, cfg, model=model)
    path = tmp_path / "log.csv"
    write_training_log(res.history, path)
    back = read_training_log(path)
    assert len(back) == len(res.history)
    for a, b in zip(back, res.history):
        assert a.iteration == b.iteration
        assert a.val_loss == b.val_loss  # repr() serialization is lossless
        if not (math.isnan(a.train_loss) and math.isnan(b.train_loss)):
            assert a.train_loss == b.train_loss
