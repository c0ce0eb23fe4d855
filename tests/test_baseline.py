import math

import numpy as np
import pytest

from gaitrerank.baseline import (
    BaselineConfig,
    baseline_rerank,
    baseline_scores,
    bce_forward_backward,
    init_baseline,
    load_baseline,
    save_baseline,
    train_baseline,
)
from gaitrerank.errors import DataError, FormatError, MissingIdError, NonFiniteError, ShapeError
from gaitrerank.feature_store import FeatureSet
from gaitrerank.ranking import rank_gallery
from gaitrerank.training import (TrainConfig, build_training_set, referenced_sequences,
                                 split_train_val)

from conftest import make_maps


def ref_score(f_p, f_c, weights):
    """Flatten [probe; candidate] by hand and run the MLP in float64."""
    x = np.concatenate(
        [np.asarray(f_p, dtype=np.float64), np.asarray(f_c, dtype=np.float64)]
    ).reshape(-1)
    p = weights.params()
    h = np.tanh(x @ p["w1"].astype(np.float64) + p["b1"].astype(np.float64))
    return float((h @ p["w2"].astype(np.float64) + p["b2"].astype(np.float64))[0])


def test_config_in_dim_and_validation():
    cfg = BaselineConfig(s=4, d=6, hidden=8)
    assert cfg.in_dim == 48
    with pytest.raises(ValueError):
        BaselineConfig(s=0, d=6)


def test_scores_match_hand_mlp():
    cfg = BaselineConfig(s=3, d=4, hidden=8)
    w = init_baseline(cfg, seed=1, dtype=np.float64)
    rng = np.random.default_rng(2)
    probe = rng.standard_normal((3, 4))
    cands = rng.standard_normal((5, 3, 4))
    got = baseline_scores(probe, cands, w)
    assert got.dtype == np.float64
    for i in range(5):
        assert got[i] == pytest.approx(ref_score(probe, cands[i], w), rel=1e-12)
    assert baseline_scores(probe, cands[0][None], w)[0] == got[0]


def test_score_is_asymmetric_in_argument_order():
    cfg = BaselineConfig(s=2, d=3, hidden=6)
    w = init_baseline(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3))
    assert baseline_scores(a, b[None], w)[0] != baseline_scores(b, a[None], w)[0]


def test_scores_that_overflow_are_a_non_finite_error():
    # tanh(1) > 0 in every hidden unit, so each logit sums to +inf in float32
    w = init_baseline(BaselineConfig(s=2, d=3, hidden=8), seed=0)
    p = w.params()
    p["w1"][...] = 0
    p["b1"][...] = 1
    p["w2"][...] = 3e38
    f = make_maps(2, 2, 2, 3, seed=1)
    with pytest.raises(NonFiniteError, match="^baseline_scores produced non-finite values$"):
        baseline_scores(f[0].strips, np.stack([e.strips for e in f[1:]]), w)


def test_bce_at_zero_weights_is_ln2():
    cfg = BaselineConfig(s=2, d=2, hidden=4)
    w = init_baseline(cfg, seed=0, dtype=np.float64)
    for arr in w.params().values():
        arr[:] = 0
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 2, 2))
    b = rng.standard_normal((6, 2, 2))
    y = np.array([1, 0, 1, 0, 1, 0], dtype=np.float64)
    loss, _ = bce_forward_backward(a, b, y, w, want_grads=False)
    assert abs(loss - math.log(2.0)) <= 1e-12


def test_bce_matches_scalar_reference():
    cfg = BaselineConfig(s=2, d=3, hidden=5)
    w = init_baseline(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 2, 3))
    b = rng.standard_normal((4, 2, 3))
    y = np.array([1.0, 0.0, 0.0, 1.0])
    loss, _ = bce_forward_backward(a, b, y, w, want_grads=False)
    want = 0.0
    for i in range(4):
        z = ref_score(a[i], b[i], w)
        p = 1.0 / (1.0 + math.exp(-z))
        want -= y[i] * math.log(p) + (1 - y[i]) * math.log(1 - p)
    assert loss == pytest.approx(want / 4, rel=1e-10)


def test_bce_gradients_match_finite_differences():
    cfg = BaselineConfig(s=2, d=3, hidden=4)
    w = init_baseline(cfg, seed=11, dtype=np.float64)
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 2, 3))
    b = rng.standard_normal((3, 2, 3))
    y = np.array([1.0, 0.0, 1.0])
    _, grads = bce_forward_backward(a, b, y, w)
    h = 1e-6
    worst = 0.0
    for name, g in grads.items():
        flat = w.params()[name].reshape(-1)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + h
            up, _ = bce_forward_backward(a, b, y, w, want_grads=False)
            flat[idx] = old - h
            down, _ = bce_forward_backward(a, b, y, w, want_grads=False)
            flat[idx] = old
            fd = (up - down) / (2 * h)
            an = g.reshape(-1)[idx]
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-4))
    assert worst <= 1e-6


def test_bce_label_shape_guard():
    cfg = BaselineConfig(s=2, d=2, hidden=4)
    w = init_baseline(cfg, seed=0)
    a = np.zeros((3, 2, 2))
    with pytest.raises(ShapeError):
        bce_forward_backward(a, a, np.zeros(2), w)


# ---------------------------------------------------------------------------
# re-ranking and persistence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gallery():
    return FeatureSet.from_entries(make_maps(8, 3, 4, 6, seed=33))


def test_baseline_rerank_orders_by_descending_score(gallery):
    cfg = BaselineConfig(s=4, d=6, hidden=8)
    w = init_baseline(cfg, seed=5)
    probe = gallery.entries[0]
    initial = rank_gallery(probe, gallery, k=None)
    k = 6
    out = baseline_rerank(probe, initial, gallery, w, k=k)
    cand = np.stack([gallery.get(cid).strips for cid in initial.ids()[:k]])
    scores = baseline_scores(probe.strips, cand, w)
    want = [cid for _, cid in sorted(zip(-scores, initial.ids()[:k]))]
    assert out.ids()[:k] == want
    assert set(out.ids()[:k]) == set(initial.ids()[:k])
    assert out.items[k:] == initial.items[k:]
    d = out.distances()
    assert d == sorted(d)


def test_baseline_rerank_of_a_list_within_k_shifts_its_distances_to_start_at_0(gallery):
    w = init_baseline(BaselineConfig(s=4, d=6, hidden=8), seed=5)
    probe = gallery.entries[0]
    initial = rank_gallery(probe, gallery, k=6)
    out = baseline_rerank(probe, initial, gallery, w, k=10)
    # the order changed and no tail rescales the prefix, so its distances
    # are the negated scores shifted to a minimum of 0
    assert out.ids() != initial.ids()
    values = -baseline_scores(probe.strips, np.stack([gallery.get(c).strips
                                                      for c in initial.ids()]), w)
    assert out.distances() == sorted((values - values.min()).tolist())
    assert out.distances()[0] == 0.0


def test_baseline_rerank_guards(gallery):
    cfg = BaselineConfig(s=4, d=6, hidden=8)
    w = init_baseline(cfg, seed=5)
    probe = gallery.entries[0]
    initial = rank_gallery(probe, gallery, k=None)
    with pytest.raises(DataError):
        baseline_rerank(probe, initial, gallery, w, k=0)
    with pytest.raises(DataError):
        baseline_rerank(gallery.entries[1], initial, gallery, w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_baseline_checkpoint_roundtrip(tmp_path, dtype):
    cfg = BaselineConfig(s=3, d=5, hidden=7)
    w = init_baseline(cfg, seed=9, dtype=dtype)
    path = tmp_path / "baseline.cgbl"
    save_baseline(w, path, metadata={"hidden": 7})
    back, cfg2, meta = load_baseline(path)
    assert cfg2 == cfg and meta == {"hidden": 7}
    for (na, a), (nb, b) in zip(w.params().items(), back.params().items()):
        assert na == nb and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_baseline_checkpoint_corruption(tmp_path):
    cfg = BaselineConfig(s=2, d=2, hidden=4)
    w = init_baseline(cfg, seed=1)
    path = tmp_path / "baseline.cgbl"
    save_baseline(w, path)
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_baseline(path)
    path.write_bytes(blob[:-1])
    with pytest.raises(FormatError):
        load_baseline(path)
    with pytest.raises(FileNotFoundError):
        load_baseline(tmp_path / "absent.cgbl")


def test_train_baseline_runs_and_is_deterministic(gallery):
    fs = FeatureSet.from_entries(make_maps(12, 3, 3, 4, seed=44))
    tr_fs, va_fs = split_train_val(fs, val_fraction=0.2)
    train_ts = build_training_set(tr_fs, v=8)
    val_ts = build_training_set(va_fs, v=8)
    cfg = TrainConfig(lr=1e-3, iterations=20, t_val=10, val_triplets=16,
                      batch_probes=4, triplets_per_probe=2, seed=5)
    a = train_baseline(train_ts, val_ts, fs, cfg, hidden=16)
    b = train_baseline(train_ts, val_ts, fs, cfg, hidden=16)
    assert a.best_val_loss == b.best_val_loss
    assert a.best_iteration == b.best_iteration
    for pa, pb in zip(a.weights.params().values(), b.weights.params().values()):
        assert pa.tobytes() == pb.tobytes()
    evaluated = [r.iteration for r in a.history if r.val_loss is not None]
    assert evaluated == [0, 10, 20]
    assert a.best_val_loss == min(r.val_loss for r in a.history if r.val_loss is not None)


def test_train_baseline_checks_its_training_ids_before_iteration_0():
    fs = FeatureSet.from_entries(make_maps(12, 3, 3, 4, seed=44))
    tr_fs, va_fs = split_train_val(fs, val_fraction=0.2)
    train_ts = build_training_set(tr_fs, v=8)
    val_ts = build_training_set(va_fs, v=8)
    ids = sorted(referenced_sequences(train_ts))
    drop = {ids[-1], ids[3]}
    fs_missing = FeatureSet.from_entries(e for e in fs.entries if e.sequence_id not in drop)
    cfg = TrainConfig(iterations=20, t_val=10, val_triplets=16, batch_probes=4,
                      triplets_per_probe=2, seed=5)
    calls = []
    with pytest.raises(MissingIdError) as info:
        train_baseline(train_ts, val_ts, fs_missing, cfg, hidden=16, progress=calls.append)
    assert str(info.value) == f"no features for sequence {ids[3]!r}"
    assert calls == []
