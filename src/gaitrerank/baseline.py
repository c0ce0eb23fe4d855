"""Binary-classifier baseline re-ranker.

Instead of attending, the baseline concatenates probe and candidate maps
into a 2s x d block, flattens it, and scores the pair with a two-layer
MLP trained under binary cross-entropy on same/different-identity
labels. ``baseline_rerank``, which is ``inference.rerank``, re-orders
candidates by descending score. Note the concatenation order makes the
score asymmetric in its arguments; the probe always occupies the first
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import training as tr
from .errors import NonFiniteError, ShapeError
from .feature_store import FeatureSet
from .inference import rerank as baseline_rerank  # noqa: F401 (one re-rank path, both models)
from .reranker import (ParamStore, _load_params, _mlp_backward, _mlp_forward, _save_params,
                       _stable_sigmoid)

BASELINE_MAGIC = b"CGBL"
BASELINE_VERSION = 1

# BaselineConfig fields in CGBL header order
_FIELDS = ("s", "d", "hidden")


@dataclass(frozen=True)
class BaselineConfig:
    s: int
    d: int
    hidden: int = 256

    def __post_init__(self) -> None:
        for name in ("s", "d", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def in_dim(self) -> int:
        return 2 * self.s * self.d


class BaselineWeights(ParamStore):
    config: BaselineConfig

    @staticmethod
    def _param_shapes(cfg: BaselineConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
        yield "w1", (cfg.in_dim, cfg.hidden)
        yield "b1", (cfg.hidden,)
        yield "w2", (cfg.hidden, 1)
        yield "b2", (1,)


def init_baseline(
    config: BaselineConfig, seed: int, dtype=np.float32
) -> BaselineWeights:
    return BaselineWeights.glorot(config, seed, dtype)


def _flatten_pairs(a: np.ndarray, b: np.ndarray, cfg: BaselineConfig) -> np.ndarray:
    # (B, s, d) x 2 -> (B, 2sd), candidate block after the probe block
    if len(a) != len(b):
        raise ShapeError(f"{len(a)} probe maps against {len(b)} candidate maps")
    return np.concatenate([a, b], axis=1).reshape(a.shape[0], cfg.in_dim)


def baseline_scores(
    probe_map: np.ndarray, candidate_maps: np.ndarray, weights: BaselineWeights
) -> np.ndarray:
    """Logits for one probe against M candidates; (M,) float64. Non-finite
    logits are an error."""
    probe = np.asarray(probe_map, dtype=weights.dtype)
    cands = np.asarray(candidate_maps, dtype=weights.dtype)
    weights.check_maps("probe", probe.shape)
    weights.check_maps("candidate", cands.shape[1:])
    x = _flatten_pairs(np.broadcast_to(probe, cands.shape), cands, weights.config)
    with np.errstate(over="ignore", invalid="ignore"):
        z = _mlp_forward(x, weights.params())[0][:, 0]
    if not np.isfinite(z).all():
        raise NonFiniteError("baseline_scores produced non-finite values")
    return z.astype(np.float64)


def bce_forward_backward(
    a: np.ndarray,
    b: np.ndarray,
    labels: np.ndarray,
    weights: BaselineWeights,
    want_grads: bool = True,
):
    """Mean binary cross-entropy of pair logits against 0/1 labels.

    Stable form: max(z, 0) - y*z + log1p(exp(-|z|)).
    """
    dtype = weights.dtype
    a = np.ascontiguousarray(a, dtype=dtype)
    b = np.ascontiguousarray(b, dtype=dtype)
    weights.check_maps("probe", a.shape[1:])
    weights.check_maps("candidate", b.shape[1:])
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (a.shape[0],):
        raise ShapeError(f"labels must be ({a.shape[0]},), got {y.shape}")
    x = _flatten_pairs(a, b, weights.config)
    out, h = _mlp_forward(x, weights.params())
    z = out[:, 0].astype(np.float64)
    loss = float(np.mean(np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))))
    if not want_grads:
        return loss, None
    dz = ((_stable_sigmoid(z) - y) / len(y)).astype(dtype)
    return loss, _mlp_backward(dz[:, None], x, h, weights.params())[0]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _triplet_pairs(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # each triplet yields one positive and one negative pair, so labels
    # stay balanced 1:1 by construction
    b = len(batch)
    a = np.concatenate([batch.probe, batch.probe])
    c = np.concatenate([batch.pos, batch.neg])
    y = np.concatenate([np.ones(b), np.zeros(b)])
    return a, c, y


def _pair_bce(batch, weights: BaselineWeights, want_grads: bool = True):
    return bce_forward_backward(*_triplet_pairs(batch), weights, want_grads=want_grads)


def train_baseline(
    train_ts,
    val_ts,
    features: FeatureSet,
    cfg,
    hidden: int = 256,
    progress=None,
) -> tr.TrainResult:
    """Same sampling, optimizer and argmin stopping rule as the main
    trainer, with mean pair BCE as both the training and validation loss.
    As in ``training.train``, an absent training id, or a set with no
    eligible entry, fails before iteration 0."""
    config = BaselineConfig(s=features.s, d=features.d, hidden=hidden)
    return tr._train_loop(
        train_ts,
        val_ts,
        features,
        cfg,
        # class labels go unused: the BCE targets come from the triplet roles
        labels=None,
        init=lambda seed: init_baseline(config, seed=seed),
        step=_pair_bce,
        val_loss=lambda batch, w: _pair_bce(batch, w, want_grads=False)[0],
        progress=progress,
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_baseline(weights: BaselineWeights, path, metadata: dict | None = None) -> None:
    _save_params(path, BASELINE_MAGIC, BASELINE_VERSION, _FIELDS, weights, metadata)


def load_baseline(path) -> tuple[BaselineWeights, BaselineConfig, dict]:
    return _load_params(
        path, BASELINE_MAGIC, BASELINE_VERSION, _FIELDS, BaselineConfig, BaselineWeights
    )
