"""Cross-attention re-ranker: model, exact gradients, checkpoints.

The model conditions each feature map on its pair partner through
strip-wise multi-head cross-attention with a residual connection, then
measures the strip-averaged Euclidean distance between the two
conditioned maps. A small MLP head classifies conditioned maps into
training identities for the cross-entropy regularizer.

All forward and backward passes are plain numpy with a fixed operation
order, so results are deterministic for a given platform and dtype.
Parameters live in float32 for production use; float64 is used by the
gradient-check tests.

Parameters are read by canonical name through ``params()``. The names
and their order (the checkpoint layout and the gradient dict's keys) are
written once per model, in its ``_param_shapes``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import FormatError, NonFiniteError, ShapeError
from .feature_store import _read_bytes, _read_text, _write_atomic
from .ranking import strip_mean_distance

CHECKPOINT_MAGIC = b"CGRK"
CHECKPOINT_VERSION = 1

_DTYPE_CODES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
# RerankerConfig fields in CGRK header order
_CKPT_FIELDS = ("s", "d", "heads", "hidden", "blocks", "num_classes", "mlp_hidden")


@dataclass(frozen=True)
class RerankerConfig:
    """Model dimensions. ``hidden`` is the total attention width across
    heads; input projections map d -> hidden and the output projection
    maps hidden -> d so the residual add is well-formed."""

    s: int
    d: int
    num_classes: int
    heads: int = 8
    hidden: int = 256
    blocks: int = 1
    mlp_hidden: int = 256

    def __post_init__(self) -> None:
        for name in ("s", "d", "num_classes", "heads", "hidden", "blocks", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden ({self.hidden}) must be divisible by heads ({self.heads})"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


@dataclass
class ParamStore:
    """A model's config and its parameter arrays keyed by canonical name,
    in the order of the model's ``_param_shapes``."""

    config: Any
    _params: dict[str, np.ndarray]

    def params(self) -> dict[str, np.ndarray]:
        """The stored dict itself, not a copy: AdamW updates its arrays in place."""
        return self._params

    @property
    def dtype(self) -> np.dtype:
        return next(iter(self._params.values())).dtype

    def copy(self):
        return type(self)(self.config, {k: v.copy() for k, v in self._params.items()})


class RerankerWeights(ParamStore):
    config: RerankerConfig

    def block(self, i: int) -> dict[str, np.ndarray]:
        """Attention block ``i``'s arrays keyed by short name (``w_q``, ...)."""
        prefix = f"block{i}."
        return {
            name[len(prefix) :]: arr
            for name, arr in self._params.items()
            if name.startswith(prefix)
        }

    def zero_attention(self) -> "RerankerWeights":
        """Copy with all attention projections and biases zeroed; the model
        then degenerates to the identity map on feature maps."""
        out = self.copy()
        for i in range(self.config.blocks):
            for arr in out.block(i).values():
                arr[:] = 0
        return out


def _param_shapes(config: RerankerConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    for i in range(config.blocks):
        yield f"block{i}.w_q", (config.d, config.hidden)
        yield f"block{i}.b_q", (config.hidden,)
        yield f"block{i}.w_k", (config.d, config.hidden)
        yield f"block{i}.b_k", (config.hidden,)
        yield f"block{i}.w_v", (config.d, config.hidden)
        yield f"block{i}.b_v", (config.hidden,)
        yield f"block{i}.w_o", (config.hidden, config.d)
        yield f"block{i}.b_o", (config.d,)
    yield "cls.w1", (config.d, config.mlp_hidden)
    yield "cls.b1", (config.mlp_hidden,)
    yield "cls.w2", (config.mlp_hidden, config.num_classes)
    yield "cls.b2", (config.num_classes,)


def _glorot_params(
    shapes: Iterable[tuple[str, tuple[int, ...]]], seed: int, dtype
) -> dict[str, np.ndarray]:
    # matrices drawn in canonical order from one seeded generator; vectors zero
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes:
        if len(shape) == 1:
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            fan_in, fan_out = shape
            limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
            params[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)
    return params


def init_weights(
    config: RerankerConfig, seed: int, dtype=np.float32
) -> RerankerWeights:
    """Glorot-uniform projections, zero biases, from a seeded generator.

    The same (config, seed) pair always produces bitwise-equal weights.
    """
    return RerankerWeights(config, _glorot_params(_param_shapes(config), seed, dtype))


def zero_gradients(config: RerankerConfig, dtype=np.float32) -> dict[str, np.ndarray]:
    return {name: np.zeros(shape, dtype=dtype) for name, shape in _param_shapes(config)}


# ---------------------------------------------------------------------------
# forward / backward core (batched over pairs)
# ---------------------------------------------------------------------------


def _row_sum(a: np.ndarray) -> np.ndarray:
    # sum over the last axis as elementwise passes over its columns, in a
    # fixed order: at small s this is far cheaper than sum(axis=-1)
    total = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        total += a[..., j]
    return total


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (a * b).sum(axis=-1) the same way, without an a-sized temporary
    total = a[..., 0] * b[..., 0]
    tmp = np.empty_like(total)
    for j in range(1, a.shape[-1]):
        np.multiply(a[..., j], b[..., j], out=tmp)
        total += tmp
    return total


def _softmax_rows(scores: np.ndarray, scale) -> None:
    """In place: ``scores`` becomes softmax(scale * scores) over its last
    axis, with the row max subtracted first for overflow safety."""
    top = scores[..., 0].copy()
    for j in range(1, scores.shape[-1]):
        np.maximum(top, scores[..., j], out=top)
    scores -= top[..., None]
    scores *= scale
    np.exp(scores, out=scores)
    scores /= _row_sum(scores)[..., None]


def _attention_forward(
    maps: np.ndarray,
    query_idx: np.ndarray,
    partner_idx: np.ndarray,
    weights: RerankerWeights,
    want_cache: bool = False,
):
    """Apply all attention blocks to N directed pairs of stacked maps.

    ``maps`` is a (U, s, d) stack of distinct maps; direction n conditions
    ``maps[query_idx[n]]`` on ``maps[partner_idx[n]]``. Each block projects
    every distinct map once (block 0 through one fused Q/K/V GEMM, later
    blocks K and V only) and gathers the rows each direction needs; later
    blocks project Q from the residual. The key/value side is the raw
    partner map for every block.

    Everything computes in the maps' dtype: the weights and every scalar
    are cast to it, so nothing widens. Returns the (N, s, d) conditioned
    queries and, with ``want_cache``, one tuple per block for
    ``_attention_backward``.
    """
    cfg = weights.config
    U, s, d = maps.shape
    N = len(query_idx)
    H, dh = cfg.heads, cfg.head_dim
    scale = maps.dtype.type(1.0 / np.sqrt(dh))
    flat = maps.reshape(U * s, d)
    x = maps[query_idx]
    kv = maps[partner_idx] if want_cache else None
    caches = []
    for i in range(cfg.blocks):
        blk = {name: arr.astype(maps.dtype, copy=False) for name, arr in weights.block(i).items()}
        parts = ("q", "k", "v") if i == 0 else ("k", "v")
        proj = flat @ np.concatenate([blk[f"w_{p}"] for p in parts], axis=1)
        proj += np.concatenate([blk[f"b_{p}"] for p in parts])
        # per part, a contiguous (U, H, s, dh) stack, so that each gather
        # below is contiguous too
        per_map = np.ascontiguousarray(
            proj.reshape(U, s, len(parts), H, dh).transpose(2, 0, 3, 1, 4)
        )
        if i == 0:
            q = per_map[0][query_idx]
        else:
            q = (x.reshape(N * s, d) @ blk["w_q"] + blk["b_q"]).reshape(N, s, H, dh)
            q = np.ascontiguousarray(q.transpose(0, 2, 1, 3))
        k_maps, v_maps = per_map[-2], per_map[-1]
        # K^T (and V^T below) laid out contiguously: as matmul's second
        # operand a transposed view runs about 2.5x slower
        k_t = np.ascontiguousarray(k_maps.transpose(0, 1, 3, 2))[partner_idx]
        attn = q @ k_t  # (N,H,s,s) scores
        _softmax_rows(attn, scale)
        concat = np.empty((N * s, H * dh), dtype=maps.dtype)
        np.matmul(attn, v_maps[partner_idx], out=concat.reshape(N, s, H, dh).transpose(0, 2, 1, 3))
        out = x + (concat @ blk["w_o"] + blk["b_o"]).reshape(N, s, d)
        if want_cache:
            v_t = np.ascontiguousarray(v_maps.transpose(0, 1, 3, 2))[partner_idx]
            caches.append((x, kv, q, k_maps[partner_idx], v_t, attn, concat))
        x = out
    return x, caches


def _attention_backward(
    grad_out: np.ndarray,
    caches: list,
    weights: RerankerWeights,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate parameter gradients for the stacked blocks.

    Weight gradients come from the gathered rows of each direction, so no
    scatter back to the distinct maps is needed. Input-feature gradients
    are propagated through the residual chain between blocks but not
    returned: the upstream feature extractor is frozen.
    """
    cfg = weights.config
    N, s, d = grad_out.shape
    H, dh = cfg.heads, cfg.head_dim
    hidden = cfg.hidden
    scale = grad_out.dtype.type(1.0 / np.sqrt(dh))
    ones = np.ones(N * s, dtype=grad_out.dtype)  # bias gradients as GEMVs
    dx = grad_out
    for i in range(cfg.blocks - 1, -1, -1):
        blk = weights.block(i)
        x, kv, q, k, v_t, attn, concat = caches[i]
        dproj = dx.reshape(N * s, d)
        grads[f"block{i}.w_o"] += concat.T @ dproj
        grads[f"block{i}.b_o"] += ones @ dproj
        dheads = (dproj @ blk["w_o"].T).reshape(N, s, H, dh).transpose(0, 2, 1, 3)
        # d attn, turned in place into d scores (softmax backward, then scale)
        dscores = dheads @ v_t
        dscores -= _row_dot(dscores, attn)[..., None]
        dscores *= attn
        dscores *= scale
        # each gradient written straight into its (N*s, width) row layout
        dq_flat = np.empty((N * s, hidden), dtype=grad_out.dtype)
        np.matmul(dscores, k, out=dq_flat.reshape(N, s, H, dh).transpose(0, 2, 1, 3))
        dkv_flat = np.empty((N * s, 2 * hidden), dtype=grad_out.dtype)
        dkv = dkv_flat.reshape(N, s, 2, H, dh).transpose(2, 0, 3, 1, 4)
        np.matmul(dscores.transpose(0, 1, 3, 2), q, out=dkv[0])
        np.matmul(attn.transpose(0, 1, 3, 2), dheads, out=dkv[1])
        grads[f"block{i}.w_q"] += x.reshape(N * s, d).T @ dq_flat
        grads[f"block{i}.b_q"] += ones @ dq_flat
        dw_kv = kv.reshape(N * s, d).T @ dkv_flat
        db_kv = ones @ dkv_flat
        grads[f"block{i}.w_k"] += dw_kv[:, :hidden]
        grads[f"block{i}.b_k"] += db_kv[:hidden]
        grads[f"block{i}.w_v"] += dw_kv[:, hidden:]
        grads[f"block{i}.b_v"] += db_kv[hidden:]
        if i > 0:
            # residual path plus the query projection path
            dx = dx + (dq_flat @ blk["w_q"].T).reshape(N, s, d)


def _pair_distances_and_cache(e_a: np.ndarray, e_b: np.ndarray):
    # e_a, e_b: (B, s, d). Returns (B,) distances plus backward cache.
    diff = e_a - e_b
    norms = np.sqrt((diff * diff).sum(axis=2))  # (B, s)
    z = norms.mean(axis=1)
    return z, (diff, norms)


def _pair_distances_backward(gz: np.ndarray, cache) -> np.ndarray:
    # gz: (B,) upstream; returns gradient wrt e_a ( = -grad wrt e_b).
    diff, norms = cache
    s = norms.shape[1]
    safe = np.where(norms > 0, norms, 1.0)
    coef = (gz[:, None] / s) / safe  # (B, s); zero rows stay zero via diff
    return coef[:, :, None] * diff


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ranking_loss(d_pos, d_neg, beta: float = 0.1):
    """Damped logistic ranking loss.

    -log sigmoid(d_neg - d_pos), multiplied by beta whenever the triplet
    is already ordered correctly (d_neg >= d_pos, equality included).
    Computed in the softplus form so large |d_neg - d_pos| cannot
    overflow. Accepts scalars or same-shape arrays.
    """
    x = np.asarray(d_neg, dtype=np.float64) - np.asarray(d_pos, dtype=np.float64)
    sp = np.where(
        x >= 0,
        np.log1p(np.exp(-np.abs(x))),
        -x + np.log1p(np.exp(-np.abs(x))),
    )
    out = np.where(x >= 0, beta, 1.0) * sp
    return float(out) if out.ndim == 0 else out


def _classifier_forward(e: np.ndarray, weights: RerankerWeights):
    # e: (N, s, d) -> logits (N, C)
    p = weights.params()
    pooled = e.mean(axis=1)
    h = pooled @ p["cls.w1"] + p["cls.b1"]
    a = np.tanh(h)
    logits = a @ p["cls.w2"] + p["cls.b2"]
    return logits, (pooled, a)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    # per-row -log softmax(logits)[label]
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    exp = np.exp(shifted)
    lse = np.log(exp.sum(axis=1))
    ce = lse - shifted[np.arange(len(labels)), labels]
    probs = exp / np.exp(lse)[:, None]
    return ce, probs


@dataclass(frozen=True)
class TripletBatch:
    """Feature maps and class labels for a batch of training triplets.

    probe/pos/neg: (B, s, d) arrays; labels: (B, 3) int array with the
    class index of probe, positive, negative. Every label must be < C.
    """

    probe: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.probe.shape[0]

    def unique_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """A (U, s, d) stack of maps and the (B, 3) rows of each triplet's
        probe, positive and negative in it; explicit maps count as distinct."""
        b = len(self)
        return np.concatenate([self.probe, self.pos, self.neg]), np.arange(3 * b).reshape(3, b).T


@dataclass(frozen=True)
class IndexedBatch:
    """A triplet batch as rows into a shared stack of maps, so each
    distinct map is projected once however many triplets use it.

    maps: (n, s, d); index: (B, 3) rows of probe, positive, negative;
    labels: (B, 3) as in TripletBatch.
    """

    maps: np.ndarray
    index: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.index.shape[0]

    @property
    def probe(self) -> np.ndarray:
        return self.maps[self.index[:, 0]]

    @property
    def pos(self) -> np.ndarray:
        return self.maps[self.index[:, 1]]

    @property
    def neg(self) -> np.ndarray:
        return self.maps[self.index[:, 2]]

    def unique_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows the batch uses, and its index into them."""
        rows, local = np.unique(self.index, return_inverse=True)
        return self.maps[rows], local.reshape(self.index.shape)


def _batch_forward(
    batch: TripletBatch | IndexedBatch,
    weights: RerankerWeights,
    alpha: float,
    beta: float,
    want_grads: bool,
):
    cfg = weights.config
    # the weights' dtype, not the inference entry points' wider one: the
    # gradients must match the parameters AdamW updates in place
    dtype = weights.dtype
    B = len(batch)
    maps, index = batch.unique_maps()
    if maps.shape[1:] != (cfg.s, cfg.d):
        raise ShapeError(
            f"batch maps are {maps.shape[1:]}, config declares ({cfg.s}, {cfg.d})"
        )
    if batch.labels.shape != (B, 3):
        raise ShapeError(f"labels must be (B, 3), got {batch.labels.shape}")
    if batch.labels.min() < 0 or batch.labels.max() >= cfg.num_classes:
        raise ValueError(
            f"labels must lie in [0, {cfg.num_classes}), "
            f"got range [{batch.labels.min()}, {batch.labels.max()}]"
        )

    # directed attention layout: [p|pos, pos|p, p|neg, neg|p]
    p, pos, neg = index.T
    e, caches = _attention_forward(
        np.ascontiguousarray(maps, dtype=dtype),
        np.concatenate([p, pos, p, neg]),
        np.concatenate([pos, p, neg, p]),
        weights,
        want_cache=want_grads,
    )

    # losses in float64 so ranking distances keep their precision contract
    e64 = e.astype(np.float64)
    d_pos, cache_pos = _pair_distances_and_cache(e64[:B], e64[B : 2 * B])
    d_neg, cache_neg = _pair_distances_and_cache(e64[2 * B : 3 * B], e64[3 * B :])

    per_triplet = ranking_loss(d_pos, d_neg, beta)
    ranking_total = per_triplet.sum()

    labels = np.concatenate(
        [batch.labels[:, 0], batch.labels[:, 1], batch.labels[:, 0], batch.labels[:, 2]]
    )
    logits, cls_cache = _classifier_forward(e64, weights)
    ce, probs = _cross_entropy(logits, labels)
    ce_mean = ce.mean()

    loss = float(ranking_total + alpha * ce_mean)
    if not np.isfinite(loss):
        bad = np.flatnonzero(~np.isfinite(per_triplet))
        if len(bad) == 0:
            bad = np.flatnonzero(~np.isfinite(ce)) % B
        idx = int(bad[0]) if len(bad) else 0
        raise NonFiniteError(f"non-finite loss produced by triplet {idx}")

    if not want_grads:
        return loss, None

    # ---- backward -------------------------------------------------------
    grads = zero_gradients(cfg, dtype=dtype)
    x = d_neg - d_pos
    dldx = np.where(x >= 0, beta, 1.0) * (_stable_sigmoid(x) - 1.0)  # d loss / d (d_neg - d_pos)

    de = np.zeros_like(e64)
    g_pos = _pair_distances_backward(-dldx, cache_pos)
    de[:B] += g_pos
    de[B : 2 * B] -= g_pos
    g_neg = _pair_distances_backward(dldx, cache_neg)
    de[2 * B : 3 * B] += g_neg
    de[3 * B :] -= g_neg

    # classifier head: mean CE weighted by alpha (exactly zero when alpha=0)
    pooled, act = cls_cache
    n_occ = logits.shape[0]
    dlogits = probs.copy()
    dlogits[np.arange(n_occ), labels] -= 1.0
    dlogits *= alpha / n_occ
    grads["cls.w2"] += act.T @ dlogits
    grads["cls.b2"] += dlogits.sum(axis=0)
    da = dlogits @ weights.params()["cls.w2"].T
    dh = da * (1.0 - act * act)
    grads["cls.w1"] += pooled.T @ dh
    grads["cls.b1"] += dh.sum(axis=0)
    dpooled = dh @ weights.params()["cls.w1"].T
    de += dpooled[:, None, :] / cfg.s

    _attention_backward(de.astype(dtype), caches, weights, grads)
    return loss, grads


def forward_backward(
    batch: TripletBatch | IndexedBatch,
    weights: RerankerWeights,
    alpha: float,
    beta: float,
):
    """Batch loss plus exact gradients for every parameter.

    Loss is the summed damped ranking loss over triplets plus alpha times
    the mean identity cross-entropy over all four conditioned maps of each
    triplet (probe and candidate side of both attended pairs).
    """
    return _batch_forward(batch, weights, alpha, beta, want_grads=True)


def batch_loss(
    batch: TripletBatch | IndexedBatch,
    weights: RerankerWeights,
    alpha: float,
    beta: float,
) -> float:
    """Forward-only evaluation of the combined loss."""
    return _batch_forward(batch, weights, alpha, beta, want_grads=False)[0]


# ---------------------------------------------------------------------------
# public single-pair operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttendedPair:
    """Conditioned representations of a probe/candidate pair."""

    e_p: np.ndarray
    e_c: np.ndarray


def _check_map(m: np.ndarray, cfg: RerankerConfig, name: str) -> np.ndarray:
    arr = np.asarray(m)
    if arr.shape != (cfg.s, cfg.d):
        raise ShapeError(f"{name} has shape {arr.shape}, config declares ({cfg.s}, {cfg.d})")
    return arr


def _attend(
    maps: np.ndarray,
    query_idx,
    partner_idx,
    weights: RerankerWeights,
    caller: str,
) -> np.ndarray:
    """The inference forward: condition ``maps[query_idx[n]]`` on
    ``maps[partner_idx[n]]`` for every n, each distinct map projected once.

    Computes in the wider of the input and parameter dtypes, so the
    residual path never rounds its input: with zeroed projections the
    output is bitwise the queries. Non-finite output is an error that
    names ``caller``.
    """
    dtype = np.result_type(maps.dtype, weights.dtype)
    out, _ = _attention_forward(
        np.ascontiguousarray(maps, dtype=dtype),
        np.asarray(query_idx, dtype=np.intp),
        np.asarray(partner_idx, dtype=np.intp),
        weights,
    )
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{caller} produced non-finite values")
    return out


def cross_attend(
    query_map: np.ndarray,
    kv_map: np.ndarray,
    weights: RerankerWeights,
) -> np.ndarray:
    """Condition ``query_map`` on ``kv_map``; output shape s x d."""
    q = _check_map(query_map, weights.config, "query_map")
    kv = _check_map(kv_map, weights.config, "kv_map")
    return _attend(np.stack([q, kv]), [0], [1], weights, "cross_attend")[0]


def attended_pair(
    f_p: np.ndarray,
    f_c: np.ndarray,
    weights: RerankerWeights,
) -> AttendedPair:
    """Both conditioning directions with one shared weight set."""
    p = _check_map(f_p, weights.config, "f_p")
    c = _check_map(f_c, weights.config, "f_c")
    out = _attend(np.stack([p, c]), [0, 1], [1, 0], weights, "attended_pair")
    return AttendedPair(e_p=out[0], e_c=out[1])


def rerank_distance(
    f_p: np.ndarray,
    f_c: np.ndarray,
    weights: RerankerWeights,
) -> float:
    """Strip distance between the conditioned representations."""
    pair = attended_pair(f_p, f_c, weights)
    return strip_mean_distance(pair.e_p, pair.e_c)


def pair_distances(
    probe_map: np.ndarray,
    candidate_maps: np.ndarray,
    weights: RerankerWeights,
) -> np.ndarray:
    """rerank_distance of one probe against M candidates, batched.

    candidate_maps: (M, s, d). Returns (M,) float64 distances identical to
    per-pair rerank_distance calls.
    """
    cfg = weights.config
    cands = np.asarray(candidate_maps)
    if cands.ndim != 3 or cands.shape[1:] != (cfg.s, cfg.d):
        raise ShapeError(f"candidate_maps must be (M, {cfg.s}, {cfg.d}), got {cands.shape}")
    probe = _check_map(probe_map, cfg, "probe_map")
    m = cands.shape[0]
    # row 0 is the probe, rows 1..m the candidates: the probe is projected
    # once, not once per candidate
    probe_rows = np.zeros(m, dtype=np.intp)
    cand_rows = np.arange(1, m + 1)
    e = _attend(
        np.concatenate([probe[None], cands]),
        np.concatenate([probe_rows, cand_rows]),
        np.concatenate([cand_rows, probe_rows]),
        weights,
        "pair_distances",
    )
    z, _ = _pair_distances_and_cache(e[:m].astype(np.float64), e[m:].astype(np.float64))
    return z


def classify(
    e: np.ndarray,
    weights: RerankerWeights,
) -> np.ndarray:
    """Identity logits for one conditioned map: mean-pool strips, then a
    two-layer tanh MLP, in the wider of the map and parameter dtypes."""
    arr = _check_map(e, weights.config, "e")
    dtype = np.result_type(arr.dtype, weights.dtype)
    logits, _ = _classifier_forward(arr[None].astype(dtype), weights)
    return logits[0]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def _param_header(n_fields: int) -> struct.Struct:
    # magic, version, dtype code, then the format's config fields
    return struct.Struct(f"<4sII{n_fields}I")


def _save_params(
    path, magic: bytes, version: int, fields: tuple[str, ...], weights, metadata
) -> None:
    """Write a parameter file: the header with the config's ``fields``,
    then every array of ``weights.params()`` in canonical order; plus the
    JSON metadata sidecar."""
    dtype = weights.dtype
    code = dtype.itemsize
    if code not in _DTYPE_CODES:
        raise FormatError(f"unsupported parameter dtype {dtype}")
    values = (getattr(weights.config, name) for name in fields)
    with _write_atomic(path, "wb") as fh:
        fh.write(_param_header(len(fields)).pack(magic, version, code, *values))
        for arr in weights.params().values():
            fh.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]))
    with _write_atomic(_meta_path(path), "w") as fh:
        fh.write(json.dumps(metadata or {}, indent=2, sort_keys=True) + "\n")


def _load_params(
    path, magic: bytes, version: int, fields: tuple[str, ...], make_config, shapes
):
    """Read a file written by ``_save_params``.

    ``make_config(**header_fields)`` builds the config (a ValueError there
    is a FormatError) and ``shapes(config)`` yields the parameter names and
    shapes in canonical order. Returns (config, params, meta).
    """
    p = Path(path)
    blob = _read_bytes(p)
    header = _param_header(len(fields))
    if len(blob) < header.size:
        raise FormatError(f"{p}: truncated checkpoint header")
    got_magic, got_version, code, *values = header.unpack_from(blob, 0)
    if got_magic != magic:
        raise FormatError(f"{p}: bad magic {got_magic!r}")
    if got_version != version:
        raise FormatError(f"{p}: unsupported version {got_version}")
    if code not in _DTYPE_CODES:
        raise FormatError(f"{p}: unknown dtype code {code}")
    try:
        cfg = make_config(**dict(zip(fields, values)))
    except ValueError as exc:
        raise FormatError(f"{p}: invalid stored config ({exc})") from exc

    dt = _DTYPE_CODES[code]
    offset = header.size
    params: dict[str, np.ndarray] = {}
    # drawn one at a time: a huge header stops at the first shape past the end
    for name, shape in shapes(cfg):
        n = math.prod(shape)
        nbytes = n * dt.itemsize
        if offset + nbytes > len(blob):
            raise FormatError(f"{p}: truncated at parameter {name}")
        params[name] = np.frombuffer(blob, dtype=dt, count=n, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise FormatError(f"{p}: {len(blob) - offset} trailing bytes")

    meta = {}
    mp = _meta_path(p)
    if mp.exists():
        try:
            meta = json.loads(_read_text(mp))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{mp}: invalid JSON ({exc})") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"{mp}: metadata must be a JSON object")
    return cfg, params, meta


def save_checkpoint(
    weights: RerankerWeights,
    path,
    metadata: dict | None = None,
) -> None:
    """Binary checkpoint (magic CGRK) plus a JSON metadata sidecar."""
    _save_params(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _CKPT_FIELDS, weights, metadata)


def load_checkpoint(
    path, expected_config: RerankerConfig | None = None
) -> tuple[RerankerWeights, RerankerConfig, dict]:
    def make_config(**fields) -> RerankerConfig:
        cfg = RerankerConfig(**fields)
        if expected_config is not None and cfg != expected_config:
            raise ShapeError(
                f"{Path(path)}: checkpoint config {cfg} does not match expected {expected_config}"
            )
        return cfg

    cfg, params, meta = _load_params(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _CKPT_FIELDS, make_config, _param_shapes
    )
    return RerankerWeights(cfg, params), cfg, meta
