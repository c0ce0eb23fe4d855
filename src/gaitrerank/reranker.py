"""Cross-attention re-ranker: model, exact gradients, checkpoints.

The model conditions each feature map on its pair partner through
strip-wise multi-head cross-attention with a residual connection, then
measures the strip-averaged Euclidean distance between the two
conditioned maps. A small MLP head classifies conditioned maps into
training identities for the cross-entropy regularizer.

Attention runs folded: per head, W_q W_k^T and W_v W_o are multiplied
out into d x d matrices, the key bias drops out (it adds the same amount
to a row of scores, which softmax ignores), and the partner map is
attended raw. So the cost scales with d, not with the head width
(``_attention_forward``).

All forward and backward passes are plain numpy with a fixed operation
order, so results are deterministic for a given platform and dtype.
Parameters live in float32 for production use; float64 is used by the
gradient-check tests.

A model's parameters are one flat array, read by canonical name through
``params()``. The names and their order (the layout of the flat array
and the checkpoint, and the gradient dict's keys) are written once per
model, in its store class's ``_param_shapes``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import FormatError, NonFiniteError, ShapeError
from .feature_store import _read_bytes, _read_text, _write_atomic

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
    """A model's config and its parameters as one contiguous array,
    ``flat``, holding every parameter in the order of the class's
    ``_param_shapes(config)``; ``params()`` reads them by canonical name."""

    config: Any
    flat: np.ndarray

    def __post_init__(self) -> None:
        self._views, offset = {}, 0
        for name, shape in self._param_shapes(self.config):
            self._views[name] = self.flat[offset : offset + math.prod(shape)].reshape(shape)
            offset += math.prod(shape)

    @classmethod
    def glorot(cls, config, seed: int, dtype=np.float32):
        """Glorot-uniform matrices drawn in canonical order from one seeded
        generator; vectors zero."""
        rng = np.random.default_rng(seed)
        parts = []
        for _, shape in cls._param_shapes(config):
            limit = math.sqrt(6.0 / sum(shape))
            parts.append(rng.uniform(-limit, limit, shape).ravel() if len(shape) == 2
                         else np.zeros(shape))
        return cls(config, np.concatenate(parts).astype(dtype))

    def params(self) -> dict[str, np.ndarray]:
        """Views into ``flat`` by canonical name, built once: writing
        through them writes the store."""
        return self._views

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def copy(self):
        return type(self)(self.config, self.flat.copy())

    def check_finite(self, where) -> None:
        """A NaN or infinity is a NonFiniteError naming ``where`` and the
        first parameter holding one."""
        if not np.isfinite(self.flat).all():
            name = next(n for n, a in self._views.items() if not np.isfinite(a).all())
            raise NonFiniteError(f"{where}: NaN or Inf in parameter {name}")

    def check_maps(self, what: str, shape: tuple[int, ...]) -> None:
        """Both pair models' one shape rule, which each entry point checks
        first: ``what``'s maps, each of ``shape``, are the config's (s, d)."""
        want = (self.config.s, self.config.d)
        if shape != want:
            raise ShapeError(f"{what} maps are {shape}, the model declares {want}")


class RerankerWeights(ParamStore):
    config: RerankerConfig

    @staticmethod
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

    def block(self, i: int) -> dict[str, np.ndarray]:
        """Attention block ``i``'s arrays keyed by short name (``w_q``, ...)."""
        prefix = f"block{i}."
        return {
            name[len(prefix) :]: arr
            for name, arr in self._views.items()
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


def init_weights(
    config: RerankerConfig, seed: int, dtype=np.float32
) -> RerankerWeights:
    """Glorot-uniform projections, zero biases, from a seeded generator.

    The same (config, seed) pair always produces bitwise-equal weights.
    """
    return RerankerWeights.glorot(config, seed, dtype)


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


def _softmax_rows(scores: np.ndarray) -> None:
    """In place: ``scores`` becomes softmax(scores) over its last axis,
    with the row max subtracted first for overflow safety."""
    top = scores[..., 0].copy()
    for j in range(1, scores.shape[-1]):
        np.maximum(top, scores[..., j], out=top)
    scores -= top[..., None]
    np.exp(scores, out=scores)
    scores /= _row_sum(scores)[..., None]


def _heads(blk: dict[str, np.ndarray], cfg: RerankerConfig) -> tuple[np.ndarray, ...]:
    """Views of a block's ``w_q``, ``w_k`` and ``w_v`` as (H, d, dh),
    ``w_o`` as (H, dh, d) and ``b_q`` as (H, dh): head h's slices."""
    d, H, dh = cfg.d, cfg.heads, cfg.head_dim
    w_q, w_k, w_v = (blk[p].reshape(d, H, dh).transpose(1, 0, 2) for p in ("w_q", "w_k", "w_v"))
    return w_q, w_k, w_v, blk["w_o"].reshape(H, dh, d), blk["b_q"].reshape(H, dh)


def _fold(blk: dict[str, np.ndarray], cfg: RerankerConfig, dtype: np.dtype):
    """Block ``blk`` folded, in ``dtype``, into ``m`` (d, H*d), ``c``
    (H*d,), ``w_vo`` (H*d, d) and ``b`` (d,): head h's scores are
    (x @ m + c)[:, h*d:(h+1)*d] @ partner.T, and the block adds
    (attn @ partner, heads side by side) @ w_vo + b to its query."""
    d, H = cfg.d, cfg.heads
    scale = dtype.type(1.0 / np.sqrt(cfg.head_dim))
    blk = {name: arr.astype(dtype, copy=False) for name, arr in blk.items()}
    w_q, w_k, w_v, w_o, b_q = _heads(blk, cfg)
    m = (scale * w_q) @ w_k.transpose(0, 2, 1)
    c = w_k @ (scale * b_q)[..., None]
    w_vo = w_v @ w_o
    b = blk["b_o"] + blk["b_v"] @ blk["w_o"]
    return m.transpose(1, 0, 2).reshape(d, H * d), c.reshape(H * d), w_vo.reshape(H * d, d), b


def _attention_forward(
    maps: np.ndarray,
    query_idx: np.ndarray,
    partner_idx: np.ndarray,
    weights: RerankerWeights,
    want_cache: bool = False,
):
    """Apply all attention blocks to N directed pairs of stacked maps.

    ``maps`` is a (U, s, d) stack of distinct maps; direction n conditions
    ``maps[query_idx[n]]`` on ``maps[partner_idx[n]]``, the raw partner
    map in every block. Each block runs folded (``_fold``). Of the terms
    of head h's score (x W_q,h + b_q,h)(y W_k,h + b_k,h)^T, for query row
    x and partner row y, x W_q,h b_k,h^T and b_q,h b_k,h^T are the same
    for every y, so softmax drops them and the scores are (x M_h + c_h) y^T.
    As attention rows sum to 1, attn (Y W_v,h + b_v,h) W_o,h is
    (attn Y) W_v,h W_o,h + b_v,h W_o,h. So only the query side is
    projected: block 0 projects every distinct map once and gathers the
    rows each direction needs, later blocks project the residual. The
    partner rows are gathered once per call and shared by every head and
    block.

    Per direction the fold costs about s*H*d*(2s + 2d) multiply-adds
    against s*H*dh*(2s + 2d) unfolded, so it saves work while d is at
    most the head width dh. One forward-backward of a 32 x 4 float32
    batch at s=8 (medians of 5 alternating processes, 2 vCPUs) took
    7.0 ms against 11.1 ms unfolded at d=16 with 4 heads of 16 (the
    acceptance harness), 12.0 against 35.5 ms at d=16 with 8 heads of 32
    (the CLI defaults), and 25.5 against 16.0 ms at d=64 with 4 heads of
    16.

    Everything computes in the maps' dtype: the weights and every scalar
    are cast to it, so nothing widens. Returns the (N, s, d) conditioned
    queries and, with ``want_cache``, what ``_attention_backward`` needs:
    the gathered partner rows as (N, 1, s, d) and (N, 1, d, s), and one
    tuple per block.
    """
    cfg = weights.config
    s, d = maps.shape[1:]
    N, H = len(query_idx), cfg.heads
    x = maps[query_idx]
    kv = maps[partner_idx][:, None]
    # the partner rows transposed, laid out contiguously: as matmul's
    # second operand a transposed view runs about 2.5x slower
    kv_t = np.ascontiguousarray(kv.transpose(0, 1, 3, 2))
    caches = []
    for i in range(cfg.blocks):
        m, c, w_vo, b = _fold(weights.block(i), cfg, maps.dtype)
        q = ((maps if i == 0 else x).reshape(-1, d) @ m + c).reshape(-1, s, H, d)
        q = np.ascontiguousarray(q.transpose(0, 2, 1, 3))
        attn = (q[query_idx] if i == 0 else q) @ kv_t  # (N,H,s,s) scores
        del q  # last read: freed before concat is allocated
        _softmax_rows(attn)
        concat = np.empty((N * s, H * d), dtype=maps.dtype)
        np.matmul(attn, kv, out=concat.reshape(N, s, H, d).transpose(0, 2, 1, 3))
        # x + (concat @ w_vo + b), summed in place in the product's buffer
        out = (concat @ w_vo).reshape(N, s, d)
        out += b
        out += x
        if want_cache:
            caches.append((x, attn, concat, m, w_vo))
        x = out
    return x, ((kv, kv_t, caches) if want_cache else None)


def _attention_backward(
    grad_out: np.ndarray,
    caches: tuple,
    weights: RerankerWeights,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate parameter gradients for the stacked blocks.

    The gradients of the folded arrays come from the gathered rows of each
    direction, so no scatter back to the distinct maps is needed, and the
    chain rule takes them back to the parameters one head at a time.
    Input-feature gradients are propagated through the residual chain
    between blocks but not returned: the upstream feature extractor is
    frozen.

    Backward keeps each array only until its last read. It consumes
    ``caches``: a block's tuple is taken off the list when its turn comes,
    ``concat`` is released once d W_vo is read from it and ``attn`` after
    the softmax backward, d (x m + c) is written into d ctx's buffer, and
    d scores is released before the chain rule. So one (N*s, H*d) array
    and one score array live at a time beside the caches of the blocks
    still to come. With the loss side's arrays also released after their
    last reads, a step's tracemalloc peak fell from 7.03 to 3.45 MB at the
    acceptance harness, 44.5 to 21.4 MB at s=16, d=64 and 131.4 to 56.8 MB
    at s=16, d=128, 8 heads, hidden 256 (README).
    """
    cfg = weights.config
    N, s, d = grad_out.shape
    H = cfg.heads
    scale = grad_out.dtype.type(1.0 / np.sqrt(cfg.head_dim))
    ones = np.ones(N * s, dtype=grad_out.dtype)  # bias gradients as GEMVs
    kv, kv_t, blocks = caches
    dx = grad_out
    for i in range(cfg.blocks - 1, -1, -1):
        blk = weights.block(i)
        x, attn, concat, m, w_vo = blocks.pop()
        dproj = dx.reshape(N * s, d)
        db = ones @ dproj
        dw_vo = (concat.T @ dproj).reshape(H, d, d)
        del concat
        # d ctx in its (N*s, H*d) row layout; d (x m + c) then overwrites it
        dq = dproj @ w_vo.T
        dq_heads = dq.reshape(N, s, H, d).transpose(0, 2, 1, 3)
        # d attn, turned in place into d scores (softmax backward)
        dscores = dq_heads @ kv_t
        dscores -= _row_dot(dscores, attn)[..., None]
        dscores *= attn
        del attn
        np.matmul(dscores, kv, out=dq_heads)
        del dscores
        # d M_h and d c_h, times the scale that M_h and c_h carry
        dm = scale * (x.reshape(N * s, d).T @ dq).reshape(d, H, d).transpose(1, 0, 2)
        dc = scale * (ones @ dq).reshape(H, d, 1)
        # the chain rule back to the parameters, into views of their gradients
        w_q, w_k, w_v, w_o, b_q = _heads(blk, cfg)
        g_q, g_k, g_v, g_o, g_bq = _heads({p: grads[f"block{i}.{p}"] for p in blk}, cfg)
        g_q += dm @ w_k
        g_k += dm.transpose(0, 2, 1) @ w_q
        g_k += dc * b_q[:, None, :]
        g_bq += (w_k.transpose(0, 2, 1) @ dc)[..., 0]
        g_v += dw_vo @ w_o.transpose(0, 2, 1)
        g_o += w_v.transpose(0, 2, 1) @ dw_vo
        grads[f"block{i}.w_o"] += np.outer(blk["b_v"], db)
        grads[f"block{i}.b_v"] += blk["w_o"] @ db
        grads[f"block{i}.b_o"] += db
        # b_k's exact gradient is zero: a key bias adds the same q.b_k to
        # every score of a query row, which softmax ignores. The fold drops
        # it, so nothing is added for it, not even rounding noise, which
        # AdamW would turn into steps of lr.
        if i > 0:
            # residual path plus the query projection path
            dx = dx + (dq @ m.T).reshape(N, s, d)


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


def _mlp_forward(x: np.ndarray, p: dict[str, np.ndarray], prefix: str = ""):
    # the two-layer tanh head both pair models share, (N, in) -> (N, out),
    # with its activations h for the backward
    h = np.tanh(x @ p[prefix + "w1"] + p[prefix + "b1"])
    return h @ p[prefix + "w2"] + p[prefix + "b2"], h


def _mlp_backward(dout: np.ndarray, x: np.ndarray, h: np.ndarray,
                  p: dict[str, np.ndarray], prefix: str = ""):
    # dout: (N, out) upstream; returns the head's gradients as new arrays
    # keyed w1, b1, w2, b2, and the gradient wrt x @ w1 + b1, (N, hidden)
    dpre = (dout @ p[prefix + "w2"].T) * (1.0 - h * h)
    grads = {"w1": x.T @ dpre, "b1": dpre.sum(axis=0), "w2": h.T @ dout, "b2": dout.sum(axis=0)}
    return grads, dpre


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
class IndexedBatch:
    """A triplet batch as rows into a shared stack of maps, so each
    distinct map is projected once however many triplets use it.

    maps: (n, s, d); index: (B, 3) rows of probe, positive, negative;
    labels: (B, 3) int array with the class index of probe, positive,
    negative. Every label must be < C.
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


def TripletBatch(probe, pos, neg, labels) -> IndexedBatch:
    """A batch of explicit (B, s, d) probe, positive and negative maps;
    every map counts as distinct."""
    b = len(probe)
    return IndexedBatch(np.concatenate([probe, pos, neg]), np.arange(3 * b).reshape(3, b).T, labels)


def _batch_forward(
    batch: IndexedBatch,
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
    weights.check_maps("batch", batch.maps.shape[1:])
    maps, index = batch.unique_maps()
    if batch.labels.shape != (B, 3):
        raise ShapeError(f"labels must be (B, 3), got {batch.labels.shape}")
    if batch.labels.min() < 0 or batch.labels.max() >= cfg.num_classes:
        raise ValueError(
            f"labels must lie in [0, {cfg.num_classes}), "
            f"got range [{batch.labels.min()}, {batch.labels.max()}]"
        )

    # pair slots: triplet t's positive pair is slot t, its negative pair
    # slot B + t. Each distinct unordered pair is attended once both ways,
    # lo|hi in rows [0, n) and hi|lo in rows [n, 2n)
    p, pos, neg = index.T
    U = len(maps)
    first, second = np.concatenate([p, p]), np.concatenate([pos, neg])
    keys, slot = np.unique(
        np.minimum(first, second) * U + np.maximum(first, second), return_inverse=True
    )
    lo, hi = np.divmod(keys, U)
    n = len(keys)
    e, caches = _attention_forward(
        np.ascontiguousarray(maps, dtype=dtype),
        np.concatenate([lo, hi]),
        np.concatenate([hi, lo]),
        weights,
        want_cache=want_grads,
    )

    # losses in float64 so ranking distances keep their precision contract;
    # swapping a pair's sides only negates its diff, so each slot's
    # distance is that of its (probe, candidate) order
    e = e.astype(np.float64)
    dist, dist_cache = _pair_distances_and_cache(e[:n], e[n:])
    d_pos, d_neg = dist[slot[:B]], dist[slot[B:]]
    ranking_total = ranking_loss(d_pos, d_neg, beta).sum()

    # the mean cross-entropy over the 4B conditioned maps of the triplets,
    # each distinct direction weighted by the number of its pair's slots.
    # A row carries one label, wherever it occurs
    map_labels = np.empty(U, dtype=batch.labels.dtype)
    map_labels[index] = batch.labels
    labels = map_labels[np.concatenate([lo, hi])]
    pooled = e.mean(axis=1)
    del e
    logits, h = _mlp_forward(pooled, weights.params(), "cls.")
    ce, probs = _cross_entropy(logits, labels)
    occ = np.tile(np.bincount(slot), 2)
    ce_mean = (occ @ ce) / (4 * B)

    loss = float(ranking_total + alpha * ce_mean)
    if not want_grads:
        return loss, None

    # ---- backward -------------------------------------------------------
    # each loss-side array is dropped after its last read, so the attention
    # backward runs beside its own caches and the converted de alone
    grads = RerankerWeights(cfg, np.zeros_like(weights.flat)).params()

    # classifier head: alpha times the weighted mean CE (exactly zero when alpha=0)
    dlogits = probs
    dlogits[np.arange(2 * n), labels] -= 1.0
    dlogits *= (alpha / (4 * B)) * occ[:, None]
    head, dpre = _mlp_backward(dlogits, pooled, h, weights.params(), "cls.")
    del probs, dlogits, pooled, h
    for name, g in head.items():
        grads["cls." + name] += g
    dpooled = dpre @ weights.params()["cls.w1"].T

    x = d_neg - d_pos
    dldx = np.where(x >= 0, beta, 1.0) * (_stable_sigmoid(x) - 1.0)  # d loss / d (d_neg - d_pos)
    # one float per pair: the summed upstream gradient of its distance
    g_dist = np.bincount(slot, weights=np.concatenate([-dldx, dldx]))
    g_lo = _pair_distances_backward(g_dist, dist_cache)
    del dist_cache
    de = np.concatenate([g_lo, -g_lo])
    del g_lo
    de += dpooled[:, None, :] / cfg.s
    de = de.astype(dtype)

    _attention_backward(de, caches, weights, grads)
    return loss, grads


def forward_backward(
    batch: IndexedBatch,
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
    batch: IndexedBatch,
    weights: RerankerWeights,
    alpha: float,
    beta: float,
) -> float:
    """Forward-only evaluation of the combined loss."""
    return _batch_forward(batch, weights, alpha, beta, want_grads=False)[0]


# ---------------------------------------------------------------------------
# public single-pair operations
# ---------------------------------------------------------------------------


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
    names ``caller``; an overflow on the way there warns of nothing.
    """
    dtype = np.result_type(maps.dtype, weights.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        out, _ = _attention_forward(
            np.ascontiguousarray(maps, dtype=dtype),
            np.asarray(query_idx, dtype=np.intp),
            np.asarray(partner_idx, dtype=np.intp),
            weights,
        )
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{caller} produced non-finite values")
    return out


def attended_pair(
    f_p: np.ndarray,
    f_c: np.ndarray,
    weights: RerankerWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """The conditioned maps ``(e_p, e_c)`` of a probe/candidate pair: both
    directions with one shared weight set."""
    p, c = np.asarray(f_p), np.asarray(f_c)
    weights.check_maps("probe", p.shape)
    weights.check_maps("candidate", c.shape)
    e_p, e_c = _attend(np.stack([p, c]), [0, 1], [1, 0], weights, "attended_pair")
    return e_p, e_c


def rerank_distance(
    f_p: np.ndarray,
    f_c: np.ndarray,
    weights: RerankerWeights,
) -> float:
    """Strip distance between the conditioned representations."""
    return float(pair_distances(f_p, np.asarray(f_c)[None], weights)[0])


def pair_distances(
    probe_map: np.ndarray,
    candidate_maps: np.ndarray,
    weights: RerankerWeights,
) -> np.ndarray:
    """rerank_distance of one probe against M candidates, batched.

    candidate_maps: (M, s, d). Returns (M,) float64 distances. They follow
    rerank_distance's dtype rule and, with zeroed attention, equal its
    values bitwise; otherwise the batched GEMMs may round differently at
    some shapes, so they agree with per-pair calls within float rounding.
    """
    probe, cands = np.asarray(probe_map), np.asarray(candidate_maps)
    weights.check_maps("probe", probe.shape)
    weights.check_maps("candidate", cands.shape[1:])
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
    then ``weights.flat``; plus the JSON metadata sidecar. A NaN or
    infinity is refused before anything is written."""
    dtype = weights.dtype
    code = dtype.itemsize
    if code not in _DTYPE_CODES:
        raise FormatError(f"unsupported parameter dtype {dtype}")
    weights.check_finite(path)
    values = (getattr(weights.config, name) for name in fields)
    with _write_atomic(path, "wb") as fh:
        fh.write(_param_header(len(fields)).pack(magic, version, code, *values))
        fh.write(np.ascontiguousarray(weights.flat, dtype=_DTYPE_CODES[code]))
    with _write_atomic(_meta_path(path), "w") as fh:
        fh.write(json.dumps(metadata or {}, indent=2, sort_keys=True) + "\n")


def _load_params(
    path, magic: bytes, version: int, fields: tuple[str, ...], config_type, store_type
):
    """Read a file written by ``_save_params``.

    ``config_type(**header_fields)`` builds the config (a ValueError there
    is a FormatError) and ``store_type._param_shapes(config)`` yields the
    parameter names and shapes in canonical order. A NaN or infinity is a
    NonFiniteError. Returns (weights, config, meta).
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
        cfg = config_type(**dict(zip(fields, values)))
    except ValueError as exc:
        raise FormatError(f"{p}: invalid stored config ({exc})") from exc

    dt = _DTYPE_CODES[code]
    end = header.size
    # drawn one at a time: a huge header stops at the first shape past the end
    for name, shape in store_type._param_shapes(cfg):
        end += math.prod(shape) * dt.itemsize
        if end > len(blob):
            raise FormatError(f"{p}: truncated at parameter {name}")
    if end != len(blob):
        raise FormatError(f"{p}: {len(blob) - end} trailing bytes")
    weights = store_type(cfg, np.frombuffer(blob, dtype=dt, offset=header.size).copy())
    weights.check_finite(p)

    meta = {}
    mp = _meta_path(p)
    if mp.exists():
        try:
            meta = json.loads(_read_text(mp))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{mp}: invalid JSON ({exc})") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"{mp}: metadata must be a JSON object")
    return weights, cfg, meta


def save_checkpoint(
    weights: RerankerWeights,
    path,
    metadata: dict | None = None,
) -> None:
    """Binary checkpoint (magic CGRK) plus a JSON metadata sidecar."""
    _save_params(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _CKPT_FIELDS, weights, metadata)


def load_checkpoint(path) -> tuple[RerankerWeights, RerankerConfig, dict]:
    return _load_params(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _CKPT_FIELDS, RerankerConfig, RerankerWeights
    )
