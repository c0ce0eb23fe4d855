"""Training-set construction, triplet sampling, AdamW, train loop.

Candidate lists come from the first-stage ranking: each probe keeps its
top-v nearest sequences from the same partition, flagged positive when
the identities match. Triplets are drawn from entries that contain at
least one positive and one negative, so the ranking loss is always
defined.

The stopping rule is an argmin over validation evaluations: every
``t_val`` iterations the summed ranking loss of a fixed, pre-drawn
validation triplet sample is computed and the weights are snapshotted
when it strictly improves.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import platform
import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, FormatError, NonFiniteError
from .feature_store import FeatureSet, _lookup, _read_text, _write_atomic
from .metrics import _matches
from .ranking import _json_values, rank_all
from .ranking import rank_gallery  # noqa: F401 (not called here; perfbench wraps training.rank_gallery)
from .reranker import (
    IndexedBatch,
    ParamStore,
    RerankerConfig,
    batch_loss,
    forward_backward,
    init_weights,
    ranking_loss,  # re-exported: the loss lives with the model it trains
)

VAL_FRACTION = 0.10

# AdamW moment decay rates and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class Triplet:
    probe_id: str
    pos_id: str
    neg_id: str


@dataclass(frozen=True)
class TrainingEntry:
    """One probe with its ordered top-v candidates.

    ``distances`` are the first-stage strip distances (ascending) and
    ``positive`` marks identity matches.
    """

    probe_id: str
    candidate_ids: tuple[str, ...]
    distances: tuple[float, ...]
    positive: tuple[bool, ...]

    def __post_init__(self) -> None:
        # normalize so entries compare equal across construction paths
        object.__setattr__(self, "candidate_ids", tuple(self.candidate_ids))
        object.__setattr__(self, "distances", tuple(map(float, self.distances)))
        object.__setattr__(self, "positive", tuple(map(bool, self.positive)))
        n = len(self.candidate_ids)
        if len(self.distances) != n or len(self.positive) != n:
            raise ValueError("candidate_ids, distances and positive must align")

    @property
    def positives(self) -> tuple[str, ...]:
        return tuple(c for c, p in zip(self.candidate_ids, self.positive) if p)

    @property
    def negatives(self) -> tuple[str, ...]:
        return tuple(c for c, p in zip(self.candidate_ids, self.positive) if not p)

    @property
    def eligible(self) -> bool:
        return any(self.positive) and not all(self.positive)


def _check_v(v) -> None:
    # an integer proper: int() would also take "30", 30.5 and True
    if type(v) is not int or v < 2:
        raise ValueError(f"v must be an integer >= 2, got {v!r}")


@dataclass(frozen=True)
class TrainingSet:
    entries: tuple[TrainingEntry, ...]
    v: int

    def __post_init__(self) -> None:
        _check_v(self.v)

    def __len__(self) -> int:
        return len(self.entries)

    def eligible_entries(self) -> tuple[TrainingEntry, ...]:
        return tuple(e for e in self.entries if e.eligible)

    @cached_property
    def _row_index(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The set's row index, ``(ids, probes, counts, starts,
        candidates)``: its sorted referenced ids, and per eligible entry its
        probe's position in ``ids``, its (positive, negative) counts and
        where those positives and negatives start in ``candidates``, the
        positions of every eligible entry's positives, then its negatives."""
        ids = sorted(referenced_sequences(self))
        at = {sid: i for i, sid in enumerate(ids)}
        eligible = self.eligible_entries()
        counts = np.array([(len(e.positives), len(e.negatives)) for e in eligible],
                          dtype=np.int64).reshape(-1, 2)
        probes = np.array([at[e.probe_id] for e in eligible], dtype=np.intp)
        candidates = np.array([at[c] for e in eligible for c in e.positives + e.negatives],
                              dtype=np.intp)
        return ids, probes, counts, np.cumsum(counts).reshape(-1, 2) - counts, candidates


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.01
    beta: float = 0.1
    v: int = 30
    lr: float = 1e-5
    weight_decay: float = 1e-2
    batch_probes: int = 32
    triplets_per_probe: int = 4
    iterations: int = 100_000
    t_val: int = 10_000
    val_triplets: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        for name in ("alpha", "lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        _check_v(self.v)
        for name in ("batch_probes", "triplets_per_probe", "t_val", "val_triplets"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


def split_train_val(
    features: FeatureSet, val_fraction: float = VAL_FRACTION
) -> tuple[FeatureSet, FeatureSet]:
    """Hold out the last ``val_fraction`` of identities (ceil, sorted
    order) for validation: each part holds its rows of ``features.strips``
    in entry order, and one identity's sequences never straddle the split."""
    if not 0.0 < val_fraction < 1.0:
        raise DataError(f"val_fraction must be in (0, 1), got {val_fraction}")
    identities = features.identities()
    if len(identities) < 10:
        raise DataError(
            f"need at least 10 identities to split, got {len(identities)}"
        )
    n_val = math.ceil(val_fraction * len(identities))
    val_ids = set(identities[len(identities) - n_val :])
    held = np.array([iid in val_ids for iid in features.identity_ids])
    ids = np.array([features.sequence_ids, features.identity_ids], dtype=object)
    return tuple(FeatureSet(features.strips[rows], *ids[:, rows], partition)
                 for rows, partition in ((~held, "train"), (held, "val")))


def build_training_set(partition: FeatureSet, v: int = 30) -> TrainingSet:
    """Rank every sequence against the rest of its partition, all in one
    ``rank_all`` call, and keep the top-v with positive flags."""
    _check_v(v)
    if len(partition) < 2:
        raise DataError("need at least 2 sequences to build a training set")
    identity = partition.identity_map()
    entries = []
    for ranked in rank_all(partition, partition, k=min(v, len(partition) - 1)):
        ids = ranked.ids()
        entries.append(TrainingEntry(probe_id=ranked.probe_id, candidate_ids=ids,
                                     distances=ranked.distances(),
                                     positive=_matches(ranked.probe_id, ids, identity)))
    return TrainingSet(entries=tuple(entries), v=v)


def write_training_set(ts: TrainingSet, path) -> None:
    with _write_atomic(path, "w") as fh:
        fh.write(json.dumps({"v": ts.v}) + "\n")
        for e in ts.entries:
            rec = {"probe_id": e.probe_id, "candidates": list(e.candidate_ids),
                   "distances": list(e.distances), "positive": list(e.positive)}
            fh.write(json.dumps(rec) + "\n")


def read_training_set(path) -> TrainingSet:
    lines = _read_text(path).splitlines()
    if not lines:
        raise FormatError(f"{path}: empty training-set file")
    try:
        v = json.loads(lines[0])["v"]
        entries = []
        for line in lines[1:]:
            rec = json.loads(line)
            entries.append(
                TrainingEntry(
                    probe_id=_json_values([rec["probe_id"]], str)[0],
                    candidate_ids=_json_values(rec["candidates"], str),
                    distances=_json_values(rec["distances"], float),
                    positive=_json_values(rec["positive"], bool),
                )
            )
            e = entries[-1]
            if not all(map(math.isfinite, e.distances)):
                raise NonFiniteError(f"{path}: NaN or Inf distance for probe {e.probe_id!r}")
            # records build_training_set never writes, refused as read_ranked_lists does
            if e.probe_id in e.candidate_ids:
                raise FormatError(f"{path}: probe {e.probe_id!r} is among its own candidates")
            if len(set(e.candidate_ids)) < len(e.candidate_ids):
                raise FormatError(f"{path}: duplicate candidate id for probe {e.probe_id!r}")
            if any(a > b for a, b in zip(e.distances, e.distances[1:])):
                raise FormatError(f"{path}: distances are not ascending for probe {e.probe_id!r}")
        return TrainingSet(entries=tuple(entries), v=v)
    except (KeyError, OverflowError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: invalid training-set record ({exc})") from exc


def referenced_sequences(ts: TrainingSet) -> set[str]:
    """All sequence ids a training set touches (probes and candidates)."""
    return {e.probe_id for e in ts.entries} | {
        c for e in ts.entries for c in e.candidate_ids
    }


def _eligible_index(ts: TrainingSet, what: str) -> tuple:
    """``ts._row_index``; a set with no eligible entry is a DataError."""
    if not len(ts._row_index[1]):
        raise DataError(f"{what} set has no entry with both a positive and a negative")
    return ts._row_index


def _draw(index: tuple, cfg: TrainConfig, rng: np.random.Generator) -> np.ndarray:
    """One batch from an eligible set's row index: its (probe, positive,
    negative) positions in the index's ids, (B, 3). batch_probes eligible
    probes (without replacement when enough exist), triplets_per_probe
    pairs per probe."""
    _, probes, counts, starts, candidates = index
    replace = len(probes) < cfg.batch_probes
    drawn = np.repeat(rng.choice(len(probes), size=cfg.batch_probes, replace=replace),
                      cfg.triplets_per_probe)
    # one positive then one negative index per triplet, in one call: each
    # element of an array bound draws from the generator exactly as a
    # scalar rng.integers(bound) call would, so the draws are those of a
    # per-triplet loop
    picks = candidates[starts[drawn] + rng.integers(counts[drawn])]
    return np.column_stack([probes[drawn], picks])


def sample_triplets(ts: TrainingSet, cfg: TrainConfig, rng: np.random.Generator) -> list[Triplet]:
    """The ids of the batch the training loop draws with ``rng``."""
    index = _eligible_index(ts, "training")
    return [Triplet(*map(index[0].__getitem__, t)) for t in _draw(index, cfg, rng).tolist()]


def make_batch(
    triplets: Sequence[Triplet],
    features: FeatureSet,
    labels: Mapping[str, int],
) -> IndexedBatch:
    """Each triplet's rows in ``features.strips``, (B, 3), and its (B, 3)
    labels; the batch indexes the set's array rather than copying maps."""
    ids = [i for t in triplets for i in (t.probe_id, t.pos_id, t.neg_id)]
    rows = _lookup(features.row_of, ids, "features for sequence")
    lab = _lookup(labels, ids, "class label for sequence")
    return IndexedBatch(maps=features.strips, index=np.array(rows, dtype=np.intp).reshape(-1, 3),
                        labels=np.array(lab, dtype=np.int64).reshape(-1, 3))


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


@dataclass
class AdamWState:
    """The step count and both moments, flat in the weights' layout."""

    step: int
    m: np.ndarray
    v: np.ndarray


def init_adamw(weights: ParamStore) -> AdamWState:
    return AdamWState(step=0, m=np.zeros_like(weights.flat), v=np.zeros_like(weights.flat))


def adamw_step(
    weights: ParamStore,
    grads: Mapping[str, np.ndarray],
    state: AdamWState,
    cfg: TrainConfig,
) -> None:
    """In-place decoupled-decay AdamW update with bias correction, on
    ``weights.flat`` at once: the gradients are gathered in canonical order.

    Decay is applied to every parameter before the moment update, so with
    zero gradients each weight is scaled by exactly (1 - lr * wd).
    """
    params = weights.params()
    for name, w in params.items():
        if grads[name].shape != w.shape:
            raise ValueError(
                f"gradient shape {grads[name].shape} != parameter shape {w.shape} for {name}")
    g = np.concatenate([grads[name].reshape(-1) for name in params])
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    w, m, v = weights.flat, state.m, state.v
    w *= 1.0 - cfg.lr * cfg.weight_decay
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    w -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class LogRow:
    iteration: int
    train_loss: float
    val_loss: float | None
    wall_time_ms: float


@dataclass
class TrainResult:
    """What ``train`` and ``baseline.train_baseline`` return; ``weights``
    is the validation-argmin snapshot, RerankerWeights or BaselineWeights."""

    weights: Any
    best_iteration: int
    best_val_loss: float
    history: list[LogRow] = field(default_factory=list)


def _fixed_val_batch(val_ts: TrainingSet, cfg: TrainConfig, features: FeatureSet,
                     rng: np.random.Generator) -> IndexedBatch:
    """``cfg.val_triplets`` triplets drawn one at a time (probe, positive,
    negative) from the set's row index; the first drawn id without
    features is the MissingIdError."""
    ids, *index = _eligible_index(val_ts, "validation")
    probes, counts, starts, candidates = (a.tolist() for a in index)
    drawn = []
    for _ in range(cfg.val_triplets):
        e = rng.integers(len(probes))
        # the probe, then a draw among its positives and one among its negatives
        drawn += ids[probes[e]], *(ids[candidates[first + rng.integers(n)]]
                                   for first, n in zip(starts[e], counts[e]))
    rows = np.array(_lookup(features.row_of, drawn, "features for sequence"), dtype=np.intp)
    index = rows.reshape(-1, 3)
    # labels are unused for the ranking-only validation loss
    return IndexedBatch(features.strips, index, np.zeros(index.shape, dtype=np.int64))


def train(
    train_ts: TrainingSet,
    val_ts: TrainingSet,
    features: FeatureSet,
    cfg: TrainConfig,
    model: RerankerConfig,
    progress: Callable[[LogRow], None] | None = None,
) -> TrainResult:
    """Optimize the re-ranker and return the validation-argmin snapshot.

    ``features`` must contain every sequence referenced by either
    training set. The classifier's label space is the identity inventory
    of the train-side entries; validation triplets feed only the ranking
    loss, so unseen validation identities are fine.
    """
    seq_identities = _lookup(features.identity_map(), train_ts._row_index[0],
                             "features for sequence")
    train_identities = sorted(set(seq_identities))
    label_by_identity = {ident: i for i, ident in enumerate(train_identities)}
    labels = np.array([label_by_identity[i] for i in seq_identities], dtype=np.int64)

    if model.num_classes < len(train_identities):
        raise ValueError(
            f"model has {model.num_classes} classes but the train split has "
            f"{len(train_identities)} identities"
        )

    return _train_loop(
        train_ts,
        val_ts,
        features,
        cfg,
        labels,
        init=lambda seed: init_weights(model, seed=seed),
        step=lambda batch, w: forward_backward(batch, w, alpha=cfg.alpha, beta=cfg.beta),
        val_loss=lambda batch, w: batch_loss(batch, w, alpha=0.0, beta=cfg.beta),
        progress=progress,
    )


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@cache
def _retain_freed_memory() -> None:
    """Have glibc keep freed heap memory for reuse instead of returning it.

    Every iteration allocates and frees the same few megabytes of
    temporaries. Under glibc's default thresholds the heap top is trimmed
    as they are freed, so the next iteration faults its working set back
    in: about 2,000 minor faults per iteration at the acceptance harness
    size, a quarter of the wall time in the kernel, and a fault count that
    depends on the heap's history, so the same run varied by 10-20% in
    speed. Serving arrays up to 32 MiB from the heap and trimming only
    above 256 MiB free removes the faults. Set once per process; a no-op
    off glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _train_loop(
    train_ts: TrainingSet,
    val_ts: TrainingSet,
    features: FeatureSet,
    cfg: TrainConfig,
    labels: np.ndarray | None,
    init: Callable,
    step: Callable,
    val_loss: Callable,
    progress: Callable[[LogRow], None] | None,
) -> TrainResult:
    """The loop both models train with: seeded triplet batches, AdamW, and
    the argmin snapshot over validation evaluations every ``t_val``.

    ``labels`` holds the class label of each of the training set's sorted
    referenced ids (None: all 0, for a loss that reads none).
    ``init(seed)`` returns the starting weights, ``step(batch, weights)``
    the training loss and gradients, and ``val_loss(batch, weights)`` the
    loss of the fixed validation batch. The training ids are looked up once,
    in sorted order, and each batch indexes their rows.
    """
    _retain_freed_memory()
    index = _eligible_index(train_ts, "training")
    rows = np.array(_lookup(features.row_of, index[0], "features for sequence"), dtype=np.intp)
    labels = np.zeros(len(rows), dtype=np.int64) if labels is None else labels
    ss = np.random.SeedSequence(cfg.seed)
    init_seed, batch_seed, val_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(3))
    weights = init(init_seed)
    batch_rng = np.random.default_rng(batch_seed)
    val_batch = _fixed_val_batch(val_ts, cfg, features, np.random.default_rng(val_seed))

    state = init_adamw(weights)
    history: list[LogRow] = []
    start = time.monotonic()

    def record(iteration: int, train_loss: float, evaluate: bool) -> float | None:
        vl = val_loss(val_batch, weights) if evaluate else None
        if vl is not None and not math.isfinite(vl):
            raise loss_error(iteration, "validation", val_batch)
        row = LogRow(
            iteration=iteration,
            train_loss=train_loss,
            val_loss=vl,
            wall_time_ms=(time.monotonic() - start) * 1e3,
        )
        history.append(row)
        if evaluate and progress is not None:
            progress(row)
        return vl

    scale = f"lower lr={cfg.lr!r} or weight_decay={cfg.weight_decay!r}"

    def loss_error(iteration: int, what: str, batch: IndexedBatch) -> NonFiniteError:
        # the cause, from each triplet's loss alone
        bad = [j for j in range(len(batch)) if not math.isfinite(val_loss(
            IndexedBatch(batch.maps, batch.index[j : j + 1], batch.labels[j : j + 1]), weights))]
        if not bad:
            return NonFiniteError(f"alpha * mean cross-entropy overflowed at iteration "
                                  f"{iteration} (alpha={cfg.alpha!r}): lower alpha")
        if len(bad) < len(batch):
            return NonFiniteError(f"non-finite {what} loss produced by triplet {bad[0]} "
                                  f"at iteration {iteration}")
        cause = f": the weights' scale overflows ({scale})" if iteration else ""
        return NonFiniteError(f"non-finite {what} loss on every triplet at iteration "
                              f"{iteration}{cause}")

    # an overflow (a huge lr, weight decay or alpha) stops the run with its
    # cause, without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        best_val = record(0, float("nan"), evaluate=True)
        best_weights = weights.copy()
        best_iteration = 0

        for it in range(1, cfg.iterations + 1):
            drawn = _draw(index, cfg, batch_rng)
            batch = IndexedBatch(features.strips, rows[drawn], labels[drawn])
            loss, grads = step(batch, weights)
            if not math.isfinite(loss):
                raise loss_error(it, "training", batch)
            adamw_step(weights, grads, state, cfg)
            if not np.isfinite(weights.flat).all():
                if not all(np.isfinite(g).all() for g in grads.values()):
                    raise NonFiniteError(f"non-finite gradients at iteration {it}")
                raise NonFiniteError(f"non-finite weights: an AdamW step overflowed them "
                                     f"at iteration {it} ({scale})")
            vl = record(it, loss, evaluate=it % cfg.t_val == 0 or it == cfg.iterations)
            if vl is not None and vl < best_val:
                best_val = vl
                best_weights = weights.copy()
                best_iteration = it

    return TrainResult(
        weights=best_weights,
        best_iteration=best_iteration,
        best_val_loss=best_val,
        history=history,
    )


def write_training_log(history: Iterable[LogRow], path) -> None:
    with _write_atomic(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "train_loss", "val_loss", "wall_time_ms"])
        writer.writerows(
            [r.iteration, repr(r.train_loss), "" if r.val_loss is None else repr(r.val_loss),
             f"{r.wall_time_ms:.3f}"]
            for r in history
        )


def read_training_log(path) -> list[LogRow]:
    rows = []
    try:
        for rec in csv.DictReader(_read_text(path).splitlines()):
            rows.append(
                LogRow(
                    iteration=int(rec["iteration"]),
                    train_loss=float(rec["train_loss"]),
                    val_loss=None if rec["val_loss"] == "" else float(rec["val_loss"]),
                    wall_time_ms=float(rec["wall_time_ms"]),
                )
            )
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        raise FormatError(f"{path}: invalid training log ({exc})") from exc
    return rows
