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
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, FormatError, MissingIdError
from .feature_store import FeatureSet
from .ranking import rank_gallery
from .reranker import (
    IndexedBatch,
    RerankerConfig,
    RerankerWeights,
    TripletBatch,
    batch_loss,
    forward_backward,
    init_weights,
    ranking_loss,  # re-exported: the loss lives with the model it trains
)

VAL_FRACTION = 0.10


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
        object.__setattr__(self, "distances", tuple(float(x) for x in self.distances))
        object.__setattr__(self, "positive", tuple(bool(x) for x in self.positive))
        n = len(self.candidate_ids)
        if len(self.distances) != n or len(self.positive) != n:
            raise ValueError("candidate_ids, distances and positive must align")

    # cached: the sampler reads them for every drawn probe
    @cached_property
    def positives(self) -> tuple[str, ...]:
        return tuple(c for c, p in zip(self.candidate_ids, self.positive) if p)

    @cached_property
    def negatives(self) -> tuple[str, ...]:
        return tuple(c for c, p in zip(self.candidate_ids, self.positive) if not p)

    @property
    def eligible(self) -> bool:
        return any(self.positive) and not all(self.positive)


@dataclass(frozen=True)
class TrainingSet:
    entries: tuple[TrainingEntry, ...]
    v: int

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def eligible_entries(self) -> tuple[TrainingEntry, ...]:
        return self._eligible

    @cached_property
    def _eligible(self) -> tuple[TrainingEntry, ...]:
        return tuple(e for e in self.entries if e.eligible)


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.01
    beta: float = 0.1
    v: int = 30
    lr: float = 1e-5
    weight_decay: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_probes: int = 32
    triplets_per_probe: int = 4
    iterations: int = 100_000
    t_val: int = 10_000
    val_triplets: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.v < 2:
            raise ValueError(f"v must be >= 2, got {self.v}")
        for name in ("lr", "weight_decay", "eps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("batch_probes", "triplets_per_probe", "t_val", "val_triplets"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


def split_train_val(
    features: FeatureSet, val_fraction: float = VAL_FRACTION
) -> tuple[FeatureSet, FeatureSet]:
    """Hold out the last ``val_fraction`` of identities (ceil, sorted
    order) for validation. Sequences of one identity never straddle the
    split."""
    if not 0.0 < val_fraction < 1.0:
        raise DataError(f"val_fraction must be in (0, 1), got {val_fraction}")
    identities = features.identities()
    if len(identities) < 10:
        raise DataError(
            f"need at least 10 identities to split, got {len(identities)}"
        )
    n_val = math.ceil(val_fraction * len(identities))
    val_ids = set(identities[len(identities) - n_val :])
    train_entries = [e for e in features.entries if e.identity_id not in val_ids]
    val_entries = [e for e in features.entries if e.identity_id in val_ids]
    train = FeatureSet.from_entries(train_entries, partition="train", s=features.s, d=features.d)
    val = FeatureSet.from_entries(val_entries, partition="val", s=features.s, d=features.d)
    return train, val


def build_training_set(partition: FeatureSet, v: int = 30) -> TrainingSet:
    """Rank every sequence against the rest of its partition and keep the
    top-v with positive flags."""
    if len(partition) < 2:
        raise DataError("need at least 2 sequences to build a training set")
    identity = partition.identity_map()
    entries = []
    for probe in partition.entries:
        ranked = rank_gallery(probe, partition, k=min(v, len(partition) - 1))
        ids = ranked.ids()
        entries.append(
            TrainingEntry(
                probe_id=probe.sequence_id,
                candidate_ids=tuple(ids),
                distances=ranked.distances(),
                positive=tuple(identity[c] == identity[probe.sequence_id] for c in ids),
            )
        )
    return TrainingSet(entries=tuple(entries), v=v)


def write_training_set(ts: TrainingSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"v": ts.v}) + "\n")
        for e in ts.entries:
            fh.write(
                json.dumps(
                    {
                        "probe_id": e.probe_id,
                        "candidates": list(e.candidate_ids),
                        "distances": list(e.distances),
                        "positive": list(e.positive),
                    }
                )
                + "\n"
            )


def read_training_set(path) -> TrainingSet:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(str(p))
    lines = p.read_text().splitlines()
    if not lines:
        raise FormatError(f"{p}: empty training-set file")
    try:
        header = json.loads(lines[0])
        v = header["v"]
        # a JSON integer: int() would also take "30", 30.5 and true
        if type(v) is not int or v < 2:
            raise FormatError(f"{p}: header \"v\" must be an integer >= 2, got {v!r}")
        entries = []
        for line in lines[1:]:
            rec = json.loads(line)
            entries.append(
                TrainingEntry(
                    probe_id=rec["probe_id"],
                    candidate_ids=tuple(rec["candidates"]),
                    distances=tuple(float(x) for x in rec["distances"]),
                    positive=tuple(bool(x) for x in rec["positive"]),
                )
            )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"{p}: invalid training-set record ({exc})") from exc
    return TrainingSet(entries=tuple(entries), v=v)


def referenced_sequences(ts: TrainingSet) -> set[str]:
    """All sequence ids a training set touches (probes and candidates)."""
    return {e.probe_id for e in ts.entries} | {
        c for e in ts.entries for c in e.candidate_ids
    }


def sample_triplets(
    ts: TrainingSet, cfg: TrainConfig, rng: np.random.Generator
) -> list[Triplet]:
    """Draw batch_probes eligible probes (without replacement when enough
    exist) and triplets_per_probe (positive, negative) pairs per probe."""
    eligible = ts.eligible_entries()
    if not eligible:
        raise DataError("training set has no entry with both a positive and a negative")
    replace = len(eligible) < cfg.batch_probes
    probe_idx = rng.choice(len(eligible), size=cfg.batch_probes, replace=replace)
    entries = [eligible[i] for i in probe_idx.tolist() for _ in range(cfg.triplets_per_probe)]
    # one positive then one negative index per triplet, in one call: each
    # element of an array bound draws from the generator exactly as a
    # scalar rng.integers(bound) call would, so the draws are those of a
    # per-triplet loop
    bounds = np.array([(len(e.positives), len(e.negatives)) for e in entries], dtype=np.int64)
    picks = rng.integers(bounds).tolist()
    return [
        Triplet(probe_id=e.probe_id, pos_id=e.positives[p], neg_id=e.negatives[n])
        for e, (p, n) in zip(entries, picks)
    ]


@dataclass(frozen=True)
class MapStack:
    """Feature maps stacked once, ``maps[row[sequence_id]]``, so that a
    batch is index arrays rather than copies of its maps."""

    maps: np.ndarray
    row: dict[str, int]

    @classmethod
    def of(cls, strips: Mapping[str, np.ndarray], ids: Iterable[str]) -> "MapStack":
        """Stack ``strips[i]`` for every id in ``ids`` that ``strips`` holds."""
        present = [i for i in ids if i in strips]
        maps = np.stack([strips[i] for i in present]) if present else np.empty((0, 0, 0))
        return cls(maps=maps, row={i: r for r, i in enumerate(present)})


def make_batch(
    triplets: Sequence[Triplet],
    strips: MapStack | Mapping[str, np.ndarray],
    labels: Mapping[str, int],
) -> IndexedBatch:
    """(B, 3) rows of each triplet's maps in ``strips`` and (B, 3) labels.

    ``strips`` is a MapStack or a mapping of sequence id -> map, which is
    then stacked for these triplets.
    """
    ids = [i for t in triplets for i in (t.probe_id, t.pos_id, t.neg_id)]
    if not isinstance(strips, MapStack):
        strips = MapStack.of(strips, dict.fromkeys(ids))
    try:
        index = np.array([strips.row[i] for i in ids], dtype=np.intp).reshape(-1, 3)
        lab = np.array([labels[i] for i in ids], dtype=np.int64).reshape(-1, 3)
    except KeyError as exc:
        raise MissingIdError(f"no features for sequence {exc.args[0]!r}") from exc
    return IndexedBatch(maps=strips.maps, index=index, labels=lab)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


@dataclass
class AdamWState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adamw(weights: RerankerWeights) -> AdamWState:
    return AdamWState(
        step=0,
        m={k: np.zeros_like(p) for k, p in weights.params().items()},
        v={k: np.zeros_like(p) for k, p in weights.params().items()},
    )


def adamw_step(
    weights: RerankerWeights,
    grads: Mapping[str, np.ndarray],
    state: AdamWState,
    cfg: TrainConfig,
) -> None:
    """In-place decoupled-decay AdamW update with bias correction.

    Decay is applied to every parameter before the moment update, so with
    zero gradients each weight is scaled by exactly (1 - lr * wd).
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, w in weights.params().items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {w.shape} for {name}")
        w *= 1.0 - cfg.lr * cfg.weight_decay
        m, v = state.m[name], state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        w -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


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


def _fixed_val_batch(
    val_ts: TrainingSet,
    cfg: TrainConfig,
    strips: MapStack,
    rng: np.random.Generator,
) -> IndexedBatch:
    eligible = val_ts.eligible_entries()
    if not eligible:
        raise DataError("validation set has no entry with both a positive and a negative")
    triplets = []
    for _ in range(cfg.val_triplets):
        entry = eligible[int(rng.integers(len(eligible)))]
        pos, neg = entry.positives, entry.negatives
        triplets.append(
            Triplet(
                probe_id=entry.probe_id,
                pos_id=pos[int(rng.integers(len(pos)))],
                neg_id=neg[int(rng.integers(len(neg)))],
            )
        )
    # labels are unused for the ranking-only validation loss
    zeros = {tid: 0 for t in triplets for tid in (t.probe_id, t.pos_id, t.neg_id)}
    return make_batch(triplets, strips, zeros)


def validation_loss(
    batch: TripletBatch | IndexedBatch, weights: RerankerWeights, beta: float
) -> float:
    """Summed ranking loss of a triplet batch (no CE term)."""
    return batch_loss(batch, weights, alpha=0.0, beta=beta)


def train(
    train_ts: TrainingSet,
    val_ts: TrainingSet,
    features: FeatureSet,
    cfg: TrainConfig,
    model: RerankerConfig | None = None,
    weights: RerankerWeights | None = None,
    progress: Callable[[LogRow], None] | None = None,
) -> TrainResult:
    """Optimize the re-ranker and return the validation-argmin snapshot.

    ``features`` must contain every sequence referenced by either
    training set. The classifier's label space is the identity inventory
    of the train-side entries; validation triplets feed only the ranking
    loss, so unseen validation identities are fine.
    """
    identity = features.identity_map()

    train_seq_ids = referenced_sequences(train_ts)
    missing = sorted(i for i in train_seq_ids if i not in identity)
    if missing:
        raise MissingIdError(f"no features for sequence {missing[0]!r}")
    train_identities = sorted({identity[i] for i in train_seq_ids})
    label_by_identity = {ident: i for i, ident in enumerate(train_identities)}
    labels = {i: label_by_identity[identity[i]] for i in train_seq_ids}

    if model is None:
        model = RerankerConfig(
            s=features.s, d=features.d, num_classes=len(train_identities)
        )
    elif model.num_classes < len(train_identities):
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
        init=lambda seed: weights if weights is not None else init_weights(model, seed=seed),
        step=lambda batch, w: forward_backward(batch, w, alpha=cfg.alpha, beta=cfg.beta),
        val_loss=lambda batch, w: validation_loss(batch, w, cfg.beta),
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
    labels: Mapping[str, int],
    init: Callable,
    step: Callable,
    val_loss: Callable,
    progress: Callable[[LogRow], None] | None,
) -> TrainResult:
    """The loop both models train with: seeded triplet batches, AdamW, and
    the argmin snapshot over validation evaluations every ``t_val``.

    ``init(seed)`` returns the starting weights, ``step(batch, weights)``
    the training loss and gradients, and ``val_loss(batch, weights)`` the
    loss of the fixed validation batch.
    """
    _retain_freed_memory()
    strips = MapStack.of(
        {e.sequence_id: e.strips for e in features.entries},
        sorted(referenced_sequences(train_ts) | referenced_sequences(val_ts)),
    )
    ss = np.random.SeedSequence(cfg.seed)
    init_seed, batch_seed, val_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(3))
    weights = init(init_seed)
    batch_rng = np.random.default_rng(batch_seed)
    val_batch = _fixed_val_batch(val_ts, cfg, strips, np.random.default_rng(val_seed))

    state = init_adamw(weights)
    history: list[LogRow] = []
    start = time.monotonic()

    def record(iteration: int, train_loss: float, evaluate: bool) -> float | None:
        vl = val_loss(val_batch, weights) if evaluate else None
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

    best_val = record(0, float("nan"), evaluate=True)
    best_weights = weights.copy()
    best_iteration = 0

    for it in range(1, cfg.iterations + 1):
        triplets = sample_triplets(train_ts, cfg, batch_rng)
        batch = make_batch(triplets, strips, labels)
        loss, grads = step(batch, weights)
        adamw_step(weights, grads, state, cfg)
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "train_loss", "val_loss", "wall_time_ms"])
        for row in history:
            writer.writerow(
                [
                    row.iteration,
                    repr(row.train_loss),
                    "" if row.val_loss is None else repr(row.val_loss),
                    f"{row.wall_time_ms:.3f}",
                ]
            )


def read_training_log(path) -> list[LogRow]:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(str(p))
    rows = []
    with open(p, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for rec in reader:
                rows.append(
                    LogRow(
                        iteration=int(rec["iteration"]),
                        train_loss=float(rec["train_loss"]),
                        val_loss=None if rec["val_loss"] == "" else float(rec["val_loss"]),
                        wall_time_ms=float(rec["wall_time_ms"]),
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{p}: invalid training log ({exc})") from exc
    return rows
