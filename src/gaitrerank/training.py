"""Training-set construction, triplet sampling, losses, AdamW, train loop.

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
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, FormatError, MissingIdError
from .feature_store import FeatureSet
from .ranking import rank_gallery
from .reranker import (
    RerankerConfig,
    RerankerWeights,
    TripletBatch,
    batch_loss,
    forward_backward,
    init_weights,
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

    @property
    def positives(self) -> tuple[str, ...]:
        return tuple(c for c, p in zip(self.candidate_ids, self.positive) if p)

    @property
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
        v = int(header["v"])
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
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
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
    triplets = []
    for i in probe_idx:
        entry = eligible[int(i)]
        pos, neg = entry.positives, entry.negatives
        for _ in range(cfg.triplets_per_probe):
            triplets.append(
                Triplet(
                    probe_id=entry.probe_id,
                    pos_id=pos[int(rng.integers(len(pos)))],
                    neg_id=neg[int(rng.integers(len(neg)))],
                )
            )
    return triplets


def make_batch(
    triplets: Sequence[Triplet],
    strips: Mapping[str, np.ndarray],
    labels: Mapping[str, int],
) -> TripletBatch:
    """Assemble (B, s, d) arrays and (B, 3) labels from id mappings."""
    try:
        probe = np.stack([strips[t.probe_id] for t in triplets])
        pos = np.stack([strips[t.pos_id] for t in triplets])
        neg = np.stack([strips[t.neg_id] for t in triplets])
        lab = np.array(
            [(labels[t.probe_id], labels[t.pos_id], labels[t.neg_id]) for t in triplets],
            dtype=np.int64,
        )
    except KeyError as exc:
        raise MissingIdError(f"no features for sequence {exc.args[0]!r}") from exc
    return TripletBatch(probe=probe, pos=pos, neg=neg, labels=lab)


def class_labels(features: FeatureSet) -> dict[str, int]:
    """identity_id -> class index, sorted for stability."""
    return {ident: i for i, ident in enumerate(features.identities())}


def sequence_labels(features: FeatureSet) -> dict[str, int]:
    """sequence_id -> class index of its identity."""
    by_identity = class_labels(features)
    return {e.sequence_id: by_identity[e.identity_id] for e in features.entries}


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


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


def total_loss(batch: TripletBatch, weights: RerankerWeights, cfg: TrainConfig) -> float:
    """Summed ranking loss plus alpha times the mean identity CE over all
    four conditioned maps of every triplet."""
    return batch_loss(batch, weights, alpha=cfg.alpha, beta=cfg.beta)


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
    weights: RerankerWeights
    best_iteration: int
    best_val_loss: float
    history: list[LogRow] = field(default_factory=list)


def _fixed_val_batch(
    val_ts: TrainingSet,
    cfg: TrainConfig,
    strips: Mapping[str, np.ndarray],
    rng: np.random.Generator,
) -> TripletBatch:
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


def validation_loss(batch: TripletBatch, weights: RerankerWeights, beta: float) -> float:
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
    strips = {e.sequence_id: np.ascontiguousarray(e.strips) for e in features.entries}
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

    ss = np.random.SeedSequence(cfg.seed)
    init_seed, batch_seed, val_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(3))
    if weights is None:
        weights = init_weights(model, seed=init_seed)
    batch_rng = np.random.default_rng(batch_seed)
    val_batch = _fixed_val_batch(val_ts, cfg, strips, np.random.default_rng(val_seed))

    state = init_adamw(weights)
    history: list[LogRow] = []
    start = time.monotonic()

    def evaluate(iteration: int, train_loss: float) -> float:
        vl = validation_loss(val_batch, weights, cfg.beta)
        row = LogRow(
            iteration=iteration,
            train_loss=train_loss,
            val_loss=vl,
            wall_time_ms=(time.monotonic() - start) * 1e3,
        )
        history.append(row)
        if progress is not None:
            progress(row)
        return vl

    best_val = evaluate(0, float("nan"))
    best_weights = weights.copy()
    best_iteration = 0

    for it in range(1, cfg.iterations + 1):
        triplets = sample_triplets(train_ts, cfg, batch_rng)
        batch = make_batch(triplets, strips, labels)
        loss, grads = forward_backward(batch, weights, alpha=cfg.alpha, beta=cfg.beta)
        adamw_step(weights, grads, state, cfg)
        if it % cfg.t_val == 0 or it == cfg.iterations:
            vl = evaluate(it, loss)
            if vl < best_val:
                best_val = vl
                best_weights = weights.copy()
                best_iteration = it
        else:
            history.append(
                LogRow(
                    iteration=it,
                    train_loss=loss,
                    val_loss=None,
                    wall_time_ms=(time.monotonic() - start) * 1e3,
                )
            )

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
