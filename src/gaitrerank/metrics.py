"""Retrieval and verification metrics over ranked lists.

All metrics consume RankedList collections plus a sequence -> identity
mapping, so first-stage and re-ranked outputs are evaluated by exactly
the same code.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, FormatError, MissingIdError
from .feature_store import _read_text, _write_atomic
from .ranking import RankedList, _check_k


def _matches(probe_id: str, ids: Sequence[str], identities: Mapping[str, str]) -> list[bool]:
    """The one match rule: whether each candidate in ``ids`` shares the
    probe's identity. An unlabelled probe or candidate is a MissingIdError."""
    try:
        own = identities[probe_id]
        return [identities[cid] == own for cid in ids]
    except KeyError as exc:
        raise MissingIdError(f"no identity label for sequence {exc.args[0]!r}") from None


def rank_k_accuracy(
    lists: Sequence[RankedList],
    identities: Mapping[str, str],
    ks: Sequence[int],
) -> dict[int, float]:
    """Fraction of probes whose top-K contains a matching identity; reads
    the labels of each list's top max(K) only."""
    if not lists:
        raise DataError("no ranked lists")
    if any(k < 1 for k in ks):
        raise DataError(f"all K must be >= 1, got {list(ks)}")
    top = max(ks, default=0)
    matched = [_matches(rl.probe_id, rl.ids(top), identities) for rl in lists]
    firsts = [m.index(True) + 1 if True in m else top + 1 for m in matched]
    return {k: sum(f <= k for f in firsts) / len(lists) for k in ks}


def average_precision(rl: RankedList, identities: Mapping[str, str]) -> float | None:
    """AP over all positives in the list; None when the list has none."""
    pos = np.flatnonzero(_matches(rl.probe_id, rl.ids(), identities)) + 1
    if not len(pos):
        return None
    return float(np.mean(np.arange(1, len(pos) + 1) / pos))


def mean_average_precision(
    lists: Sequence[RankedList], identities: Mapping[str, str]
) -> float:
    """Mean AP over probes that have at least one positive in their list."""
    aps = [ap for rl in lists if (ap := average_precision(rl, identities)) is not None]
    if not aps:
        raise DataError("no probe has any positive in its ranked list")
    return float(np.mean(aps))


def tpr_at_fpr(
    lists: Sequence[RankedList],
    identities: Mapping[str, str],
    fprs: Sequence[float],
    k: int = 1000,
) -> dict[float, float]:
    """Verification TPR at fixed FPR targets over pooled pair scores.

    Pools the (probe, candidate) pairs of each list truncated to k, with
    score = -distance; a pair is accepted when score >= threshold. For
    each target the reported TPR is the best achievable with FPR <= target
    (step-function convention, no interpolation).
    """
    _check_k(k)
    if not all(0.0 <= t <= 1.0 for t in fprs):
        raise DataError(f"all FPR targets must lie in [0, 1], got {list(fprs)}")
    dists, labels = [], []
    for rl in lists:
        dists += rl.dists[:k].tolist()
        labels += _matches(rl.probe_id, rl.ids(k), identities)
    pos = sum(labels)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise DataError(
            f"degenerate pair pool: {pos} positives, {neg} negatives"
        )
    order = np.argsort(np.asarray(dists, dtype=np.float64), kind="stable")  # -score ascending
    y = np.asarray(labels, dtype=bool)[order]
    s = np.asarray(dists, dtype=np.float64)[order]
    tp = np.cumsum(y)
    fp = np.cumsum(~y)
    # thresholds at distinct score values only: last index of each run
    last = np.flatnonzero(np.diff(s) != 0)
    cut = np.concatenate([last, [len(s) - 1]])
    tpr = tp[cut] / pos
    fpr = fp[cut] / neg
    out = {}
    for target in fprs:
        feasible = fpr <= target
        out[float(target)] = float(tpr[feasible].max()) if feasible.any() else 0.0
    return out


def oracle_rank1_ceiling(
    lists: Sequence[RankedList], identities: Mapping[str, str], k: int
) -> float:
    """Best Rank-1 any depth-k re-ranker could reach: the fraction of
    probes with a positive already inside the top-k."""
    return rank_k_accuracy(lists, identities, [k])[k]


def strip_cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(i, j) cosine similarity between L2-normalized strips of a and b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise DataError(f"expected matching 2-d maps, got {a.shape} and {b.shape}")
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    for name, n in (("a", na), ("b", nb)):
        zero = np.flatnonzero(n == 0)
        if len(zero):
            raise DataError(f"zero-norm strip {int(zero[0])} in {name}")
    return (a / na[:, None]) @ (b / nb[:, None]).T


def write_cosine_csv(matrix: np.ndarray, path) -> None:
    with _write_atomic(path, "w") as fh:
        csv.writer(fh).writerows([repr(float(x)) for x in row] for row in matrix)


@dataclass(frozen=True)
class MetricsReport:
    rank_k: dict[int, float]
    map_score: float
    tpr_at_fpr: dict[float, float]
    probe_count: int
    oracle_rank1_ceiling: float

    def __post_init__(self) -> None:
        fractions = (
            list(self.rank_k.values())
            + list(self.tpr_at_fpr.values())
            + [self.map_score, self.oracle_rank1_ceiling]
        )
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            raise ValueError("all reported fractions must lie in [0, 1]")
        ks = sorted(self.rank_k)
        accs = [self.rank_k[k] for k in ks]
        if any(b < a for a, b in zip(accs, accs[1:])):
            raise ValueError("rank_k accuracy must be nondecreasing in K")

    def to_json(self) -> str:
        payload = {
            "rank_k": {str(k): v for k, v in sorted(self.rank_k.items())},
            "map": self.map_score,
            "tpr_at_fpr": {repr(f): v for f, v in sorted(self.tpr_at_fpr.items())},
            "probe_count": self.probe_count,
            "oracle_rank1_ceiling": self.oracle_rank1_ceiling,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def evaluate_lists(
    lists: Sequence[RankedList],
    identities: Mapping[str, str],
    ks: Sequence[int] = (1, 5, 10),
    fprs: Sequence[float] = (1e-2,),
    tpr_depth: int = 1000,
    ceiling_k: int = 10,
) -> MetricsReport:
    """One-call evaluation bundle used by the CLI."""
    return MetricsReport(
        rank_k=rank_k_accuracy(lists, identities, list(ks)),
        map_score=mean_average_precision(lists, identities),
        tpr_at_fpr=tpr_at_fpr(lists, identities, list(fprs), k=tpr_depth),
        probe_count=len(lists),
        oracle_rank1_ceiling=oracle_rank1_ceiling(lists, identities, ceiling_k),
    )


def write_report(report: MetricsReport, path) -> None:
    with _write_atomic(path, "w") as fh:
        fh.write(report.to_json())


def read_report(path) -> MetricsReport:
    try:
        payload = json.loads(_read_text(path))
        return MetricsReport(
            rank_k={int(k): float(v) for k, v in payload["rank_k"].items()},
            map_score=float(payload["map"]),
            tpr_at_fpr={float(k): float(v) for k, v in payload["tpr_at_fpr"].items()},
            probe_count=int(payload["probe_count"]),
            oracle_rank1_ceiling=float(payload["oracle_rank1_ceiling"]),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid metrics report ({exc})") from exc
