"""First-stage gallery ranking by the strip-averaged Euclidean distance.

Every probe ranks against the gallery ``FeatureSet``'s own float32 array
(``FeatureSet.strips``); nothing is stacked or copied per gallery.
Distances are exact float64, computed over fixed blocks of gallery rows
in one summation order, so rankings are reproducible bit-for-bit and do
not depend on the block size or thread count. Candidates are selected and
ordered by (distance, sequence_id) with numpy, not Python sorts, using the
id keys the set caches (``FeatureSet.id_rank``).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, FormatError, NonFiniteError, ShapeError
from .feature_store import FeatureMap, FeatureSet, _read_text, _write_atomic


@dataclass(frozen=True)
class RankedList:
    """A probe id plus gallery candidates sorted ascending by distance."""

    probe_id: str
    items: tuple[tuple[str, float], ...]

    def __len__(self) -> int:
        return len(self.items)

    def ids(self) -> list[str]:
        return [cid for cid, _ in self.items]

    def distances(self) -> list[float]:
        return [d for _, d in self.items]


def strip_mean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over strips of the per-strip Euclidean distance, in float64."""
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt((diff * diff).sum(axis=1)).mean())


def strip_distance(a: FeatureMap, b: FeatureMap) -> float:
    """Distance between two feature maps: (1/s) * sum_i ||a_i - b_i||_2."""
    if a.strips.shape != b.strips.shape:
        raise ShapeError(
            f"shape mismatch: {a.sequence_id!r} is {a.strips.shape}, "
            f"{b.sequence_id!r} is {b.strips.shape}"
        )
    return strip_mean_distance(a.strips, b.strips)


# float64 bytes of gallery rows converted at a time: 1 MB (128 rows at
# 16 x 64) stays in L2 through the four passes over it, where the whole
# float64 gallery would not. Measured on the 10,000 x 16 x 64 gallery,
# 64-256 rows ran within noise of each other, 512 rows and up slower.
BLOCK_BYTES = 1 << 20


def _distances_to_stack(probe: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # probe (s, d) float64, stack (n, s, d) float32 -> (n,) float64. Each
    # block is reduced exactly as the whole stack would be (float64
    # difference, square, sum over d, sqrt, mean over s), so the result does
    # not depend on the block size.
    n, s, d = stack.shape
    rows = max(1, BLOCK_BYTES // (8 * s * d))
    out = np.empty(n)
    buf = np.empty((min(n, rows), s, d))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = buf[: stop - start]
        np.copyto(block, stack[start:stop])
        block -= probe
        block *= block
        out[start:stop] = np.sqrt(block.sum(axis=2)).mean(axis=1)
    return out


def rank_gallery(
    probe: FeatureMap,
    gallery: FeatureSet,
    k: int | None = None,
) -> RankedList:
    """Top-k gallery candidates by strip distance, ascending.

    The probe's own sequence_id is excluded. Ties are broken by ascending
    sequence_id so rankings are deterministic. ``k=None`` ranks the whole
    gallery.
    """
    if probe.strips.shape != (gallery.s, gallery.d):
        raise ShapeError(
            f"probe {probe.sequence_id!r} is {probe.strips.shape}, "
            f"gallery declares ({gallery.s}, {gallery.d})"
        )
    id_rank = gallery.id_rank
    dists = _distances_to_stack(probe.strips.astype(np.float64), gallery.strips)
    rows = np.flatnonzero(id_rank != gallery.rank_of.get(probe.sequence_id, -1))
    dists = dists[rows]
    if not len(rows):
        raise DataError(
            f"empty effective gallery for probe {probe.sequence_id!r}"
        )
    if k is not None:
        if k < 1:
            raise DataError(f"k must be >= 1, got {k}")
        if k < len(rows):
            # keep every distance up to the k-th, so ties at the cut still
            # break by id below
            keep = dists <= np.partition(dists, k - 1)[k - 1]
            rows, dists = rows[keep], dists[keep]
    order = np.lexsort((id_rank[rows], dists))[:k]
    ids = gallery.sequence_ids
    return RankedList(
        probe_id=probe.sequence_id,
        items=tuple(zip([ids[i] for i in rows[order].tolist()], dists[order].tolist())),
    )


def rank_all(
    probes,
    gallery: FeatureSet,
    k: int | None = None,
    threads: int = 1,
) -> list[RankedList]:
    """rank_gallery for every probe (a FeatureSet or a sequence of
    FeatureMaps), preserving probe input order."""
    entries = tuple(probes)
    gallery.id_rank  # built once here, not by racing worker threads

    def one(probe: FeatureMap) -> RankedList:
        try:
            return rank_gallery(probe, gallery, k)
        except (DataError, ShapeError) as exc:
            raise type(exc)(f"probe {probe.sequence_id!r}: {exc}") from exc

    if threads > 1 and len(entries) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, entries))
    return [one(p) for p in entries]


def write_ranked_lists(
    lists: Iterable[RankedList],
    path,
    latencies_ms: Sequence[float] | None = None,
) -> None:
    """One JSON record per probe, written as it is formatted; optional
    per-probe latency field."""
    with _write_atomic(path, "w") as fh:
        for i, rl in enumerate(lists):
            rec: dict = {"probe_id": rl.probe_id, "items": [[cid, d] for cid, d in rl.items]}
            if latencies_ms is not None:
                rec["latency_ms"] = latencies_ms[i]
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# the parsed JSON types a record field of each kind accepts: nothing is
# converted into a string, and a bool is no number
_JSON_TYPES = {str: (str,), bool: (bool,), float: (int, float), list: (list,)}


def _json_values(values, kind: type) -> tuple:
    """A parsed JSON array of ``kind`` values as a tuple (numbers as float);
    any other value is a TypeError."""
    if type(values) is not list or not all(type(v) in _JSON_TYPES[kind] for v in values):
        raise TypeError(f"expected an array of {kind.__name__} values, got {values!r:.60}")
    return tuple(map(float, values)) if kind is float else tuple(values)


def read_ranked_lists(path) -> list[RankedList]:
    """Read lists written by write_ranked_lists. Each list's distances must
    be finite and non-decreasing, and its candidate ids distinct."""
    out = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            probe_id = _json_values([rec["probe_id"]], str)[0]
            pairs = _json_values(rec["items"], list)
            ids = _json_values([cid for cid, _ in pairs], str)  # a ValueError unless pairs
            rl = RankedList(probe_id, tuple(zip(ids, _json_values([d for _, d in pairs], float))))
        except (json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: bad ranked-list record ({exc})") from exc
        dists = rl.distances()
        if not all(math.isfinite(d) for d in dists):
            raise NonFiniteError(f"{path}:{lineno}: NaN or Inf distance")
        if any(b < a for a, b in zip(dists, dists[1:])):
            raise FormatError(f"{path}:{lineno}: distances are not ascending")
        if len(set(rl.ids())) != len(pairs):
            raise FormatError(f"{path}:{lineno}: duplicate candidate id")
        out.append(rl)
    return out
