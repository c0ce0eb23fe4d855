"""First-stage gallery ranking by the strip-averaged Euclidean distance.

Every probe ranks against the gallery ``FeatureSet``'s own float32 array
(``FeatureSet.strips``); nothing is stacked or copied per gallery.
Distances are exact float64, computed over fixed blocks of gallery rows
in one summation order, so rankings are reproducible bit-for-bit and do
not depend on the block size. ``rank_all`` without a k converts each
block once and scores all of its probes against it. Candidates are
selected and ordered by (distance, sequence_id) with numpy, not Python
sorts, using the id keys the set caches (``FeatureSet.id_rank``).

A top-k call (``1 <= k <`` eligible rows) first bounds every row's
distance from below and above through |a|^2 + |b|^2 - 2a.b per strip,
with float32 dot products and the squared strip norms the set caches
(``FeatureSet.strip_sq_norms``), the decomposition FAISS uses. The
products are taken a block of gallery rows at a time, so each block is
read from memory once for all strips instead of the whole gallery once
per strip. The exact distance is then computed only for rows whose lower
bound does not exceed the k-th smallest upper bound. The bounds are
proven (see ``_distance_bounds``) to enclose the exact float64 distance,
so the k-th smallest exact distance is at most that cut and every row at
or below it, ties included, is re-scored: the output is bit-identical to
ranking the whole gallery. Full lists (``k=None``), and any probe or gallery whose
float32 squares are not finite, take the exact path over every row.
"""

from __future__ import annotations

import json
import math
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


# float64 bytes of gallery rows held at a time: a block converted once
# and one probe's difference from it, 512 KB each (64 rows at 16 x 64),
# stay in L2 through the passes over them, where the whole float64
# gallery would not. Exact distances of 10 probes to the 10,000 x 16 x 64
# gallery took 197 ms at 64 rows, 216 at 32, 223 at 128 and 235 at 256
# (fastest of 7 runs). The bound products (``_distance_bounds``) take
# float32 blocks of 128 rows, 512 KB, read once for each strip: 2.8 ms a
# call at 128 rows, 3.1 at 64, 2.9 at 256, 3.4 at 512, 5.2 for the whole
# gallery.
BLOCK_BYTES = 1 << 20


def _block_rows(s: int, d: int, value_bytes: int) -> int:
    """Gallery rows per block when each value takes ``value_bytes``."""
    return max(1, BLOCK_BYTES // (value_bytes * s * d))


def _distances_to_stack(
    probes: np.ndarray, stack: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    # probes (p, s, d) float64 (one (s, d) probe counts as p = 1), stack
    # (n, s, d) float32 -> (p, n) float64, or the distances to ``rows``
    # only, gathered a block at a time (through a float32 copy, so 20
    # bytes per value). Each block is converted to float64 once for all
    # probes, and each probe's block is reduced exactly as the whole
    # stack would be (float64 difference, square, sum over d, sqrt, mean
    # over s), so the result does not depend on the block size, on which
    # rows are gathered or on the other probes of the call.
    n, s, d = stack.shape
    probes = probes.reshape(-1, s, d)
    m = n if rows is None else len(rows)
    step = _block_rows(s, d, 16 if rows is None else 20)
    out = np.empty((len(probes), m))
    converted = np.empty((min(m, step), s, d))
    work = np.empty_like(converted)
    for start in range(0, m, step):
        stop = min(start + step, m)
        block, diff = converted[: stop - start], work[: stop - start]
        np.copyto(block, stack[start:stop] if rows is None else stack[rows[start:stop]])
        for i, probe in enumerate(probes):
            np.subtract(block, probe, out=diff)
            diff *= diff
            out[i, start:stop] = np.sqrt(diff.sum(axis=2)).mean(axis=1)
    return out


def _distance_bounds(probe: np.ndarray, gallery: FeatureSet) -> tuple[np.ndarray, np.ndarray] | None:
    """Float64 (lo, hi) per gallery row that enclose the distance
    ``_distances_to_stack`` returns for probe (float32 (s, d)), from float32
    dot products; None when a value, float32 square or product is not
    finite.

    Per strip, with a the probe strip, b a gallery strip and u = 2**-24,
    the float32 sums A = |a|^2, B = |b|^2 and P = a.b are each off by at
    most g*sum|terms| + 2d*2**-126 in any summation order (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, s3.1, with
    g = d*u/(1 - d*u); the absolute term covers subnormal products and
    sums, even flushed to zero), so neither the block of rows a product is
    taken in nor the order BLAS sums it in matters. As
    sum|a_k*b_k| <= (|a|^2 + |b|^2)/2 and
    |a|^2 + |b|^2 <= (A + B + 4d*2**-126)/(1 - g), the float64 x = A + B - 2P
    is within e = 2g/(1 - g)*(A + B) + d*2**-122 of |a - b|^2. Taking g at
    d + 1 terms adds 2u*(A + B), far more than the float64 roundings of x
    and e. So each strip distance lies in
    [sqrt(max(x - e, 0)), sqrt(x + e)], and so does their mean. The float64
    means carry at most s + 4 roundings of 2**-53 each, and the float64
    value ``_distances_to_stack`` returns at most s + d/2 + 2: widening by
    (2s + d + 8)*2**-53 relative makes [lo, hi] enclose that value.
    """
    strips = gallery.strips
    n, s, d = strips.shape
    step = _block_rows(s, d, 8)
    # one float32 matrix-vector product per strip and block of rows, so
    # each block is read from memory once for all s strips
    products = np.empty((s, n), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, step):
            stop = min(start + step, n)
            np.matmul(strips[start:stop].transpose(1, 0, 2), probe[:, :, None],
                      out=products[:, start:stop, None])
        x = products.astype(np.float64)
        x *= -2.0
        err = gallery.strip_sq_norms + np.einsum("sd,sd->s", probe, probe)[:, None]
        x += err
    if not np.isfinite(x).all():
        return None
    g = (d + 1) * 2.0**-24 / (1 - (d + 1) * 2.0**-24)
    err *= 2 * g / (1 - g)
    err += d * 2.0**-122
    lo = x - err
    x += err
    np.maximum(lo, 0.0, out=lo)
    np.sqrt(lo, out=lo)
    np.sqrt(x, out=x)
    widen = (2 * s + d + 8) * 2.0**-53
    return lo.sum(axis=0) * ((1 - widen) / s), x.sum(axis=0) * ((1 + widen) / s)


def _eligible_rows(probe: FeatureMap, gallery: FeatureSet) -> np.ndarray:
    """The gallery rows ``probe`` ranks against: all but its own id."""
    if probe.strips.shape != (gallery.s, gallery.d):
        raise ShapeError(
            f"probe {probe.sequence_id!r} is {probe.strips.shape}, "
            f"gallery declares ({gallery.s}, {gallery.d})"
        )
    rows = np.flatnonzero(gallery.id_rank != gallery.rank_of.get(probe.sequence_id, -1))
    if not len(rows):
        raise DataError(
            f"empty effective gallery for probe {probe.sequence_id!r}"
        )
    return rows


def _ranked(probe_id: str, gallery: FeatureSet, rows: np.ndarray, dists: np.ndarray,
            k: int | None) -> RankedList:
    """The first k of ``rows`` by (distance, sequence id); ``dists`` holds
    their distances."""
    order = np.lexsort((gallery.id_rank[rows], dists))[:k]
    ids = gallery.sequence_ids
    return RankedList(
        probe_id=probe_id,
        items=tuple(zip([ids[i] for i in rows[order].tolist()], dists[order].tolist())),
    )


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
    rows = _eligible_rows(probe, gallery)
    if k is not None and k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    exact_probe = probe.strips.astype(np.float64)
    if k is not None and k < len(rows):
        bounds = _distance_bounds(probe.strips, gallery)
        if bounds is not None:
            # the k smallest hi bound k exact distances, so the k-th is at
            # most cut; only rows whose lo exceeds it can be skipped
            lo, hi = bounds[0][rows], bounds[1][rows]
            cut = np.partition(hi, k - 1)[k - 1]
            rows = rows[~(lo > cut)]
        dists = _distances_to_stack(exact_probe, gallery.strips, rows)[0]
        # keep every distance up to the k-th, so ties at the cut still
        # break by id below
        keep = dists <= np.partition(dists, k - 1)[k - 1]
        rows, dists = rows[keep], dists[keep]
    else:
        dists = _distances_to_stack(exact_probe, gallery.strips)[0, rows]
    return _ranked(probe.sequence_id, gallery, rows, dists, k)


def rank_all(probes, gallery: FeatureSet, k: int | None = None) -> list[RankedList]:
    """rank_gallery for every probe (a FeatureSet or a sequence of
    FeatureMaps), preserving probe input order. Full lists (``k=None``)
    take one distance pass over the gallery for all probes."""
    probes = list(probes)
    out, eligible = [], []
    for probe in probes:
        try:
            if k is None:
                eligible.append(_eligible_rows(probe, gallery))
            else:
                out.append(rank_gallery(probe, gallery, k))
        except (DataError, ShapeError) as exc:
            raise type(exc)(f"probe {probe.sequence_id!r}: {exc}") from exc
    if k is not None or not probes:
        return out
    stack = np.array([probe.strips for probe in probes], dtype=np.float64)
    dists = _distances_to_stack(stack, gallery.strips)
    return [
        _ranked(probe.sequence_id, gallery, rows, row_dists[rows], None)
        for probe, rows, row_dists in zip(probes, eligible, dists)
    ]


# one record per call on json's C encoder: the bytes of
# json.dumps(record, separators=(",", ":"), allow_nan=False)
_encode_record = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False).encode


def write_ranked_lists(
    lists: Iterable[RankedList],
    path,
    latencies_ms: Sequence[float] | None = None,
) -> None:
    """One JSON record per probe, written as it is formatted; optional
    per-probe latency field. A NaN or infinite value, which
    ``read_ranked_lists`` would reject, is a NonFiniteError naming the
    probe, and leaves the previous file or none."""
    with _write_atomic(path, "w") as fh:
        for i, rl in enumerate(lists):
            rec = {"probe_id": rl.probe_id, "items": rl.items}
            if latencies_ms is not None:
                rec["latency_ms"] = latencies_ms[i]
            try:
                fh.write(_encode_record(rec) + "\n")
            except ValueError as exc:
                raise NonFiniteError(f"probe {rl.probe_id!r}: NaN or Inf in its ranked list") from exc


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
