"""First-stage gallery ranking by the strip-averaged Euclidean distance.

Every probe ranks against the gallery ``FeatureSet``'s own float32 array
(``FeatureSet.strips``), never copied; the probes are one float32 array,
a probe set's ``strips`` or a sequence of maps stacked once. Distances
are exact float64, over fixed blocks of gallery rows in one summation
order, so rankings are bit-for-bit reproducible whatever the block size.
``rank_all`` without a k converts each block once and scores all of its
probes against it; a gallery ranked against itself scores each pair
once and mirrors it, bit-identical. Candidates are ordered by
(distance, sequence_id) in numpy sorts on the id keys the set caches
(``FeatureSet.id_rank``).

A top-k call (``1 <= k <`` eligible rows) bounds every row's distance
from below and scores exactly only the rows that can reach the k-th, in
a cascade of two bounds, one kernel (``_bounds``): |a|^2 + |b|^2 - 2a.b,
the decomposition FAISS uses, from float32 products of the doubled,
negated probe's vectors with a table's rows plus float64 terms of the
rows' squared norms, which the set caches (``FeatureSet.sum_table``,
``FeatureSet.bound_table``). The coarse bound reads d values a row: with
S a map's strips summed over s, the distance is at least |S_a - S_b|/s
by the triangle inequality, so one float32 GEMV per probe group over the
rows' sums bounds every row (``_sum_bounds``). Each probe scores exactly
its k rows with the lowest bounds; the largest of those k distances is
at least the k-th smallest, so it is the probe's cut. The rows whose
coarse bound does not exceed the cut are gathered and bounded again
strip by strip (``_distance_bounds``); a second exact pass scores the
rows whose fine bound does not exceed the cut either. Where the coarse
bounds keep most rows, as on maps drawn independently, a probe streams
the whole gallery through the fine bound instead (``_lowest_bounds``
decides from the coarse bounds), a block of rows at a time, so each
block is read once and nothing the size of the gallery's strips is
allocated per call, and its picks are its k lowest fine bounds. A
gallery under ``CASCADE_ROWS`` is streamed without the coarse bound.
``rank_all`` bounds its top-k probes ``GROUP_PROBES`` at a time, one
GEMM for the group, and each group makes its two exact passes over
(probe, row) pairs. Both bounds are proven never to exceed the exact
float64 distance, in any summation order, so every row at or below the
k-th distance, ties included, is scored: the output is bit-identical to
ranking the whole gallery. Full lists (``k=None``) take the exact path.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, FormatError, NonFiniteError, ShapeError
from .feature_store import FeatureMap, FeatureSet, _read_text, _write_atomic


class RankedList:
    """A probe id plus gallery candidates sorted ascending by distance, held
    as columns: ``dists``, a read-only float64 array, and the ids, a tuple
    or, from stage one, the gallery's id tuple and the intp ``rows`` picked
    from it. ``RankedList(probe_id, items)`` takes (id, distance) pairs, and
    ``items`` builds them when read. Lists are equal by value, so unhashable.
    """

    __slots__ = ("probe_id", "dists", "_ids", "_rows")

    def __init__(self, probe_id: str, items: Iterable[tuple[str, float]] = (), *,
                 dists=None, ids: Sequence[str] = (), rows: np.ndarray | None = None) -> None:
        if dists is None:
            items = tuple(items)
            dists, ids = [d for _, d in items], tuple(cid for cid, _ in items)
        dists = np.asarray(dists, dtype=np.float64).view()  # shares an array argument's memory
        dists.flags.writeable = False
        self.probe_id, self.dists, self._ids, self._rows = probe_id, dists, ids, rows

    def __len__(self) -> int:
        return len(self.dists)

    def __eq__(self, other):
        if not isinstance(other, RankedList):
            return NotImplemented
        return (self.probe_id == other.probe_id and np.array_equal(self.dists, other.dists)
                and self.ids() == other.ids())

    def __repr__(self) -> str:
        return f"RankedList({self.probe_id!r}, {self.items!r})"

    @property
    def items(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.ids(), self.dists.tolist()))

    def ids(self, stop: int | None = None) -> list[str]:
        """The candidate ids, the first ``stop`` of them given ``stop``."""
        if self._rows is None:
            return list(self._ids[:stop])
        return list(map(self._ids.__getitem__, self._rows[:stop].tolist()))

    def distances(self) -> list[float]:
        return self.dists.tolist()


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
# float32 blocks of a quarter of this, 256 KB (64 rows at 16 x 64), one
# GEMV or GEMM per strip: one probe's took 6.2 ms at 16 rows, 4.2 at 64,
# 7.5 at 128 and 8.6 at 256, and an einsum over each row in order 5.8 at
# any size (median of 5). Their float64 arithmetic then runs over about
# BLOCK_BYTES of values at a time (8,192 rows for one probe at s = 16):
# with an upper bound beside the lower one, the bound pass took 11.0 ms
# at one float64 pass per 64-row block, 8.3 at 256 rows and 7.5 at 1,024.
BLOCK_BYTES = 1 << 20

# probes bounded and re-scored together in top-k rank_all: a k=100
# probe took 7.8-9.0 ms alone, 3.5-4.5 in groups of 10 to 32
GROUP_PROBES = 16

# a probe streams (_lowest_bounds) where the share of the rows its sum
# bounds keep, those at or below the exact distance of the row of its
# k-th lowest, times the root of the probes in its group, exceeds
# DENSE_SHARE. k=100 against the 10,000 x 16 x 64 synth gallery at
# hardness 0 to 0.7 (median shares 0.99 to 0.04), caches evicted: a lone
# probe took 7.6 ms gathering against 8.2 streaming at a share of 0.51,
# 9.8 against 7.8 at 0.76; in groups of 16, which share one streaming
# pass, 2.6 against 3.2 ms a probe at 0.16 and 4.3 against 3.1 at 0.31
DENSE_SHARE = 0.6

# galleries of fewer rows stream without the cascade, whose 120 more
# numpy calls cost 0.09 ms a lone probe, 0.04 a probe in a group (64
# rows at 8 x 16). Caches evicted, at hardness 0.7: a lone probe took
# 1.10 ms with the cascade and 1.28 without against 1,000 rows at 16 x
# 64, k=100, and groups of 16 0.76 ms a probe either way up to 2,000
# rows; at 8 x 16, k=30, groups took 0.16 and 0.14 ms a probe at 1,000
# rows, 0.18 and 0.23 at 2,000
CASCADE_ROWS = 2048


def _block_rows(s: int, d: int, value_bytes: int) -> int:
    """Gallery rows per block when each value takes ``value_bytes``."""
    return max(1, BLOCK_BYTES // (value_bytes * s * d))


def _distances_to_stack(
    probes: np.ndarray, stack: np.ndarray, rows: np.ndarray | None = None,
    owner: np.ndarray | None = None,
) -> np.ndarray:
    # probes (p, s, d) float64 (one (s, d) probe counts as p = 1), stack
    # (n, s, d) float32 -> (p, n) float64, a block converted once for all
    # probes (16 bytes per value); given ``rows`` and their ``owner``
    # probes, the (m,) distances of the pairs (probes[owner[j]],
    # stack[rows[j]]), both gathered a block of pairs at a time (12 bytes
    # per value). Every pair is reduced exactly as the whole stack would
    # be (float64 difference, square, sum over d, sqrt, mean over s),
    # whatever the block size or the other pairs.
    #
    # The stack as its own probes gives its (n, n) distances with each
    # pair scored once: fl(a - b) = -fl(b - a), so d(a, b) and d(b, a)
    # are the same float64 value. Row i is scored against the rows from
    # i on, each block converted into one float64 copy of the stack that
    # serves as the probes, and once a block is done its rows' entries
    # before the diagonal are copied from their columns.
    n, s, d = stack.shape
    mirror = probes is stack
    m = n if rows is None else len(rows)
    step = _block_rows(s, d, 16 if rows is None else 12)
    blocks = np.empty((n if mirror else min(m, step), s, d),
                      dtype=np.float64 if rows is None else np.float32)
    probes = blocks if mirror else probes.reshape(-1, s, d)
    out = np.empty((len(probes), n) if rows is None else m)
    work = np.empty((min(m, step), s, d))
    for start in range(0, m, step):
        stop = min(start + step, m)
        block = blocks[start:stop] if mirror else blocks[: stop - start]
        if mirror:
            np.copyto(block, stack[start:stop])
            passes = ((probes[i], block[max(i - start, 0):], out[i, max(i, start) : stop])
                      for i in range(stop))
        elif rows is None:
            np.copyto(block, stack[start:stop])
            passes = ((probe, block, dest) for probe, dest in zip(probes, out[:, start:stop]))
        else:
            # mode="clip" (the indices are in range) keeps take from buffering
            np.take(stack, rows[start:stop], axis=0, out=block, mode="clip")
            gathered = work[: stop - start]
            np.take(probes, owner[start:stop], axis=0, out=gathered, mode="clip")
            passes = [(gathered, block, out[start:stop])]
        for probe, against, dest in passes:
            diff = work[: len(against)]
            np.subtract(against, probe, out=diff)
            diff *= diff
            # the mean over s as ndarray.mean takes it (a sum, then one
            # division), without its Python-level call overhead
            np.divide(np.sqrt(diff.sum(axis=2)).sum(axis=1), s, out=dest)
        if mirror:
            for i in range(start, stop):
                out[i, :i] = out[:i, i]
    return out


def _bound_slack(d: int) -> tuple[float, float]:
    """(c, t) of the bounds on vectors of d values (``_bounds`` proves them)."""
    g = (d + 1) * 2.0**-24 / (1 - (d + 1) * 2.0**-24)
    return 2 * g / (1 - g), d * 2.0**-122


def _strip_sums(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 maps ``(m, s, d)`` holding float32 values as the strip-sum
    bound sees them: each map's strips summed over s in float64 and
    rounded to float32, ``(m, 1, d)`` (a sum beyond float32's range is
    Inf), and e, a float64 ``(m,)`` bound on that sum's rounding."""
    _, s, d = maps.shape
    with np.errstate(over="ignore"):
        sums = maps.sum(axis=1, keepdims=True).astype(np.float32)
    return sums, 2.0**-20 * np.sqrt(s * np.einsum("msd,msd->m", maps, maps)) + d * 2.0**-123


def _norm_terms(table: np.ndarray) -> np.ndarray:
    """The float64 terms L = (1 - c)*B - t of float32 table rows ``(n, r,
    d)``, ``(r, n)`` with a row's contiguous, as its vectors are gathered:
    B is a vector's squared norm summed in float32, c and t the slack of d
    values (``_bound_slack``); ``FeatureSet.bound_table`` of the strips."""
    c, t = _bound_slack(table.shape[2])
    terms = np.einsum("nrd,nrd->nr", table, table).astype(np.float64) * (1 - c) - t
    terms.flags.writeable = False
    return terms.T


def _sum_table(strips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``FeatureSet.sum_table``, built in one pass over the float32 ``strips``
    ``(n, s, d)``, a block of rows at a time: the strip sums, float32 ``(n,
    1, d)`` (2.56 MB beside 41 MB of strips at 10,000 x 16 x 64), and float64
    ``(2, n)``: L of each sum (``_norm_terms``), then e (``_strip_sums``)."""
    n, s, d = strips.shape
    sums, terms = np.empty((n, 1, d), np.float32), np.empty((2, n))
    step = _block_rows(s, d, 8)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        sums[rows], terms[1, rows] = _strip_sums(strips[rows].astype(np.float64))
    terms[0] = _norm_terms(sums)[0]
    sums.flags.writeable = terms.flags.writeable = False
    return sums, terms


def _bounds(vectors: np.ndarray, table: np.ndarray, terms: np.ndarray, s: int,
            rows: np.ndarray | None = None, err: np.ndarray | None = None) -> np.ndarray:
    """Float64 ``(p, n)`` lower bounds on the distance ``_distances_to_stack``
    returns between maps of s strips, from float32 vectors ``(p, r, d)``
    (one ``(r, d)`` counts as p = 1) against float32 table rows ``(n, r,
    d)`` and the rows' float64 terms ``(r, n)`` (``_norm_terms``); given
    ``rows``, the ``(p, m)`` bounds of those rows, gathered a block at a
    time. Given ``err``, the probes' rounding terms ``(p,)``, ``terms``
    holds the rows' as a last row, and both are subtracted. The per-strip
    bound (``_distance_bounds``) takes the strips, r = s; the strip-sum
    bound (``_sum_bounds``) each map's strips summed, r = 1, less their
    rounding terms. A probe with a bound that is not finite (a value, sum,
    float32 square or product overflowed) gets 0 for every row, which
    keeps every row.

    Per vector, with a the probe's, b the row's, u = 2**-24 and g' =
    d*u/(1 - d*u), the float32 sums A = |a|^2, B = |b|^2 and P = (-2a).b
    (doubling a float32 is exact) are each off by at most g'*sum|terms| +
    2d*2**-126 in any summation order (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2002, s3.1; the absolute term covers subnormal
    products and sums, even flushed to zero), so neither the block a
    product is taken in, nor the other probes of its GEMM, nor the order
    BLAS sums it in matters. As sum|2a_k*b_k| <= |a|^2 + |b|^2 <= (A + B +
    4d*2**-126)/(1 - g'), A + B + P is within 2g'/(1 - g')*(A + B) +
    7d*2**-126 of |a - b|^2. With g at d + 1 terms, c = 2g/(1 - g) and t =
    d*2**-122 (``_bound_slack``), the table holds L = (1 - c)*B - t, and
    the float64 sum lo2 = L + P + (1 - c)*A falls below |a - b|^2 by a
    margin of at least 2u*(A + B) + 9d*2**-126. Its float64 roundings, at
    most seven of 2**-53 times a value below 3*(A + B) + t, stay far
    inside it. So |a - b| is at least sqrt(max(lo2, 0)) (a product that
    overflows to -inf gives 0). At r = s the vectors are the strips, so
    the mean of the roots, their float64 sum divided by s, is at most the
    distance. It carries at most s + 4 roundings of 2**-53 each, and the
    float64 value ``_distances_to_stack`` returns at most s + d/2 + 2:
    shrinking by (2s + d + 8)*2**-53 relative keeps the bound at or below
    that value.

    At r = 1, with S a map's strips summed, (1/s)*sum_i |a_i - b_i| >=
    (1/s)*|S_a - S_b| by the triangle inequality. The float64 sum of a
    map's strips is off from S by at most gamma_(s-1) times the sum of the
    absolute terms in any order (Higham, s4.2; sums of float32 values are
    multiples of 2**-149, exact below 2**-96, so nothing underflows), and
    rounding it to float32 (S', ``_strip_sums``) moves it by at most 2**-24
    of its size plus 2**-126. So |S' - S| <= 2**-23 * sqrt(s*F) +
    sqrt(d)*2**-126 by Cauchy-Schwarz over the strips, with F the map's sum
    of squares, which the float64 sum of the exact squares of float32
    values underestimates by a relative gamma_(s*d) at most: e = 2**-20 *
    sqrt(s*F) + d*2**-123 is almost eight times that bound, and the
    argument here needs twice it. The root above, for a = S'_a and b =
    S'_b, is at most (1 + 2**-53)*|S'_a - S'_b|, and |S'_a - S'_b| is at
    most |S_a - S_b| + (e_a + e_b)/7. Subtracting e_b and then e_a leaves
    at most (1 + 3*2**-53)*|S_a - S_b|, the excess of e covering both
    subtractions' roundings, and the same division by s and shrinking keep
    the bound at or below ``_distances_to_stack``'s value.
    """
    n, r, d = table.shape
    if rows is not None:
        n, terms = len(rows), terms[:, rows]
    vectors = vectors.reshape(-1, r, d)
    p = len(vectors)
    c, _ = _bound_slack(d)
    out = np.empty((p, n))
    with np.errstate(over="ignore", invalid="ignore"):
        neg2 = np.ascontiguousarray(vectors.transpose(1, 2, 0)) * np.float32(-2)
        own = (1 - c) * np.einsum("prd,prd->rp", vectors, vectors).astype(np.float64)[..., None]
        if r == 1:
            # nothing is re-read or summed: one GEMM into a contiguous (n, p)
            # array, cast into ``out`` through its transpose, then the
            # float64 pass in ``out``. For 16 probes against 10,000 rows at
            # d = 64 the GEMM and the cast took 0.44 ms against 0.66 for
            # the GEMM into a transposed (p, n) view and a mixed float32 +
            # float64 add (blocked as below, the pass took 13% longer)
            np.copyto(out, ((table[:, 0] if rows is None else table[rows, 0]) @ neg2[0]).T)
            out += terms[0]
            out += own[0]
            np.maximum(out, 0.0, out=out)
            np.sqrt(out, out=out)
        else:
            # the products of one block of rows per float32 GEMM, the block
            # re-read once per vector, a float64 pass over several blocks'
            # products (see BLOCK_BYTES)
            step = _block_rows(r, d, 16)
            span = max(step, BLOCK_BYTES // (8 * r * p))
            products = np.empty((r, p, min(span, n)), dtype=np.float32)
            work = np.empty(products.shape)
            gathered = None if rows is None else np.empty((min(step, n), r, d), dtype=np.float32)
            for start in range(0, n, span):
                stop = min(start + span, n)
                for row in range(start, stop, step):
                    end = min(row + step, stop)
                    block = table[row:end] if rows is None else np.take(
                        table, rows[row:end], axis=0, out=gathered[: end - row], mode="clip")
                    np.matmul(block.transpose(1, 0, 2), neg2,
                              out=products[..., row - start : end - start].transpose(0, 2, 1))
                w = work[..., : stop - start]
                np.add(products[..., : stop - start], terms[:r, None, start:stop], out=w)
                w += own
                np.maximum(w, 0.0, out=w)
                np.sqrt(w, out=w)
                np.add.reduce(w, axis=0, out=out[:, start:stop])
        if err is not None:
            out -= terms[r]
            out -= err[:, None]
        out *= (1 - (2 * s + d + 8) * 2.0**-53) / s
    # one sum is finite exactly when every bound is
    if not math.isfinite(out.sum()):
        out[~np.isfinite(out).all(axis=1)] = 0.0
    return out


def _distance_bounds(probes: np.ndarray, gallery: FeatureSet,
                     rows: np.ndarray | None = None) -> np.ndarray:
    """``_bounds`` of the float32 probes' strips (``(p, s, d)``; one ``(s,
    d)`` probe counts as p = 1) against the gallery rows' (``rows`` of them)."""
    return _bounds(probes, gallery.strips, gallery.bound_table, gallery.s, rows)


def _sum_bounds(probes: np.ndarray, gallery: FeatureSet) -> np.ndarray:
    """``_bounds`` of the strip sums of float64 probes holding float32 values
    (``(p, s, d)``) against every gallery row's (``FeatureSet.sum_table``)."""
    vectors, err = _strip_sums(probes.reshape(-1, gallery.s, gallery.d))
    return _bounds(vectors, *gallery.sum_table, gallery.s, err=err)


def _check_k(k: int | None) -> None:
    if k is not None and k < 1:
        raise DataError(f"k must be >= 1, got {k}")


def _drop_own(values: np.ndarray, own: np.ndarray) -> np.ndarray:
    """``values`` with NaN, sorted last, at each row's ``own`` column (-1: none)."""
    at = np.flatnonzero(own >= 0)
    values[at, own[at]] = np.nan
    return values


def _lowest(values: np.ndarray, k: int) -> np.ndarray:
    """Each row's k lowest columns of ``values`` ``(p, n)``, NaN last: those at
    or below its k-th value, found by np.partition, unless values tie there
    (over 10,000 bounds of a row, 0.03 ms against np.argpartition's 0.04-0.14)."""
    kth = np.partition(values, k - 1, axis=1)[:, k - 1 : k]
    keep = np.flatnonzero(values <= kth)
    if len(keep) > len(values) * k:
        return np.argpartition(values, k - 1, axis=1)[:, :k]
    return (keep % values.shape[1]).reshape(-1, k)


def _lowest_bounds(strips: np.ndarray, wide: np.ndarray, own: np.ndarray,
                   gallery: FeatureSet, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower bounds on the distances of a group of probes (``strips``, and
    as float64 ``wide``) to the gallery rows, NaN at each one's ``own`` row
    (-1: none), so it is partitioned last, below no cut; each probe's k
    rows with the lowest bounds; and which probes took the streaming
    per-strip bound pass (``_distance_bounds``): against ``CASCADE_ROWS``
    rows or more, only those whose strip-sum bounds (``_sum_bounds``) keep
    too many rows (``DENSE_SHARE``)."""
    p, n = len(strips), len(gallery)
    if n < CASCADE_ROWS:
        lo = _drop_own(_distance_bounds(strips, gallery), own)
        return lo, _lowest(lo, k), np.ones(p, dtype=bool)
    lo = _drop_own(_sum_bounds(wide, gallery), own)
    picks, at = _lowest(lo, k), np.arange(p)
    # the rows a probe's cut would keep by their sum bounds, counted at the
    # exact distance of its k-th lowest's row, which the cut is at least
    kth = picks[at, lo[at[:, None], picks].argmax(axis=1)]
    reach = _distances_to_stack(wide, gallery.strips, kth, at)
    dense = np.count_nonzero(lo <= reach[:, None], axis=1) > n * DENSE_SHARE / math.sqrt(p)
    if dense.any():
        lo[dense] = _drop_own(_distance_bounds(strips[dense], gallery), own[dense])
        picks[dense] = _lowest(lo[dense], k)
    return lo, picks, dense


def _rank(strips: np.ndarray, ids: Sequence[str], own: np.ndarray, gallery: FeatureSet,
          k: int | None) -> list[RankedList]:
    """Each float32 probe of ``strips`` ``(p, s, d)``, named by ``ids``,
    ranked: its top k (all with ``k=None``) of the gallery rows but its
    ``own`` row (-1 for none). Probes whose k reaches their eligible rows
    take one exact pass over the gallery together, then one stable sort
    per ``GROUP_PROBES`` of their distances with the rows in id order; the
    others are bounded ``GROUP_PROBES`` at a time, and each group scores
    exactly, in two pair passes, each probe's k lowest-bound rows and then
    the other rows that can reach its k-th."""
    out: list = [None] * len(ids)
    eligible = len(gallery) - (own >= 0)
    bounded = eligible > (len(gallery) if k is None else k)
    exact, bounded = np.flatnonzero(~bounded), np.flatnonzero(bounded)
    if len(exact):
        # the gallery ranked against itself scores each pair once
        itself = strips is gallery.strips and len(exact) == len(ids)
        wide = strips if itself else strips[exact].astype(np.float64)
        dists = _drop_own(_distances_to_stack(wide, gallery.strips), own[exact])
        by_id = np.argsort(gallery.id_rank)  # the rows in tie-break order
        for first in range(0, len(exact), GROUP_PROBES):
            block = dists[first : first + GROUP_PROBES, by_id]
            order = np.argsort(block, axis=1, kind="stable")
            block, rows = np.take_along_axis(block, order, axis=1), by_id[order]
            for i, top, top_rows in zip(exact[first:].tolist(), block, rows):
                out[i] = RankedList(ids[i], dists=top[: eligible[i]],
                                    ids=gallery.sequence_ids, rows=top_rows[: eligible[i]])
    for first in range(0, len(bounded), GROUP_PROBES):
        group = bounded[first : first + GROUP_PROBES]
        maps = strips[group]
        wide = maps.astype(np.float64)
        lo, picks, dense = _lowest_bounds(maps, wide, own[group], gallery, k)
        # any k rows' largest exact distance is at least the k-th smallest
        # (ties included), so no row whose lower bound exceeds it is needed
        owner = np.repeat(np.arange(len(group)), k)
        near = _distances_to_stack(wide, gallery.strips, picks.ravel(), owner)
        cut = near.reshape(-1, k).max(axis=1)
        below = lo <= cut[:, None]
        below[owner.reshape(-1, k), picks] = False  # scored already
        # a sparse probe's rows under the cut by their sum bounds, gathered,
        # are bounded again strip by strip
        for j in np.flatnonzero(~dense):
            rows = np.flatnonzero(below[j])
            below[j, rows] = _distance_bounds(maps[j], gallery, rows)[0] <= cut[j]
        # (np.nonzero of the 2-D mask took ten times as long)
        others, rows = np.divmod(np.flatnonzero(below), len(gallery))
        far = _distances_to_stack(wide, gallery.strips, rows, others)
        owner, rows, dists = (np.concatenate(pair) for pair in
                              ((owner, others), (picks.ravel(), rows), (near, far)))
        # each probe's pairs in (distance, id) order, probe by probe
        order = np.lexsort((gallery.id_rank[rows], dists, owner))
        for i, start in zip(group.tolist(), np.searchsorted(owner[order], np.arange(len(group)))):
            top = order[start : start + k]
            out[i] = RankedList(ids[i], dists=dists[top], ids=gallery.sequence_ids, rows=rows[top])
    return out


def _ranked(probes, gallery: FeatureSet, k: int | None) -> list[RankedList]:
    """``rank_all``, which checks in turn: k; each probe's shape against the
    gallery's; each probe's effective gallery (the rows but its own) for
    rows; and, in one pass over the stacked maps (a set holds none), each
    probe for a NaN, whose distances would all be NaN and its top-k list no
    prefix of its full list (an inf ranks). Errors name the first probe."""
    _check_k(k)
    if isinstance(probes, FeatureSet):
        strips, ids = probes.strips, probes.sequence_ids
        shapes = [strips.shape[1:]] if len(ids) else []
    else:
        probes = list(probes)
        ids, shapes = [p.sequence_id for p in probes], [p.strips.shape for p in probes]
    want = (gallery.s, gallery.d)
    for i, shape in enumerate(shapes):
        if shape != want:
            raise ShapeError(f"probe {ids[i]!r}: probe {ids[i]!r} is {shape}, gallery declares {want}")
    own = np.array([gallery.row_of.get(sid, -1) for sid in ids], dtype=np.intp)
    empty = len(gallery) - (own >= 0) < 1
    if empty.any():
        raise DataError("probe {0!r}: empty effective gallery for probe {0!r}".format(ids[empty.argmax()]))
    if not isinstance(probes, FeatureSet):
        strips = np.array([p.strips for p in probes], dtype=np.float32).reshape(-1, *want)
        nan = np.isnan(strips).any(axis=(1, 2))
        if nan.any():
            raise NonFiniteError(f"NaN in probe {ids[int(nan.argmax())]!r}")
    return _rank(strips, ids, own, gallery, k)


def rank_gallery(probe: FeatureMap, gallery: FeatureSet, k: int | None = None) -> RankedList:
    """Top-k gallery candidates by strip distance, ascending.

    The probe's own sequence_id is excluded. Ties are broken by ascending
    sequence_id so rankings are deterministic. ``k=None`` ranks the whole
    gallery. A probe holding a NaN is a NonFiniteError naming it.
    """
    return _ranked([probe], gallery, k)[0]


def rank_all(probes, gallery: FeatureSet, k: int | None = None) -> list[RankedList]:
    """rank_gallery for every probe, in input order, with the same lists.
    The probes are one float32 array: a FeatureSet's ``strips``, or a
    sequence of FeatureMaps stacked once. Full lists take one distance pass
    over the gallery for all probes, top-k lists one per group of probes."""
    return _ranked(probes, gallery, k)


_escape = json.encoder.encode_basestring_ascii


def write_ranked_lists(lists: Iterable[RankedList], path) -> None:
    """One JSON record per probe, written as it is formatted. Each line
    holds the bytes of ``json.dumps(record, separators=(",", ":"),
    allow_nan=False)``: ids escaped as json escapes them, distances as
    ``repr`` of a float. A NaN or infinite distance, which
    ``read_ranked_lists`` would reject, is a NonFiniteError naming the
    probe, and leaves the previous file or none. Stage one's lists share
    their gallery's id tuple, which is escaped once per call."""
    escaped: dict = {}  # id() of a shared id tuple -> (the tuple, kept alive; its ids escaped)
    with _write_atomic(path, "w") as fh:
        for rl in lists:
            if not np.isfinite(rl.dists).all():
                raise NonFiniteError(f"probe {rl.probe_id!r}: NaN or Inf in its ranked list")
            if rl._rows is not None and id(rl._ids) not in escaped:
                escaped[id(rl._ids)] = rl._ids, list(map(_escape, rl._ids))
            ids = (map(_escape, rl._ids) if rl._rows is None
                   else map(escaped[id(rl._ids)][1].__getitem__, rl._rows.tolist()))
            pairs = zip(ids, rl.dists.tolist())
            items = ",".join([f"[{cid},{d!r}]" for cid, d in pairs])
            fh.write(f'{{"probe_id":{_escape(rl.probe_id)},"items":[{items}]}}\n')


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
            dists = np.array(_json_values([d for _, d in pairs], float))
        except (json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: bad ranked-list record ({exc})") from exc
        if not np.isfinite(dists).all():
            raise NonFiniteError(f"{path}:{lineno}: NaN or Inf distance")
        if (np.diff(dists) < 0).any():
            raise FormatError(f"{path}:{lineno}: distances are not ascending")
        if len(set(ids)) != len(ids):
            raise FormatError(f"{path}:{lineno}: duplicate candidate id")
        out.append(RankedList(probe_id, dists=dists, ids=ids))
    return out
