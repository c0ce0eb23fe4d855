"""Seeded synthetic strip-feature generator.

Identities come in confusion pairs: both members of a pair share the
same multiset of strip rows, but the partner's rows are rolled one strip
down, so per-strip content tells the two apart while aggregate row
statistics cannot. Hardness h blends every base map toward the
broadcast of its own mean row; the mean row is invariant under the roll,
so the blend pulls both pair members toward the same point.

On top of the blend, every sequence carries a strip-constant covariate
offset (the stand-in for condition changes such as clothing or camera),
with amplitude COVARIATE_SCALE * h * noise. The offset shifts all strips
of a sequence coherently: the strip-averaged global distance is blinded
by it, which is what pushes hard negatives into the short list, while a
pair-conditioned comparison can cancel it because both sides of an
attended pair absorb the same two offsets. At h=0 or noise=0 the offset
vanishes, so clean configurations stay exactly separable.

Each identity additionally sits on a pair-level center row, keeping
different pairs far apart: confusion stays within pairs and the true
identity never leaves the top-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .feature_store import FeatureSet
from .metrics import rank_k_accuracy
from .ranking import rank_all

# Pair geometry, tuned so the pinned fixture (C=40, m=6, s=8, d=16,
# h=0.7, sigma_n=0.3) lands in the target confusion band: initial
# Rank-1 well below the ceiling, Rank-10 >= 0.9.
SIGMA_ROWS = 1.0
SIGMA_CENTER = 1.2
COVARIATE_SCALE = 4.0

# sequences drawn per call of generate's noise loop: the 10,000 x 16 x 64
# set took 389-402 ms at 16 to 64 (136 KB of float64 draws at 16), 417 at
# 8 and 421 at 256, whose 2 MB buffers leave L2 (median of 12, 2 vCPU)
CHUNK_SEQUENCES = 16


def generate(
    identities: int,
    per_identity: int,
    s: int,
    d: int,
    hardness: float,
    noise: float,
    seed: int,
) -> FeatureSet:
    """Draw a FeatureSet of ``identities`` x ``per_identity`` sequences.

    Deterministic given all arguments; the same seed yields bitwise
    identical strips.
    """
    if identities < 2:
        raise ValueError(f"identities must be >= 2, got {identities}")
    if per_identity < 2:
        raise ValueError(f"per_identity must be >= 2, got {per_identity}")
    if s < 2 or d < 1:
        raise ValueError(f"need s >= 2 and d >= 1, got s={s}, d={d}")
    if not 0.0 <= hardness <= 1.0:
        raise ValueError(f"hardness must be in [0, 1], got {hardness}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")

    rng = np.random.default_rng(seed)
    # each identity's base map, blended toward its mean row, one small
    # array per pair: one (identities, s, d) array, once freed, raises
    # glibc's mmap threshold to its size, and perfbench rank's RSS then
    # peaked 2.8 MB higher
    blended = []
    for first in range(0, identities, 2):
        center = rng.normal(0.0, SIGMA_CENTER, size=d)
        rows = rng.normal(0.0, SIGMA_ROWS, size=(s, d))
        pair = np.empty((2, s, d))
        np.add(center, rows, out=pair[0])
        # the partner's rows rolled one strip down
        np.add(center, rows[-1], out=pair[1, 0])
        np.add(center, rows[:-1], out=pair[1, 1:])
        mean_rows = pair.mean(axis=1, keepdims=True)
        mean_rows *= hardness
        pair *= 1.0 - hardness
        pair += mean_rows
        blended.extend(pair[: identities - first])

    covariate = COVARIATE_SCALE * hardness * noise
    n = identities * per_identity
    strips = np.empty((n, s, d), dtype=np.float32)
    # each sequence draws its d shift values, then its s*d noise values:
    # one draw per chunk of sequences fills the same stream
    draws = np.empty((min(n, CHUNK_SEQUENCES), d + s * d))
    work = np.empty((len(draws), s, d))
    # a noise too large for float32 leaves an Inf map: the set's own
    # per-map check below refuses it, so numpy's overflow warnings are muted
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, CHUNK_SEQUENCES):
            stop = min(start + CHUNK_SEQUENCES, n)
            z, maps = draws[: stop - start], work[: stop - start]
            rng.standard_normal(out=z)
            # each identity's rows in the chunk start from its blended base
            for i in range(start // per_identity, (stop - 1) // per_identity + 1):
                lo, hi = max(i * per_identity, start), min((i + 1) * per_identity, stop)
                maps[lo - start : hi - start] = blended[i]
            maps += (covariate * z[:, :d])[:, None, :]
            values = z[:, d:].reshape(maps.shape)
            values *= noise
            maps += values
            strips[start:stop] = maps
    identity_ids = tuple(ident for i in range(identities) for ident in (f"id{i:03d}",) * per_identity)
    sequence_ids = tuple(f"{iid}-{t % per_identity:02d}" for t, iid in enumerate(identity_ids))
    try:
        return FeatureSet(strips, sequence_ids, identity_ids)
    except NonFiniteError as exc:
        raise ValueError(f"noise {noise} overflows float32: {exc}") from exc


@dataclass(frozen=True)
class SynthSummary:
    identity_count: int
    sequence_counts: dict[str, int]
    rank1: float
    rank10: float


def describe(features: FeatureSet) -> SynthSummary:
    """Leave-one-out global retrieval quality of a generated set.

    Every sequence probes the remaining ones; self-matches are excluded
    by the ranker, so the numbers measure real identity confusion.
    """
    counts: dict[str, int] = {}
    for ident in features.identity_ids:
        counts[ident] = counts.get(ident, 0) + 1
    lists = rank_all(features, features, k=10)
    acc = rank_k_accuracy(lists, features.identity_map(), [1, 10])
    return SynthSummary(
        identity_count=len(counts),
        sequence_counts=dict(sorted(counts.items())),
        rank1=acc[1],
        rank10=acc[10],
    )
