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

# sequences drawn, and pairs blended, per call of generate's loops: the
# 10,000 x 16 x 64 set took 240-263 ms at 16 to 64 and 251-284 ms at 8 and
# 256 (CPU time, medians of 12, two runs, 2 vCPU)
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
    # every pair's base draws lead the stream: a second generator replays them
    # as the loop below reaches them, so one block of blended pairs is held
    bases = np.random.default_rng(seed)
    covariate = COVARIATE_SCALE * hardness * noise
    n = identities * per_identity
    strips = np.empty((n, s, d), dtype=np.float32)
    # each sequence draws its d shift values, then its s*d noise values:
    # one draw per chunk of sequences fills the same stream
    draws = np.empty((min(n, CHUNK_SEQUENCES), d + s * d))
    work = np.empty((len(draws), s, d))
    blended = np.empty((len(draws), 2, s, d))
    pairs = (identities + 1) // 2
    for first in range(0, pairs, len(draws)):
        # skip the base draws: d + s*d float64 values a pair, not float32 ones
        rng.standard_normal(out=draws[: min(len(draws), pairs - first)])
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
                if i % (2 * len(blended)) == 0 and lo == i * per_identity:
                    _blend_pairs(bases, blended, hardness)
                maps[lo - start : hi - start] = blended[i // 2 % len(blended), i % 2]
            maps += (covariate * z[:, :d])[:, None, :]
            values = z[:, d:].reshape(maps.shape)
            values *= noise
            np.add(maps, values, out=strips[start:stop])
    identity_ids = tuple(ident for i in range(identities) for ident in (f"id{i:03d}",) * per_identity)
    sequence_ids = tuple(f"{iid}-{t % per_identity:02d}" for t, iid in enumerate(identity_ids))
    try:
        return FeatureSet(strips, sequence_ids, identity_ids)
    except NonFiniteError as exc:
        raise ValueError(f"noise {noise} overflows float32: {exc}") from exc


def _blend_pairs(rng: np.random.Generator, out: np.ndarray, hardness: float) -> None:
    """Draw the next pairs' base maps into ``out`` (pairs, 2, s, d), blended."""
    s, d = out.shape[2:]
    raw = rng.standard_normal((len(out), d + s * d))  # per pair: d center, s*d row values
    raw *= np.repeat([SIGMA_CENTER, SIGMA_ROWS], [d, s * d])
    raw += 0.0  # as rng.normal(0.0, scale) computes it: a -0.0 draw gives 0.0
    center, rows = raw[:, None, :d], raw[:, d:].reshape(len(out), s, d)
    np.add(center, rows, out=out[:, 0])
    # the partner's rows rolled one strip down
    np.add(center, rows[:, -1:], out=out[:, 1, :1])
    np.add(center, rows[:, :-1], out=out[:, 1, 1:])
    mean_rows = out.mean(axis=2, keepdims=True)
    mean_rows *= hardness
    out *= 1.0 - hardness
    out += mean_rows


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
