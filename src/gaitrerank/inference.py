"""Second-stage re-ranking: re-order each probe's top-K by the
cross-attention distance and splice the result onto the untouched tail.

The re-ranked prefix and the tail live on different distance scales, so
the prefix distances are affinely rescaled into [0, first-tail-distance]
to keep the full list nondecreasing for metric code. When re-ranking
does not change the prefix order at all, the input list is returned
unchanged, distances included; the global distances are already correct
in that case.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .errors import DataError, MissingIdError
from .feature_store import FeatureMap, FeatureSet
from .ranking import RankedList, _check_k
from .reranker import RerankerWeights, pair_distances

DEFAULT_K = 10


def _rerank_with(score, probe: FeatureMap, initial: RankedList, features, k: int) -> RankedList:
    """Guards, candidate lookup and splice shared by both re-rankers.

    ``features`` is a FeatureSet, whose rows are gathered in one index,
    or a mapping of sequence id -> map. ``score(probe_map,
    candidate_maps)`` returns one value per stacked top-k candidate; the
    prefix is re-ordered ascending by it.
    """
    _check_k(k)
    if probe.sequence_id != initial.probe_id:
        raise DataError(
            f"initial list is for probe {initial.probe_id!r}, "
            f"got features for {probe.sequence_id!r}"
        )
    if not len(initial):
        raise DataError(f"probe {initial.probe_id!r}: empty initial list")
    kk = min(k, len(initial))
    ids = initial.ids(kk)
    try:
        if isinstance(features, FeatureSet):
            row = features.row_of
            cand = features.strips[[row[cid] for cid in ids]]
        else:
            cand = np.stack([np.asarray(features[cid], dtype=np.float32) for cid in ids])
    except KeyError as exc:
        raise MissingIdError(f"no features for candidate {exc.args[0]!r}") from exc
    return splice_reordered(initial, kk, score(probe.strips, cand))


def rerank(
    probe: FeatureMap,
    initial: RankedList,
    features,
    weights: RerankerWeights,
    k: int = DEFAULT_K,
) -> RankedList:
    """Re-order the first min(k, len) items of ``initial`` ascending by
    the attended pair distance, sequence id as tie-break.

    Items beyond k keep their original order and distances. The id set of
    the prefix is preserved by construction.
    """

    def score(probe_map, candidate_maps):
        return pair_distances(probe_map, candidate_maps, weights)

    return _rerank_with(score, probe, initial, features, k)


def splice_reordered(
    initial: RankedList, kk: int, values: Sequence[float]
) -> RankedList:
    """Re-order the first kk items ascending by ``values`` (sequence-id
    tie-break) and rescale the new prefix distances into
    [0, first-tail-distance]. Returns ``initial`` itself when the order is
    already correct, so an order-preserving re-rank is a byte-level no-op.
    """
    prefix = initial.ids(kk)
    order = sorted(range(kk), key=lambda i: (values[i], prefix[i]))
    if order == list(range(kk)):
        return initial
    ranked = np.asarray(values, dtype=np.float64)[order]
    tail = initial.dists[kk:]
    if len(tail):
        lo, hi = ranked[0], ranked[-1]
        # clamp: the affine map can overshoot tail[0] by one ulp
        ranked = (np.minimum((ranked - lo) * tail[0] / (hi - lo), tail[0]) if hi > lo
                  else np.zeros(kk))
    return RankedList(initial.probe_id, dists=np.concatenate([ranked, tail]),
                      ids=tuple([prefix[i] for i in order] + initial.ids()[kk:]))


def rerank_all(
    probes: Sequence[FeatureMap],
    initial_lists: Sequence[RankedList],
    features,
    weights,
    k: int = DEFAULT_K,
) -> tuple[list[RankedList], list[float]]:
    """Elementwise re-rank over aligned (probes, initial_lists) with either
    model: ``rerank`` for RerankerWeights, ``baseline.baseline_rerank``
    for BaselineWeights. Returns the lists plus per-probe wall-clock
    latency in milliseconds."""
    if len(probes) != len(initial_lists):
        raise DataError(
            f"{len(probes)} probes but {len(initial_lists)} initial lists"
        )
    if isinstance(weights, RerankerWeights):
        one = rerank
    else:
        from .baseline import baseline_rerank as one  # baseline imports this module
    lists, latencies = [], []
    for probe, initial in zip(probes, initial_lists):
        t0 = time.perf_counter()
        try:
            lists.append(one(probe, initial, features, weights, k=k))
        except Exception as exc:
            exc.add_note(f"probe {probe.sequence_id!r}")
            raise
        latencies.append((time.perf_counter() - t0) * 1e3)
    return lists, latencies
