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
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, MissingIdError
from .feature_store import FeatureMap, FeatureSet
from .ranking import RankedList
from .reranker import RerankerWeights, pair_distances

DEFAULT_K = 10


def _strips_lookup(features) -> Mapping[str, np.ndarray]:
    if isinstance(features, FeatureSet):
        return {e.sequence_id: e.strips for e in features.entries}
    return features


def _rerank_with(score, probe: FeatureMap, initial: RankedList, features, k: int) -> RankedList:
    """Guards, candidate lookup and splice shared by both re-rankers.

    ``score(probe_map, candidate_maps)`` returns one value per stacked
    top-k candidate; the prefix is re-ordered ascending by it.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if probe.sequence_id != initial.probe_id:
        raise DataError(
            f"initial list is for probe {initial.probe_id!r}, "
            f"got features for {probe.sequence_id!r}"
        )
    items = initial.items
    if not items:
        raise DataError(f"probe {initial.probe_id!r}: empty initial list")
    lookup = _strips_lookup(features)
    kk = min(k, len(items))
    try:
        cand = np.stack([np.asarray(lookup[cid], dtype=np.float32) for cid, _ in items[:kk]])
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
    prefix, tail = initial.items[:kk], initial.items[kk:]
    order = sorted(range(kk), key=lambda i: (values[i], prefix[i][0]))
    if order == list(range(kk)):
        return initial
    ranked = [float(values[i]) for i in order]
    if tail:
        bound = tail[0][1]
        lo, hi = ranked[0], ranked[-1]
        if hi > lo:
            # clamp: the affine map can overshoot bound by one ulp
            scaled = [min((x - lo) * bound / (hi - lo), bound) for x in ranked]
        else:
            scaled = [0.0] * kk
    else:
        scaled = ranked
    new_items = tuple(
        (prefix[i][0], float(x)) for i, x in zip(order, scaled)
    ) + tuple(tail)
    return RankedList(probe_id=initial.probe_id, items=new_items)


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
    lookup = _strips_lookup(features)
    lists, latencies = [], []
    for probe, initial in zip(probes, initial_lists):
        t0 = time.perf_counter()
        try:
            lists.append(one(probe, initial, lookup, weights, k=k))
        except Exception as exc:
            exc.add_note(f"probe {probe.sequence_id!r}")
            raise
        latencies.append((time.perf_counter() - t0) * 1e3)
    return lists, latencies
