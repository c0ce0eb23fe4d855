"""Property test of the ranked-list metrics against per-candidate loops:
each metric equals a reference that walks every list candidate by
candidate, errors included, and an unlabelled id inside the range a
metric reads is a MissingIdError naming it."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gaitrerank.errors import DataError, MissingIdError
from gaitrerank.metrics import (
    MetricsReport,
    average_precision,
    evaluate_lists,
    mean_average_precision,
    oracle_rank1_ceiling,
    rank_k_accuracy,
    tpr_at_fpr,
)
from gaitrerank.ranking import RankedList

# The reference: one label lookup and one comparison per candidate, in
# list order, as the metrics were first written.


def ref_identity_of(identities, seq_id):
    try:
        return identities[seq_id]
    except KeyError:
        raise MissingIdError(f"no identity label for sequence {seq_id!r}") from None


def ref_rank_k_accuracy(lists, identities, ks):
    if not lists:
        raise DataError("no ranked lists")
    if any(k < 1 for k in ks):
        raise DataError(f"all K must be >= 1, got {list(ks)}")
    hits = {k: 0 for k in ks}
    for rl in lists:
        probe_ident = ref_identity_of(identities, rl.probe_id)
        match_pos = next((pos for pos, cid in enumerate(rl.ids(), start=1)
                          if ref_identity_of(identities, cid) == probe_ident), None)
        for k in ks:
            if match_pos is not None and match_pos <= k:
                hits[k] += 1
    return {k: hits[k] / len(lists) for k in ks}


def ref_average_precision(rl, identities):
    probe_ident = ref_identity_of(identities, rl.probe_id)
    precisions = []
    seen = 0
    for pos, cid in enumerate(rl.ids(), start=1):
        if ref_identity_of(identities, cid) == probe_ident:
            seen += 1
            precisions.append(seen / pos)
    if not precisions:
        return None
    return float(np.mean(precisions))


def ref_mean_average_precision(lists, identities):
    aps = [ap for rl in lists if (ap := ref_average_precision(rl, identities)) is not None]
    if not aps:
        raise DataError("no probe has any positive in its ranked list")
    return float(np.mean(aps))


def ref_tpr_at_fpr(lists, identities, fprs, k=1000):
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if not all(0.0 <= t <= 1.0 for t in fprs):
        raise DataError(f"all FPR targets must lie in [0, 1], got {list(fprs)}")
    dists, labels = [], []
    for rl in lists:
        probe_ident = ref_identity_of(identities, rl.probe_id)
        dists += rl.dists[:k].tolist()
        labels += [ref_identity_of(identities, cid) == probe_ident for cid in rl.ids(k)]
    pos = sum(labels)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise DataError(f"degenerate pair pool: {pos} positives, {neg} negatives")
    order = np.argsort(np.asarray(dists, dtype=np.float64), kind="stable")
    y = np.asarray(labels, dtype=bool)[order]
    s = np.asarray(dists, dtype=np.float64)[order]
    tp = np.cumsum(y)
    fp = np.cumsum(~y)
    last = np.flatnonzero(np.diff(s) != 0)
    cut = np.concatenate([last, [len(s) - 1]])
    tpr = tp[cut] / pos
    fpr = fp[cut] / neg
    out = {}
    for target in fprs:
        feasible = fpr <= target
        out[float(target)] = float(tpr[feasible].max()) if feasible.any() else 0.0
    return out


def ref_evaluate_lists(lists, identities, ks, fprs, tpr_depth, ceiling_k):
    return MetricsReport(
        rank_k=ref_rank_k_accuracy(lists, identities, list(ks)),
        map_score=ref_mean_average_precision(lists, identities),
        tpr_at_fpr=ref_tpr_at_fpr(lists, identities, list(fprs), k=tpr_depth),
        probe_count=len(lists),
        oracle_rank1_ceiling=ref_rank_k_accuracy(lists, identities, [ceiling_k])[ceiling_k],
    )


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises;
    a report as its JSON bytes."""
    try:
        out = fn(*args)
    except (DataError, MissingIdError) as exc:
        return type(exc), str(exc)
    return out.to_json() if isinstance(out, MetricsReport) else out


def read_range(lists, depth):
    """The ids a metric reading each list's top ``depth`` looks up."""
    return {rl.probe_id for rl in lists} | {c for rl in lists for c in rl.ids(depth)}


@settings(max_examples=150, deadline=None)
@given(
    n_lists=st.integers(1, 5), longest=st.integers(0, 12), n_labels=st.integers(1, 4),
    n_values=st.integers(1, 6), ks=st.lists(st.integers(1, 15), min_size=1, max_size=3, unique=True),
    tpr_depth=st.integers(1, 15), ceiling_k=st.integers(1, 15),
    fprs=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]) | st.floats(0, 1),
                  min_size=1, max_size=3),
    drop=st.integers(-1, 13), seed=st.integers(0, 2**32 - 1),
)
def test_metrics_equal_the_per_candidate_reference(n_lists, longest, n_labels, n_values, ks,
                                                   tpr_depth, ceiling_k, fprs, drop, seed):
    rng = np.random.default_rng(seed)
    pool = [f"s{i:02d}" for i in range(14)]
    labelled = {sid: f"L{rng.integers(n_labels)}" for sid in pool}
    values = rng.uniform(0, 3, n_values)  # few distinct values: tied distances
    lists = []
    for _ in range(n_lists):
        probe, *rows = rng.permutation(len(pool))[: 1 + rng.integers(longest + 1)].tolist()
        dists = np.sort(rng.choice(values, len(rows)))
        # both layouts: an id tuple, or stage one's gallery ids and rows
        lists.append(RankedList(pool[probe], dists=dists, ids=tuple(pool[r] for r in rows))
                     if rng.integers(2) else
                     RankedList(pool[probe], dists=dists, ids=tuple(pool), rows=np.array(rows)))
    metrics = [  # (metric, reference, its arguments, the lists and depth it reads)
        (rank_k_accuracy, ref_rank_k_accuracy, (ks,), lists, max(ks)),
        (mean_average_precision, ref_mean_average_precision, (), lists, None),
        (tpr_at_fpr, ref_tpr_at_fpr, (fprs, tpr_depth), lists, tpr_depth),
        (oracle_rank1_ceiling, lambda ls, ids, k: ref_rank_k_accuracy(ls, ids, [k])[k],
         (ceiling_k,), lists, ceiling_k),
        (evaluate_lists, ref_evaluate_lists, (ks, fprs, tpr_depth, ceiling_k), lists, None),
        *((lambda ls, ids, rl=rl: average_precision(rl, ids),
           lambda ls, ids, rl=rl: ref_average_precision(rl, ids), (), [rl], None)
          for rl in lists),
    ]
    if drop < 0:  # every id labelled: equal, errors included
        for metric, reference, args, _, _ in metrics:
            assert outcome(metric, lists, labelled, *args) == outcome(
                reference, lists, labelled, *args)
        return
    gone = pool[drop]
    unlabelled = {sid: label for sid, label in labelled.items() if sid != gone}
    for metric, reference, args, read, depth in metrics:
        want = (outcome(reference, lists, labelled, *args) if gone not in read_range(read, depth)
                else (MissingIdError, f"no identity label for sequence {gone!r}"))
        assert outcome(metric, lists, unlabelled, *args) == want
