"""Output checks. Each returns None when the output is correct, or a
short reason when it is not; the caller counts one failed operation per
rejected output.

Ranked lists are compared as ``[(id, distance), ...]``. Lists written by
the CLI are parsed here with ``json`` rather than with the program's own
reader, so a reader defect cannot hide a writer defect.
"""

from __future__ import annotations

import json
import math


def parse_ranked_lists(path) -> list[tuple[str, list[tuple[str, float]]]]:
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.append((rec["probe_id"], [(cid, float(d)) for cid, d in rec["items"]]))
    return out


def _ordered(items) -> bool:
    """Ascending by (distance, id), every distance finite."""
    prev = None
    for cid, d in items:
        if not math.isfinite(d):
            return False
        if prev is not None and (d, cid) < prev:
            return False
        prev = (d, cid)
    return True


def reranked_list(initial, out, k: int) -> str | None:
    """Only the first k items may be permuted; the tail is untouched."""
    if len(out) != len(initial):
        return f"length {len(out)} != {len(initial)}"
    if {c for c, _ in out[:k]} != {c for c, _ in initial[:k]}:
        return "top-k id set changed"
    if list(out[k:]) != list(initial[k:]):
        return "tail changed"
    if any(b < a for (_, a), (_, b) in zip(out, out[1:])):
        return "distances not ascending"
    return None


def rerank_order(prefix_ids, reference: dict[str, float]) -> str | None:
    """The prefix is sorted by the reference pair distance, id as the
    tie-break. Pairs closer than float32 rounding may come in either
    order, since batched and single-pair float32 GEMMs may round apart."""
    tol = 1e-5 * max(abs(v) for v in reference.values())
    for a, b in zip(prefix_ids, prefix_ids[1:]):
        ra, rb = reference[a], reference[b]
        if ra > rb + tol or (ra == rb and a > b):
            return f"{a} before {b} but {ra!r} > {rb!r}"
    return None


def full_ranking(probe_id: str, items, gallery_ids: set[str]) -> str | None:
    """A full list ranks every gallery sequence but the probe, once."""
    ids = [c for c, _ in items]
    if len(ids) != len(gallery_ids) - (probe_id in gallery_ids):
        return f"{len(ids)} items for a gallery of {len(gallery_ids)}"
    if set(ids) != gallery_ids - {probe_id}:
        return "ids are not the gallery minus the probe"
    if not _ordered(items):
        return "not ordered by (distance, id)"
    return None


def top_k(top, full, k: int) -> str | None:
    if list(top) != list(full[:k]):
        return "top-k list is not the prefix of the full list"
    return None


def distances_match(items, reference: dict[str, float], tol: float = 1e-10) -> str | None:
    for cid, d in items:
        if abs(d - reference[cid]) > tol:
            return f"{cid}: {d!r} vs reference {reference[cid]!r}"
    return None
