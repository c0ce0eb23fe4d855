"""Property tests of stage one: ``rank_all``, full and top-k, against a
per-probe reference that sorts ``strip_distance`` values in Python, and
the top-k cascade's lists, gathered and streamed, against their full
lists' prefixes."""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gaitrerank import ranking
from gaitrerank.feature_store import FeatureMap, FeatureSet
from gaitrerank.ranking import rank_all, strip_distance


def reference(probe, gallery) -> tuple[list[str], bytes]:
    """The full list: every other id by (distance, id), distances as bytes."""
    pairs = sorted((strip_distance(probe, e), e.sequence_id)
                   for e in gallery.entries if e.sequence_id != probe.sequence_id)
    return [cid for _, cid in pairs], np.array([d for d, _ in pairs]).tobytes()


def columns(rl) -> tuple[list[str], bytes]:
    return rl.ids(), rl.dists.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 40), s=st.integers(1, 4), d=st.integers(1, 5),
    distinct=st.integers(1, 40), exponent=st.sampled_from([-30, -12, 0, 9, 18]),
    quantised=st.booleans(), group=st.sampled_from([1, 3, 16]), seed=st.integers(0, 2**32 - 1),
)
def test_rank_all_equals_the_sorted_reference_bitwise(n, s, d, distinct, exponent, quantised,
                                                      group, seed):
    rng = np.random.default_rng(seed)
    maps = rng.standard_normal((min(distinct, n), s, d))
    if quantised:
        maps = np.round(maps * 2) / 2
    # repeated maps tie; ids are shuffled so str order is not entry order
    values = maps[rng.integers(0, len(maps), n)] * 10.0**exponent
    ids = [f"g{i:02d}" for i in rng.permutation(n)]
    gallery = FeatureSet(values, tuple(ids), tuple(ids))
    probes = [gallery.entries[0], gallery.entries[n // 2],
              FeatureMap("zz-outside", "zz", values[-1] * 0.5),
              FeatureMap(ids[-1], "moved", values[0])]  # a gallery id with another map
    want = [reference(p, gallery) for p in probes]
    with mock.patch.object(ranking, "GROUP_PROBES", group):
        full = rank_all(probes, gallery)
        assert [columns(rl) for rl in full] == want
        for k in (1, 2, n - 1, n + 3):
            top = rank_all(probes, gallery, k=k)
            assert [rl.probe_id for rl in top] == [p.sequence_id for p in probes]
            # each top-k list is its full list's prefix, bitwise
            assert [columns(rl) for rl in top] == [
                (rl.ids()[:k], rl.dists[:k].tobytes()) for rl in full]


@settings(max_examples=80, deadline=None)
@given(
    identities=st.integers(2, 10), per_id=st.integers(1, 4), s=st.integers(1, 5),
    d=st.integers(1, 6), exponent=st.sampled_from([-30, -12, 0, 9, 18]),
    offset=st.sampled_from([0.0, 0.3, 4.0]), noise=st.sampled_from([0.0, 0.05, 0.5]),
    group=st.sampled_from([1, 3, 16]), crossover=st.sampled_from([-1.0, 0.3, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cascade_top_k_is_the_full_list_prefix_bitwise(identities, per_id, s, d, exponent, offset,
                                                       noise, group, crossover, seed):
    # strip-structured galleries as synth draws them: each identity's base
    # rows plus a strip-constant offset per map, so the strip sums rule out
    # rows; with no noise and no offset an identity's maps repeat
    rng = np.random.default_rng(seed)
    n = identities * per_id
    owner = np.repeat(np.arange(identities), per_id)
    values = rng.standard_normal((identities, s, d))[owner]
    values += offset * rng.standard_normal((n, 1, d)) + noise * rng.standard_normal((n, s, d))
    values *= 10.0**exponent
    ids = [f"g{i:02d}" for i in rng.permutation(n)]
    gallery = FeatureSet(values, tuple(ids), tuple(f"id{i}" for i in owner))
    probes = [gallery.entries[0], gallery.entries[n // 2],
              FeatureMap("zz-outside", "zz", values[-1] + 0.25 * 10.0**exponent),
              FeatureMap(ids[-1], "moved", values[0]),
              FeatureMap("zz-inf", "zz", np.full((s, d), np.inf))]
    full = rank_all(probes, gallery)
    # the cascade runs on any gallery; a crossover of -1 streams every
    # probe, one of inf gathers every probe's rows
    with mock.patch.multiple(ranking, CASCADE_ROWS=0, GROUP_PROBES=group,
                             DENSE_SHARE=crossover):
        for k in (1, 2, n - 1, n + 3):
            top = rank_all(probes, gallery, k=k)
            assert [columns(rl) for rl in top] == [
                (rl.ids()[:k], rl.dists[:k].tobytes()) for rl in full]
