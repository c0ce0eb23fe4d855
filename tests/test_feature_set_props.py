"""Property test of a set's id index: the constructor reports the first
repeated id or non-finite entry exactly as a seen-set scan does, and a
valid set's ``row_of`` and ``id_rank`` match their definitions."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gaitrerank.errors import DuplicateIdError, NonFiniteError
from gaitrerank.feature_store import FeatureSet

# ids that differ only by a trailing NUL, by a combining mark or by case
# folding, beside short random ids, so that drawn lists often repeat one
NEAR = ["a", "a\x00", "a\x00\x00", "é", "é", "ß", "ss", "İ", "i̇", "プ"]
IDS = st.one_of(st.sampled_from(NEAR), st.text(alphabet="ab\x00é", max_size=3))


def seen_set_scan(strips: np.ndarray, sids: list[str]) -> Exception | None:
    """The validation before the one index: a finiteness scan, then a scan
    that stops at the first id already seen; the first defective entry
    decides the error."""
    n = len(sids)
    finite = np.isfinite(strips).all(axis=(1, 2))
    first_bad = n if finite.all() else int(np.argmin(finite))
    first_dup, seen = n, set()
    for i, sid in enumerate(sids):
        if sid in seen:
            first_dup = i
            break
        seen.add(sid)
    if first_dup < n and first_dup <= first_bad:
        return DuplicateIdError(f"duplicate sequence_id {sids[first_dup]!r}")
    if first_bad < n:
        return NonFiniteError(f"NaN or Inf in entry {first_bad} ({sids[first_bad]!r})")
    return None


@settings(max_examples=300, deadline=None)
@given(
    sids=st.lists(IDS, max_size=12),
    bad=st.lists(st.tuples(st.integers(0, 11), st.sampled_from([np.nan, np.inf, -np.inf])),
                 max_size=3),
)
def test_the_index_reports_what_a_seen_set_scan_reports(sids, bad):
    strips = np.zeros((len(sids), 2, 3), dtype=np.float32)
    for row, value in bad:
        if row < len(sids):
            strips[row, row % 2, row % 3] = value
    want = seen_set_scan(strips, sids)
    if want is not None:
        with pytest.raises(type(want)) as info:
            FeatureSet(strips, sids, ["x"] * len(sids))
        assert type(info.value) is type(want) and str(info.value) == str(want)
        return
    fs = FeatureSet(strips, sids, ["x"] * len(sids))
    assert fs.sequence_ids == tuple(sids)
    assert fs.row_of == {sid: i for i, sid in enumerate(sids)}
    assert fs.id_rank.tolist() == [sorted(sids).index(sid) for sid in sids]
