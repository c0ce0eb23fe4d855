"""Property test of the one lookup rule: ``feature_store._lookup`` returns
the values of its keys in key order, or raises a MissingIdError naming
the first absent key."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from gaitrerank.errors import MissingIdError
from gaitrerank.feature_store import _lookup

# a small alphabet, so that drawn keys are often present and often not
IDS = st.text(alphabet="ab'\"é", max_size=3)


@given(st.dictionaries(IDS, st.integers()), st.lists(IDS, max_size=12), st.text(max_size=12))
def test_lookup_returns_values_in_key_order_or_names_the_first_absent_key(mapping, keys, what):
    absent = [k for k in keys if k not in mapping]
    if not absent:
        assert _lookup(mapping, keys, what) == [mapping[k] for k in keys]
        return
    with pytest.raises(MissingIdError) as info:
        _lookup(mapping, keys, what)
    assert str(info.value) == f"no {what} {absent[0]!r}"
