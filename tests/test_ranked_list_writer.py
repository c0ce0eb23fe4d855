"""Property test of the ranked-list writer: the lines it builds by hand
are the bytes ``json.dumps(record, separators=(",", ":"))`` writes."""

import json
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from gaitrerank.ranking import RankedList, write_ranked_lists

EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-4, 0.1, 123456789.0, sys.float_info.max]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
NUMBERS = st.one_of(FLOATS, FLOATS.map(np.float64))
# quotes, backslashes, control characters and non-ASCII, no lone surrogates
IDS = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", " ", "é", "\U0001f600", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
LISTS = st.lists(
    st.builds(RankedList, IDS, st.lists(st.tuples(IDS, NUMBERS), max_size=6).map(tuple)),
    max_size=4,
)


def json_dumps_lines(lists, latencies_ms) -> bytes:
    """The writer's former body: one ``json.dumps`` per record."""
    out = []
    for i, rl in enumerate(lists):
        rec: dict = {"probe_id": rl.probe_id, "items": [[cid, d] for cid, d in rl.items]}
        if latencies_ms is not None:
            rec["latency_ms"] = latencies_ms[i]
        out.append(json.dumps(rec, separators=(",", ":"), allow_nan=False) + "\n")
    return "".join(out).encode("utf-8")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lists=LISTS, latencies=st.lists(NUMBERS, min_size=4, max_size=4),
       timed=st.booleans())
def test_writer_bytes_equal_json_dumps(tmp_path, lists, latencies, timed):
    latencies_ms = latencies[: len(lists)] if timed else None
    path = tmp_path / "lists.jsonl"
    write_ranked_lists(lists, path, latencies_ms=latencies_ms)
    assert path.read_bytes() == json_dumps_lines(lists, latencies_ms)
