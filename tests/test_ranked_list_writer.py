"""The ranked-list writer builds each line from a list's columns; these
tests hold it to the bytes ``json.dumps(record, separators=(",", ":"))``
writes, for hand-built lists (a property) and stage one's lists."""

import json
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from gaitrerank.feature_store import FeatureMap, FeatureSet
from gaitrerank.ranking import RankedList, rank_all, write_ranked_lists

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


def json_dumps_record(rl) -> bytes:
    """The writer's former body: one ``json.dumps`` per record."""
    rec = {"probe_id": rl.probe_id, "items": [[cid, d] for cid, d in rl.items]}
    return (json.dumps(rec, separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lists=LISTS)
def test_writer_bytes_equal_json_dumps(tmp_path, lists):
    path = tmp_path / "lists.jsonl"
    write_ranked_lists(lists, path)
    assert path.read_bytes() == b"".join(map(json_dumps_record, lists))


ODD_IDS = ['q"uote', "back\\slash", "tab\tnl\n", "nul\x00", "\x1f\x7f", "é", "日本", "\U0001f600"]


def test_stage_one_and_hand_built_lists_write_json_dumps_bytes(tmp_path):
    values = np.random.default_rng(3).standard_normal((len(ODD_IDS), 2, 3))
    values[-1] = values[0]  # a tie, broken by id
    gallery = FeatureSet.from_entries(
        [FeatureMap(sid, "x", v) for sid, v in zip(ODD_IDS, values)])
    lists = rank_all(gallery, gallery) + rank_all(gallery, gallery, k=3)
    lists += [
        RankedList("empty", ()),
        RankedList("é\"\\", [(ODD_IDS[0], 0.0), (ODD_IDS[1], 5e-324), ("big", 1e308)]),
        RankedList("integral", [("a", 1.0), ("b", 2.0), ("c", 1e16), ("d", 123456789.0)]),
    ]
    path = tmp_path / "lists.jsonl"
    write_ranked_lists(lists, path)
    assert path.read_bytes() == b"".join(map(json_dumps_record, lists))


def test_an_int_distance_is_written_as_a_float(tmp_path):
    # a list holds its distances as float64, as the reader returns them
    path = tmp_path / "lists.jsonl"
    write_ranked_lists([RankedList("p", [("a", 1), ("b", 2)])], path)
    assert path.read_bytes() == b'{"probe_id":"p","items":[["a",1.0],["b",2.0]]}\n'
