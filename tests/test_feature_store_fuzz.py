"""Property test of the GFM1 loader: a valid file and its manifest, with
bytes flipped, cut off or inserted, either load as a valid set or fail
with one of the loader's artifact errors."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from gaitrerank.errors import DuplicateIdError, FormatError, NonFiniteError, ShapeError
from gaitrerank.feature_store import (
    FeatureSet,
    load_feature_set,
    manifest_path,
    save_feature_set,
    validate,
)

from conftest import make_maps

LOADER_ERRORS = (FormatError, DuplicateIdError, NonFiniteError, ShapeError)

# position arguments are taken modulo the file length
EDIT = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
)


def _apply(blob: bytes, edit) -> bytes:
    kind, at, *arg = edit
    at %= len(blob) + 1
    if kind == "flip" and at < len(blob):
        return blob[:at] + bytes([blob[at] ^ arg[0]]) + blob[at + 1 :]
    if kind == "truncate":
        return blob[:at]
    if kind == "insert":
        return blob[:at] + arg[0] + blob[at:]
    return blob


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "feat.gfm"
    save_feature_set(FeatureSet.from_entries(make_maps(3, 2, 2, 3, seed=4)), path)
    return path.read_bytes(), manifest_path(path).read_bytes()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    target=st.sampled_from(["features", "manifest", "both"]),
    edits=st.lists(EDIT, min_size=1, max_size=3),
)
def test_mutated_file_loads_valid_or_raises_a_loader_error(tmp_path, valid_files, target, edits):
    blob, manifest = valid_files
    for edit in edits:
        if target != "manifest":
            blob = _apply(blob, edit)
        if target != "features":
            manifest = _apply(manifest, edit)
    path = tmp_path / "feat.gfm"
    path.write_bytes(blob)
    manifest_path(path).write_bytes(manifest)
    try:
        fs = load_feature_set(path)
    except LOADER_ERRORS:
        return
    assert validate(fs) == []
    assert fs.strips.dtype == np.float32 and not fs.strips.flags.writeable
    assert fs.strips.shape == (len(fs.sequence_ids), fs.s, fs.d)
