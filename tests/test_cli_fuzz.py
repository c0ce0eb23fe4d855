"""Property test of the CLI boundary: ``rank`` on a mutated feature file
or manifest, and ``eval`` on a mutated ranked list, either succeed or
exit with a documented artifact code (2-9) and one JSON error line,
never with a traceback."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from gaitrerank.cli import main
from gaitrerank.feature_store import FeatureSet, save_feature_set
from gaitrerank.ranking import rank_all, write_ranked_lists

from conftest import make_maps
from test_reader_fuzz import JSON_EDIT
from test_feature_store_fuzz import _apply

FILES = {"features": "feats.gfm", "manifest": "feats.gfm.manifest.json", "lists": "lists.jsonl"}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    fs = FeatureSet.from_entries(make_maps(3, 2, 2, 3, seed=4))
    save_feature_set(fs, root / FILES["features"])
    write_ranked_lists(rank_all(fs, fs, k=3), root / FILES["lists"])
    return {name: (root / name).read_bytes() for name in FILES.values()}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(sorted(FILES)), edits=st.lists(JSON_EDIT, min_size=1, max_size=3))
def test_mutated_input_exits_with_a_documented_code(tmp_path, valid_files, target, edits):
    for name, blob in valid_files.items():
        if name == FILES[target]:
            for edit in edits:
                blob = _apply(blob, edit)
        (tmp_path / name).write_bytes(blob)
    feats = str(tmp_path / FILES["features"])
    if target == "lists":
        argv = ["eval", "--lists", str(tmp_path / FILES["lists"]),
                "--manifest", str(tmp_path / FILES["manifest"]), "--out", str(tmp_path / "r.json")]
    else:
        argv = ["rank", "--probes", feats, "--gallery", feats, "--k", "2",
                "--out", str(tmp_path / "out.jsonl")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0 or 2 <= code <= 9, (code, err.getvalue())
    if code:
        assert "error" in json.loads(err.getvalue())
