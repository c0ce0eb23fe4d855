"""Stage one's lists are the same bytes whatever the BLAS threads, block
sizes, probe groups or the cascade's branch: the bounds only choose which
rows are scored exactly, and every exact distance is summed in one order.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaitrerank
from gaitrerank import ranking, synth
from gaitrerank.cli import main
from gaitrerank.feature_store import FeatureMap, FeatureSet, save_feature_set
from gaitrerank.ranking import rank_all, rank_gallery

RUNS = {"full": [], "k100": ["--k", "100"], "k5": ["--k", "5"]}

# the cascade forced onto each branch, and the other knobs moved off
# their defaults
VARIANTS = {
    "small-blocks": dict(BLOCK_BYTES=1 << 14),
    "groups-of-1": dict(GROUP_PROBES=1),
    "groups-of-3": dict(GROUP_PROBES=3, BLOCK_BYTES=1 << 15),
    "streamed": dict(CASCADE_ROWS=0, DENSE_SHARE=-1.0),
    "gathered": dict(CASCADE_ROWS=0, DENSE_SHARE=math.inf),
    "gathered-groups-of-5": dict(CASCADE_ROWS=0, DENSE_SHARE=math.inf, GROUP_PROBES=5,
                                 BLOCK_BYTES=1 << 15),
    "no-cascade": dict(CASCADE_ROWS=1 << 30),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 2,400-row synth gallery, over ``CASCADE_ROWS``, and 24 probes:
    16 of its own sequences and 8 maps from outside it."""
    root = tmp_path_factory.mktemp("stage_one")
    gallery = synth.generate(600, 4, 8, 16, hardness=0.7, noise=0.3, seed=5)
    assert len(gallery) >= ranking.CASCADE_ROWS
    outside = [FeatureMap(f"zz{i:02d}", "zz", gallery.strips[i * 293] + 0.05) for i in range(8)]
    probes = FeatureSet.from_entries(list(gallery.entries[::150]) + outside, partition="probe")
    paths = {"gallery": root / "gallery.gfm", "probes": root / "probes.gfm"}
    save_feature_set(gallery, paths["gallery"])
    save_feature_set(probes, paths["probes"])
    return paths


def _argv(files, run: str, out: Path) -> list[str]:
    return ["rank", "--probes", str(files["probes"]), "--gallery", str(files["gallery"]),
            *RUNS[run], "--out", str(out)]


def _rank_lists(files, root: Path) -> dict[str, bytes]:
    lists = {}
    for run in RUNS:
        out = root / f"{run}.jsonl"
        assert main(_argv(files, run, out)) == 0, run
        lists[run] = out.read_bytes()
    return lists


@pytest.fixture(scope="module")
def reference(files, tmp_path_factory):
    return _rank_lists(files, tmp_path_factory.mktemp("reference"))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_rank_lists_are_identical_at_one_and_two_blas_threads(files, reference, tmp_path,
                                                                  threads):
    src = str(Path(gaitrerank.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for run in RUNS:
        out = tmp_path / f"{run}.jsonl"
        subprocess.run([sys.executable, "-m", "gaitrerank.cli", *_argv(files, run, out)],
                       env=env, check=True, capture_output=True)
        assert out.read_bytes() == reference[run], run


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_rank_lists_are_identical_whatever_the_blocks_groups_and_branch(
        files, reference, tmp_path, monkeypatch, variant):
    for name, value in VARIANTS[variant].items():
        monkeypatch.setattr(ranking, name, value)
    calls = _record_branches(monkeypatch)
    assert _rank_lists(files, tmp_path) == reference
    # a forced branch is the one every probe took
    branches = sum(calls, [])
    if variant == "streamed":
        assert all(branches)
    elif variant.startswith("gathered"):
        assert branches and not any(branches)


def _record_branches(monkeypatch) -> list[list[bool]]:
    """Each ``_lowest_bounds`` call's per-probe branches (True: streamed),
    recorded as the calls are made."""
    calls = []
    lowest = ranking._lowest_bounds

    def recording(*args):
        lo, picks, dense = lowest(*args)
        calls.append(dense.tolist())
        return lo, picks, dense

    monkeypatch.setattr(ranking, "_lowest_bounds", recording)
    return calls


def _columns(rl) -> tuple[list[str], bytes]:
    return rl.ids(), rl.dists.tobytes()


@pytest.mark.parametrize("k", [1, 20, 100])
def test_one_group_streams_independent_maps_and_gathers_clustered_ones(monkeypatch, k):
    # at the default DENSE_SHARE: the gallery's own sequences sit in their
    # identities' clusters, whose strip sums rule out most rows, while
    # independent maps far from every row are kept by every row's sum bound
    gallery = synth.generate(600, 4, 8, 16, hardness=0.7, noise=0.3, seed=5)
    assert len(gallery) >= ranking.CASCADE_ROWS
    rng = np.random.default_rng(1)
    outside = [FeatureMap(f"zz{i}", "zz", 4 * rng.standard_normal((8, 16)).astype(np.float32))
               for i in range(3)]
    probes = list(gallery.entries[::400]) + outside
    branches = [False] * 6 + [True] * 3
    full = [(rl.ids()[:k], rl.dists[:k].tobytes()) for rl in rank_all(probes, gallery)]
    calls = _record_branches(monkeypatch)
    assert [_columns(rl) for rl in rank_all(probes, gallery, k=k)] == full
    assert calls == [branches]  # both branches in one group's call
    calls.clear()
    assert [_columns(rank_gallery(probe, gallery, k=k)) for probe in probes] == full
    assert calls == [[b] for b in branches]


@pytest.mark.parametrize("ties", [False, True])
def test_lowest_takes_each_rows_k_lowest_columns(ties):
    rng = np.random.default_rng(3)
    values = rng.random((5, 300))
    if ties:  # many columns tie at each k-th value
        values = np.round(values * 10) / 10
    values[np.arange(5), rng.integers(0, 300, 5)] = np.nan  # an own row, sorted last
    for k in (1, 7, 299):
        picks = ranking._lowest(values, k)
        assert picks.shape == (5, k)
        for row, cols in zip(values, picks):
            assert len(set(cols.tolist())) == k
            assert np.array_equal(np.sort(row[cols]), np.sort(row)[:k])
