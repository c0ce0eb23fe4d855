"""Stage one's lists are the same bytes whatever the BLAS threads, block
sizes, probe groups or the cascade's branch: the bounds only choose which
rows are scored exactly, and every exact distance is summed in one order.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaitrerank
from gaitrerank import ranking, synth
from gaitrerank.cli import main
from gaitrerank.feature_store import FeatureMap, FeatureSet, save_feature_set

RUNS = {"full": [], "k100": ["--k", "100"], "k5": ["--k", "5"]}

# the cascade forced onto each branch, and the other knobs moved off
# their defaults
VARIANTS = {
    "small-blocks": dict(BLOCK_BYTES=1 << 14),
    "groups-of-1": dict(GROUP_PROBES=1),
    "groups-of-3": dict(GROUP_PROBES=3, BLOCK_BYTES=1 << 15),
    "streamed": dict(CASCADE_ROWS=0, DENSE_SHARE=-1.0),
    "gathered": dict(CASCADE_ROWS=0, DENSE_SHARE=math.inf),
    "gathered-every-row-sampled": dict(CASCADE_ROWS=0, DENSE_SHARE=math.inf, SAMPLE_STEP=1),
    "gathered-odd-sample": dict(CASCADE_ROWS=0, DENSE_SHARE=math.inf, SAMPLE_STEP=7,
                                GROUP_PROBES=5, BLOCK_BYTES=1 << 15),
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
    branches = []
    lowest = ranking._lowest_bounds

    def recording(*args):
        lo, picks, dense = lowest(*args)
        branches.extend(dense.tolist())
        return lo, picks, dense

    monkeypatch.setattr(ranking, "_lowest_bounds", recording)
    assert _rank_lists(files, tmp_path) == reference
    # a forced branch is the one every probe took
    if variant == "streamed":
        assert all(branches)
    elif variant.startswith("gathered"):
        assert branches and not any(branches)
