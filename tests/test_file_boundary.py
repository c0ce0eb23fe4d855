"""The file boundary: every artefact is written through
``feature_store._write_atomic``, atomically where the target allows it."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

import gaitrerank
from gaitrerank import feature_store, metrics, training
from gaitrerank.metrics import MetricsReport
from gaitrerank.ranking import RankedList, write_ranked_lists

from conftest import DiskFullAfter

SRC = Path(gaitrerank.__file__).parent


def _writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` may open a file for writing: ``.write_text``,
    ``.write_bytes``, or an ``open`` whose mode is not a literal read-only
    one (``open(path, mode)`` or ``Path.open(mode)``)."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    at = 1 if isinstance(func, ast.Name) else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None and len(call.args) > at:
        mode = call.args[at]
    if mode is None:
        return False
    literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
    return not literal or bool(set(mode.value) & set("wax+"))


def test_only_the_atomic_writer_opens_files_for_writing():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "feature_store.py":
            writer = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_write_atomic"
            )
            allowed = {id(node) for node in ast.walk(writer)}
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed and _writes_a_file(node)
        ]
    assert offenders == []


LISTS = [RankedList("p", (("a", 0.25), ("b", 0.5)))]
REPORT = MetricsReport({1: 0.5}, 0.5, {0.01: 0.25}, 2, 0.5)
WRITERS = {
    "ranked-lists": lambda path, run: write_ranked_lists(
        [RankedList("p", (("a", float(run)),))], path
    ),
    "training-set": lambda path, run: training.write_training_set(
        training.TrainingSet((training.TrainingEntry("p", ("a", "b"), (0.0, run), (True, False)),), 2),
        path,
    ),
    "training-log": lambda path, run: training.write_training_log(
        [training.LogRow(run, 0.5, None, 1.0)], path
    ),
    "report": lambda path, run: metrics.write_report(
        MetricsReport({1: 0.5}, 0.5, {0.01: 0.25}, run, 0.5), path
    ),
    "cosine-csv": lambda path, run: metrics.write_cosine_csv(np.full((2, 2), run / 8), path),
}


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("previous", [True, False], ids=["over-previous", "fresh"])
def test_interrupted_write_leaves_the_previous_file_or_none(tmp_path, monkeypatch, writer, previous):
    path = tmp_path / "artefact"
    if previous:
        WRITERS[writer](path, 1)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

    monkeypatch.setattr(feature_store, "open", DiskFullAfter(0), raising=False)
    with pytest.raises(OSError, match="No space left") as exc:
        WRITERS[writer](path, 2)
    monkeypatch.undo()

    # no temp file is left behind, the target is as it was, and the error
    # names the target
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
    assert exc.value.filename == str(path)


def test_fifo_target_is_written_in_place(tmp_path):
    regular, fifo = tmp_path / "lists.jsonl", tmp_path / "lists.fifo"
    write_ranked_lists(LISTS, regular)
    os.mkfifo(fifo)
    # a non-blocking read end lets the writer open the FIFO without a
    # thread; the lists fit in the pipe buffer
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_ranked_lists(LISTS, fifo)
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    assert b"".join(chunks) == regular.read_bytes()
    assert fifo.is_fifo()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["lists.fifo", "lists.jsonl"]


def test_symlink_target_is_replaced_behind_the_link(tmp_path):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    metrics.write_report(REPORT, real)
    link.symlink_to(real.name)
    metrics.write_report(MetricsReport({1: 1.0}, 1.0, {0.01: 1.0}, 3, 1.0), link)
    assert link.is_symlink()
    assert metrics.read_report(real).probe_count == 3
    assert sorted(f.name for f in tmp_path.iterdir()) == ["link.json", "real.json"]

