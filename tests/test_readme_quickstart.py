"""README's Quick start runs as written: each ``$ gaitrerank ...`` command
of its session, in order, in a fresh directory, through ``cli.main``. Each
must exit 0 and print a JSON object with the keys README shows after it.
README rounds the numbers, so values are not compared. A flag that README
names and the CLI no longer takes fails here."""

import json
import shlex
from pathlib import Path

from gaitrerank.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> list[tuple[list[str], object]]:
    """(argv, the JSON README prints after it, or None) for each command of
    the Quick start's session; commands are separated by blank lines."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    session = section.split("\n```\n", 2)[1]
    steps = []
    for chunk in session.strip().split("\n\n"):
        command, _, shown = chunk.replace("\\\n", " ").partition("\n")
        assert command.startswith("$ gaitrerank "), command
        steps.append((shlex.split(command)[2:], json.loads(shown) if shown.strip() else None))
    return steps


def keys(value):
    """The nested keys of a parsed JSON value; None for anything but an object."""
    return {k: keys(v) for k, v in value.items()} if isinstance(value, dict) else None


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    steps = quick_start()
    assert [argv[0] for argv, _ in steps] == [
        "synth", "rank", "build-trainset", "train", "rerank", "eval"]
    monkeypatch.chdir(tmp_path)
    for argv, shown in steps:
        assert main(argv) == 0, argv
        printed = json.loads(capsys.readouterr().out)
        if shown is not None:
            assert keys(printed) == keys(shown), argv
