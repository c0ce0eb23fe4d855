"""A failing Hypothesis property is reported as a failure, and the session
goes on: run in a session of its own, with this suite's conftest and
warning filters."""

import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_after_it():
    assert True
'''


def test_a_failing_property_fails_and_the_next_test_runs(tmp_path):
    options = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]["ini_options"]
    ini = {"filterwarnings": options["filterwarnings"], "pythonpath": [str(ROOT / "src")]}
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\n" + "".join(f"{key} =\n" + "".join(f"    {v}\n" for v in values)
                               for key, values in ini.items()))
    (tmp_path / "conftest.py").write_text((TESTS / "conftest.py").read_text())
    (tmp_path / "test_property.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rA"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout[-2000:]
    assert run.returncode == 1, run.stdout[-2000:]
    assert "FAILED test_property.py::test_a_failing_property" in run.stdout
    assert "PASSED test_property.py::test_after_it" in run.stdout
