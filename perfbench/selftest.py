"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

- a tiny-size run of every workload, untraced and traced, reports every
  metric BENCHMARK.json names, with its unit, and no failed operation;
- BENCHMARK.json names the metrics and workload reasons the code has;
- the output checks reject deliberately corrupted outputs: a swapped
  tail item in ``rerank`` and a perturbed distance in ``rank``;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.

The file is not named ``test_*.py``, so the program's own test suite
does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tiny_runs_report_every_metric():
    spec = _spec()
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in _program().WORKLOADS:
        for trace in ("0", "1"):
            start = time.monotonic()
            proc = _bench(ROOT, "--workload", name, "--seed", "7",
                          "--seconds", "1", "--trace", trace, "--size", "tiny")
            label = f"{name} --trace {trace}"
            assert proc.returncode == 0, f"{label}: {proc.stderr}"
            assert time.monotonic() - start < 60, f"{label} is not quick"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, label
            assert result["correct"] and result["failed"] == 0, f"{label}: {proc.stderr}"
            assert result["attempted"] >= 1, label
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], label
            values = {k: v["value"] for k, v in result["metrics"].items()}
            assert all(math.isfinite(v) for v in values.values()), label
            if trace == "0":
                assert all(v > 0 for v in values.values()), f"{label}: {values}"
            else:
                assert abs(values["perfbench.accounted_share"] - 1.0) < 1e-9, label


def _program():
    sys.path.insert(0, str(HERE))
    import run

    run.import_program()
    import workloads

    return workloads


def _rewrite_first_list(path: str, edit) -> None:
    lines = Path(path).read_text().splitlines()
    rec = json.loads(lines[0])
    edit(rec["items"])
    lines[0] = json.dumps(rec, separators=(",", ":"))
    Path(path).write_text("\n".join(lines) + "\n")


def _round(workload_cls, work: Path):
    wl = workload_cls("tiny", 1.0)
    st = wl.setup(work, 3)
    timings, out = wl.round(st)
    _, failures = wl.check(st, timings, out)
    assert not failures, failures
    return wl, st, timings, out


def test_workload_records_match_the_code():
    workloads = _program()
    import layers

    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["better"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why, w["name"]


def test_checks_reject_corrupted_outputs():
    workloads = _program()
    work = SCRATCH / "selftest-checks"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl, st, timings, out = _round(workloads.Rerank, work)
        k = wl.p.k

        def swap_tail(items):
            items[k], items[k + 1] = items[k + 1], items[k]

        _rewrite_first_list(st.out, swap_tail)
        _, failures = wl.check(st, timings, out)
        assert failures.get(("a", 0)) == "tail changed", failures

        wl, st, timings, out = _round(workloads.Rank, work)

        def perturb(items):
            # past the top-k, so only the distance check can see it
            items[wl.p.k + 2][1] += 1e-9

        _rewrite_first_list(st.full[0], perturb)
        _, failures = wl.check(st, timings, out)
        assert "vs reference" in failures.get(("a", 0), ""), failures
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_fails_without_the_program():
    bare = SCRATCH / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            start = time.monotonic()
            try:
                fn()
            except Exception as exc:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            else:
                print(f"ok   {name} ({time.monotonic() - start:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
