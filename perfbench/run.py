"""Benchmark driver for gaitrerank.

    python3 perfbench/run.py --workload {train,rerank,rank,all} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout; the program is imported from ``src/``
of that checkout and nowhere else. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The lines above it name every metric as the workload
calls it, with its unit and sample count, and record the environment.

``--trace 1`` runs one set-up and one round traced, between two
untraced passes of the same work; the difference in wall time is
reported as the tracing overhead, and the spans are written to
``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import os

# One BLAS thread for every workload, set before numpy is imported: the
# median iteration spread is about 1% at one thread and about 12% at two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def import_program() -> None:
    """Import gaitrerank from this checkout's src/, or exit non-zero."""
    package = SRC / "gaitrerank"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import gaitrerank

    if Path(gaitrerank.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported gaitrerank from {gaitrerank.__file__}, not {package}")


def _blas_threads() -> int | None:
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def measure(wl, work: Path, seed: int) -> tuple[dict, int, dict]:
    """The untraced run: repeat rounds until --seconds of measured time
    (train: its one round of fixed work). Set-up is timed several times,
    half before the rounds and half after, so its median does not rest on
    one brief window of a shared host."""
    clock = time.perf_counter
    setups = []

    def timed_setup():
        t0 = clock()
        st = wl.setup(work, seed)
        setups.append(clock() - t0)
        return st

    after = wl.setup_repeats // 2
    for _ in range(wl.setup_repeats - after):
        st = timed_setup()
    rounds, attempted, failures, measured = [], 0, {}, 0.0
    while True:
        timings, out = wl.round(st)
        n, failed = wl.check(st, timings, out)
        attempted += n
        failures.update({(len(rounds), key): why for key, why in failed.items()})
        rounds.append(timings)
        measured += timings["measured_s"]
        if wl.single_round or measured >= wl.seconds:
            break
    del st, out
    for _ in range(after):
        timed_setup()
    summary = wl.summarize(rounds)
    summary["setup_s"] = (statistics.median(setups), len(setups))
    summary["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return summary, attempted, failures


def traced(wl, work: Path, seed: int, spans_path: Path) -> tuple[dict, int, dict]:
    """A traced pass of one set-up and one round, bracketed by two
    untraced passes of the same work; the overhead is the traced wall
    time minus the mean of the untraced ones."""
    import layers
    from spans import Tracer

    clock = time.perf_counter
    attempted, failures, untraced = 0, {}, []

    def untraced_pass() -> None:
        nonlocal attempted
        t0 = clock()
        st = wl.setup(work, seed)
        timings, out = wl.round(st)
        untraced.append(clock() - t0)
        n, failed = wl.check(st, timings, out)
        attempted += n
        failures.update({(len(untraced), key): why for key, why in failed.items()})

    untraced_pass()
    tracer = Tracer()
    layers.install(tracer)
    untraced_span, wl.span = wl.span, tracer.span
    try:
        root = tracer.begin("bench.run")
        t0 = clock()
        with tracer.span("bench.setup"):
            st = wl.setup(work, seed)
        timings, out = wl.round(st)
        traced_s = clock() - t0
        with tracer.span("bench.checks"):
            n, failed = wl.check(st, timings, out)
        tracer.end(root)
    finally:
        tracer.restore()
        wl.span = untraced_span
    attempted += n
    failures.update({("traced", key): why for key, why in failed.items()})
    del st, out
    untraced_pass()
    per_layer = layers.metrics(tracer, statistics.mean(untraced), traced_s)
    tracer.write(spans_path, {"workload": wl.name, "seed": seed, "per_layer": per_layer})
    return per_layer, attempted, failures


def run_all(args) -> int:
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        code |= subprocess.run(argv, check=False).returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    import_program()
    import layers
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")

    wl = workloads.WORKLOADS[args.workload](args.size, args.seconds)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = environment()
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("generator " + json.dumps(wl.generator(args.seed), sort_keys=True))
    try:
        if args.trace:
            values, attempted, failures = traced(wl, work, args.seed, OUT / f"spans-{tag}.json")
            rows = [(name, values[name], unit, 1, "") for name, _, unit in layers.PER_LAYER]
            metrics = {name: {"value": values[name], "unit": unit} for name, _, unit in layers.PER_LAYER}
        else:
            summary, attempted, failures = measure(wl, work, args.seed)
            rows, metrics = [], {}
            for key, unit in workloads.END_TO_END:
                value, n = summary[key]
                rows.append((wl.NAMED.get(key, key), value, unit, n, key))
                metrics[key] = {"value": value, "unit": unit}
            rows += [(name, value, unit, n, "") for name, value, unit, n in summary["extra"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for named, value, unit, n, key in rows:
        print(f"  {named:38s} {value:14.6g} {unit:9s} n={n:<6d} {key}")
    for key, why in list(failures.items())[:10]:
        print(f"failed {key}: {why}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"environment": env, "generator": wl.generator(args.seed),
                    "why": wl.why, "rows": rows, **result}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
