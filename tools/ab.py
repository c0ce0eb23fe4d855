"""A/B runs of the benchmark between two git revisions.

    python3 tools/ab.py BASE CHANGE --topic NAME [--workloads rank,train]
        [--pairs 10] [--size {full,tiny}] [--out FILE]
    python3 tools/ab.py --paired BASE CHANGE --topic NAME [--size {full,tiny}]
        [--out FILE]

Each revision is checked out with ``git worktree`` into a temporary
directory and removed when the runs end, so the checkout this script runs
from is never touched. For each workload, pair i runs
``perfbench/run.py`` once on each side with the same seed, i + 1, for
``BENCHMARK.json``'s ``run_seconds``; which side goes first alternates from
pair to pair. The two revisions must hold the same ``perfbench/`` and
``BENCHMARK.json``.

The record (``BENCH_<topic>.json`` by default) holds both commit ids and
the tree ids of their ``src/``, the ``src/`` line and code-line counts
(see ``_code_lines``), perfbench's environment records, every run's
end-to-end metrics and printed metric lines and, per metric of
``BENCHMARK.json``, each side's median and quartiles, the change's wins,
losses and ties over the pairs, whether a gain is shown and the metric's
bound verdict (see ``summarize``). Every printed metric
(``rank_topk_probes_per_s``, ``baseline_iters_per_s``, ...) gets each
side's median and quartiles too. It also holds one traced run per side
and workload (seed 1) and, at ``--size full``, the wall time and the ten
slowest test phases of one Tier-1 test run per side.

``--paired`` runs no perfbench: it imports both revisions' ``src/`` into
this one process, each under its own package name, and times the
training loop's iteration (``_draw``, ``IndexedBatch``,
``forward_backward``, ``adamw_step``) on the acceptance fixture with the
harness model, in alternating rounds of steps (see ``PAIRED``). The
record's ``paired`` key holds the median ratio change / base of the
rounds' times, each order's median and a 95% bootstrap interval (see
``paired_summary``). Both sides share the process's global state (the
allocator's settings, BLAS threads, warning filters), so a change to it
cannot be measured this way.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
# the benchmark must be the same code on both sides
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")

# the paired run's (fixture, rounds, steps a round): at "full" the
# acceptance fixture (tests/test_acceptance.py), about a minute of rounds
# on 2 vCPU; "tiny" checks the mechanics
PAIRED = {
    "full": (dict(identities=40, per_identity=6, s=8, d=16, hardness=0.7, noise=0.3, seed=1),
             200, 20),
    "tiny": (dict(identities=20, per_identity=3, s=4, d=6, hardness=0.7, noise=0.3, seed=1),
             10, 2),
}
# the acceptance harness's model and optimizer
HARNESS_MODEL = dict(heads=4, hidden=64, blocks=1, mlp_hidden=64)
HARNESS_TRAIN = dict(lr=3e-4, seed=0)
BOOTSTRAP = 2000


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def printed_metrics(lines: list[str]) -> dict:
    """Every metric line of perfbench's output, ``  name value unit n=count
    [key]``, as ``{name: {"value", "unit", "n"}}``, plus ``"key"`` when the
    line names the end-to-end metric it reports."""
    out = {}
    for line in lines:
        fields = line.split()
        if line.startswith("  ") and len(fields) in (4, 5) and fields[3].startswith("n="):
            out[fields[0]] = {"value": float(fields[1]), "unit": fields[2], "n": int(fields[3][2:])}
            if len(fields) == 5:
                out[fields[0]]["key"] = fields[4]
    return out


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Compare the two sides over ``pairs`` for each metric in
    ``end_to_end`` (BENCHMARK.json's list of name, unit, better, bound).
    A pair is ``{"seed", "first", "base", "change"}``, each side being
    perfbench's JSON line (``attempted``, ``failed``, ``metrics``) plus,
    optionally, its ``printed`` metric lines (see ``printed_metrics``);
    each printed metric that every run holds gets each side's median and
    quartiles under ``"printed"``.

    A gain is shown when there are at least ten pairs, the change wins at
    least 9 in 10 of them (ties count for neither side), the medians are
    apart by more than the base's interquartile range, and no more
    operations fail on the change's side than on the base's. The bound
    verdict is "within" or "outside" the metric's bound on the medians,
    but "unresolved" when the base's interquartile range is wider than
    the bound, unless every change run reads better than every base run.
    """
    operations = {
        side: {key: sum(p[side][key] for p in pairs) for key in ("attempted", "failed")}
        for side in SIDES
    }
    more_failures = operations["change"]["failed"] > operations["base"]["failed"]
    out: dict = {"pairs": len(pairs), "operations": operations, "metrics": {}}
    for spec in end_to_end:
        name, sign = spec["name"], (1 if spec["better"] == "lower" else -1)
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        # > 0: the change reads better in that pair
        gains = [sign * (b - c) for b, c in zip(values["base"], values["change"])]
        base, change = (_quartiles(values[side]) for side in SIDES)
        wins = sum(g > 0 for g in gains)
        spread = base["q3"] - base["q1"]
        if min(sign * v for v in values["base"]) > max(sign * v for v in values["change"]):
            verdict = "within"
        elif spread > spec["bound"] * abs(base["median"]):
            verdict = "unresolved"
        else:
            worse_by = sign * (change["median"] - base["median"]) / abs(base["median"])
            verdict = "within" if worse_by <= spec["bound"] else "outside"
        out["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "base": base,
            "change": change,
            "wins": wins,
            "losses": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "change_vs_base": (change["median"] - base["median"]) / abs(base["median"]),
            "gain_shown": len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
            and -sign * (change["median"] - base["median"]) > spread and not more_failures,
            "bound_verdict": verdict,
        }
    runs = [p[side].get("printed", {}) for p in pairs for side in SIDES]
    out["printed"] = {
        name: {"unit": line["unit"], **{side: _quartiles([p[side]["printed"][name]["value"]
                                                          for p in pairs]) for side in SIDES}}
        for name, line in runs[0].items() if all(name in run for run in runs)
    }
    return out


def paired_summary(base: list[float], change: list[float]) -> dict:
    """The change's paired ratio over rounds that time both sides, the base
    first in even rounds: the median of change / base over all rounds and
    over each order's rounds, and a 95% interval of that median from
    BOOTSTRAP resamples of the rounds, drawn with a fixed seed."""
    ratio = np.asarray(change, dtype=np.float64) / np.asarray(base, dtype=np.float64)
    resampled = ratio[np.random.default_rng(0).integers(len(ratio), size=(BOOTSTRAP, len(ratio)))]
    low, high = np.percentile(np.median(resampled, axis=1), [2.5, 97.5])
    return {
        "rounds": len(ratio),
        "median_ratio": float(np.median(ratio)),
        "base_first_median": float(np.median(ratio[0::2])),
        "change_first_median": float(np.median(ratio[1::2])),
        "interval_95": [float(low), float(high)],
        "base_s": list(base),
        "change_s": list(change),
    }


def load_copy(src: Path, name: str):
    """The ``gaitrerank`` package under ``src``, imported with all its
    modules as package ``name``, apart from any other copy."""
    spec = importlib.util.spec_from_file_location(
        name, src / "gaitrerank" / "__init__.py",
        submodule_search_locations=[str(src / "gaitrerank")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _training_step(pkg, fixture: dict):
    """One training iteration of package copy ``pkg``, as its training loop
    runs it on the fixture's train split: draw a batch, index its rows,
    forward and backward, one AdamW step."""
    training, reranker = pkg.training, pkg.reranker
    fs = pkg.synth.generate(**fixture)
    cfg = training.TrainConfig(**HARNESS_TRAIN)
    index = training._eligible_index(
        training.build_training_set(training.split_train_val(fs)[0], v=cfg.v), "training")
    identity = fs.identity_map()
    identities = [identity[sid] for sid in index[0]]
    label = {ident: i for i, ident in enumerate(sorted(set(identities)))}
    rows = np.array([fs.row_of[sid] for sid in index[0]], dtype=np.intp)
    labels = np.array([label[ident] for ident in identities], dtype=np.int64)
    model = reranker.RerankerConfig(s=fs.s, d=fs.d, num_classes=len(label), **HARNESS_MODEL)
    weights = reranker.init_weights(model, seed=cfg.seed)
    state = training.init_adamw(weights)
    rng = np.random.default_rng(cfg.seed)

    def step() -> None:
        drawn = training._draw(index, cfg, rng)
        batch = reranker.IndexedBatch(fs.strips, rows[drawn], labels[drawn])
        _, grads = reranker.forward_backward(batch, weights, alpha=cfg.alpha, beta=cfg.beta)
        training.adamw_step(weights, grads, state, cfg)

    return step


def paired(trees: dict, size: str) -> dict:
    """Both sides' training step in this process, timed in alternating
    rounds after one untimed round each (see ``paired_summary``)."""
    fixture, rounds, steps = PAIRED[size]
    names = {side: f"ab_{side}" for side in SIDES}
    try:
        packages = {side: load_copy(trees[side] / "src", names[side]) for side in SIDES}
        # the allocator's settings are the process's: set once, for both sides
        packages["base"].training._retain_freed_memory()
        run = {side: _training_step(packages[side], fixture) for side in SIDES}
        times: dict = {side: [] for side in SIDES}
        for i in range(-1, rounds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                t0 = time.perf_counter()
                for _ in range(steps):
                    run[side]()
                if i >= 0:
                    times[side].append(time.perf_counter() - t0)
    finally:
        for module in [m for m in sys.modules if m.split(".")[0] in names.values()]:
            del sys.modules[module]
    return {"workload": "training_step", "steps": steps, "fixture": fixture,
            **paired_summary(times["base"], times["change"])}


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _bench(tree: Path, workload: str, seed: int, settings: dict, trace: int) -> tuple[dict, dict]:
    """One perfbench run in ``tree``: its JSON line and environment record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(settings["seconds"]), "--trace", str(trace),
            "--size", settings["size"]]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"ab: {' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    return {**json.loads(lines[-1]), "printed": printed_metrics(lines)}, env


def _tier1(tree: Path) -> dict:
    """Wall time, summary line and the ten slowest test phases (pytest's
    ``--durations`` lines) of one Tier-1 test run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": "src"}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=10"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    durations = [line for line in lines if line.split(" ", 1)[0].endswith("s")
                 and line.split()[1:2] in (["call"], ["setup"], ["teardown"])]
    return {"wall_s": round(wall, 1), "exit_code": proc.returncode,
            "summary": (lines or [""])[-1], "durations": durations}


def _code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment and are
    not part of a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _side(tree: Path, rev: str) -> dict:
    src = list((tree / "src").rglob("*.py"))
    return {
        "rev": rev,
        "commit": _git("rev-parse", "HEAD", cwd=tree),
        "src_tree": _git("rev-parse", "HEAD:src", cwd=tree),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in src),
        "src_code_lines": sum(_code_lines(p.read_text(encoding="utf-8")) for p in src),
    }


def run(args) -> dict:
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.base, args.change))}
    if _git("diff", "--stat", commits["base"], commits["change"], "--", *BENCHMARK_FILES):
        sys.exit(f"ab: {' and '.join(BENCHMARK_FILES)} differ between the two revisions")
    spec = json.loads(_git("show", f"{commits['base']}:BENCHMARK.json"))
    settings = {"size": args.size} if args.paired else {
        "seconds": spec["run_seconds"], "size": args.size, "pairs": args.pairs,
        "seeds": list(range(1, args.pairs + 1))}
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    trees = {side: scratch / side for side in SIDES}
    try:
        for side in SIDES:
            _git("worktree", "add", "--detach", "--quiet", str(trees[side]), commits[side])
        record: dict = {
            "topic": args.topic,
            **{side: _side(trees[side], rev) for side, rev in zip(SIDES, (args.base, args.change))},
            "settings": settings,
        }
        if args.paired:
            record["paired"] = paired(trees, args.size)
            return record
        record["workloads"] = {}
        envs = []
        for workload in args.workloads:
            pairs = []
            for i in range(args.pairs):
                seed = i + 1
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], env = _bench(trees[side], workload, seed, settings, trace=0)
                    envs.append(env)
                pairs.append(pair)
                print(f"ab: {workload} pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)
            result = summarize(pairs, spec["end_to_end"])
            result["runs"] = pairs
            result["traced"] = {
                side: _bench(trees[side], workload, 1, settings, trace=1)[0]["metrics"]
                for side in SIDES
            }
            record["workloads"][workload] = result
        record["environments"] = [json.loads(e) for e in sorted({json.dumps(e, sort_keys=True)
                                                                 for e in envs})]
        if args.size == "full":
            for side in SIDES:
                record[side]["tier1"] = _tier1(trees[side])
        return record
    finally:
        for side in SIDES:
            if trees[side].exists():
                subprocess.run(["git", "worktree", "remove", "--force", str(trees[side])],
                               cwd=ROOT, check=False, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paired", action="store_true")
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--topic", required=True)
    parser.add_argument("--workloads", default="rank,train",
                        type=lambda text: text.split(","))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = args.out or ROOT / f"BENCH_{args.topic}.json"
    record = run(args)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.paired:
        p = record["paired"]
        print(f"paired {p['workload']} change/base {p['median_ratio']:.4f} "
              f"(95% {p['interval_95'][0]:.4f}-{p['interval_95'][1]:.4f}, base first "
              f"{p['base_first_median']:.4f}, change first {p['change_first_median']:.4f}, "
              f"{p['rounds']} rounds of {p['steps']} steps)")
    for workload, result in record.get("workloads", {}).items():
        for name, m in result["metrics"].items():
            print(f"{workload:6s} {name:14s} {m['base']['median']:12.6g} -> "
                  f"{m['change']['median']:12.6g} {m['unit']:4s} wins {m['wins']}/{result['pairs']}"
                  f"{'  gain' if m['gain_shown'] else ''}"
                  f"{'' if m['bound_verdict'] == 'within' else '  ' + m['bound_verdict'].upper()}")
    print(f"ab: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
