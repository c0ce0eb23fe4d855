"""The benchmark's workloads.

All are closed loop: one caller in one process, and each call waits for
the previous one. Inputs come from ``synth.generate`` with the workload
seed; the program sees only the generated inputs, through its public API
and the in-process CLI entry point ``gaitrerank.cli.main``.

Every workload reports the same end-to-end metrics, each with a meaning
of its own per workload (see ``NAMED`` of each class):

- ``step_ms_tail``: tail latency of the workload's finest repeated call
  (its median, ``step_ms_p50``, is printed beside it);
- ``main_per_s``: throughput of its phase (a) (that of phase (b),
  ``alt_per_s``, is printed beside it);
- ``setup_s`` and ``peak_rss_mb``, added by the driver.

``BENCHMARK.json`` lists ``train`` and ``rank``. ``rerank`` runs the same
way by hand; it is left out there because its Python-bound calls spread
by 0.22-0.32 over ten seeds on a shared host, more than any bound allows.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from types import SimpleNamespace

import numpy as np

import checks
from gaitrerank import (
    baseline,
    cli,
    feature_store,
    inference,
    metrics,
    ranking,
    reranker,
    synth,
    training,
)

clock = time.perf_counter

# (name, unit) of the end-to-end metrics in the JSON line, the same for
# every workload. The median step latency and the phase (b) throughput are
# printed, not reported there: on a shared host, Python-bound work flips
# between a fast and a slow mode for seconds at a time, so a median, or a
# phase lasting a second or two, lands in either mode from run to run
# (spreads of 0.19-0.37 over ten seeds). The tail and the phase (a)
# throughput stay within 0.05-0.16.
END_TO_END = [
    ("step_ms_tail", "ms"),
    ("main_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# model dimensions of the acceptance harness (tests/test_acceptance.py)
HARNESS_MODEL = dict(heads=4, hidden=64, blocks=1, mlp_hidden=64)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in-process. Its stdout report is not ours to print;
    its stderr is kept to explain a failure."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


class Workload:
    name = ""
    why = ""
    # set-ups per run, half of them after the rounds; setup_s is their median
    setup_repeats = 3
    # train runs its fixed work once; the others repeat rounds until
    # --seconds of measured time have passed
    single_round = False
    tail_q = 99
    # {end-to-end metric: this workload's name for it}
    NAMED: dict[str, str] = {}
    SIZES: dict[str, dict] = {}

    def __init__(self, size: str, seconds: float) -> None:
        self.p = SimpleNamespace(**self.SIZES[size])
        self.seconds = seconds
        # replaced by Tracer.span in the traced pass
        self.span = contextlib.nullcontext

    def summarize(self, rounds: list[dict]) -> dict:
        """Latency percentiles over every call of phase (c) or (b), and
        the median throughput over the samples of phases (a) and (b)."""
        lat = [x for r in rounds for x in r["probe_ms"]]
        a = [x for r in rounds for x in r["a_per_s"]]
        b = [x for r in rounds for x in r["b_per_s"]]
        return {
            "step_ms_tail": (percentile(lat, self.tail_q), len(lat)),
            "main_per_s": (percentile(a, 50), len(a)),
            "extra": [
                (self.NAMED["step_ms_p50"], percentile(lat, 50), "ms", len(lat)),
                (self.NAMED["alt_per_s"], percentile(b, 50), "1/s", len(b)),
            ],
        }

    def generator(self, seed: int) -> dict:
        p = self.p
        return dict(
            identities=p.ids, per_identity=p.per_id, s=p.s, d=p.d,
            hardness=p.hardness, noise=p.noise, seed=seed,
        )


class Train(Workload):
    name = "train"
    why = (
        "Attention forward and backward dominate; stage one is negligible. "
        "A projection cache, in-place softmax or merged training loop shows here."
    )
    setup_repeats = 6
    single_round = True
    tail_q = 90
    NAMED = {
        "step_ms_p50": "train_iter_ms_p50",
        "step_ms_tail": "train_iter_ms_p90",
        "main_per_s": "train_iters_per_s",
        "alt_per_s": "baseline_iters_per_s",
    }
    SIZES = {
        # the acceptance fixture and harness; 30 iterations per second of
        # --seconds (600 at 20 s) is enough for every seed tried to lift
        # Rank-1 above the initial ranking
        "full": dict(ids=40, per_id=6, s=8, d=16, hardness=0.7, noise=0.3,
                     iters_per_second=30, t_val=100, k=10),
        # noise-free, so the sequences of one identity are identical and a
        # few iterations cannot move Rank-1: the tiny size checks the
        # mechanics, the full size the quality
        "tiny": dict(ids=20, per_id=3, s=4, d=6, hardness=0.7, noise=0.0,
                     iters_per_second=10, t_val=5, k=3),
    }

    def setup(self, work, seed: int):
        p = self.p
        fs = synth.generate(**self.generator(seed))
        cfg = training.TrainConfig(
            lr=3e-4,
            iterations=max(1, round(p.iters_per_second * self.seconds)),
            t_val=p.t_val,
            val_triplets=256,
            batch_probes=32,
            triplets_per_probe=4,
            seed=seed,
        )
        train_fs, val_fs = training.split_train_val(fs)
        train_ts = training.build_training_set(train_fs, v=cfg.v)
        val_ts = training.build_training_set(val_fs, v=cfg.v)
        initial = ranking.rank_all(fs, fs)
        identity = fs.identity_map()
        model = reranker.RerankerConfig(
            s=p.s, d=p.d,
            num_classes=len({identity[i] for i in training.referenced_sequences(train_ts)}),
            **HARNESS_MODEL,
        )
        return SimpleNamespace(fs=fs, cfg=cfg, train_ts=train_ts, val_ts=val_ts,
                               initial=initial, model=model)

    def _baseline(self, st):
        with self.span("bench.train_baseline"):
            t0 = clock()
            base = baseline.train_baseline(
                st.train_ts, st.val_ts, st.fs, st.cfg, hidden=HARNESS_MODEL["hidden"]
            )
            return base, clock() - t0

    def round(self, st):
        # the short baseline run is timed before and after the main one,
        # so it is not measured in one brief window only
        base_before, before_s = self._baseline(st)
        with self.span("bench.train"):
            t0 = clock()
            result = training.train(st.train_ts, st.val_ts, st.fs, st.cfg, model=st.model)
            train_s = clock() - t0
        base, after_s = self._baseline(st)
        with self.span("bench.rerank_loo"):
            t0 = clock()
            lists, _ = inference.rerank_all(
                st.fs.entries, st.initial, st.fs, result.weights, k=self.p.k
            )
            rerank_s = clock() - t0
        timings = dict(
            train_s=train_s, baseline_s=before_s + after_s, rerank_s=rerank_s,
            iter_ms=np.diff([r.wall_time_ms for r in result.history]).tolist(),
            baseline_iter_ms=[
                x for b in (base_before, base) for x in np.diff([r.wall_time_ms for r in b.history])
            ],
            measured_s=train_s + before_s + after_s + rerank_s,
        )
        out = SimpleNamespace(result=result, bases=(base_before, base), lists=lists)
        return timings, out

    def check(self, st, timings, out) -> tuple[int, dict]:
        failures = {}
        runs = [("train", out.result)] + [(f"baseline{i}", b) for i, b in enumerate(out.bases)]
        for label, res in runs:
            first = res.history[0].val_loss
            if not (math.isfinite(res.best_val_loss) and res.best_val_loss <= first):
                failures[label] = f"snapshot loss {res.best_val_loss!r} above iteration-0 {first!r}"
        identity = st.fs.identity_map()
        before = metrics.rank_k_accuracy(st.initial, identity, [1, 10])
        after = metrics.rank_k_accuracy(out.lists, identity, [1, 10])
        timings.update(rank1_initial=before[1], rank1_reranked=after[1])
        if after[10] != before[10]:
            failures["train"] = f"Rank-10 moved {before[10]!r} -> {after[10]!r}"
        elif after[1] < before[1]:
            failures["train"] = f"Rank-1 fell {before[1]!r} -> {after[1]!r}"
        for init, rl in zip(st.initial, out.lists):
            why = checks.reranked_list(list(init.items), list(rl.items), self.p.k)
            if rl.probe_id != init.probe_id or why:
                failures[rl.probe_id] = why or "probe order changed"
        return len(runs) + len(out.lists), failures

    def summarize(self, rounds: list[dict]) -> dict:
        (r,) = rounds
        it, base = r["iter_ms"], r["baseline_iter_ms"]
        return {
            "step_ms_tail": (percentile(it, self.tail_q), len(it)),
            "main_per_s": (len(it) / r["train_s"], 1),
            "extra": [
                (self.NAMED["step_ms_p50"], percentile(it, 50), "ms", len(it)),
                (self.NAMED["alt_per_s"], len(base) / r["baseline_s"], "1/s", 2),
                ("baseline_iter_ms_p50", percentile(base, 50), "ms", len(base)),
                ("baseline_iter_ms_p90", percentile(base, 90), "ms", len(base)),
                ("rank1_initial", r["rank1_initial"], "fraction", 1),
                ("rank1_reranked", r["rank1_reranked"], "fraction", 1),
                ("rerank_loo_s", r["rerank_s"], "s", 1),
            ],
        }


class Rerank(Workload):
    name = "rerank"
    why = (
        "Only forward attention in small calls plus ranked-list JSON I/O; no "
        "backward, no stage one. CLI batch (a) and per-probe API calls (b) use the re-ranker two ways."
    )
    NAMED = {
        "step_ms_p50": "rerank_probe_ms_p50",
        "step_ms_tail": "rerank_probe_ms_p99",
        "main_per_s": "rerank_probes_per_s",
        "alt_per_s": "rerank_api_probes_per_s",
    }
    SIZES = {
        "full": dict(ids=500, per_id=4, s=8, d=16, hardness=0.7, noise=0.3,
                     depth=100, k=10, order_sample=8),
        "tiny": dict(ids=30, per_id=3, s=4, d=6, hardness=0.7, noise=0.3,
                     depth=20, k=5, order_sample=3),
    }

    def setup(self, work, seed: int):
        p = self.p
        fs = synth.generate(**self.generator(seed))
        st = SimpleNamespace(
            fs=fs,
            lookup={e.sequence_id: e.strips for e in fs.entries},
            features=str(work / "features.gfm"),
            initial_path=str(work / "initial.jsonl"),
            checkpoint=str(work / "model.cgrk"),
            out=str(work / "reranked.jsonl"),
        )
        feature_store.save_feature_set(fs, st.features)
        st.initial = ranking.rank_all(fs, fs, k=p.depth)
        ranking.write_ranked_lists(st.initial, st.initial_path)
        model = reranker.RerankerConfig(s=p.s, d=p.d, num_classes=p.ids, **HARNESS_MODEL)
        reranker.save_checkpoint(reranker.init_weights(model, seed=seed), st.checkpoint)
        return st

    def round(self, st):
        with self.span("bench.rerank_cli"):
            t0 = clock()
            code, err = run_cli([
                "rerank", "--checkpoint", st.checkpoint, "--probes", st.features,
                "--gallery", st.features, "--initial", st.initial_path,
                "--k", str(self.p.k), "--out", st.out,
            ])
            a_s = clock() - t0
        weights, _, _ = reranker.load_checkpoint(st.checkpoint)
        latencies, lists = [], []
        with self.span("bench.rerank_api"):
            t1 = clock()
            for probe, rl in zip(st.fs.entries, st.initial):
                t = clock()
                lists.append(inference.rerank(probe, rl, st.lookup, weights, k=self.p.k))
                latencies.append((clock() - t) * 1e3)
            b_s = clock() - t1
        n = len(st.initial)
        timings = dict(
            a_per_s=[n / a_s], b_per_s=[n / b_s], probe_ms=latencies, measured_s=a_s + b_s
        )
        return timings, SimpleNamespace(code=code, err=err, lists=lists, weights=weights)

    def check(self, st, timings, out) -> tuple[int, dict]:
        p, n = self.p, len(st.initial)
        failures = {}
        cli_lists = checks.parse_ranked_lists(st.out) if out.code == 0 else []
        if len(cli_lists) != n:
            failures.update({("a", i): f"exit {out.code}: {out.err}" for i in range(n)})
        for i, init in enumerate(st.initial):
            initial = list(init.items)
            if i < len(cli_lists):
                pid, items = cli_lists[i]
                why = checks.reranked_list(initial, items, p.k)
                if pid != init.probe_id or why:
                    failures[("a", i)] = why or "probe order changed"
            rl = out.lists[i]
            why = checks.reranked_list(initial, list(rl.items), p.k)
            if why:
                failures[("b", i)] = why
            elif i < len(cli_lists) and [c for c, _ in cli_lists[i][1]] != rl.ids():
                failures[("b", i)] = "phases (a) and (b) disagree"
        for i in range(0, n, max(1, n // p.order_sample))[: p.order_sample]:
            probe, prefix = st.fs.entries[i], out.lists[i].ids()[: p.k]
            reference = {
                c: reranker.rerank_distance(probe.strips, st.lookup[c], out.weights) for c in prefix
            }
            why = checks.rerank_order(prefix, reference)
            if why:
                failures[("b", i)] = why
        return 2 * n, failures


class Rank(Workload):
    name = "rank"
    why = (
        "Only stage one runs, on an 82 MB float64 gallery stack far above L2. "
        "GEMM distances help all phases; selection and writer changes help only (a)."
    )
    setup_repeats = 6
    tail_q = 80
    NAMED = {
        "step_ms_p50": "rank_api_probe_ms_p50",
        "step_ms_tail": "rank_api_probe_ms_p80",
        "main_per_s": "rank_full_probes_per_s",
        "alt_per_s": "rank_topk_probes_per_s",
    }
    SIZES = {
        # the probes go to the CLI in groups, and phases (a), (b) and (c)
        # take turns group by group, so each phase is sampled several
        # times across the run instead of once
        "full": dict(ids=2500, per_id=4, s=16, d=64, hardness=0.7, noise=0.3,
                     probes=50, groups=5, k=100, distance_sample=3),
        "tiny": dict(ids=40, per_id=3, s=4, d=8, hardness=0.7, noise=0.3,
                     probes=6, groups=2, k=10, distance_sample=2),
    }

    def setup(self, work, seed: int):
        p = self.p
        gallery = synth.generate(**self.generator(seed))
        picked = np.sort(np.random.default_rng(seed).choice(len(gallery), p.probes, replace=False))
        # probes are gallery sequences, so the leave-one-out path runs
        groups = [
            feature_store.FeatureSet.from_entries(
                [gallery.entries[i] for i in part], partition="probe", s=p.s, d=p.d
            )
            for part in np.array_split(picked, p.groups)
        ]
        st = SimpleNamespace(
            gallery=gallery,
            probes=[e for g in groups for e in g.entries],
            groups=groups,
            gallery_path=str(work / "gallery.gfm"),
            group_paths=[str(work / f"probes-{g}.gfm") for g in range(p.groups)],
            full=[str(work / f"full-{g}.jsonl") for g in range(p.groups)],
            top=[str(work / f"top-{g}.jsonl") for g in range(p.groups)],
        )
        feature_store.save_feature_set(gallery, st.gallery_path)
        for group, path in zip(groups, st.group_paths):
            feature_store.save_feature_set(group, path)
        return st

    def round(self, st):
        a_s, b_s, codes, errs, latencies, lists = [], [], [], [], [], []
        for g, group in enumerate(st.groups):
            rank = ["rank", "--probes", st.group_paths[g], "--gallery", st.gallery_path]
            with self.span("bench.rank_full"):
                t0 = clock()
                code, err = run_cli(rank + ["--out", st.full[g]])
                a_s.append(clock() - t0)
            codes.append(code)
            errs.append(err)
            with self.span("bench.rank_topk"):
                t0 = clock()
                code, err = run_cli(rank + ["--k", str(self.p.k), "--out", st.top[g]])
                b_s.append(clock() - t0)
            codes.append(code)
            errs.append(err)
            with self.span("bench.rank_api"):
                for probe in group.entries:
                    t0 = clock()
                    lists.append(ranking.rank_gallery(probe, st.gallery, k=self.p.k))
                    latencies.append((clock() - t0) * 1e3)
        timings = dict(
            a_per_s=[len(g) / t for g, t in zip(st.groups, a_s)],
            b_per_s=[len(g) / t for g, t in zip(st.groups, b_s)],
            probe_ms=latencies,
            measured_s=sum(a_s) + sum(b_s) + sum(latencies) / 1e3,
        )
        return timings, SimpleNamespace(codes=codes, errs=errs, lists=lists)

    def _read(self, paths) -> list:
        return [rl for path in paths for rl in checks.parse_ranked_lists(path)]

    def check(self, st, timings, out) -> tuple[int, dict]:
        p, n = self.p, len(st.probes)
        failures = {}
        bad = [(c, e) for c, e in zip(out.codes, out.errs) if c != 0]
        full = [] if bad else self._read(st.full)
        top = [] if bad else self._read(st.top)
        gallery_ids = set(st.gallery.ids())
        for i, probe in enumerate(st.probes):
            pid = probe.sequence_id
            if i >= len(full) or i >= len(top) or full[i][0] != pid or top[i][0] != pid:
                for phase in "abc":
                    failures[(phase, i)] = f"missing list; CLI failures {bad[:1]}"
                continue
            items = full[i][1]
            why = checks.full_ranking(pid, items, gallery_ids)
            if why:
                failures[("a", i)] = why
            why = checks.top_k(top[i][1], items, p.k)
            if why:
                failures[("b", i)] = why
            why = checks.top_k(list(out.lists[i].items), items, p.k)
            if why or out.lists[i].probe_id != pid:
                failures[("c", i)] = why or "wrong probe"
        by_id = {e.sequence_id: e for e in st.gallery.entries}
        for i in range(0, len(full), max(1, n // p.distance_sample))[: p.distance_sample]:
            probe = st.probes[i]
            reference = {c: ranking.strip_distance(probe, by_id[c]) for c, _ in full[i][1]}
            why = checks.distances_match(full[i][1], reference)
            if why:
                failures[("a", i)] = why
        return 3 * n, failures

WORKLOADS = {w.name: w for w in (Train, Rerank, Rank)}
