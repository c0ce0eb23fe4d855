"""Which program functions the traced run wraps, what it counts at each,
and how the per-layer metrics are derived from spans and counts.

Modules import each other by name, so a function is wrapped at every
name a caller looks it up under: ``cli.rank_all`` for the CLI and
``ranking.rank_all`` for callers that go through the module. Counts
marked "computed" are derived from argument shapes, not measured inside
the program: they state the work the caller asked for.
"""

from __future__ import annotations

from pathlib import Path

from gaitrerank import baseline, cli, feature_store, inference, ranking, reranker, synth, training

# (name, better, unit) for every per-layer metric, in report order
PER_LAYER = [
    ("reranker.forward_backward.ms", "lower", "ms"),
    ("reranker.batch_loss.ms", "lower", "ms"),
    ("reranker.pair_distances.ms", "lower", "ms"),
    ("reranker.pair_directions", "lower", "count"),
    ("reranker.gflop", "lower", "GFLOP"),
    ("training.sample_triplets.ms", "lower", "ms"),
    ("training.make_batch.ms", "lower", "ms"),
    ("training.adamw_step.ms", "lower", "ms"),
    ("training.train.self_ms", "lower", "ms"),
    ("training.build_training_set.ms", "lower", "ms"),
    ("training.unique_map_share", "lower", "fraction"),
    ("baseline.bce_forward_backward.ms", "lower", "ms"),
    ("baseline.train_baseline.self_ms", "lower", "ms"),
    ("inference.rerank.self_ms", "lower", "ms"),
    ("inference.splice_reordered.ms", "lower", "ms"),
    ("inference.candidate_reuse_share", "higher", "fraction"),
    ("inference.prefixes_reordered_share", "higher", "fraction"),
    ("ranking.rank_gallery.ms_per_call", "lower", "ms"),
    ("ranking.rank_all.ms", "lower", "ms"),
    ("ranking.distances", "lower", "count"),
    ("ranking.write_ranked_lists.ms", "lower", "ms"),
    ("ranking.write_ranked_lists.bytes", "lower", "bytes"),
    ("feature_store.load_feature_set.ms", "lower", "ms"),
    ("feature_store.load_feature_set.bytes", "lower", "bytes"),
    ("cli.main.self_ms", "lower", "ms"),
    ("perfbench.trace_overhead_ms", "lower", "ms"),
    ("perfbench.trace_overhead_share", "lower", "fraction"),
    ("perfbench.accounted_share", "higher", "fraction"),
]


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(path) -> int:
    p = Path(path)
    return p.stat().st_size if p.exists() else 0


def attention_flop(cfg, directions: int) -> float:
    """Forward FLOP of the attention GEMMs (Q/K/V/output projections,
    scores, attn@V) for ``directions`` query-conditioned-on-partner maps.
    Softmax, biases, the distance and the classifier head are left out."""
    s, d, h = cfg.s, cfg.d, cfg.hidden
    return float(directions) * cfg.blocks * 2 * (4 * s * d * h + 2 * s * s * h)


def install(tracer) -> None:
    counts = tracer.counts

    def attention(directions_per_item: int, passes: int, items_arg: tuple[int, str]):
        def count(args, kwargs, result):
            items = len(_arg(args, kwargs, *items_arg))
            weights = _arg(args, kwargs, items_arg[0] + 1, "weights")
            directions = directions_per_item * items
            counts["reranker.pair_directions"] += directions
            # backward is counted as twice the forward GEMM work
            counts["reranker.gflop"] += passes * attention_flop(weights.config, directions) / 1e9

        return count

    def make_batch(args, kwargs, result):
        triplets = _arg(args, kwargs, 0, "triplets")
        counts["training.batch_maps"] += 3 * len(triplets)
        counts["training.batch_unique_maps"] += len(
            {i for t in triplets for i in (t.probe_id, t.pos_id, t.neg_id)}
        )

    def rerank(args, kwargs, result):
        initial = _arg(args, kwargs, 1, "initial")
        k = kwargs.get("k", args[4] if len(args) > 4 else inference.DEFAULT_K)
        prefix = [cid for cid, _ in initial.items[:k]]
        tracer.add_distinct("inference.candidates", prefix)
        counts["inference.candidates"] += len(prefix)
        counts["inference.prefixes"] += 1
        counts["inference.prefixes_reordered"] += result.ids()[: len(prefix)] != prefix

    def rank_all(args, kwargs, result):
        gallery = _arg(args, kwargs, 1, "gallery")
        counts["ranking.distances"] += len(result) * len(gallery)

    def rank_gallery(args, kwargs, result):
        if not tracer.enclosing("ranking.rank_all"):
            counts["ranking.distances"] += len(_arg(args, kwargs, 1, "gallery"))

    def loaded_bytes(args, kwargs, result):
        path = _arg(args, kwargs, 0, "path")
        counts["feature_store.load_feature_set.bytes"] += _file_bytes(path) + _file_bytes(
            feature_store.manifest_path(path)
        )

    def written_bytes(args, kwargs, result):
        counts["ranking.write_ranked_lists.bytes"] += _file_bytes(_arg(args, kwargs, 1, "path"))

    wraps = [
        (cli, "main", "cli.main", None),
        (synth, "generate", "synth.generate", None),
        (feature_store, "save_feature_set", "feature_store.save_feature_set", None),
        (cli, "load_feature_set", "feature_store.load_feature_set", loaded_bytes),
        (ranking, "rank_all", "ranking.rank_all", rank_all),
        (cli, "rank_all", "ranking.rank_all", rank_all),
        (ranking, "rank_gallery", "ranking.rank_gallery", rank_gallery),
        (training, "rank_gallery", "ranking.rank_gallery", rank_gallery),
        (ranking, "write_ranked_lists", "ranking.write_ranked_lists", written_bytes),
        (cli, "write_ranked_lists", "ranking.write_ranked_lists", written_bytes),
        (cli, "read_ranked_lists", "ranking.read_ranked_lists", None),
        (reranker, "init_weights", "reranker.init_weights", None),
        (training, "init_weights", "reranker.init_weights", None),
        (reranker, "save_checkpoint", "reranker.save_checkpoint", None),
        (reranker, "load_checkpoint", "reranker.load_checkpoint", None),
        (cli, "load_checkpoint", "reranker.load_checkpoint", None),
        (training, "forward_backward", "reranker.forward_backward", attention(4, 3, (0, "batch"))),
        (training, "batch_loss", "reranker.batch_loss", attention(4, 1, (0, "batch"))),
        (inference, "pair_distances", "reranker.pair_distances", attention(2, 1, (1, "candidate_maps"))),
        (training, "split_train_val", "training.split_train_val", None),
        (training, "build_training_set", "training.build_training_set", None),
        (training, "train", "training.train", None),
        (training, "sample_triplets", "training.sample_triplets", None),
        (training, "make_batch", "training.make_batch", make_batch),
        (training, "adamw_step", "training.adamw_step", None),
        (baseline, "train_baseline", "baseline.train_baseline", None),
        (baseline, "bce_forward_backward", "baseline.bce_forward_backward", None),
        (inference, "rerank_all", "inference.rerank_all", None),
        (inference, "rerank", "inference.rerank", rerank),
        (inference, "splice_reordered", "inference.splice_reordered", None),
    ]
    for module, attr, name, count in wraps:
        tracer.wrap(module, attr, name, count)


def metrics(tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from a finished traced run; a layer the
    workload never called reads 0."""
    totals = tracer.totals()
    counts = tracer.counts

    def total(name: str, key: str = "ms") -> float:
        return totals.get(name, {}).get(key, 0.0)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            out[name] = total(name[: -len(".self_ms")], "self_ms")
        elif name.endswith(".ms"):
            out[name] = total(name[: -len(".ms")])
        elif name in counts:
            out[name] = counts[name]
    calls = total("ranking.rank_gallery", "calls")
    out["ranking.rank_gallery.ms_per_call"] = share(total("ranking.rank_gallery"), calls)
    out["training.unique_map_share"] = share(
        counts["training.batch_unique_maps"], counts["training.batch_maps"]
    )
    if counts["inference.candidates"]:
        out["inference.candidate_reuse_share"] = 1.0 - share(
            tracer.distinct("inference.candidates"), counts["inference.candidates"]
        )
    out["inference.prefixes_reordered_share"] = share(
        counts["inference.prefixes_reordered"], counts["inference.prefixes"]
    )
    for name, _, _ in PER_LAYER:
        out.setdefault(name, 0.0)
    out["perfbench.trace_overhead_ms"] = (traced_s - untraced_s) * 1e3
    out["perfbench.trace_overhead_share"] = share(traced_s - untraced_s, untraced_s)
    root = total("bench.run")
    out["perfbench.accounted_share"] = share(
        sum(row["self_ms"] for row in totals.values()), root
    )
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
