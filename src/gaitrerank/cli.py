"""Command-line pipeline: every stage reads and writes plain files, so
runs are reproducible and individual stages can be re-run in isolation.

Exit codes: 0 success, 2 bad flags or config, 3 missing input file, and
per-failure codes for artifact violations (see EXIT_CODES). Failures
print a single machine-readable JSON line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__, baseline, inference, metrics, synth, training
from .errors import ArtifactError, MissingIdError
from .feature_store import MAGIC, load_feature_set, read_manifest, save_feature_set
from .ranking import rank_all, read_ranked_lists, write_ranked_lists
from .reranker import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    RerankerConfig,
    attended_pair,
    load_checkpoint,
    save_checkpoint,
)

EXIT_CODES = {
    "format": 4,
    "shape": 5,
    "duplicate-id": 6,
    "non-finite": 7,
    "missing-id": 8,
    "data": 9,
    "error": 10,
}


def _add_synth(sub) -> None:
    p = sub.add_parser("synth", help="generate a synthetic feature set")
    p.add_argument("--ids", type=int, required=True)
    p.add_argument("--per-id", type=int, required=True)
    p.add_argument("--strips", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--hardness", type=float, default=0.7)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--partition", default="train", help="manifest partition tag")


def _cmd_synth(args) -> int:
    features = synth.generate(
        identities=args.ids,
        per_identity=args.per_id,
        s=args.strips,
        d=args.dim,
        hardness=args.hardness,
        noise=args.noise,
        seed=args.seed,
    )
    if args.partition != "train":
        features = replace(features, partition=args.partition)
    save_feature_set(features, args.out)
    summary = synth.describe(features)
    print(
        json.dumps(
            {
                "sequences": len(features),
                "identities": summary.identity_count,
                "rank1": summary.rank1,
                "rank10": summary.rank10,
                "out": str(args.out),
            },
            sort_keys=True,
        )
    )
    return 0


def _add_rank(sub) -> None:
    p = sub.add_parser("rank", help="first-stage ranking by strip distance")
    p.add_argument("--probes", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)


def _cmd_rank(args) -> int:
    probes = load_feature_set(args.probes)
    gallery = load_feature_set(args.gallery)
    lists = rank_all(list(probes.entries), gallery, k=args.k, threads=args.threads)
    write_ranked_lists(lists, args.out)
    print(json.dumps({"probes": len(lists), "out": str(args.out)}, sort_keys=True))
    return 0


def _add_build_trainset(sub) -> None:
    p = sub.add_parser("build-trainset", help="top-v candidate lists for training")
    p.add_argument("--features", required=True)
    p.add_argument("--v", type=int, default=30)
    p.add_argument("--val-split", type=float, default=0.1)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-val", required=True)


def _cmd_build_trainset(args) -> int:
    features = load_feature_set(args.features)
    train_fs, val_fs = training.split_train_val(features, val_fraction=args.val_split)
    train_ts = training.build_training_set(train_fs, v=args.v)
    val_ts = training.build_training_set(val_fs, v=args.v)
    training.write_training_set(train_ts, args.out_train)
    training.write_training_set(val_ts, args.out_val)
    print(
        json.dumps(
            {
                "train_probes": len(train_ts),
                "train_eligible": len(train_ts.eligible_entries()),
                "val_probes": len(val_ts),
                "val_eligible": len(val_ts.eligible_entries()),
            },
            sort_keys=True,
        )
    )
    return 0


def _parse_batch(text: str) -> tuple[int, int]:
    try:
        probes, per_probe = text.lower().split("x")
        return int(probes), int(per_probe)
    except ValueError:
        raise ValueError(f"--batch must look like 32x4, got {text!r}") from None


def _train_config(args, v: int) -> training.TrainConfig:
    probes, per_probe = _parse_batch(args.batch)
    return training.TrainConfig(
        alpha=getattr(args, "alpha", 0.0),
        beta=getattr(args, "beta", 1.0),
        v=v,
        lr=args.lr,
        weight_decay=args.wd,
        batch_probes=probes,
        triplets_per_probe=per_probe,
        iterations=args.iters,
        t_val=args.tval,
        val_triplets=args.val_triplets,
        seed=args.seed,
    )


def _add_training_flags(p) -> None:
    """Flags ``train`` and ``train-baseline`` share."""
    p.add_argument("--trainset", required=True)
    p.add_argument("--valset", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--lr", type=float, default=1e-5)
    p.add_argument("--wd", type=float, default=1e-2)
    p.add_argument("--batch", default="32x4")
    p.add_argument("--iters", type=int, default=100_000)
    p.add_argument("--tval", type=int, default=10_000)
    p.add_argument("--val-triplets", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--quiet", action="store_true")


def _print_progress(row: training.LogRow) -> None:
    val = "" if row.val_loss is None else f" val={row.val_loss:.6f}"
    print(f"iter {row.iteration}{val}", file=sys.stderr)


def _fit_and_save(args, fit, save, **metadata) -> int:
    """Load the training inputs, run ``fit(train_ts, val_ts, features,
    cfg, progress)``, then write the checkpoint, the log and the report."""
    features = load_feature_set(args.features)
    train_ts = training.read_training_set(args.trainset)
    val_ts = training.read_training_set(args.valset)
    cfg = _train_config(args, v=train_ts.v)

    result = fit(train_ts, val_ts, features, cfg, None if args.quiet else _print_progress)
    save(
        result.weights,
        args.out_checkpoint,
        metadata={
            "best_iteration": result.best_iteration,
            "best_val_loss": result.best_val_loss,
            "seed": cfg.seed,
            **metadata,
        },
    )
    if args.log:
        training.write_training_log(result.history, args.log)
    print(
        json.dumps(
            {
                "best_iteration": result.best_iteration,
                "best_val_loss": result.best_val_loss,
                "checkpoint": str(args.out_checkpoint),
            },
            sort_keys=True,
        )
    )
    return 0


def _add_train(sub) -> None:
    p = sub.add_parser("train", help="train the cross-attention re-ranker")
    _add_training_flags(p)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--mlp-hidden", type=int, default=256)


def _cmd_train(args) -> int:
    def fit(train_ts, val_ts, features, cfg, progress):
        identity = features.identity_map()
        # an id missing from features counts once here; train() reports it
        classes = {identity.get(i) for i in training.referenced_sequences(train_ts)}
        model = RerankerConfig(
            s=features.s,
            d=features.d,
            num_classes=len(classes),
            heads=args.heads,
            hidden=args.hidden,
            blocks=args.blocks,
            mlp_hidden=args.mlp_hidden,
        )
        return training.train(
            train_ts, val_ts, features, cfg, model=model, progress=progress
        )

    return _fit_and_save(args, fit, save_checkpoint, alpha=args.alpha, beta=args.beta)


def _add_train_baseline(sub) -> None:
    p = sub.add_parser("train-baseline", help="train the binary-classifier baseline")
    _add_training_flags(p)


def _cmd_train_baseline(args) -> int:
    def fit(train_ts, val_ts, features, cfg, progress):
        return baseline.train_baseline(
            train_ts, val_ts, features, cfg, hidden=args.hidden, progress=progress
        )

    return _fit_and_save(args, fit, baseline.save_baseline)


def _add_rerank(sub) -> None:
    p = sub.add_parser("rerank", help="re-order each probe's top-K")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint")
    group.add_argument("--baseline-checkpoint")
    p.add_argument("--probes", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--initial", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--timing",
        action="store_true",
        help="add per-probe latency_ms to the output (not byte-reproducible)",
    )


def _cmd_rerank(args) -> int:
    probes = load_feature_set(args.probes)
    gallery = load_feature_set(args.gallery)
    initial = read_ranked_lists(args.initial)
    probe_by_id = {e.sequence_id: e for e in probes.entries}
    missing = [rl.probe_id for rl in initial if rl.probe_id not in probe_by_id]
    if missing:
        raise MissingIdError(f"no probe features for {missing[0]!r}")
    ordered_probes = [probe_by_id[rl.probe_id] for rl in initial]

    if args.baseline_checkpoint:
        weights, _, _ = baseline.load_baseline(args.baseline_checkpoint)
    else:
        weights, _, _ = load_checkpoint(args.checkpoint)
    lists, latencies = inference.rerank_all(ordered_probes, initial, gallery, weights, k=args.k)
    write_ranked_lists(lists, args.out, latencies_ms=latencies if args.timing else None)
    print(
        json.dumps(
            {
                "probes": len(lists),
                "mean_latency_ms": float(np.mean(latencies)) if latencies else 0.0,
                "out": str(args.out),
            },
            sort_keys=True,
        )
    )
    return 0


def _add_eval(sub) -> None:
    p = sub.add_parser("eval", help="metrics over ranked lists")
    p.add_argument("--lists", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--ks", default="1,5,10")
    p.add_argument("--fpr", default="1e-2")
    p.add_argument("--tpr-depth", type=int, default=1000)
    p.add_argument("--out", required=True)


def _cmd_eval(args) -> int:
    lists = read_ranked_lists(args.lists)
    identities = {seq: rec["identity"] for seq, rec in read_manifest(args.manifest).items()}
    ks = [int(x) for x in args.ks.split(",") if x]
    fprs = [float(x) for x in args.fpr.split(",") if x]
    report = metrics.evaluate_lists(
        lists,
        identities,
        ks=ks,
        fprs=fprs,
        tpr_depth=args.tpr_depth,
        ceiling_k=max(ks),
    )
    metrics.write_report(report, args.out)
    print(report.to_json(), end="")
    return 0


def _add_diag_strips(sub) -> None:
    p = sub.add_parser("diag-strips", help="strip cosine matrix for one pair")
    p.add_argument("--features", required=True)
    p.add_argument("--checkpoint", default=None, help="absent: raw feature maps")
    p.add_argument("--pair", required=True, help="probe_seq_id,candidate_seq_id")
    p.add_argument("--out", required=True)


def _cmd_diag_strips(args) -> int:
    features = load_feature_set(args.features)
    parts = args.pair.split(",")
    if len(parts) != 2:
        raise ValueError(f"--pair must be two ids separated by a comma, got {args.pair!r}")
    f_p = features.get(parts[0].strip()).strips
    f_c = features.get(parts[1].strip()).strips
    if args.checkpoint:
        weights, _, _ = load_checkpoint(args.checkpoint)
        pair = attended_pair(f_p, f_c, weights)
        matrix = metrics.strip_cosine_matrix(pair.e_p, pair.e_c)
    else:
        matrix = metrics.strip_cosine_matrix(f_p, f_c)
    metrics.write_cosine_csv(matrix, args.out)
    print(json.dumps({"shape": list(matrix.shape), "out": str(args.out)}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitrerank",
        description="cross-attention re-ranking for strip-structured gait embeddings",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"gaitrerank {__version__} "
            f"(features {MAGIC.decode()}, checkpoint "
            f"{CHECKPOINT_MAGIC.decode()} v{CHECKPOINT_VERSION}, baseline "
            f"{baseline.BASELINE_MAGIC.decode()} v{baseline.BASELINE_VERSION})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_rank(sub)
    _add_build_trainset(sub)
    _add_train(sub)
    _add_train_baseline(sub)
    _add_rerank(sub)
    _add_eval(sub)
    _add_diag_strips(sub)
    return parser


_COMMANDS = {
    "synth": _cmd_synth,
    "rank": _cmd_rank,
    "build-trainset": _cmd_build_trainset,
    "train": _cmd_train,
    "train-baseline": _cmd_train_baseline,
    "rerank": _cmd_rerank,
    "eval": _cmd_eval,
    "diag-strips": _cmd_diag_strips,
}


def _report(error: str, exc: Exception) -> None:
    # notes added on the way up (such as the probe a re-rank failed on)
    # lead the message
    message = ": ".join([*getattr(exc, "__notes__", ()), str(exc)])
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        _report("missing-file", exc)
        return 3
    except ValueError as exc:
        _report("invalid-value", exc)
        return 2
    except KeyError as exc:
        _report("missing-id", exc)
        return EXIT_CODES["missing-id"]
    except ArtifactError as exc:
        _report(exc.kind, exc)
        return EXIT_CODES.get(exc.kind, EXIT_CODES["error"])


if __name__ == "__main__":
    sys.exit(main())
