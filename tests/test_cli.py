import json

import numpy as np
import pytest

from gaitrerank.baseline import BaselineConfig, init_baseline, save_baseline
from gaitrerank.cli import main
from gaitrerank.feature_store import load_feature_set, manifest_path
from gaitrerank.metrics import read_report
from gaitrerank.ranking import read_ranked_lists
from gaitrerank.reranker import RerankerConfig, init_weights, load_checkpoint, save_checkpoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny synth set plus its first-stage ranking, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    feats = root / "feats.gfm"
    lists = root / "initial.jsonl"
    assert main(["synth", "--ids", "12", "--per-id", "3", "--strips", "4",
                 "--dim", "6", "--seed", "3", "--out", str(feats)]) == 0
    assert main(["rank", "--probes", str(feats), "--gallery", str(feats),
                 "--out", str(lists)]) == 0
    return root


def test_synth_reports_summary_and_writes_set(tmp_path, capsys):
    out = tmp_path / "f.gfm"
    code, stdout, _ = run(capsys, "synth", "--ids", "6", "--per-id", "2",
                          "--strips", "3", "--dim", "4", "--seed", "1",
                          "--out", str(out))
    assert code == 0
    rec = json.loads(stdout)
    assert rec["sequences"] == 12 and rec["identities"] == 6
    assert 0.0 <= rec["rank1"] <= rec["rank10"] <= 1.0
    fs = load_feature_set(out)
    assert len(fs) == 12


def test_synth_is_deterministic_across_processes(tmp_path, capsys):
    a, b = tmp_path / "a.gfm", tmp_path / "b.gfm"
    for out in (a, b):
        assert run(capsys, "synth", "--ids", "4", "--per-id", "2",
                   "--strips", "3", "--dim", "4", "--seed", "9",
                   "--out", str(out))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_bad_flag_value_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--ids", "1", "--per-id", "2",
                       "--out", str(tmp_path / "x.gfm"))
    assert code == 2
    assert json.loads(err)["error"] == "invalid-value"


def test_rank_missing_input_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "rank", "--probes", str(tmp_path / "no.gfm"),
                       "--gallery", str(tmp_path / "no.gfm"),
                       "--out", str(tmp_path / "o.jsonl"))
    assert code == 3
    assert json.loads(err)["error"] == "missing-file"


def test_rank_output_is_sorted_and_complete(workdir):
    lists = read_ranked_lists(workdir / "initial.jsonl")
    assert len(lists) == 36
    for rl in lists:
        assert len(rl.items) == 35  # leave-one-out
        d = rl.distances()
        assert d == sorted(d)


def test_corrupt_features_exit_4(capsys, tmp_path, workdir):
    bad = tmp_path / "bad.gfm"
    blob = (workdir / "feats.gfm").read_bytes()
    bad.write_bytes(b"XXXX" + blob[4:])
    manifest_path(bad).write_text(manifest_path(workdir / "feats.gfm").read_text())
    code, _, err = run(capsys, "rank", "--probes", str(bad),
                       "--gallery", str(bad), "--out", str(tmp_path / "o.jsonl"))
    assert code == 4
    assert json.loads(err)["error"] == "format"


def test_full_training_pipeline_and_eval(tmp_path, capsys, workdir):
    feats = str(workdir / "feats.gfm")
    initial = str(workdir / "initial.jsonl")
    ts, vs = str(tmp_path / "train.jsonl"), str(tmp_path / "val.jsonl")
    code, stdout, _ = run(capsys, "build-trainset", "--features", feats,
                          "--v", "10", "--val-split", "0.25",
                          "--out-train", ts, "--out-val", vs)
    assert code == 0

    ckpt = str(tmp_path / "model.cgrk")
    code, stdout, _ = run(capsys, "train", "--trainset", ts, "--valset", vs,
                          "--features", feats, "--heads", "2", "--hidden", "8",
                          "--mlp-hidden", "8", "--lr", "1e-3", "--batch", "4x2",
                          "--iters", "10", "--tval", "5", "--val-triplets", "8",
                          "--out-checkpoint", ckpt, "--quiet")
    assert code == 0
    rec = json.loads(stdout)
    assert rec["best_iteration"] <= 10
    _, cfg, meta = load_checkpoint(ckpt)
    assert cfg.num_classes == 9  # 12 identities minus a 0.25 val split
    assert meta["alpha"] == 0.01 and meta["beta"] == 0.1

    rrk = str(tmp_path / "reranked.jsonl")
    code, stdout, _ = run(capsys, "rerank", "--checkpoint", ckpt,
                          "--probes", feats, "--gallery", feats,
                          "--initial", initial, "--k", "5", "--out", rrk)
    assert code == 0
    assert json.loads(stdout)["probes"] == 36
    reranked = read_ranked_lists(rrk)
    before = read_ranked_lists(initial)
    for a, b in zip(before, reranked):
        assert set(a.ids()[:5]) == set(b.ids()[:5])
        assert a.items[5:] == b.items[5:]

    report_path = str(tmp_path / "report.json")
    code, stdout, _ = run(capsys, "eval", "--lists", rrk,
                          "--manifest", str(workdir / "feats.gfm.manifest.json"),
                          "--ks", "1,5", "--fpr", "0.5",
                          "--out", report_path)
    assert code == 0
    report = read_report(report_path)
    assert report.probe_count == 36
    assert json.loads(stdout)["rank_k"]["5"] == report.rank_k[5]


def test_train_baseline_pipeline(tmp_path, capsys, workdir):
    feats = str(workdir / "feats.gfm")
    initial = str(workdir / "initial.jsonl")
    ts, vs = str(tmp_path / "train.jsonl"), str(tmp_path / "val.jsonl")
    assert run(capsys, "build-trainset", "--features", feats, "--v", "10",
               "--val-split", "0.25", "--out-train", ts, "--out-val", vs)[0] == 0
    ckpt = str(tmp_path / "baseline.cgbl")
    code, _, _ = run(capsys, "train-baseline", "--trainset", ts, "--valset", vs,
                     "--features", feats, "--hidden", "8", "--lr", "1e-3",
                     "--batch", "4x2", "--iters", "10", "--tval", "5",
                     "--val-triplets", "8", "--out-checkpoint", ckpt, "--quiet")
    assert code == 0
    out = str(tmp_path / "reranked.jsonl")
    code, _, _ = run(capsys, "rerank", "--baseline-checkpoint", ckpt,
                     "--probes", feats, "--gallery", feats,
                     "--initial", initial, "--k", "5", "--out", out)
    assert code == 0
    assert len(read_ranked_lists(out)) == 36


@pytest.mark.parametrize("command", ["train", "train-baseline"])
def test_train_sequence_missing_from_features_exits_8(tmp_path, capsys, workdir, command):
    ts = tmp_path / "train.jsonl"
    ts.write_text('{"v": 2}\n{"probe_id": "id000-00", "candidates": ["id000-01", '
                  '"ghost-00"], "distances": [0.1, 0.2], "positive": [true, false]}\n')
    code, _, err = run(capsys, command, "--trainset", str(ts), "--valset", str(ts),
                       "--features", str(workdir / "feats.gfm"), "--hidden", "8",
                       "--iters", "2", "--out-checkpoint", str(tmp_path / "m.bin"),
                       "--quiet")
    assert code == 8
    rec = json.loads(err)
    assert rec == {"error": "missing-id", "message": "no features for sequence 'ghost-00'"}


def test_rerank_timing_flag_gates_latency_field(tmp_path, capsys, workdir):
    feats = str(workdir / "feats.gfm")
    initial = str(workdir / "initial.jsonl")
    cfg = RerankerConfig(s=4, d=6, num_classes=9, heads=2, hidden=8, mlp_hidden=8)
    ckpt = tmp_path / "w.cgrk"
    save_checkpoint(init_weights(cfg, seed=0), ckpt)

    quiet_out = tmp_path / "a.jsonl"
    timed_out = tmp_path / "b.jsonl"
    assert run(capsys, "rerank", "--checkpoint", str(ckpt), "--probes", feats,
               "--gallery", feats, "--initial", initial,
               "--out", str(quiet_out))[0] == 0
    assert run(capsys, "rerank", "--checkpoint", str(ckpt), "--probes", feats,
               "--gallery", feats, "--initial", initial,
               "--out", str(timed_out), "--timing")[0] == 0
    assert "latency_ms" not in quiet_out.read_text()
    assert all(
        "latency_ms" in line for line in timed_out.read_text().strip().splitlines()
    )


def test_rerank_missing_probe_exits_8(tmp_path, capsys, workdir):
    feats = str(workdir / "feats.gfm")
    cfg = RerankerConfig(s=4, d=6, num_classes=9, heads=2, hidden=8, mlp_hidden=8)
    ckpt = tmp_path / "w.cgrk"
    save_checkpoint(init_weights(cfg, seed=0), ckpt)
    rogue = tmp_path / "rogue.jsonl"
    rogue.write_text('{"probe_id":"ghost-00","items":[["id000-00",0.5]]}\n')
    code, _, err = run(capsys, "rerank", "--checkpoint", str(ckpt),
                       "--probes", feats, "--gallery", feats,
                       "--initial", str(rogue), "--out", str(tmp_path / "o.jsonl"))
    assert code == 8
    assert json.loads(err)["error"] == "missing-id"


def test_rerank_baseline_missing_candidate_names_probe(tmp_path, capsys, workdir):
    feats = str(workdir / "feats.gfm")
    ckpt = tmp_path / "b.cgbl"
    save_baseline(init_baseline(BaselineConfig(s=4, d=6, hidden=8), seed=0), ckpt)
    rogue = tmp_path / "rogue.jsonl"
    rogue.write_text('{"probe_id":"id000-00","items":[["ghost-00",0.5]]}\n')
    code, _, err = run(capsys, "rerank", "--baseline-checkpoint", str(ckpt),
                       "--probes", feats, "--gallery", feats,
                       "--initial", str(rogue), "--out", str(tmp_path / "o.jsonl"))
    assert code == 8
    rec = json.loads(err)
    assert rec["error"] == "missing-id"
    assert "id000-00" in rec["message"] and "ghost-00" in rec["message"]


def test_diag_strips_with_and_without_checkpoint(tmp_path, capsys, workdir):
    feats = str(workdir / "feats.gfm")
    out = tmp_path / "cos.csv"
    code, stdout, _ = run(capsys, "diag-strips", "--features", feats,
                          "--pair", "id000-00,id001-00", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["shape"] == [4, 4]
    raw = out.read_text()

    cfg = RerankerConfig(s=4, d=6, num_classes=9, heads=2, hidden=8, mlp_hidden=8)
    ckpt = tmp_path / "w.cgrk"
    save_checkpoint(init_weights(cfg, seed=1), ckpt)
    code, _, _ = run(capsys, "diag-strips", "--features", feats,
                     "--checkpoint", str(ckpt),
                     "--pair", "id000-00,id001-00", "--out", str(out))
    assert code == 0
    assert out.read_text() != raw

    code, _, err = run(capsys, "diag-strips", "--features", feats,
                       "--pair", "id000-00,ghost-00", "--out", str(out))
    assert code == 8


def test_version_names_formats(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    stdout = capsys.readouterr().out
    assert "GFM1" in stdout and "CGRK" in stdout and "CGBL" in stdout


@pytest.mark.parametrize(
    "manifest",
    [
        '{"id000-00": {"identity": "id000"',  # malformed JSON
        '["id000-00", "id000"]',  # not an object
        '{"id000-00": {"partition": "train"}}',  # record without "identity"
    ],
    ids=["bad-json", "not-object", "no-identity"],
)
def test_eval_bad_manifest_exits_4(tmp_path, capsys, workdir, manifest):
    bad = tmp_path / "manifest.json"
    bad.write_text(manifest)
    code, _, err = run(capsys, "eval", "--lists", str(workdir / "initial.jsonl"),
                       "--manifest", str(bad), "--out", str(tmp_path / "r.json"))
    assert code == 4
    assert json.loads(err)["error"] == "format"


@pytest.mark.parametrize(
    "target, edit",
    [
        ("manifest", lambda m: list(m)),
        ("manifest", lambda m: {**m, next(iter(m)): "id000"}),
        ("manifest", lambda m: {k: {**r, "partition": ["train"]} for k, r in m.items()}),
        ("trainset", lambda recs: [["v", 5]] + recs[1:]),
        ("trainset", lambda recs: recs[:1] + [{**recs[1], "candidates": 5}] + recs[2:]),
        ("trainset", lambda recs: recs[:1] + [{**recs[1], "positive": 5}] + recs[2:]),
    ],
    ids=["manifest-array", "record-string", "partition-list",
         "header-array", "candidates-number", "positive-number"],
)
def test_malformed_manifest_or_trainset_exits_4(tmp_path, capsys, workdir, target, edit):
    feats = tmp_path / "feats.gfm"
    feats.write_bytes((workdir / "feats.gfm").read_bytes())
    manifest = json.loads(manifest_path(workdir / "feats.gfm").read_text())
    if target == "manifest":
        manifest = edit(manifest)
    manifest_path(feats).write_text(json.dumps(manifest))
    if target == "manifest":
        argv = ["rank", "--probes", str(feats), "--gallery", str(feats),
                "--out", str(tmp_path / "o.jsonl")]
    else:
        ts, vs = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
        assert main(["build-trainset", "--features", str(feats), "--v", "5",
                     "--val-split", "0.25", "--out-train", str(ts), "--out-val", str(vs)]) == 0
        recs = [json.loads(line) for line in ts.read_text().splitlines()]
        ts.write_text("".join(json.dumps(r) + "\n" for r in edit(recs)))
        argv = ["train", "--trainset", str(ts), "--valset", str(vs), "--features", str(feats),
                "--iters", "1", "--out-checkpoint", str(tmp_path / "m.cgrk"), "--quiet"]
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert json.loads(err)["error"] == "format"


@pytest.mark.parametrize("command", ["train", "train-baseline"])
@pytest.mark.parametrize("v", ["1", "true", '"30"'], ids=["one", "bool", "string"])
def test_trainset_header_v_must_be_an_integer_at_least_2(tmp_path, capsys, workdir, command, v):
    ts, vs = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    assert main(["build-trainset", "--features", str(workdir / "feats.gfm"), "--v", "5",
                 "--val-split", "0.25", "--out-train", str(ts), "--out-val", str(vs)]) == 0
    lines = ts.read_text().splitlines()
    ts.write_text("\n".join([f'{{"v": {v}}}', *lines[1:]]) + "\n")
    code, _, err = run(capsys, command, "--trainset", str(ts), "--valset", str(vs),
                       "--features", str(workdir / "feats.gfm"), "--iters", "1",
                       "--out-checkpoint", str(tmp_path / "m.bin"), "--quiet")
    assert code == 4
    assert json.loads(err)["error"] == "format"


@pytest.mark.parametrize(
    "items, code",
    [
        ('[["id000-01",NaN],["id001-00",0.5]]', 7),
        ('[["id000-01",0.5],["id001-00",0.25]]', 4),
        ('[["id000-01",0.25],["id000-01",0.5]]', 4),
    ],
    ids=["nan", "descending", "duplicate"],
)
def test_eval_bad_ranked_list_exits(tmp_path, capsys, workdir, items, code):
    lists = tmp_path / "lists.jsonl"
    lists.write_text(f'{{"probe_id":"id000-00","items":{items}}}\n')
    got, _, err = run(capsys, "eval", "--lists", str(lists),
                      "--manifest", str(workdir / "feats.gfm.manifest.json"),
                      "--out", str(tmp_path / "r.json"))
    assert got == code
    assert json.loads(err)["error"] == {7: "non-finite", 4: "format"}[code]
