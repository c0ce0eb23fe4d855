import json
import re
import warnings

import numpy as np
import pytest

from gaitrerank import cli, training
from gaitrerank.baseline import BaselineConfig, init_baseline, load_baseline, save_baseline
from gaitrerank.cli import main
from gaitrerank.feature_store import load_feature_set, manifest_path
from gaitrerank.metrics import read_report, strip_cosine_matrix, write_cosine_csv
from gaitrerank.inference import rerank_all
from gaitrerank.ranking import read_ranked_lists, write_ranked_lists
from gaitrerank.reranker import (
    RerankerConfig,
    attended_pair,
    init_weights,
    load_checkpoint,
    save_checkpoint,
)


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


def test_synth_refuses_an_unknown_partition_before_generating(capsys, tmp_path):
    out = tmp_path / "x.gfm"
    code, stdout, err = run(capsys, "synth", "--ids", "2", "--per-id", "2",
                            "--partition", "bogus", "--out", str(out))
    assert code == 2 and stdout == ""
    assert json.loads(err) == {
        "error": "invalid-value",
        "message": "--partition must be one of ('train', 'val', 'gallery', 'probe'), "
                   "got 'bogus'",
    }
    assert not out.exists()


def test_rank_loads_a_file_named_by_both_flags_once(tmp_path, capsys, workdir, monkeypatch):
    loaded = []

    def counting(path):
        loaded.append(path)
        return load_feature_set(path)

    monkeypatch.setattr(cli, "load_feature_set", counting)
    feats = workdir / "feats.gfm"
    copy = tmp_path / "copy.gfm"
    copy.write_bytes(feats.read_bytes())
    manifest_path(copy).write_bytes(manifest_path(feats).read_bytes())
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    assert run(capsys, "rank", "--probes", str(feats), "--gallery", str(feats),
               "--out", str(once))[0] == 0
    assert loaded == [str(feats)]
    assert run(capsys, "rank", "--probes", str(feats), "--gallery", str(copy),
               "--out", str(twice))[0] == 0
    assert loaded == [str(feats), str(feats), str(copy)]
    assert once.read_bytes() == twice.read_bytes()


@pytest.mark.parametrize("missing", ["probes", "gallery"])
def test_rank_names_a_missing_probes_or_gallery_file(tmp_path, capsys, workdir, missing):
    feats, ghost = str(workdir / "feats.gfm"), str(tmp_path / "ghost.gfm")
    probes, gallery = (ghost, feats) if missing == "probes" else (feats, ghost)
    code, _, err = run(capsys, "rank", "--probes", probes, "--gallery", gallery,
                       "--out", str(tmp_path / "o.jsonl"))
    assert code == 3
    assert json.loads(err) == {"error": "missing-file", "message": ghost}
    assert not (tmp_path / "o.jsonl").exists()


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


def test_rank_probes_of_another_shape_exit_5_naming_the_first(capsys, tmp_path, workdir):
    probes, out = tmp_path / "probes.gfm", tmp_path / "o.jsonl"
    assert run(capsys, "synth", "--ids", "2", "--per-id", "2", "--strips", "3", "--dim", "5",
               "--seed", "1", "--out", str(probes))[0] == 0
    first = load_feature_set(probes).sequence_ids[0]
    code, stdout, err = run(capsys, "rank", "--probes", str(probes),
                            "--gallery", str(workdir / "feats.gfm"), "--out", str(out))
    assert code == 5 and stdout == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "shape",
        "message": f"probe {first!r}: probe {first!r} is (3, 5), gallery declares (4, 6)",
    }
    assert not out.exists()


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
    code, _, _ = run(capsys, "rerank", "--checkpoint", ckpt,
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


@pytest.mark.parametrize("model", ["cgrk", "cgbl"])
def test_rerank_takes_the_model_its_checkpoint_names_and_writes_the_same_bytes_every_run(
        tmp_path, capsys, workdir, model):
    feats, initial = str(workdir / "feats.gfm"), workdir / "initial.jsonl"
    ckpt = _model_file(tmp_path, model, 4, 6)
    weights, _, _ = (load_checkpoint if model == "cgrk" else load_baseline)(ckpt)
    fs = load_feature_set(feats)
    want = tmp_path / "want.jsonl"
    write_ranked_lists(rerank_all(fs, read_ranked_lists(initial), fs, weights, k=5)[0], want)
    assert want.read_bytes() != initial.read_bytes()  # the model re-orders some prefix
    for out in (tmp_path / "a.jsonl", tmp_path / "b.jsonl"):
        code, stdout, _ = run(capsys, "rerank", "--checkpoint", ckpt, "--probes", feats,
                              "--gallery", feats, "--initial", str(initial), "--k", "5",
                              "--out", str(out))
        assert code == 0
        assert sorted(json.loads(stdout)) == ["mean_latency_ms", "out", "probes"]
        assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("flag", [["--timing"], ["--baseline-checkpoint", "m.cgbl"]])
def test_rerank_has_no_mode_flags(tmp_path, capsys, workdir, flag):
    feats, out = str(workdir / "feats.gfm"), tmp_path / "o.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["rerank", "--checkpoint", _model_file(tmp_path, "cgrk", 4, 6), "--probes", feats,
              "--gallery", feats, "--initial", str(workdir / "initial.jsonl"),
              "--out", str(out), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("blob, message", [
    (None, ""),
    (b"", ": truncated checkpoint header"),
    (b"CG", ": truncated checkpoint header"),
    (b"CGRK" + bytes(6), ": truncated checkpoint header"),
    (b"CGBL" + bytes(6), ": truncated checkpoint header"),
    (b"XXXX" + bytes(40), ": bad magic b'XXXX'"),
], ids=["missing", "empty", "short", "cut-cgrk", "cut-cgbl", "magic"])
def test_rerank_reports_a_bad_checkpoint_after_its_other_inputs(tmp_path, capsys, workdir,
                                                                 blob, message):
    feats, out, ckpt = str(workdir / "feats.gfm"), tmp_path / "o.jsonl", tmp_path / "m.bin"
    if blob is not None:
        ckpt.write_bytes(blob)
    argv = ["rerank", "--checkpoint", str(ckpt), "--probes", feats, "--gallery", feats,
            "--out", str(out), "--initial"]
    code, _, err = run(capsys, *argv, str(workdir / "initial.jsonl"))
    assert code == (3 if blob is None else 4)
    assert json.loads(err) == {"error": "missing-file" if blob is None else "format",
                               "message": f"{ckpt}{message}"}
    # a missing initial list is reported before the checkpoint is read
    ghost = str(tmp_path / "ghost.jsonl")
    assert json.loads(run(capsys, *argv, ghost)[2]) == {"error": "missing-file", "message": ghost}
    assert not out.exists()


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
    code, _, err = run(capsys, "rerank", "--checkpoint", str(ckpt),
                       "--probes", feats, "--gallery", feats,
                       "--initial", str(rogue), "--out", str(tmp_path / "o.jsonl"))
    assert code == 8
    rec = json.loads(err)
    assert rec["error"] == "missing-id"
    assert "id000-00" in rec["message"] and "ghost-00" in rec["message"]


def _model_file(tmp_path, model, s, d):
    """A ``model`` ("cgrk": the re-ranker, "cgbl": the baseline) at strip
    shape (s, d)."""
    if model == "cgrk":
        path = tmp_path / "w.cgrk"
        cfg = RerankerConfig(s=s, d=d, num_classes=9, heads=2, hidden=8, mlp_hidden=8)
        save_checkpoint(init_weights(cfg, seed=0), path)
    else:
        path = tmp_path / "b.cgbl"
        save_baseline(init_baseline(BaselineConfig(s=s, d=d, hidden=8), seed=0), path)
    return str(path)


@pytest.mark.parametrize("model", ["cgrk", "cgbl"])
@pytest.mark.parametrize("lists", ["empty", "full"])
@pytest.mark.parametrize("k", ["0", "-3"])
def test_rerank_refuses_k_below_1_before_any_probe(tmp_path, capsys, workdir, model, lists, k):
    feats, out = str(workdir / "feats.gfm"), tmp_path / "o.jsonl"
    initial = workdir / "initial.jsonl"
    if lists == "empty":
        initial = tmp_path / "empty.jsonl"
        initial.write_text("")
    code, _, err = run(capsys, "rerank", "--checkpoint", _model_file(tmp_path, model, 4, 6),
                       "--probes", feats, "--gallery", feats, "--initial", str(initial),
                       "--k", k, "--out", str(out))
    assert code == 9
    assert json.loads(err) == {"error": "data", "message": f"k must be >= 1, got {k}"}
    assert not out.exists()


@pytest.mark.parametrize("model", ["cgrk", "cgbl"])
def test_rerank_model_of_another_shape_exits_5_naming_the_first_probe(tmp_path, capsys, workdir,
                                                                      model):
    feats, out = str(workdir / "feats.gfm"), tmp_path / "o.jsonl"
    initial = workdir / "initial.jsonl"
    first = read_ranked_lists(initial)[0].probe_id
    code, stdout, err = run(capsys, "rerank", "--checkpoint", _model_file(tmp_path, model, 3, 5),
                            "--probes", feats, "--gallery", feats, "--initial", str(initial),
                            "--out", str(out))
    assert code == 5 and stdout == ""
    assert err.endswith("\n") and err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "shape"
    assert report["message"].startswith(f"probe {first!r}: ")
    assert not out.exists()


def test_rerank_model_of_another_shape_has_one_message_for_both_models(tmp_path, capsys,
                                                                      workdir):
    feats, out = str(workdir / "feats.gfm"), tmp_path / "o.jsonl"
    initial = workdir / "initial.jsonl"
    first = read_ranked_lists(initial)[0].probe_id
    for model in ("cgrk", "cgbl"):
        code, _, err = run(capsys, "rerank", "--checkpoint", _model_file(tmp_path, model, 3, 5),
                           "--probes", feats, "--gallery", feats, "--initial", str(initial),
                           "--out", str(out))
        assert code == 5
        assert json.loads(err) == {
            "error": "shape",
            "message": f"probe {first!r}: probe maps are (4, 6), the model declares (3, 5)",
        }
        assert not out.exists()


def test_rerank_whose_projections_overflow_exits_7_with_no_warning_first(tmp_path, capsys,
                                                                        workdir):
    feats, out = str(workdir / "feats.gfm"), tmp_path / "o.jsonl"
    initial = workdir / "initial.jsonl"
    first = read_ranked_lists(initial)[0].probe_id
    # a finite float32 model whose four projections overflow float32; the
    # test suite raises any numpy RuntimeWarning, so this also checks that
    # none is printed before the error
    w = init_weights(RerankerConfig(s=4, d=6, num_classes=3, heads=2, hidden=8, mlp_hidden=8),
                     seed=0)
    for name in ("w_q", "w_k", "w_v", "w_o"):
        w.block(0)[name][...] = 3e30
    ckpt = tmp_path / "big.cgrk"
    save_checkpoint(w, ckpt)
    code, stdout, err = run(capsys, "rerank", "--checkpoint", str(ckpt), "--probes", feats,
                            "--gallery", feats, "--initial", str(initial), "--out", str(out))
    assert code == 7 and stdout == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "non-finite",
        "message": f"probe {first!r}: pair_distances produced non-finite values",
    }
    assert not out.exists()


def test_rerank_baseline_whose_scores_overflow_exits_7_naming_the_first_probe(tmp_path, capsys,
                                                                               workdir):
    feats, out = str(workdir / "feats.gfm"), tmp_path / "o.jsonl"
    initial = workdir / "initial.jsonl"
    first = read_ranked_lists(initial)[0].probe_id
    # a finite model whose logits sum past float32's range: +inf for every pair
    w = init_baseline(BaselineConfig(s=4, d=6, hidden=8), seed=0)
    p = w.params()
    p["w1"][...] = 0
    p["b1"][...] = 1
    p["w2"][...] = 3e38
    ckpt = tmp_path / "big.cgbl"
    save_baseline(w, ckpt)
    code, stdout, err = run(capsys, "rerank", "--checkpoint", str(ckpt),
                            "--probes", feats, "--gallery", feats, "--initial", str(initial),
                            "--out", str(out))
    assert code == 7 and stdout == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "non-finite",
        "message": f"probe {first!r}: baseline_scores produced non-finite values",
    }
    assert not out.exists()


@pytest.mark.parametrize("model", ["cgrk", "cgbl"])
@pytest.mark.parametrize("side", ["probes", "gallery"])
def test_rerank_probes_and_gallery_of_different_shapes_exit_5(tmp_path, capsys, workdir,
                                                              model, side):
    feats, out = str(workdir / "feats.gfm"), tmp_path / "o.jsonl"
    initial = workdir / "initial.jsonl"
    first = read_ranked_lists(initial)[0].probe_id
    gallery = tmp_path / "gallery.gfm"
    assert main(["synth", "--ids", "12", "--per-id", "3", "--strips", "3",
                 "--dim", "6", "--seed", "3", "--out", str(gallery)]) == 0
    capsys.readouterr()
    # the model matches one side; the other side is named
    shape, other = ((4, 6), "gallery maps are (3, 6)") if side == "probes" else (
        (3, 6), "probe maps are (4, 6)")
    code, _, err = run(capsys, "rerank", "--checkpoint", _model_file(tmp_path, model, *shape),
                       "--probes", feats, "--gallery", str(gallery), "--initial", str(initial),
                       "--out", str(out))
    assert code == 5
    assert json.loads(err)["message"] == f"probe {first!r}: {other}, the model declares {shape}"
    assert not out.exists()


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
    w = init_weights(cfg, seed=1)
    save_checkpoint(w, ckpt)
    code, _, _ = run(capsys, "diag-strips", "--features", feats,
                     "--checkpoint", str(ckpt),
                     "--pair", "id000-00,id001-00", "--out", str(out))
    assert code == 0
    assert out.read_text() != raw
    fs = load_feature_set(feats)
    f_p, f_c = fs.get("id000-00").strips, fs.get("id001-00").strips
    want = tmp_path / "want.csv"
    write_cosine_csv(strip_cosine_matrix(*attended_pair(f_p, f_c, w)), want)
    assert out.read_bytes() == want.read_bytes()

    code, _, err = run(capsys, "diag-strips", "--features", feats,
                       "--pair", "id000-00,ghost-00", "--out", str(out))
    assert code == 8


def test_diag_strips_names_the_missing_id(tmp_path, capsys, workdir):
    code, stdout, err = run(capsys, "diag-strips", "--features", str(workdir / "feats.gfm"),
                            "--pair", "ghost,id000-00", "--out", str(tmp_path / "cos.csv"))
    assert code == 8 and stdout == ""
    assert err == ('{"error": "missing-id", "message": "no features for sequence \'ghost\'"}\n')
    assert not (tmp_path / "cos.csv").exists()


@pytest.mark.parametrize("model", ["cgrk", "cgbl"])
def test_rerank_and_diag_strips_build_no_entries(tmp_path, capsys, workdir, monkeypatch, model):
    loaded = []

    def keeping(path):
        loaded.append(load_feature_set(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_feature_set", keeping)
    feats = str(workdir / "feats.gfm")
    ckpt = _model_file(tmp_path, model, 4, 6)
    assert run(capsys, "rerank", "--checkpoint", ckpt, "--probes", feats, "--gallery", feats,
               "--initial", str(workdir / "initial.jsonl"), "--k", "3",
               "--out", str(tmp_path / "o.jsonl"))[0] == 0
    argv = ["--checkpoint", ckpt] if model == "cgrk" else []
    assert run(capsys, "diag-strips", "--features", feats, *argv,
               "--pair", "id000-00,id001-00", "--out", str(tmp_path / "cos.csv"))[0] == 0
    assert len(loaded) == 2
    assert all("entries" not in vars(fs) for fs in loaded)


def test_rerank_refuses_k_below_1_before_a_missing_probe(tmp_path, capsys, workdir):
    feats, out = str(workdir / "feats.gfm"), tmp_path / "o.jsonl"
    rogue = tmp_path / "rogue.jsonl"
    rogue.write_text('{"probe_id":"ghost-00","items":[["id000-00",0.5]]}\n')
    argv = ["rerank", "--checkpoint", _model_file(tmp_path, "--checkpoint", 4, 6),
            "--probes", feats, "--gallery", feats, "--initial", str(rogue), "--out", str(out)]
    code, _, err = run(capsys, *argv, "--k", "0")
    assert code == 9
    assert json.loads(err) == {"error": "data", "message": "k must be >= 1, got 0"}
    code, _, err = run(capsys, *argv)
    assert code == 8
    assert json.loads(err) == {"error": "missing-id",
                               "message": "no probe features for 'ghost-00'"}
    assert not out.exists()


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


def _first_record(**fields):
    """Edit for a training set's parsed records: replace ``fields`` of the
    first entry, each given as a function of its old value."""
    return lambda recs: [recs[0], {**recs[1], **{k: f(recs[1][k]) for k, f in fields.items()}},
                         *recs[2:]]


@pytest.mark.parametrize(
    "target, edit, code",
    [
        ("manifest", lambda m: list(m), 4),
        ("manifest", lambda m: {**m, next(iter(m)): "id000"}, 4),
        ("manifest", lambda m: {k: {**r, "partition": ["train"]} for k, r in m.items()}, 4),
        ("trainset", lambda recs: [["v", 5]] + recs[1:], 4),
        ("trainset", _first_record(candidates=lambda c: 5), 4),
        ("trainset", _first_record(positive=lambda p: 5), 4),
        # every field must hold its own JSON type: no string, number or
        # bool is converted into another
        ("trainset", _first_record(positive=lambda p: ["false" if x else "no" for x in p]), 4),
        ("trainset", _first_record(distances=lambda d: [str(x) for x in d]), 4),
        ("trainset", _first_record(distances=lambda d: [True, *d[1:]]), 4),
        ("trainset", _first_record(candidates=lambda c: [7, *c[1:]]), 4),
        ("trainset", _first_record(probe_id=lambda p: 7), 4),
        # a non-finite distance exits 7, as in a ranked list
        ("trainset", _first_record(distances=lambda d: [float("nan"), *d[1:]]), 7),
        ("trainset", _first_record(distances=lambda d: [*d[:-1], float("inf")]), 7),
        # records build-trainset never writes and read_ranked_lists refuses
        ("trainset", lambda recs: [recs[0], {**recs[1], "candidates": [
            recs[1]["probe_id"], *recs[1]["candidates"][1:]]}, *recs[2:]], 4),
        ("trainset", _first_record(candidates=lambda c: [c[0], c[0], *c[2:]],
                                   positive=lambda p: [True, False, *p[2:]]), 4),
        ("trainset", _first_record(distances=lambda d: d[::-1]), 4),
    ],
    ids=["manifest-array", "record-string", "partition-list",
         "header-array", "candidates-number", "positive-number",
         "positive-strings", "distances-strings", "distance-bool", "candidate-number",
         "probe-number", "distance-nan", "distance-inf", "probe-among-candidates",
         "candidate-twice", "distances-descending"],
)
def test_malformed_manifest_or_trainset_exits_4(tmp_path, capsys, workdir, target, edit, code):
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
    got, _, err = run(capsys, *argv)
    assert got == code
    assert json.loads(err)["error"] == {7: "non-finite", 4: "format"}[code]


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
        ('[[5,0.25],["id001-00",0.5]]', 4),
        ('[["id000-01","0.25"],["id001-00",0.5]]', 4),
        ('[["id000-01",false],["id001-00",0.5]]', 4),
        ('[["id000-01",0.25,1],["id001-00",0.5]]', 4),
        ('"ab"', 4),
    ],
    ids=["nan", "descending", "duplicate", "number-id", "string-distance", "bool-distance",
         "triple", "string-items"],
)
def test_eval_bad_ranked_list_exits(tmp_path, capsys, workdir, items, code):
    lists = tmp_path / "lists.jsonl"
    lists.write_text(f'{{"probe_id":"id000-00","items":{items}}}\n')
    got, _, err = run(capsys, "eval", "--lists", str(lists),
                      "--manifest", str(workdir / "feats.gfm.manifest.json"),
                      "--out", str(tmp_path / "r.json"))
    assert got == code
    assert json.loads(err)["error"] == {7: "non-finite", 4: "format"}[code]


@pytest.mark.parametrize(
    "target", ["features-id", "manifest", "ranked-list", "trainset", "checkpoint-meta"]
)
def test_non_utf8_input_exits_4(tmp_path, capsys, workdir, target):
    feats, lists = tmp_path / "feats.gfm", tmp_path / "initial.jsonl"
    for name, dst in [("feats.gfm", feats), ("feats.gfm.manifest.json", manifest_path(feats)),
                      ("initial.jsonl", lists)]:
        dst.write_bytes((workdir / name).read_bytes())
    rank = ["rank", "--probes", str(feats), "--gallery", str(feats),
            "--out", str(tmp_path / "o.jsonl")]
    spoiled, argv = {
        # 16 header bytes and the u16 length lead to the first sequence id
        "features-id": ((feats, 18), rank),
        "manifest": ((manifest_path(feats), 0), rank),
        "ranked-list": ((lists, 0), ["eval", "--lists", str(lists), "--manifest",
                                     str(manifest_path(feats)), "--out", str(tmp_path / "r.json")]),
        "trainset": ((tmp_path / "train.jsonl", 0), [
            "train", "--trainset", str(tmp_path / "train.jsonl"),
            "--valset", str(tmp_path / "val.jsonl"), "--features", str(feats),
            "--iters", "1", "--out-checkpoint", str(tmp_path / "m.cgrk"), "--quiet"]),
        "checkpoint-meta": ((tmp_path / "m.cgrk.meta.json", 0), [
            "rerank", "--checkpoint", str(tmp_path / "m.cgrk"), "--probes", str(feats),
            "--gallery", str(feats), "--initial", str(lists), "--out", str(tmp_path / "o.jsonl")]),
    }[target]
    assert main(["build-trainset", "--features", str(feats), "--v", "5", "--val-split", "0.25",
                 "--out-train", str(tmp_path / "train.jsonl"),
                 "--out-val", str(tmp_path / "val.jsonl")]) == 0
    model = RerankerConfig(s=4, d=6, num_classes=12, heads=2, hidden=8, mlp_hidden=8)
    save_checkpoint(init_weights(model, seed=0), tmp_path / "m.cgrk", metadata={"run": 1})
    path, offset = spoiled
    blob = bytearray(path.read_bytes())
    blob[offset] = 0xFF  # never valid in UTF-8
    path.write_bytes(bytes(blob))
    code, _, err = run(capsys, *argv)
    assert code == 4, err
    assert json.loads(err)["error"] == "format"


@pytest.mark.parametrize(
    "command",
    ["synth", "rank", "build-trainset", "train", "train-baseline", "rerank", "eval", "diag-strips"],
)
def test_write_into_missing_directory_exits_3_naming_the_target(tmp_path, capsys, workdir, command):
    feats, lists = str(workdir / "feats.gfm"), str(workdir / "initial.jsonl")
    ts, vs, ckpt = tmp_path / "train.jsonl", tmp_path / "val.jsonl", tmp_path / "m.cgrk"
    out = str(tmp_path / "missing" / "out")
    if command in ("train", "train-baseline"):
        assert main(["build-trainset", "--features", feats, "--v", "5", "--val-split", "0.25",
                     "--out-train", str(ts), "--out-val", str(vs)]) == 0
    if command == "rerank":
        model = RerankerConfig(s=4, d=6, num_classes=9, heads=2, hidden=8, mlp_hidden=8)
        save_checkpoint(init_weights(model, seed=0), ckpt)
    fit = ["--trainset", str(ts), "--valset", str(vs), "--features", feats, "--hidden", "8",
           "--batch", "4x2", "--iters", "1", "--val-triplets", "8", "--out-checkpoint", out,
           "--quiet"]
    argv = {
        "synth": ["--ids", "6", "--per-id", "2", "--out", out],
        "rank": ["--probes", feats, "--gallery", feats, "--out", out],
        "build-trainset": ["--features", feats, "--v", "5", "--val-split", "0.25",
                           "--out-train", out, "--out-val", str(vs)],
        "train": [*fit, "--heads", "2", "--mlp-hidden", "8"],
        "train-baseline": fit,
        "rerank": ["--checkpoint", str(ckpt), "--probes", feats, "--gallery", feats,
                   "--initial", lists, "--out", out],
        "eval": ["--lists", lists, "--manifest", feats + ".manifest.json", "--out", out],
        "diag-strips": ["--features", feats, "--pair", "id000-00,id001-00", "--out", out],
    }[command]
    code, _, err = run(capsys, command, *argv)
    assert code == 3, err
    rec = json.loads(err)
    assert rec["error"] == "missing-file"
    assert out in rec["message"] and ".tmp" not in rec["message"]


@pytest.mark.parametrize("command", ["rank", "eval"])
def test_directory_in_place_of_a_file_exits_3_naming_it(tmp_path, capsys, workdir, command):
    feats, lists = str(workdir / "feats.gfm"), str(workdir / "initial.jsonl")
    folder = tmp_path / "a-directory"
    folder.mkdir()
    argv = {
        # the output is an existing directory
        "rank": ["--probes", feats, "--gallery", feats, "--k", "3", "--out", str(folder)],
        # the input is a directory
        "eval": ["--lists", str(folder), "--manifest", feats + ".manifest.json",
                 "--out", str(tmp_path / "r.json")],
    }[command]
    code, _, err = run(capsys, command, *argv)
    assert code == 3, err
    rec = json.loads(err)
    assert rec["error"] == "io" and str(folder) in rec["message"]


def test_rank_has_no_threads_flag(tmp_path, workdir):
    feats = str(workdir / "feats.gfm")
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--probes", feats, "--gallery", feats, "--threads", "2",
              "--out", str(tmp_path / "o.jsonl")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("synth", "--noise", "nan"),
        ("synth", "--noise", "inf"),
        ("synth", "--noise", "1e39"),  # finite, but the maps overflow float32
        ("train", "--lr", "nan"),
        ("train", "--lr", "inf"),
        ("train", "--wd", "nan"),
        ("train", "--wd", "inf"),
        ("train", "--alpha", "nan"),
        ("train", "--alpha", "inf"),
        ("train-baseline", "--lr", "nan"),
    ],
)
def test_non_finite_numeric_flag_exits_2(tmp_path, capsys, workdir, command, flag, value):
    out = tmp_path / "out.bin"
    if command == "synth":
        argv = ["--ids", "4", "--per-id", "2", "--strips", "2", "--dim", "2", "--out", str(out)]
    else:
        ts, vs = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
        assert main(["build-trainset", "--features", str(workdir / "feats.gfm"), "--v", "5",
                     "--val-split", "0.25", "--out-train", str(ts), "--out-val", str(vs)]) == 0
        capsys.readouterr()
        argv = ["--trainset", str(ts), "--valset", str(vs), "--features",
                str(workdir / "feats.gfm"), "--iters", "1", "--quiet", "--out-checkpoint", str(out)]
    code, _, err = run(capsys, command, *argv, flag, value)
    assert code == 2, err
    # one JSON line on stderr: no numpy warning ahead of it
    assert json.loads(err)["error"] == "invalid-value"
    assert not out.exists()


@pytest.mark.parametrize("ks", ["", ","])
def test_eval_without_a_k_exits_2_naming_the_flag(tmp_path, capsys, workdir, ks):
    out = tmp_path / "r.json"
    code, _, err = run(capsys, "eval", "--lists", str(workdir / "initial.jsonl"),
                       "--manifest", str(workdir / "feats.gfm.manifest.json"),
                       "--ks", ks, "--out", str(out))
    assert code == 2
    assert json.loads(err) == {"error": "invalid-value",
                               "message": f"--ks must name at least one K, got {ks!r}"}
    assert not out.exists()


def _readers_raise(monkeypatch):
    """Every file reader the CLI calls raises, so a flag check must come first."""
    def read(*args, **kwargs):
        raise AssertionError("read a file before checking the flags")

    for name in ("load_feature_set", "read_ranked_lists", "read_manifest", "load_checkpoint"):
        monkeypatch.setattr(cli, name, read)
    monkeypatch.setattr(cli.baseline, "load_baseline", read)


@pytest.mark.parametrize("flag, value, code, message", [
    ("--ks", "1,x", 2, "--ks must be a comma-separated list of ints, got '1,x'"),
    ("--fpr", "x", 2, "--fpr must be a comma-separated list of floats, got 'x'"),
    ("--tpr-depth", "0", 9, "--tpr-depth must be >= 1, got 0"),
    ("--ks", "0", 9, "--ks must list K values >= 1, got '0'"),
    ("--ks", "1,0,5", 9, "--ks must list K values >= 1, got '1,0,5'"),
    ("--fpr", "2", 9, "--fpr must list FPR targets in [0, 1], got '2'"),
    ("--fpr", "0.5,nan", 9, "--fpr must list FPR targets in [0, 1], got '0.5,nan'"),
])
def test_eval_names_the_flag_it_rejects(tmp_path, capsys, monkeypatch, flag, value, code,
                                        message):
    _readers_raise(monkeypatch)
    out, missing = tmp_path / "r.json", str(tmp_path / "missing")
    got, _, err = run(capsys, "eval", "--lists", missing, "--manifest", missing,
                      flag, value, "--out", str(out))
    assert got == code
    assert json.loads(err)["message"] == message
    assert not out.exists()


@pytest.mark.parametrize("fpr", ["nan", "inf", "-0.5", "2"])
def test_eval_fpr_target_outside_unit_interval_exits_9(tmp_path, capsys, workdir, fpr):
    out = tmp_path / "r.json"
    code, _, err = run(capsys, "eval", "--lists", str(workdir / "initial.jsonl"),
                       "--manifest", str(workdir / "feats.gfm.manifest.json"),
                       "--fpr", f"0.5,{fpr}", "--out", str(out))
    assert code == 9
    rec = json.loads(err)
    assert rec["error"] == "data" and "FPR" in rec["message"]
    assert not out.exists()


def test_build_trainset_v_below_2_exits_2_and_writes_nothing(tmp_path, capsys, workdir):
    ts, vs = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    code, _, err = run(capsys, "build-trainset", "--features", str(workdir / "feats.gfm"),
                       "--v", "1", "--val-split", "0.25", "--out-train", str(ts),
                       "--out-val", str(vs))
    assert code == 2
    assert json.loads(err) == {"error": "invalid-value",
                               "message": "v must be an integer >= 2, got 1"}
    assert not ts.exists() and not vs.exists()


@pytest.mark.parametrize("command", ["rank", "rerank"])
@pytest.mark.parametrize("k", ["0", "-2"])
def test_rank_refuses_k_below_1_before_reading_either_file(tmp_path, capsys, monkeypatch,
                                                           command, k):
    _readers_raise(monkeypatch)
    out = tmp_path / "ranked.jsonl"
    missing = str(tmp_path / "missing")
    argv = ["--checkpoint", missing, "--initial", missing] if command == "rerank" else []
    code, _, err = run(capsys, command, *argv, "--probes", missing, "--gallery", missing,
                       "--k", k, "--out", str(out))
    assert code == 9
    assert json.loads(err) == {"error": "data", "message": f"k must be >= 1, got {k}"}
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [("0", "0.0"), ("1", "1.0"), ("1.5", "1.5"),
                                          ("-0.1", "-0.1"), ("nan", "nan")])
def test_build_trainset_refuses_val_split_outside_0_1_before_reading(tmp_path, capsys,
                                                                     monkeypatch, value, shown):
    _readers_raise(monkeypatch)
    ts, vs = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    code, _, err = run(capsys, "build-trainset", "--features", str(tmp_path / "missing"),
                       "--v", "5", "--val-split", value, "--out-train", str(ts),
                       "--out-val", str(vs))
    assert code == 2
    assert json.loads(err) == {"error": "invalid-value",
                               "message": f"--val-split must be in (0, 1), got {shown}"}
    assert not ts.exists() and not vs.exists()


@pytest.mark.parametrize("command", ["train", "train-baseline"])
@pytest.mark.parametrize("which", ["training", "validation"])
def test_a_set_with_no_eligible_entry_exits_9_before_iteration_0(tmp_path, capsys, workdir,
                                                                 command, which):
    ts, vs = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    assert main(["build-trainset", "--features", str(workdir / "feats.gfm"), "--v", "5",
                 "--val-split", "0.25", "--out-train", str(ts), "--out-val", str(vs)]) == 0
    capsys.readouterr()
    # every candidate flagged negative: no entry can make a triplet
    target = ts if which == "training" else vs
    head, *recs = [json.loads(line) for line in target.read_text().splitlines()]
    target.write_text("".join(json.dumps(r) + "\n" for r in [head, *(
        {**r, "positive": [False] * len(r["positive"])} for r in recs)]))
    out = tmp_path / "model.bin"
    code, stdout, err = run(capsys, command, "--trainset", str(ts), "--valset", str(vs),
                            "--features", str(workdir / "feats.gfm"), "--hidden", "8",
                            "--iters", "3", "--tval", "1", "--out-checkpoint", str(out))
    assert code == 9 and stdout == ""
    assert "iter 0" not in err
    assert json.loads(err) == {
        "error": "data",
        "message": f"{which} set has no entry with both a positive and a negative"}
    assert not out.exists()


@pytest.mark.parametrize("v", ["0", "-3", "1"])
def test_build_trainset_refuses_v_below_2_before_ranking(tmp_path, capsys, workdir, monkeypatch, v):
    def rank_all(*args, **kwargs):
        raise AssertionError("ranked before checking v")

    monkeypatch.setattr(training, "rank_all", rank_all)
    ts, vs = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    code, _, err = run(capsys, "build-trainset", "--features", str(workdir / "feats.gfm"),
                       "--v", v, "--val-split", "0.25", "--out-train", str(ts),
                       "--out-val", str(vs))
    assert code == 2
    assert json.loads(err) == {"error": "invalid-value",
                               "message": f"v must be an integer >= 2, got {v}"}
    assert not ts.exists() and not vs.exists()


@pytest.mark.parametrize(
    "flag, value, cause",
    [
        ("--lr", "1e39", "non-finite weights: an AdamW step overflowed them"),
        ("--lr", "1e300", "non-finite weights: an AdamW step overflowed them"),
        ("--alpha", "1e308", "alpha * mean cross-entropy overflowed"),
    ],
)
def test_huge_finite_training_flag_exits_7_naming_its_cause(tmp_path, capsys, workdir, flag,
                                                            value, cause):
    ts, vs = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    assert main(["build-trainset", "--features", str(workdir / "feats.gfm"), "--v", "5",
                 "--val-split", "0.25", "--out-train", str(ts), "--out-val", str(vs)]) == 0
    capsys.readouterr()
    out = tmp_path / "model.cgrk"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "train", "--trainset", str(ts), "--valset", str(vs),
                           "--features", str(workdir / "feats.gfm"), "--heads", "2",
                           "--hidden", "8", "--mlp-hidden", "8", "--iters", "3", "--quiet",
                           "--out-checkpoint", str(out), flag, value)
    assert code == 7, err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in err
    # one JSON line on stderr, naming the cause and no triplet
    rec = json.loads(err)
    assert rec["error"] == "non-finite"
    assert rec["message"].startswith(cause) and "triplet" not in rec["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, cause",
    [
        ("train", "--lr", "1e39",
         r"non-finite weights: an AdamW step overflowed them at iteration 1 "
         r"\(lower lr=1e\+39 or weight_decay=0\.01\)"),
        # the decay leaves the weights finite but huge: the next forward
        # overflows on every triplet
        ("train", "--wd", "1e39",
         r"non-finite training loss on every triplet at iteration 2: the weights' scale "
         r"overflows \(lower lr=1e-05 or weight_decay=1e\+39\)"),
        ("train", "--alpha", "1e308",
         r"alpha \* mean cross-entropy overflowed at iteration 1 \(alpha=1e\+308\): lower alpha"),
        ("train-baseline", "--lr", "1e39",
         r"non-finite weights: an AdamW step overflowed them at iteration 1 "
         r"\(lower lr=1e\+39 or weight_decay=0\.01\)"),
        ("train-baseline", "--wd", "1e39",
         r"non-finite weights: an AdamW step overflowed them at iteration 2 "
         r"\(lower lr=1e-05 or weight_decay=1e\+39\)"),
    ],
    ids=["train-lr", "train-wd", "train-alpha", "baseline-lr", "baseline-wd"],
)
def test_huge_training_flag_stops_either_model_with_exit_7(tmp_path, capsys, workdir, command,
                                                           flag, value, cause):
    ts, vs = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    assert main(["build-trainset", "--features", str(workdir / "feats.gfm"), "--v", "5",
                 "--val-split", "0.25", "--out-train", str(ts), "--out-val", str(vs)]) == 0
    capsys.readouterr()
    out, log = tmp_path / "model.ckpt", tmp_path / "log.csv"
    model = ["--heads", "2", "--mlp-hidden", "8"] if command == "train" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run(capsys, command, "--trainset", str(ts), "--valset", str(vs),
                                "--features", str(workdir / "feats.gfm"), "--hidden", "8",
                                *model, "--iters", "3", "--quiet",
                                "--out-checkpoint", str(out), "--log", str(log), flag, value)
    assert code == 7, err
    assert caught == [] and stdout == ""
    # one JSON line on stderr
    assert err.count("\n") == 1
    rec = json.loads(err)
    assert rec["error"] == "non-finite" and re.fullmatch(cause, rec["message"]), rec
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.jsonl", "val.jsonl"]
