import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB_PATH = ROOT / "tools" / "ab.py"

END_TO_END = [
    {"name": "step_ms_tail", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "main_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


@pytest.fixture
def ab(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summary must start no process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    spec = importlib.util.spec_from_file_location("ab", AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair(seed, base, change, failed=(0, 0)):
    def side(values, failed):
        tail, rate = values
        return {"attempted": 10, "failed": failed, "correct": not failed,
                "metrics": {"step_ms_tail": {"value": tail, "unit": "ms"},
                            "main_per_s": {"value": rate, "unit": "1/s"}}}

    return {"seed": seed, "first": "base" if seed % 2 else "change",
            "base": side(base, failed[0]), "change": side(change, failed[1])}


def test_summary_counts_wins_quartiles_gain_and_bound(ab):
    # step_ms_tail: the change wins 9 pairs and ties one, far outside the
    # base's spread; main_per_s: higher is better, and the change is 30%
    # worse in every pair
    pairs = [_pair(i + 1, (10.0 + i, 20.0), (7.0 + i, 14.0)) for i in range(9)]
    pairs.append(_pair(10, (12.0, 20.0), (12.0, 14.0), failed=(0, 2)))
    out = ab.summarize(pairs, END_TO_END)
    assert out["pairs"] == 10
    assert out["operations"] == {"base": {"attempted": 100, "failed": 0},
                                 "change": {"attempted": 100, "failed": 2}}

    tail = out["metrics"]["step_ms_tail"]
    assert (tail["wins"], tail["losses"], tail["ties"]) == (9, 0, 1)
    assert tail["base"]["values"] == [10.0 + i for i in range(9)] + [12.0]
    assert tail["base"] | {"values": None} == {"median": 13.5, "q1": 12.0, "q3": 15.75,
                                               "values": None}
    assert tail["change"]["median"] == 11.5
    # 2 ms apart, inside the base's 3.75 ms interquartile range: no gain;
    # that range is wider than the bound (0.25 * 13.5 ms), and change runs
    # overlap base runs, so the bound can be judged neither way
    assert not tail["gain_shown"] and tail["bound_verdict"] == "unresolved"
    assert tail["change_vs_base"] == pytest.approx(-2.0 / 13.5)

    rate = out["metrics"]["main_per_s"]
    assert (rate["wins"], rate["losses"], rate["ties"]) == (0, 10, 0)
    assert rate["change_vs_base"] == pytest.approx(-0.3)
    assert not rate["gain_shown"] and rate["bound_verdict"] == "outside"


def test_summary_shows_a_gain_beyond_the_base_spread(ab):
    pairs = [_pair(i + 1, (10.0 + 0.1 * i, 20.0), (7.0, 20.0 + 0.1 * i)) for i in range(10)]
    out = ab.summarize(pairs, END_TO_END)
    tail, rate = out["metrics"]["step_ms_tail"], out["metrics"]["main_per_s"]
    assert tail["wins"] == 10 and tail["gain_shown"] and tail["bound_verdict"] == "within"
    # higher is better: 9 wins and one tie, and the base's runs have no
    # spread for the 0.45/s between the medians to fall within
    assert (rate["wins"], rate["ties"]) == (9, 1) and rate["gain_shown"]
    assert rate["bound_verdict"] == "within"


def test_summary_shows_no_gain_when_the_change_fails_more_often(ab):
    def pairs(failed):
        return [_pair(i + 1, (10.0 + 0.1 * i, 20.0), (7.0, 20.0 + 0.1 * i),
                      failed=failed if i == 3 else (0, 0)) for i in range(10)]

    for failed in ((0, 1), (1, 2)):
        out = ab.summarize(pairs(failed), END_TO_END)
        assert out["operations"]["change"]["failed"] == failed[1]
        assert not any(m["gain_shown"] for m in out["metrics"].values()), failed
    # as many failures on both sides do not hide a gain
    out = ab.summarize(pairs((2, 2)), END_TO_END)
    assert all(m["gain_shown"] for m in out["metrics"].values())


def test_summary_leaves_a_bound_unresolved_when_the_base_spreads_wider(ab):
    # the base's runs spread 10-19 ms, its interquartile range 4.5 ms is
    # wider than 0.25 * 14.5 ms: a change median only 1% worse is unresolved
    base = [10.0 + i for i in range(10)]
    change = [v + 0.15 for v in base]
    pairs = [_pair(i + 1, (b, 20.0), (c, 20.0)) for i, (b, c) in enumerate(zip(base, change))]
    tail = ab.summarize(pairs, END_TO_END)["metrics"]["step_ms_tail"]
    assert tail["base"]["q3"] - tail["base"]["q1"] == 4.5
    assert tail["bound_verdict"] == "unresolved" and not tail["gain_shown"]
    # unless every change run reads better than every base run
    pairs = [_pair(i + 1, (b, 20.0), (9.5, 20.0)) for i, b in enumerate(base)]
    tail = ab.summarize(pairs, END_TO_END)["metrics"]["step_ms_tail"]
    assert tail["bound_verdict"] == "within" and tail["gain_shown"]
    # one change run that reads no better than the best base run: unresolved
    pairs[0] = _pair(1, (10.0, 20.0), (10.0, 20.0))
    tail = ab.summarize(pairs, END_TO_END)["metrics"]["step_ms_tail"]
    assert tail["bound_verdict"] == "unresolved"


def test_summary_of_too_few_pairs_shows_no_gain(ab):
    out = ab.summarize([_pair(1, (9.0, 20.0), (5.0, 19.0))], END_TO_END)
    tail = out["metrics"]["step_ms_tail"]
    assert tail["base"] == {"median": 9.0, "q1": 9.0, "q3": 9.0, "values": [9.0]}
    assert tail["wins"] == 1 and not tail["gain_shown"] and tail["bound_verdict"] == "within"
    pairs = [_pair(i + 1, (9.0, 20.0), (5.0, 20.0)) for i in range(9)]
    assert not ab.summarize(pairs, END_TO_END)["metrics"]["step_ms_tail"]["gain_shown"]


PERFBENCH_OUTPUT = """perfbench rank seed=1 seconds=20 trace=0 size=full
environment {"cpus": 2}
generator {"ids": 2500}
  rank_api_probe_ms_p80                         9.71234 ms        n=750    step_ms_tail
  rank_full_probes_per_s                        17.2    1/s       n=75     main_per_s
  rank_api_probe_ms_p50                         8.5     ms        n=750    
  rank_topk_probes_per_s                      123.456   1/s       n=75     
{"attempted": 150, "correct": true, "failed": 0, "metrics": {}}
"""


def test_printed_metrics_keep_every_metric_line(ab):
    printed = ab.printed_metrics(PERFBENCH_OUTPUT.splitlines())
    assert printed == {
        "rank_api_probe_ms_p80": {"value": 9.71234, "unit": "ms", "n": 750, "key": "step_ms_tail"},
        "rank_full_probes_per_s": {"value": 17.2, "unit": "1/s", "n": 75, "key": "main_per_s"},
        "rank_api_probe_ms_p50": {"value": 8.5, "unit": "ms", "n": 750},
        "rank_topk_probes_per_s": {"value": 123.456, "unit": "1/s", "n": 75},
    }


def test_summary_gives_each_printed_metric_quartiles_per_side(ab):
    pairs = [_pair(i + 1, (10.0, 20.0), (9.0, 21.0)) for i in range(5)]
    for i, pair in enumerate(pairs):
        for side, rate in (("base", 100.0 + i), ("change", 200.0 + 2 * i)):
            pair[side]["printed"] = {
                "rank_topk_probes_per_s": {"value": rate, "unit": "1/s", "n": 75},
                "rank_api_probe_ms_p50": {"value": 8.0, "unit": "ms", "n": 750},
            }
    # a metric that one run did not print is left out, not summarized
    # from the runs that did
    del pairs[3]["change"]["printed"]["rank_api_probe_ms_p50"]
    printed = ab.summarize(pairs, END_TO_END)["printed"]
    assert list(printed) == ["rank_topk_probes_per_s"]
    topk = printed["rank_topk_probes_per_s"]
    assert topk["unit"] == "1/s"
    assert topk["base"] == {"median": 102.0, "q1": 101.0, "q3": 103.0,
                            "values": [100.0, 101.0, 102.0, 103.0, 104.0]}
    assert topk["change"]["median"] == 204.0
    # runs without printed lines, as older records hold, summarize to none
    assert ab.summarize([_pair(1, (9.0, 20.0), (5.0, 19.0))], END_TO_END)["printed"] == {}


SMALL_MODULE = '''"""Module docstring,
over two lines."""

import os  # a comment


class Point:
    """Class docstring."""

    x = 1
    """An attribute note is an expression, not a docstring."""
    # a comment line

    def text(self):
        """Function
        docstring."""
        s = """a string
        that is not a docstring"""
        return s


def sep():
    return os.sep
'''


def test_code_lines_leave_out_comments_blank_lines_and_docstrings(ab, tmp_path):
    module = tmp_path / "small.py"
    module.write_text(SMALL_MODULE)
    assert len(module.read_bytes().splitlines()) == 23
    # import, class, x, the attribute note, def text, the two lines of s,
    # return s, def sep, return os.sep
    assert ab._code_lines(module.read_text()) == 10


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_every_committed_record_holds_what_ab_writes(path):
    # every perf change commits the record tools/ab.py wrote for it
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = json.loads(path.read_text())
    assert record["topic"] == path.stem.removeprefix("BENCH_")
    for side in ("base", "change"):
        assert record[side]["src_lines"] > 0
    assert record["workloads"]
    for workload, result in record["workloads"].items():
        for spec in end_to_end:
            metric = result["metrics"][spec["name"]]
            for side in ("base", "change"):
                assert metric[side]["q1"] <= metric[side]["median"] <= metric[side]["q3"]
            assert metric["bound_verdict"] in ("within", "outside", "unresolved"), workload
        for side in ("base", "change"):
            operations = result["operations"][side]
            assert 0 <= operations["failed"] <= operations["attempted"], (workload, side)
