import json
import math

import numpy as np
import pytest

from gaitrerank.errors import DataError, FormatError, MissingIdError
from gaitrerank.metrics import (
    MetricsReport,
    average_precision,
    evaluate_lists,
    mean_average_precision,
    oracle_rank1_ceiling,
    rank_k_accuracy,
    read_report,
    strip_cosine_matrix,
    tpr_at_fpr,
    write_cosine_csv,
    write_report,
)
from gaitrerank.ranking import RankedList

IDENTS = {
    "p0": "A", "p1": "B", "p2": "C",
    "a1": "A", "a2": "A", "b1": "B", "b2": "B", "c1": "C", "x1": "X",
}


def rl(probe, *pairs):
    return RankedList(probe, tuple(pairs))


def test_rank_k_accuracy_hand_case():
    lists = [
        rl("p0", ("b1", 0.1), ("a1", 0.2), ("x1", 0.3)),   # first match at 2
        rl("p1", ("b2", 0.1), ("a1", 0.2)),                # first match at 1
        rl("p2", ("a1", 0.1), ("b1", 0.2), ("x1", 0.3)),   # no match
    ]
    acc = rank_k_accuracy(lists, IDENTS, [1, 2, 3])
    assert acc == {1: 1 / 3, 2: 2 / 3, 3: 2 / 3}


def test_rank_k_accuracy_guards():
    with pytest.raises(DataError):
        rank_k_accuracy([], IDENTS, [1])
    with pytest.raises(DataError):
        rank_k_accuracy([rl("p0", ("a1", 0.1))], IDENTS, [0])
    with pytest.raises(MissingIdError):
        rank_k_accuracy([rl("p0", ("zz", 0.1))], IDENTS, [1])


def test_rank_k_accuracy_counts_a_repeated_k_once():
    lists = [rl("p0", ("a1", 0.1)), rl("p1", ("a1", 0.1))]
    assert rank_k_accuracy(lists, IDENTS, [1, 1, 2]) == {1: 0.5, 2: 0.5}


def test_rank_k_accuracy_reads_labels_of_the_top_max_k_only():
    lists = [rl("p1", ("a1", 0.1), ("zz", 0.2))]
    assert rank_k_accuracy(lists, IDENTS, [1]) == {1: 0.0}
    with pytest.raises(MissingIdError, match="'zz'"):
        rank_k_accuracy(lists, IDENTS, [1, 2])


def test_average_precision_hand_case():
    # positives at ranks 1 and 3: AP = (1/1 + 2/3) / 2
    lists = rl("p0", ("a1", 0.1), ("b1", 0.2), ("a2", 0.3), ("x1", 0.4))
    assert average_precision(lists, IDENTS) == pytest.approx((1.0 + 2 / 3) / 2)
    assert average_precision(rl("p0", ("b1", 0.1)), IDENTS) is None


def test_mean_average_precision_skips_probes_without_positives():
    lists = [
        rl("p0", ("a1", 0.1), ("b1", 0.2)),  # AP = 1
        rl("p1", ("a1", 0.1), ("x1", 0.2)),  # no positive -> excluded
        rl("p2", ("a1", 0.1), ("c1", 0.2)),  # AP = 1/2
    ]
    assert mean_average_precision(lists, IDENTS) == pytest.approx(0.75)
    with pytest.raises(DataError):
        mean_average_precision([rl("p0", ("b1", 0.1))], IDENTS)


def ref_tpr_at_fpr(scores, labels, target):
    """Threshold sweep oracle: try every distinct score as the cut."""
    pos = sum(labels)
    neg = len(labels) - pos
    best = 0.0
    for thr in sorted(set(scores)):
        tp = sum(1 for s, y in zip(scores, labels) if s >= thr and y)
        fp = sum(1 for s, y in zip(scores, labels) if s >= thr and not y)
        if fp / neg <= target:
            best = max(best, tp / pos)
    return best


def test_tpr_at_fpr_matches_sweep_oracle():
    rng = np.random.default_rng(5)
    idents = {"p": "A"}
    items = []
    scores, labels = [], []
    for i in range(40):
        y = bool(rng.integers(2))
        dist = float(np.round(rng.uniform(0, 4), 1))  # rounding forces ties
        cid = f"c{i}"
        idents[cid] = "A" if y else "B"
        items.append((cid, dist))
        scores.append(-dist)
        labels.append(y)
    lists = [rl("p", *items)]
    for target in (0.0, 0.05, 0.25, 0.5, 1.0):
        got = tpr_at_fpr(lists, idents, [target])[target]
        assert got == pytest.approx(ref_tpr_at_fpr(scores, labels, target))


def test_tpr_at_fpr_identical_scores_infeasible_target():
    idents = {"p": "A", "g1": "A", "g2": "B"}
    lists = [rl("p", ("g1", 1.0), ("g2", 1.0))]
    # single threshold accepts everything: FPR = 1, so 1e-2 is infeasible
    assert tpr_at_fpr(lists, idents, [1e-2])[1e-2] == 0.0
    assert tpr_at_fpr(lists, idents, [1.0])[1.0] == 1.0


def test_tpr_at_fpr_truncation_depth_and_degeneracy():
    idents = {"p": "A", "g1": "A", "g2": "B"}
    lists = [rl("p", ("g1", 0.1), ("g2", 0.2))]
    with pytest.raises(DataError):
        tpr_at_fpr(lists, idents, [0.5], k=1)  # truncation leaves no negatives
    with pytest.raises(DataError):
        tpr_at_fpr(lists, idents, [0.5], k=0)


def test_oracle_rank1_ceiling_is_rank_k_at_k():
    lists = [
        rl("p0", ("b1", 0.1), ("a1", 0.2), ("x1", 0.3)),
        rl("p1", ("a1", 0.1), ("x1", 0.2), ("b1", 0.3)),
    ]
    assert oracle_rank1_ceiling(lists, IDENTS, 2) == rank_k_accuracy(lists, IDENTS, [2])[2]
    assert oracle_rank1_ceiling(lists, IDENTS, 1) == 0.0


def test_strip_cosine_matrix_matches_double_loop():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((4, 6))
    got = strip_cosine_matrix(a, b)
    for i in range(4):
        for j in range(4):
            want = float(
                a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
            )
            assert got[i, j] == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(np.diag(strip_cosine_matrix(a, a)), 1.0, rtol=1e-12)


def test_strip_cosine_matrix_zero_norm_strip():
    a = np.ones((2, 3))
    b = np.ones((2, 3))
    b[1] = 0
    with pytest.raises(DataError, match="strip 1"):
        strip_cosine_matrix(a, b)


def test_write_cosine_csv_is_lossless(tmp_path):
    m = np.random.default_rng(0).standard_normal((3, 3))
    path = tmp_path / "cos.csv"
    write_cosine_csv(m, path)
    rows = [
        [float(x) for x in line.split(",")]
        for line in path.read_text().strip().splitlines()
    ]
    np.testing.assert_array_equal(np.array(rows), m)


def test_report_roundtrip_and_validation(tmp_path):
    report = MetricsReport(
        rank_k={1: 0.5, 5: 0.7, 10: 0.9},
        map_score=0.6125,
        tpr_at_fpr={0.01: 0.25},
        probe_count=240,
        oracle_rank1_ceiling=0.95,
    )
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report
    with pytest.raises(ValueError):
        MetricsReport(rank_k={1: 0.9, 5: 0.4}, map_score=0.5,
                      tpr_at_fpr={}, probe_count=1, oracle_rank1_ceiling=0.5)
    with pytest.raises(ValueError):
        MetricsReport(rank_k={1: 1.2}, map_score=0.5,
                      tpr_at_fpr={}, probe_count=1, oracle_rank1_ceiling=0.5)
    valid = json.loads(report.to_json())
    for payload in ({}, [1, 2], {**valid, "rank_k": 5}, {**valid, "probe_count": float("inf")}):
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            read_report(path)


def test_evaluate_lists_bundles_everything():
    lists = [
        rl("p0", ("a1", 0.1), ("b1", 0.2), ("a2", 0.3)),
        rl("p1", ("b1", 0.1), ("a1", 0.2), ("b2", 0.3)),
    ]
    report = evaluate_lists(lists, IDENTS, ks=(1, 2), fprs=(0.5,), ceiling_k=2)
    assert report.probe_count == 2
    assert report.rank_k == rank_k_accuracy(lists, IDENTS, [1, 2])
    assert report.map_score == mean_average_precision(lists, IDENTS)
    assert report.oracle_rank1_ceiling == oracle_rank1_ceiling(lists, IDENTS, 2)
