import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cognet import metrics

import oracles


def test_f_scores_perfect():
    assert metrics.f_scores([1, 1, 0, 0], [1, 1, 0, 0]) == (1.0, 1.0, 1.0)


def test_f_scores_hand_computed():
    f_neg, f_pos, f_comb = metrics.f_scores([1, 1, 0, 0], [1, 0, 0, 0])
    assert f_pos == pytest.approx(2 / 3, abs=1e-12)
    assert f_neg == pytest.approx(0.8, abs=1e-12)
    assert f_comb == pytest.approx(11 / 15, abs=1e-12)  # supports equal: plain mean


def test_f_scores_support_weighting():
    labels = [1, 0, 0, 0]
    preds = [1, 1, 0, 0]
    f_neg, f_pos, f_comb = metrics.f_scores(labels, preds)
    assert f_comb == pytest.approx((3 * f_neg + 1 * f_pos) / 4, abs=1e-12)


def test_f_scores_zero_division_convention():
    f_neg, f_pos, _ = metrics.f_scores([1, 1, 0, 0], [0, 0, 0, 0])
    assert f_pos == 0.0
    assert f_neg == pytest.approx(2 * 2 / (2 * 2 + 2), abs=1e-12)


def test_f_scores_errors():
    with pytest.raises(metrics.LengthMismatch):
        metrics.f_scores([1, 0], [1])
    with pytest.raises(metrics.SingleClassLabels):
        metrics.f_scores([1, 1], [1, 0])


def test_average_precision_hand_computed():
    ap = metrics.average_precision([1, 0, 1], [0.9, 0.8, 0.7])
    assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-12)


def test_average_precision_perfect_ranking():
    assert metrics.average_precision([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0


def test_average_precision_ties_break_by_input_index():
    # equal scores: the earlier item ranks first
    ap1 = metrics.average_precision([1, 0], [0.5, 0.5])
    ap2 = metrics.average_precision([0, 1], [0.5, 0.5])
    assert ap1 == 1.0
    assert ap2 == 0.5


def test_average_precision_requires_positive():
    with pytest.raises(metrics.NoPositives):
        metrics.average_precision([0, 0], [0.1, 0.2])


def test_average_precision_random_scores_approach_prevalence():
    rng = np.random.default_rng(0)
    n = 10_000
    for prevalence in (0.2, 0.5):
        labels = (rng.random(n) < prevalence).astype(int)
        scores = rng.random(n)
        ap = metrics.average_precision(labels, scores)
        assert abs(ap - prevalence) < 0.05


# A few score values (both zeros among them) make most ranks ties.
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.3, 1e-300, 2.0])),
                min_size=1, max_size=60).filter(lambda rows: any(label for label, _ in rows)))
def test_average_precision_equals_the_loop_oracle_on_ties(rows):
    labels, scores = zip(*rows)
    assert metrics.average_precision(labels, scores) == oracles.average_precision_loop(labels, scores)


def test_average_precision_equals_the_loop_oracle_at_scale():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 2, size=15_000)
    for scores in (rng.random(15_000), rng.integers(0, 50, size=15_000) / 7.0):
        assert metrics.average_precision(labels, scores) == oracles.average_precision_loop(labels, scores)


def test_ap_invariant_under_monotone_transforms():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = rng.integers(5, 40)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        scores = rng.normal(size=n)
        base = metrics.average_precision(labels, scores)
        assert metrics.average_precision(labels, 3.0 * scores + 2.0) == pytest.approx(base)
        assert metrics.average_precision(labels, np.exp(scores)) == pytest.approx(base)
        assert metrics.average_precision(labels, np.tanh(scores)) == pytest.approx(base)


def test_evaluate_report_fields():
    labels = [1, 1, 0, 0]
    scores = [0.9, 0.4, 0.6, 0.1]
    report = metrics.evaluate(labels, scores, threshold=0.5)
    tp, fp, tn, fn = report.confusion
    assert (tp, fp, tn, fn) == (1, 1, 1, 1)
    assert report.accuracy == 0.5
    assert report.n_test == 4
    assert tp + fp + tn + fn == report.n_test
    assert min(report.f_negative, report.f_positive) <= report.f_combined <= max(
        report.f_negative, report.f_positive)


def test_evaluate_perfect_scores():
    report = metrics.evaluate([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2])
    assert report.accuracy == 1.0
    assert report.average_precision == 1.0
    assert report.f_combined == 1.0


def test_evaluate_constant_scores_majority_rate():
    report = metrics.evaluate([1, 0, 0, 0], [0.4] * 4, threshold=0.5)
    assert report.accuracy == 0.75  # all predicted negative


def test_accuracy_matches_direct_mean():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 2, size=200)
    labels[:2] = [0, 1]
    scores = rng.random(200)
    report = metrics.evaluate(labels, scores, threshold=0.5)
    direct = np.mean((scores >= 0.5).astype(int) == labels)
    assert report.accuracy == pytest.approx(direct)


def test_threshold_respects_affine_rescaling():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 2, size=100)
    labels[:2] = [0, 1]
    scores = rng.random(100)
    base = metrics.evaluate(labels, scores, threshold=0.5)
    scaled = metrics.evaluate(labels, 2.0 * scores + 1.0, threshold=2.0)
    assert scaled.accuracy == base.accuracy
    assert scaled.confusion == base.confusion
    assert scaled.average_precision == pytest.approx(base.average_precision)


def test_render_report_layout():
    report = metrics.evaluate([1, 0], [0.9, 0.1])
    text = metrics.render_report(report, title="system: demo")
    lines = text.splitlines()
    assert lines[0] == "system: demo"
    assert lines[1].startswith("accuracy")
    assert lines[2].startswith("F-negative")
    assert lines[3].startswith("F-positive")
    assert lines[4].startswith("F-combined")
    assert lines[5].startswith("avg-precision")
    tsv = metrics.report_tsv(report)
    header, values = tsv.strip().split("\n")
    assert len(header.split("\t")) == len(values.split("\t"))
