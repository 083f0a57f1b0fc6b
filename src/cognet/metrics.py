"""Evaluation metrics: accuracy, class-wise F-scores, average precision."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LengthMismatch(ValueError):
    pass


class SingleClassLabels(ValueError):
    pass


class NoPositives(ValueError):
    pass


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    f_negative: float
    f_positive: float
    f_combined: float
    average_precision: float
    n_test: int
    confusion: tuple[int, int, int, int]  # (tp, fp, tn, fn)

    def to_dict(self) -> dict:
        tp, fp, tn, fn = self.confusion
        return {
            "accuracy": self.accuracy,
            "f_negative": self.f_negative,
            "f_positive": self.f_positive,
            "f_combined": self.f_combined,
            "average_precision": self.average_precision,
            "n_test": self.n_test,
            "tp": tp, "fp": fp, "tn": tn, "fn": fn,
        }


def _check_labels(labels, other, other_name: str) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(labels)
    x = np.asarray(other, dtype=np.float64)
    if y.shape != x.shape or y.ndim != 1:
        raise LengthMismatch(f"labels {y.shape} vs {other_name} {x.shape}")
    return y.astype(np.int64), x


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def _confusion(y: np.ndarray, p: np.ndarray) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) of 0/1 predictions ``p`` against labels ``y``."""
    tp = int(np.sum((y == 1) & (p == 1)))
    fp = int(np.sum((y == 0) & (p == 1)))
    tn = int(np.sum((y == 0) & (p == 0)))
    fn = int(np.sum((y == 1) & (p == 0)))
    return tp, fp, tn, fn


def _f_from_confusion(tp: int, fp: int, tn: int, fn: int) -> tuple[float, float, float]:
    n_pos = tp + fn
    n_neg = tn + fp
    if n_pos == 0 or n_neg == 0:
        raise SingleClassLabels("labels must contain both classes")
    f_pos = _f1(tp, fp, fn)
    f_neg = _f1(tn, fn, fp)  # negative class as the positive one
    return f_neg, f_pos, (n_neg * f_neg + n_pos * f_pos) / (n_neg + n_pos)


def f_scores(labels, predictions) -> tuple[float, float, float]:
    """Per-class F1 scores and their combination.

    Returns (f_negative, f_positive, f_combined).  The combined score is
    the support-weighted mean of the two class F1s.  F1 is 0 when
    precision + recall is 0.
    """
    y, p = _check_labels(labels, predictions, "predictions")
    return _f_from_confusion(*_confusion(y, p.astype(np.int64)))


def average_precision(labels, scores) -> float:
    """Area under the precision-recall curve, by the rank step-sum.

    Items are ranked by descending score; ties keep input order.  AP is
    the sum over ranks of (recall increment) x (precision at that rank).
    """
    y, s = _check_labels(labels, scores, "scores")
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        raise NoPositives("average precision needs at least one positive label")
    ranks = np.flatnonzero(y[np.argsort(-s, kind="stable")] == 1) + 1  # the positives' ranks
    # Each positive adds its precision tp/rank (its recall increment is 1/n_pos).
    # cumsum adds in rank order, as a loop would; np.sum pairs terms up and
    # could change the last bits.
    return float(np.cumsum(np.arange(1, n_pos + 1) / ranks)[-1]) / n_pos


def evaluate(labels, scores, threshold: float = 0.5) -> EvalReport:
    """Threshold scores into predictions and compute the full report."""
    y, s = _check_labels(labels, scores, "scores")
    tp, fp, tn, fn = _confusion(y, (s >= threshold).astype(np.int64))
    f_neg, f_pos, f_comb = _f_from_confusion(tp, fp, tn, fn)
    return EvalReport(
        accuracy=(tp + tn) / len(y),
        f_negative=f_neg,
        f_positive=f_pos,
        f_combined=f_comb,
        average_precision=average_precision(y, s),
        n_test=len(y),
        confusion=(tp, fp, tn, fn),
    )


_ROWS = (
    ("accuracy", "accuracy"),
    ("F-negative", "f_negative"),
    ("F-positive", "f_positive"),
    ("F-combined", "f_combined"),
    ("avg-precision", "average_precision"),
)


def render_report(report: EvalReport, title: str = "") -> str:
    """Human-readable block: accuracy, the three F rows, then AP."""
    lines = []
    if title:
        lines.append(title)
    for label, attr in _ROWS:
        lines.append(f"{label:<14} {getattr(report, attr):.4f}")
    lines.append(f"{'n-test':<14} {report.n_test}")
    return "\n".join(lines) + "\n"


def report_tsv(report: EvalReport) -> str:
    """Two-line TSV: metric names, then values."""
    d = report.to_dict()
    keys = list(d)
    vals = [format(d[k], ".12g") if isinstance(d[k], float) else str(d[k]) for k in keys]
    return "\t".join(keys) + "\n" + "\t".join(vals) + "\n"
