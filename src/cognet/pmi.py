"""Pointwise-mutual-information scoring learned by iterated alignment.

Word pairs that survive a normalized edit-distance cutoff are aligned,
aligned symbol pairs are counted, and the counts become a log-odds scoring
matrix.  Realigning with that matrix and recounting is repeated until the
matrix stops moving.  The resulting matrix scores new word pairs through
ordinary global alignment, which reads each substitution score from the
matrix and adds the gap penalty per gap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import artifact, phoneme, similarity, wordlists

N = len(phoneme.INVENTORY)

# unit edit costs as alignment scores (match 0, mismatch and gap -1), for the seed alignment
_EDIT_SCORES = np.eye(N) - 1.0


class EmptySeedSet(artifact.DataError):
    """No word pair passed the initial edit-distance cutoff."""


# The largest gap penalty magnitude.  Under it, the global alignment score of
# two words with fewer than 10**8 symbols between them stays finite: a PMI
# score is a log-odds ratio of a few thousand bits at most.
MAX_GAP_PENALTY = 1e300


def _check_gap_penalty(value: float) -> float:
    if not -MAX_GAP_PENALTY <= value < 0:
        raise ValueError(f"gap penalty {value:g} is not in [-{MAX_GAP_PENALTY:g}, 0)")
    return value


class NonFinitePMI(FloatingPointError):
    """A PMI or alignment score came out infinite or NaN: the pseudocount or gap penalty is too extreme."""


@dataclass(frozen=True)
class PMIConfig:
    initial_cutoff: float = 0.5
    max_iterations: int = 10
    convergence_tol: float = 1e-4
    pseudocount: float = 1.0
    gap_penalty: float = -2.5

    def __post_init__(self):
        if not 0.0 < self.initial_cutoff <= 1.0:
            raise ValueError("initial_cutoff must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be > 0")
        if not 0 < self.pseudocount < math.inf:
            raise ValueError(f"pseudocount must be positive and finite, got {self.pseudocount:g}")
        _check_gap_penalty(self.gap_penalty)


@dataclass(frozen=True, eq=False)
class PMIMatrix:
    """Symmetric 35 x 35 log-odds scores over the inventory, plus gap penalty."""

    scores: np.ndarray
    gap_penalty: float
    iterations: int = 0
    final_delta: float = float("nan")
    converged: bool = False

    def score(self, x: str, y: str) -> float:
        return float(self.scores[phoneme.SYMBOL_INDEX[x], phoneme.SYMBOL_INDEX[y]])


def _counts_to_pmi(counts: np.ndarray, pseudocount: float) -> np.ndarray:
    # smooth every cell, normalize, and take log-odds against the marginals;
    # smoothing keeps both the joint and the marginals positive, unless a
    # tiny pseudocount underflows in the normalized joint or in a product of
    # marginals, or a huge one overflows the total
    smoothed = counts + pseudocount
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        joint = smoothed / smoothed.sum()
        marginal = joint.sum(axis=1)
        scores = np.log2(joint) - np.log2(np.outer(marginal, marginal))
    if not np.isfinite(scores).all():
        raise NonFinitePMI(f"pseudocount {pseudocount:g} leaves a PMI score non-finite")
    return scores


def _count_pairs(seeds: list[tuple[str, str]], scores: np.ndarray, gap: float) -> np.ndarray:
    """Symmetric counts of the symbol pairs that the seeds' alignments under ``scores`` and ``gap`` match up.

    Each distinct seed is aligned once, and its symbol pairs count once per
    repeat; the weights are whole numbers, so the counts are exact.
    """
    idx = phoneme.SYMBOL_INDEX
    unique, inverse = wordlists.distinct(seeds)
    codes = [[idx[x] * N + idx[y] for x, y in similarity.align(a, b, scores, gap)[1]
              if x != similarity.GAP and y != similarity.GAP] for a, b in unique]
    repeats = np.repeat(np.bincount(inverse), [len(c) for c in codes])
    counts = np.bincount(np.fromiter(itertools.chain.from_iterable(codes), dtype=np.int64),
                         weights=repeats, minlength=N * N).reshape(N, N).astype(np.float64)
    return counts + counts.T


def seed_pairs(pairs: list[tuple[str, str]], cutoff: float) -> list[tuple[str, str]]:
    """The nonempty pairs whose edit distance over the longer length is at most ``cutoff``."""
    words = [(a, b) for a, b in pairs if a and b]
    edits = similarity.measure_table(words, ("edit",))[:, 0]
    return [(a, b) for (a, b), e in zip(words, edits) if e / max(len(a), len(b)) <= cutoff]


def estimate_pmi(pairs: list[tuple[str, str]], cfg: PMIConfig = PMIConfig()) -> PMIMatrix:
    """Learn a PMI matrix from word pairs by align-count-rescore iteration.

    Seed pairs are those whose edit distance divided by the longer length
    stays within ``cfg.initial_cutoff``; they are first aligned at unit
    edit costs, then repeatedly realigned under the current matrix.  Stops
    when the largest matrix change drops below ``cfg.convergence_tol`` or
    after ``cfg.max_iterations`` realignments.  Raises NonFinitePMI when a
    matrix is not finite.
    """
    seeds = seed_pairs(pairs, cfg.initial_cutoff)
    if not seeds:
        raise EmptySeedSet(
            f"no pair passed the cutoff {cfg.initial_cutoff} out of {len(pairs)}"
        )

    scores = _counts_to_pmi(_count_pairs(seeds, _EDIT_SCORES, -1.0), cfg.pseudocount)

    iterations = 0
    delta = float("nan")
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        new_scores = _counts_to_pmi(_count_pairs(seeds, scores, cfg.gap_penalty), cfg.pseudocount)
        delta = float(np.max(np.abs(new_scores - scores)))
        scores = new_scores
        if delta < cfg.convergence_tol:
            converged = True
            break
    return PMIMatrix(
        scores=scores,
        gap_penalty=cfg.gap_penalty,
        iterations=iterations,
        final_delta=delta,
        converged=converged,
    )


def pmi_features(a: str, b: str, matrix: PMIMatrix) -> list[float]:
    """Feature vector [pmi score, len(a), len(b), |len(a)-len(b)|].

    The pmi score is the best global alignment score of the words under the
    matrix.  Raises NonFinitePMI when that score overflows.
    """
    score = similarity.align(a, b, matrix.scores, matrix.gap_penalty)[0]
    if not math.isfinite(score):
        raise NonFinitePMI(f"gap penalty {matrix.gap_penalty:g} leaves the alignment score of "
                           f"{a!r} and {b!r} non-finite ({score})")
    return [score, float(len(a)), float(len(b)), float(abs(len(a) - len(b)))]


# the header of a PMI matrix file; score rows and columns follow the symbols
_HEADER = {"system": artifact.one_of("pmi_svm"), "symbols": artifact.one_of(phoneme.INVENTORY),
           "gap_penalty": lambda text: _check_gap_penalty(artifact.finite_float(text))}


def save_matrix(matrix: PMIMatrix, path) -> None:
    """Write the matrix as a ``pmi-matrix`` artifact."""
    header = {"system": "pmi_svm", "symbols": phoneme.INVENTORY, "gap_penalty": float(matrix.gap_penalty)}
    artifact.save(path, "pmi-matrix", header, {"scores": matrix.scores})


def load_matrix(path) -> PMIMatrix:
    """Read a matrix written by :func:`save_matrix`."""
    values, tensors, _ = artifact.load(path, "pmi-matrix", _HEADER, lambda h: {"scores": (N, N)})
    return PMIMatrix(scores=tensors["scores"], gap_penalty=values["gap_penalty"])
