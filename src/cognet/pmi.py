"""Pointwise-mutual-information scoring learned by iterated alignment.

Word pairs that survive a normalized edit-distance cutoff are aligned,
aligned symbol pairs are counted, and the counts become a log-odds scoring
matrix.  Realigning with that matrix and recounting is repeated until the
matrix stops moving.  The pairs are tabled and their forms coded once
(``similarity.Words``); each round aligns every distinct seed pair at once
(``similarity.align_batch``).  The resulting matrix scores new word pairs
through ordinary global alignment (``similarity.align``, one pair at a
time), which reads each substitution score from the matrix and adds the
gap penalty per gap.  The pseudocount, the gap penalty and each score of a
matrix file are bounded where they enter, so no score overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifact, phoneme, similarity, wordlists

N = len(phoneme.INVENTORY)

# unit edit costs as alignment scores (match 0, mismatch and gap -1), for the seed alignment
_EDIT_SCORES = np.eye(N) - 1.0


class EmptySeedSet(artifact.DataError):
    """No word pair passed the initial edit-distance cutoff."""


# The largest magnitude of a gap penalty or of a matrix file's score.  Then
# every number the aligner adds is at most 1e300 in magnitude, so the score of
# an alignment of words with fewer than 10**8 symbols between them stays
# finite.  An estimated PMI score is a log-odds ratio of a few thousand bits.
MAX_GAP_PENALTY = 1e300

# The pseudocount's range.  Within it, every smoothed cell, their total and
# every product of two marginals is a normal float at any realistic count
# total: 35 * 35 cells of 1e305 sum to under the largest float, and a marginal
# of at least 35 pseudocounts over the total squares to far above the smallest.
MIN_PSEUDOCOUNT, MAX_PSEUDOCOUNT = 1e-100, 1e305

FEATURE_NAMES = ("pmi", "len_a", "len_b", "abs_len_diff")  # pmi_features' columns


def _check_gap_penalty(value: float) -> float:
    if not -MAX_GAP_PENALTY <= value < 0:
        raise ValueError(f"gap_penalty {value:g} is not in [-{MAX_GAP_PENALTY:g}, 0)")
    return value


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
        if not MIN_PSEUDOCOUNT <= self.pseudocount <= MAX_PSEUDOCOUNT:
            raise ValueError(f"pseudocount {float(self.pseudocount)!r} is not in "
                             f"[{MIN_PSEUDOCOUNT:g}, {MAX_PSEUDOCOUNT:g}]")
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
    # smoothing keeps both the joint and the marginals positive
    smoothed = counts + pseudocount
    joint = smoothed / smoothed.sum()
    marginal = joint.sum(axis=1)
    return np.log2(joint) - np.log2(np.outer(marginal, marginal))


def _count_pairs(words: similarity.Words, seeds: np.ndarray, repeats: np.ndarray, scores: np.ndarray,
                 gap: float) -> np.ndarray:
    """Symmetric counts of the symbol pairs that the seeds' alignments under ``scores`` and ``gap`` match up.

    The seeds are rows (a, b) into ``words``.  Each seed is aligned once,
    and its symbol pairs count ``repeats`` times; the weights are whole
    numbers, so the counts are exact.
    """
    _, rows, i, j = similarity.align_batch(words, seeds, scores, gap)
    a, b = seeds[rows].T
    codes = words.symbols()
    counts = np.bincount(codes[i, a] * N + codes[j, b], weights=repeats[rows], minlength=N * N)
    counts = counts.reshape(N, N).astype(np.float64)  # no seeds give integer zeros
    return counts + counts.T


def seed_pairs(words: similarity.Words, index: np.ndarray, cutoff: float) -> np.ndarray:
    """The rows of ``index`` whose nonempty words' edit distance over the longer length is at most ``cutoff``."""
    la, lb = words.lengths[index].T
    rows = np.flatnonzero((la > 0) & (lb > 0))
    edits = similarity.measure_batch(words, index[rows], ("edit",))[:, 0]
    return rows[edits / np.maximum(la, lb)[rows] <= cutoff]


def estimate_pmi(pairs: list[tuple[str, str]], cfg: PMIConfig = PMIConfig()) -> PMIMatrix:
    """Learn a PMI matrix from word pairs by align-count-rescore iteration.

    Seed pairs are those whose edit distance divided by the longer length
    stays within ``cfg.initial_cutoff``; they are first aligned at unit
    edit costs, then repeatedly realigned under the current matrix.  Stops
    when the largest matrix change drops below ``cfg.convergence_tol`` or
    after ``cfg.max_iterations`` realignments.
    """
    forms, index, row = wordlists.form_table(pairs)
    words = similarity.Words(forms)  # coded once: the cutoff and every alignment read it
    rows = seed_pairs(words, index, cfg.initial_cutoff)
    if not rows.size:
        raise EmptySeedSet(f"no pair passed the cutoff {cfg.initial_cutoff} out of {len(pairs)}")
    seeds, repeats = index[rows], np.bincount(row, minlength=len(index))[rows]
    scores = _counts_to_pmi(_count_pairs(words, seeds, repeats, _EDIT_SCORES, -1.0), cfg.pseudocount)
    for iterations in range(1, cfg.max_iterations + 1):  # PMIConfig asks for at least one
        new_scores = _counts_to_pmi(_count_pairs(words, seeds, repeats, scores, cfg.gap_penalty), cfg.pseudocount)
        delta = float(np.max(np.abs(new_scores - scores)))
        scores = new_scores
        if delta < cfg.convergence_tol:
            break
    return PMIMatrix(scores=scores, gap_penalty=cfg.gap_penalty, iterations=iterations, final_delta=delta,
                     converged=delta < cfg.convergence_tol)


def pmi_features(a: str, b: str, matrix: PMIMatrix) -> list[float]:
    """Feature vector [pmi score, len(a), len(b), |len(a)-len(b)|], named by ``FEATURE_NAMES``.

    The pmi score is the best global alignment score of the words under the matrix.
    """
    score = similarity.align(a, b, matrix.scores, matrix.gap_penalty)[0]
    return [score, float(len(a)), float(len(b)), float(abs(len(a) - len(b)))]


# the header of a PMI matrix file; score rows and columns follow the symbols
_HEADER = {"system": artifact.one_of("pmi_svm"), "symbols": artifact.one_of(phoneme.INVENTORY),
           "gap_penalty": lambda text: _check_gap_penalty(artifact.finite_float(text))}


def save_matrix(matrix: PMIMatrix, path) -> None:
    """Write the matrix as a ``pmi-matrix`` artifact."""
    header = {"system": "pmi_svm", "symbols": phoneme.INVENTORY, "gap_penalty": float(matrix.gap_penalty)}
    artifact.save(path, "pmi-matrix", header, {"scores": matrix.scores})


def load_matrix(path) -> PMIMatrix:
    """Read a matrix written by :func:`save_matrix`; each score must lie within ``MAX_GAP_PENALTY``."""
    values, tensors, lines = artifact.load(path, "pmi-matrix", _HEADER, lambda h: {"scores": (N, N)})
    scores = tensors["scores"]
    past = np.argwhere(np.abs(scores) > MAX_GAP_PENALTY)
    if len(past):
        (i, j), symbols = past[0], phoneme.INVENTORY
        raise artifact.ArtifactError(path, lines["scores"], f"score {float(scores[i, j])!r} of {symbols[i]!r} "
                                     f"and {symbols[j]!r} is not in [-{MAX_GAP_PENALTY:g}, {MAX_GAP_PENALTY:g}]")
    return PMIMatrix(scores=scores, gap_penalty=values["gap_penalty"])
