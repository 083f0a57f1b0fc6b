"""Linear SVM trained on the primal hinge objective, plus grid-search CV.

The objective is ||w||^2 / 2 + C * mean(hinge); using the mean rather
than the sum keeps the fit invariant under duplicating every row (the sum
form is recovered by rescaling C).  It depends only on the distinct
(row, label) pairs and how often each occurs, so the descent runs over
those, weighted by their counts: duplicating every row leaves the fit
bit-identical.  Optimization is deterministic full-batch subgradient
descent with a 1/t step, returning the best iterate seen.  One descent
serves both callers: ``fit`` runs it for one C, and the grid search for
all of a fold's C values in lockstep.  ``MAX_C`` bounds C wherever it
enters, in ``fit``, the grid search and a model file, so the descent cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifact, wordlists

# the systems an SVM model can be trained for; each has its own feature set
SYSTEMS = ("ortho_svm", "pmi_svm")


class SingleClass(artifact.DataError):
    pass


class DimensionMismatch(ValueError):
    pass


class TooFewSamples(artifact.DataError):
    pass


# The largest C.  Each 1/t iterate's weights are a convex combination of the
# previous weights and C times a weighted mean of the signed standardised rows,
# whose entries are at most sqrt(n) in magnitude, so ||w|| <= C * sqrt(d * n);
# the bias moves by at most C / t at step t, so |b| <= C * H_T (the harmonic
# number).  The objective then stays below about C**2 * (1.5 * d * n + H_T),
# which is finite for C <= 1e100 whenever d * n is far below 1e100.
MAX_C = 1e100


def check_C(C: float) -> float:
    if not 0 < C <= MAX_C:
        raise ValueError(f"C {float(C)!r} is not in (0, {MAX_C:g}]")
    return C


@dataclass(frozen=True, eq=False)
class LinearModel:
    weights: np.ndarray
    bias: float
    mean: np.ndarray  # per-feature scaler, applied before the dot product
    std: np.ndarray
    C: float


def _distinct_rows(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (row, label) pairs of a training set, and each sample's index among them.

    Returns the distinct rows of ``X`` as a float64 copy, their +-1 labels
    and ``inverse``, so that sample i is row ``inverse[i]``; the descent
    weighs each distinct row by how often it occurs.  Raises on a shape
    mismatch or a non-finite feature.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionMismatch(f"X must be a nonempty 2-D matrix, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(f"y shape {y.shape} does not match {X.shape[0]} rows")
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"X[{i}, {j}] is {X[i, j]}: features must be finite")
    keyed = np.column_stack([X, y == 1])
    first, inverse = wordlists.distinct(range(len(keyed)), key=lambda i: keyed[i].tobytes())
    return X[first], np.where(y[first] == 1, 1.0, -1.0), inverse


def _standardized(rows: np.ndarray, ys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of nonzero count, standardised, with their labels and counts, and the mean and scale.

    The mean and scale are those of the training set that holds each row
    ``counts`` times, but a column whose kept rows hold one value takes it as
    its mean and 1 as its scale, so its weight stays 0.  The rows themselves
    are left as they are.
    """
    kept = np.flatnonzero(counts)
    Z, ys, counts = rows[kept], ys[kept], counts[kept]
    if ys.min() == ys.max():
        raise SingleClass("training labels are constant")
    n = counts.sum()
    mean = np.where((Z == Z[0]).all(axis=0), Z[0], counts @ Z / n)
    Z -= mean
    std = np.sqrt(counts @ np.square(Z) / n)
    std = np.where(std == 0.0, 1.0, std)
    Z /= std
    return Z, ys, counts, mean, std


def fit(X, y, C: float = 1.0, passes: int = 2000) -> LinearModel:
    """Fit the linear classifier by the descent for the one value ``C``; deterministic."""
    check_C(C)
    rows, ys, inverse = _distinct_rows(X, y)
    Z, ys, counts, mean, std = _standardized(rows, ys, np.bincount(inverse, minlength=len(rows)))
    W, b = _descend(Z, ys, counts, np.array([C], dtype=np.float64), passes)
    return LinearModel(weights=W[0], bias=float(b[0]), mean=mean, std=std, C=C)


def _descend(Z: np.ndarray, ys: np.ndarray, counts: np.ndarray, Cs: np.ndarray,
             passes: int) -> tuple[np.ndarray, np.ndarray]:
    """The subgradient descent on the standardised rows ``Z`` for every C of ``Cs`` at once.

    Row j of ``Z`` stands for ``counts[j]`` samples of the training set, so
    the objective and subgradient are those of the rows repeated that often.
    Returns the best iterates: weights ``[k, d]`` and biases ``[k]``, row i
    for ``Cs[i]``.  Each row takes its own 1/t steps and keeps its own best
    iterate, so no row depends on the others.  Every C within MAX_C keeps
    every number here finite.
    """
    if passes < 0:
        raise ValueError(f"passes must be >= 0, got {passes}")
    k, (u, d) = len(Cs), Z.shape
    n = counts.sum()
    # Each row's weights and bias as one [k, d + 1] matrix, against the signed
    # rows ys * [z, 1], so that margins and subgradient are one GEMM each.
    theta = np.zeros((k, d + 1))
    signed = np.empty((d + 1, u))
    np.multiply(Z.T, ys, out=signed[:d])
    signed[d] = ys
    weighted = signed * counts  # each signed row times its count, for the subgradient
    share = counts / n  # each row's share of the hinge mean
    neg_step = -(Cs / n)[:, None]
    margins, hinge, active = np.empty((k, u)), np.empty((k, u)), np.empty((k, u))
    grad = np.empty((k, d + 1))

    def objective() -> np.ndarray:
        """The objective of each row of ``theta``, leaving its margins in ``margins``."""
        np.matmul(theta, signed, out=margins)
        np.subtract(1.0, margins, out=hinge)
        np.maximum(hinge, 0.0, out=hinge)
        return 0.5 * np.einsum("kd,kd->k", theta[:, :d], theta[:, :d]) + Cs * (hinge @ share)

    best_obj = objective()
    best = theta.copy()
    for t in range(1, passes + 1):
        np.less(margins, 1.0, out=active)
        np.matmul(active, weighted.T, out=grad)
        grad *= neg_step
        grad[:, :d] += theta[:, :d]  # the bias is not in ||w||^2
        theta -= (1.0 / t) * grad
        obj = objective()
        better = obj < best_obj
        if better.any():
            np.copyto(best_obj, obj, where=better)
            np.copyto(best, theta, where=better[:, None])
    return best[:, :d].copy(), best[:, d].copy()


def decision_function(model: LinearModel, X) -> np.ndarray:
    """w . scale(x) + b for each row x of the matrix X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise DimensionMismatch(f"expected rows of {model.weights.shape[0]} features, got shape {X.shape}")
    return ((X - model.mean) / model.std) @ model.weights + model.bias


@dataclass(frozen=True)
class GridSearchResult:
    best_C: float
    cv_scores: dict[float, float]


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Assign each sample a fold id, dealing each class out round-robin."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def grid_search_cv(X, y, C_grid=(0.01, 0.1, 1.0, 10.0, 100.0), folds: int = 10,
                   seed: int = 0, passes: int = 2000) -> GridSearchResult:
    """Pick C by mean validation accuracy over stratified folds.

    The distinct (row, label) pairs are found once; each fold counts how
    often its training samples hold each, standardises them by those counts
    and fits the whole grid on them in one lockstep descent.  Ties go to
    the smallest C.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    Cs = np.array(list(dict.fromkeys(check_C(float(C)) for C in C_grid)))
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rows, ys, inverse = _distinct_rows(X, y)
    if X.shape[0] < folds:
        raise TooFewSamples(f"{X.shape[0]} samples cannot fill {folds} folds")
    if np.bincount(y, minlength=2).min() < 2:
        raise TooFewSamples("each class needs at least 2 samples for stratified folding")
    assignment = _stratified_folds(y, folds, seed)
    accs = []  # per nonempty fold, the validation accuracy of each C
    for k in range(folds):
        val = assignment == k
        if not val.any():
            continue
        counts = np.bincount(inverse[~val], minlength=len(rows))
        Z, fold_ys, counts, mean, std = _standardized(rows, ys, counts)
        W, b = _descend(Z, fold_ys, counts, Cs, passes)
        decisions = ((X[val] - mean) / std) @ W.T + b
        accs.append(np.mean((decisions >= 0.0) == y[val][:, None], axis=0))
    cv_scores = {C: float(np.mean(fold_accs)) for C, fold_accs in zip(Cs.tolist(), np.transpose(accs))}
    best_score = max(cv_scores.values())
    best_C = min(c for c, v in cv_scores.items() if v == best_score)
    return GridSearchResult(best_C=best_C, cv_scores=cv_scores)


def save_model(model: LinearModel, path, system: str = "ortho_svm") -> None:
    """Write the model as an ``svm-model`` artifact for ``system`` (its feature set)."""
    artifact.save(
        path, "svm-model", {"system": system, "dim": len(model.weights), "C": float(model.C)},
        {"weights": model.weights, "mean": model.mean, "std": model.std, "bias": np.array([model.bias])},
    )


def load_model(path, system: str | None = None, dim: int | None = None) -> LinearModel:
    """Read a model; ``system`` and ``dim``, when given, must match the file."""
    def n_features(text: str) -> int:
        n = int(text)
        if n < 1 or (dim is not None and n != dim):
            raise ValueError(f"{n} features, expected {dim or 'at least 1'}")
        return n

    header = {"system": artifact.one_of(*SYSTEMS), "dim": n_features, "C": lambda text: check_C(float(text))}
    values, t, lines = artifact.load(path, "svm-model", header, lambda h: {
        "weights": (h["dim"],), "mean": (h["dim"],), "std": (h["dim"],), "bias": (1,)}, system)
    if (t["std"] <= 0.0).any():
        raise artifact.ArtifactError(path, lines["std"], "feature scales must be > 0")
    return LinearModel(weights=t["weights"], bias=float(t["bias"][0]), mean=t["mean"], std=t["std"],
                       C=values["C"])
