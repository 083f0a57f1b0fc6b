"""Linear SVM trained on the primal hinge objective, plus grid-search CV.

The objective is ||w||^2 / 2 + C * mean(hinge); using the mean rather
than the sum keeps the fit invariant under duplicating every row (the sum
form is recovered by rescaling C).  Optimization is deterministic
full-batch subgradient descent with a 1/t step, returning the best
iterate seen.  One descent serves both callers: ``fit`` runs it for one
C, and the grid search for all of a fold's C values in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifact

# the systems an SVM model can be trained for; each has its own feature set
SYSTEMS = ("ortho_svm", "pmi_svm")


class SingleClass(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class TooFewSamples(ValueError):
    pass


class Diverged(ArithmeticError):
    """The descent overflowed for some C; its weights would be meaningless."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    weights: np.ndarray
    bias: float
    mean: np.ndarray  # per-feature scaler, applied before the dot product
    std: np.ndarray
    C: float


def _standardized(X: np.ndarray, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of ``X`` standardised in place, their +-1 labels, and the mean and scale.

    ``X`` and ``y`` must be a nonempty two-class training set; ``X`` is a
    float64 copy the caller owns.
    """
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionMismatch(f"X must be a nonempty 2-D matrix, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(f"y shape {y.shape} does not match {X.shape[0]} rows")
    if np.isnan(X).any():
        raise ValueError("X contains NaN")
    if len(np.unique(y)) < 2:
        raise SingleClass("training labels are constant")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    X -= mean
    X /= std
    return X, np.where(y == 1, 1.0, -1.0), mean, std


def fit(X, y, C: float = 1.0, passes: int = 2000) -> LinearModel:
    """Fit the linear classifier by the descent for the one value ``C``; deterministic."""
    Z, ys, mean, std = _standardized(np.array(X, dtype=np.float64), y)
    W, b = _descend(Z, ys, np.array([C], dtype=np.float64), passes)
    return LinearModel(weights=W[0], bias=float(b[0]), mean=mean, std=std, C=C)


def _descend(Z: np.ndarray, ys: np.ndarray, Cs: np.ndarray, passes: int) -> tuple[np.ndarray, np.ndarray]:
    """The subgradient descent on the standardised rows ``Z`` for every C of ``Cs`` at once.

    Returns the best iterates: weights ``[k, d]`` and biases ``[k]``, row i
    for ``Cs[i]``.  Each row takes its own 1/t steps and keeps its own best
    iterate, so no row depends on the others.  Raises Diverged when a row's
    last objective is not finite: an overflowed objective never beats the
    zero start, which would otherwise come back as that row's weights.
    """
    k, (n, d) = len(Cs), Z.shape
    # Each row's weights and bias as one [k, d + 1] matrix, against the signed
    # rows ys * [z, 1], so that margins and subgradient are one GEMM each.
    theta = np.zeros((k, d + 1))
    signed = np.empty((d + 1, n))
    np.multiply(Z.T, ys, out=signed[:d])
    signed[d] = ys
    neg_step = -(Cs / n)[:, None]
    margins, hinge, active = np.empty((k, n)), np.empty((k, n)), np.empty((k, n))
    grad = np.empty((k, d + 1))

    def objective() -> np.ndarray:
        """The objective of each row of ``theta``, leaving its margins in ``margins``."""
        np.matmul(theta, signed, out=margins)
        np.subtract(1.0, margins, out=hinge)
        np.maximum(hinge, 0.0, out=hinge)
        return 0.5 * np.einsum("kd,kd->k", theta[:, :d], theta[:, :d]) + Cs * hinge.mean(axis=1)

    obj = best_obj = objective()
    best = theta.copy()
    for t in range(1, passes + 1):
        np.less(margins, 1.0, out=active)
        np.matmul(active, signed.T, out=grad)
        grad *= neg_step
        grad[:, :d] += theta[:, :d]  # the bias is not in ||w||^2
        theta -= (1.0 / t) * grad
        obj = objective()
        better = obj < best_obj
        if better.any():
            np.copyto(best_obj, obj, where=better)
            np.copyto(best, theta, where=better[:, None])
    diverged = ~np.isfinite(obj)
    if diverged.any():
        raise Diverged("the SVM descent overflowed for C = "
                       + ", ".join(format(C, "g") for C in Cs[diverged]) + "; use a smaller C")
    return best[:, :d].copy(), best[:, d].copy()


def decision_function(model: LinearModel, X) -> np.ndarray:
    """w . scale(x) + b for each row x of the matrix X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise DimensionMismatch(f"expected rows of {model.weights.shape[0]} features, got shape {X.shape}")
    return ((X - model.mean) / model.std) @ model.weights + model.bias


def predict(model: LinearModel, X) -> np.ndarray:
    """1 iff the decision function of the row is >= 0."""
    return (decision_function(model, X) >= 0.0).astype(np.int64)


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

    Each fold standardises its training rows once and fits the whole grid
    in one lockstep descent.  Ties go to the smallest C.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] < folds:
        raise TooFewSamples(f"{X.shape[0]} samples cannot fill {folds} folds")
    counts = np.bincount(y, minlength=2)
    if counts.min() < 2:
        raise TooFewSamples("each class needs at least 2 samples for stratified folding")
    Cs = np.array(list(dict.fromkeys(float(C) for C in C_grid)))
    assignment = _stratified_folds(y, folds, seed)
    accs = []  # per nonempty fold, the validation accuracy of each C
    for k in range(folds):
        val = assignment == k
        if not val.any():
            continue
        Z, ys, mean, std = _standardized(X[~val], y[~val])  # X[~val] is a copy
        W, b = _descend(Z, ys, Cs, passes)
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

    header = {"system": artifact.one_of(*SYSTEMS), "dim": n_features, "C": artifact.finite_float}
    values, t, lines = artifact.load(path, "svm-model", header, lambda h: {
        "weights": (h["dim"],), "mean": (h["dim"],), "std": (h["dim"],), "bias": (1,)}, system)
    if (t["std"] <= 0.0).any():
        raise artifact.ArtifactError(path, lines["std"], "feature scales must be > 0")
    return LinearModel(weights=t["weights"], bias=float(t["bias"][0]), mean=t["mean"], std=t["std"],
                       C=values["C"])
