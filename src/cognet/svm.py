"""Linear SVM on the primal squared hinge, plus grid-search CV.

The objective of theta = (w, b) is ||theta||^2 / 2 + C * mean(max(0, 1 -
y (w . z + b))^2), LIBLINEAR's L2-loss SVM (``-s 1``) with the bias as one
more regularised weight: smooth and 1-strongly convex, so finite Newton with
an exact line search (Keerthi & DeCoste 2005) reaches its minimiser in a few
steps.  Through the mean it depends only on the distinct (row, label) pairs
and their shares, so the solver runs over those, weighted by their counts
(doubling every row leaves the fit bit-identical), for one C in ``fit`` and
for a fold's C grid in lockstep.  ``MAX_C`` bounds C wherever it enters.
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


# The largest C.  Rounding the margins fixes the minimiser only to about
# eps * C * ||a||^2 relative (a = y [z, 1]; 5e-15 * C on random sets of up to
# 60 rows and 8 features), so 1e4 keeps it near 1e-11.  f(theta) <= f(0) = C
# bounds ||theta|| by sqrt(2C), and the Newton matrix's eigenvalues lie in
# [1, 1 + 2C (d n + 1)]: nothing overflows, and no solve meets a singular one.
MAX_C = 1e4


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

    Returns the distinct rows of ``X`` (read back from their keys), their
    +-1 labels and ``inverse``, so that sample i is row ``inverse[i]``; the
    solver weighs each distinct row by how often it occurs.  Raises on a
    shape mismatch or a non-finite feature.
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
    keys, inverse = wordlists.distinct(row.tobytes() for row in np.column_stack([X, y == 1]))
    rows = np.frombuffer(b"".join(keys), dtype=np.float64).reshape(len(keys), -1)
    return rows[:, :-1], np.where(rows[:, -1] == 1.0, 1.0, -1.0), inverse


def _standardized(rows: np.ndarray, ys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of nonzero count, standardised, with their labels and counts, and the mean and scale.

    The mean and scale are those of the training set that holds each row
    ``counts`` times, taken on each column divided by its largest magnitude,
    so no finite feature overflows them.  A column whose kept rows hold one value
    takes it as its mean and 1 as its scale, so its weight stays 0.
    """
    kept = np.flatnonzero(counts)
    X, ys, counts = rows[kept], ys[kept], counts[kept]
    if ys.min() == ys.max():
        raise SingleClass("training labels are constant")
    n = counts.sum()
    top = np.abs(X).max(axis=0)
    Z = X / np.where(top == 0.0, 1.0, top)
    mean = counts @ Z / n
    Z -= mean
    std = np.sqrt(counts @ np.square(Z) / n)
    constant = (X == X[0]).all(axis=0)
    Z[:, constant], std[constant] = 0.0, 1.0
    Z /= std
    return Z, ys, counts, np.where(constant, X[0], mean * top), np.where(constant, 1.0, std * top)


def fit(X, y, C: float = 1.0, passes: int = 2000) -> LinearModel:
    """Fit the linear classifier for the one value ``C`` in at most ``passes`` Newton steps; deterministic."""
    check_C(C)
    rows, ys, inverse = _distinct_rows(X, y)
    Z, ys, counts, mean, std = _standardized(rows, ys, np.bincount(inverse, minlength=len(rows)))
    W, b = _descend(Z, ys, counts, np.array([C], dtype=np.float64), passes)
    return LinearModel(weights=W[0], bias=float(b[0]), mean=mean, std=std, C=C)


def _descend(Z: np.ndarray, ys: np.ndarray, counts: np.ndarray, Cs: np.ndarray,
             passes: int) -> tuple[np.ndarray, np.ndarray]:
    """Finite Newton on the standardised rows ``Z`` for every C of ``Cs`` at once.

    Row j, signed as a_j = ys[j] [Z[j], 1], stands for ``counts[j]`` samples
    and is active while its hinge 1 - theta . a_j is positive.  Each step
    solves (I + (2C/n) sum_active counts[j] a_j a_j^T) s = -grad for the C
    values still running and moves to the minimiser along s.  theta + s
    minimises with the active set held, so a C whose set repeats is at the
    minimiser and stops, as one with a zero gradient does.  ``passes`` caps
    the steps.  Returns weights ``[k, d]`` and biases ``[k]``.
    """
    if passes < 0:
        raise ValueError(f"passes must be >= 0, got {passes}")
    (u, d), k = Z.shape, len(Cs)
    signed = np.vstack([Z.T, np.ones(u)]) * ys  # [d + 1, u]: column j is a_j
    weights = (2.0 / counts.sum() * Cs)[:, None] * counts  # [k, u]: (2C/n) * counts[j]
    theta, live = np.zeros((k, d + 1)), np.arange(k)
    last = np.zeros((k, u), dtype=bool)  # the active set of each C's last step
    for _ in range(passes):
        slack = 1.0 - theta[live] @ signed
        active = slack > 0.0
        grad = theta[live] - (weights[live] * np.maximum(slack, 0.0)) @ signed.T
        going = (active != last[live]).any(axis=1) & grad.any(axis=1)
        live, slack, active, grad = live[going], slack[going], active[going], grad[going]
        if not live.size:
            break
        last[live] = active
        hess = np.matmul(signed * (weights[live] * active)[:, None, :], signed.T) + np.eye(d + 1)
        step = np.linalg.solve(hess, -grad[..., None])[..., 0]
        # The exact minimiser along each step (Keerthi & DeCoste 2005).  The
        # slope in t is piecewise linear and increasing: row j adds -w_j delta_j
        # (slack_j - t delta_j) while active, and joins (delta_j < 0) or leaves
        # (delta_j > 0) at max(0, slack_j / delta_j).  With those ends sorted, t
        # is the root on the first segment whose slope at its end is >= 0.  A
        # rate sums positive terms only, of rows joined and rows yet to leave.
        delta, m = step @ signed, len(live)
        turns = (delta < 0.0) | (delta > 0.0) & (slack > 0.0)
        ends = np.divide(slack, delta, out=np.full(slack.shape, np.inf), where=turns)
        flat = (np.argsort(ends, axis=1) + np.arange(0, slack.size, u)[:, None]).ravel()
        slack, delta, wd = (a.take(flat).reshape(m, u) for a in (slack, delta, weights[live] * delta))
        terms = np.stack([-wd * slack, wd * delta])  # each row's offset and rate, by end
        line = np.zeros((2, m, u + 1))  # the slope's offset and rate past the first i ends
        np.cumsum(terms * (delta < 0.0), axis=2, out=line[..., 1:])
        line[..., :-1] += np.cumsum((terms * ((delta > 0.0) & (slack > 0.0)))[..., ::-1], axis=2)[..., ::-1]
        offset, rate = line + np.stack([(theta[live] * step).sum(axis=1), (step * step).sum(axis=1)])[..., None]
        ends = np.column_stack([np.maximum(ends.take(flat).reshape(m, u), 0.0), np.full(m, np.inf)])
        segment = np.argmax(offset + rate * ends >= 0.0, axis=1)
        theta[live] += np.maximum(-offset[range(m), segment] / rate[range(m), segment], 0.0)[:, None] * step
    return theta[:, :d].copy(), theta[:, d].copy()


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
    for cls in np.flatnonzero(np.bincount(y)):  # the classes present, ascending; np.unique loads numpy.ma
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def grid_search_cv(X, y, C_grid=(0.01, 0.1, 1.0, 10.0, 100.0), folds: int = 10,
                   seed: int = 0, passes: int = 2000) -> GridSearchResult:
    """Pick C by mean validation accuracy over stratified folds.

    The distinct (row, label) pairs are found once; each fold counts how
    often its training samples hold each, standardises them by those counts
    and fits the whole grid on them in one lockstep solve.  Ties go to
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
