import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cognet import pmi, similarity, svm, synthetic, wordlists

import oracles


def _separable(n=40, d=3, seed=0, gap=2.0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(size=(n // 2, d)) - gap
    X1 = rng.normal(size=(n // 2, d)) + gap
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


def test_two_point_separable():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    model = svm.fit(X, y, C=1.0)
    assert np.array_equal(svm.decision_function(model, X) >= 0, y)


def test_separable_reaches_full_accuracy():
    X, y = _separable()
    model = svm.fit(X, y, C=1.0)
    assert np.mean((svm.decision_function(model, X) >= 0) == y) == 1.0


def test_xor_cannot_exceed_three_quarters():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    model = svm.fit(X, y, C=10.0)
    assert np.mean((svm.decision_function(model, X) >= 0) == y) <= 0.75


def test_duplicated_rows_leave_predictions_unchanged():
    X, y = _separable(n=30, seed=3)
    model = svm.fit(X, y, C=1.0)
    model_dup = svm.fit(np.vstack([X, X]), np.concatenate([y, y]), C=1.0)
    probe = np.vstack([X, _separable(n=20, seed=4)[0]])
    assert np.array_equal(svm.decision_function(model, probe) >= 0, svm.decision_function(model_dup, probe) >= 0)
    assert np.allclose(svm.decision_function(model, probe),
                       svm.decision_function(model_dup, probe), atol=1e-9)


def test_fit_errors():
    with pytest.raises(svm.SingleClass):
        svm.fit(np.ones((4, 2)), np.array([1, 1, 1, 1]), C=1.0)
    with pytest.raises(svm.DimensionMismatch):
        svm.fit(np.ones((4, 2)), np.array([0, 1]), C=1.0)
    with pytest.raises(ValueError, match=r"X\[0, 0\] is nan"):
        svm.fit(np.array([[np.nan], [1.0]]), np.array([0, 1]), C=1.0)


# An infinite feature is bad data, rejected before the solver sees it.
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_an_infinite_feature_is_rejected_naming_it(value):
    X, y = _separable(n=30, seed=19)
    X[7, 2] = value
    with pytest.raises(ValueError, match=rf"X\[7, 2\] is {value}: features must be finite"):
        svm.fit(X, y, C=1.0)
    with pytest.raises(ValueError, match=rf"X\[7, 2\] is {value}: features must be finite"):
        svm.grid_search_cv(X, y, C_grid=(1.0,), folds=3, seed=0, passes=10)


def test_standardization_of_training_features():
    X, y = _separable(n=30, seed=5)
    X[:, 1] *= 100.0
    X[:, 2] = 7.0  # zero variance
    model = svm.fit(X, y, C=1.0)
    Z = (X - model.mean) / model.std
    assert np.all(np.abs(Z.mean(axis=0))[:2] < 1e-9)
    assert np.all(np.abs(Z.std(axis=0)[:2] - 1.0) < 1e-9)
    assert model.std[2] == 1.0  # zero-variance convention


@pytest.mark.parametrize("value", [0.1, 7.0])
def test_constant_feature_is_inert(value):
    X, y = _separable(n=30, seed=6)
    X[:, 1] = value
    model = svm.fit(X, y, C=1.0, passes=200)
    assert model.mean[1] == value and model.std[1] == 1.0 and model.weights[1] == 0.0
    if value == 0.1:
        # 30 copies of 0.1 average to 0.10000000000000002, which once left the
        # column a scale of 1.4e-17 instead of the zero-variance convention's 1
        assert np.mean(X[:, 1]) != value
    probe = X[:5].copy()
    moved = probe.copy()
    moved[:, 1] = value + 0.1  # any other value scores the same
    assert np.array_equal(svm.decision_function(model, probe), svm.decision_function(model, moved))


def test_determinism_bit_identical():
    X, y = _separable(n=50, seed=7)
    m1 = svm.fit(X, y, C=10.0)
    m2 = svm.fit(X, y, C=10.0)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_fit_leaves_float64_input_unchanged():
    X, y = _separable(n=30, seed=7)
    X[:, 1] *= 100.0
    before = X.copy()
    svm.fit(X, y, C=1.0, passes=20)
    assert np.array_equal(X, before)


def test_objective_no_worse_than_zero_solution():
    X, y = _separable(n=50, seed=8, gap=0.5)
    model = svm.fit(X, y, C=5.0)
    Z = (X - model.mean) / model.std
    ys = np.where(y == 1, 1.0, -1.0)
    obj_zero = 5.0  # every margin of the zero model is 0, so each squared hinge is 1
    margins = ys * (Z @ model.weights + model.bias)
    obj = (0.5 * (model.weights @ model.weights + model.bias ** 2)
           + 5.0 * np.square(np.maximum(0, 1 - margins)).mean())
    assert obj <= obj_zero + 1e-9


def test_predict_agrees_with_decision_sign():
    X, y = _separable(n=30, seed=9, gap=0.3)
    model = svm.fit(X, y, C=1.0)
    rng = np.random.default_rng(0)
    probe = rng.normal(size=(50, X.shape[1]))
    # a row's label is the sign of w . z + b, z the row under the training scaler
    expected = ((probe - model.mean) / model.std) @ model.weights + model.bias
    assert np.array_equal(svm.decision_function(model, probe), expected)


def test_predict_single_vector():
    # one vector is scored as a one-row matrix; a bare vector is rejected
    X, y = _separable(n=20, seed=10)
    model = svm.fit(X, y, C=1.0)
    centroid0 = X[y == 0].mean(axis=0)
    assert (svm.decision_function(model, centroid0[None, :]) >= 0).tolist() == [False]
    with pytest.raises(svm.DimensionMismatch):
        svm.decision_function(model, centroid0)
    with pytest.raises(svm.DimensionMismatch):
        svm.decision_function(model, np.zeros((1, X.shape[1] + 1)))


def test_grid_search_separable_prefers_smallest_c():
    X, y = _separable(n=60, seed=11)
    result = svm.grid_search_cv(X, y, C_grid=(0.01, 0.1, 1.0), folds=10, seed=0)
    assert result.best_C == 0.01
    assert all(v == pytest.approx(1.0) for v in result.cv_scores.values())


def test_grid_search_single_value():
    X, y = _separable(n=40, seed=12)
    result = svm.grid_search_cv(X, y, C_grid=(3.0,), folds=10, seed=0)
    assert result.best_C == 3.0


def test_grid_search_fold_partition():
    X, y = _separable(n=46, seed=13)
    assignment = svm._stratified_folds(y, 10, seed=1)
    assert assignment.shape == (46,)
    assert assignment.min() >= 0 and assignment.max() < 10
    # every sample lands in exactly one fold, classes spread across folds
    for cls in (0, 1):
        counts = np.bincount(assignment[y == cls], minlength=10)
        assert counts.max() - counts.min() <= 1


# 0/1 labels where either class may be absent: counting the classes deals
# the same folds, through the same shuffles, as np.unique's classes did.
@settings(deadline=None)
@given(y=st.lists(st.integers(0, 1), max_size=60), folds=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_stratified_folds_equal_the_unique_classes_oracle(y, folds, seed):
    y = np.array(y, dtype=np.int64)
    np.testing.assert_array_equal(svm._stratified_folds(y, folds, seed),
                                  oracles.stratified_folds_unique(y, folds, seed))


def test_grid_search_shuffled_labels_near_chance():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(80, 5))
    accs = []
    for shuffle_seed in range(20):
        y = np.array([0] * 40 + [1] * 40)
        np.random.default_rng(shuffle_seed).shuffle(y)
        result = svm.grid_search_cv(X, y, C_grid=(1.0,), folds=10, seed=0, passes=300)
        accs.append(max(result.cv_scores.values()))
    assert abs(np.mean(accs) - 0.5) < 0.1


def test_grid_search_errors():
    X, y = _separable(n=8, seed=15)
    with pytest.raises(svm.TooFewSamples):
        svm.grid_search_cv(X, y, folds=10)
    X2 = np.vstack([_separable(n=20, seed=16)[0]])
    y2 = np.array([0] * 19 + [1])
    with pytest.raises(svm.TooFewSamples):
        svm.grid_search_cv(X2, y2, folds=10)


# C is bounded where it enters, so a C whose Newton system could be singular
# is turned away naming it before any solve runs.
def test_fit_with_an_overflowing_C_raises_naming_it():
    X, y = _separable(n=30, seed=18)
    with pytest.raises(ValueError, match=r"^C 1e\+160 is not in \(0, 10000\]$"):
        svm.fit(X, y, C=1e160)
    for C in (float(np.nextafter(svm.MAX_C, np.inf)), 0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"^C {re.escape(repr(C))} is not in"):
            svm.fit(X, y, C=C)
    assert svm.fit(X, y, C=svm.MAX_C, passes=50).C == svm.MAX_C


def test_grid_search_names_only_the_overflowing_C():
    X, y = _separable(n=30, seed=18)
    with pytest.raises(ValueError, match=r"^C 1e\+160 is not in \(0, 10000\]$"):
        svm.grid_search_cv(X, y, C_grid=(1.0, 1e160), folds=3, seed=0, passes=50)


def test_grid_search_needs_two_folds():
    X, y = _separable(n=40, seed=20)
    with pytest.raises(ValueError, match="^folds must be >= 2, got 1$"):
        svm.grid_search_cv(X, y, folds=1)


# a negative pass count would otherwise return the all-zero start for every C
@pytest.mark.parametrize("search", [False, True])
def test_negative_passes_raise_naming_them(search):
    X, y = _separable(n=40, seed=20)
    with pytest.raises(ValueError, match="^passes must be >= 0, got -5$"):
        if search:
            svm.grid_search_cv(X, y, folds=5, passes=-5)
        else:
            svm.fit(X, y, passes=-5)


def test_model_file_round_trip(tmp_path):
    X, y = _separable(n=30, seed=17)
    model = svm.fit(X, y, C=0.1)
    path = tmp_path / "model.txt"
    svm.save_model(model, path)
    loaded = svm.load_model(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert np.array_equal(loaded.mean, model.mean)
    assert np.array_equal(loaded.std, model.std)
    assert loaded.C == model.C
    probe = _separable(n=10, seed=18)[0]
    assert np.array_equal(svm.decision_function(loaded, probe),
                          svm.decision_function(model, probe))


# Each step cap, reached or not, against the oracle's Newton steps summed
# over every sample, whose lengths it finds by bisection.
@pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("passes", [1, 7, 40, 300])
def test_fit_reusing_margins_equals_recomputing_oracle(C, passes):
    X, y = _separable(n=60, d=4, seed=11, gap=0.5)
    got = svm.fit(X, y, C=C, passes=passes)
    want = oracles.svm_fit_newton(X, y, C=C, passes=passes)
    np.testing.assert_allclose(got.weights, want.weights, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.bias, want.bias, rtol=1e-9, atol=1e-9)


def _family_features():
    """Ortho and PMI feature matrices, with labels, of a small synthetic family."""
    pairs = wordlists.generate_pairs(synthetic.generate_family(n_concepts=12, n_languages=6, seed=7))
    forms = [(p.a.form, p.b.form) for p in pairs]
    matrix = pmi.estimate_pmi(forms)
    y = np.array([p.label for p in pairs])
    table, index, row = wordlists.form_table(forms)
    return {"ortho": (similarity.feature_matrix(table, index)[row], y),
            "pmi": (np.array([pmi.pmi_features(a, b, matrix) for a, b in forms]), y)}


def _shuffled_labels():
    X = np.random.default_rng(14).normal(size=(80, 5))
    y = np.array([0] * 40 + [1] * 40)
    np.random.default_rng(3).shuffle(y)
    return X, y


GRID_FIXTURES = {
    "separable": lambda: _separable(n=60, seed=11),
    "shuffled_labels": _shuffled_labels,
    "family_ortho": lambda: _family_features()["ortho"],
    "family_pmi": lambda: _family_features()["pmi"],
}


@pytest.mark.parametrize("passes", [50, 2000])
@pytest.mark.parametrize("fixture", sorted(GRID_FIXTURES))
def test_grid_search_equals_separate_fits_oracle(fixture, passes):
    X, y = GRID_FIXTURES[fixture]()
    got = svm.grid_search_cv(X, y, folds=10, seed=1, passes=passes)
    want = oracles.grid_search_cv_separate(X, y, folds=10, seed=1, passes=passes)
    assert got.best_C == want.best_C
    assert got.cv_scores == want.cv_scores


def test_grid_search_unsorted_and_duplicate_grid():
    X, y = _separable(n=60, d=4, seed=11, gap=0.5)
    grid = (10.0, 0.1, 10.0, 1.0, 0.1)
    got = svm.grid_search_cv(X, y, C_grid=grid, folds=5, seed=2, passes=200)
    want = oracles.grid_search_cv_separate(X, y, C_grid=grid, folds=5, seed=2, passes=200)
    assert list(got.cv_scores) == [10.0, 0.1, 1.0]
    assert got.cv_scores == want.cv_scores
    assert got.best_C == want.best_C == min(c for c, v in got.cv_scores.items()
                                            if v == max(got.cv_scores.values()))


def test_grid_search_single_class_training_fold(monkeypatch):
    # stratified folds never leave a training fold with one class, so put
    # every positive into fold 0
    X, y = _separable(n=40, seed=12)

    def positives_in_fold_0(y, folds, seed):
        return np.where(y == 1, 0, 1 + np.arange(len(y)) % (folds - 1))

    monkeypatch.setattr(svm, "_stratified_folds", positives_in_fold_0)
    with pytest.raises(svm.SingleClass):
        svm.grid_search_cv(X, y, folds=10)


# Continuous rows are distinct, so the oracle tries the 2^n active sets of
# at most 10 of them, one C at a time.
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), d=st.integers(1, 6),
       Cs=st.lists(st.sampled_from([0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0]), min_size=1, max_size=5))
def test_descend_rows_match_fit(seed, n, d, Cs):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d) + rng.normal(size=d)
    y = np.zeros(n, dtype=np.int64)
    y[rng.permutation(n)[:rng.integers(1, n)]] = 1
    Z, ys, counts, _, _ = svm._standardized(X, np.where(y == 1, 1.0, -1.0), np.ones(n, dtype=np.int64))
    W, b = svm._descend(Z, ys, counts, np.array(Cs), 2000)
    for i, C in enumerate(Cs):
        model = oracles.svm_fit_enumerated(X, y, C=C)
        np.testing.assert_allclose(W[i], model.weights, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(b[i], model.bias, rtol=1e-9, atol=1e-9)


# Repeats of at most 10 continuous rows: the fit weighs each distinct row
# by its count, the oracle sums over every repeat.
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 10), d=st.integers(1, 5),
       C=st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]))
def test_fit_on_repeated_rows_matches_per_row_oracle(seed, m, d, C):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0, size=d) + rng.normal(size=d)
    labels = rng.permutation(np.arange(m) % 2)
    rows = rng.permutation(np.repeat(np.arange(m), rng.integers(1, 6, size=m)))
    X, y = U[rows], labels[rows]
    got = svm.fit(X, y, C=C)
    want = oracles.svm_fit_enumerated(X, y, C=C)
    np.testing.assert_allclose(got.weights, want.weights, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.bias, want.bias, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.mean, want.mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.std, want.std, rtol=1e-9)


_C_UP_TO_THE_BOUND = st.one_of(st.just(svm.MAX_C),
                               st.floats(-2.0, np.log10(svm.MAX_C)).map(lambda e: min(10.0 ** e, svm.MAX_C)))


def _weighted_rows(rng, u: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``u`` distinct continuous rows of ``d`` features with both labels, each held 1-5 times.

    Returns them standardised, with their labels and counts.
    """
    X = rng.normal(size=(u, d)) * rng.uniform(0.1, 10.0, size=d) + rng.normal(size=d)
    ys = np.where(rng.permutation(np.arange(u) % 2) == 1, 1.0, -1.0)
    return svm._standardized(X, ys, rng.integers(1, 6, size=u))[:3]


def _signed(Z, ys):
    return ys[:, None] * np.column_stack([Z, np.ones(len(Z))])


def _objective(Z, ys, counts, C, theta) -> float:
    hinge = np.maximum(0.0, 1.0 - _signed(Z, ys) @ theta)
    return 0.5 * theta @ theta + C / counts.sum() * counts @ np.square(hinge)


# Each row of the lockstep solve is the exact minimiser, whose active set the
# oracle finds among all 2^u, with each distinct row repeated count times.
# Each step's line search is exact, so a larger cap on the steps never gives
# a larger objective (a full Newton step can overshoot and raise it).
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), u=st.integers(2, 10), d=st.integers(1, 8),
       Cs=st.lists(_C_UP_TO_THE_BOUND, min_size=1, max_size=4))
def test_descend_equals_the_enumeration_oracle(seed, u, d, Cs):
    Z, ys, counts = _weighted_rows(np.random.default_rng(seed), u, d)
    W, b = svm._descend(Z, ys, counts, np.array(Cs), 2000)
    capped = [svm._descend(Z, ys, counts, np.array(Cs), passes) for passes in range(8)]
    samples = np.repeat(np.arange(u), counts)
    for i, C in enumerate(Cs):
        want = oracles.svm_theta_enumerated(_signed(Z, ys)[samples], C, samples)
        assert np.linalg.norm(np.append(W[i], b[i]) - want) <= 1e-9 * np.linalg.norm(want)
        f = [_objective(Z, ys, counts, C, np.append(Wc[i], bc[i])) for Wc, bc in capped]
        assert all(later <= earlier * (1.0 + 1e-12) for earlier, later in zip(f, f[1:]))


def _gradient_and_size(Z, ys, counts, C, theta) -> tuple[float, float]:
    """||grad f(theta)||, and the size of its terms.

    The size is ||theta|| + (2C/n) sum_j counts_j max(0, 1 - theta . a_j) ||a_j||.
    """
    A = _signed(Z, ys)
    hinge = (2.0 * C / counts.sum()) * counts * np.maximum(0.0, 1.0 - A @ theta)
    size = np.linalg.norm(theta) + hinge @ np.linalg.norm(A, axis=1)
    return float(np.linalg.norm(theta - hinge @ A)), float(size)


# f is 1-strongly convex, so ||theta - theta*|| <= ||grad f(theta)||.  On sets
# too large to enumerate the gradient must vanish to 1e-9 of its terms' size,
# which is where rounding leaves it at large C.
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), u=st.integers(2, 60), d=st.integers(1, 8),
       Cs=st.lists(_C_UP_TO_THE_BOUND, min_size=1, max_size=4))
def test_descend_returns_a_vanishing_gradient(seed, u, d, Cs):
    Z, ys, counts = _weighted_rows(np.random.default_rng(seed), u, d)
    W, b = svm._descend(Z, ys, counts, np.array(Cs), 2000)
    for i, C in enumerate(Cs):
        grad, size = _gradient_and_size(Z, ys, counts, C, np.append(W[i], b[i]))
        assert grad <= 1e-9 * size


# The grid search's fits on a small family's ortho and PMI features, in every
# fold and for every C of the default grid, reach the minimiser too.
@pytest.mark.parametrize("fixture", ["family_ortho", "family_pmi"])
def test_grid_search_fits_return_a_vanishing_gradient(fixture):
    X, y = GRID_FIXTURES[fixture]()
    rows, ys, inverse = svm._distinct_rows(X, y)
    Cs = np.array([0.01, 0.1, 1.0, 10.0, 100.0])
    for k in range(10):
        counts = np.bincount(inverse[svm._stratified_folds(y, 10, seed=1) != k], minlength=len(rows))
        Z, fold_ys, counts, _, _ = svm._standardized(rows, ys, counts)
        W, b = svm._descend(Z, fold_ys, counts, Cs, 2000)
        for i, C in enumerate(Cs):
            grad, size = _gradient_and_size(Z, fold_ys, counts, C, np.append(W[i], b[i]))
            assert grad <= 1e-9 * size


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), d=st.integers(1, 5),
       C=st.sampled_from([0.01, 1.0, 100.0]), passes=st.integers(0, 200))
def test_fit_on_every_row_twice_is_bit_identical(seed, n, d, C, passes):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)).round(int(rng.integers(0, 3)))  # rounding makes some rows repeat
    y = rng.permutation(np.arange(n) % 2)
    once = svm.fit(X, y, C=C, passes=passes)
    twice = svm.fit(np.vstack([X, X]), np.concatenate([y, y]), C=C, passes=passes)
    for field in ("weights", "bias", "mean", "std"):
        assert np.array_equal(getattr(once, field), getattr(twice, field)), field


# What the bound svm.MAX_C promises: for every C up to it, no number of the
# solve overflows and its matrix is never singular.  One outlier row takes a
# standardised entry to nearly sqrt(n), the largest it can be.
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30), d=st.integers(1, 5),
       Cs=st.lists(_C_UP_TO_THE_BOUND, min_size=1, max_size=3), passes=st.integers(1, 300))
def test_descend_stays_finite_for_every_C_up_to_the_bound(seed, n, d, Cs, passes):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[rng.integers(n)] = 1e6 * rng.choice([-1.0, 1.0], size=d)
    y = rng.permutation(np.arange(n) % 2)
    Z, ys, counts, _, _ = svm._standardized(X, np.where(y == 1, 1.0, -1.0), np.ones(n, dtype=np.int64))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        W, b = svm._descend(Z, ys, counts, np.array(Cs), passes)
    assert np.isfinite(W).all() and np.isfinite(b).all()


# A column near the largest float has moments that squaring it would
# overflow; standardising is blind to a column's scale, so the fit is the
# one of the column at scale 1.
def test_a_column_of_1e300_standardises_like_its_scale_1_copy():
    X, y = _separable(n=30, seed=21)
    X[:, 0] = np.where(y == 1, 1.0, -1.0) + X[:, 1]
    huge = X.copy()
    huge[:, 0] *= 1e300
    model, reference = svm.fit(huge, y, C=1.0), svm.fit(X, y, C=1.0)
    np.testing.assert_allclose(model.mean[0], 1e300 * reference.mean[0], rtol=1e-12)
    np.testing.assert_allclose(model.std[0], 1e300 * reference.std[0], rtol=1e-12)
    np.testing.assert_allclose(model.weights, reference.weights, rtol=1e-9)
    np.testing.assert_allclose(svm.decision_function(model, huge), svm.decision_function(reference, X), rtol=1e-9)
