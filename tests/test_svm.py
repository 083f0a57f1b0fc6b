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


# An infinite feature is bad data, not an overflow of the descent: it would
# otherwise come back as Diverged, blaming C.
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
    obj_zero = 5.0 * np.maximum(0, 1 - ys * 0.0).mean()
    margins = ys * (Z @ model.weights + model.bias)
    obj = 0.5 * model.weights @ model.weights + 5.0 * np.maximum(0, 1 - margins).mean()
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


# An overflowed objective never beats the zero start; returning that start
# would be an all-zero model, so the descent fails naming the C instead, and
# without a numpy warning.
def test_fit_with_an_overflowing_C_raises_naming_it():
    X, y = _separable(n=30, seed=18)
    with pytest.raises(svm.Diverged, match=r"C = 1e\+160;"):
        svm.fit(X, y, C=1e160)


def test_grid_search_names_only_the_overflowing_C():
    X, y = _separable(n=30, seed=18)
    with pytest.raises(svm.Diverged, match=r"overflowed for C = 1e\+160;"):
        svm.grid_search_cv(X, y, C_grid=(1.0, 1e160), folds=3, seed=0, passes=50)


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


@pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("passes", [1, 7, 40, 300])
def test_fit_reusing_margins_equals_recomputing_oracle(C, passes):
    X, y = _separable(n=60, d=4, seed=11, gap=0.5)
    got = svm.fit(X, y, C=C, passes=passes)
    want = oracles.svm_fit_recomputed(X, y, C=C, passes=passes)
    np.testing.assert_allclose(got.weights, want.weights, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.bias, want.bias, rtol=1e-9, atol=1e-9)



def _family_features():
    """Ortho and PMI feature matrices, with labels, of a small synthetic family."""
    pairs = wordlists.generate_pairs(synthetic.generate_family(n_concepts=12, n_languages=6, seed=7))
    forms = [(p.a.form, p.b.form) for p in pairs]
    matrix = pmi.estimate_pmi(forms)
    y = np.array([p.label for p in pairs])
    return {"ortho": (similarity.feature_matrix(forms), y),
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


# The descent is discontinuous where a margin sits exactly at 1, so rows are
# drawn from a continuous distribution: there the lockstep descent and the
# separate recomputing fit differ only by summation order.
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), d=st.integers(1, 6),
       Cs=st.lists(st.sampled_from([0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0]), min_size=1, max_size=5),
       passes=st.integers(0, 300))
def test_descend_rows_match_fit(seed, n, d, Cs, passes):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d) + rng.normal(size=d)
    y = np.zeros(n, dtype=np.int64)
    y[rng.permutation(n)[:rng.integers(1, n)]] = 1
    Z, ys, counts, _, _ = svm._standardized(X, np.where(y == 1, 1.0, -1.0), np.ones(n, dtype=np.int64))
    W, b = svm._descend(Z, ys, counts, np.array(Cs), passes)
    for i, C in enumerate(Cs):
        model = oracles.svm_fit_recomputed(X, y, C=C, passes=passes)
        np.testing.assert_allclose(W[i], model.weights, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(b[i], model.bias, rtol=1e-9, atol=1e-9)


# Repeats of continuous rows.  The descent is discontinuous where a margin
# sits exactly at 1, and there a count-weighted sum and a sum over the
# repeats may round to opposite sides.  Two distinct rows can put a margin
# exactly there (one feature, n = 7, C = 1, 192 passes did), so at least
# three are drawn.
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 12), d=st.integers(1, 5),
       C=st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]), passes=st.integers(0, 300))
def test_fit_on_repeated_rows_matches_per_row_oracle(seed, m, d, C, passes):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0, size=d) + rng.normal(size=d)
    labels = rng.permutation(np.arange(m) % 2)
    rows = rng.permutation(np.repeat(np.arange(m), rng.integers(1, 6, size=m)))
    X, y = U[rows], labels[rows]
    got = svm.fit(X, y, C=C, passes=passes)
    want = oracles.svm_fit_recomputed(X, y, C=C, passes=passes)
    np.testing.assert_allclose(got.weights, want.weights, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.bias, want.bias, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.mean, want.mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.std, want.std, rtol=1e-9)


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
