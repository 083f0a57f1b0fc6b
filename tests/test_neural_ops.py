import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cognet.neural import ops, losses
from cognet.neural.adadelta import AdadeltaState, adadelta_step

from conftest import max_rel_err, numeric_grad
from oracles import conv2d_backward_offsets, conv2d_im2col, conv2d_offsets, maxpool2_argmax

TOL = 1e-4


def _away_from_zero(x, margin=0.05):
    return np.sign(x) * (np.abs(x) + margin)


def test_conv2d_shape_and_bias():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 10, 16, 1))
    k = rng.normal(size=(2, 3, 1, 10))
    b = rng.normal(size=10)
    out, _ = ops.conv2d(x, k, b)
    assert out.shape == (2, 9, 14, 10)
    zero, _ = ops.conv2d(np.zeros_like(x), k, b)
    assert np.allclose(zero, np.broadcast_to(b, zero.shape))


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 5, 7, 1))
    k = np.ones((1, 1, 1, 1))
    out, _ = ops.conv2d(x, k, np.zeros(1))
    assert np.allclose(out, x)


def test_conv2d_shape_errors():
    x = np.zeros((1, 4, 4, 2))
    with pytest.raises(ops.ShapeMismatch):
        ops.conv2d(x, np.zeros((2, 2, 3, 5)), np.zeros(5))
    with pytest.raises(ops.ShapeMismatch):
        ops.conv2d(x, np.zeros((5, 2, 2, 5)), np.zeros(5))
    with pytest.raises(ops.ShapeMismatch):
        ops.conv2d(x, np.zeros((2, 2, 2, 5)), np.zeros(4))


def test_relu_example():
    out, _ = ops.relu(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(out, [0.0, 0.0, 2.0])


def test_maxpool2_shapes():
    x = np.zeros((1, 9, 14, 10))
    out, _ = ops.maxpool2(x)
    assert out.shape == (1, 4, 7, 10)
    with pytest.raises(ops.ShapeMismatch):
        ops.maxpool2(np.zeros((1, 1, 4, 2)))


def test_maxpool2_takes_window_max():
    x = np.arange(16.0).reshape(1, 4, 4, 1)
    out, _ = ops.maxpool2(x)
    assert np.array_equal(out[0, :, :, 0], [[5.0, 7.0], [13.0, 15.0]])


@pytest.mark.parametrize("B", [1, 5, 128])
@pytest.mark.parametrize("kernel", [(1, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("C", [1, 2, 3, 10])
def test_conv2d_matches_per_offset_oracle(C, kernel, B):
    rng = np.random.default_rng(C * 1000 + B + 1)
    x = rng.normal(size=(B, 10, 16, C))
    k = rng.normal(size=(*kernel, C, 10))
    b = rng.normal(size=10)
    out, cache = ops.conv2d(x, k, b)
    expected = conv2d_offsets(x, k, b)
    assert out.shape == expected.shape
    assert cache[0] is x and cache[1] is k
    if C > 2:  # still the per-offset sum, in the same float order
        assert np.array_equal(out, expected)
    else:
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("B", [1, 5, 128])
@pytest.mark.parametrize("kernel", [(1, 3), (2, 3), (3, 2)])
@pytest.mark.parametrize("C", [1, 2])
def test_conv1_equals_the_im2col_oracle(C, kernel, B):
    # conv1 keeps the float order of one GEMM over its windows
    rng = np.random.default_rng(C * 1000 + B + 2)
    x = rng.normal(size=(B, 10, 16, C))
    k = rng.normal(size=(*kernel, C, 10))
    b = rng.normal(size=10)
    assert np.array_equal(ops.conv2d(x, k, b)[0], conv2d_im2col(x, k, b)[0])


def _batch_minor(x):
    """x's values, stored as the trunk stores its activations."""
    return np.ascontiguousarray(x.transpose(3, 1, 2, 0)).transpose(3, 1, 2, 0)


def _is_batch_minor(a):
    return a.transpose(3, 1, 2, 0).flags.c_contiguous


@settings(deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(2, 7), st.integers(3, 9), st.integers(1, 4)),
       kernel=st.tuples(st.integers(1, 2), st.integers(1, 3)),
       seed=st.integers(0, 2**32 - 1))
def test_ops_agree_on_channels_last_and_batch_minor_inputs(shape, kernel, seed):
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=shape), 1)  # coarse values: ReLU zeros and pooling ties
    xs = (x, _batch_minor(x))
    k = rng.normal(size=(*kernel, shape[3], 3))
    b = rng.normal(size=3)

    conv = [ops.conv2d(v, k, b) for v in xs]
    assert np.array_equal(conv[0][0], conv[1][0])
    grad = rng.normal(size=conv[0][0].shape)
    backs = [ops.conv2d_backward(conv[0][1], grad), ops.conv2d_backward(conv[1][1], _batch_minor(grad))]
    for got, expected in zip(*backs):
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    relus = [ops.relu(v) for v in xs]
    assert np.array_equal(relus[0][0], relus[1][0]) and np.array_equal(relus[0][1], relus[1][1])
    g = rng.normal(size=shape)
    assert np.array_equal(ops.relu_backward(relus[0][1], g), ops.relu_backward(relus[1][1], _batch_minor(g)))

    pools = [ops.maxpool2(v) for v in xs]
    assert np.array_equal(pools[0][0], pools[1][0]) and np.array_equal(pools[0][1][1], pools[1][1][1])
    gp = rng.normal(size=pools[0][0].shape)
    assert np.array_equal(ops.maxpool2_backward(pools[0][1], gp), ops.maxpool2_backward(pools[1][1], _batch_minor(gp)))

    # whatever the input layout, the spatial ops hand on batch-minor arrays
    for produced in (conv[0][0], backs[0][0], pools[0][0], pools[0][1][1], ops.maxpool2_backward(pools[0][1], gp)):
        assert _is_batch_minor(produced)


def _assert_maxpool2_matches_argmax_oracle(x):
    out, cache = ops.maxpool2(x)
    grad = np.arange(1.0, out.size + 1).reshape(out.shape)  # distinct, so misrouting shows
    e_out, e_idx, e_gx = maxpool2_argmax(x, grad)
    assert cache[0] == x.shape
    assert np.array_equal(out, e_out)
    assert np.array_equal(cache[1], e_idx)
    assert np.array_equal(ops.maxpool2_backward(cache, grad), e_gx)


@pytest.mark.parametrize("shape", [(1, 9, 13, 3), (5, 8, 12, 10), (3, 7, 5, 2), (128, 8, 12, 10)])
def test_maxpool2_matches_argmax_oracle(shape):
    x = np.random.default_rng(sum(shape)).normal(size=shape)
    _assert_maxpool2_matches_argmax_oracle(x)


def test_maxpool2_ties_go_to_the_first_maximum():
    # zero-padded word rows give one positive activation across whole rows
    rng = np.random.default_rng(14)
    z = rng.normal(size=(4, 9, 13, 5))
    z[:, 4:] = rng.uniform(0.1, 1.0, size=(4, 1, 1, 5))
    x, _ = ops.relu(z)
    _assert_maxpool2_matches_argmax_oracle(x)


@settings(deadline=None)
@given(x=st.tuples(st.integers(1, 3), st.integers(2, 9), st.integers(2, 9), st.integers(1, 3)).flatmap(
           lambda shape: arrays(np.float64, shape, elements=st.sampled_from([-1.0, 0.0, 1.0, 2.0]))))
def test_maxpool2_matches_argmax_oracle_on_small_integers(x):
    _assert_maxpool2_matches_argmax_oracle(x)


def test_dropout_train_vs_inference():
    rng = np.random.default_rng(2)
    x = np.ones((4, 8))
    out, cache = ops.dropout(x, 0.5, training=False, rng=rng)
    assert out is x and cache is None
    out, cache = ops.dropout(x, 0.5, training=True, rng=rng)
    assert set(np.unique(out)) <= {0.0, 2.0}
    with pytest.raises(ValueError):
        ops.dropout(x, 1.0, training=True, rng=rng)


def test_dropout_mean_matches_inference():
    rng = np.random.default_rng(3)
    x = np.full((32,), 1.7)
    n = 40_000
    acc = np.zeros_like(x)
    for _ in range(n):
        out, _ = ops.dropout(x, 0.5, training=True, rng=rng)
        acc += out
    mean = acc / n
    assert np.all(np.abs(mean - x) / x < 0.02)
    assert abs(mean.mean() - 1.7) / 1.7 < 0.005


def test_abs_diff_and_euclid_identity():
    u = np.random.default_rng(4).normal(size=(3, 6))
    out, _ = ops.abs_diff(u, u)
    assert np.array_equal(out, np.zeros_like(u))
    d, _ = ops.euclid(u, u)
    assert np.array_equal(d, np.zeros(3))


def test_contrastive_loss_values():
    assert losses.contrastive_loss(0.5, 1, 1.0) == pytest.approx(0.5)
    assert losses.contrastive_loss(0.2, 0, 1.0) == pytest.approx(0.8)
    assert losses.contrastive_loss(2.0, 0, 1.0) == 0.0
    # zero exactly when (y=1, D=0) or (y=0, D>=m)
    assert losses.contrastive_loss(0.0, 1, 1.0) == 0.0
    assert losses.contrastive_loss(1.0, 0, 1.0) == 0.0
    d = np.linspace(0, 3, 31)
    for y in (0, 1):
        assert np.all(losses.contrastive_loss(d, np.full_like(d, y), 1.0) >= 0.0)


def test_contrastive_subgradient_at_margin():
    assert losses.contrastive_loss_grad(1.0, 0, 1.0) == 0.0
    assert losses.contrastive_loss_grad(0.999, 0, 1.0) == -1.0
    assert losses.contrastive_loss_grad(0.5, 1, 1.0) == 1.0


def test_log_loss_values():
    assert losses.log_loss(0.5, 1) == pytest.approx(np.log(2))
    assert losses.log_loss(1 - 1e-7, 1) == pytest.approx(1e-7, rel=1e-3)
    assert losses.log_loss(1e-12, 1) == pytest.approx(-np.log(1e-7))


def test_sigmoid_equals_the_three_exp_formula():
    rng = np.random.default_rng(20)
    z = np.concatenate([rng.normal(scale=10.0, size=2000), np.linspace(-40.0, 40.0, 801),
                        [-800.0, -0.0, 0.0, 800.0, -np.inf, np.inf, np.nan]])
    expected = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                        np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    out, cache = ops.sigmoid(z)
    assert np.array_equal(out, expected, equal_nan=True) and cache is out


def test_sigmoid_stable_at_extremes():
    out, _ = ops.sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0


# gradient checks


def test_conv2d_gradients():
    rng = np.random.default_rng(10)
    for _ in range(20):
        B = int(rng.integers(1, 3))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        H, W = kh + int(rng.integers(0, 4)), kw + int(rng.integers(0, 4))
        C, F = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rng.normal(size=(B, H, W, C))
        k = rng.normal(size=(kh, kw, C, F))
        b = rng.normal(size=F)
        proj = rng.normal(size=(B, H - kh + 1, W - kw + 1, F))
        f = lambda: float((ops.conv2d(x, k, b)[0] * proj).sum())
        out, cache = ops.conv2d(x, k, b)
        gx, gk, gb = ops.conv2d_backward(cache, proj)
        assert max_rel_err(gx, numeric_grad(f, x)) < TOL
        assert max_rel_err(gk, numeric_grad(f, k)) < TOL
        assert max_rel_err(gb, numeric_grad(f, b)) < TOL


@pytest.mark.parametrize("B", [1, 5, 128])
@pytest.mark.parametrize("kernel", [(1, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("C", [1, 2, 10])
def test_conv2d_backward_matches_per_offset_oracle(C, kernel, B):
    rng = np.random.default_rng(C * 1000 + B)
    x = rng.normal(size=(B, 10, 16, C))
    k = rng.normal(size=(*kernel, C, 10))
    _, cache = ops.conv2d(x, k, rng.normal(size=10))
    grad = rng.normal(size=(B, 11 - kernel[0], 17 - kernel[1], 10))
    expected = conv2d_backward_offsets(cache, grad)
    got = ops.conv2d_backward(cache, grad)
    for g, e in zip(got, expected):
        assert g.shape == e.shape
        assert np.allclose(g, e, rtol=1e-12, atol=1e-12)
    gx, gk, gb = ops.conv2d_backward(cache, grad, input_grad=False)
    assert gx is None
    assert np.array_equal(gk, got[1]) and np.array_equal(gb, got[2])


def test_relu_gradients():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = _away_from_zero(rng.normal(size=(3, int(rng.integers(2, 20)))))
        proj = rng.normal(size=x.shape)
        f = lambda: float((ops.relu(x)[0] * proj).sum())
        _, cache = ops.relu(x)
        g = ops.relu_backward(cache, proj)
        assert max_rel_err(g, numeric_grad(f, x)) < TOL


def test_maxpool2_gradients():
    rng = np.random.default_rng(12)
    for _ in range(20):
        B = int(rng.integers(1, 3))
        H, W = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        F = int(rng.integers(1, 4))
        x = rng.normal(size=(B, H, W, F))
        proj = rng.normal(size=(B, H // 2, W // 2, F))
        f = lambda: float((ops.maxpool2(x)[0] * proj).sum())
        _, cache = ops.maxpool2(x)
        g = ops.maxpool2_backward(cache, proj)
        assert max_rel_err(g, numeric_grad(f, x)) < TOL


def test_dense_gradients():
    rng = np.random.default_rng(13)
    for _ in range(20):
        B, D, U = (int(rng.integers(1, 6)) for _ in range(3))
        x = rng.normal(size=(B, D))
        w = rng.normal(size=(D, U))
        b = rng.normal(size=U)
        proj = rng.normal(size=(B, U))
        f = lambda: float((ops.dense(x, w, b)[0] * proj).sum())
        _, cache = ops.dense(x, w, b)
        gx, gw, gb = ops.dense_backward(cache, proj)
        assert max_rel_err(gx, numeric_grad(f, x)) < TOL
        assert max_rel_err(gw, numeric_grad(f, w)) < TOL
        assert max_rel_err(gb, numeric_grad(f, b)) < TOL


def test_dropout_gradients_frozen_mask():
    rng = np.random.default_rng(14)
    for i in range(20):
        x = rng.normal(size=(3, 8))
        proj = rng.normal(size=x.shape)
        f = lambda: float((ops.dropout(x, 0.4, True, np.random.default_rng(i))[0] * proj).sum())
        _, cache = ops.dropout(x, 0.4, True, np.random.default_rng(i))
        g = ops.dropout_backward(cache, proj)
        assert max_rel_err(g, numeric_grad(f, x)) < TOL


def test_abs_diff_gradients():
    rng = np.random.default_rng(15)
    for _ in range(20):
        u = rng.normal(size=(3, 7))
        v = u + _away_from_zero(rng.normal(size=u.shape))
        proj = rng.normal(size=u.shape)
        f = lambda: float((ops.abs_diff(u, v)[0] * proj).sum())
        _, cache = ops.abs_diff(u, v)
        gu, gv = ops.abs_diff_backward(cache, proj)
        assert max_rel_err(gu, numeric_grad(f, u)) < TOL
        assert max_rel_err(gv, numeric_grad(f, v)) < TOL


def test_euclid_gradients():
    rng = np.random.default_rng(16)
    for _ in range(20):
        u = rng.normal(size=(4, 6))
        v = u + _away_from_zero(rng.normal(size=u.shape), margin=0.1)
        proj = rng.normal(size=4)
        f = lambda: float((ops.euclid(u, v)[0] * proj).sum())
        _, cache = ops.euclid(u, v)
        gu, gv = ops.euclid_backward(cache, proj)
        assert max_rel_err(gu, numeric_grad(f, u)) < TOL
        assert max_rel_err(gv, numeric_grad(f, v)) < TOL


def test_sigmoid_gradients():
    rng = np.random.default_rng(17)
    for _ in range(20):
        z = rng.normal(size=(3, 5)) * 3
        proj = rng.normal(size=z.shape)
        f = lambda: float((ops.sigmoid(z)[0] * proj).sum())
        _, cache = ops.sigmoid(z)
        g = ops.sigmoid_backward(cache, proj)
        assert max_rel_err(g, numeric_grad(f, z)) < TOL


def test_log_loss_gradient_vs_finite_differences():
    rng = np.random.default_rng(18)
    for _ in range(20):
        p = rng.uniform(0.02, 0.98, size=12)
        y = rng.integers(0, 2, size=12).astype(float)
        f = lambda: float(losses.log_loss(p, y).sum())
        g = losses.log_loss_grad(p, y)
        assert max_rel_err(g, numeric_grad(f, p)) < 1e-4
        assert np.max(np.abs(g - numeric_grad(f, p))) < 1e-4


def test_contrastive_loss_gradient_vs_finite_differences():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = rng.uniform(0.05, 2.0, size=10)
        d = d[np.abs(d - 1.0) > 0.01]  # keep away from the margin kink
        y = rng.integers(0, 2, size=d.shape).astype(float)
        f = lambda: float(losses.contrastive_loss(d, y, 1.0).sum())
        g = losses.contrastive_loss_grad(d, y, 1.0)
        assert max_rel_err(np.asarray(g, dtype=float), numeric_grad(f, d)) < TOL


# adadelta


def test_adadelta_first_step_value():
    params = {"w": np.zeros(1)}
    grads = {"w": np.ones(1)}
    state = AdadeltaState.for_params(params)
    adadelta_step(params, grads, state)
    assert params["w"][0] == pytest.approx(-0.0044720912343108364, abs=1e-9)


def test_adadelta_five_step_trace():
    # scalar recurrence evaluated by hand for g = 1 at every step
    expected_dx = [
        -0.0044720912343108364,
        -0.004529062265533205,
        -0.004567599482426009,
        -0.004597010856631844,
        -0.0046209877587264706,
    ]
    params = {"w": np.zeros(1)}
    state = AdadeltaState.for_params(params)
    prev = 0.0
    for step_expected in expected_dx:
        adadelta_step(params, {"w": np.ones(1)}, state)
        dx = params["w"][0] - prev
        prev = params["w"][0]
        assert dx == pytest.approx(step_expected, abs=1e-9)


def test_adadelta_zero_gradient_keeps_params():
    params = {"w": np.full((2, 2), 3.0)}
    state = AdadeltaState.for_params(params)
    state.eg2["w"][:] = 0.4
    adadelta_step(params, {"w": np.zeros((2, 2))}, state)
    assert np.array_equal(params["w"], np.full((2, 2), 3.0))
    assert np.allclose(state.eg2["w"], 0.4 * 0.95)


def test_adadelta_repeated_steps_shrink_updates_smoothly():
    params = {"w": np.zeros(1)}
    state = AdadeltaState.for_params(params)
    deltas = []
    prev = 0.0
    for _ in range(50):
        adadelta_step(params, {"w": np.ones(1)}, state)
        deltas.append(abs(params["w"][0] - prev))
        prev = params["w"][0]
    ratios = [b / a for a, b in zip(deltas, deltas[1:])]
    # ratio of successive step sizes approaches 1 from above early on
    assert all(0.9 < r < 1.2 for r in ratios)


def test_adadelta_shape_mismatch():
    params = {"w": np.zeros(3)}
    state = AdadeltaState.for_params(params)
    with pytest.raises(Exception):
        adadelta_step(params, {"w": np.zeros(4)}, state)
    with pytest.raises(Exception):
        adadelta_step(params, {"v": np.zeros(3)}, state)
