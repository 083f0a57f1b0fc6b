import logging
import re

import numpy as np
import pytest

from cognet.neural import model as neural_model
from cognet.neural import (
    MANHATTAN,
    SIAMESE_EUCLID,
    TWO_CHANNEL,
    EmptyDataset,
    InvalidSpec,
    ModelSpec,
    TrainConfig,
    build,
    encode_pairs,
    load_checkpoint,
    save_checkpoint,
    train,
)

from cognet import synthetic, wordlists
from cognet.artifact import ArtifactError
from cognet.wordlists import Lexeme, WordPair
from conftest import max_rel_err, numeric_grad
from oracles import conv2d_backward_im2col, conv2d_im2col


def _toy_pairs(n=20, seed=0):
    """Half identical pairs (label 1), half unrelated pairs (label 0)."""
    rng = np.random.default_rng(seed)
    xa = (rng.random((n, 10, 16)) > 0.5).astype(float)
    xb = xa.copy()
    half = n // 2
    xb[half:] = (rng.random((n - half, 10, 16)) > 0.5).astype(float)
    y = np.array([1.0] * half + [0.0] * (n - half))
    return xa, xb, y


def test_default_shape_pipeline():
    net = build(ModelSpec(MANHATTAN))
    assert net.shapes == [(10, 16, 1), (9, 14, 10), (8, 12, 10), (4, 6, 10), 240, 8, 1]
    assert net.params["fc_w"].shape == (240, 8)
    assert net.params["out_w"].shape == (8, 1)


def test_cross_family_kernel_shape_pipeline():
    net = build(ModelSpec(MANHATTAN, kernel=(1, 3)))
    assert net.shapes == [(10, 16, 1), (10, 14, 10), (10, 12, 10), (5, 6, 10), 300, 8, 1]


def test_two_channel_kernel_shapes():
    net = build(ModelSpec(TWO_CHANNEL))
    assert net.params["conv1_w"].shape == (2, 3, 2, 10)
    assert net.shapes[0] == (10, 16, 2)


def test_siamese_euclid_has_no_dense_head():
    net = build(ModelSpec(SIAMESE_EUCLID))
    assert set(net.params) == {"conv1_w", "conv1_b", "conv2_w", "conv2_b"}


def test_invalid_specs_fail_build():
    with pytest.raises(InvalidSpec):
        ModelSpec("dense_only")
    with pytest.raises(InvalidSpec):
        build(ModelSpec(MANHATTAN, kernel=(11, 3)))
    with pytest.raises(InvalidSpec):
        build(ModelSpec(MANHATTAN, kernel=(2, 9)))  # 16 -> 8 -> 0 wide
    with pytest.raises(InvalidSpec):
        ModelSpec(MANHATTAN, dropout_rate=1.0)


@pytest.mark.parametrize("field, dims", [
    ("kernel", (0, 3)), ("kernel", (2, 0)), ("kernel", (-1, 3)), ("kernel", (2, 3, 1)), ("kernel", (2.0, 3)),
])
def test_kernel_and_pool_must_be_pairs_of_positive_ints(field, dims):
    with pytest.raises(InvalidSpec, match=field):
        ModelSpec(MANHATTAN, **{field: dims})


def test_weight_tying_branches_agree():
    net = build(ModelSpec(MANHATTAN), seed=3)
    rng = np.random.default_rng(4)
    x = (rng.random((5, 10, 16)) > 0.5).astype(float)
    # arbitrary parameter update, then both branches must still agree on equal inputs
    for tensor in net.params.values():
        tensor += rng.normal(size=tensor.shape) * 0.1
    fa, _ = net._trunk(x[..., None])
    fb, _ = net._trunk(x[..., None])
    assert np.array_equal(fa, fb)
    d = net.predict(x, x)
    h, _ = net.forward(x, x)
    # identical inputs: abs-diff layer sees zeros, so the head sees a constant
    assert np.allclose(h, h[0])
    assert np.allclose(d, d[0])


def test_untrained_zeroed_output_layer_predicts_half():
    net = build(ModelSpec(MANHATTAN), seed=0)
    net.params["out_w"][:] = 0.0
    net.params["out_b"][:] = 0.0
    xa, xb, _ = _toy_pairs(6)
    assert np.allclose(net.predict(xa, xb), 0.5)


def test_predict_is_deterministic():
    net = build(ModelSpec(MANHATTAN), seed=1)
    xa, xb, _ = _toy_pairs(8)
    assert np.array_equal(net.predict(xa, xb), net.predict(xa, xb))


@pytest.mark.parametrize("arch", [MANHATTAN, TWO_CHANNEL])
def test_training_learns_separable_toy_set(arch):
    net = build(ModelSpec(arch), seed=2)
    data = _toy_pairs(20, seed=5)
    _, history = train(net, data, TrainConfig(epochs=50, batch_size=8, seed=3))
    xa, xb, y = data
    preds = (net.predict(xa, xb) >= 0.5).astype(float)
    assert np.mean(preds == y) == 1.0
    assert all(np.isfinite(history))
    # identical pairs score at least as high as disjoint ones
    assert net.predict(xa[:1], xb[:1])[0] >= net.predict(xa[-1:], xb[-1:])[0]


def test_training_same_seed_reproduces_history():
    data = _toy_pairs(16, seed=6)
    h1 = train(build(ModelSpec(MANHATTAN), seed=7), data, TrainConfig(epochs=5, seed=8))[1]
    h2 = train(build(ModelSpec(MANHATTAN), seed=7), data, TrainConfig(epochs=5, seed=8))[1]
    assert h1 == h2


def test_training_different_seed_still_learns():
    data = _toy_pairs(20, seed=9)
    net = build(ModelSpec(MANHATTAN), seed=10)
    _, h_a = train(net, data, TrainConfig(epochs=50, batch_size=8, seed=11))
    net2 = build(ModelSpec(MANHATTAN), seed=10)
    _, h_b = train(net2, data, TrainConfig(epochs=50, batch_size=8, seed=12))
    assert h_a != h_b
    xa, xb, y = data
    assert np.mean((net2.predict(xa, xb) >= 0.5) == (y == 1)) == 1.0


def test_zero_epochs_returns_initial_params():
    net = build(ModelSpec(MANHATTAN), seed=13)
    before = {k: v.copy() for k, v in net.params.items()}
    params, history = train(net, _toy_pairs(8), TrainConfig(epochs=0))
    assert history == []
    assert all(np.array_equal(before[k], params[k]) for k in before)


def test_training_empty_dataset_raises():
    net = build(ModelSpec(MANHATTAN))
    with pytest.raises(EmptyDataset):
        train(net, (np.zeros((0, 10, 16)), np.zeros((0, 10, 16)), np.zeros(0)))


def test_siamese_euclid_trains_with_contrastive():
    net = build(ModelSpec(SIAMESE_EUCLID), seed=20)
    data = _toy_pairs(16, seed=21)
    _, history = train(net, data, TrainConfig(epochs=30, batch_size=8, seed=22))
    xa, xb, y = data
    scores = net.predict(xa, xb)
    assert np.all((scores >= 0) & (scores <= 1))
    # identical pairs score above disjoint pairs on average
    assert scores[y == 1].mean() > scores[y == 0].mean()


def _pair(a: str, b: str, label: int) -> WordPair:
    return WordPair(Lexeme("fam", "L1", "c", a, "x"), Lexeme("fam", "L2", "c", b, "x" if label else "y"),
                    label, "c")


def test_encode_pairs_shapes_and_errors():
    xa, xb, y = encode_pairs([_pair("fVt", "fVd", 1), _pair("m", "pVk", 0)], pad_len=10)
    assert xa.shape == (2, 10, 16) and xb.shape == (2, 10, 16)
    assert np.array_equal(y, [1.0, 0.0])
    with pytest.raises(EmptyDataset):
        encode_pairs([], pad_len=10)


def test_encode_pairs_renders_each_form_once(caplog):
    long_word = "ptkbdszmnlrw"  # 12 symbols, truncated at pad_len 10
    pairs = [_pair(long_word, "fVt", 1), _pair("mVn", long_word, 0), _pair(long_word, long_word, 1)]
    with caplog.at_level(logging.WARNING, logger="cognet.phoneme"):
        xa, xb, y = encode_pairs(pairs, pad_len=10)
    assert [r.message for r in caplog.records if "truncated" in r.message] == [
        f"word {long_word!r} truncated from 12 to 10 symbols"
    ]
    assert np.array_equal(xa[0], xa[2]) and np.array_equal(xa[0], xb[1])


@pytest.mark.parametrize("arch", [SIAMESE_EUCLID, MANHATTAN, TWO_CHANNEL])
def test_chunked_predict_equals_one_forward(arch):
    n = 2 * neural_model.PREDICT_CHUNK + 44  # two full chunks and a ragged tail
    net = build(ModelSpec(arch), seed=3)
    xa, xb, _ = _toy_pairs(n, seed=4)
    scores = net.predict(xa, xb)
    out, _ = net.forward(xa, xb, training=False)
    expected = np.exp(-out) if arch == SIAMESE_EUCLID else out
    assert scores.shape == (n,)
    assert np.allclose(scores, expected, rtol=1e-12, atol=0)
    assert np.array_equal(scores, net.predict(xa, xb))


@pytest.mark.parametrize("arch", [SIAMESE_EUCLID, MANHATTAN, TWO_CHANNEL])
def test_predict_on_no_pairs_is_empty(arch):
    net = build(ModelSpec(arch), seed=3)
    scores = net.predict(np.zeros((0, 10, 16)), np.zeros((0, 10, 16)))
    assert scores.shape == (0,) and scores.dtype == np.float64


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for arch in (MANHATTAN, TWO_CHANNEL, SIAMESE_EUCLID):
        net = build(ModelSpec(arch), seed=30)
        data = _toy_pairs(12, seed=31)
        train(net, data, TrainConfig(epochs=3, batch_size=4, seed=32))
        path = tmp_path / f"{arch}.txt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        xa, xb, _ = data
        assert np.array_equal(loaded.predict(xa, xb), net.predict(xa, xb))
        assert loaded.spec == net.spec


# a checkpoint header as the format has always written it, pooling window included
STORED_HEADER = ("cognet-artifact\t1\tcheckpoint\nsystem\tmanhattan\nconv_filters\t10\nkernel\t1x3\n"
                 "fc_units\t8\ndropout_rate\t0.5\npad_len\t10\npool\t2x2\n")


def test_stored_checkpoint_loads_and_a_pool_other_than_2x2_is_rejected(tmp_path):
    net = build(ModelSpec(MANHATTAN, kernel=(1, 3)), seed=8)
    text = STORED_HEADER + "".join(
        f"tensor\t{name}\t{'x'.join(map(str, t.shape))}\n" + "\t".join(repr(float(v)) for v in t.ravel()) + "\n"
        for name, t in sorted(net.params.items()))
    path = tmp_path / "model.txt"
    path.write_text(text, encoding="utf-8")
    loaded = load_checkpoint(path, MANHATTAN)
    xa, xb, _ = _toy_pairs(12, seed=9)
    assert loaded.spec == net.spec
    assert np.array_equal(loaded.predict(xa, xb), net.predict(xa, xb))
    save_checkpoint(loaded, tmp_path / "resaved.txt")
    assert (tmp_path / "resaved.txt").read_text(encoding="utf-8") == text
    path.write_text(text.replace("pool\t2x2", "pool\t2x1"), encoding="utf-8")
    with pytest.raises(ArtifactError, match=f"^{re.escape(str(path))}:8: pool: '2x1' is not one of"):
        load_checkpoint(path, MANHATTAN)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a checkpoint\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("arch", [MANHATTAN, TWO_CHANNEL, SIAMESE_EUCLID])
def test_composite_gradients_end_to_end(arch):
    # seeds keep relu/maxpool pre-activations away from their kinks, where
    # finite differences are meaningless; a wrong gradient fails regardless
    net = build(ModelSpec(arch, conv_filters=3, fc_units=4), seed=101)
    rng = np.random.default_rng(201)
    xa = rng.random((3, 10, 16))
    xb = rng.random((3, 10, 16))
    y = np.array([1.0, 0.0, 1.0])

    def loss_fn():
        # dropout mask frozen by reseeding the generator on every evaluation
        loss, _ = net.loss_and_grads(xa, xb, y, rng=np.random.default_rng(301))
        return loss

    _, grads = net.loss_and_grads(xa, xb, y, rng=np.random.default_rng(301))
    for name, tensor in net.params.items():
        numeric = numeric_grad(loss_fn, tensor)
        assert max_rel_err(grads[name], numeric) < 1e-4, f"{arch}:{name}"


def _word_pairs(n):
    pairs = wordlists.generate_pairs(synthetic.generate_family(n_concepts=12, n_languages=8, seed=9))[:n]
    return encode_pairs(pairs, 10)


@pytest.mark.parametrize("arch", [SIAMESE_EUCLID, MANHATTAN, TWO_CHANNEL])
def test_scores_equal_the_im2col_oracle_bit_for_bit(arch, monkeypatch):
    # words leave zero rows, so ReLU zeros and pooling ties occur as in real data
    net = build(ModelSpec(arch), seed=5)
    rng = np.random.default_rng(6)
    for v in net.params.values():
        v += rng.normal(scale=0.1, size=v.shape)  # nonzero biases too
    xa, xb, y = _word_pairs(neural_model.PREDICT_CHUNK + 72)
    batch = slice(0, neural_model.PREDICT_CHUNK)
    scores = net.predict(xa, xb)
    loss, grads = net.loss_and_grads(xa[batch], xb[batch], y[batch], rng=np.random.default_rng(7))
    monkeypatch.setattr(neural_model.ops, "conv2d", conv2d_im2col)
    monkeypatch.setattr(neural_model.ops, "conv2d_backward", conv2d_backward_im2col)
    assert np.array_equal(scores, net.predict(xa, xb))
    oracle_loss, oracle_grads = net.loss_and_grads(xa[batch], xb[batch], y[batch], rng=np.random.default_rng(7))
    assert loss == oracle_loss
    for name, g in grads.items():
        assert np.allclose(g, oracle_grads[name], rtol=1e-10, atol=1e-13), name


@pytest.mark.parametrize("arch", [SIAMESE_EUCLID, MANHATTAN, TWO_CHANNEL])
def test_trunk_activations_are_stored_batch_minor(arch):
    net = build(ModelSpec(arch), seed=5)
    x = _toy_pairs(9)[0][..., None].repeat(net.spec.in_channels, axis=-1)
    _, (_, relu1_mask, (a1, _), relu2_mask, (_, pool_idx), _) = net._trunk(x)
    for stored in (relu1_mask, a1, relu2_mask, pool_idx):
        assert stored.transpose(3, 1, 2, 0).flags.c_contiguous
