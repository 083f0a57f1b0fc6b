import dataclasses
import hashlib
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cognet.neural import model as neural_model
from cognet.neural import (
    ARCHITECTURES,
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

from cognet import phoneme, synthetic, wordlists
from cognet.artifact import ArtifactError
from cognet.wordlists import Lexeme, WordPair
from conftest import max_rel_err, numeric_grad
from oracles import (conv2d_backward_im2col, conv2d_im2col, encode_pairs_per_side, predict_per_pair,
                     train_per_side)


def _toy_pairs(n=20, seed=0):
    """Half identical pairs (label 1), half unrelated pairs (label 0), as (forms, index, y).

    Forms 0..n-1 are the a-sides; the unrelated pairs' b-sides follow them.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    forms = (rng.random((2 * n - half, 10, 16)) > 0.5).astype(float)
    index = np.stack([np.arange(n), np.r_[np.arange(half), np.arange(n, 2 * n - half)]], axis=1)
    y = np.array([1.0] * half + [0.0] * (n - half))
    return forms, index, y


def _sides(forms, index):
    """Each pair's two rendered forms, as forward and loss_and_grads take them."""
    return forms[index[:, 0]], forms[index[:, 1]]


def _self_pairs(n):
    """The index pairing each of n forms with itself."""
    return np.repeat(np.arange(n)[:, None], 2, axis=1)


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
    d = net.predict(x, _self_pairs(5))
    h, _ = net.forward(x, x)
    # identical inputs: abs-diff layer sees zeros, so the head sees a constant
    assert np.allclose(h, h[0])
    assert np.allclose(d, d[0])


def test_untrained_zeroed_output_layer_predicts_half():
    net = build(ModelSpec(MANHATTAN), seed=0)
    net.params["out_w"][:] = 0.0
    net.params["out_b"][:] = 0.0
    forms, index, _ = _toy_pairs(6)
    assert np.allclose(net.predict(forms, index), 0.5)


def test_predict_is_deterministic():
    net = build(ModelSpec(MANHATTAN), seed=1)
    forms, index, _ = _toy_pairs(8)
    assert np.array_equal(net.predict(forms, index), net.predict(forms, index))


@pytest.mark.parametrize("arch", [MANHATTAN, TWO_CHANNEL])
def test_training_learns_separable_toy_set(arch):
    net = build(ModelSpec(arch), seed=2)
    data = _toy_pairs(20, seed=5)
    _, history = train(net, data, TrainConfig(epochs=50, batch_size=8, seed=3))
    forms, index, y = data
    preds = (net.predict(forms, index) >= 0.5).astype(float)
    assert np.mean(preds == y) == 1.0
    assert all(np.isfinite(history))
    # identical pairs score at least as high as disjoint ones
    assert net.predict(forms, index[:1])[0] >= net.predict(forms, index[-1:])[0]


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
    forms, index, y = data
    assert np.mean((net2.predict(forms, index) >= 0.5) == (y == 1)) == 1.0


def test_zero_epochs_returns_initial_params():
    net = build(ModelSpec(MANHATTAN), seed=13)
    before = {k: v.copy() for k, v in net.params.items()}
    params, history = train(net, _toy_pairs(8), TrainConfig(epochs=0))
    assert history == []
    assert all(np.array_equal(before[k], params[k]) for k in before)


def test_training_empty_dataset_raises():
    net = build(ModelSpec(MANHATTAN))
    with pytest.raises(EmptyDataset):
        train(net, (np.zeros((0, 10, 16)), np.zeros((0, 2), dtype=np.intp), np.zeros(0)))


def test_siamese_euclid_trains_with_contrastive():
    net = build(ModelSpec(SIAMESE_EUCLID), seed=20)
    data = _toy_pairs(16, seed=21)
    _, history = train(net, data, TrainConfig(epochs=30, batch_size=8, seed=22))
    forms, index, y = data
    scores = net.predict(forms, index)
    assert np.all((scores >= 0) & (scores <= 1))
    # identical pairs score above disjoint pairs on average
    assert scores[y == 1].mean() > scores[y == 0].mean()


def _pair(a: str, b: str, label: int) -> WordPair:
    return WordPair(Lexeme("fam", "L1", "c", a, "x"), Lexeme("fam", "L2", "c", b, "x" if label else "y"), label)


def test_encode_pairs_shapes_and_errors():
    forms, index, y = encode_pairs([_pair("fVt", "fVd", 1), _pair("m", "pVk", 0)], pad_len=10)
    assert forms.shape == (4, 10, 16) and index.shape == (2, 2) and index.dtype == np.intp
    assert index.tolist() == [[0, 1], [2, 3]]
    assert np.array_equal(y, [1.0, 0.0])
    with pytest.raises(EmptyDataset):
        encode_pairs([], pad_len=10)


def test_encode_pairs_renders_each_form_once(caplog):
    long_word = "ptkbdszmnlrw"  # 12 symbols, truncated at pad_len 10
    pairs = [_pair(long_word, "fVt", 1), _pair("mVn", long_word, 0), _pair(long_word, long_word, 1)]
    with caplog.at_level(logging.WARNING, logger="cognet.phoneme"):
        forms, index, y = encode_pairs(pairs, pad_len=10)
    assert [r.message for r in caplog.records if "truncated" in r.message] == [
        f"word {long_word!r} truncated from 12 to 10 symbols"
    ]
    assert forms.shape == (3, 10, 16)
    assert index[0, 0] == index[2, 0] == index[1, 1] == index[2, 1]


@st.composite
def _pairs_with_repeats(draw):
    """A synthetic family's pairs, some forms tripled in length and some pairs listed again."""
    lexemes = synthetic.generate_family(draw(st.integers(1, 3)), draw(st.integers(2, 5)),
                                        seed=draw(st.integers(0, 2**16)))
    tripled = draw(st.sets(st.integers(0, len(lexemes) - 1), min_size=1))
    lexemes = [dataclasses.replace(lex, form=lex.form * 3) if i in tripled else lex
               for i, lex in enumerate(lexemes)]
    pairs = wordlists.generate_pairs(lexemes)
    return pairs + draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs)))


@settings(max_examples=25, deadline=None)
@given(pairs=_pairs_with_repeats(), pad_len=st.integers(4, 10), arch=st.sampled_from(ARCHITECTURES))
def test_form_table_gathers_the_per_side_copies_and_trains_as_they_do(pairs, pad_len, arch):
    forms, index, y = encode_pairs(pairs, pad_len)
    xa, xb, oracle_y = encode_pairs_per_side(pairs, pad_len)
    assert index.shape == (len(pairs), 2) and index.dtype == np.intp
    assert forms[index[:, 0]].tobytes() == xa.tobytes() and forms[index[:, 1]].tobytes() == xb.tobytes()
    assert np.array_equal(y, oracle_y)
    assert forms.shape[0] == len({form for pair in pairs for form in pair.forms})
    spec = ModelSpec(arch, conv_filters=2, fc_units=2, pad_len=pad_len)
    cfg = TrainConfig(batch_size=3, epochs=2, seed=4)
    params, history = train(build(spec, seed=1), (forms, index, y), cfg)
    oracle_params, oracle_history = train_per_side(build(spec, seed=1), (xa, xb, y), cfg)
    assert history == oracle_history
    assert all(params[k].tobytes() == oracle_params[k].tobytes() for k in params)


@pytest.mark.parametrize("arch", [SIAMESE_EUCLID, MANHATTAN, TWO_CHANNEL])
def test_chunked_predict_equals_one_forward(arch):
    n = 2 * neural_model.PREDICT_CHUNK + 44  # two full chunks and a ragged tail
    net = build(ModelSpec(arch), seed=3)
    forms, index, _ = _toy_pairs(n, seed=4)
    scores = net.predict(forms, index)
    out, _ = net.forward(*_sides(forms, index), training=False)
    expected = np.exp(-out) if arch == SIAMESE_EUCLID else out
    assert scores.shape == (n,)
    assert scores.tobytes() == expected.tobytes()
    assert np.array_equal(scores, net.predict(forms, index))


@st.composite
def _scored_tables(draw):
    """(pad_len, forms, index): a few random words rendered at pad_len, some longer than it, and
    index rows over them.  n is 0, 1 or a few, or past a chunk with a ragged tail; each chunk
    repeats forms, and the rows either side of the first chunk boundary are one pair."""
    pad_len = draw(st.integers(4, 10))
    words = draw(st.lists(st.text(alphabet=phoneme.INVENTORY, min_size=1, max_size=pad_len + 6),
                          min_size=1, max_size=12))
    chunk = neural_model.PREDICT_CHUNK
    n = draw(st.one_of(st.integers(0, 3), st.integers(chunk + 1, 2 * chunk + 40)))
    index = np.random.default_rng(draw(st.integers(0, 2**16))).integers(0, len(words), size=(n, 2))
    if n > chunk:
        index[chunk] = index[chunk - 1]
    return pad_len, neural_model.render(words, pad_len), index


@pytest.mark.parametrize("arch", ARCHITECTURES)
@settings(max_examples=25, deadline=None)
@given(table=_scored_tables(), seed=st.integers(0, 2**16))
def test_predict_equals_the_per_pair_oracle_bit_for_bit(arch, table, seed):
    pad_len, forms, index = table
    net = build(ModelSpec(arch, pad_len=pad_len), seed=seed)
    rng = np.random.default_rng(seed)
    for v in net.params.values():
        v += rng.normal(scale=0.1, size=v.shape)  # nonzero biases too
    scores = net.predict(forms, index)
    assert scores.shape == (index.shape[0],)
    assert scores.tobytes() == predict_per_pair(net, forms, index, neural_model.PREDICT_CHUNK).tobytes()


@pytest.mark.parametrize("arch", [SIAMESE_EUCLID, MANHATTAN, TWO_CHANNEL])
def test_predict_on_no_pairs_is_empty(arch):
    net = build(ModelSpec(arch), seed=3)
    scores = net.predict(np.zeros((0, 10, 16)), np.zeros((0, 2), dtype=np.intp))
    assert scores.shape == (0,) and scores.dtype == np.float64


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for arch in (MANHATTAN, TWO_CHANNEL, SIAMESE_EUCLID):
        net = build(ModelSpec(arch), seed=30)
        data = _toy_pairs(12, seed=31)
        train(net, data, TrainConfig(epochs=3, batch_size=4, seed=32))
        path = tmp_path / f"{arch}.txt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        forms, index, _ = data
        assert np.array_equal(loaded.predict(forms, index), net.predict(forms, index))
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
    forms, index, _ = _toy_pairs(12, seed=9)
    assert loaded.spec == net.spec
    assert np.array_equal(loaded.predict(forms, index), net.predict(forms, index))
    save_checkpoint(loaded, tmp_path / "resaved.txt")
    assert (tmp_path / "resaved.txt").read_text(encoding="utf-8") == text
    path.write_text(text.replace("pool\t2x2", "pool\t2x1"), encoding="utf-8")
    with pytest.raises(ArtifactError, match=f"^{re.escape(str(path))}:8: pool: '2x1' is not one of"):
        load_checkpoint(path, MANHATTAN)


# sha256 of each weight tensor's little-endian float64 bytes in build(ModelSpec(arch), seed=0),
# as the Glorot initializer has always drawn them
INIT_DIGESTS = {
    SIAMESE_EUCLID: {
        "conv1_w": "60566f77f44d6095bd0f68a345f984fbbf513ea6bde88b1cead6755c4791c606",
        "conv2_w": "1c75cb2ba74f1c8357c49fd4676d5aec86dceecb69abdbc5fc5c07f07fca6208",
    },
    MANHATTAN: {
        "conv1_w": "60566f77f44d6095bd0f68a345f984fbbf513ea6bde88b1cead6755c4791c606",
        "conv2_w": "1c75cb2ba74f1c8357c49fd4676d5aec86dceecb69abdbc5fc5c07f07fca6208",
        "fc_w": "23974c3fdfa5930f7ad33d0ce4e6f2f7507f54cfe0658b028e262a8b39221cb1",
        "out_w": "c12c9527e362adb140bffcd38f3c2a57e9d353fee57df3eb2869bf619a96b895",
    },
    TWO_CHANNEL: {
        "conv1_w": "d660b88c0776fb323a446b582632ca38d6b331ac2a421d8b407fcd3973e643f4",
        "conv2_w": "3ea69f92e0fda0f63fa26f374483f67d2906015da5e64ba18bc7f2b6044d3519",
        "fc_w": "07cc28759baad5d9eede39053a97919c213f2dadc2acd6e28c75613cc502e83f",
        "out_w": "80a2c51d02bc8d6a8b16b494bf595f3733e9f1cd96cbb27c221798c931066995",
    },
}


@pytest.mark.parametrize("arch", sorted(INIT_DIGESTS))
def test_seeded_init_draws_the_golden_weights(arch):
    params = build(ModelSpec(arch), seed=0).params
    digests = {name: hashlib.sha256(t.astype("<f8").tobytes()).hexdigest()
               for name, t in params.items() if name.endswith("_w")}
    assert digests == INIT_DIGESTS[arch]
    assert not any(t.any() for name, t in params.items() if name.endswith("_b"))


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
    forms, index, y = _word_pairs(neural_model.PREDICT_CHUNK + 72)
    xa, xb = _sides(forms, index)
    batch = slice(0, neural_model.PREDICT_CHUNK)
    scores = net.predict(forms, index)
    loss, grads = net.loss_and_grads(xa[batch], xb[batch], y[batch], rng=np.random.default_rng(7))
    monkeypatch.setattr(neural_model.ops, "conv2d", conv2d_im2col)
    monkeypatch.setattr(neural_model.ops, "conv2d_backward", conv2d_backward_im2col)
    assert np.array_equal(scores, net.predict(forms, index))
    oracle_loss, oracle_grads = net.loss_and_grads(xa[batch], xb[batch], y[batch], rng=np.random.default_rng(7))
    assert loss == oracle_loss
    for name, g in grads.items():
        assert np.allclose(g, oracle_grads[name], rtol=1e-10, atol=1e-13), name


@pytest.mark.parametrize("arch", [SIAMESE_EUCLID, MANHATTAN, TWO_CHANNEL])
def test_trunk_activations_are_stored_batch_minor(arch):
    net = build(ModelSpec(arch), seed=5)
    x = _sides(*_toy_pairs(9)[:2])[0][..., None].repeat(net.spec.in_channels, axis=-1)
    _, (_, relu1_mask, (a1, _), relu2_mask, (_, pool_idx), _) = net._trunk(x)
    for stored in (relu1_mask, a1, relu2_mask, pool_idx):
        assert stored.transpose(3, 1, 2, 0).flags.c_contiguous


def _long_word_pairs(n):
    """n pairs of a synthetic family's words spelled four times over: 12-20 symbols, past pad_len 10."""
    lexemes = [dataclasses.replace(lex, form=lex.form * 4)
               for lex in synthetic.generate_family(n_concepts=6, n_languages=6, seed=12)]
    return encode_pairs(wordlists.generate_pairs(lexemes)[:n], 10)


SCORED_SIDES = {
    "one_row": lambda: _sides(*_word_pairs(1)[:2]),
    "ragged_chunk": lambda: _sides(*_word_pairs(neural_model.PREDICT_CHUNK + 44)[:2]),
    "longer_than_pad_len": lambda: _sides(*_long_word_pairs(60)[:2]),
}


@pytest.mark.parametrize("case", sorted(SCORED_SIDES))
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_scoring_forward_equals_the_taped_forward_bit_for_bit(arch, case):
    net = build(ModelSpec(arch, dropout_rate=0.0), seed=5)
    rng = np.random.default_rng(6)
    for v in net.params.values():
        v += rng.normal(scale=0.1, size=v.shape)  # nonzero biases too
    xa, xb = SCORED_SIDES[case]()
    inputs = xa.tobytes() + xb.tobytes()
    scores, tape = net.forward(xa, xb)
    taped, (trunks, _, _) = net.forward(xa, xb, training=True, rng=np.random.default_rng(7))
    assert tape is None and len(trunks) == (1 if arch == TWO_CHANNEL else 2)
    assert scores.tobytes() == taped.tobytes()
    assert xa.tobytes() + xb.tobytes() == inputs  # ReLU runs in place on activations, never on the inputs


# The traced peak of a 128-pair training step at the default spec, inputs
# gathered in the call, with a margin of about 6%: it measured 6.12, 6.13 and
# 4.68 MiB (Siamese-Euclid, Manhattan, 2-channel) where it was 7.44, 7.45 and
# 6.00 MiB with conv2's gradient built at the output width and padded in a
# copy, and each tape held until its trunk's backward returned.
STEP_PEAK_MIB = {SIAMESE_EUCLID: 6.5, MANHATTAN: 6.5, TWO_CHANNEL: 5.0}

# The traced peak of a 128-pair scoring chunk at the default spec, with a
# margin of about 8%: at most conv2's input, one block of its output rows and
# its output, and the first trunk's features.  It measured 2.95, 2.95 and
# 3.03 MiB, where it was 3.50, 3.50 and 3.58 MiB with conv2's output computed
# at the full input width in one buffer and its valid columns copied out.
# ``predict`` also gathers a chunk's inputs from the form table.  A Siamese
# side's distinct forms measured 3.11 and 3.11 MiB, where both sides of every
# pair measured 3.27 and 3.27 MiB; 2-channel still gathers both sides of every
# pair, its trunk's input, and measured 3.34 MiB.
CHUNK_PEAK_MIB = {SIAMESE_EUCLID: 3.2, MANHATTAN: 3.2, TWO_CHANNEL: 3.25}


def _traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of what fn() allocates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_scoring_chunk_holds_no_tape(arch):
    net = build(ModelSpec(arch), seed=5)
    xa, xb = _sides(*_toy_pairs(neural_model.PREDICT_CHUNK)[:2])
    scoring = _traced_peak(lambda: net.forward(xa, xb))
    taped = _traced_peak(lambda: net.forward(xa, xb, training=True, rng=np.random.default_rng(0)))
    assert scoring <= CHUNK_PEAK_MIB[arch] * 2**20
    forms, index, _ = _toy_pairs(neural_model.PREDICT_CHUNK)  # each side's forms distinct: the most a pass takes
    pair_inputs = xa.nbytes + xb.nbytes if arch == TWO_CHANNEL else 0
    assert _traced_peak(lambda: net.predict(forms, index)) <= CHUNK_PEAK_MIB[arch] * 2**20 + pair_inputs
    _, (trunks, _, _) = net.forward(xa, xb, training=True, rng=np.random.default_rng(0))
    _, mask1, (a1, _), mask2, (_, idx), _ = trunks[0]
    assert idx.dtype == np.uint8
    if arch != TWO_CHANNEL:  # the second trunk runs without the first one's tape
        assert scoring + sum(a.nbytes for a in (a1, mask1, mask2, idx)) <= taped


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_training_step_holds_only_what_backward_still_reads(arch):
    net = build(ModelSpec(arch), seed=5)
    forms, index, y = _word_pairs(neural_model.PREDICT_CHUNK)
    ia, ib = index.T
    peak = _traced_peak(lambda: net.loss_and_grads(forms[ia], forms[ib], y, rng=np.random.default_rng(0)))
    assert peak <= STEP_PEAK_MIB[arch] * 2**20


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_trunk_ops_keep_caches_only_for_training_and_relu_runs_in_place(arch, monkeypatch):
    calls = []

    def recorded(op):
        def run(x, *args, **kwargs):
            out, cache = op(x, *args, **kwargs)
            calls.append((op.__name__, cache is not None, out is x))
            return out, cache
        return run

    for name in ("conv2d", "relu", "maxpool2"):
        monkeypatch.setattr(neural_model.ops, name, recorded(getattr(neural_model.ops, name)))
    net = build(ModelSpec(arch), seed=5)
    forms, index, y = _toy_pairs(9)
    trunk_passes = 1 if arch == TWO_CHANNEL else 2
    head = [] if arch == SIAMESE_EUCLID else ["relu"]
    net.predict(forms, index)
    scoring, calls[:] = calls[:], []
    net.loss_and_grads(*_sides(forms, index), y, rng=np.random.default_rng(0))
    assert [name for name, _, _ in scoring] == [name for name, _, _ in calls] == \
        ["conv2d", "relu", "conv2d", "relu", "maxpool2"] * trunk_passes + head
    assert not any(cached for _, cached, _ in scoring) and all(cached for _, cached, _ in calls)
    assert all(in_place for name, _, in_place in scoring + calls if name == "relu")


@pytest.mark.parametrize("arch", [SIAMESE_EUCLID, MANHATTAN])
def test_a_siamese_chunk_embeds_each_distinct_form_of_a_side_once(arch, monkeypatch):
    inputs = []
    conv2d = neural_model.ops.conv2d

    def recorded(x, *args, **kwargs):
        inputs.append(x)
        return conv2d(x, *args, **kwargs)

    monkeypatch.setattr(neural_model.ops, "conv2d", recorded)
    net = build(ModelSpec(arch), seed=5)
    rng = np.random.default_rng(8)
    forms = (rng.random((40, 10, 16)) > 0.5).astype(float)
    index = rng.integers(0, 30, size=(neural_model.PREDICT_CHUNK + 44, 2))  # forms 30-39 in no pair
    net.predict(forms, index)
    chunks = [index[i:i + neural_model.PREDICT_CHUNK] for i in range(0, len(index), neural_model.PREDICT_CHUNK)]
    sides = [forms[np.unique(chunk[:, side])] for chunk in chunks for side in (0, 1)]
    assert all(len(side) < neural_model.PREDICT_CHUNK for side in sides)
    assert len(inputs) == 2 * len(sides)  # conv1 and conv2 of one trunk pass per side of each chunk
    for conv1, conv2, side in zip(inputs[0::2], inputs[1::2], sides):
        assert conv1[..., 0].tobytes() == side.tobytes() and conv2.shape[0] == len(side)


@pytest.mark.parametrize("field, bound", sorted(neural_model.MAX_SIZES.items()))
def test_network_sizes_are_bounded(field, bound):
    assert getattr(ModelSpec(MANHATTAN, **{field: bound}), field) == bound
    for value in (0, bound + 1):
        with pytest.raises(InvalidSpec, match=f"^{field} {value} is not in \\[1, {bound}\\]$"):
            ModelSpec(MANHATTAN, **{field: value})
