"""The three pair-classification architectures and their training loop.

All three share a convolutional trunk (conv -> ReLU -> conv -> ReLU ->
2x2 maxpool -> flatten).  The Siamese variants run the trunk on both words
with one shared set of weights; the 2-channel variant stacks the pair as
channels of a single input.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .. import artifact, phoneme, wordlists
from . import losses, ops
from .adadelta import AdadeltaState, adadelta_step

SIAMESE_EUCLID = "siamese_euclid"
MANHATTAN = "manhattan"
TWO_CHANNEL = "two_channel"
ARCHITECTURES = (SIAMESE_EUCLID, MANHATTAN, TWO_CHANNEL)

PREDICT_CHUNK = 128  # rows per forward pass in Model.predict


class InvalidSpec(ValueError):
    pass


class EmptyDataset(artifact.DataError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    conv_filters: int = 10
    kernel: tuple[int, int] = (2, 3)
    fc_units: int = 8
    dropout_rate: float = 0.5
    pad_len: int = 10

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise InvalidSpec(f"unknown architecture {self.architecture!r}")
        if self.conv_filters < 1 or self.fc_units < 1 or self.pad_len < 1:
            raise InvalidSpec("conv_filters, fc_units, and pad_len must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidSpec("dropout_rate must be in [0, 1)")
        k = self.kernel
        if not (isinstance(k, tuple) and len(k) == 2 and all(isinstance(d, int) and d >= 1 for d in k)):
            raise InvalidSpec(f"kernel must be a pair of positive ints, got {k!r}")

    @property
    def in_channels(self) -> int:
        return 2 if self.architecture == TWO_CHANNEL else 1

    def shape_pipeline(self) -> list[tuple[int, ...] | int]:
        """Intermediate shapes from input to output; raises InvalidSpec."""
        kh, kw = self.kernel
        h, w = self.pad_len, phoneme.N_FEATURES
        shapes: list[tuple[int, ...] | int] = [(h, w, self.in_channels)]
        for _ in range(2):
            h, w = h - kh + 1, w - kw + 1
            if h < 1 or w < 1:
                raise InvalidSpec(f"kernel {self.kernel} exhausts the {self.pad_len}x{phoneme.N_FEATURES} input")
            shapes.append((h, w, self.conv_filters))
        h, w = h // 2, w // 2
        if h < 1 or w < 1:
            raise InvalidSpec("2x2 pooling exhausts the feature map")
        shapes.append((h, w, self.conv_filters))
        flat = h * w * self.conv_filters
        shapes.append(flat)
        if self.architecture != SIAMESE_EUCLID:
            shapes.append(self.fc_units)
            shapes.append(1)
        return shapes


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    epochs: int = 20
    margin: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Model:
    """Parameters plus forward/backward wiring for one architecture."""

    def __init__(self, spec: ModelSpec, seed: int = 0):
        self.spec = spec
        self.shapes = spec.shape_pipeline()
        kh, kw = spec.kernel
        cin = spec.in_channels
        f = spec.conv_filters
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        params["conv1_w"] = _glorot(rng, (kh, kw, cin, f), kh * kw * cin, kh * kw * f)
        params["conv1_b"] = np.zeros(f)
        params["conv2_w"] = _glorot(rng, (kh, kw, f, f), kh * kw * f, kh * kw * f)
        params["conv2_b"] = np.zeros(f)
        if spec.architecture != SIAMESE_EUCLID:
            flat = self.flat_dim
            params["fc_w"] = _glorot(rng, (flat, spec.fc_units), flat, spec.fc_units)
            params["fc_b"] = np.zeros(spec.fc_units)
            params["out_w"] = _glorot(rng, (spec.fc_units, 1), spec.fc_units, 1)
            params["out_b"] = np.zeros(1)
        self.params = params

    @property
    def flat_dim(self) -> int:
        return self.shapes[4]

    # trunk: conv -> relu -> conv -> relu -> pool -> flatten

    def _trunk(self, x: np.ndarray):
        p = self.params
        z1, c1 = ops.conv2d(x, p["conv1_w"], p["conv1_b"])
        a1, cr1 = ops.relu(z1)
        z2, c2 = ops.conv2d(a1, p["conv2_w"], p["conv2_b"])
        a2, cr2 = ops.relu(z2)
        pooled, cp = ops.maxpool2(a2)
        flat = pooled.reshape(x.shape[0], -1)  # copies the batch-minor map in [h, w, f] order, fc_w's row order
        return flat, (c1, cr1, c2, cr2, cp, pooled.shape)

    def _trunk_backward(self, cache, gflat, grads: dict[str, np.ndarray]) -> None:
        c1, cr1, c2, cr2, cp, pooled_shape = cache
        g = ops.maxpool2_backward(cp, gflat.reshape(pooled_shape))
        g = ops.relu_backward(cr2, g)
        g, gk2, gb2 = ops.conv2d_backward(c2, g)
        g = ops.relu_backward(cr1, g)
        # nothing upstream of the input needs its gradient
        _, gk1, gb1 = ops.conv2d_backward(c1, g, input_grad=False)
        grads["conv1_w"] += gk1
        grads["conv1_b"] += gb1
        grads["conv2_w"] += gk2
        grads["conv2_b"] += gb2

    def _head(self, h: np.ndarray, training: bool, rng):
        p = self.params
        z1, cfc = ops.dense(h, p["fc_w"], p["fc_b"])
        a1, cr = ops.relu(z1)
        a1d, cdo = ops.dropout(a1, self.spec.dropout_rate, training, rng)
        z2, cout = ops.dense(a1d, p["out_w"], p["out_b"])
        prob, csig = ops.sigmoid(z2[:, 0])
        return prob, (cfc, cr, cdo, cout, csig)

    def _head_backward(self, cache, gprob, grads: dict[str, np.ndarray]):
        cfc, cr, cdo, cout, csig = cache
        gz2 = ops.sigmoid_backward(csig, gprob)[:, None]
        ga1d, gw_out, gb_out = ops.dense_backward(cout, gz2)
        ga1 = ops.dropout_backward(cdo, ga1d)
        gz1 = ops.relu_backward(cr, ga1)
        gh, gw_fc, gb_fc = ops.dense_backward(cfc, gz1)
        grads["fc_w"] += gw_fc
        grads["fc_b"] += gb_fc
        grads["out_w"] += gw_out
        grads["out_b"] += gb_out
        return gh

    def forward(self, xa: np.ndarray, xb: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None):
        """Score each pair: probability for log-loss heads, distance for Euclid.

        Trunk, pair layer, then the dense head unless the distance is the score.
        """
        arch = self.spec.architecture
        if arch == TWO_CHANNEL:  # one trunk pass over the pair as two channels
            h, trunk = self._trunk(np.stack([xa, xb], axis=-1))
            trunks, cpair = [trunk], None
        else:  # one trunk pass per word, with shared weights
            (fa, ca), (fb, cb) = self._trunk(xa[..., None]), self._trunk(xb[..., None])
            trunks = [ca, cb]
            h, cpair = ops.euclid(fa, fb) if arch == SIAMESE_EUCLID else ops.abs_diff(fa, fb)
        if arch == SIAMESE_EUCLID:
            return h, (trunks, cpair, None)
        prob, chead = self._head(h, training, rng)
        return prob, (trunks, cpair, chead)

    def loss_and_grads(self, xa: np.ndarray, xb: np.ndarray, y: np.ndarray,
                       margin: float = 1.0, rng: np.random.Generator | None = None):
        """Mean loss over the batch, with dropout on, and gradients for every parameter.

        Siamese-Euclid trains its distance with the contrastive loss, the
        others their probability with the log loss.
        """
        arch = self.spec.architecture
        n = xa.shape[0]
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        out, (trunks, cpair, chead) = self.forward(xa, xb, training=True, rng=rng)
        if arch == SIAMESE_EUCLID:
            with np.errstate(over="ignore"):  # train reports an overflowed loss, naming the margin
                loss = float(losses.contrastive_loss(out, y, margin).mean())
            gflats = ops.euclid_backward(cpair, losses.contrastive_loss_grad(out, y, margin) / n)
        else:
            loss = float(losses.log_loss(out, y).mean())
            gh = self._head_backward(chead, losses.log_loss_grad(out, y) / n, grads)
            gflats = [gh] if arch == TWO_CHANNEL else ops.abs_diff_backward(cpair, gh)
        for cache, gflat in zip(trunks, gflats):
            self._trunk_backward(cache, gflat, grads)
        return loss, grads

    def predict(self, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """Pair scores in [0, 1]; dropout disabled.

        Pairs are scored PREDICT_CHUNK rows at a time, so memory does not
        grow with the number of pairs.  Siamese-Euclid returns exp(-D): a
        monotone score, not a calibrated probability.  No pairs give an
        empty (0,) array.
        """
        out = np.concatenate([np.zeros(0)] + [
            self.forward(xa[i:i + PREDICT_CHUNK], xb[i:i + PREDICT_CHUNK])[0]
            for i in range(0, xa.shape[0], PREDICT_CHUNK)
        ])
        if self.spec.architecture == SIAMESE_EUCLID:
            return np.exp(-out)
        return out


def build(spec: ModelSpec, seed: int = 0) -> Model:
    """Validate the spec and initialize parameters (Glorot uniform, zero bias)."""
    return Model(spec, seed=seed)


def encode_pairs(pairs, pad_len: int = 10):
    """Render word pairs as matrix arrays.

    Returns (xa, xb, y) for the WordPair objects ``pairs``, with xa and xb
    shaped [n, pad_len, 16].  Each distinct form is rendered once, in order
    of first appearance.
    """
    if not pairs:
        raise EmptyDataset("no pairs to encode")
    forms, row = wordlists.distinct([form for pair in pairs for form in (pair.a.form, pair.b.form)])
    table = np.array([phoneme.word_to_matrix(form, pad_len) for form in forms])
    return table[row[0::2]], table[row[1::2]], np.array([pair.label for pair in pairs], dtype=np.float64)


def train(model: Model, pairs, cfg: TrainConfig = TrainConfig()):
    """Mini-batch adadelta training; returns (params, per-epoch mean loss).

    ``pairs`` is (xa, xb, y) as :func:`encode_pairs` renders them.  A
    single generator seeded with cfg.seed drives both the epoch shuffles
    and the dropout masks, so runs are reproducible.  Raises
    FloatingPointError when the running loss overflows.
    """
    xa, xb, y = pairs
    n = xa.shape[0]
    if n == 0:
        raise EmptyDataset("training set is empty")
    rng = np.random.default_rng(cfg.seed)
    state = AdadeltaState.for_params(model.params)
    history: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grads = model.loss_and_grads(
                xa[batch], xb[batch], y[batch], margin=cfg.margin, rng=rng
            )
            total += loss * len(batch)
            if not np.isfinite(total):  # the log loss is clipped, so only the margin can overflow it
                raise FloatingPointError(f"margin {cfg.margin:g} leaves the training loss non-finite ({total})")
            adadelta_step(model.params, grads, state)
        history.append(total / n)
    return model.params, history


# ModelSpec's fields in order, the architecture recorded as the system, then
# the trunk's pooling window, which is always 2x2
_CHECKPOINT_HEADER = {
    "system": artifact.one_of(*ARCHITECTURES), "conv_filters": int, "kernel": artifact.parse_dims,
    "fc_units": int, "dropout_rate": artifact.finite_float, "pad_len": int, "pool": artifact.one_of("2x2"),
}


def save_checkpoint(model: Model, path) -> None:
    """Write spec and parameters as a ``checkpoint`` artifact."""
    header = dict(zip(_CHECKPOINT_HEADER, astuple(model.spec) + ("2x2",)))
    artifact.save(path, "checkpoint", header, {k: model.params[k] for k in sorted(model.params)})


def load_checkpoint(path, system: str | None = None) -> Model:
    """Read a checkpoint; ``system``, when given, must be the recorded architecture."""
    def spec(header: dict) -> ModelSpec:
        return ModelSpec(*(header[k] for k in _CHECKPOINT_HEADER if k != "pool"))

    values, tensors, _ = artifact.load(
        path, "checkpoint", _CHECKPOINT_HEADER,
        lambda h: {k: v.shape for k, v in Model(spec(h)).params.items()}, system)
    model = Model(spec(values))
    model.params.update(tensors)
    return model
