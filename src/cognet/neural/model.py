"""The three pair-classification architectures and their training loop.

All three share a convolutional trunk (conv -> ReLU -> conv -> ReLU ->
2x2 maxpool -> flatten).  The Siamese variants run the trunk on both words
with one shared set of weights; the 2-channel variant stacks the pair as
channels of a single input.
"""

from __future__ import annotations

import math
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


# The largest conv_filters, fc_units and pad_len, far above the paper's 10,
# 8 and 10.  With the other sizes at their defaults, a 128-pair training step
# at any one bound peaks under 200 MiB; a size past one is a typo, which
# would otherwise end in a failed allocation of up to petabytes.
MAX_SIZES = {"conv_filters": 256, "fc_units": 4096, "pad_len": 128}


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
        for name, bound in MAX_SIZES.items():
            if not 1 <= getattr(self, name) <= bound:
                raise InvalidSpec(f"{name} {getattr(self, name)} is not in [1, {bound}]")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidSpec("dropout_rate must be in [0, 1)")
        k = self.kernel
        if not (isinstance(k, tuple) and len(k) == 2 and all(isinstance(d, int) and d >= 1 for d in k)):
            raise InvalidSpec(f"kernel must be a pair of positive ints, got {k!r}")
        self.shape_pipeline()

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

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape, in initialization order; raises InvalidSpec."""
        kh, kw = self.kernel
        f = self.conv_filters
        flat = self.shape_pipeline()[4]
        shapes = {"conv1_w": (kh, kw, self.in_channels, f), "conv1_b": (f,),
                  "conv2_w": (kh, kw, f, f), "conv2_b": (f,)}
        if self.architecture != SIAMESE_EUCLID:
            shapes |= {"fc_w": (flat, self.fc_units), "fc_b": (self.fc_units,),
                       "out_w": (self.fc_units, 1), "out_b": (1,)}
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


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot uniform weights; a kernel [kh, kw, in, out] fans in and out over its kh x kw window."""
    window = math.prod(shape[:-2])
    limit = np.sqrt(6.0 / (window * shape[-2] + window * shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


class Model:
    """Parameters plus forward/backward wiring for one architecture.

    ``params`` maps each name of ``spec.param_shapes()`` to its tensor; when
    it is None they are initialized from ``seed`` (Glorot uniform, zero bias).
    """

    def __init__(self, spec: ModelSpec, seed: int = 0, params: dict[str, np.ndarray] | None = None):
        self.spec = spec
        self.shapes = spec.shape_pipeline()
        shapes = spec.param_shapes()
        if params is None:
            rng = np.random.default_rng(seed)
            params = {name: np.zeros(shape) if name.endswith("_b") else _glorot(rng, shape)
                      for name, shape in shapes.items()}
        self.params = {name: params[name] for name in shapes}

    # trunk: conv -> relu -> conv -> relu -> pool -> flatten

    def _trunk(self, x: np.ndarray, tape: bool = True):
        """The flat features of ``x`` and the trunk's tape, the caches its backward reads.

        The tape holds the input, conv2's input, the two ReLU masks and the uint8 pool
        index; each ReLU overwrites its pre-activation.  Without ``tape`` it
        is None, the pool keeps no index, and each activation is released
        once the next layer has read it.
        """
        p = self.params
        a, c1 = ops.conv2d(x, p["conv1_w"], p["conv1_b"], tape)
        a, cr1 = ops.relu(a, out=a, tape=tape)
        a, c2 = ops.conv2d(a, p["conv2_w"], p["conv2_b"], tape)
        a, cr2 = ops.relu(a, out=a, tape=tape)
        a, cp = ops.maxpool2(a, tape)
        flat = a.reshape(x.shape[0], -1)  # copies the batch-minor map in [h, w, f] order, fc_w's row order
        return flat, (c1, cr1, c2, cr2, cp, a.shape) if tape else None

    def _trunk_backward(self, trunks: list, gflats: list, grads: dict[str, np.ndarray]) -> None:
        """Backward through the last of ``trunks`` and ``gflats``, popped here and each tape entry dropped
        once read; passed in, they would stay alive in the caller until the call returns (Python 3.10)."""
        c1, cr1, c2, cr2, cp, pooled_shape = trunks.pop()
        (B, oh, ow, F), W = cp[0], c2[0].shape[2]
        # conv2's output gradient, built once at its input width W: the wrapped columns stay zero
        g = np.zeros((F, oh, W, B)).transpose(3, 1, 2, 0)  # batch-minor, as the trunk's activations
        valid = ops.maxpool2_backward(cp, gflats.pop().reshape(pooled_shape), out=g[:, :, :ow])
        ops.relu_backward(cr2, valid, out=valid)
        del cp, cr2, valid
        g, gk2, gb2 = ops.conv2d_backward(c2, g)
        del c2  # conv2's input, the largest tape entry
        g = ops.relu_backward(cr1, g, out=g)
        del cr1
        # nothing upstream of the input needs its gradient
        _, gk1, gb1 = ops.conv2d_backward(c1, g, input_grad=False)
        grads["conv1_w"] += gk1
        grads["conv1_b"] += gb1
        grads["conv2_w"] += gk2
        grads["conv2_b"] += gb2

    def _head(self, h: np.ndarray, training: bool, rng):
        p = self.params
        z1, cfc = ops.dense(h, p["fc_w"], p["fc_b"])
        a1, cr = ops.relu(z1, out=z1, tape=training)
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

        Trunk, pair layer, then the dense head unless the distance is the
        score.  Returns (scores, tape).  Training keeps each trunk's tape for
        backward, as ``_trunk`` describes; scoring keeps no backward state at
        all, and its tape is None.
        """
        arch = self.spec.architecture
        if arch == TWO_CHANNEL:  # one trunk pass over the pair as two channels
            h, trunk = self._trunk(np.stack([xa, xb], axis=-1), training)
            trunks, cpair = [trunk], None
        else:  # one trunk pass per word, with shared weights
            (fa, ca), (fb, cb) = self._trunk(xa[..., None], training), self._trunk(xb[..., None], training)
            trunks = [ca, cb]
            h, cpair = ops.euclid(fa, fb) if arch == SIAMESE_EUCLID else ops.abs_diff(fa, fb)
        chead = None
        if arch != SIAMESE_EUCLID:
            h, chead = self._head(h, training, rng)
        return h, (trunks, cpair, chead) if training else None

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
            gflats = list(ops.euclid_backward(cpair, losses.contrastive_loss_grad(out, y, margin) / n))
        else:
            loss = float(losses.log_loss(out, y).mean())
            gflats = [self._head_backward(chead, losses.log_loss_grad(out, y) / n, grads)]
            if arch == MANHATTAN:
                gflats = list(ops.abs_diff_backward(cpair, gflats[0]))
        del cpair, chead  # read by now; the trunks' backward passes are the step's peak
        # the last trunk first, as its forward ran last: the newest tape is freed first and the heap
        # is reused like a stack; two trunks' gradients sum to the same bits in either order
        while trunks:
            self._trunk_backward(trunks, gflats, grads)
        return loss, grads

    def predict(self, forms: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Pair scores in [0, 1]; dropout disabled.

        ``forms`` and ``index`` are as :func:`encode_pairs` returns them.
        Pairs are gathered and scored PREDICT_CHUNK rows of ``index`` at a
        time, so memory is the form table plus one chunk.  Siamese-Euclid
        returns exp(-D): a monotone score, not a calibrated probability.
        No pairs give an empty (0,) array.
        """
        out = np.concatenate([np.zeros(0)] + [
            self.forward(forms[index[i:i + PREDICT_CHUNK, 0]], forms[index[i:i + PREDICT_CHUNK, 1]])[0]
            for i in range(0, index.shape[0], PREDICT_CHUNK)
        ])
        if self.spec.architecture == SIAMESE_EUCLID:
            return np.exp(-out)
        return out


def build(spec: ModelSpec, seed: int = 0) -> Model:
    """Validate the spec and initialize parameters (Glorot uniform, zero bias)."""
    return Model(spec, seed=seed)


def render(forms, pad_len: int = 10) -> np.ndarray:
    """The [k, pad_len, 16] table of the feature matrices of ``forms``, one row each."""
    return np.array([phoneme.word_to_matrix(form, pad_len) for form in forms])


def encode_pairs(pairs, pad_len: int = 10):
    """Render word pairs as one table of forms and each pair's rows in it.

    Returns (forms, index, y) for the WordPair objects ``pairs``: ``forms``
    is [k, pad_len, 16] with each distinct form rendered once, in order of
    first appearance, and ``index`` is [n, 2], each pair's a-row and b-row.
    """
    if not pairs:
        raise EmptyDataset("no pairs to encode")
    forms, index, row = wordlists.form_table([pair.forms for pair in pairs])
    return render(forms, pad_len), index[row], np.array([pair.label for pair in pairs], dtype=np.float64)


def train(model: Model, pairs, cfg: TrainConfig = TrainConfig()):
    """Mini-batch adadelta training; returns (params, per-epoch mean loss).

    ``pairs`` is (forms, index, y) as :func:`encode_pairs` returns them;
    each batch gathers its two sides from the form table.  A single
    generator seeded with cfg.seed drives both the epoch shuffles and the
    dropout masks, so runs are reproducible.  Raises FloatingPointError
    when the running loss overflows.
    """
    forms, index, y = pairs
    n = index.shape[0]
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
            ia, ib = index[batch].T
            loss, grads = model.loss_and_grads(forms[ia], forms[ib], y[batch], margin=cfg.margin, rng=rng)
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

    values, tensors, _ = artifact.load(path, "checkpoint", _CHECKPOINT_HEADER,
                                       lambda h: spec(h).param_shapes(), system)
    return Model(spec(values), params=tensors)
