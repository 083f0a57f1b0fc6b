"""Layer primitives over batched numpy arrays, each with an exact backward.

Every forward returns (output, cache); the matching backward consumes the
cache and the upstream gradient.  The trunk's ops (conv2d, relu, maxpool2)
take ``tape``: with it false they keep nothing a backward would read and
return None for the cache, so scoring holds only the activations
themselves.  Spatial tensors have the shape [batch, height, width,
channels]; dense activations are [batch, units].  All arithmetic is
float64.

The spatial ops store their outputs batch-minor: each returns the
[B,H,W,C]-shaped transpose of a contiguous [C,H,W,B] buffer, so a
trunk's activations stay batch-minor from layer to layer, and its GEMMs,
copies and element-wise loops run along rows of H*W*B or B values, not C.
Any other [B,H,W,C] array is accepted too, at the cost of one copy.

``conv2d_backward`` takes its output gradient at the output width W - kw + 1,
which it copies once into a zeroed buffer at the input width W, or at W
itself, which it reads as is; there the kw - 1 wrapped columns of each row
lie under no output and must be zero.  ``maxpool2_backward(out=)`` builds
such a gradient in place, in the valid columns of a zeroed buffer.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    pass


# Columns per GEMM step.  With 10 channels a step's operands, 320 KB per
# block, stay in a 2 MB L2 cache; a 128-row batch's 14-18k columns in one
# step did not, and its conv2 GEMMs and adds ran about 1.5 times slower
# (Xeon, 2 MB L2 per core, one BLAS thread).
_BLOCK = 4096


def _swap(x: np.ndarray) -> np.ndarray:
    """[B,H,W,C] <-> [C,H,W,B]; the permutation is its own inverse."""
    return x.transpose(3, 1, 2, 0)


def _rows(x: np.ndarray) -> np.ndarray:
    """[B,H,W,C] as batch-minor rows [C, H*W*B]; a view if x is a batch-minor view."""
    return np.ascontiguousarray(_swap(x)).reshape(x.shape[3], -1)


def _at_offsets(rows: np.ndarray, kh: int, kw: int, W: int, B: int, n: int) -> list[np.ndarray]:
    """Views of the batch-minor ``rows`` [C, H*W*B] under each kernel offset, in (a, b) order.

    The view for offset (a, b) is the n columns from (a*W + b)*B on, where
    n = (oh*W - kw + 1)*B: its column (i*W + j)*B + batch lies under output
    position (i, j) of that batch row.  Columns with j >= ow = W - kw + 1
    wrap into the next input row; every caller computes and drops them.
    """
    return [rows[:, (a * W + b) * B:(a * W + b) * B + n] for a in range(kh) for b in range(kw)]


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, tape: bool = True):
    """Valid (unpadded) convolution: [B,H,W,C] x [kh,kw,C,F] -> [B,H-kh+1,W-kw+1,F].

    The cache is (x, kernels).  Output rows are computed at the full input
    width W from one shifted slice per kernel offset (see ``_at_offsets``),
    a block of whole rows at a time into one reused buffer; each block's
    valid columns are copied into the output, and its kw - 1 wrapped
    columns per row are dropped.
    """
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeMismatch(f"conv2d expects 4-D input and kernels, got {x.shape}, {kernels.shape}")
    B, H, W, C = x.shape
    kh, kw, Ck, F = kernels.shape
    if Ck != C:
        raise ShapeMismatch(f"kernel channels {Ck} != input channels {C}")
    if kh > H or kw > W:
        raise ShapeMismatch(f"kernel {kh}x{kw} exceeds input {H}x{W}")
    if bias.shape != (F,):
        raise ShapeMismatch(f"bias shape {bias.shape} != ({F},)")
    oh, ow = H - kh + 1, W - kw + 1
    n = (oh * W - kw + 1) * B
    views = _at_offsets(_rows(x), kh, kw, W, B, n)
    rows = max(1, _BLOCK // (W * B))  # output rows per block
    block = np.empty((F, rows, W, B))
    out = np.empty((F, oh, ow, B))
    for top in range(0, oh, rows):
        first = top * W * B
        last = min(first + rows * W * B, n)  # the last output row stops at its valid columns
        for start in range(first, last, _BLOCK):
            cols = slice(start, min(start + _BLOCK, last))
            o = block.reshape(F, -1)[:, start - first:cols.stop - first]
            if C <= 2:  # one GEMM over the windows, values in (a, b, c) order; per offset it would be C deep
                np.matmul(kernels.reshape(-1, F).T, np.concatenate([v[:, cols] for v in views]), out=o)
                o += bias[:, None]
            else:  # bias first, then each offset's product in (a, b) order
                o[:] = bias[:, None]
                for k, v in zip(kernels.reshape(-1, C, F), views):
                    o += k.T @ v[:, cols]
        out[:, top:top + rows] = block[:, :oh - top, :ow]
    return _swap(out), (x, kernels) if tape else None


def conv2d_backward(cache, grad, input_grad: bool = True):
    """Gradients (gx, gk, gb) of conv2d; gx is None when ``input_grad`` is false.

    ``grad`` is at the output width or the input width (see the module
    docstring), so the forward's shifted slices serve here too: gk is grad
    times the window columns (per offset for C > 2), and each offset adds
    its product with grad into the same slice of gx.
    """
    x, kernels = cache
    kh, kw, C, F = kernels.shape
    B, H, W, _ = x.shape
    _, oh, gw, _ = grad.shape
    if gw not in (W - kw + 1, W):
        raise ShapeMismatch(f"gradient width {gw} is neither the output width {W - kw + 1} nor the input width {W}")
    n = (oh * W - kw + 1) * B
    if gw == W:
        g = _rows(grad)
    else:
        padded = np.zeros((F, oh, W, B))
        padded[:, :, :gw] = _swap(grad)
        g = padded.reshape(F, -1)
    g = g[:, :n]
    views = _at_offsets(_rows(x), kh, kw, W, B, n)
    gk = np.zeros((F, kh * kw * C))  # columns in (a, b, c) order
    gx = np.zeros((C, H * W * B)) if input_grad else None
    gx_views = _at_offsets(gx, kh, kw, W, B, n) if input_grad else []
    for start in range(0, n, _BLOCK):
        cols = slice(start, start + _BLOCK)
        gc = g[:, cols]
        if C <= 2:  # one GEMM over the windows, as in the forward
            gk += gc @ np.concatenate([v[:, cols] for v in views]).T
        else:  # per offset, from the slices in place: copying kh*kw*C rows cost more than it saved
            for i, v in enumerate(views):
                gk[:, i * C:(i + 1) * C] += gc @ v[:, cols].T
        for k, gv in zip(kernels.reshape(-1, C, F), gx_views):
            gv[:, cols] += k @ gc
    gk = gk.T.reshape(kernels.shape)
    gb = g @ np.ones(n)
    if not input_grad:
        return None, gk, gb
    return _swap(gx.reshape(C, H, W, B)), gk, gb


def relu(x: np.ndarray, out: np.ndarray | None = None, tape: bool = True):
    """max(x, 0) and its mask x > 0, both in x's memory layout (batch-minor stays batch-minor).

    ``out=x`` runs in place, so the pre-activation is gone once its ReLU has run.
    """
    out = np.maximum(x, 0.0, out=out)
    return out, (out > 0.0) if tape else None


def relu_backward(cache, grad, out: np.ndarray | None = None):
    """grad times the mask; ``out=grad`` consumes a gradient that no one else reads."""
    return np.multiply(grad, cache, out=out)


def maxpool2(x: np.ndarray, tape: bool = True):
    """2x2 window max with stride 2; an odd last row or column is dropped.

    The cache is x's shape and each window's argmax, 0-3 in row-major order
    as uint8; ties go to the first maximum, as with argmax.
    """
    if x.ndim != 4:
        raise ShapeMismatch(f"maxpool2 expects [B,H,W,F], got {x.shape}")
    _, H, W, _ = x.shape
    oh, ow = H // 2, W // 2
    if oh == 0 or ow == 0:
        raise ShapeMismatch(f"input {H}x{W} too small for 2x2 pooling")
    t = _swap(x)
    out = t[:, :2 * oh:2, :2 * ow:2].copy()  # every window's element at position 0
    idx = np.zeros(out.shape, dtype=np.uint8) if tape else None
    for k in range(1, 4):  # the other positions, in row-major order
        i, j = divmod(k, 2)
        at_k = t[:, i:2 * oh:2, j:2 * ow:2]
        if tape:
            np.putmask(idx, at_k > out, k)  # strict: a tie keeps the earlier position
        np.maximum(out, at_k, out=out)
    return _swap(out), (x.shape, _swap(idx)) if tape else None


def maxpool2_backward(cache, grad, out: np.ndarray | None = None):
    """The input's gradient, each window's ``grad`` at its argmax and zero elsewhere, written
    into ``out`` when given: any [B,H,W,F] array, whose values are never read."""
    (B, H, W, F), idx = cache
    _, oh, ow, _ = idx.shape
    idx, grad = _swap(idx), np.ascontiguousarray(_swap(grad))
    gx = np.empty((F, H, W, B)) if out is None else _swap(out)
    for k in range(4):  # as in relu_backward, a mask multiplies the gradient
        i, j = divmod(k, 2)
        np.multiply(grad, idx == k, out=gx[:, i:2 * oh:2, j:2 * ow:2])
    gx[:, 2 * oh:] = 0.0  # a dropped odd last row and column
    gx[:, :, 2 * ow:] = 0.0
    return _swap(gx)


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Affine map: [B,D] x [D,U] + [U] -> [B,U]."""
    if x.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatch(f"dense shapes {x.shape}, {w.shape}, {b.shape} do not conform")
    return x @ w + b, (x, w)


def dense_backward(cache, grad):
    x, w = cache
    return grad @ w.T, x.T @ grad, grad.sum(axis=0)


def dropout(x: np.ndarray, rate: float, training: bool, rng: np.random.Generator | None = None):
    """Inverted dropout: zero with probability rate, scale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("training-mode dropout requires an rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(cache, grad):
    return grad if cache is None else grad * cache


def abs_diff(u: np.ndarray, v: np.ndarray):
    """Element-wise |u - v|."""
    if u.shape != v.shape:
        raise ShapeMismatch(f"abs_diff shapes {u.shape} != {v.shape}")
    d = u - v
    return np.abs(d), np.sign(d)


def abs_diff_backward(cache, grad):
    g = grad * cache
    return g, -g


def euclid(u: np.ndarray, v: np.ndarray):
    """Euclidean distance per row: [B,D] x [B,D] -> [B]."""
    if u.shape != v.shape or u.ndim != 2:
        raise ShapeMismatch(f"euclid shapes {u.shape}, {v.shape} do not conform")
    d = u - v
    dist = np.sqrt((d * d).sum(axis=1))
    return dist, (d, dist)


def euclid_backward(cache, grad):
    d, dist = cache
    # subgradient 0 where the distance is exactly zero
    safe = np.where(dist > 0.0, dist, 1.0)
    gu = (grad / safe * (dist > 0.0))[:, None] * d
    return gu, -gu


def sigmoid(z: np.ndarray):
    e = np.exp(-np.abs(z))  # <= 1, so neither branch overflows
    out = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out, out


def sigmoid_backward(cache, grad):
    return grad * cache * (1.0 - cache)
