"""Layer primitives over batched numpy arrays, each with an exact backward.

Every forward returns (output, cache); the matching backward consumes the
cache and the upstream gradient.  Spatial tensors are [batch, height,
width, channels]; dense activations are [batch, units].  All arithmetic
is float64.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeMismatch(ValueError):
    pass


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray):
    """Valid (unpadded) convolution: [B,H,W,C] x [kh,kw,C,F] -> [B,H-kh+1,W-kw+1,F]."""
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
    if C <= 2:  # the per-offset product below has inner dimension C: thousands of tiny GEMMs
        return (_unfold(x, kh, kw) @ kernels.reshape(-1, F) + bias).reshape(B, oh, ow, F), (x, kernels)
    out = np.broadcast_to(bias, (B, oh, ow, F)).copy()
    for a in range(kh):
        for b in range(kw):
            out += x[:, a:a + oh, b:b + ow, :] @ kernels[a, b]
    return out, (x, kernels)


def _unfold(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col: every kh x kw window of [B,H,W,C] as one row of [B*oh*ow, kh*kw*C]."""
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))  # [B,oh,ow,C,kh,kw]
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * x.shape[3])


def conv2d_backward(cache, grad, input_grad: bool = True):
    """Gradients (gx, gk, gb) of conv2d; gx is None when ``input_grad`` is false.

    Each of gk and gx is one GEMM over an unfolded operand (im2col): gk
    correlates the unfolded input with ``grad``; gx is the full correlation
    of the zero-padded ``grad`` with the flipped kernels.
    """
    x, kernels = cache
    kh, kw, C, F = kernels.shape
    B, oh, ow, _ = grad.shape
    gk = (_unfold(x, kh, kw).T @ grad.reshape(-1, F)).reshape(kernels.shape)
    gb = np.ones(B * oh * ow) @ grad.reshape(-1, F)  # as a GEMV: summing over three axes cost as much as the kernel GEMM
    if not input_grad:
        return None, gk, gb
    padded = np.zeros((B, oh + 2 * (kh - 1), ow + 2 * (kw - 1), F))
    padded[:, kh - 1:kh - 1 + oh, kw - 1:kw - 1 + ow] = grad
    flipped = kernels[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, C)
    gx = (_unfold(padded, kh, kw) @ flipped).reshape(x.shape)
    return gx, gk, gb


def relu(x: np.ndarray):
    out = np.maximum(x, 0.0)
    return out, (x > 0.0)


def relu_backward(cache, grad):
    return grad * cache


def maxpool2(x: np.ndarray, size: tuple[int, int] = (2, 2)):
    """Window max with stride = window; excess rows/cols are dropped.

    Ties go to the first maximum in row-major window order, as with argmax.
    """
    if x.ndim != 4:
        raise ShapeMismatch(f"maxpool2 expects [B,H,W,F], got {x.shape}")
    ph, pw = size
    _, H, W, _ = x.shape
    oh, ow = H // ph, W // pw
    if oh == 0 or ow == 0:
        raise ShapeMismatch(f"input {H}x{W} too small for {ph}x{pw} pooling")
    out = x[:, :oh * ph:ph, :ow * pw:pw].copy()  # every window's element at position 0
    idx = np.zeros(out.shape, dtype=np.intp)
    for k in range(1, ph * pw):  # the other positions, in row-major order
        i, j = divmod(k, pw)
        at_k = x[:, i:oh * ph:ph, j:ow * pw:pw]
        np.putmask(idx, at_k > out, k)  # strict: a tie keeps the earlier position
        np.maximum(out, at_k, out=out)
    return out, (x.shape, size, idx)


def maxpool2_backward(cache, grad):
    shape, (ph, pw), idx = cache
    _, oh, ow, _ = idx.shape
    gx = np.zeros(shape)
    for k in range(ph * pw):
        i, j = divmod(k, pw)
        gx[:, i:oh * ph:ph, j:ow * pw:pw] = np.where(idx == k, grad, 0.0)
    return gx


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
    out = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                   np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    return out, out


def sigmoid_backward(cache, grad):
    return grad * cache * (1.0 - cache)
