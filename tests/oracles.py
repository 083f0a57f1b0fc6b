"""Independent reference implementations used to check the fast code.

Everything here follows the mathematical definitions directly: plain
recursion over edit scripts, explicit subsequence enumeration, and
exhaustive alignment-path enumeration.  Memoized variants exist only so
random tests can afford slightly longer strings; they share no code with
the production dynamic programs.  The convolution gradient is computed one
kernel offset at a time, with no unfolding.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def edit_distance_enum(a: str, b: str) -> int:
    """Plain-recursion edit distance (exponential; small strings only)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        edit_distance_enum(a[1:], b[1:]) + (a[0] != b[0]),
        edit_distance_enum(a[1:], b) + 1,
        edit_distance_enum(a, b[1:]) + 1,
    )


def edit_distance_memo(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            go(i + 1, j + 1) + (a[i] != b[j]),
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
        )
    return go(0, 0)


def _subsequences(s: str):
    if not s:
        yield ""
        return
    for rest in _subsequences(s[1:]):
        yield rest
        yield s[0] + rest


def _is_subsequence(sub: str, s: str) -> bool:
    it = iter(s)
    return all(ch in it for ch in sub)


def lcs_enum(a: str, b: str) -> int:
    """Longest common subsequence by enumerating subsequences of a."""
    return max(len(sub) for sub in _subsequences(a) if _is_subsequence(sub, b))


def global_enum(a: str, b: str, sub, gap: float) -> float:
    """Best global alignment score by enumerating all alignments."""
    def go(i: int, j: int) -> float:
        if i == len(a) and j == len(b):
            return 0.0
        best = None
        if i < len(a) and j < len(b):
            best = sub(a[i], b[j]) + go(i + 1, j + 1)
        if i < len(a):
            v = gap + go(i + 1, j)
            best = v if best is None or v > best else best
        if j < len(b):
            v = gap + go(i, j + 1)
            best = v if best is None or v > best else best
        return best
    return go(0, 0)


def global_memo(a: str, b: str, sub, gap: float) -> float:
    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> float:
        if i == len(a) and j == len(b):
            return 0.0
        best = None
        if i < len(a) and j < len(b):
            best = sub(a[i], b[j]) + go(i + 1, j + 1)
        if i < len(a):
            v = gap + go(i + 1, j)
            best = v if best is None or v > best else best
        if j < len(b):
            v = gap + go(i, j + 1)
            best = v if best is None or v > best else best
        return best
    return go(0, 0)


def local_best(a: str, b: str, sub, gap: float, global_fn=global_memo) -> float:
    """Local alignment: best global score over nonempty substring pairs, or 0."""
    best = 0.0
    for i1 in range(len(a)):
        for i2 in range(i1 + 1, len(a) + 1):
            for j1 in range(len(b)):
                for j2 in range(j1 + 1, len(b) + 1):
                    v = global_fn(a[i1:i2], b[j1:j2], sub, gap)
                    if v > best:
                        best = v
    return best


def semiglobal_best(a: str, b: str, sub, gap: float, global_fn=global_memo) -> float:
    """Semi-global: global score of a core region reached from the top/left
    edge and ending on the bottom/right edge; end gaps outside the core are
    free."""
    m, n = len(a), len(b)
    starts = [(i, 0) for i in range(m + 1)] + [(0, j) for j in range(1, n + 1)]
    ends = [(i, n) for i in range(m + 1)] + [(m, j) for j in range(n)]
    best = None
    for i1, j1 in starts:
        for i2, j2 in ends:
            if i2 < i1 or j2 < j1:
                continue
            v = global_fn(a[i1:i2], b[j1:j2], sub, gap)
            if best is None or v > best:
                best = v
    return best


def conv2d_backward_offsets(cache, grad):
    """Gradients (gx, gk, gb) of a valid convolution, one kernel offset at a time.

    ``cache`` is conv2d's ``(x, kernels)``: x is [B,H,W,C], kernels [kh,kw,C,F].
    """
    x, kernels = cache
    kh, kw, _, _ = kernels.shape
    _, oh, ow, _ = grad.shape
    gx = np.zeros_like(x)
    gk = np.zeros_like(kernels)
    gb = grad.sum(axis=(0, 1, 2))
    for a in range(kh):
        for b in range(kw):
            gk[a, b] = np.einsum("bijc,bijf->cf", x[:, a:a + oh, b:b + ow, :], grad)
            gx[:, a:a + oh, b:b + ow, :] += grad @ kernels[a, b].T
    return gx, gk, gb
