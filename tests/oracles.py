"""Independent reference implementations used to check the fast code.

Everything here follows the mathematical definitions directly: plain
recursion over edit scripts, explicit subsequence enumeration, and
exhaustive alignment-path enumeration.  Memoized variants exist only so
random tests can afford slightly longer strings; they share no code with
the production dynamic programs.  The global aligner with traceback calls
a substitution function for every DP cell.  The convolution and its
gradient are computed one kernel offset at a time, with no unfolding, and
also by im2col over channels-last [B,H,W,C] arrays, the layout the
production ops used before they stored activations batch-minor; max
pooling takes numpy's argmax over each window.  ConvNet inputs are
rendered as a copy of each side of every pair, and trained on by slicing
those copies per batch, each step running every row of both sides through
the trunk; scoring gathers both sides of every pair of a
chunk and runs the whole forward on them.  The batched DP scores are also
computed pair-major, one DP row of every pair at a time with the gap runs taken by
``np.maximum.accumulate``: the layout the production engine used before it
put the pair axis innermost.  The similarity features
are computed one pair at a time, with Python dynamic programs (the global,
local and semi-global scores from the score-only :func:`dp_score`) and
``Counter`` n-gram multisets.  Average precision sorts the ranks in
Python and sums precision in a loop.  The PMI symbol-pair counts align
every seed, repeats included, and count without weights.  The exact SVM
fit tries every active set of a few distinct rows; the Newton SVM fit sums
over every sample and finds each step's length by bisection, and the grid
search makes one separate Newton fit per C and fold.  Stratified folds deal
out the classes that ``np.unique`` finds.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cognet import phoneme, similarity, svm
from cognet.neural.adadelta import AdadeltaState, adadelta_step


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


def global_align(a: str, b: str, sub, gap: float) -> tuple[float, list[tuple[str, str]]]:
    """Best global alignment and its symbol pairs, calling ``sub(x, y)`` for every DP cell.

    Gaps appear as ``similarity.GAP``.  Traceback ties resolve substitution >
    deletion (gap in b) > insertion (gap in a).
    """
    m, n = len(a), len(b)
    S = [[0.0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        S[i][0] = i * gap
    for j in range(1, n + 1):
        S[0][j] = j * gap
    for i in range(1, m + 1):
        row = S[i]
        prev = S[i - 1]
        ca = a[i - 1]
        for j in range(1, n + 1):
            best = prev[j - 1] + sub(ca, b[j - 1])
            up = prev[j] + gap
            if up > best:
                best = up
            left = row[j - 1] + gap
            if left > best:
                best = left
            row[j] = best

    pairs: list[tuple[str, str]] = []
    i, j = m, n
    while i > 0 and j > 0:
        here = S[i][j]
        if here == S[i - 1][j - 1] + sub(a[i - 1], b[j - 1]):
            pairs.append((a[i - 1], b[j - 1]))
            i, j = i - 1, j - 1
        elif here == S[i - 1][j] + gap:
            pairs.append((a[i - 1], similarity.GAP))
            i -= 1
        else:
            pairs.append((similarity.GAP, b[j - 1]))
            j -= 1
    pairs.extend((a[k], similarity.GAP) for k in reversed(range(i)))
    pairs.extend((similarity.GAP, b[k]) for k in reversed(range(j)))
    pairs.reverse()
    return float(S[m][n]), pairs


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


def dp_score(a: str, b: str, sub, gap: float, mode: str) -> float:
    """Best "global", "local" or "semiglobal" score by the textbook score-only DP.

    Row and column 0 cost a gap per step in global mode and nothing in the
    others.  Local cells never drop below 0 and the best cell anywhere
    counts; semi-global counts the best cell of the last row or column.
    """
    m, n = len(a), len(b)
    edge = gap if mode == "global" else 0.0
    H = [[0.0] + [j * edge for j in range(1, n + 1)]]
    for i in range(1, m + 1):
        row = [i * edge]
        for j in range(1, n + 1):
            v = max(H[i - 1][j - 1] + sub(a[i - 1], b[j - 1]), H[i - 1][j] + gap, row[j - 1] + gap)
            row.append(max(v, 0.0) if mode == "local" else v)
        H.append(row)
    if mode == "global":
        return H[m][n]
    if mode == "local":
        return max(max(row) for row in H)
    return max(max(H[m]), max(row[n] for row in H))


_NONE = -(1 << 24)  # below every reachable score


def dp_scores_row_major(eq: np.ndarray, la: np.ndarray, lb: np.ndarray, params) -> list[np.ndarray]:
    """Best score of each word pair under each (match, mismatch, gap, mode), pair-major.

    ``eq[r, i, j]`` says whether symbol i of the r-th first word equals
    symbol j of the r-th second word; their lengths are ``la[r]`` and
    ``lb[r]``.  The DP rows of every parametrisation are filled one at a
    time, keeping only the current one; cells past a word's end are filled
    but never read.
    """
    rows, m, n = eq.shape
    scores = np.array([p[:3] for p in params], dtype=np.int32).reshape(-1, 3, 1, 1)
    match, mismatch, gap = scores[:, 0], scores[:, 1], scores[:, 2]
    modes = [p[3] for p in params]
    kind = np.array(modes)[:, None, None]
    edge = np.where(kind == "global", gap, 0).astype(np.int32)  # score per step along row and column 0
    floor = np.where(kind == "local", 0, _NONE).astype(np.int32)
    j = np.arange(n + 1, dtype=np.int32)
    left = gap * j
    r = np.arange(rows)
    in_b = j <= lb[:, None]
    row = np.repeat(edge * j, rows, axis=1)  # DP row 0, overwritten by each next row
    corner = local = semi = np.full((len(params), rows), _NONE, dtype=np.int32)
    for i in range(m + 1):
        if i:
            row[..., 1:] = np.maximum(np.maximum(row[..., :-1] + np.where(eq[:, i - 1], match, mismatch),
                                                 row[..., 1:] + gap), floor)
            row[..., 0] = edge[..., 0] * i
            # a run of gaps in the first word: H[i, j] = max over k <= j of H[i, k] + (j - k) * gap
            row[...] = np.maximum.accumulate(row - left, axis=-1) + left
        # row i's part in each score: its cell in the last column, and its best
        # cell inside the second word; only rows inside the first word count
        cell = row[:, r, lb]
        reach = np.where(in_b, row, _NONE).max(axis=-1)
        corner = np.where(i == la, cell, corner)
        local = np.maximum(local, np.where(i <= la, reach, _NONE))
        semi = np.maximum(semi, np.where(i == la, reach, np.where(i <= la, cell, _NONE)))
    best = {"global": corner, "local": local, "semiglobal": semi}
    return [best[mode][p] for p, mode in enumerate(modes)]


def dp_table_row_major(pairs, names=tuple(similarity.DP_MEASURES)) -> np.ndarray:
    """The named DP measures of each string pair by :func:`dp_scores_row_major`, all pairs at once."""
    la = np.array([len(a) for a, _ in pairs], dtype=np.int64)
    lb = np.array([len(b) for _, b in pairs], dtype=np.int64)
    eq = np.zeros((len(pairs), la.max(initial=0), lb.max(initial=0)), dtype=bool)
    for r, (a, b) in enumerate(pairs):
        eq[r, :len(a), :len(b)] = np.array(list(a))[:, None] == np.array(list(b))[None, :]
    values = dp_scores_row_major(eq, la, lb, [similarity.DP_MEASURES[name] for name in names])
    return np.column_stack([-v if name == "edit" else v for name, v in zip(names, values)]).astype(np.float64)


def conv2d_offsets(x, kernels, bias):
    """Valid convolution [B,H,W,C] x [kh,kw,C,F] -> [B,H-kh+1,W-kw+1,F], one kernel offset at a time."""
    kh, kw, _, F = kernels.shape
    B, H, W, _ = x.shape
    oh, ow = H - kh + 1, W - kw + 1
    out = np.broadcast_to(bias, (B, oh, ow, F)).copy()
    for a in range(kh):
        for b in range(kw):
            out += x[:, a:a + oh, b:b + ow, :] @ kernels[a, b]
    return out


def _unfold(x, kh, kw):
    """im2col: every kh x kw window of [B,H,W,C] as one row of [B*oh*ow, kh*kw*C]."""
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))  # [B,oh,ow,C,kh,kw]
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * x.shape[3])


def conv2d_im2col(x, kernels, bias, tape=True):
    """Valid convolution over channels-last arrays: (out, (x, kernels)), or (out, None) without ``tape``.

    One GEMM over the unfolded windows for C <= 2, else the per-offset sum
    in (a, b) order: the float order the batch-minor ops must reproduce.
    """
    B, H, W, C = x.shape
    kh, kw, _, F = kernels.shape
    oh, ow = H - kh + 1, W - kw + 1
    if C <= 2:
        out = (_unfold(x, kh, kw) @ kernels.reshape(-1, F) + bias).reshape(B, oh, ow, F)
    else:
        out = conv2d_offsets(x, kernels, bias)
    return out, (x, kernels) if tape else None


def conv2d_backward_im2col(cache, grad, input_grad=True):
    """Gradients (gx, gk, gb) of a valid convolution by im2col, gx None unless ``input_grad``.

    Each of gk and gx is one GEMM over an unfolded operand: gx is the full
    correlation of the zero-padded grad with the flipped kernels.  ``grad``
    is at the output width, or at the input width with its wrapped columns
    zero, as ``ops.conv2d_backward`` takes it; those columns are dropped.
    """
    x, kernels = cache
    kh, kw, C, F = kernels.shape
    ow = x.shape[2] - kw + 1
    assert not grad[:, :, ow:].any(), "an input-width gradient's wrapped columns must be zero"
    grad = grad[:, :, :ow]
    B, oh, _, _ = grad.shape
    gk = (_unfold(x, kh, kw).T @ grad.reshape(-1, F)).reshape(kernels.shape)
    gb = np.ones(B * oh * ow) @ grad.reshape(-1, F)
    if not input_grad:
        return None, gk, gb
    padded = np.zeros((B, oh + 2 * (kh - 1), ow + 2 * (kw - 1), F))
    padded[:, kh - 1:kh - 1 + oh, kw - 1:kw - 1 + ow] = grad
    flipped = kernels[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, C)
    gx = (_unfold(padded, kh, kw) @ flipped).reshape(x.shape)
    return gx, gk, gb


def maxpool2_argmax(x, grad):
    """2x2 max pooling by argmax over each reshaped window: (out, idx, gx).

    idx is the window position of the first maximum in row-major order; gx
    routes ``grad`` (shaped like out) to that position.  An odd last row or
    column is dropped.
    """
    ph = pw = 2
    B, H, W, F = x.shape
    oh, ow = H // ph, W // pw
    win = (
        x[:, :oh * ph, :ow * pw, :]
        .reshape(B, oh, ph, ow, pw, F)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(B, oh, ow, F, ph * pw)
    )
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    gwin = np.zeros((B, oh, ow, F, ph * pw))
    np.put_along_axis(gwin, idx[..., None], grad[..., None], axis=-1)
    gx = np.zeros(x.shape)
    gx[:, :oh * ph, :ow * pw, :] = (
        gwin.reshape(B, oh, ow, F, ph, pw)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(B, oh * ph, ow * pw, F)
    )
    return out, idx, gx


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


# ------------------------------------------------- per-pair similarity features

def encode_pairs_per_side(pairs, pad_len: int = 10):
    """ConvNet inputs as (xa, xb, y): a rendered [n, pad_len, 16] copy of each side of every pair."""
    xa = np.array([phoneme.word_to_matrix(p.a.form, pad_len) for p in pairs])
    xb = np.array([phoneme.word_to_matrix(p.b.form, pad_len) for p in pairs])
    return xa, xb, np.array([p.label for p in pairs], dtype=np.float64)


def loss_and_grads_per_pair(model, xa, xb, y, margin: float = 1.0, rng=None):
    """``Model.loss_and_grads`` as every row of both sides goes through the trunk, repeats included: a
    Siamese word is embedded, and its gradient taken back through the trunk, once per pair it is in."""
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    out, (trunks, cpair, chead) = model.forward(xa, xb, training=True, rng=rng)
    loss, gflats = model._top_backward(out, cpair, chead, y, margin, grads)
    while trunks:
        model._trunk_backward(trunks, gflats, grads)
    return loss, grads


def train_per_side(model, pairs, cfg):
    """``neural.model.train`` over (xa, xb, y), each batch sliced from the per-side copies and its step
    taken by :func:`loss_and_grads_per_pair`."""
    xa, xb, y = pairs
    rng = np.random.default_rng(cfg.seed)
    state = AdadeltaState.for_params(model.params)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(xa.shape[0])
        total = 0.0
        for start in range(0, xa.shape[0], cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grads = loss_and_grads_per_pair(model, xa[batch], xb[batch], y[batch], cfg.margin, rng)
            total += loss * len(batch)
            adadelta_step(model.params, grads, state)
        history.append(total / xa.shape[0])
    return model.params, history


def predict_per_pair(model, forms, index, chunk: int):
    """``Model.predict`` as each chunk of ``chunk`` index rows gathers both sides of every pair and runs
    ``forward``: a Siamese form is embedded once per pair it is in."""
    out = [np.zeros(0)]
    for i in range(0, index.shape[0], chunk):
        rows = index[i:i + chunk]
        out.append(model.forward(forms[rows[:, 0]], forms[rows[:, 1]])[0])
    out = np.concatenate(out)
    return np.exp(-out) if model.spec.architecture == "siamese_euclid" else out


def edit_distance_dp(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(
                prev[j - 1] + (ca != cb),
                prev[j] + 1,
                cur[j - 1] + 1,
            ))
        prev = cur
    return prev[-1]


def _common_ngrams(a: str, b: str, n: int) -> int:
    if len(a) < n or len(b) < n:
        return 0
    grams_a = Counter(a[i:i + n] for i in range(len(a) - n + 1))
    grams_b = Counter(b[i:i + n] for i in range(len(b) - n + 1))
    return sum((grams_a & grams_b).values())


def common_bigrams(a: str, b: str) -> int:
    """Size of the multiset intersection of contiguous bigrams."""
    return _common_ngrams(a, b, 2)


def common_trigrams(a: str, b: str) -> int:
    """Size of the multiset intersection of contiguous trigrams."""
    return _common_ngrams(a, b, 3)


def lcs_length_dp(a: str, b: str) -> int:
    """Length of the longest common subsequence."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b, 1):
            if ca == cb:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def lcp_length(a: str, b: str) -> int:
    """Length of the longest common prefix."""
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n


def _extended_bigrams(s: str) -> list[tuple[str, int]]:
    # extended bigram = trigram with the middle symbol dropped, tagged with
    # its start position
    return [(s[i] + s[i + 2], i) for i in range(len(s) - 2)]


def xdice(a: str, b: str) -> float:
    """Dice coefficient over extended (skip-one) bigrams."""
    xa = [g for g, _ in _extended_bigrams(a)]
    xb = [g for g, _ in _extended_bigrams(b)]
    total = len(xa) + len(xb)
    if total == 0:
        return 0.0
    shared = sum((Counter(xa) & Counter(xb)).values())
    return 2.0 * shared / total


def xxdice(a: str, b: str) -> float:
    """Positional XDICE: shared extended bigrams weighted by 1/(1+d^2).

    Repeated extended bigrams pair up in order of appearance, so the i-th
    occurrence in one word matches the i-th occurrence in the other.
    """
    xa = _extended_bigrams(a)
    xb = _extended_bigrams(b)
    total = len(xa) + len(xb)
    if total == 0:
        return 0.0
    pos_b: dict[str, list[int]] = {}
    for g, p in xb:
        pos_b.setdefault(g, []).append(p)
    used: dict[str, int] = {}
    weight = 0.0
    for g, pa in xa:
        k = used.get(g, 0)
        positions = pos_b.get(g, ())
        if k < len(positions):
            d = pa - positions[k]
            weight += 1.0 / (1.0 + d * d)
            used[g] = k + 1
    return 2.0 * weight / total


_UNIT = similarity.match_mismatch()  # match 1, mismatch -1


def measure_row(a: str, b: str) -> tuple[float, ...]:
    """The ten measures of one string pair, in ``similarity.MEASURES`` order."""
    return (
        float(edit_distance_dp(a, b)),
        float(common_bigrams(a, b)),
        float(lcs_length_dp(a, b)),
        float(lcp_length(a, b)),
        float(common_trigrams(a, b)),
        *(dp_score(a, b, _UNIT, -1.0, mode) for mode in ("global", "local", "semiglobal")),
        xdice(a, b),
        xxdice(a, b),
    )


def features_per_pair(a_asjp: str, b_asjp: str) -> list[float]:
    """The 33 similarity features of one ASJP word pair, in ``FEATURE_NAMES`` order."""
    if not a_asjp or not b_asjp:
        raise ValueError("features_per_pair requires nonempty words")
    schemes = phoneme.SCHEMES
    rows = [measure_row(phoneme.to_sound_class(a_asjp, schemes[alph]),
                         phoneme.to_sound_class(b_asjp, schemes[alph]))
            for alph in similarity.ALPHABETS]
    measures = [rows[k][m] for m in range(len(similarity.MEASURES)) for k in range(len(rows))]
    return measures + [float(len(a_asjp)), float(len(b_asjp)), float(abs(len(a_asjp) - len(b_asjp)))]


# ------------------------------------------------------------------ PMI counts

def count_pairs_per_seed(seeds, scores, gap: float) -> np.ndarray:
    """``pmi._count_pairs`` with one alignment per seed, repeats included, and unweighted counts."""
    n = len(phoneme.INVENTORY)
    idx = phoneme.SYMBOL_INDEX
    codes = np.fromiter((idx[x] * n + idx[y] for a, b in seeds for x, y in similarity.align(a, b, scores, gap)[1]
                         if x != similarity.GAP and y != similarity.GAP), dtype=np.int64)
    counts = np.bincount(codes, minlength=n * n).reshape(n, n).astype(np.float64)
    return counts + counts.T


# ------------------------------------------------------------------ metrics

def average_precision_loop(labels, scores) -> float:
    """Average precision by a Python sort on (-score, index) and a step-sum over the ranks."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    order = sorted(range(len(y)), key=lambda i: (-s[i], i))
    ap = 0.0
    tp = 0
    for rank, i in enumerate(order, 1):
        if y[i] == 1:
            tp += 1
            ap += tp / rank
    return ap / tp


# ------------------------------------------------------------------ SVM fit

def _svm_signed_rows(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sample's signed row y * [z, 1], z standardised by the samples' own mean and deviation; and those."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    Z = (X - mean) / std
    return np.where(y == 1, 1.0, -1.0)[:, None] * np.column_stack([Z, np.ones(len(Z))]), mean, std


def svm_theta_enumerated(A: np.ndarray, C: float, groups: np.ndarray) -> np.ndarray:
    """The theta minimising ||theta||^2 / 2 + C * mean(max(0, 1 - A theta)^2), by trying every active set.

    ``A`` holds one signed row per sample, and samples of one group (ids
    ``0..u-1``) are identical, so they are active together.  Each of the 2^u
    subsets of groups keeps its rows' squared hinges as whole squares and
    drops the rest, and that quadratic's minimiser solves one linear system.
    The subset whose own minimiser leaves exactly its rows below margin 1 is
    consistent, and its minimiser is the objective's; the subset whose
    minimiser breaks that least is kept, so rounding cannot lose it.
    """
    n, p = A.shape
    subsets = np.array(list(itertools.product([False, True], repeat=int(groups.max()) + 1)))
    active = subsets[:, groups].astype(np.float64)  # [2^u, n]
    scale = 2.0 * C / n
    hess = np.eye(p) + scale * np.einsum("sn,ni,nj->sij", active, A, A)
    theta = np.linalg.solve(hess, scale * (active @ A)[..., None])[..., 0]
    slack = 1.0 - theta @ A.T
    broken = np.where(active > 0.0, np.maximum(-slack, 0.0), np.maximum(slack, 0.0)).max(axis=1)
    return theta[np.argmin(broken)]


def svm_fit_enumerated(X, y, C: float = 1.0) -> svm.LinearModel:
    """``svm.fit`` for one C, exact: :func:`svm_theta_enumerated` over every sample, repeats as one group."""
    A, mean, std = _svm_signed_rows(X, y)
    _, groups = np.unique(np.column_stack([X, y]), axis=0, return_inverse=True)
    theta = svm_theta_enumerated(A, C, groups.ravel())
    return svm.LinearModel(weights=theta[:-1], bias=float(theta[-1]), mean=mean, std=std, C=C)


def svm_fit_newton(X, y, C: float = 1.0, passes: int = 2000) -> svm.LinearModel:
    """``svm.fit`` for one C alone: its Newton steps, summed over every sample.

    Each step's length is where the objective's slope along it, which
    increases, crosses zero, found by bisection: bracketed by doubling from
    1, then halved until the bracket's ends are adjacent floats.
    """
    A, mean, std = _svm_signed_rows(X, y)
    n, p = A.shape
    scale = 2.0 * C / n
    theta = np.zeros(p)
    last = None
    for _ in range(passes):
        slack = 1.0 - A @ theta
        active = slack > 0.0
        grad = theta - scale * (np.maximum(slack, 0.0) @ A)
        if (last is not None and np.array_equal(active, last)) or not grad.any():
            break
        last = active
        s = np.linalg.solve(np.eye(p) + scale * A[active].T @ A[active], -grad)

        def slope(t):
            return (theta + t * s) @ s - scale * (np.maximum(1.0 - A @ (theta + t * s), 0.0) @ (A @ s))

        lo, hi = 0.0, 1.0
        while slope(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
        while lo < (mid := (lo + hi) / 2.0) < hi:
            lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
        theta = theta + hi * s
    return svm.LinearModel(weights=theta[:-1], bias=float(theta[-1]), mean=mean, std=std, C=C)


def stratified_folds_unique(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """``svm._stratified_folds`` over the classes ``np.unique`` finds, as it was before it counted them."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def grid_search_cv_separate(X, y, C_grid=(0.01, 0.1, 1.0, 10.0, 100.0), folds: int = 10,
                            seed: int = 0, passes: int = 2000) -> svm.GridSearchResult:
    """``svm.grid_search_cv`` by one separate :func:`svm_fit_newton` per C and fold."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] < folds:
        raise svm.TooFewSamples(f"{X.shape[0]} samples cannot fill {folds} folds")
    if np.bincount(y, minlength=2).min() < 2:
        raise svm.TooFewSamples("each class needs at least 2 samples for stratified folding")
    assignment = svm._stratified_folds(y, folds, seed)
    cv_scores: dict[float, float] = {}
    for C in C_grid:
        accs = []
        for k in range(folds):
            val = assignment == k
            if not val.any():
                continue
            model = svm_fit_newton(X[~val], y[~val], C=C, passes=passes)
            accs.append(float(np.mean((svm.decision_function(model, X[val]) >= 0) == y[val])))
        cv_scores[float(C)] = float(np.mean(accs))
    best_score = max(cv_scores.values())
    best_C = min(c for c, v in cv_scores.items() if v == best_score)
    return svm.GridSearchResult(best_C=best_C, cv_scores=cv_scores)
