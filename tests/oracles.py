"""Independent reference implementations used to check the fast code.

Everything here follows the mathematical definitions directly: plain
recursion over edit scripts, explicit subsequence enumeration, and
exhaustive alignment-path enumeration.  Memoized variants exist only so
random tests can afford slightly longer strings; they share no code with
the production dynamic programs.  The global aligner with traceback calls
a substitution function for every DP cell.  The convolution and its
gradient are computed one kernel offset at a time, with no unfolding, and
max pooling takes numpy's argmax over each window.  The similarity features
are computed one pair at a time, with Python dynamic programs (the global,
local and semi-global scores from the score-only :func:`dp_score`) and
``Counter`` n-gram multisets.  Average precision sorts the ranks in
Python and sums precision in a loop.  The SVM fit recomputes the margins
at the top of every pass, and the grid search makes one separate fit per
C and fold.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from cognet import phoneme, similarity, svm


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


def maxpool2_argmax(x, grad, size=(2, 2)):
    """Max pooling by argmax over each reshaped window: (out, idx, gx).

    idx is the window position of the first maximum in row-major order; gx
    routes ``grad`` (shaped like out) to that position.  Excess rows and
    columns are dropped.
    """
    ph, pw = size
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


def _measure_row(a: str, b: str) -> tuple[float, ...]:
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
    schemes = phoneme.builtin_schemes()
    rows = [_measure_row(phoneme.to_sound_class(a_asjp, schemes[alph]),
                         phoneme.to_sound_class(b_asjp, schemes[alph]))
            for alph in similarity.ALPHABETS]
    measures = [rows[k][m] for m in range(len(similarity.MEASURES)) for k in range(len(rows))]
    return measures + [float(len(a_asjp)), float(len(b_asjp)), float(abs(len(a_asjp) - len(b_asjp)))]


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

def svm_fit_recomputed(X, y, C: float = 1.0, passes: int = 2000) -> svm.LinearModel:
    """``svm.fit`` for one C alone, computing ``Z @ w + b`` afresh for each pass's subgradient."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    Z = (X - mean) / std
    ys = np.where(y == 1, 1.0, -1.0)
    n = Z.shape[0]

    def objective(w, b):
        hinge = np.maximum(0.0, 1.0 - ys * (Z @ w + b))
        return 0.5 * float(w @ w) + C * float(hinge.mean())

    w = np.zeros(Z.shape[1])
    b = 0.0
    best_obj = objective(w, b)
    best_w, best_b = w.copy(), b
    for t in range(1, passes + 1):
        margins = ys * (Z @ w + b)
        active = margins < 1.0
        grad_w = w - (C / n) * (ys[active] @ Z[active])
        grad_b = -(C / n) * float(ys[active].sum())
        eta = 1.0 / t
        w = w - eta * grad_w
        b = b - eta * grad_b
        obj = objective(w, b)
        if obj < best_obj:
            best_obj = obj
            best_w, best_b = w.copy(), b
    return svm.LinearModel(weights=best_w, bias=best_b, mean=mean, std=std, C=C)


def grid_search_cv_separate(X, y, C_grid=(0.01, 0.1, 1.0, 10.0, 100.0), folds: int = 10,
                            seed: int = 0, passes: int = 2000) -> svm.GridSearchResult:
    """``svm.grid_search_cv`` by one separate :func:`svm_fit_recomputed` per C and fold."""
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
            model = svm_fit_recomputed(X[~val], y[~val], C=C, passes=passes)
            accs.append(float(np.mean(svm.predict(model, X[val]) == y[val])))
        cv_scores[float(C)] = float(np.mean(accs))
    best_score = max(cv_scores.values())
    best_C = min(c for c, v in cv_scores.items() if v == best_score)
    return svm.GridSearchResult(best_C=best_C, cv_scores=cv_scores)
