"""String similarity measures and dynamic-programming alignment.

The measures operate on plain symbol strings, so they apply unchanged to
ASJP words and to their coarser sound-class renderings.  They are computed
in batches: :func:`measure_table` codes each distinct string once as a
padded row of integers, and handles a chunk of distinct pairs at a time
with numpy working across the pair axis.  One score-only DP fill gives
five measures (Needleman-Wunsch global, Smith-Waterman local, semi-global
with free end gaps, edit distance and LCS); the n-gram measures pair up
equal n-grams by occurrence rank.  :func:`align` is the one aligner that
also returns the aligned symbol pairs.  It is global only and aligns ASJP
words under a 35 x 35 substitution table plus a linear gap score: the form
of the matrix that its caller, the PMI module, learns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import phoneme, wordlists

GAP = "-"

# Ten measures, in the order they appear in feature vectors.
MEASURES = (
    "edit", "bigram", "lcs", "lcp", "trigram",
    "global", "local", "semiglobal", "xdice", "xxdice",
)
ALPHABETS = ("ASJP", "DOLGO", "SCA")

FEATURE_NAMES = tuple(
    f"{m}_{a.lower()}" for m in MEASURES for a in ALPHABETS
) + ("len_a", "len_b", "abs_len_diff")


def match_mismatch(match: float = 1.0, mismatch: float = -1.0) -> Callable[[str, str], float]:
    def sub(x: str, y: str) -> float:
        return match if x == y else mismatch
    return sub


# match 1, mismatch -1 over the inventory, rows and columns in INVENTORY order
UNIT_SCORES = 2.0 * np.eye(len(phoneme.INVENTORY)) - 1.0
UNIT_SCORES.flags.writeable = False


def align(a: str, b: str, scores: np.ndarray = UNIT_SCORES,
          gap: float = -1.0) -> tuple[float, list[tuple[str, str]]]:
    """Globally align two ASJP words, returning (score, aligned pairs).

    ``scores`` is a 35 x 35 substitution table in ``phoneme.INVENTORY``
    order and ``gap`` the score of each gap symbol.  Gaps appear as the
    marker ``"-"`` on the gapped side.  Traceback ties resolve substitution
    > deletion (gap in b) > insertion (gap in a), so alignments are
    deterministic.
    """
    idx = phoneme.SYMBOL_INDEX
    # the pair's substitution scores as Python floats, looked up once
    sub = scores.take([idx[x] for x in a], axis=0).take([idx[y] for y in b], axis=1).tolist()
    m, n = len(a), len(b)

    # score matrix, (m+1) x (n+1)
    S = [[0.0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        S[i][0] = i * gap
    for j in range(1, n + 1):
        S[0][j] = j * gap
    for i in range(1, m + 1):
        row = S[i]
        prev = S[i - 1]
        subs = sub[i - 1]
        for j in range(1, n + 1):
            best = prev[j - 1] + subs[j - 1]
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
        if here == S[i - 1][j - 1] + sub[i - 1][j - 1]:
            pairs.append((a[i - 1], b[j - 1]))
            i, j = i - 1, j - 1
        elif here == S[i - 1][j] + gap:
            pairs.append((a[i - 1], GAP))
            i -= 1
        else:
            pairs.append((GAP, b[j - 1]))
            j -= 1
    pairs.extend((a[k], GAP) for k in reversed(range(i)))
    pairs.extend((GAP, b[k]) for k in reversed(range(j)))
    pairs.reverse()
    return float(S[m][n]), pairs


# The score-only DP measures as (match, mismatch, gap, mode), where the mode
# is "global", "local" or "semiglobal".  Edit distance is the negated global
# score of its parametrisation.
DP_MEASURES = {
    "edit": (0, -1, -1, "global"),
    "lcs": (1, 0, 0, "global"),
    "global": (1, -1, -1, "global"),
    "local": (1, -1, -1, "local"),
    "semiglobal": (1, -1, -1, "semiglobal"),
}
# symbol offsets of each n-gram kind; an extended bigram is a trigram with
# its middle symbol dropped
_GRAMS = {"bigram": (0, 1), "trigram": (0, 1, 2), "xdice": (0, 2), "xxdice": (0, 2)}

# string pairs per chunk (256 word pairs in three alphabets); it keeps each
# chunk's arrays under 1 MB for words of up to 12 symbols
CHUNK = 768
_NONE = -(1 << 24)  # below every reachable score


class _Words:
    """Distinct strings as rows of symbol codes padded with -1, with their lengths."""

    def __init__(self, words: Sequence[str]):
        self.lengths = np.array([len(w) for w in words], dtype=np.int64)
        self.codes = np.full((len(words), int(self.lengths.max(initial=0))), -1, dtype=np.int64)
        for k, w in enumerate(words):
            self.codes[k, :len(w)] = [ord(ch) for ch in w]
        self._grams: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def grams(self, offsets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Each n-gram as one integer, and its occurrence rank among the equal
        n-grams to its left; the rank is -1 past the end of the word."""
        if offsets not in self._grams:
            span = offsets[-1] + 1
            width = max(self.codes.shape[1] - span + 1, 0)
            code = np.zeros((len(self.codes), width), dtype=np.int64)
            for o in offsets:
                code = (code << 21) + self.codes[:, o:o + width]  # a code point takes 21 bits
            earlier = np.tri(width, k=-1, dtype=bool)
            rank = ((code[:, :, None] == code[:, None, :]) & earlier).sum(axis=2)
            inside = np.arange(width) < (self.lengths - span + 1)[:, None]
            self._grams[offsets] = code, np.where(inside, rank, -1)
        return self._grams[offsets]


def _dp_scores(eq: np.ndarray, la: np.ndarray, lb: np.ndarray, params) -> list[np.ndarray]:
    """Best score of each word pair under each (match, mismatch, gap, mode).

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


def _gram_scores(words: _Words, name: str, ka: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """Shared n-grams (bigram, trigram) or the (X)XDICE coefficient of each pair.

    Equal n-grams pair up by occurrence rank, so the i-th occurrence in one
    word matches the i-th in the other and the pairs count the multiset
    intersection.
    """
    code, rank = words.grams(_GRAMS[name])
    ra = rank[ka]
    matched = ((code[ka][:, :, None] == code[kb][:, None, :])
               & (ra[:, :, None] == rank[kb][:, None, :]) & (ra >= 0)[:, :, None])
    if name in ("bigram", "trigram"):
        return matched.sum(axis=(1, 2))
    if name == "xdice":
        shared = matched.sum(axis=(1, 2)).astype(np.float64)
    else:  # weigh each match by 1/(1+d^2) of its distance d, summed left to right
        d = np.arange(matched.shape[1])[:, None] - np.arange(matched.shape[2])
        near = np.where(matched, 1.0 / (1.0 + d * d), 0.0).sum(axis=2)  # one match at most
        shared = np.zeros(len(ka))
        for p in range(near.shape[1]):
            shared += near[:, p]
    total = np.maximum(words.lengths[ka] - 2, 0) + np.maximum(words.lengths[kb] - 2, 0)
    return np.divide(2.0 * shared, total, out=np.zeros(len(ka)), where=total > 0)


def _measure_chunk(words: _Words, ka: np.ndarray, kb: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """The named measures of the string pairs (ka[r], kb[r]) of one chunk."""
    la, lb = words.lengths[ka], words.lengths[kb]
    eq = words.codes[ka, :la.max()][:, :, None] == words.codes[kb, :lb.max()][:, None, :]
    dp = [name for name in names if name in DP_MEASURES]
    values = dict(zip(dp, _dp_scores(eq, la, lb, [DP_MEASURES[name] for name in dp]))) if dp else {}
    if "edit" in values:
        values["edit"] = -values["edit"]
    if "lcp" in names:
        same = np.diagonal(eq, axis1=1, axis2=2) & (np.arange(min(eq.shape[1:])) < np.minimum(la, lb)[:, None])
        values["lcp"] = np.logical_and.accumulate(same, axis=1).sum(axis=1)
    for name in names:
        if name in _GRAMS:
            values[name] = _gram_scores(words, name, ka, kb)
    return np.column_stack([values[name] for name in names]).astype(np.float64)


def measure_table(pairs: Sequence[tuple[str, str]], names: Sequence[str] = MEASURES) -> np.ndarray:
    """The named measures (from ``MEASURES``) of each string pair, one column each.

    Each distinct pair is measured once.
    """
    unique, inverse = wordlists.distinct(pairs)
    strings, k = wordlists.distinct([s for pair in unique for s in pair])
    ka, kb = k[0::2], k[1::2]
    words = _Words(strings)
    out = np.empty((len(unique), len(names)))
    for s in range(0, len(unique), CHUNK):
        out[s:s + CHUNK] = _measure_chunk(words, ka[s:s + CHUNK], kb[s:s + CHUNK], names)
    return out[inverse]


def feature_matrix(pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """The [n, 33] features of ASJP word pairs, columns in ``FEATURE_NAMES`` order.

    Each distinct form is rendered once per alphabet.  The length features
    come from the ASJP transcriptions.
    """
    if not all(a and b for a, b in pairs):
        raise ValueError("similarity features require nonempty words")
    forms = {form for pair in pairs for form in pair}
    rendered = [{f: phoneme.to_sound_class(f, phoneme.SCHEMES[alph]) for f in forms} for alph in ALPHABETS]
    table = measure_table([(r[a], r[b]) for a, b in pairs for r in rendered])
    n = len(pairs)
    # measure-major: the measure index varies slowest
    measures = table.reshape(n, len(ALPHABETS), len(MEASURES)).transpose(0, 2, 1)
    measures = measures.reshape(n, len(MEASURES) * len(ALPHABETS))  # not (n, -1): n may be 0
    la = np.array([len(a) for a, _ in pairs], dtype=np.float64)
    lb = np.array([len(b) for _, b in pairs], dtype=np.float64)
    return np.column_stack([measures, la, lb, np.abs(la - lb)])


@dataclass(frozen=True)
class SimilarityFeatures:
    """The 33-dimensional feature vector of one word pair.

    ``measures`` holds the ten measures by three alphabets, measure-major:
    (edit, ASJP), (edit, DOLGO), (edit, SCA), (bigram, ASJP), ...  Length
    features come from the ASJP transcriptions.
    """

    measures: tuple[float, ...]
    len_a: int
    len_b: int
    abs_len_diff: int

    def vector(self) -> list[float]:
        return list(self.measures) + [float(self.len_a), float(self.len_b), float(self.abs_len_diff)]


def extract_features(a_asjp: str, b_asjp: str) -> SimilarityFeatures:
    """All ten measures in all three alphabets plus length features, for one pair."""
    row = feature_matrix([(a_asjp, b_asjp)])[0]
    return SimilarityFeatures(
        measures=tuple(row[:len(ALPHABETS) * len(MEASURES)].tolist()),
        len_a=len(a_asjp),
        len_b=len(b_asjp),
        abs_len_diff=abs(len(a_asjp) - len(b_asjp)),
    )


def _one(name: str, a: str, b: str) -> float:
    return float(measure_table([(a, b)], (name,))[0, 0])


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    return int(_one("edit", a, b))


def common_bigrams(a: str, b: str) -> int:
    """Size of the multiset intersection of contiguous bigrams."""
    return int(_one("bigram", a, b))


def common_trigrams(a: str, b: str) -> int:
    """Size of the multiset intersection of contiguous trigrams."""
    return int(_one("trigram", a, b))


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence."""
    return int(_one("lcs", a, b))


def xdice(a: str, b: str) -> float:
    """Dice coefficient over extended (skip-one) bigrams."""
    return _one("xdice", a, b)


def xxdice(a: str, b: str) -> float:
    """Positional XDICE: shared extended bigrams weighted by 1/(1+d^2).

    Repeated extended bigrams pair up in order of appearance, so the i-th
    occurrence in one word matches the i-th occurrence in the other.
    """
    return _one("xxdice", a, b)
