"""String similarity measures and dynamic-programming alignment.

All measures operate on plain symbol strings, so they apply unchanged to
ASJP words and to their coarser sound-class renderings.  The alignment
engine (Needleman-Wunsch global, Smith-Waterman local, and semi-global
with free end gaps) is shared with the PMI module, which plugs in its own
scoring matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from . import phoneme

GAP = "-"

GLOBAL = "global"
LOCAL = "local"
SEMIGLOBAL = "semiglobal"
MODES = (GLOBAL, LOCAL, SEMIGLOBAL)

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


@dataclass(frozen=True)
class ScoringScheme:
    """Substitution function plus linear gap penalty for the aligner."""

    substitution: Callable[[str, str], float]
    gap_open: float = -1.0

    def __post_init__(self):
        if self.gap_open > 0:
            raise ValueError("gap penalty must be <= 0")


DEFAULT_SCHEME = ScoringScheme(match_mismatch(), gap_open=-1.0)


def edit_distance(a: str, b: str) -> int:
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


def lcs_length(a: str, b: str) -> int:
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


def align(
    a: str,
    b: str,
    scheme: ScoringScheme = DEFAULT_SCHEME,
    mode: str = GLOBAL,
) -> tuple[float, list[tuple[str, str]]]:
    """Align two symbol strings, returning (score, aligned pairs).

    Gaps appear as the marker ``"-"`` on the gapped side.  Traceback ties
    resolve substitution > deletion (gap in b) > insertion (gap in a), so
    alignments are deterministic.  LOCAL scores are >= 0 and may return an
    empty alignment; SEMIGLOBAL treats leading and trailing gaps on either
    string as free and includes them in the returned alignment.
    """
    if mode not in MODES:
        raise ValueError(f"unknown alignment mode {mode!r}")
    sub = scheme.substitution
    gap = scheme.gap_open
    m, n = len(a), len(b)

    # score matrix, (m+1) x (n+1)
    S = [[0.0] * (n + 1) for _ in range(m + 1)]
    if mode == GLOBAL:
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
            if mode == LOCAL and best < 0.0:
                best = 0.0
            row[j] = best

    # pick the traceback start
    if mode == GLOBAL:
        end = (m, n)
        score = S[m][n]
    elif mode == LOCAL:
        score, end = 0.0, (0, 0)
        for i in range(m + 1):
            for j in range(n + 1):
                if S[i][j] > score:
                    score, end = S[i][j], (i, j)
        if score == 0.0:
            return 0.0, []
    else:  # SEMIGLOBAL: best cell on the last column or last row
        score, end = S[0][n], (0, n)
        for i in range(1, m + 1):
            if S[i][n] > score:
                score, end = S[i][n], (i, n)
        for j in range(n + 1):
            if S[m][j] > score:
                score, end = S[m][j], (m, j)

    # traceback
    pairs: list[tuple[str, str]] = []
    i, j = end
    while i > 0 and j > 0:
        if mode == LOCAL and S[i][j] == 0.0:
            break
        here = S[i][j]
        if here == S[i - 1][j - 1] + sub(a[i - 1], b[j - 1]):
            pairs.append((a[i - 1], b[j - 1]))
            i, j = i - 1, j - 1
        elif here == S[i - 1][j] + gap:
            pairs.append((a[i - 1], GAP))
            i -= 1
        else:
            pairs.append((GAP, b[j - 1]))
            j -= 1
    if mode == GLOBAL:
        while i > 0:
            pairs.append((a[i - 1], GAP))
            i -= 1
        while j > 0:
            pairs.append((GAP, b[j - 1]))
            j -= 1
    pairs.reverse()
    if mode == SEMIGLOBAL:
        # free end gaps, included for completeness
        lead = [(a[k], GAP) for k in range(i)] if i > 0 else [(GAP, b[k]) for k in range(j)]
        ei, ej = end
        trail = [(a[k], GAP) for k in range(ei, m)] if ei < m else [(GAP, b[k]) for k in range(ej, n)]
        pairs = lead + pairs + trail
    return float(score), pairs


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


def _measure_row(a: str, b: str, scheme: ScoringScheme) -> tuple[float, ...]:
    return (
        float(edit_distance(a, b)),
        float(common_bigrams(a, b)),
        float(lcs_length(a, b)),
        float(lcp_length(a, b)),
        float(common_trigrams(a, b)),
        align(a, b, scheme, GLOBAL)[0],
        align(a, b, scheme, LOCAL)[0],
        align(a, b, scheme, SEMIGLOBAL)[0],
        xdice(a, b),
        xxdice(a, b),
    )


def extract_features(
    a_asjp: str,
    b_asjp: str,
    schemes: dict[str, phoneme.SoundClassScheme] | None = None,
    scheme: ScoringScheme = DEFAULT_SCHEME,
) -> SimilarityFeatures:
    """Compute all ten measures in all three alphabets plus length features."""
    if not a_asjp or not b_asjp:
        raise ValueError("extract_features requires nonempty words")
    if schemes is None:
        schemes = phoneme.builtin_schemes()
    rows = []
    for alph in ALPHABETS:
        sc = schemes[alph]
        rows.append(_measure_row(
            phoneme.to_sound_class(a_asjp, sc),
            phoneme.to_sound_class(b_asjp, sc),
            scheme,
        ))
    # interleave measure-major: measure index varies slowest
    measures = tuple(rows[k][m] for m in range(len(MEASURES)) for k in range(len(ALPHABETS)))
    return SimilarityFeatures(
        measures=measures,
        len_a=len(a_asjp),
        len_b=len(b_asjp),
        abs_len_diff=abs(len(a_asjp) - len(b_asjp)),
    )
