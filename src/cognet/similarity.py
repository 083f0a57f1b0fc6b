"""String similarity measures and dynamic-programming alignment.

The measures operate on plain symbol strings, so they apply unchanged to
ASJP words and to their coarser sound-class renderings.  They are computed
in batches: :class:`Words` codes the distinct strings of a form table
(``wordlists.form_table``) once, as padded columns of code points, and
:func:`measure_batch` measures a chunk of its (a, b) rows at a time;
:func:`feature_matrix` renders each form once per alphabet.  The arrays
are pair-minor: the pair axis is innermost, so each numpy op runs along
every pair of the chunk at once.  One score-only DP fill gives five
measures (Needleman-Wunsch global, Smith-Waterman local, semi-global with
free end gaps, edit distance and LCS); it keeps two DP rows and takes each
row's runs of gaps as a prefix max in log2(n + 1) doubling steps.  The
n-gram measures pair up equal n-grams by occurrence rank.

Two aligners also return the aligned symbols.  Both are global only and
align ASJP words under a 35 x 35 substitution table plus a linear gap
score: the form of the matrix that the PMI module learns.  :func:`align`
takes one pair in pure Python; PMI scoring calls it.  :func:`align_batch`
takes chunks of the rows of a :class:`Words`, pair-minor as above; PMI
estimation calls it.  It makes align's float adds in align's order, so
the two agree bit for bit, and align is its reference.
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


def align_batch(words: Words, index: np.ndarray, scores: np.ndarray,
                gap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`align` of the ASJP word pairs (a, b) of ``words`` in the rows of ``index``, all at once.

    Returns each pair's score and its substitutions, the aligned pairs
    without a gap, as three arrays in no set order: the row of ``index``,
    symbol i of word a and symbol j of word b.  Chunks take the pairs in
    order of their longer word.  Each DP row is filled with align's float
    adds, its runs of insertions by a scan along the row, and each cell
    keeps the traceback step that align would choose there.  So with finite
    scores and a gap other than -0.0, scores and alignments equal align's
    bit for bit.
    """
    codes = words.symbols()
    la, lb = words.lengths[index].T
    order = np.argsort(np.maximum(la, lb), kind="stable")
    score = np.empty(len(index))
    found = [np.empty(0, dtype=np.intp)] * 3
    for s in range(0, len(index), CHUNK):
        chunk = order[s:s + CHUNK]
        m, n = int(la[chunk].max()), int(lb[chunk].max())
        a, b = index[chunk].T
        score[chunk], steps = _align_chunk(codes[:m, a], codes[:n, b], la[chunk], lb[chunk], scores, gap)
        r, i, j = _walk_back(steps, la[chunk], lb[chunk])
        found = [np.concatenate(pair) for pair in zip(found, (chunk[r], i, j))]
    return score, *found


def _align_chunk(ca: np.ndarray, cb: np.ndarray, la: np.ndarray, lb: np.ndarray, scores: np.ndarray,
                 gap: float) -> tuple[np.ndarray, np.ndarray]:
    """The score of each pair r of words ca[:, r] and cb[:, r], of lengths la[r] and lb[r], and the
    traceback step of each cell: ``steps[i - 1, j - 1, r]`` is 0 for a substitution, 1 for a deletion
    (gap in b) and 2 for an insertion (gap in a).

    Two DP rows of shape [n + 1, pairs] are kept.  Cells past a pair's
    lengths are filled too, but no cell of the pair reads them.
    """
    (m, pairs), n = ca.shape, cb.shape[0]
    r = np.arange(pairs)
    flat = scores.ravel()
    prev = np.repeat((np.arange(n + 1) * gap)[:, None], pairs, axis=1)
    prev[0] = 0.0  # as align's S[0][0]: 0 * gap would be -0.0
    cur = np.empty_like(prev)
    left = np.empty(pairs)
    ends = np.empty((m + 1, pairs))  # the cell in each pair's last column, per row
    ends[0] = prev[lb, r]
    steps = np.empty((m, n, pairs), dtype=np.int8)
    for i in range(1, m + 1):
        diag = prev[:-1] + flat[ca[i - 1] * len(scores) + cb]
        up = prev[1:] + gap
        # np.maximum keeps align's values: no cell is NaN or -0.0 (the corner
        # is +0.0 and the gap is not -0.0), so equal scores have equal bits
        row = cur
        np.maximum(diag, up, out=row[1:])
        row[0] = i * gap
        for j in range(1, n + 1):  # runs of insertions, left to right
            np.add(row[j - 1], gap, out=left)
            np.maximum(row[j], left, out=row[j])
        # align's traceback: the first step whose score reaches the cell
        step = steps[i - 1]
        step[:] = 2
        np.copyto(step, 1, where=row[1:] == up)
        np.copyto(step, 0, where=row[1:] == diag)
        ends[i] = row[lb, r]
        prev, cur = cur, prev
    return ends[la, r], steps


def _walk_back(steps: np.ndarray, la: np.ndarray, lb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The substitutions (pair r, symbol i, symbol j) on each pair's path from its last cell, all pairs
    a step at a time; a pair leaves once it reaches row or column 0, whose steps are all gaps."""
    r, i, j = np.arange(len(la)), la, lb
    found = [(r[:0], i[:0], j[:0])]
    while True:
        inside = (i > 0) & (j > 0)
        r, i, j = r[inside], i[inside], j[inside]
        if not r.size:
            break
        step = steps[i - 1, j - 1, r]
        sub = step == 0
        found.append((r[sub], i[sub] - 1, j[sub] - 1))
        i, j = i - (step != 2), j - (step != 1)
    return tuple(np.concatenate(x) for x in zip(*found))


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
# chunk's arrays under 1 MB for words of up to 12 symbols, and align_batch's
# traceback steps, a byte per DP cell, under 1 MB for words of up to 36
CHUNK = 768
_NONE = -(1 << 24)  # below every reachable score


# each code point's INVENTORY index or -1, up to the last entry: a -1 that every larger code point reads
_INVENTORY_INDEX = np.full(max(map(ord, phoneme.INVENTORY)) + 2, -1, dtype=np.intp)
_INVENTORY_INDEX[[ord(x) for x in phoneme.INVENTORY]] = np.arange(len(phoneme.INVENTORY))


class Words:
    """Distinct strings as columns of symbol codes padded with -1, with their lengths.

    ``codes[i, k]`` is the code point of symbol i of string k; the measures
    read these, :func:`align_batch` the :meth:`symbols` of ASJP words.
    """

    def __init__(self, words: Sequence[str]):
        self.lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
        self.codes = np.full((int(self.lengths.max(initial=0)), len(words)), -1, dtype=np.int64)
        self.codes.T[np.arange(len(self.codes)) < self.lengths[:, None]] = np.frombuffer(
            "".join(words).encode("utf-32-le", "surrogatepass"), dtype="<u4")
        self._grams: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def grams(self, offsets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Each n-gram as one integer, and its occurrence rank among the equal
        n-grams to its left, one column per string; the rank is -1 past the
        end of the string."""
        if offsets not in self._grams:
            span = offsets[-1] + 1
            width = max(self.codes.shape[0] - span + 1, 0)
            code = np.zeros((width, self.codes.shape[1]), dtype=np.int64)
            for o in offsets:
                code = (code << 21) + self.codes[o:o + width]  # a code point takes 21 bits
            earlier = np.tri(width, k=-1, dtype=bool)[:, :, None]
            rank = ((code[:, None, :] == code[None, :, :]) & earlier).sum(axis=1)
            inside = np.arange(width)[:, None] < self.lengths - span + 1
            self._grams[offsets] = code, np.where(inside, rank, -1)
        return self._grams[offsets]

    def symbols(self) -> np.ndarray:
        """The codes of ASJP words as ``phoneme.INVENTORY`` indices, 0 past each end."""
        symbols = np.where(self.codes < 0, 0, _INVENTORY_INDEX[np.minimum(self.codes, len(_INVENTORY_INDEX) - 1)])
        if (symbols < 0).any():
            raise ValueError("a word holds a symbol outside the ASJP inventory")
        return symbols


def _dp_scores(eq: np.ndarray, la: np.ndarray, lb: np.ndarray, params) -> list[np.ndarray]:
    """Best score of each word pair under each (match, mismatch, gap, mode).

    ``eq[i, j, r]`` says whether symbol i of the r-th first word equals
    symbol j of the r-th second word; their lengths are ``la[r]``, in
    ascending order, and ``lb[r]``.  The pair axis is innermost, so every
    numpy op runs along all the pairs at once.  Two DP rows are kept, in
    shifted scores U[i, j] = H[i, j] - (i + j) * gap: there a step down or
    along the row costs nothing and a diagonal step its substitution score
    minus 2 * gap, so a row's runs of gaps are its prefix max, taken in
    ceil(log2(n + 1)) doubling steps of ``np.maximum``.  Only the local
    parametrisations floor their cells, at H = 0.  A pair leaves the DP
    after row ``la[r]``, whose last cell is its global score and whose best
    cell is one half of its semi-global score.
    """
    m, n, rows = eq.shape
    modes = [p[3] for p in params]
    gaps = [p[2] for p in params]
    match, mismatch, gap = (np.array([p[k] for p in params], dtype=np.int32).reshape(-1, 1, 1) for k in range(3))
    gain, lo = match - mismatch, mismatch - 2 * gap  # a diagonal step in U: lo, plus gain on equal symbols
    # U per step along row and column 0: 0 in global mode, where H steps by gap; -gap in the others
    edge = np.where(np.array(modes)[:, None, None] == "global", 0, -gap).astype(np.int32)
    j = np.arange(n + 1, dtype=np.int32)[:, None]
    prev = np.repeat(edge * j, rows, axis=2)
    cur = np.empty_like(prev)
    starts = np.searchsorted(la, np.arange(m + 2))  # the pairs from starts[i] on have i symbols or more
    r = np.arange(rows)
    local = [p for p, mode in enumerate(modes) if mode == "local"]
    semi = [p for p, mode in enumerate(modes) if mode == "semiglobal"]
    best = prev[local]  # per local parametrisation and cell j, the best U + i * gap of the rows so far
    column = [prev[p, lb, r] for p in semi]  # per semi-global one, that of each pair's last column
    out = np.empty((len(params), rows), dtype=np.int64)  # H in each pair's last cell
    reach = np.empty((len(semi), rows), dtype=np.int64)  # per semi-global one, the best H of each last row

    def keep(row, i, s, e):  # pairs s to e - 1 end at DP row i, which holds them from index 0 of its pair axis
        b = lb[s:e]
        out[:, s:e] = row[:, b, r[:e - s]] + (i + b) * gap[:, 0]
        for k, p in enumerate(semi):
            reach[k, s:e] = np.where(j <= b, row[p, :, :e - s] + (i + j) * gaps[p], _NONE).max(axis=0)

    keep(prev, 0, 0, starts[1])
    for i in range(1, m + 1):
        s, e = starts[i], starts[i + 1]
        up, row = prev[:, :, s:], cur[:, :, s:]
        diag = row[:, 1:]
        np.multiply(eq[i - 1, :, s:].view(np.int8), gain, out=diag)
        diag += up[:, :-1]
        diag += lo
        np.maximum(diag, up[:, 1:], out=diag)
        row[:, 0] = edge[:, 0] * i
        for p in local:
            np.maximum(row[p], (i + j) * -gaps[p], out=row[p])
        shift = 1
        while shift <= n:
            np.maximum(row[:, shift:], row[:, :-shift], out=row[:, shift:])
            shift *= 2
        keep(row, i, s, e)
        for k, p in enumerate(local):
            np.maximum(best[k, :, s:], row[p] + i * gaps[p], out=best[k, :, s:])
        for k, p in enumerate(semi):
            np.maximum(column[k][s:], cur[p, lb[s:], r[s:]] + i * gaps[p], out=column[k][s:])
        prev, cur = cur, prev
    for k, p in enumerate(local):
        out[p] = np.where(j <= lb, best[k] + j * gaps[p], _NONE).max(axis=0)
    for k, p in enumerate(semi):
        out[p] = np.maximum(reach[k], column[k] + lb * gaps[p])
    return list(out)


def _gram_scores(words: Words, offsets: tuple[int, ...], names: Sequence[str],
                 ka: np.ndarray, kb: np.ndarray) -> dict[str, np.ndarray]:
    """The named measures of each pair that count one kind of n-gram: shared
    n-grams (bigram, trigram) or the (X)XDICE coefficient.

    Equal n-grams pair up by occurrence rank, so the i-th occurrence in one
    word matches the i-th in the other and the pairs count the multiset
    intersection.
    """
    span = offsets[-1] + 1
    la, lb = words.lengths[ka], words.lengths[kb]
    code, rank = words.grams(offsets)
    wa, wb = max(la.max() - span + 1, 0), max(lb.max() - span + 1, 0)  # n-grams of the longest words
    ra = rank[:wa, ka]
    matched = (code[:wa, ka][:, None] == code[:wb, kb]) & (ra[:, None] == rank[:wb, kb]) & (ra >= 0)[:, None]
    out = {}
    for name in names:
        if name in ("bigram", "trigram"):
            out[name] = matched.sum(axis=(0, 1))
            continue
        if name == "xdice":
            shared = matched.sum(axis=(0, 1)).astype(np.float64)
        else:  # weigh each match by 1/(1+d^2) of its distance d, summed left to right
            d = np.arange(matched.shape[0])[:, None] - np.arange(matched.shape[1])
            near = np.where(matched, (1.0 / (1.0 + d * d))[:, :, None], 0.0).sum(axis=1)  # one match at most
            shared = np.zeros(len(ka))
            for p in range(len(near)):
                shared += near[p]
        total = np.maximum(la - 2, 0) + np.maximum(lb - 2, 0)
        out[name] = np.divide(2.0 * shared, total, out=np.zeros(len(ka)), where=total > 0)
    return out


def _measure_chunk(words: Words, ka: np.ndarray, kb: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """The named measures of the string pairs (ka[r], kb[r]) of one chunk, ka's strings by ascending length."""
    la, lb = words.lengths[ka], words.lengths[kb]
    eq = words.codes[:la.max(), ka][:, None, :] == words.codes[:lb.max(), kb][None, :, :]
    dp = [name for name in names if name in DP_MEASURES]
    values = dict(zip(dp, _dp_scores(eq, la, lb, [DP_MEASURES[name] for name in dp]))) if dp else {}
    if "edit" in values:
        values["edit"] = -values["edit"]
    if "lcp" in names:
        k = np.arange(min(eq.shape[:2]))
        same = eq[k, k] & (k[:, None] < np.minimum(la, lb))
        values["lcp"] = np.logical_and.accumulate(same, axis=0).sum(axis=0)
    for offsets in dict.fromkeys(_GRAMS[name] for name in names if name in _GRAMS):  # XDICE and XXDICE share one
        values.update(_gram_scores(words, offsets, [n for n in names if _GRAMS.get(n) == offsets], ka, kb))
    return np.column_stack([values[name] for name in names]).astype(np.float64)


def measure_batch(words: Words, index: np.ndarray, names: Sequence[str] = MEASURES) -> np.ndarray:
    """The named measures (from ``MEASURES``) of the pairs (a, b) of ``words`` in the rows of ``index``.

    One column per name.  Chunks take the pairs in order of their first
    string's length, so a chunk's DP rows stop near the length of its words.
    """
    ka, kb = index.T
    order = np.argsort(words.lengths[ka], kind="stable")
    out = np.empty((len(index), len(names)))
    for s in range(0, len(index), CHUNK):
        chunk = order[s:s + CHUNK]
        out[chunk] = _measure_chunk(words, ka[chunk], kb[chunk], names)
    return out


def measure_table(pairs: Sequence[tuple[str, str]], names: Sequence[str] = MEASURES) -> np.ndarray:
    """:func:`measure_batch` of string pairs, each distinct pair measured once."""
    strings, index, row = wordlists.form_table(pairs)
    return measure_batch(Words(strings), index, names)[row]


def feature_matrix(forms: Sequence[str], index: np.ndarray) -> np.ndarray:
    """The [n, 33] features of the ASJP word pairs ``(forms[a], forms[b])``, one per row ``(a, b)`` of ``index``.

    Columns follow ``FEATURE_NAMES``.  Each form is rendered once per
    alphabet, and all renderings are coded as one :class:`Words`; the
    length features come from the ASJP transcriptions.
    """
    if not all(forms):
        raise ValueError("similarity features require nonempty words")
    words = Words([phoneme.to_sound_class(f, phoneme.SCHEMES[alph]) for alph in ALPHABETS for f in forms])
    # alphabet k's rendering of form i is string k * len(forms) + i; a pair's rows, one per alphabet, in order
    offsets = np.arange(len(ALPHABETS)) * len(forms)
    table = measure_batch(words, (index[:, None, :] + offsets[:, None]).reshape(-1, 2))
    n = len(index)
    # measure-major: the measure index varies slowest
    measures = table.reshape(n, len(ALPHABETS), len(MEASURES)).transpose(0, 2, 1)
    measures = measures.reshape(n, len(MEASURES) * len(ALPHABETS))  # not (n, -1): n may be 0
    la, lb = np.array([len(f) for f in forms], dtype=np.float64)[index].T
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
    row = feature_matrix([a_asjp, b_asjp], np.array([[0, 1]]))[0]
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
