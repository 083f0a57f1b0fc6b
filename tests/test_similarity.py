import functools
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cognet import phoneme, similarity as sim, synthetic, wordlists

import oracles

MM = sim.match_mismatch()
DP_NAMES = tuple(sim.DP_MEASURES)


def test_edit_distance_examples():
    assert sim.edit_distance("fVt", "fVt") == 0
    assert sim.edit_distance("", "fVt") == 3
    assert sim.edit_distance("kVt", "hVt") == 1


def test_ngram_examples():
    assert sim.common_bigrams("abcd", "bcd") == 2
    assert sim.common_bigrams("a", "a") == 0
    assert sim.common_trigrams("abc", "abc") == 1
    assert sim.common_trigrams("ab", "abc") == 0


def test_ngrams_use_multiset_intersection():
    # "aa" appears twice in "aaa" but three times in "aaaa"
    assert sim.common_bigrams("aaa", "aaaa") == 2


def test_lcs_lcp_examples():
    assert sim.lcs_length("abc", "ac") == 2
    assert sim.lcs_length("abc", "") == 0
    assert sim.measure_table([("abcd", "abx"), ("xa", "ya")], ("lcp",)).tolist() == [[2.0], [0.0]]


def test_xdice_examples():
    assert sim.xdice("abc", "abc") == 1.0
    assert sim.xdice("ab", "cd") == 0.0
    assert sim.xxdice("abc", "xabc") == pytest.approx(2 * 0.5 / 3)


def test_xdice_self_similarity():
    rng = random.Random(2)
    for _ in range(100):
        s = "".join(rng.choice("ptkV") for _ in range(rng.randint(3, 8)))
        assert sim.xdice(s, s) == 1.0
        assert sim.xxdice(s, s) == sim.xdice(s, s)


def test_align_examples():
    score, pairs = sim.align("pV", "pV")
    assert score == 2 and pairs == [("p", "p"), ("V", "V")]
    # local and semi-global scores come from the batched engine
    assert sim.measure_table([("ab", "b"), ("xxabxx", "ab")], ("semiglobal", "local")).tolist() == [
        [1.0, 1.0], [2.0, 2.0]]


def test_align_empty_strings():
    assert sim.align("", "") == (0.0, [])
    score, pairs = sim.align("", "pV")
    assert score == -2 and pairs == [(sim.GAP, "p"), (sim.GAP, "V")]
    assert sim.measure_table([("", "pV")], ("local", "semiglobal")).tolist() == [[0.0, 0.0]]


def test_alignment_reaches_reported_score():
    rng = random.Random(4)
    for _ in range(300):
        a = "".join(rng.choice("ptkV") for _ in range(rng.randint(0, 7)))
        b = "".join(rng.choice("ptkV") for _ in range(rng.randint(0, 7)))
        score, pairs = sim.align(a, b)
        total = sum(
            -1.0 if sim.GAP in (x, y) else MM(x, y)
            for x, y in pairs
        )
        assert total == pytest.approx(score)
        # global alignments consume both strings
        assert "".join(x for x, _ in pairs if x != sim.GAP) == a
        assert "".join(y for _, y in pairs if y != sim.GAP) == b


N = len(phoneme.INVENTORY)


def _score_table(kind: str, seed: int) -> np.ndarray:
    """A seeded 35 x 35 table: symmetric normal floats, or integers in -2..2 (not symmetric)."""
    rng = np.random.default_rng(seed)
    if kind == "floats":
        half = rng.normal(0.0, 2.0, size=(N, N))
        return half + half.T
    return rng.integers(-2, 3, size=(N, N)).astype(np.float64)


@settings(deadline=None)
@given(a=st.text(alphabet=phoneme.INVENTORY, max_size=10), b=st.text(alphabet=phoneme.INVENTORY, max_size=10),
       seed=st.integers(0, 2**32 - 1),
       # integer scores and gaps force ties, so the traceback's tie order decides the pairs
       table_gap=st.one_of(st.tuples(st.just("floats"), st.floats(-8.0, -0.01)),
                           st.tuples(st.just("integers"), st.integers(-3, 0).map(float))))
@example(a="pVtV", b="tVpVV", seed=0, table_gap=("integers", 0.0))
def test_align_equals_callback_oracle(a, b, seed, table_gap):
    kind, gap = table_gap
    table = _score_table(kind, seed)
    sub = lambda x, y: table[phoneme.SYMBOL_INDEX[x], phoneme.SYMBOL_INDEX[y]]  # noqa: E731
    assert sim.align(a, b, table, gap) == oracles.global_align(a, b, sub, gap)


@settings(deadline=None)
@given(words=st.lists(st.text(alphabet=phoneme.INVENTORY, min_size=1, max_size=24), min_size=1, max_size=6),
       picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=24),
       seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 12),
       # unit costs (estimation's first table) and integer scores force ties
       table_gap=st.one_of(st.just(("unit", -1.0)), st.tuples(st.just("floats"), st.floats(-8.0, -0.01)),
                           st.tuples(st.just("integers"), st.integers(-3, 0).map(float))))
@example(words=["pVtV", "tVpVV", "p" * 24], picks=[(0, 1), (1, 0), (2, 0), (0, 2), (1, 1)], seed=0, chunk=2,
         table_gap=("unit", -1.0))
def test_align_batch_equals_align(words, picks, seed, chunk, table_gap):
    # pairs repeat and come in both orders; a small chunk splits them across chunks
    kind, gap = table_gap
    table = np.eye(N) - 1.0 if kind == "unit" else _score_table(kind, seed)
    index = np.array([(a % len(words), b % len(words)) for a, b in picks])
    with mock.patch.object(sim, "CHUNK", chunk):
        score, rows, i, j = sim.align_batch(sim.Words(words), index, table, gap)
    want = [sim.align(words[a], words[b], table, gap) for a, b in index.tolist()]
    assert np.array_equal(score.view(np.int64), np.array([s for s, _ in want]).view(np.int64))
    for r, (_, pairs) in enumerate(want):
        # align's substitutions, each at the number of symbols of a and of b aligned before it
        subs = [(sum(x != sim.GAP for x, _ in pairs[:k]), sum(y != sim.GAP for _, y in pairs[:k]))
                for k, xy in enumerate(pairs) if sim.GAP not in xy]
        assert sorted(zip(i[rows == r].tolist(), j[rows == r].tolist())) == subs


def test_symbols_are_inventory_indices_and_refuse_any_other_symbol():
    words = sim.Words(["pVt", "", "7"])
    idx = phoneme.SYMBOL_INDEX
    assert words.symbols().T.tolist() == [[idx["p"], idx["V"], idx["t"]], [0, 0, 0], [idx["7"], 0, 0]]
    assert words.codes[1:, 2].tolist() == [-1, -1]  # the measures still read the padding as -1
    for word in ("pat", "p\u00e9", "p\U0001f600"):  # an unparsed vowel, past the last ASJP code point, astral
        with pytest.raises(ValueError, match="outside the ASJP inventory"):
            sim.Words(["pVt", word]).symbols()


def _random_pairs(rng, count, max_len, alphabet="ptkV"):
    for _ in range(count):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        yield a, b


def test_dp_matches_enumeration_oracles_small():
    # exhaustive over short combined lengths; the acceptance suite scales this up
    alphabet = "pt"
    strings = [""]
    for n in (1, 2, 3):
        strings += ["".join(t) for t in itertools.product(alphabet, repeat=n)]
    pairs = [(a, b) for a in strings for b in strings]
    for (a, b), (local, semi) in zip(pairs, sim.measure_table(pairs, ("local", "semiglobal"))):
        assert sim.edit_distance(a, b) == oracles.edit_distance_enum(a, b)
        if a:
            assert sim.lcs_length(a, b) == oracles.lcs_enum(a, b)
        assert sim.align(a, b)[0] == pytest.approx(oracles.global_enum(a, b, MM, -1.0))
        assert local == pytest.approx(oracles.local_best(a, b, MM, -1.0))
        assert semi == pytest.approx(oracles.semiglobal_best(a, b, MM, -1.0))


def test_dp_matches_memo_oracles_random():
    pairs = list(_random_pairs(random.Random(9), 150, 8))
    for (a, b), (local, semi) in zip(pairs, sim.measure_table(pairs, ("local", "semiglobal"))):
        assert sim.edit_distance(a, b) == oracles.edit_distance_memo(a, b)
        assert sim.align(a, b)[0] == pytest.approx(oracles.global_memo(a, b, MM, -1.0))
        assert local == pytest.approx(oracles.local_best(a, b, MM, -1.0))
        assert semi == pytest.approx(oracles.semiglobal_best(a, b, MM, -1.0))


def test_measures_are_symmetric():
    pairs = list(_random_pairs(random.Random(13), 200, 7))
    for a, b in pairs:
        assert sim.edit_distance(a, b) == sim.edit_distance(b, a)
        assert sim.common_bigrams(a, b) == sim.common_bigrams(b, a)
        assert sim.common_trigrams(a, b) == sim.common_trigrams(b, a)
        assert sim.lcs_length(a, b) == sim.lcs_length(b, a)
        assert sim.xdice(a, b) == pytest.approx(sim.xdice(b, a))
        assert sim.xxdice(a, b) == pytest.approx(sim.xxdice(b, a))
        assert sim.align(a, b)[0] == pytest.approx(sim.align(b, a)[0])
    modes = ("global", "local", "semiglobal")
    swapped = [(b, a) for a, b in pairs]
    assert np.array_equal(sim.measure_table(pairs, modes), sim.measure_table(swapped, modes))


def test_edit_distance_triangle_inequality():
    rng = random.Random(17)
    words = ["".join(rng.choice("ptkV") for _ in range(rng.randint(0, 7))) for _ in range(40)]
    d = sim.measure_table([(a, b) for a in words for b in words], ("edit",)).reshape(40, 40)
    for i, j, k in itertools.combinations(range(len(words)), 3):
        assert d[i, k] <= d[i, j] + d[j, k]


def test_mode_score_ordering():
    pairs = list(_random_pairs(random.Random(21), 200, 7))
    for g, s, l in sim.measure_table(pairs, ("global", "semiglobal", "local")):
        assert l >= s - 1e-12
        assert s >= g - 1e-12


def test_extract_features_dimension_and_ordering():
    feats = sim.extract_features("fVt", "fVd")
    vec = feats.vector()
    assert len(vec) == 33
    assert len(sim.FEATURE_NAMES) == 33
    assert sim.FEATURE_NAMES[0] == "edit_asjp"
    assert sim.FEATURE_NAMES[1] == "edit_dolgo"
    assert sim.FEATURE_NAMES[-3:] == ("len_a", "len_b", "abs_len_diff")
    # ASJP edit distance 1 in slot 0; DOLGO and SCA collapse t/d together
    assert vec[0] == 1.0
    assert vec[1] == 0.0 and vec[2] == 0.0


def test_extract_features_self_comparison():
    feats = sim.extract_features("fVtV", "fVtV")
    vec = feats.vector()
    names = sim.FEATURE_NAMES
    by_name = dict(zip(names, vec))
    for alph in ("asjp", "dolgo", "sca"):
        assert by_name[f"edit_{alph}"] == 0.0
        assert by_name[f"lcs_{alph}"] == 4.0
    assert feats.len_a == feats.len_b == 4
    assert feats.abs_len_diff == 0


def test_extract_features_rejects_empty_words():
    with pytest.raises(ValueError):
        sim.extract_features("", "fVt")


def _pair_features(pairs):
    """``feature_matrix`` over the form table of string pairs, gathered back to every pair."""
    forms, index, row = wordlists.form_table(pairs)
    return sim.feature_matrix(forms, index)[row]


def test_feature_matrix_rejects_empty_words():
    with pytest.raises(ValueError):
        sim.feature_matrix(["fVt", "fVd", ""], np.array([[0, 1], [0, 2]]))


def test_feature_matrix_of_no_pairs_has_33_columns():
    features = sim.feature_matrix([], np.empty((0, 2), dtype=np.intp))
    assert features.shape == (0, 33)
    assert features.dtype == np.float64


# ------------------------------------------------ the batched engine vs oracles

def _enum_values(a, b):
    return [oracles.edit_distance_enum(a, b), oracles.lcs_enum(a, b),
            oracles.global_enum(a, b, MM, -1.0),
            oracles.local_best(a, b, MM, -1.0, global_fn=oracles.global_enum),
            oracles.semiglobal_best(a, b, MM, -1.0, global_fn=oracles.global_enum)]


@pytest.mark.parametrize("chunk", [7, sim.CHUNK])
def test_dp_engine_matches_enumeration_oracles_exhaustive(chunk):
    # every pair of {p,t} strings up to length 3, mixed lengths in each chunk
    strings = ["".join(t) for n in range(4) for t in itertools.product("pt", repeat=n)]
    pairs = [(a, b) for a in strings for b in strings]
    with mock.patch.object(sim, "CHUNK", chunk):
        table = sim.measure_table(pairs, DP_NAMES)
    assert table.tolist() == [_enum_values(a, b) for a, b in pairs]


def test_dp_engine_matches_memo_oracles_random():
    rng = random.Random(12)
    pairs = list(_random_pairs(rng, 30, 12))
    table = sim.measure_table(pairs, DP_NAMES)
    best = functools.lru_cache(maxsize=None)(lambda x, y: oracles.global_memo(x, y, MM, -1.0))
    cached = lambda x, y, _sub, _gap: best(x, y)  # noqa: E731
    for (a, b), row in zip(pairs, table):
        assert row.tolist() == [
            oracles.edit_distance_memo(a, b), oracles.lcs_enum(a, b), best(a, b),
            oracles.local_best(a, b, MM, -1.0, global_fn=cached),
            oracles.semiglobal_best(a, b, MM, -1.0, global_fn=cached),
        ], (a, b)


# 15 to 40 symbols, the middle ones from symbols that no short word has, so
# that aligning a long word with a short one runs 15 gaps or more in a DP row:
# the prefix max over the row takes five or six doubling steps
_LONG = st.builds(lambda head, middle, tail: head + middle + tail, st.text(alphabet="pVtk", max_size=5),
                  st.text(alphabet="bdgz", min_size=15, max_size=30), st.text(alphabet="pVtk", max_size=5))


@settings(deadline=None, max_examples=50)
@given(long=st.lists(_LONG, min_size=1, max_size=2),
       short=st.lists(st.text(alphabet="pVtk", max_size=5), max_size=3),
       chunk=st.integers(1, 12))
@example(long=["p" + "b" * 30 + "k", "tk" + "dg" * 15], short=["", "pk", "kVt"], chunk=3)
def test_measure_table_equals_the_oracles_on_long_words(long, short, chunk):
    # long and short words in one chunk, so short pairs leave the DP while
    # long ones go on, and pairs split across chunks at every size
    pairs = [(a, b) for a in long + short for b in long + short]
    with mock.patch.object(sim, "CHUNK", chunk):
        table = sim.measure_table(pairs)
    want = np.array([oracles.measure_row(a, b) for a, b in pairs])
    assert np.array_equal(table.view(np.int64), want.view(np.int64))
    dp = [sim.MEASURES.index(name) for name in DP_NAMES]
    assert np.array_equal(table[:, dp], oracles.dp_table_row_major(pairs))
    for (a, b), row in zip(pairs, table):
        assert row[sim.MEASURES.index("edit")] == oracles.edit_distance_memo(a, b)
        assert row[sim.MEASURES.index("global")] == oracles.global_memo(a, b, MM, -1.0)


def _assert_bitwise_equal_to_oracle(pairs, features):
    want = np.array([oracles.features_per_pair(a, b) for a, b in pairs])
    assert features.shape == want.shape == (len(pairs), len(sim.FEATURE_NAMES))
    # int64 views tell -0.0 from 0.0, which a featurize TSV would print as "-0"
    assert np.array_equal(features.view(np.int64), want.view(np.int64))


def test_feature_matrix_equals_per_pair_oracle_on_synthetic_family():
    lexemes = synthetic.generate_family(n_concepts=30, n_languages=8, seed=7)
    pairs = [(p.a.form, p.b.form) for p in wordlists.generate_pairs(lexemes)]
    assert len(pairs) * len(sim.ALPHABETS) > 2 * sim.CHUNK
    _assert_bitwise_equal_to_oracle(pairs, _pair_features(pairs))


def _asjp_words(symbols=phoneme.INVENTORY):
    return st.text(alphabet=symbols, min_size=1, max_size=14)


# two halves of the inventory, for words that share no symbol
_HALVES = (phoneme.INVENTORY[:17], phoneme.INVENTORY[17:])


@settings(deadline=None)
@given(words=st.lists(_asjp_words(), min_size=1, max_size=8),
       apart=st.lists(st.tuples(_asjp_words(_HALVES[0]), _asjp_words(_HALVES[1])), max_size=4),
       chunk=st.integers(1, 12))
@example(words=["p", "pV", "pVt", "pVt", "tVptVpVt"], apart=[("p", "V"), ("pbf", "VkVk")], chunk=2)
# XXDICE weights summed right to left, or pairwise, would change the last bit here
@example(words=["pVpttVtpt", "VtptpptV", "VVpVpVppVV", "pppVVVppVpppp"], apart=[], chunk=12)
def test_feature_matrix_equals_per_pair_oracle(words, apart, chunk):
    # every pair of the words with itself and the later ones, so identical
    # words and words shorter than an n-gram occur; a small chunk splits the
    # pairs across several chunks
    pairs = [(a, b) for i, a in enumerate(words) for b in words[i:]] + apart
    with mock.patch.object(sim, "CHUNK", chunk):
        features = _pair_features(pairs)
    _assert_bitwise_equal_to_oracle(pairs, features)
    assert (features[len(pairs) - len(apart):, sim.FEATURE_NAMES.index("local_asjp")] == 0.0).all()



@settings(deadline=None)
@given(words=st.lists(_asjp_words(), min_size=1, max_size=5),
       picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=16),
       chunk=st.integers(1, 6))
@example(words=["pVt", "tVp", "pVt"], picks=[(0, 1), (1, 0), (0, 1), (2, 1), (0, 0), (1, 0)], chunk=2)
def test_repeated_and_reordered_pairs_equal_per_pair_oracle(words, picks, chunk):
    # pairs repeat, in both orders and interleaved with others, so each
    # distinct pair's row is gathered back to several places; a small chunk
    # splits the distinct pairs across chunks
    pairs = [(words[i % len(words)], words[j % len(words)]) for i, j in picks]
    with mock.patch.object(sim, "CHUNK", chunk):
        features = _pair_features(pairs)
        table = sim.measure_table(pairs)
    _assert_bitwise_equal_to_oracle(pairs, features)
    # the ASJP measures are every third of the measure-major feature columns
    asjp = np.array([oracles.features_per_pair(a, b) for a, b in pairs])[:, :3 * len(sim.MEASURES):3]
    assert np.array_equal(table.view(np.int64), asjp.view(np.int64))
