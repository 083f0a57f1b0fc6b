import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cognet import phoneme, pmi, similarity, synthetic, wordlists

import oracles


def expected_pmi(pair_counts: dict[tuple[str, str], int], pseudocount: float = 1.0):
    """Reference PMI from raw aligned-pair counts (both orientations)."""
    n = len(phoneme.INVENTORY)
    idx = phoneme.SYMBOL_INDEX
    counts = [[0.0] * n for _ in range(n)]
    for (x, y), c in pair_counts.items():
        counts[idx[x]][idx[y]] += c
        counts[idx[y]][idx[x]] += c
    total = sum(v + pseudocount for row in counts for v in row)
    joint = [[(v + pseudocount) / total for v in row] for row in counts]
    marg = [sum(row) for row in joint]

    def score(x, y):
        i, j = idx[x], idx[y]
        return math.log2(joint[i][j]) - math.log2(marg[i] * marg[j])

    return score


def test_identical_pairs_prefer_diagonal():
    corpus = [("pt", "pt")] * 6 + [("tp", "tp")] * 4
    m = pmi.estimate_pmi(corpus)
    assert m.converged
    assert m.score("p", "p") > m.score("p", "t")
    assert m.score("t", "t") > m.score("p", "t")
    # identity alignments: each pair contributes one (p,p) and one (t,t)
    ref = expected_pmi({("p", "p"): 10, ("t", "t"): 10})
    assert m.score("p", "p") == pytest.approx(ref("p", "p"), abs=1e-12)
    assert m.score("p", "t") == pytest.approx(ref("p", "t"), abs=1e-12)
    assert m.score("V", "V") == pytest.approx(ref("V", "V"), abs=1e-12)


def test_planted_correspondence_outranks_others():
    corpus = [("pVt", "fVt")] * 10
    m = pmi.estimate_pmi(corpus)
    assert m.converged
    ref = expected_pmi({("p", "f"): 10, ("V", "V"): 10, ("t", "t"): 10})
    assert m.score("p", "f") == pytest.approx(ref("p", "f"), abs=1e-12)
    assert m.score("p", "f") > m.score("p", "t")
    assert m.score("p", "f") > m.score("p", "p")


def test_all_pairs_failing_cutoff_raise():
    with pytest.raises(pmi.EmptySeedSet):
        pmi.estimate_pmi([("pppp", "tttt")])
    with pytest.raises(pmi.EmptySeedSet):
        pmi.estimate_pmi([])


def test_matrix_is_exactly_symmetric():
    rng = random.Random(3)
    corpus = []
    for _ in range(60):
        a = "".join(rng.choice("ptkbdV") for _ in range(rng.randint(2, 6)))
        b = "".join(rng.choice("ptkbdV") for _ in range(rng.randint(2, 6)))
        corpus.append((a, b))
    m = pmi.estimate_pmi(corpus, pmi.PMIConfig(initial_cutoff=1.0))
    assert np.array_equal(m.scores, m.scores.T)
    assert np.isfinite(m.scores).all()


def test_self_similarity_dominates_on_identity_corpus():
    corpus = [("pVk", "pVk")] * 5 + [("tVs", "tVs")] * 5 + [("pVs", "pVs")] * 5
    m = pmi.estimate_pmi(corpus)
    for x in "ptksV":
        for y in "ptksV":
            if x != y:
                assert m.score(x, x) >= m.score(x, y)


def test_estimation_is_deterministic():
    rng = random.Random(8)
    corpus = []
    for _ in range(40):
        w = "".join(rng.choice("ptkV") for _ in range(rng.randint(2, 5)))
        corpus.append((w, w if rng.random() < 0.6 else w[::-1]))
    m1 = pmi.estimate_pmi(corpus)
    m2 = pmi.estimate_pmi(corpus)
    assert np.array_equal(m1.scores, m2.scores)
    assert m1.iterations == m2.iterations


def test_iteration_bookkeeping():
    corpus = [("pVt", "fVt")] * 10
    cfg = pmi.PMIConfig(max_iterations=3, convergence_tol=1e-12)
    m = pmi.estimate_pmi(corpus, cfg)
    assert m.iterations <= 3
    assert m.converged == (m.final_delta < cfg.convergence_tol)


def test_pmi_score_matches_alignment_oracle():
    corpus = [("pVt", "fVt")] * 5 + [("kVs", "kVs")] * 5
    m = pmi.estimate_pmi(corpus)
    sub = lambda x, y: m.scores[phoneme.SYMBOL_INDEX[x], phoneme.SYMBOL_INDEX[y]]
    rng = random.Random(12)
    for _ in range(60):
        a = "".join(rng.choice("pftksV") for _ in range(rng.randint(1, 6)))
        b = "".join(rng.choice("pftksV") for _ in range(rng.randint(1, 6)))
        assert pmi.pmi_features(a, b, m)[0] == pytest.approx(
            oracles.global_memo(a, b, sub, m.gap_penalty))


def test_pmi_score_identity_sums_diagonal():
    scores = np.full((35, 35), -1.0)
    np.fill_diagonal(scores, 2.0)
    m = pmi.PMIMatrix(scores=scores, gap_penalty=-2.5)
    assert pmi.pmi_features("pVt", "pVt", m)[0] == pytest.approx(6.0)
    # two single symbols: substitution beats a double gap
    assert pmi.pmi_features("p", "t", m)[0] == pytest.approx(-1.0)


def test_pmi_features_shape_and_values():
    scores = np.zeros((35, 35))
    m = pmi.PMIMatrix(scores=scores, gap_penalty=-1.0)
    feats = pmi.pmi_features("pVt", "pVtkV", m)
    assert len(feats) == 4
    assert feats[1] == 3.0 and feats[2] == 5.0 and feats[3] == 2.0
    self_feats = pmi.pmi_features("pVt", "pVt", m)
    assert self_feats[1] == self_feats[2] == 3.0 and self_feats[3] == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        pmi.PMIConfig(initial_cutoff=0.0)
    with pytest.raises(ValueError):
        pmi.PMIConfig(gap_penalty=0.5)
    assert pmi.PMIConfig(gap_penalty=-pmi.MAX_GAP_PENALTY).gap_penalty == -1e300
    with pytest.raises(ValueError, match=r"^gap_penalty -1e\+301 is not in \[-1e\+300, 0\)"):
        pmi.PMIConfig(gap_penalty=-1e301)
    with pytest.raises(ValueError):
        pmi.PMIConfig(pseudocount=0.0)


def test_largest_pseudocount_still_gives_finite_scores():
    corpus = [("pVt", "fVt")] * 5 + [("kVs", "kVs")] * 5
    m = pmi.estimate_pmi(corpus, pmi.PMIConfig(pseudocount=pmi.MAX_PSEUDOCOUNT))
    assert np.isfinite(m.scores).all() and np.isfinite(m.final_delta)
    # 35 * 35 smoothed cells of 1e306 would sum past the largest float; the bound turns it away
    with pytest.raises(ValueError, match=r"^pseudocount 1e\+306 is not in \[1e-100, 1e\+305\]$"):
        pmi.PMIConfig(pseudocount=1e306)
    for invalid in (float(np.nextafter(pmi.MAX_PSEUDOCOUNT, np.inf)), 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"^pseudocount {re.escape(repr(invalid))} is not in"):
            pmi.PMIConfig(pseudocount=invalid)


def test_pseudocount_too_small_for_finite_scores_raises():
    corpus = [("pVt", "fVt")] * 5 + [("kVs", "kVs")] * 5
    # an unseen symbol's marginal would be about 35 * 1e-300 / 30, and its square underflow to 0
    with pytest.raises(ValueError, match=r"^pseudocount 1e-300 is not in \[1e-100, 1e\+305\]$"):
        pmi.PMIConfig(pseudocount=1e-300)
    below = float(np.nextafter(pmi.MIN_PSEUDOCOUNT, 0.0))
    with pytest.raises(ValueError, match=f"^pseudocount {re.escape(repr(below))} is not in"):
        pmi.PMIConfig(pseudocount=below)
    assert np.isfinite(pmi.estimate_pmi(corpus, pmi.PMIConfig(pseudocount=pmi.MIN_PSEUDOCOUNT)).scores).all()


def _log_uniform(low: float, high: float):
    """Floats from ``low`` to ``high`` drawn log-uniformly, both ends included."""
    return st.one_of(st.sampled_from([low, high]),
                     st.floats(math.log10(low), math.log10(high)).map(lambda e: min(max(10.0 ** e, low), high)))


# What the pseudocount's bounds promise: at every pseudocount within them, no
# number of the smoothing overflows, divides by zero or turns invalid, at
# count totals up to 1e15.  Counts on a few cells leave most symbols unseen,
# whose marginals are the smallest.
@settings(deadline=None)
@given(pseudocount=_log_uniform(pmi.MIN_PSEUDOCOUNT, pmi.MAX_PSEUDOCOUNT), total=_log_uniform(1.0, 1e15),
       seed=st.integers(0, 2**32 - 1))
def test_counts_to_pmi_stays_finite_across_the_pseudocount_range(pseudocount, total, seed):
    rng = np.random.default_rng(seed)
    cells = rng.integers(1, 20)
    half = np.zeros(N * N)
    half[rng.choice(N * N, size=cells, replace=False)] = np.floor(rng.dirichlet(np.ones(cells)) * total / 2)
    counts = half.reshape(N, N) + half.reshape(N, N).T
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        scores = pmi._counts_to_pmi(counts, pseudocount)
    assert np.isfinite(scores).all()


def test_matrix_file_round_trip(tmp_path):
    corpus = [("pVt", "fVt")] * 10 + [("kVs", "kVs")] * 5
    m = pmi.estimate_pmi(corpus)
    path = tmp_path / "matrix.tsv"
    pmi.save_matrix(m, path)
    loaded = pmi.load_matrix(path)
    assert np.array_equal(loaded.scores, m.scores)
    assert loaded.gap_penalty == m.gap_penalty
    # a second save of the loaded matrix is byte-identical
    path2 = tmp_path / "matrix2.tsv"
    pmi.save_matrix(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_matrix_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("p\tq\n1\t2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        pmi.load_matrix(path)


def _per_pair_seeds(pairs, cutoff):
    return [(a, b) for a, b in pairs
            if a and b and oracles.edit_distance_dp(a, b) / max(len(a), len(b)) <= cutoff]


def _fixture_pairs():
    lexemes = synthetic.generate_family(n_concepts=12, n_languages=6, seed=7)
    return [(p.a.form, p.b.form) for p in wordlists.generate_pairs(lexemes)] + [
        ("", "pVt"), ("pVt", ""), ("pppp", "tttt"), ("pVt", "pVt")]


@pytest.mark.parametrize("cutoff", [0.2, 0.5, 0.75, 1.0])
def test_seed_pairs_equal_per_pair_edit_distance_cutoff(cutoff):
    pairs = _fixture_pairs()
    forms, index, row = wordlists.form_table(pairs)
    seeds = pmi.seed_pairs(similarity.Words(forms), index, cutoff)
    # gathered back to every pair, repeats included, the seed rows pick the per-pair seeds
    assert [pair for pair, r in zip(pairs, row) if r in seeds] == _per_pair_seeds(pairs, cutoff)


def test_estimation_tables_and_codes_its_pairs_once(monkeypatch):
    # the cutoff and every round's alignments read one form table and one coding of its forms
    tables, coded = [], []
    form_table = wordlists.form_table

    class Counted(similarity.Words):
        def __init__(self, words):
            coded.append(list(words))
            super().__init__(words)

    monkeypatch.setattr(wordlists, "form_table", lambda pairs: tables.append(pairs) or form_table(pairs))
    monkeypatch.setattr(similarity, "Words", Counted)
    pairs = _fixture_pairs()
    assert pmi.estimate_pmi(pairs).iterations >= 1
    assert tables == [pairs]
    assert coded == [form_table(pairs)[0]]


def _family_pairs(lexemes):
    return [(p.a.form, p.b.form) for p in wordlists.generate_pairs(lexemes)]


def test_matrix_equals_one_from_per_pair_seeds(monkeypatch):
    # the fixture, the default family, and a family spelled three times over (9-15 symbols)
    default = synthetic.generate_family(30, 8, seed=7)
    long_words = [dataclasses.replace(lex, form=lex.form * 3) for lex in synthetic.generate_family(10, 6, seed=12)]
    for pairs in (_fixture_pairs(), _family_pairs(default), _family_pairs(long_words)):
        got = pmi.estimate_pmi(pairs)
        seeds = _per_pair_seeds(pairs, pmi.PMIConfig().initial_cutoff)
        with monkeypatch.context() as patch:
            patch.setattr(pmi, "_count_pairs", lambda _words, _seeds, _repeats, scores, gap:
                          oracles.count_pairs_per_seed(seeds, scores, gap))
            want = pmi.estimate_pmi(pairs)
        assert np.array_equal(got.scores, want.scores)
        assert (got.iterations, got.final_delta, got.converged) == (
            want.iterations, want.final_delta, want.converged)


N = len(phoneme.INVENTORY)


@settings(deadline=None)
@given(a=st.text(alphabet=phoneme.INVENTORY, max_size=10), b=st.text(alphabet=phoneme.INVENTORY, max_size=10),
       seed=st.integers(0, 2**32 - 1), gap=st.floats(-8.0, -0.01))
def test_align_under_a_pmi_matrix_is_optimal_and_scores_its_pairs(a, b, seed, gap):
    # a random symmetric float matrix over the inventory, as estimate_pmi learns one
    half = np.random.default_rng(seed).normal(0.0, 2.0, size=(N, N))
    table = half + half.T
    sub = lambda x, y: table[phoneme.SYMBOL_INDEX[x], phoneme.SYMBOL_INDEX[y]]  # noqa: E731
    score, pairs = similarity.align(a, b, table, gap)
    assert score == pytest.approx(oracles.global_memo(a, b, sub, gap), rel=0, abs=1e-9)
    assert "".join(x for x, _ in pairs if x != similarity.GAP) == a
    assert "".join(y for _, y in pairs if y != similarity.GAP) == b
    total = 0.0
    for x, y in pairs:  # left to right
        total += gap if similarity.GAP in (x, y) else sub(x, y)
    assert total == pytest.approx(score, rel=0, abs=1e-9)


_SEED_WORDS = st.text(alphabet="pVtkfs", min_size=1, max_size=6)


@settings(deadline=None)
@given(pool=st.lists(st.tuples(_SEED_WORDS, _SEED_WORDS), min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 5), max_size=24),
       seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)), gap=st.floats(-8.0, -0.01))
def test_weighted_counts_equal_one_alignment_per_seed(pool, picks, seed, gap):
    # seeds repeated and reordered; without a seed, the unit-cost table of the first alignment
    seeds = [pool[i % len(pool)] for i in picks]
    if seed is None:
        table, gap = pmi._EDIT_SCORES, -1.0
    else:
        half = np.random.default_rng(seed).normal(0.0, 2.0, size=(N, N))
        table = half + half.T
    forms, index, row = wordlists.form_table(seeds)
    got = pmi._count_pairs(similarity.Words(forms), index, np.bincount(row), table, gap)
    assert np.array_equal(got, oracles.count_pairs_per_seed(seeds, table, gap))
    assert got.dtype == np.float64


# What MAX_GAP_PENALTY promises: with every score and the gap at its bound,
# the alignment score of words of up to 40 symbols stays finite.  The batched
# aligner also fills the cells past each pair's lengths; those stay finite too.
@settings(deadline=None)
@given(a=st.text(alphabet=phoneme.INVENTORY, max_size=40), b=st.text(alphabet=phoneme.INVENTORY, max_size=40),
       seed=st.integers(0, 2**32 - 1))
def test_align_stays_finite_with_scores_and_gap_at_the_bound(a, b, seed):
    table = pmi.MAX_GAP_PENALTY * np.random.default_rng(seed).choice([-1.0, 1.0], size=(N, N))
    words = [a, b, "p" * 40]
    index = np.array([[0, 1], [1, 0], [0, 2], [2, 1]])
    with np.errstate(all="raise"):
        score, _ = similarity.align(a, b, table, -pmi.MAX_GAP_PENALTY)
        batched = similarity.align_batch(similarity.Words(words), index, table, -pmi.MAX_GAP_PENALTY)[0]
    assert math.isfinite(score)
    assert batched[0] == score and np.isfinite(batched).all()
