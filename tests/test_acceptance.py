"""Acceptance suite: one test per shipping criterion, with pinned tolerances.

Each test prints a PASS/FAIL line through the conftest report hook.  The
final criterion is data-gated: it runs only when real word-list exports
are supplied through environment variables, and is skipped otherwise.
"""

import itertools
import os
import time

import numpy as np
import pytest

from cognet import cli, metrics, phoneme, pmi, similarity as sim, synthetic, wordlists
from cognet.neural import (
    MANHATTAN,
    TWO_CHANNEL,
    InvalidSpec,
    ModelSpec,
    build,
    losses,
    ops,
)
from cognet.neural.adadelta import AdadeltaState, adadelta_step

from conftest import max_rel_err, numeric_grad
import oracles

MM = sim.match_mismatch()
GAP_PENALTY = -1.0


# ---------------------------------------------------------------- criterion 1

def test_feature_table_fidelity(golden_feature_table):
    t0 = time.monotonic()
    assert set(golden_feature_table) == set(phoneme.INVENTORY)
    assert len(golden_feature_table) == 35
    for symbol, bits in golden_feature_table.items():
        assert phoneme.binarize(symbol) == bits, f"feature row mismatch for {symbol!r}"
    vectors = [phoneme.binarize(s) for s in phoneme.INVENTORY]
    assert len(set(vectors)) == 35, "binarization must be injective"
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------- criterion 2

def _canon(a: str, b: str) -> tuple[str, str]:
    """Relabel symbols by first appearance; metrics only see equality."""
    mapping: dict[str, str] = {}

    def relabel(s: str) -> str:
        out = []
        for ch in s:
            if ch not in mapping:
                mapping[ch] = chr(ord("A") + len(mapping))
            out.append(mapping[ch])
        return "".join(out)

    return relabel(a), relabel(b)


class _OracleCache:
    """Enumeration-oracle results memoized on the equality pattern."""

    def __init__(self, global_fn):
        self.global_fn = global_fn
        self.bundle: dict[tuple[str, str], tuple] = {}
        self.globals: dict[tuple[str, str], float] = {}

    def cached_global(self, a: str, b: str) -> float:
        key = _canon(a, b)
        if key not in self.globals:
            self.globals[key] = self.global_fn(key[0], key[1], MM, GAP_PENALTY)
        return self.globals[key]

    def values(self, a: str, b: str) -> tuple:
        key = _canon(a, b)
        if key not in self.bundle:
            ca, cb = key
            cg = lambda x, y, _sub, _gap: self.cached_global(x, y)
            self.bundle[key] = (
                oracles.edit_distance_enum(ca, cb),
                oracles.lcs_enum(ca, cb),
                self.cached_global(ca, cb),
                oracles.local_best(ca, cb, MM, GAP_PENALTY, global_fn=cg),
                oracles.semiglobal_best(ca, cb, MM, GAP_PENALTY, global_fn=cg),
            )
        return self.bundle[key]


DP_NAMES = ("edit", "lcs", "global", "local", "semiglobal")


def _assert_matches_oracles(pairs, expected):
    """The engine's five DP measures and align's score, exactly as the oracles give them."""
    table = sim.measure_table(pairs, DP_NAMES)
    for (a, b), row, want in zip(pairs, table.tolist(), expected):
        assert row == list(want), (a, b)
        assert sim.align(a, b)[0] == want[2], (a, b)


def test_alignment_oracles():
    t0 = time.monotonic()
    alphabet = "ptkV"
    by_len = {n: ["".join(t) for t in itertools.product(alphabet, repeat=n)] for n in range(7)}

    # exhaustive: every ordered pair with combined length <= 6, against pure
    # path-enumeration oracles
    cache = _OracleCache(oracles.global_enum)
    pairs = [(a, b) for la in range(7) for lb in range(7 - la) for a in by_len[la] for b in by_len[lb]]
    assert len(pairs) == 36_409
    _assert_matches_oracles(pairs, [cache.values(a, b) for a, b in pairs])

    # 1,000 random pairs with each string up to length 8, against the
    # memoized-recursion oracles
    rng = np.random.default_rng(2024)
    cache8 = _OracleCache(oracles.global_memo)
    cg = lambda x, y, _sub, _gap: cache8.cached_global(x, y)
    pairs, expected = [], []
    for _ in range(1000):
        a = "".join(rng.choice(list(alphabet)) for _ in range(rng.integers(0, 9)))
        b = "".join(rng.choice(list(alphabet)) for _ in range(rng.integers(0, 9)))
        pairs.append((a, b))
        expected.append((oracles.edit_distance_memo(a, b), oracles.lcs_enum(a, b), cache8.cached_global(a, b),
                         oracles.local_best(a, b, MM, GAP_PENALTY, global_fn=cg),
                         oracles.semiglobal_best(a, b, MM, GAP_PENALTY, global_fn=cg)))
    _assert_matches_oracles(pairs, expected)
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------- criterion 3

def _check_grads(f, tensors, tol=1e-4, what=""):
    for tensor, grad in tensors:
        assert max_rel_err(grad, numeric_grad(f, tensor)) < tol, what


def test_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    away = lambda x, m=0.05: np.sign(x) * (np.abs(x) + m)

    for _ in range(20):
        # conv2d
        B, kh, kw = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        H, W = kh + int(rng.integers(0, 4)), kw + int(rng.integers(0, 4))
        C, F = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rng.normal(size=(B, H, W, C))
        k = rng.normal(size=(kh, kw, C, F))
        b = rng.normal(size=F)
        proj = rng.normal(size=(B, H - kh + 1, W - kw + 1, F))
        f = lambda: float((ops.conv2d(x, k, b)[0] * proj).sum())
        _, cache = ops.conv2d(x, k, b)
        gx, gk, gb = ops.conv2d_backward(cache, proj)
        _check_grads(f, [(x, gx), (k, gk), (b, gb)], what="conv2d")

        # relu
        xr = away(rng.normal(size=(2, int(rng.integers(2, 16)))))
        pr = rng.normal(size=xr.shape)
        fr = lambda: float((ops.relu(xr)[0] * pr).sum())
        _, cr = ops.relu(xr)
        _check_grads(fr, [(xr, ops.relu_backward(cr, pr))], what="relu")

        # maxpool2
        xm = rng.normal(size=(1, int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(1, 4))))
        pm = rng.normal(size=ops.maxpool2(xm)[0].shape)
        fm = lambda: float((ops.maxpool2(xm)[0] * pm).sum())
        _, cm = ops.maxpool2(xm)
        _check_grads(fm, [(xm, ops.maxpool2_backward(cm, pm))], what="maxpool2")

        # dense
        Bd, D, U = (int(rng.integers(1, 6)) for _ in range(3))
        xd = rng.normal(size=(Bd, D))
        wd = rng.normal(size=(D, U))
        bd = rng.normal(size=U)
        pd = rng.normal(size=(Bd, U))
        fd = lambda: float((ops.dense(xd, wd, bd)[0] * pd).sum())
        _, cd = ops.dense(xd, wd, bd)
        gxd, gwd, gbd = ops.dense_backward(cd, pd)
        _check_grads(fd, [(xd, gxd), (wd, gwd), (bd, gbd)], what="dense")

        # dropout with frozen mask
        seed = int(rng.integers(0, 2**31))
        xo = rng.normal(size=(2, 9))
        po = rng.normal(size=xo.shape)
        fo = lambda: float((ops.dropout(xo, 0.4, True, np.random.default_rng(seed))[0] * po).sum())
        _, co = ops.dropout(xo, 0.4, True, np.random.default_rng(seed))
        _check_grads(fo, [(xo, ops.dropout_backward(co, po))], what="dropout")

        # abs_diff and euclid
        u = rng.normal(size=(3, 5))
        v = u + away(rng.normal(size=u.shape), 0.1)
        pa = rng.normal(size=u.shape)
        fa = lambda: float((ops.abs_diff(u, v)[0] * pa).sum())
        _, ca = ops.abs_diff(u, v)
        gu, gv = ops.abs_diff_backward(ca, pa)
        _check_grads(fa, [(u, gu), (v, gv)], what="abs_diff")
        pe = rng.normal(size=3)
        fe = lambda: float((ops.euclid(u, v)[0] * pe).sum())
        _, ce = ops.euclid(u, v)
        gue, gve = ops.euclid_backward(ce, pe)
        _check_grads(fe, [(u, gue), (v, gve)], what="euclid")

        # sigmoid
        z = rng.normal(size=(2, 6)) * 3
        pz = rng.normal(size=z.shape)
        fz = lambda: float((ops.sigmoid(z)[0] * pz).sum())
        _, cz = ops.sigmoid(z)
        _check_grads(fz, [(z, ops.sigmoid_backward(cz, pz))], what="sigmoid")

        # losses
        p = rng.uniform(0.02, 0.98, size=10)
        yl = rng.integers(0, 2, size=10).astype(float)
        fl = lambda: float(losses.log_loss(p, yl).sum())
        _check_grads(fl, [(p, losses.log_loss_grad(p, yl))], what="log_loss")
        d = rng.uniform(0.05, 2.0, size=10)
        d = d[np.abs(d - 1.0) > 0.02]
        yc = rng.integers(0, 2, size=d.shape).astype(float)
        fc = lambda: float(losses.contrastive_loss(d, yc, 1.0).sum())
        _check_grads(fc, [(d, np.asarray(losses.contrastive_loss_grad(d, yc, 1.0), dtype=float))],
                     what="contrastive")

    # full composites, end to end (seeds chosen away from relu/maxpool kinks)
    for arch in (MANHATTAN, TWO_CHANNEL):
        net = build(ModelSpec(arch, conv_filters=3, fc_units=4), seed=101)
        rng2 = np.random.default_rng(201)
        xa = rng2.random((3, 10, 16))
        xb = rng2.random((3, 10, 16))
        y = np.array([1.0, 0.0, 1.0])
        floss = lambda: net.loss_and_grads(xa, xb, y, rng=np.random.default_rng(301))[0]
        _, grads = net.loss_and_grads(xa, xb, y, rng=np.random.default_rng(301))
        for name, tensor in net.params.items():
            assert max_rel_err(grads[name], numeric_grad(floss, tensor)) < 1e-4, f"{arch}:{name}"
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------- criterion 4

def test_adadelta_scalar_trace():
    # five-step hand evaluation of the update recurrence for g = 1
    expected_positions = [
        -0.0044720912343108364,
        -0.009001153499844042,
        -0.013568752982270052,
        -0.018165763838901894,
        -0.022786751597628364,
    ]
    params = {"w": np.zeros(1)}
    state = AdadeltaState.for_params(params)
    for expected in expected_positions:
        adadelta_step(params, {"w": np.ones(1)}, state)
        assert params["w"][0] == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------- criterion 5

def test_shape_contract():
    net = build(ModelSpec(MANHATTAN))
    assert net.shapes == [(10, 16, 1), (9, 14, 10), (8, 12, 10), (4, 6, 10), 240, 8, 1]
    narrow = build(ModelSpec(MANHATTAN, kernel=(1, 3)))
    assert narrow.shapes == [(10, 16, 1), (10, 14, 10), (10, 12, 10), (5, 6, 10), 300, 8, 1]
    with pytest.raises(InvalidSpec):
        build(ModelSpec(MANHATTAN, kernel=(11, 3)))
    with pytest.raises(InvalidSpec):
        build(ModelSpec(MANHATTAN, kernel=(2, 9)))


# ---------------------------------------------------------------- criterion 6

def test_metric_hand_checks():
    f_neg, f_pos, f_comb = metrics.f_scores([1, 1, 0, 0], [1, 0, 0, 0])
    assert abs(f_pos - 2 / 3) < 1e-9
    assert abs(f_neg - 0.8) < 1e-9
    assert abs(f_comb - 11 / 15) < 1e-9

    ap = metrics.average_precision([1, 0, 1], [0.9, 0.8, 0.7])
    assert abs(ap - (0.5 * 1.0 + 0.5 * (2 / 3))) < 1e-9

    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(5, 50))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        scores = rng.normal(size=n)
        base = metrics.average_precision(labels, scores)
        for transform in (lambda s: 2.5 * s + 1.0, np.exp, np.tanh):
            assert metrics.average_precision(labels, transform(scores)) == pytest.approx(base)


# ---------------------------------------------------------------- criterion 7

def test_pmi_toy_convergence():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    symbols = list("tkbdszmnlrwV")
    corpus = []
    for _ in range(200):
        # cognate-like pair with a planted p -> f correspondence
        n = int(rng.integers(3, 6))
        word = "".join(rng.choice(symbols) for _ in range(n))
        pos = int(rng.integers(0, n + 1))
        a = word[:pos] + "p" + word[pos:]
        b = word[:pos] + "f" + word[pos:]
        corpus.append((a, b))
    matrix = pmi.estimate_pmi(corpus, pmi.PMIConfig(max_iterations=10))
    assert matrix.converged and matrix.iterations <= 10
    pf = matrix.score("p", "f")
    for x in phoneme.INVENTORY:
        if x != "f":
            assert pf > matrix.score("p", x), f"PMI(p,f) must outrank PMI(p,{x})"
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------- criterion 8

@pytest.fixture(scope="module")
def synthetic_tsv(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "family.tsv"
    wordlists.write_wordlist(synthetic.generate_family(seed=7), path)
    return path


def _run_pipeline(tsv, out_dir, system, seed=7, extra=()):
    code = cli.run([
        "pipeline", "--data", str(tsv), "--system", system,
        "--mode", "cross-concept", "--out-dir", str(out_dir), "--seed", str(seed),
        *extra,
    ])
    assert code == 0, f"pipeline failed for {system}"
    header, values = (out_dir / "report.tsv").read_text(encoding="utf-8").splitlines()
    return dict(zip(header.split("\t"), (float(v) for v in values.split("\t"))))


def test_end_to_end_synthetic_family(synthetic_tsv, tmp_path):
    t0 = time.monotonic()
    ortho = _run_pipeline(synthetic_tsv, tmp_path / "ortho", "ortho_svm")
    assert ortho["accuracy"] >= 0.90
    pmi_rep = _run_pipeline(synthetic_tsv, tmp_path / "pmi", "pmi_svm")
    assert pmi_rep["accuracy"] >= 0.90
    man = _run_pipeline(synthetic_tsv, tmp_path / "manhattan", "manhattan")
    assert man["accuracy"] >= 0.85
    assert man["average_precision"] >= 0.90
    n = man["tp"] + man["fp"] + man["tn"] + man["fn"]
    majority = max(man["tp"] + man["fn"], man["tn"] + man["fp"]) / n
    assert man["accuracy"] >= majority + 0.15
    assert time.monotonic() - t0 < 600.0


# ---------------------------------------------------------------- criterion 9

def test_pipeline_determinism_and_pair_counts(synthetic_tsv, tmp_path):
    args_a = tmp_path / "run_a"
    args_b = tmp_path / "run_b"
    _run_pipeline(synthetic_tsv, args_a, "manhattan", extra=("--epochs", "5"))
    _run_pipeline(synthetic_tsv, args_b, "manhattan", extra=("--epochs", "5"))
    for name in ("report.tsv", "report.txt", "model.txt", "loss_history.tsv"):
        assert (args_a / name).read_bytes() == (args_b / name).read_bytes(), name

    lexemes = wordlists.load_wordlist(synthetic_tsv)
    pairs = wordlists.generate_pairs(lexemes)
    per_concept_lexemes: dict[str, int] = {}
    for lex in lexemes:
        per_concept_lexemes[lex.concept] = per_concept_lexemes.get(lex.concept, 0) + 1
    per_concept_pairs: dict[str, int] = {}
    for pair in pairs:
        per_concept_pairs[pair.concept] = per_concept_pairs.get(pair.concept, 0) + 1
    for concept, k in per_concept_lexemes.items():
        assert per_concept_pairs.get(concept, 0) == k * (k - 1) // 2, concept


# --------------------------------------------------- criterion 10 (data-gated)

TABLE_ACCURACIES = {"COGNET_IELEX_TSV": 0.8343, "COGNET_ABVD_TSV": 0.7904, "COGNET_MAYAN_TSV": 0.871}


@pytest.mark.parametrize("env_var", sorted(TABLE_ACCURACIES))
def test_real_data_cross_concept(env_var, tmp_path):
    """Advisory check against published cross-concept accuracies.

    Supply real word-list exports (documented TSV schema) through the
    environment to enable it; skipped otherwise.
    """
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"{env_var} not set; real-data check skipped")
    report = _run_pipeline(path, tmp_path / "real", "manhattan", seed=7)
    assert abs(report["accuracy"] - TABLE_ACCURACIES[env_var]) <= 0.05
