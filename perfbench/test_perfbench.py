"""Checks of the benchmark itself, on workloads small enough to run in seconds.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from inputs import EVALUATE, PIPELINE, WORKLOADS, Workload, make_inputs  # noqa: E402

SMALL = (
    Workload("test-pipeline", PIPELINE, concepts=10, languages=6,
             options=("--epochs", "1", "--svm-passes", "20"), setup_repeats=1),
    Workload("test-evaluate", EVALUATE, concepts=6, languages=6, train_size=(8, 6),
             train_options=("--epochs", "1", "--svm-passes", "20"), setup_repeats=2),
)

EXACT_UNITS = ("count", "GFLOP", "ratio")


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_counts_repeat_exactly(workload):
    first = run.run(workload, seed=5, seconds=1, trace=True)
    second = run.run(workload, seed=5, seconds=1, trace=True)
    assert first["correct"] and second["correct"]
    assert first["attempted"] == 2 * len(run.SYSTEMS)
    assert set(first["metrics"]) == set(tracer.UNITS)
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in EXACT_UNITS}
    assert counts == again
    if workload.kind == PIPELINE:
        assert counts["svm.row_passes"] > 0 and counts["pmi.iterations"] > 0
        assert counts["neural.trunk_passes_per_batch"] == 2.0
    else:
        assert counts["phoneme.truncated_renders"] > 0 and counts["svm.fit_calls"] == 0
    assert counts["similarity.align_cells"] > 0 and counts["neural.conv2d_gflop"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    result = run.run(SMALL[0], seed=5, seconds=1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_rate"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrapped_functions_return_unwrapped_results():
    from cognet import metrics, pmi, similarity, svm, synthetic, wordlists
    from cognet.neural import model

    lexemes = synthetic.generate_family(n_concepts=6, n_languages=5, seed=3)
    pairs = wordlists.generate_pairs(lexemes)
    words = [(p.a.form, p.b.form) for p in pairs]
    net = model.Model(model.ModelSpec("manhattan"), seed=1)

    def compute():
        feats = np.array([similarity.extract_features(a, b).vector() for a, b in words])
        matrix = pmi.estimate_pmi(words)
        pfeats = np.array([pmi.pmi_features(a, b, matrix) for a, b in words])
        y = np.array([p.label for p in pairs])
        fitted = svm.fit(feats, y, C=1.0, passes=50)
        xa, xb, _ = model.encode_pairs(pairs, 10)
        scores = net.predict(xa, xb)
        report = metrics.evaluate(y, scores)
        return feats, matrix.scores, pfeats, svm.decision_function(fitted, feats), scores, report

    plain = compute()
    t = tracer.Tracer()
    tracer.install(t)
    try:
        wrapped = compute()
    finally:
        t.restore()
    for a, b in zip(plain[:-1], wrapped[:-1]):
        assert np.array_equal(a, b)
    assert plain[-1] == wrapped[-1]
    assert len(t.spans) > len(words)
    assert not hasattr(similarity.extract_features, "__wrapped__")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_seed_drives_inputs(name, tmp_path):
    w = WORKLOADS[name]
    a = make_inputs(w, 1, tmp_path / "a")
    b = make_inputs(w, 1, tmp_path / "b")
    c = make_inputs(w, 2, tmp_path / "c")
    for f in a["files"].values():
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        assert (tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes()
    assert a["program_seed"] == b["program_seed"] != c["program_seed"]


def test_long_word_families_are_long_and_disjoint(tmp_path):
    from cognet import wordlists

    m = make_inputs(WORKLOADS["long-words-eval"], 4, tmp_path)
    train = wordlists.load_wordlist(tmp_path / m["files"]["train"])
    test = wordlists.load_wordlist(tmp_path / m["files"]["data"])
    lengths = [len(lex.form) for lex in test]
    assert min(lengths) >= 7 and max(lengths) == 12 and 9 <= np.mean(lengths) <= 10.5
    assert not {lex.concept for lex in train} & {lex.concept for lex in test}
    protos = lambda lexemes: {lex.form for lex in lexemes if lex.language == "L0"}  # noqa: E731
    assert not protos(train) & protos(test)
    assert len(wordlists.generate_pairs(test)) == m["n_test"]
