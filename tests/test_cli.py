import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cognet import artifact, cli, phoneme, pmi, similarity, svm, synthetic, wordlists
from cognet.neural import encode_pairs, load_checkpoint

import oracles


@pytest.fixture(scope="module")
def family_tsv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "family.tsv"
    lexemes = synthetic.generate_family(n_concepts=12, n_languages=6, seed=7)
    wordlists.write_wordlist(lexemes, path)
    return path


def test_unknown_subcommand_exits_1(capsys):
    assert cli.run(["frobnicate"]) == 1


def test_missing_seed_exits_1(family_tsv, tmp_path, capsys):
    code = cli.run(["featurize", "--data", str(family_tsv), "--out", str(tmp_path / "f.tsv")])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_an_escaping_exception_is_an_internal_error(family_tsv, tmp_path, monkeypatch, capsys):
    def crash(options):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "featurize", (crash, "crash"))
    monkeypatch.setattr(sys, "argv", ["cognet", "featurize", "--data", str(family_tsv),
                                      "--out", str(tmp_path / "f.tsv"), "--seed", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("RuntimeError: boom\n")


def test_missing_data_file_exits_2(tmp_path, capsys):
    code = cli.run([
        "featurize", "--data", str(tmp_path / "nope.tsv"),
        "--out", str(tmp_path / "f.tsv"), "--seed", "1",
    ])
    assert code == 2


def test_word_list_schema_error_names_file_and_line(tmp_path, capsys):
    data = tmp_path / "headerless.tsv"
    data.write_text("fam\tL1\thand\tpat\tc1\n", encoding="utf-8")
    code = cli.run(["featurize", "--data", str(data), "--out", str(tmp_path / "f.tsv"), "--seed", "1"])
    assert code == 2
    assert f"data error: {data}:1: expected header" in capsys.readouterr().err


def test_word_list_that_is_not_utf8_names_file_and_line(family_tsv, tmp_path, capsys):
    lines = family_tsv.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b"\t", "\té".encode("latin-1"), 1)  # one Latin-1 byte on line 4
    data = tmp_path / "latin1.tsv"
    data.write_bytes(b"\n".join(lines))
    code = cli.run(["featurize", "--data", str(data), "--out", str(tmp_path / "f.tsv"), "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"cognet: data error: {data}:4: not UTF-8: invalid continuation byte 0xe9\n"


def test_featurize_writes_feature_tsv(family_tsv, tmp_path):
    out = tmp_path / "features.tsv"
    assert cli.run(["featurize", "--data", str(family_tsv), "--out", str(out), "--seed", "1"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    assert len(header) == 7 + 33
    assert header[-1] == "abs_len_diff"
    assert len(lines) > 100
    assert (tmp_path / "manifest.json").exists()


def test_featurize_rows_are_the_per_pair_oracle_bytes(family_tsv, tmp_path):
    out = tmp_path / "features.tsv"
    assert cli.run(["featurize", "--data", str(family_tsv), "--out", str(out), "--seed", "1"]) == 0
    header = ["family", "concept", "language_a", "form_a", "language_b", "form_b", "label",
              *similarity.FEATURE_NAMES]
    rows = [[p.family, p.concept, p.a.language, p.a.form, p.b.language, p.b.form, str(p.label)]
            + [format(v, ".12g") for v in oracles.features_per_pair(p.a.form, p.b.form)]
            for p in wordlists.generate_pairs(wordlists.load_wordlist(family_tsv))]
    assert out.read_bytes() == "".join("\t".join(r) + "\n" for r in [header, *rows]).encode("utf-8")


# forms of 17 to 40 symbols, and a short one, in one concept: longer than the
# synthetic words, so the DP and n-gram kernels run on long rows
_LONG_FORMS = ("patakumenilosarVt", "patakumenilosarVtVkupa", "bVtakuminilozarVtVkupanimetosVl",
               "patakumenilosarVtVkupanimetosVlirapak!Nx", "pata")


def _write_golden_family(path) -> None:
    lexemes = synthetic.generate_family(n_concepts=8, n_languages=5, seed=7)
    lexemes += [wordlists.Lexeme("synthetica", f"L{k}", "c900", phoneme.parse_word(form), "c900:cog")
                for k, form in enumerate(_LONG_FORMS)]
    wordlists.write_wordlist(lexemes, path)


def test_featurize_equals_the_golden_bytes(tmp_path):
    # tests/data/featurize_golden.tsv holds this family's features as the
    # row-major DP kernel (oracles.dp_scores_row_major) computed them
    data, out = tmp_path / "family.tsv", tmp_path / "features.tsv"
    _write_golden_family(data)
    assert cli.run(["featurize", "--data", str(data), "--out", str(out), "--seed", "1"]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / "featurize_golden.tsv").read_bytes()


def test_pmi_train_writes_matrix(family_tsv, tmp_path):
    out = tmp_path / "pmi.tsv"
    assert cli.run(["pmi-train", "--data", str(family_tsv), "--out", str(out), "--seed", "1"]) == 0
    matrix = pmi.load_matrix(out)
    assert matrix.scores.shape == (35, 35)


PMI_FLAGS = ["--cutoff", "0.3", "--max-iterations", "4", "--tol", "0.001", "--pseudocount", "0.5",
             "--gap-penalty", "-2"]
QUICK_SVM = ["--c-grid", "1", "--folds", "2", "--svm-passes", "10"]


def test_train_and_pipeline_take_the_pmi_estimation_flags(family_tsv, tmp_path):
    common = ["--data", str(family_tsv), "--seed", "5"]
    assert cli.run(["pmi-train", *common, "--out", str(tmp_path / "pmi.tsv"), *PMI_FLAGS]) == 0
    expected = (tmp_path / "pmi.tsv").read_bytes()
    train = ["train", *common, "--system", "pmi_svm", *QUICK_SVM]
    assert cli.run([*train, "--out-dir", str(tmp_path / "flags"), *PMI_FLAGS]) == 0
    assert (tmp_path / "flags" / "pmi_matrix.tsv").read_bytes() == expected
    # the same values through the config file
    config = _write_config(tmp_path, "[pmi]\n" + "".join(
        f"{flag[2:].replace('-', '_')} = {value}\n" for flag, value in zip(PMI_FLAGS[::2], PMI_FLAGS[1::2])))
    assert cli.run([*config, *train, "--out-dir", str(tmp_path / "config")]) == 0
    assert (tmp_path / "config" / "pmi_matrix.tsv").read_bytes() == expected
    pipeline = ["pipeline", *common, "--system", "pmi_svm", "--mode", "cross-concept", *QUICK_SVM]
    assert cli.run([*pipeline, "--out-dir", str(tmp_path / "pipe"), *PMI_FLAGS]) == 0
    assert cli.run([*pipeline, "--out-dir", str(tmp_path / "pipe_default")]) == 0
    matrices = [(tmp_path / d / "pmi_matrix.tsv").read_bytes() for d in ("pipe", "pipe_default")]
    assert matrices[0] != matrices[1]


def test_train_writes_checkpoint_and_history(family_tsv, tmp_path):
    out_dir = tmp_path / "run"
    code = cli.run([
        "train", "--data", str(family_tsv), "--system", "manhattan",
        "--out-dir", str(out_dir), "--seed", "3", "--epochs", "2",
    ])
    assert code == 0
    net = load_checkpoint(out_dir / "model.txt")
    assert net.spec.architecture == "manhattan"
    history = (out_dir / "loss_history.tsv").read_text(encoding="utf-8").splitlines()
    assert history[0] == "epoch\tmean_loss"
    assert len(history) == 3
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "train"
    assert str(family_tsv) in manifest["inputs"]


def test_train_then_evaluate_svm(family_tsv, tmp_path):
    train_dir = tmp_path / "svm_run"
    code = cli.run([
        "train", "--data", str(family_tsv), "--system", "ortho_svm",
        "--out-dir", str(train_dir), "--seed", "3",
        "--c-grid", "1", "--folds", "5", "--svm-passes", "300",
    ])
    assert code == 0
    eval_dir = tmp_path / "svm_eval"
    code = cli.run([
        "evaluate", "--data", str(family_tsv), "--system", "ortho_svm",
        "--model", str(train_dir / "model.txt"), "--out-dir", str(eval_dir), "--seed", "3",
    ])
    assert code == 0
    report = (eval_dir / "report.tsv").read_text(encoding="utf-8").splitlines()
    assert report[0].startswith("accuracy\t")


def test_pipeline_smoke_and_exit_codes(family_tsv, tmp_path, capsys):
    out_dir = tmp_path / "pipe"
    code = cli.run([
        "pipeline", "--data", str(family_tsv), "--system", "ortho_svm",
        "--mode", "cross-concept", "--out-dir", str(out_dir), "--seed", "5",
        "--c-grid", "1,10", "--folds", "5", "--svm-passes", "300",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "accuracy" in captured and "avg-precision" in captured
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "report.tsv").exists()
    assert (out_dir / "manifest.json").exists()


def test_pipeline_cross_family_requires_disjoint_sets(family_tsv, tmp_path):
    code = cli.run([
        "pipeline", "--data", str(family_tsv), "--system", "ortho_svm",
        "--mode", "cross-family", "--out-dir", str(tmp_path / "xfam"), "--seed", "5",
        "--train-families", "synthetica", "--test-families", "synthetica",
    ])
    assert code == 2  # overlapping families is a data error


def test_pipeline_rerun_is_byte_identical(family_tsv, tmp_path):
    args = [
        "pipeline", "--data", str(family_tsv), "--system", "manhattan",
        "--mode", "cross-concept", "--seed", "11", "--epochs", "2",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(args + ["--out-dir", str(dir_a)]) == 0
    assert cli.run(args + ["--out-dir", str(dir_b)]) == 0
    for name in ("report.txt", "report.tsv", "model.txt", "loss_history.tsv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


@pytest.mark.parametrize("command", ["pipeline", "train"])
def test_overflowing_c_is_a_usage_error_naming_it(command, family_tsv, tmp_path, capsys):
    args = [command, "--data", str(family_tsv), "--system", "ortho_svm", "--out-dir", str(tmp_path),
            "--seed", "5", "--c-grid", "1,1e160", "--folds", "5", "--svm-passes", "50"]
    if command == "pipeline":
        args += ["--mode", "cross-concept"]
    assert cli.run(args) == 1
    assert capsys.readouterr().err == ("cognet: usage error: the SVM descent overflowed for C = 1e+160; "
                                       "use a smaller C\n")
    assert not (tmp_path / "model.txt").exists()


def test_overflowing_c_prints_no_numpy_warning(family_tsv, tmp_path):
    # the descent notices the overflow itself; numpy's warnings would come first
    proc = subprocess.run([sys.executable, "-m", "cognet.cli", "pipeline", "--data", str(family_tsv),
                           "--system", "ortho_svm", "--mode", "cross-concept", "--seed", "7",
                           "--c-grid", "1e308", "--svm-passes", "20", "--out-dir", str(tmp_path)],
                          env=_checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "cognet: usage error: the SVM descent overflowed for C = 1e+308; use a smaller C\n"


# 1e308 overflows one batch's mean loss; at batch size 1 each loss stays
# finite, and the epoch's running sum overflows instead.
@pytest.mark.parametrize("margin, batch_size", [("1e308", "128"), ("1.5e308", "1")])
def test_overflowing_margin_is_a_usage_error_naming_it(margin, batch_size, family_tsv, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "cognet.cli", "train", "--data", str(family_tsv),
                           "--system", "siamese_euclid", "--seed", "7", "--epochs", "1", "--margin", margin,
                           "--batch-size", batch_size, "--out-dir", str(tmp_path)],
                          env=_checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == (f"cognet: usage error: margin {float(margin):g} "
                           "leaves the training loss non-finite (inf)\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["pipeline", "pmi-train"])
def test_overflowing_gap_penalty_is_a_usage_error_naming_it(command, family_tsv, tmp_path, capsys):
    # two gaps of -1e308 sum to -inf; the gap penalty's bound turns it away before any alignment
    out = tmp_path / "run"
    args = ["--data", str(family_tsv), "--seed", "7", "--gap-penalty=-1e308"]
    if command == "pipeline":
        args += ["--system", "pmi_svm", "--out-dir", str(out), "--mode", "cross-concept", *QUICK_SVM]
    else:
        args += ["--out", str(out / "pmi.tsv")]
    assert cli.run([command, *args]) == 1
    assert capsys.readouterr().err == "cognet: usage error: gap penalty -1e+308 is not in [-1e+300, 0)\n"
    assert not list(out.glob("report.*")) and not list(out.glob("pmi*.tsv"))


def test_pmi_matrix_with_gap_penalty_past_its_bound_is_a_data_error_naming_its_line(family_tsv, tmp_path,
                                                                                     capsys):
    matrix = tmp_path / "pmi.tsv"
    assert cli.run(["pmi-train", "--data", str(family_tsv), "--seed", "7", "--out", str(matrix)]) == 0
    assert cli.run(["train", "--data", str(family_tsv), "--system", "pmi_svm", "--seed", "7",
                    "--out-dir", str(tmp_path / "trained"), *QUICK_SVM]) == 0
    text = matrix.read_text(encoding="utf-8")
    line = text.split("\n").index("gap_penalty\t-2.5") + 1

    def record(gap: float) -> None:
        matrix.write_text(text.replace("gap_penalty\t-2.5", f"gap_penalty\t{gap!r}"), encoding="utf-8")

    # the bound itself loads, the next float past it does not
    record(-pmi.MAX_GAP_PENALTY)
    assert pmi.load_matrix(matrix).gap_penalty == -pmi.MAX_GAP_PENALTY
    record(float(np.nextafter(-pmi.MAX_GAP_PENALTY, -np.inf)))
    with pytest.raises(artifact.ArtifactError, match=f":{line}: gap_penalty: "):
        pmi.load_matrix(matrix)
    record(-1e308)
    out_dir = tmp_path / "run"
    capsys.readouterr()
    assert cli.run(["evaluate", "--data", str(family_tsv), "--system", "pmi_svm", "--seed", "7",
                    "--out-dir", str(out_dir), "--pmi-matrix", str(matrix),
                    "--model", str(tmp_path / "trained" / "model.txt")]) == 2
    assert capsys.readouterr().err == (f"cognet: data error: {matrix}:{line}: gap_penalty: "
                                       "gap penalty -1e+308 is not in [-1e+300, 0)\n")
    assert not list(out_dir.glob("report.*"))


# 1e150 never overflows, but no pass of the descent improves on its zero start.
@pytest.mark.parametrize("c_grid, warned", [("1", False), ("1e150", True)])
def test_an_all_zero_svm_is_reported(c_grid, warned, family_tsv, tmp_path, capsys):
    assert cli.run(["train", "--data", str(family_tsv), "--system", "ortho_svm", "--out-dir", str(tmp_path),
                    "--seed", "5", "--c-grid", c_grid, "--folds", "5", "--svm-passes", "50"]) == 0
    warning = f"cognet: warning: the SVM for C = {float(c_grid):g} is all zero:"
    assert (warning in capsys.readouterr().err) == warned


def _checkout_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's cognet."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _python(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this checkout's cognet."""
    return subprocess.run([sys.executable, "-c", code], env=_checkout_env(), capture_output=True, text=True,
                          check=True).stdout


# Minor page faults per step over steps 11-30 of Manhattan training on 128
# random pairs, with the heap kept as the CLI keeps it.
TRAINING_FAULTS = """
import resource
import numpy as np
from cognet import cli
from cognet.neural import model
from cognet.neural.adadelta import AdadeltaState, adadelta_step

cli._keep_freed_heap()
rng = np.random.default_rng(0)
net = model.build(model.ModelSpec("manhattan"), seed=0)
xa, xb = rng.integers(0, 2, (2, 128, 10, 16)).astype(np.float64)
y = rng.integers(0, 2, 128).astype(np.float64)
state = AdadeltaState.for_params(net.params)
for step in range(30):
    if step == 10:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, grads = net.loss_and_grads(xa, xb, y, rng=rng)
    adadelta_step(net.params, grads, state)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_kept_heap_ends_page_faults_in_training_steps():
    assert float(_python(TRAINING_FAULTS)) < 50


@pytest.mark.parametrize("error", [OSError, AttributeError])
def test_run_succeeds_without_mallopt(error, family_tsv, tmp_path, monkeypatch):
    lookups = []

    def no_mallopt(name):
        lookups.append(name)
        raise error("no mallopt")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_mallopt)
    out = tmp_path / "f.tsv"
    assert cli.run(["featurize", "--data", str(family_tsv), "--out", str(out), "--seed", "1"]) == 0
    assert out.exists()
    assert lookups == [None]


# Records each lookup of the process's own symbols, where mallopt is found.
OWN_SYMBOL_LOOKUPS = """
import ctypes
lookups = []
real_cdll = ctypes.CDLL
ctypes.CDLL = lambda name, *args, **kwargs: (lookups.append(name), real_cdll(name, *args, **kwargs))[1]
import cognet.cli as cli
print(lookups.count(None))
cli.run(['frobnicate'])
print(lookups.count(None))
"""


def test_importing_the_cli_leaves_the_allocator_alone():
    assert _python(OWN_SYMBOL_LOOKUPS).split() == ["0", "1"]


def test_config_file_supplies_defaults(family_tsv, tmp_path):
    config = tmp_path / "run.cfg"
    out = tmp_path / "cfg_features.tsv"
    config.write_text(
        f"[data]\ndata = {family_tsv}\n\n[run]\nseed = 4\nout = {out}\n",
        encoding="utf-8",
    )
    assert cli.run(["--config", str(config), "featurize"]) == 0
    assert out.exists()


def test_cli_flags_override_config(family_tsv, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("[run]\nseed = 4\n", encoding="utf-8")
    out = tmp_path / "override.tsv"
    assert cli.run([
        "--config", str(config), "featurize",
        "--data", str(family_tsv), "--out", str(out), "--seed", "9",
    ]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["options"]["seed"] == 9


def test_missing_config_file_exits_1(capsys):
    assert cli.run(["--config", "/nonexistent.cfg", "featurize"]) == 1


def test_config_file_that_is_not_utf8_is_a_usage_error_naming_it(family_tsv, tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes("[run]\n# café\nseed = 4\n".encode("latin-1"))
    code = cli.run(["--config", str(config), "featurize", "--data", str(family_tsv),
                    "--out", str(tmp_path / "f.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cognet: usage error: bad config file {config}: "), err
    assert "Traceback" not in err


def test_config_values_are_literal(family_tsv, tmp_path, monkeypatch):
    # '%' is no interpolation escape, and '%(seed)s' names no other key
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("[run]\nseed = 4\nout-dir = runs/100%\ntrain-families = %(seed)s\n",
                                      encoding="utf-8")
    assert cli.run(["--config", "run.cfg", "train", "--data", str(family_tsv), "--system", "ortho_svm",
                    *QUICK_SVM]) == 0
    assert (tmp_path / "runs" / "100%" / "model.txt").exists()
    manifest = json.loads((tmp_path / "runs" / "100%" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["options"]["out_dir"] == "runs/100%"
    assert manifest["options"]["train_families"] == "%(seed)s"


@pytest.mark.parametrize("args", [
    ["pmi-train", "--pseudocount", "1e306", "--out", "OUT/pmi.tsv"],
    ["train", "--system", "pmi_svm", "--pseudocount", "1e308", "--out-dir", "OUT/run"],
])
def test_pseudocount_too_large_for_finite_scores_is_a_usage_error(args, family_tsv, tmp_path, capsys):
    args = [a.replace("OUT", str(tmp_path)) for a in args]
    assert cli.run(args + ["--data", str(family_tsv), "--seed", "7"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"cognet: usage error: pseudocount 1e\+30[68] leaves a PMI score non-finite\n", err), err
    assert not list(tmp_path.rglob("*.tsv"))


@pytest.mark.parametrize("args", [
    ["pmi-train", "--out", "OUT/pmi.tsv"],
    ["train", "--system", "pmi_svm", "--out-dir", "OUT/run"],
])
def test_pseudocount_too_small_for_finite_scores_is_a_usage_error(args, family_tsv, tmp_path, capsys):
    args = [a.replace("OUT", str(tmp_path)) for a in args]
    assert cli.run(args + ["--data", str(family_tsv), "--seed", "7", "--pseudocount", "1e-200"]) == 1
    assert capsys.readouterr().err == "cognet: usage error: pseudocount 1e-200 leaves a PMI score non-finite\n"
    assert not list(tmp_path.rglob("*.tsv"))


@pytest.fixture(scope="module")
def every_system(family_tsv, tmp_path_factory):
    """Artifacts of a quick `cognet train` for all five systems, keyed by system."""
    root = tmp_path_factory.mktemp("every_system")
    for system in cli.SYSTEMS:
        assert cli.run(["train", "--data", str(family_tsv), "--system", system, "--out-dir", str(root / system),
                        "--seed", "3", "--epochs", "1", *QUICK_SVM]) == 0
    return root


@pytest.mark.parametrize("system", cli.SYSTEMS)
def test_repeated_pairs_score_as_when_every_pair_is_scored(system, every_system, family_tsv, tmp_path,
                                                            monkeypatch):
    family = wordlists.generate_pairs(wordlists.load_wordlist(family_tsv))
    assert len({p.forms for p in family}) < len(family)  # related languages share forms
    pairs = family + family[::-1][::3]  # more repeats, in a new order
    model_dir = every_system / system
    options = {"system": system, "model": str(model_dir / "model.txt"), "threshold": None,
               "pmi_matrix": str(model_dir / "pmi_matrix.tsv") if system == "pmi_svm" else None}
    artifacts = cli.load_artifacts(options)
    scored = []
    evaluate = cli.metrics.evaluate
    monkeypatch.setattr(cli.metrics, "evaluate",
                        lambda y, scores, **kw: scored.append(scores) or evaluate(y, scores, **kw))
    cli._score_and_report(options, artifacts, pairs, tmp_path, "repeats")
    # every pair scored in full, with no pair shared
    if system in cli.NEURAL_SYSTEMS:
        xa, xb, _ = encode_pairs(pairs, artifacts["net"].spec.pad_len)
        want = artifacts["net"].predict(xa, xb)
    else:
        def features(a, b):
            if system == "ortho_svm":
                return oracles.features_per_pair(a, b)
            return pmi.pmi_features(a, b, artifacts["pmi_matrix"])
        want = svm.decision_function(artifacts["svm"], np.array([features(*p.forms) for p in pairs]))
    assert len(scored) == 1 and np.array_equal(scored[0], want)


@pytest.fixture(scope="module")
def trained(family_tsv, tmp_path_factory):
    """Artifacts of a quick `cognet train` for three systems, keyed by system."""
    root = tmp_path_factory.mktemp("trained")
    for system, extra in (("two_channel", ["--epochs", "1"]), ("manhattan", ["--epochs", "1"]),
                          ("pmi_svm", ["--c-grid", "1", "--folds", "5", "--svm-passes", "50"])):
        assert cli.run(["train", "--data", str(family_tsv), "--system", system,
                        "--out-dir", str(root / system), "--seed", "3", *extra]) == 0
    return root


def _tensor_line(lines, tensor):
    return next(i for i, ln in enumerate(lines) if ln.startswith(f"tensor\t{tensor}\t"))


def _drop_tensor(tensor):
    def corrupt(lines):
        i = _tensor_line(lines, tensor)
        return lines[:i] + lines[i + 2:]
    return corrupt


def _drop_key(key):
    return lambda lines: [ln for ln in lines if not ln.startswith(key + "\t")]


def _values_after(tensor, edit):
    def corrupt(lines):
        i = _tensor_line(lines, tensor) + 1
        return lines[:i] + [edit(lines[i])] + lines[i + 1:]
    return corrupt


# (trained system, file, corruption, --system for evaluate, text the error names)
ARTIFACT_DEFECTS = {
    "checkpoint_without_out_w": ("two_channel", "model.txt", _drop_tensor("out_w"), "two_channel", "out_w"),
    "checkpoint_without_fc_units": ("two_channel", "model.txt", _drop_key("fc_units"), "two_channel",
                                    "fc_units"),
    "checkpoint_missing_last_line": ("two_channel", "model.txt", lambda lines: lines[:-1], "two_channel",
                                     "out_w"),
    "svm_model_without_weights": ("pmi_svm", "model.txt", _drop_tensor("weights"), "pmi_svm", "weights"),
    "svm_mean_row_short": ("pmi_svm", "model.txt", _values_after("mean", lambda v: v.split("\t")[0]),
                           "pmi_svm", "mean"),
    "pmi_matrix_nan_cell": ("pmi_svm", "pmi_matrix.tsv",
                            _values_after("scores", lambda v: "nan\t" + v.split("\t", 1)[1]),
                            "pmi_svm", "nan"),
    "pmi_matrix_positive_gap": ("pmi_svm", "pmi_matrix.tsv",
                                lambda lines: [("gap_penalty\t0.5" if ln.startswith("gap_penalty\t") else ln)
                                               for ln in lines],
                                "pmi_svm", "gap_penalty"),
    "checkpoint_of_other_system": ("two_channel", "model.txt", None, "manhattan", "two_channel"),
    "checkpoint_as_svm_model": ("manhattan", "model.txt", None, "ortho_svm", "checkpoint"),
}


@pytest.mark.parametrize("case", sorted(ARTIFACT_DEFECTS))
def test_defective_artifact_is_a_data_error_naming_file_and_line(case, trained, family_tsv, tmp_path,
                                                                 capsys):
    system, name, corrupt, eval_system, named = ARTIFACT_DEFECTS[case]
    files = {"model.txt": trained / system / "model.txt"}
    if system == "pmi_svm":
        files["pmi_matrix.tsv"] = trained / system / "pmi_matrix.tsv"
    if corrupt is not None:
        lines = files[name].read_text(encoding="utf-8").splitlines()
        files[name] = tmp_path / name
        files[name].write_text("".join(ln + "\n" for ln in corrupt(lines)), encoding="utf-8")
    args = ["evaluate", "--data", str(family_tsv), "--system", eval_system, "--seed", "3",
            "--model", str(files["model.txt"]), "--out-dir", str(tmp_path / "eval")]
    if eval_system == "pmi_svm":
        args += ["--pmi-matrix", str(files["pmi_matrix.tsv"])]
    assert cli.run(args) == 2
    err = capsys.readouterr().err
    assert re.search(re.escape(f"data error: {files[name]}:") + r"\d+: ", err), err
    assert named in err
    assert not (tmp_path / "eval" / "report.txt").exists()


def test_svm_model_with_a_byte_that_is_not_utf8_names_its_line(trained, family_tsv, tmp_path, capsys):
    raw = bytearray((trained / "pmi_svm" / "model.txt").read_bytes())
    at = raw.index(b"\ntensor\tmean\t") + 1
    raw[at] = 0xFF
    model = tmp_path / "model.txt"
    model.write_bytes(bytes(raw))
    line = raw.count(b"\n", 0, at) + 1
    assert cli.run(["evaluate", "--data", str(family_tsv), "--system", "pmi_svm", "--seed", "3",
                    "--model", str(model), "--pmi-matrix", str(trained / "pmi_svm" / "pmi_matrix.tsv"),
                    "--out-dir", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err == f"cognet: data error: {model}:{line}: not UTF-8: invalid start byte 0xff\n"


def _write_config(tmp_path, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    return ["--config", str(path)]


USAGE_ERRORS = {
    "filters_0": ["train", "--system", "manhattan", "--filters", "0"],
    "epochs_negative": ["train", "--system", "manhattan", "--epochs", "-1"],
    "batch_size_0": ["train", "--system", "two_channel", "--batch-size", "0"],
    "dropout_1": ["train", "--system", "manhattan", "--dropout", "1.0"],
    "kernel_exhausts_input": ["train", "--system", "manhattan", "--kernel", "11x3"],
    "kernel_malformed": ["train", "--system", "manhattan", "--kernel", "2x"],
    "c_grid_not_a_number": ["train", "--system", "ortho_svm", "--c-grid", "1,x"],
    "c_grid_not_positive": ["train", "--system", "ortho_svm", "--c-grid", "0,1"],
    "folds_1": ["train", "--system", "ortho_svm", "--folds", "1"],
    "svm_passes_negative": ["pipeline", "--system", "ortho_svm", "--svm-passes", "-3"],
    "cutoff_0": ["pmi-train", "--cutoff", "0", "--out", "OUT/pmi.tsv"],
    "train_fraction_1.5": ["pipeline", "--system", "ortho_svm", "--mode", "cross-concept",
                           "--train-fraction", "1.5"],
    "cross_family_without_families": ["pipeline", "--system", "ortho_svm", "--mode", "cross-family"],
    "train_families_only_commas": ["pipeline", "--system", "ortho_svm", "--mode", "cross-family",
                                   "--train-families", ",", "--test-families", "fam"],
    "test_families_blank": ["pipeline", "--system", "ortho_svm", "--mode", "cross-family",
                            "--train-families", "fam", "--test-families", " "],
    "config_c_grid": ["CONFIG:[svm]\nc_grid = 1,x\n", "train", "--system", "ortho_svm"],
    "config_kernel": ["CONFIG:[net]\nkernel = 2\n", "train", "--system", "manhattan"],
    "config_system": ["CONFIG:[run]\nsystem = nope\n", "train"],
    "config_epochs": ["CONFIG:[net]\nepochs = 1.5\n", "train", "--system", "manhattan"],
    "config_unknown_key": ["CONFIG:[net]\nepoch = 1\n", "train", "--system", "manhattan"],
    "margin_nan": ["train", "--system", "siamese_euclid", "--margin", "nan"],
    "pseudocount_nan": ["pmi-train", "--pseudocount", "nan", "--out", "OUT/pmi.tsv"],
    "gap_penalty_nan": ["pmi-train", "--gap-penalty", "nan", "--out", "OUT/pmi.tsv"],
    "tol_nan": ["pmi-train", "--tol", "nan", "--out", "OUT/pmi.tsv"],
    "threshold_nan": ["pipeline", "--system", "ortho_svm", "--mode", "cross-concept", "--threshold", "nan"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_bad_option_values_are_usage_errors(case, family_tsv, tmp_path, capsys):
    args = [a.replace("OUT", str(tmp_path)) for a in USAGE_ERRORS[case]]
    prefix = _write_config(tmp_path, args.pop(0)[len("CONFIG:"):]) if args[0].startswith("CONFIG:") else []
    common = ["--data", str(family_tsv), "--seed", "3"]
    if args[0] != "pmi-train":
        common += ["--out-dir", str(tmp_path / "run")]
    assert cli.run(prefix + args + common) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_config_key_is_named(family_tsv, tmp_path, capsys):
    prefix = _write_config(tmp_path, "[net]\nepoch = 1\n")
    assert cli.run(prefix + ["train", "--system", "manhattan", "--data", str(family_tsv), "--seed", "3",
                             "--out-dir", str(tmp_path / "run")]) == 1
    assert re.search(r"usage error: unknown config key\(s\) in .*: epoch$", capsys.readouterr().err.strip())


@pytest.fixture(scope="module")
def pairless_tsv(tmp_path_factory):
    """A word list whose words are all in one language, so it yields no pairs."""
    path = tmp_path_factory.mktemp("pairless") / "one_language.tsv"
    lexemes = synthetic.generate_family(n_concepts=12, n_languages=6, seed=7)
    wordlists.write_wordlist([lex for lex in lexemes if lex.language == lexemes[0].language], path)
    assert wordlists.load_wordlist(path) and not wordlists.generate_pairs(wordlists.load_wordlist(path))
    return path


# each command that reads word pairs, with what it needs besides --data and
# --seed; OUT is a scratch directory and TRAINED the `trained` fixture's root
PAIRLESS_RUNS = {
    "featurize": ["featurize", "--out", "OUT/f.tsv"],
    "pmi_train": ["pmi-train", "--out", "OUT/pmi.tsv"],
    "train_ortho_svm": ["train", "--system", "ortho_svm", "--out-dir", "OUT/run"],
    "train_manhattan": ["train", "--system", "manhattan", "--out-dir", "OUT/run"],
    "evaluate_pmi_svm": ["evaluate", "--system", "pmi_svm", "--model", "TRAINED/pmi_svm/model.txt",
                         "--pmi-matrix", "TRAINED/pmi_svm/pmi_matrix.tsv", "--out-dir", "OUT/eval"],
    "evaluate_two_channel": ["evaluate", "--system", "two_channel", "--model", "TRAINED/two_channel/model.txt",
                             "--out-dir", "OUT/eval"],
    "pipeline": ["pipeline", "--system", "ortho_svm", "--mode", "cross-concept", "--out-dir", "OUT/run"],
}


@pytest.mark.parametrize("case", sorted(PAIRLESS_RUNS))
def test_word_list_without_pairs_is_a_data_error_naming_the_file(case, pairless_tsv, trained, tmp_path,
                                                                  capsys):
    args = [a.replace("TRAINED", str(trained)).replace("OUT", str(tmp_path)) for a in PAIRLESS_RUNS[case]]
    args += ["--data", str(pairless_tsv), "--seed", "3"]
    assert cli.run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cognet: data error: {pairless_tsv}: no word pairs"), err
    assert "Traceback" not in err
