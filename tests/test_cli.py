import dataclasses
import gc
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cognet
from cognet import artifact, cli, phoneme, pmi, similarity, svm, synthetic, wordlists
from cognet.neural import encode_pairs, load_checkpoint
from cognet.neural import model as neural_model

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


# every command reads the seed; numpy's generators take no negative one
NEGATIVE_SEED_RUNS = {"featurize": ["featurize", "--out", "f.tsv"], "pmi-train": ["pmi-train", "--out", "pmi.tsv"]}
for _system in cli.SYSTEMS:
    NEGATIVE_SEED_RUNS[f"train-{_system}"] = ["train", "--system", _system, "--out-dir", "run"]
    NEGATIVE_SEED_RUNS[f"pipeline-{_system}"] = ["pipeline", "--system", _system, "--out-dir", "run",
                                                 "--mode", "cross-concept"]


@pytest.mark.parametrize("run", sorted(NEGATIVE_SEED_RUNS))
def test_negative_seed_is_a_usage_error_naming_it(run, family_tsv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run([*NEGATIVE_SEED_RUNS[run], "--data", str(family_tsv), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "cognet: usage error: --seed must be >= 0, got -1\n"
    assert not list(tmp_path.iterdir())


def test_negative_config_seed_is_a_usage_error_naming_it(family_tsv, tmp_path, capsys):
    prefix = _write_config(tmp_path, "[run]\nseed = -3\n")
    assert cli.run(prefix + ["train", "--data", str(family_tsv), "--system", "ortho_svm",
                             "--out-dir", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "cognet: usage error: --seed must be >= 0, got -3\n"
    assert not (tmp_path / "run").exists()


def test_an_escaping_exception_is_an_internal_error(family_tsv, tmp_path, monkeypatch, capsys):
    def crash(options):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "featurize", (crash, ("data", "out"), "crash"))
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
    assert capsys.readouterr().err == (f"cognet: data error: {data}:1: expected header "
                                       f"{list(wordlists.HEADER)}\n")


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
    assert code == 1  # overlapping family sets are a bad option, not bad data
    assert not (tmp_path / "xfam").exists()


# 16 lexemes of 17 to 24 symbols, longer than any synthetic word and than
# --pad-len: language, concept, ASJP form and cognate class
LONG_WORDS = """
L1 c1 patakumenilosaritu c1:a
L2 c1 batagumenilozaridu c1:a
L3 c1 patakumenilosaritukapa c1:a
L4 c1 sorimavekunilatopese c1:b
L1 c2 kolomanitesurapivonade c2:a
L2 c2 golomanidezurabivonate c2:a
L3 c2 kolomanitesurapiv c2:a
L4 c2 tivusanepolikamuredosa c2:b
L1 c3 merisatovakulinepodatu c3:a
L2 c3 merizadofagulinebodatu c3:a
L3 c3 nuvakesitolamiperoso c3:b
L4 c3 merisatovakulinepodatuk c3:a
L1 c4 sunapetirokomavilesu c4:a
L2 c4 zunabediroGomafilezu c4:a
L3 c4 sunapetirokomavilesukata c4:a
L4 c4 dakorimesupalivetona c4:b
"""


@pytest.fixture(scope="module")
def long_tsv(tmp_path_factory):
    path = tmp_path_factory.mktemp("long") / "long.tsv"
    rows = [wordlists.HEADER, *(["lng", *row.split()] for row in LONG_WORDS.strip().split("\n"))]
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    assert {len(lex.form) for lex in wordlists.load_wordlist(path)} <= set(range(17, 25))
    return path


# Each command that a same-seed rerun repeats byte for byte: its arguments
# besides --data and --seed, and every file it writes (MODEL is the root of
# the every_system fixture). Outputs are relative to the run's working
# directory, so the two runs' manifests match too.
def _in_run(*names: str) -> list[str]:
    return [f"run/{name}" for name in ("manifest.json", *names)]


_TRAINED = {"ortho_svm": ["model.txt", "cv_results.tsv"],
            "pmi_svm": ["model.txt", "cv_results.tsv", "pmi_matrix.tsv"],
            **{system: ["model.txt", "loss_history.tsv"] for system in cli.NEURAL_SYSTEMS}}
_REPORTED = ["report.tsv", "report.txt"]
_TRAINS = ["--out-dir", "run", "--epochs", "2", *QUICK_SVM]
_GIVEN_MATRIX = ["--pmi-matrix", "MODEL/pmi_svm/pmi_matrix.tsv"]
RERUNS = {
    "featurize": (["featurize", "--out", "features.tsv"], ["features.tsv", "manifest.json"]),
    "pmi-train": (["pmi-train", "--out", "pmi.tsv"], ["manifest.json", "pmi.tsv"]),
    # one batch of all pairs per step
    "train-manhattan-one-batch": (["train", "--system", "manhattan", *_TRAINS, "--batch-size", "1024"],
                                  _in_run(*_TRAINED["manhattan"])),
    "pipeline-pmi_svm-given-matrix": (["pipeline", "--system", "pmi_svm", "--mode", "cross-concept", *_TRAINS,
                                       *_GIVEN_MATRIX], _in_run(*_TRAINED["pmi_svm"], *_REPORTED)),
}
for _system in cli.SYSTEMS:
    RERUNS[f"train-{_system}"] = (["train", "--system", _system, *_TRAINS], _in_run(*_TRAINED[_system]))
    RERUNS[f"pipeline-{_system}"] = (["pipeline", "--system", _system, "--mode", "cross-concept", *_TRAINS],
                                     _in_run(*_TRAINED[_system], *_REPORTED))
    RERUNS[f"evaluate-{_system}"] = (["evaluate", "--system", _system, "--out-dir", "run",
                                      "--model", f"MODEL/{_system}/model.txt",
                                      *(_GIVEN_MATRIX if _system == "pmi_svm" else [])], _in_run(*_REPORTED))


@pytest.mark.parametrize("words", ["family_tsv", "long_tsv"])
@pytest.mark.parametrize("case", sorted(RERUNS))
def test_same_seed_rerun_is_byte_identical(case, words, every_system, tmp_path, monkeypatch, request):
    args, outputs = RERUNS[case]
    args = [a.replace("MODEL", str(every_system)) for a in args]
    args += ["--data", str(request.getfixturevalue(words)), "--seed", "11"]
    written = []
    for run in (tmp_path / "a", tmp_path / "b"):
        run.mkdir()
        monkeypatch.chdir(run)
        assert cli.run(args) == 0
        written.append({path.relative_to(run).as_posix(): path.read_bytes()
                        for path in run.rglob("*") if path.is_file()})
    assert sorted(written[0]) == sorted(outputs)
    for name in outputs:
        assert written[0][name] == written[1][name], name


@pytest.mark.parametrize("command", ["pipeline", "train"])
def test_overflowing_c_is_a_usage_error_naming_it(command, family_tsv, tmp_path, capsys):
    # C's bound turns 1e160 away before any SVM solve runs
    args = [command, "--data", str(family_tsv), "--system", "ortho_svm", "--out-dir", str(tmp_path),
            "--seed", "5", "--c-grid", "1,1e160", "--folds", "5", "--svm-passes", "50"]
    if command == "pipeline":
        args += ["--mode", "cross-concept"]
    assert cli.run(args) == 1
    assert capsys.readouterr().err == ("cognet: usage error: argument --c-grid: C grid '1,1e160': "
                                       "C 1e+160 is not in (0, 10000]\n")
    assert not (tmp_path / "model.txt").exists()


def test_c_past_its_bound_in_the_config_file_is_a_usage_error_naming_the_key(family_tsv, tmp_path, capsys):
    prefix = _write_config(tmp_path, "[svm]\nc_grid = 1e101\n")
    out = tmp_path / "run"
    assert cli.run(prefix + ["train", "--data", str(family_tsv), "--system", "ortho_svm", "--seed", "5",
                             "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == ("cognet: usage error: config key 'c_grid': C grid '1e101': "
                                       "C 1e+101 is not in (0, 10000]\n")
    assert not out.exists()


def test_overflowing_c_prints_no_numpy_warning(family_tsv, tmp_path):
    # C's bound turns 1e308 away before any numpy arithmetic could warn
    proc = subprocess.run([sys.executable, "-m", "cognet.cli", "pipeline", "--data", str(family_tsv),
                           "--system", "ortho_svm", "--mode", "cross-concept", "--seed", "7",
                           "--c-grid", "1e308", "--svm-passes", "20", "--out-dir", str(tmp_path)],
                          env=_checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ("cognet: usage error: argument --c-grid: C grid '1e308': "
                           "C 1e+308 is not in (0, 10000]\n")


# 1e308 overflows one batch's mean loss; at batch size 1 each loss stays
# finite, and the epoch's running sum overflows instead.
@pytest.mark.parametrize("margin, batch_size", [("1e308", "128"), ("1.5e308", "1")])
def test_overflowing_margin_is_a_usage_error_naming_it(margin, batch_size, family_tsv, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "cognet.cli", "train", "--data", str(family_tsv),
                           "--system", "siamese_euclid", "--seed", "7", "--epochs", "1", "--margin", margin,
                           "--batch-size", batch_size, "--out-dir", str(tmp_path)],
                          env=_checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == (f"cognet: usage error: --margin {float(margin):g} "
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
    assert capsys.readouterr().err == "cognet: usage error: --gap-penalty -1e+308 is not in [-1e+300, 0)\n"
    assert not out.exists()


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
                                       "gap_penalty -1e+308 is not in [-1e+300, 0)\n")
    assert not list(out_dir.glob("report.*"))


def test_pmi_matrix_with_a_score_past_its_bound_is_a_data_error_naming_its_line(every_system, family_tsv,
                                                                                tmp_path, capsys):
    matrix = tmp_path / "pmi.tsv"
    lines = (every_system / "pmi_svm" / "pmi_matrix.tsv").read_text(encoding="utf-8").split("\n")
    line = _tensor_line(lines, "scores") + 2
    cells = lines[line - 1].split("\t")

    def record(score: float) -> None:
        matrix.write_text("\n".join(lines[:line - 1] + ["\t".join([repr(score), *cells[1:]])] + lines[line:]),
                          encoding="utf-8")

    # the bound itself loads, the next float past it does not
    record(pmi.MAX_GAP_PENALTY)
    assert pmi.load_matrix(matrix).scores[0, 0] == pmi.MAX_GAP_PENALTY
    record(float(np.nextafter(-pmi.MAX_GAP_PENALTY, -np.inf)))
    with pytest.raises(artifact.ArtifactError, match=f":{line}: score -1.0000000000000002e\\+300 of 'p' and 'p' "):
        pmi.load_matrix(matrix)
    record(1e308)
    out_dir = tmp_path / "run"
    capsys.readouterr()
    assert cli.run(["evaluate", "--data", str(family_tsv), "--system", "pmi_svm", "--seed", "7",
                    "--out-dir", str(out_dir), "--pmi-matrix", str(matrix),
                    "--model", str(every_system / "pmi_svm" / "model.txt")]) == 2
    assert capsys.readouterr().err == (f"cognet: data error: {matrix}:{line}: "
                                       "score 1e+308 of 'p' and 'p' is not in [-1e+300, 1e+300]\n")
    assert not list(out_dir.glob("report.*"))


# Every score and the gap at their bound give alignment scores near 1e301,
# whose squares overflow; the SVM takes their moments without squaring them,
# so train writes a finite model and evaluate reads it back.
def test_pmi_matrix_at_its_bounds_trains_and_evaluates_a_finite_svm(family_tsv, tmp_path, capsys):
    signs = np.triu(np.random.default_rng(7).choice([-1.0, 1.0], size=(pmi.N, pmi.N)))
    matrix = tmp_path / "pmi.tsv"
    pmi.save_matrix(pmi.PMIMatrix(scores=pmi.MAX_GAP_PENALTY * (signs + np.triu(signs, 1).T),
                                  gap_penalty=-pmi.MAX_GAP_PENALTY), matrix)
    common = ["--data", str(family_tsv), "--system", "pmi_svm", "--seed", "7", "--pmi-matrix", str(matrix)]
    assert cli.run(["train", *common, "--out-dir", str(tmp_path / "train"), "--svm-passes", "50"]) == 0
    model = svm.load_model(tmp_path / "train" / "model.txt", "pmi_svm")
    assert np.isfinite(model.mean).all() and (model.std > 1e300).any()
    assert cli.run(["evaluate", *common, "--out-dir", str(tmp_path / "eval"),
                    "--model", str(tmp_path / "train" / "model.txt")]) == 0
    assert capsys.readouterr().err == ""


# save_model writes only a C that fit accepted, so a C past its bound is a malformed file
@pytest.mark.parametrize("C, shown", [("-1", "-1.0"), ("0", "0.0"), ("1e200", "1e+200")])
def test_svm_model_with_c_past_its_bound_is_a_data_error_naming_its_line(C, shown, every_system, family_tsv,
                                                                         tmp_path, capsys):
    model = tmp_path / "model.txt"
    lines = (every_system / "ortho_svm" / "model.txt").read_text(encoding="utf-8").split("\n")
    line = next(i for i, ln in enumerate(lines, 1) if ln.startswith("C\t"))
    lines[line - 1] = f"C\t{C}"
    model.write_text("\n".join(lines), encoding="utf-8")
    out_dir = tmp_path / "run"
    assert cli.run(["evaluate", "--data", str(family_tsv), "--system", "ortho_svm", "--seed", "7",
                    "--out-dir", str(out_dir), "--model", str(model)]) == 2
    assert capsys.readouterr().err == (f"cognet: data error: {model}:{line}: C: "
                                       f"C {shown} is not in (0, 10000]\n")
    assert not list(out_dir.glob("report.*"))


def _checkout_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's cognet."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _python(code: str, *args: str) -> str:
    """The stdout of ``code`` run with ``args`` in a fresh interpreter that imports this checkout's cognet."""
    return subprocess.run([sys.executable, "-c", code, *args], env=_checkout_env(), capture_output=True,
                          text=True, check=True).stdout


# The layers a bare `import cognet` loads, then the type of each name in cognet.__all__.
PACKAGE_NAMES = """
import json
import sys
import cognet
loaded = sorted(m for m in sys.modules if m.startswith("cognet."))
print(json.dumps([loaded, {name: type(getattr(cognet, name)).__name__ for name in cognet.__all__}]))
"""


def test_importing_the_package_loads_no_layer_and_every_public_name_resolves():
    loaded, kinds = json.loads(_python(PACKAGE_NAMES))
    assert loaded == []
    assert kinds == {name: "str" if name == "__version__" else "module" for name in cognet.__all__}
    assert not hasattr(cognet, "no_such_layer")


# Runs `python -m cognet.cli ARGS...`, then prints its exit code and every module it left loaded.
CLI_MODULES = """
import runpy
import sys
try:
    runpy.run_module("cognet.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules))
"""


def _cli_modules(*args: str) -> tuple[str, list[str]]:
    """The exit code of a fresh `python -m cognet.cli ARGS...` and the modules it loaded."""
    code, *modules = _python(CLI_MODULES, *args).splitlines()[-1].split()
    return code, modules


# the manifest digests its inputs with the interpreter's own SHA-256; hashlib would load OpenSSL
OPENSSL = ("hashlib", "_hashlib")

# per system: a layer its evaluate loads, and the prefixes of modules it must not load
EVALUATE_LOADS = {
    "ortho_svm": ("cognet.similarity", ("cognet.neural", "cognet.pmi", *OPENSSL)),
    "pmi_svm": ("cognet.pmi", ("cognet.neural", *OPENSSL)),
    **{system: ("cognet.neural.model", ("cognet.similarity", "cognet.pmi", "numpy.random", *OPENSSL))
       for system in cli.NEURAL_SYSTEMS},
}


@pytest.mark.parametrize("system", cli.SYSTEMS)
def test_evaluate_imports_only_the_layers_its_system_runs(system, every_system, family_tsv, tmp_path):
    model_dir = every_system / system
    args = ["evaluate", "--data", str(family_tsv), "--system", system, "--model", str(model_dir / "model.txt"),
            "--out-dir", str(tmp_path), "--seed", "3"]
    if system == "pmi_svm":
        args += ["--pmi-matrix", str(model_dir / "pmi_matrix.tsv")]
    code, modules = _cli_modules(*args)
    used, unused = EVALUATE_LOADS[system]
    assert code == "0" and used in modules
    assert [m for m in modules if m.startswith(unused)] == []


@pytest.mark.parametrize("command", [["featurize", "--out", "features.tsv"], ["pmi-train", "--out", "pmi.tsv"]])
def test_featurize_and_pmi_train_load_no_openssl(command, family_tsv, tmp_path):
    out = str(tmp_path / command[-1])
    code, modules = _cli_modules(*command[:-1], out, "--data", str(family_tsv), "--seed", "3")
    assert code == "0" and (tmp_path / "manifest.json").exists()
    assert [m for m in modules if m.startswith(OPENSSL)] == []


# np.unique imports numpy.ma; dealing the stratified folds no longer calls it
@pytest.mark.parametrize("system", svm.SYSTEMS)
def test_svm_training_loads_no_numpy_ma(system, family_tsv, tmp_path):
    code, modules = _cli_modules("train", "--data", str(family_tsv), "--system", system, "--out-dir", str(tmp_path),
                                 "--seed", "3", "--svm-passes", "50")
    assert code == "0" and (tmp_path / "model.txt").exists() and "cognet.svm" in modules
    assert [m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


def test_main_freezes_the_heap_only_at_interpreter_exit(family_tsv, tmp_path, monkeypatch):
    registered = []
    monkeypatch.setattr(cli.atexit, "register", registered.append)
    monkeypatch.setattr(sys, "argv", ["cognet", "featurize", "--data", str(family_tsv),
                                      "--out", str(tmp_path / "f.tsv"), "--seed", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0 and registered == [gc.freeze]
    assert gc.get_freeze_count() == 0  # the caller's objects stay collectable


# Runs `python -m cognet.cli ARGS...` and prints, after the exit handlers
# registered later have run, how many objects are frozen.
FROZEN_AT_EXIT = """
import atexit
import gc
import runpy
atexit.register(lambda: print(gc.get_freeze_count()))  # runs after the handlers the CLI registers
runpy.run_module("cognet.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("system, outputs", [("ortho_svm", ("cv_results.tsv",)),
                                             ("manhattan", ("loss_history.tsv",))])
def test_a_process_that_freezes_at_exit_writes_the_bytes_of_an_in_process_run(system, outputs, family_tsv,
                                                                              tmp_path):
    args = ["pipeline", "--data", str(family_tsv), "--system", system, "--mode", "cross-concept", "--seed", "5",
            "--epochs", "2", "--c-grid", "0.1,1,10", "--folds", "5", "--svm-passes", "200"]
    frozen = _python(FROZEN_AT_EXIT, *args, "--out-dir", str(tmp_path / "process"))
    assert int(frozen.splitlines()[-1]) > 0
    assert cli.run([*args, "--out-dir", str(tmp_path / "in-process")]) == 0
    for name in ("report.tsv", "model.txt", *outputs):
        assert (tmp_path / "process" / name).read_bytes() == (tmp_path / "in-process" / name).read_bytes(), name


# Runs the CLI on ARGS... with the interpreter's own SHA-256 modules blocked,
# then prints the module of the digest it took.
CLI_WITHOUT_BUILTIN_SHA256 = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from cognet import cli
assert cli.run(sys.argv[1:]) == 0
print(cli.sha256.__module__)
"""


def test_manifest_digest_falls_back_to_hashlib_without_the_builtin_sha256(family_tsv, tmp_path):
    out = tmp_path / "features.tsv"
    shown = _python(CLI_WITHOUT_BUILTIN_SHA256, "featurize", "--data", str(family_tsv), "--out", str(out),
                    "--seed", "3")
    assert shown.splitlines()[-1] == "_hashlib"
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {str(family_tsv): hashlib.sha256(family_tsv.read_bytes()).hexdigest()}


@pytest.mark.parametrize("args, code", [(["--help"], "0"),
                                         (["evaluate", "--system", "two_channel", "--seed", "1"], "1")])
def test_help_and_usage_errors_import_no_system_layer(args, code):
    exit_code, modules = _cli_modules(*args)
    assert exit_code == code and "cognet.svm" in modules  # the layers every system runs are loaded
    unused = ("cognet.similarity", "cognet.pmi", "cognet.neural", "numpy.random", "configparser")
    assert [m for m in modules if m.startswith(unused)] == []


# Minor page faults per step over steps 11-30 of training the architecture
# named by the second argument on random pairs, as many as the first, with
# the heap kept as the CLI keeps it.
TRAINING_FAULTS = """
import resource
import sys
import numpy as np
from cognet import cli
from cognet.neural import model
from cognet.neural.adadelta import AdadeltaState, adadelta_step

cli._keep_freed_heap()
rng = np.random.default_rng(0)
batch, architecture = int(sys.argv[1]), sys.argv[2]
net = model.build(model.ModelSpec(architecture), seed=0)
xa, xb = rng.integers(0, 2, (2, batch, 10, 16)).astype(np.float64)
y = rng.integers(0, 2, batch).astype(np.float64)
state = AdadeltaState.for_params(net.params)
for step in range(30):
    if step == 10:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, grads = net.loss_and_grads(xa, xb, y, rng=rng)
    adadelta_step(net.params, grads, state)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc settings")
@pytest.mark.parametrize("architecture, batch", [("manhattan", 128), ("manhattan", 512), ("manhattan", 1024),
                                                 ("siamese_euclid", 1024), ("two_channel", 1024)])
def test_kept_heap_ends_page_faults_in_training_steps(architecture, batch):
    assert float(_python(TRAINING_FAULTS, str(batch), architecture)) < 50


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


def test_config_default_section_is_read_as_any_other(family_tsv, tmp_path):
    # a file that holds only [DEFAULT] still supplies its keys
    config = _write_config(tmp_path, f"[DEFAULT]\nseed = 3\nout = {tmp_path / 'f.tsv'}\n")
    assert cli.run([*config, "featurize", "--data", str(family_tsv)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["options"]["seed"] == 3


@pytest.mark.parametrize("text, places", [
    ("[a]\nepochs = 1\n[b]\nepochs = 3\n", "[a] epochs = 1 and [b] epochs = 3"),
    ("[run]\nout-dir = runs/a\nout_dir = runs/b\n", "[run] out-dir = runs/a and [run] out_dir = runs/b"),
    ("[DEFAULT]\nepochs = 1\n[net]\nepochs = 3\n", "[DEFAULT] epochs = 1 and [net] epochs = 3"),
])
def test_config_option_given_two_values_is_a_usage_error_naming_both(family_tsv, tmp_path, capsys, text, places):
    config = _write_config(tmp_path, f"[data]\ndata = {family_tsv}\nseed = 7\n{text}")
    out = tmp_path / "run"
    code = cli.run([*config, "train", "--system", "manhattan", "--out-dir", str(out)])
    key = places.split()[1].replace("-", "_")
    assert (code, capsys.readouterr().err) == (
        1, f"cognet: usage error: config file {config[1]} gives {key!r} two values: {places}\n")
    assert not out.exists()


def test_config_option_given_one_value_in_two_places_is_accepted(family_tsv, tmp_path):
    out = tmp_path / "f.tsv"
    config = _write_config(tmp_path, f"[DEFAULT]\nseed = 4\nout = {out}\n[a]\nseed = 4\n[b]\nout = {out}\n"
                                     f"data = {family_tsv}\n[c]\nseed = 4\n")
    assert cli.run([*config, "featurize"]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["options"]["seed"] == 4


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
    (tmp_path / "run.cfg").write_text("[run]\nseed = 4\nout-dir = runs/%(seed)s-100%\n", encoding="utf-8")
    assert cli.run(["--config", "run.cfg", "train", "--data", str(family_tsv), "--system", "ortho_svm",
                    *QUICK_SVM]) == 0
    assert (tmp_path / "runs" / "%(seed)s-100%" / "model.txt").exists()
    manifest = json.loads((tmp_path / "runs" / "%(seed)s-100%" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["options"]["out_dir"] == "runs/%(seed)s-100%"


@pytest.mark.parametrize("args", [
    ["pmi-train", "--pseudocount", "1e306", "--out", "OUT/pmi.tsv"],
    ["train", "--system", "pmi_svm", "--pseudocount", "1e308", "--out-dir", "OUT/run"],
])
def test_pseudocount_too_large_for_finite_scores_is_a_usage_error(args, family_tsv, tmp_path, capsys):
    args = [a.replace("OUT", str(tmp_path)) for a in args]
    assert cli.run(args + ["--data", str(family_tsv), "--seed", "7"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"cognet: usage error: --pseudocount 1e\+30[68] is not in \[1e-100, 1e\+305\]\n", err), err
    assert not list(tmp_path.rglob("*.tsv"))


@pytest.mark.parametrize("args", [
    ["pmi-train", "--out", "OUT/pmi.tsv"],
    ["train", "--system", "pmi_svm", "--out-dir", "OUT/run"],
])
def test_pseudocount_too_small_for_finite_scores_is_a_usage_error(args, family_tsv, tmp_path, capsys):
    args = [a.replace("OUT", str(tmp_path)) for a in args]
    assert cli.run(args + ["--data", str(family_tsv), "--seed", "7", "--pseudocount", "1e-200"]) == 1
    assert capsys.readouterr().err == "cognet: usage error: --pseudocount 1e-200 is not in [1e-100, 1e+305]\n"
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
        forms, index, _ = encode_pairs(pairs, artifacts["net"].spec.pad_len)
        want = artifacts["net"].predict(forms, index)
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


# header lines whose spec cannot be built, and why
UNBUILDABLE_HEADERS = {
    "kernel\t11x3": "kernel (11, 3) exhausts the 10x16 input",
    "conv_filters\t0": "conv_filters 0 is not in [1, 256]",
    "pad_len\t3": "2x2 pooling exhausts the feature map",
    "conv_filters\t100000000": "conv_filters 100000000 is not in [1, 256]",
    "fc_units\t1000000000000": "fc_units 1000000000000 is not in [1, 4096]",
    "pad_len\t100000000000": "pad_len 100000000000 is not in [1, 128]",
}


@pytest.mark.parametrize("line", sorted(UNBUILDABLE_HEADERS))
def test_checkpoint_whose_spec_cannot_be_built_is_a_data_error_at_line_2(line, trained, family_tsv, tmp_path,
                                                                          capsys):
    key = line.split("\t")[0]
    model = tmp_path / "model.txt"
    model.write_text("".join((line if ln.startswith(key + "\t") else ln) + "\n" for ln in
                             (trained / "two_channel" / "model.txt").read_text(encoding="utf-8").splitlines()),
                     encoding="utf-8")
    message = f"{model}:2: header: {UNBUILDABLE_HEADERS[line]}"
    with pytest.raises(artifact.ArtifactError, match=f"^{re.escape(message)}$"):
        load_checkpoint(model, "two_channel")
    assert cli.run(["evaluate", "--data", str(family_tsv), "--system", "two_channel", "--seed", "3",
                    "--model", str(model), "--out-dir", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err == f"cognet: data error: {message}\n"


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
    "svm_passes_negative": ["pipeline", "--system", "ortho_svm", "--mode", "cross-concept",
                            "--svm-passes", "-3"],
    "cutoff_0": ["pmi-train", "--cutoff", "0", "--out", "OUT/pmi.tsv"],
    "train_fraction_1.5": ["pipeline", "--system", "ortho_svm", "--mode", "cross-concept",
                           "--train-fraction", "1.5"],
    "cross_family_without_families": ["pipeline", "--system", "ortho_svm", "--mode", "cross-family"],
    "train_families_only_commas": ["pipeline", "--system", "ortho_svm", "--mode", "cross-family",
                                   "--train-families", ",", "--test-families", "fam"],
    "test_families_blank": ["pipeline", "--system", "ortho_svm", "--mode", "cross-family",
                            "--train-families", "fam", "--test-families", " "],
    "families_overlap": ["pipeline", "--system", "ortho_svm", "--mode", "cross-family",
                         "--train-families", "famA", "--test-families", "famA,famB"],
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
    "margin_0": ["train", "--system", "siamese_euclid", "--margin", "0"],
    "tol_0": ["train", "--system", "pmi_svm", "--tol", "0"],
    "max_iterations_0": ["pmi-train", "--max-iterations", "0", "--out", "OUT/pmi.tsv"],
}

# A value that a library dataclass turns away is reported under the option
# that was typed, not the field it fills: each such case's whole message.
OPTION_NAMED_ERRORS = {
    "filters_0": "--filters 0 is not in [1, 256]",
    "dropout_1": "--dropout must be in [0, 1)",
    "kernel_exhausts_input": "--kernel (11, 3) exhausts the 10x16 input",
    "batch_size_0": "--batch-size must be >= 1",
    "epochs_negative": "--epochs must be >= 0",
    "margin_0": "--margin must be > 0",
    "cutoff_0": "--cutoff must be in (0, 1]",
    "tol_0": "--tol must be > 0",
    "max_iterations_0": "--max-iterations must be >= 1",
    "train_fraction_1.5": "--train-fraction must be in (0, 1)",
    "folds_1": "--folds must be >= 2",
    "svm_passes_negative": "--svm-passes must be >= 0",
    "cross_family_without_families": "--train-families names no family",
    "train_families_only_commas": "--train-families names no family",
    "test_families_blank": "--test-families names no family",
    "families_overlap": "--test-families shares famA with the train families",
}


# A refused run creates nothing, and it is refused before any input is read:
# with the word list missing, it is refused with the same message.
@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_bad_option_values_are_usage_errors(case, family_tsv, tmp_path, capsys):
    args = [a.replace("OUT", str(tmp_path)) for a in USAGE_ERRORS[case]]
    prefix = _write_config(tmp_path, args.pop(0)[len("CONFIG:"):]) if args[0].startswith("CONFIG:") else []
    if args[0] != "pmi-train":
        args += ["--out-dir", str(tmp_path / "run")]
    assert cli.run(prefix + args + ["--data", str(family_tsv), "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    if case in OPTION_NAMED_ERRORS:
        assert err == f"cognet: usage error: {OPTION_NAMED_ERRORS[case]}\n"
    assert not (tmp_path / "run").exists() and not (tmp_path / "pmi.tsv").exists()
    assert cli.run(prefix + args + ["--data", str(tmp_path / "missing.tsv"), "--seed", "3"]) == 1
    assert capsys.readouterr().err == err
    assert not (tmp_path / "run").exists() and not (tmp_path / "pmi.tsv").exists()


def test_each_option_defaults_to_the_library_default_of_its_field():
    fields = {f.name: f.default for cls in (neural_model.ModelSpec, neural_model.TrainConfig, pmi.PMIConfig,
                                            wordlists.SplitSpec) for f in dataclasses.fields(cls)}
    assert set(cli._FIELD_OPTIONS) == set(fields) - {"architecture"}  # the one that the CLI passes
    defaulted = set(cli._FIELD_OPTIONS) - {"seed", "mode"}  # the CLI requires a --seed, and pipeline a --mode
    assert len(defaulted) == 16
    for field in defaulted:
        assert cli._OPTIONS[cli._FIELD_OPTIONS[field]][1] == fields[field], field


# each size is rejected before anything is allocated: unbounded, they ask for petabytes
@pytest.mark.parametrize("command, option, field, value, bound", [
    ("train", "--filters", "conv_filters", "100000000", 256),
    ("pipeline", "--fc-units", "fc_units", "1000000000000", 4096),
    ("train", "--pad-len", "pad_len", "100000000000", 128),
])
def test_network_size_past_its_bound_is_a_usage_error_naming_it(command, option, field, value, bound,
                                                                 family_tsv, tmp_path, capsys):
    args = [command, "--system", "two_channel", "--data", str(family_tsv), "--seed", "3",
            "--out-dir", str(tmp_path / "run"), option, value]
    if command == "pipeline":
        args += ["--mode", "cross-concept"]
    assert cli.run(args) == 1
    assert capsys.readouterr().err == f"cognet: usage error: {option} {value} is not in [1, {bound}]\n"
    assert not (tmp_path / "run").exists()
    with pytest.raises(neural_model.InvalidSpec, match=f"^{field} {value} is not in"):  # the library names its field
        neural_model.ModelSpec("two_channel", **{field: int(value)})


# the manifest holds the options each run read and the digests of the files it
# read: (arguments besides --data and --seed, recorded options besides data and
# seed, files read besides --data).  An option that only another system reads,
# such as --tol or --pmi-matrix for ortho_svm, is accepted, ignored and not recorded.
_SVM_KEYS = {"system", "out_dir", "c_grid", "folds", "svm_passes"}
_PMI_KEYS = {"cutoff", "max_iterations", "tol", "pseudocount", "gap_penalty"}
MANIFEST_RUNS = {
    "featurize": (["featurize", "--out", "OUT/f.tsv"], {"out"}, []),
    "pmi_train": (["pmi-train", "--out", "OUT/pmi.tsv"], {"out"} | _PMI_KEYS, []),
    "train_manhattan": (["train", "--system", "manhattan", "--out-dir", "OUT", "--epochs", "1", "--tol", "0"],
                        {"system", "out_dir", "filters", "kernel", "fc_units", "dropout", "pad_len", "batch_size",
                         "epochs", "margin"}, []),
    "train_ortho_svm": (["train", "--system", "ortho_svm", "--out-dir", "OUT", *QUICK_SVM, "--filters", "0",
                         "--tol", "0", "--pmi-matrix", "nope.tsv"], _SVM_KEYS, []),
    "train_pmi_svm": (["train", "--system", "pmi_svm", "--out-dir", "OUT", *QUICK_SVM],
                      _SVM_KEYS | _PMI_KEYS | {"pmi_matrix"}, []),
    "train_pmi_svm_with_matrix": (["train", "--system", "pmi_svm", "--out-dir", "OUT", *QUICK_SVM, "--tol", "0",
                                   "--pmi-matrix", "TRAINED/pmi_svm/pmi_matrix.tsv"],
                                  _SVM_KEYS | {"pmi_matrix"}, ["TRAINED/pmi_svm/pmi_matrix.tsv"]),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_RUNS))
def test_manifest_holds_the_options_and_files_the_run_read(case, family_tsv, trained, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args, keys, files = ([a.replace("TRAINED", str(trained)).replace("OUT", str(tmp_path)) for a in part]
                         for part in MANIFEST_RUNS[case])
    assert cli.run([*args, "--data", str(family_tsv), "--seed", "3"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["options"]) == set(keys) | {"data", "seed"}
    assert manifest["inputs"] == {f: hashlib.sha256(Path(f).read_bytes()).hexdigest()
                                  for f in [str(family_tsv), *files]}


def test_manifest_digests_an_input_as_it_was_read_before_an_output_overwrites_it(family_tsv, tmp_path):
    same = tmp_path / "same.tsv"
    same.write_bytes(family_tsv.read_bytes())
    assert cli.run(["featurize", "--data", str(same), "--out", str(same), "--seed", "3"]) == 0
    assert same.read_bytes() != family_tsv.read_bytes()  # the feature file replaced the word list
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {str(same): hashlib.sha256(family_tsv.read_bytes()).hexdigest()}


# each split mode reads and records only its own SplitSpec fields; an option only
# the other mode reads is accepted, ignored and not recorded, a bad value included:
# (mode options, stray options, recorded split options)
SPLIT_RUNS = {
    "cross_concept": (["--mode", "cross-concept"], ["--train-families", "famA", "--test-families", "famA"],
                      {"train_fraction"}),
    "cross_family": (["--mode", "cross-family", "--train-families", "famA", "--test-families", "famB"],
                     ["--train-fraction", "1.5"], {"train_families", "test_families"}),
}


@pytest.mark.parametrize("case", sorted(SPLIT_RUNS))
def test_pipeline_records_only_the_split_fields_its_mode_reads(case, tmp_path):
    data = tmp_path / "two_families.tsv"
    wordlists.write_wordlist([*synthetic.generate_family(n_concepts=6, n_languages=4, seed=3, family="famA"),
                              *synthetic.generate_family(n_concepts=6, n_languages=4, seed=4, family="famB")], data)
    mode, stray, recorded = SPLIT_RUNS[case]
    out_dir = tmp_path / "run"
    assert cli.run(["pipeline", "--data", str(data), "--system", "ortho_svm", "--out-dir", str(out_dir),
                    "--seed", "3", *QUICK_SVM, *mode, *stray]) == 0
    options = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["options"]
    split_options = {"train_fraction", "train_families", "test_families"}
    assert split_options & set(options) == recorded
    assert options["mode"] == mode[1]
    if case == "cross_family":
        assert (options["train_families"], options["test_families"]) == (["famA"], ["famB"])


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
