"""Round-trip and corruption properties of the one artifact format."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cognet import artifact, cli, pmi, svm, synthetic, wordlists
from cognet.neural import ARCHITECTURES, Model, ModelSpec, load_checkpoint, save_checkpoint
from cognet.artifact import ArtifactError

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and bits, so -0.0 and 0.0 differ."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def linear_models(draw):
    dim = draw(st.integers(1, 6))
    return svm.LinearModel(
        weights=draw(arrays(np.float64, dim, elements=FINITE)),
        bias=draw(FINITE),
        mean=draw(arrays(np.float64, dim, elements=FINITE)),
        std=draw(arrays(np.float64, dim, elements=POSITIVE)),
        C=draw(POSITIVE),
    )


@SETTINGS
@given(model=linear_models(), system=st.sampled_from(svm.SYSTEMS))
def test_svm_model_round_trip_is_exact(model, system, tmp_path):
    path = tmp_path / "model.txt"
    svm.save_model(model, path, system)
    loaded = svm.load_model(path, system, len(model.weights))
    for name in ("weights", "mean", "std"):
        assert _same(getattr(loaded, name), getattr(model, name)), name
    assert _same(np.float64(loaded.bias), np.float64(model.bias))
    assert loaded.C == model.C


@SETTINGS
@given(scores=arrays(np.float64, (pmi.N, pmi.N), elements=FINITE),
       gap=st.floats(min_value=-pmi.MAX_GAP_PENALTY, max_value=0.0, exclude_max=True))
def test_pmi_matrix_round_trip_is_exact(scores, gap, tmp_path):
    path = tmp_path / "matrix.tsv"
    pmi.save_matrix(pmi.PMIMatrix(scores=scores, gap_penalty=gap), path)
    loaded = pmi.load_matrix(path)
    assert _same(loaded.scores, scores)
    assert loaded.gap_penalty == gap


@st.composite
def models(draw):
    spec = ModelSpec(
        architecture=draw(st.sampled_from(ARCHITECTURES)),
        conv_filters=draw(st.integers(1, 3)),
        kernel=(draw(st.integers(1, 2)), draw(st.integers(1, 3))),
        fc_units=draw(st.integers(1, 3)),
        dropout_rate=draw(st.floats(0.0, 1.0, exclude_max=True)),
        pad_len=draw(st.integers(4, 10)),
    )
    model = Model(spec)
    for name, tensor in model.params.items():
        model.params[name] = draw(arrays(np.float64, tensor.shape, elements=FINITE))
    return model


@SETTINGS
@given(model=models())
def test_checkpoint_round_trip_is_exact(model, tmp_path):
    path = tmp_path / "model.txt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, model.spec.architecture)
    assert loaded.spec == model.spec
    assert loaded.params.keys() == model.params.keys()
    for name, tensor in model.params.items():
        assert _same(loaded.params[name], tensor), name


def _svm_file(path):
    model = svm.fit(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 2.0], [2.0, 0.0]]), [1, 0, 1, 0], passes=20)
    svm.save_model(model, path, "pmi_svm")
    return lambda p: svm.load_model(p, "pmi_svm", 2)


def _pmi_file(path):
    pmi.save_matrix(pmi.estimate_pmi([("pVt", "fVt")] * 4 + [("kVs", "kVs")] * 2), path)
    return pmi.load_matrix


def _checkpoint_file(path):
    save_checkpoint(Model(ModelSpec("two_channel", conv_filters=2, fc_units=2), seed=1), path)
    return lambda p: load_checkpoint(p, "two_channel")


WRITERS = {"svm-model": _svm_file, "pmi-matrix": _pmi_file, "checkpoint": _checkpoint_file}
# junk that no writer ever produces: none of the letters or digits of a key, tensor or value
JUNK = st.text(alphabet="#@?!; \t", max_size=12)


def _corrupt(text: str, data) -> str:
    """Cut the file short anywhere, or replace one of its lines with junk."""
    if data.draw(st.booleans(), label="truncate"):
        return text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
    lines = text.split("\n")[:-1]
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[i] = data.draw(JUNK.filter(lambda junk: junk != lines[i]), label="junk")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("kind", sorted(WRITERS))
@SETTINGS
@given(data=st.data())
def test_any_truncation_or_junk_line_raises_artifact_error(kind, data, tmp_path):
    good = tmp_path / "good.txt"
    load = WRITERS[kind](good)
    load(good)  # the uncorrupted file loads
    bad = tmp_path / "bad.txt"
    bad.write_text(_corrupt(good.read_text(encoding="utf-8"), data), encoding="utf-8")
    with pytest.raises(ArtifactError) as info:
        load(bad)
    assert str(info.value).startswith(f"{bad}:{info.value.line}: ")
    assert info.value.line >= 1


def test_artifact_error_is_a_value_error():
    assert issubclass(ArtifactError, ValueError)
    assert str(ArtifactError("m.txt", 3, "bad")) == "m.txt:3: bad"


def test_loader_rejects_wrong_kind_and_unknown_version(tmp_path):
    path = tmp_path / "m.txt"
    _svm_file(path)
    with pytest.raises(ArtifactError, match=":1: .*'checkpoint'"):
        load_checkpoint(path)
    path.write_text(path.read_text(encoding="utf-8").replace("\t1\t", "\t2\t", 1), encoding="utf-8")
    with pytest.raises(ArtifactError, match=":1: .*version 2"):
        svm.load_model(path)


def test_recorded_system_must_match(tmp_path):
    path = tmp_path / "m.txt"
    _checkpoint_file(path)
    assert load_checkpoint(path).spec.architecture == "two_channel"
    with pytest.raises(ArtifactError, match=":2: trained for 'two_channel', not 'manhattan'"):
        load_checkpoint(path, "manhattan")
    _svm_file(path)
    with pytest.raises(ArtifactError, match=":2: trained for 'pmi_svm', not 'ortho_svm'"):
        svm.load_model(path, "ortho_svm")
    with pytest.raises(ArtifactError, match=":3: dim: 2 features, expected 33"):
        svm.load_model(path, "pmi_svm", 33)


def test_duplicate_header_key_and_duplicate_tensor_are_rejected(tmp_path):
    path = tmp_path / "m.txt"
    _svm_file(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:3] + lines[2:]), encoding="utf-8")
    with pytest.raises(ArtifactError, match=":4: "):
        svm.load_model(path)
    path.write_text("".join(lines + lines[-2:]), encoding="utf-8")
    with pytest.raises(ArtifactError, match=f":{len(lines) + 1}: "):
        svm.load_model(path)


def test_zero_feature_scale_is_rejected(tmp_path):
    path = tmp_path / "m.txt"
    _svm_file(path)
    text = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(text) if line.startswith("tensor\tstd\t"))
    text[i + 1] = "0.0\t1.0\n"
    path.write_text("".join(text), encoding="utf-8")
    with pytest.raises(ArtifactError, match=f":{i + 2}: feature scales"):
        svm.load_model(path)


def test_dims_parse_and_format():
    assert artifact.parse_dims("2x3") == (2, 3)
    assert artifact.format_dims((35, 35)) == "35x35"
    for bad in ("", "2x", "0x3", "-1", "ax3"):
        with pytest.raises(ValueError):
            artifact.parse_dims(bad)


@pytest.fixture(scope="module")
def trained_small(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    data = root / "family.tsv"
    wordlists.write_wordlist(synthetic.generate_family(n_concepts=6, n_languages=4, seed=2), data)
    with contextlib.redirect_stdout(io.StringIO()):
        for system in ("manhattan", "pmi_svm"):
            assert cli.run(["train", "--data", str(data), "--system", system, "--seed", "1",
                            "--out-dir", str(root / system), "--epochs", "1",
                            "--c-grid", "1", "--folds", "2", "--svm-passes", "10"]) == 0
    return root, data


@settings(max_examples=25, deadline=None)
@given(target=st.sampled_from([("manhattan", "model.txt"), ("pmi_svm", "model.txt"),
                               ("pmi_svm", "pmi_matrix.tsv")]), data=st.data())
def test_cli_never_exits_with_a_traceback_on_a_corrupted_artifact(trained_small, target, data):
    root, words = trained_small
    system, name = target
    files = {n: root / system / n for n in ("model.txt", "pmi_matrix.tsv")}
    bad = root / f"bad_{name}"
    text = files[name].read_text(encoding="utf-8")
    named = f"{bad}:"
    if data.draw(st.booleans(), label="byte"):  # the files are ASCII, so any byte >= 0x80 is not UTF-8
        raw = bytearray(text.encode("utf-8"))
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        raw[at] = data.draw(st.integers(0x80, 0xFF), label="value")
        bad.write_bytes(bytes(raw))
        line = raw.count(b"\n", 0, at) + 1
        named += f"{line}: not UTF-8: "
    else:
        bad.write_text(_corrupt(text, data), encoding="utf-8")
    files[name] = bad
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["evaluate", "--data", str(words), "--system", system, "--seed", "1",
                        "--model", str(files["model.txt"]), "--pmi-matrix", str(files["pmi_matrix.tsv"]),
                        "--out-dir", str(root / "eval")])
    assert code == 2
    assert err.getvalue().startswith(f"cognet: data error: {named}"), err.getvalue()
