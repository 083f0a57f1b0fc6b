"""Command-line front end for featurization, training, and evaluation runs.

Subcommands: featurize, pmi-train, train, evaluate, pipeline.  Options can
come from an INI-style config file (``key = value`` under ``[section]``
headers) with command-line flags taking precedence.  Every run writes a
manifest (the options it read plus digests of the files it read) next to
its outputs, and all randomness flows from the single ``--seed``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error (an
exception no check expected; its traceback is printed).
"""

from __future__ import annotations

import argparse
import atexit
import ctypes
import dataclasses
import gc
import json
import sys
import traceback
from pathlib import Path

import numpy as np

try:  # the interpreter's own SHA-256, as random.py takes its sha512: hashlib loads OpenSSL
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

# the layers every system runs; each system's own layers are imported where it runs
from . import artifact, metrics, svm, wordlists
from .svm import decision_function, grid_search_cv

NEURAL_SYSTEMS = ("manhattan", "two_channel", "siamese_euclid")
SYSTEMS = svm.SYSTEMS + NEURAL_SYSTEMS

# bad input: each data exception derives from artifact.DataError; a bare ValueError is a bug
DATA_ERRORS = (OSError, artifact.DataError)


class UsageError(Exception):
    pass


# the option that fills each field of the library configs, and that a usage error names for it
_FIELD_OPTIONS = {
    "conv_filters": "filters", "kernel": "kernel", "fc_units": "fc_units", "dropout_rate": "dropout",
    "pad_len": "pad_len", "batch_size": "batch_size", "epochs": "epochs", "margin": "margin", "seed": "seed",
    "initial_cutoff": "cutoff", "max_iterations": "max_iterations", "convergence_tol": "tol",
    "pseudocount": "pseudocount", "gap_penalty": "gap_penalty", "mode": "mode",
    "train_fraction": "train_fraction", "train_families": "train_families", "test_families": "test_families",
}


def _config(cls, options: dict, names=(), **given):
    """``cls`` with each field of ``names`` (default: all not ``given``) read from its option, the rest defaulted.

    An invalid value is a usage error.
    """
    names = names or [f.name for f in dataclasses.fields(cls) if f.name not in given]
    try:
        return cls(**{name: options[_FIELD_OPTIONS[name]] for name in names}, **given)
    except ValueError as exc:
        raise UsageError(exc) from exc


_INPUTS = ("data", "model", "pmi_matrix")  # the options that name a file the run reads


class _Options(dict):
    """The resolved options; ``read`` holds each one the run has read, by key, and ``inputs`` the
    SHA-256 digest of each file they name, taken as its option is first read: before any output exists.
    """

    def __init__(self, values: dict):
        super().__init__(values)
        self.read, self.inputs = {}, {}

    def __getitem__(self, key):
        self.read[key] = value = super().__getitem__(key)
        if key in _INPUTS and value and value not in self.inputs:
            self.inputs[value] = sha256(Path(value).read_bytes()).hexdigest()
        return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _write_tsv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in [header, *rows]:
            fh.write("\t".join(row) + "\n")


def _load_config(path: str | None) -> dict[str, str]:
    """Flatten the key = value pairs of every section, [DEFAULT] too, into 'key' -> value.

    A key given in two places (two sections, or ``out-dir`` beside
    ``out_dir``) must have the same value in both.
    """
    if path is None:
        return {}
    import configparser
    # values are literal: '%' is no escape; no header names the section "", so [DEFAULT]
    # is read as any other section and lends no key to the others
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"bad config file {path}: {exc}") from exc
    if not read:
        raise UsageError(f"config file not found: {path}")
    config, places = {}, {}
    for section in parser.sections():
        for name, value in parser.items(section):
            key, place = name.replace("-", "_"), f"[{section}] {name} = {value}"
            if config.setdefault(key, value) != value:
                raise UsageError(f"config file {path} gives {key!r} two values: {places[key]} and {place}")
            places.setdefault(key, place)
    unknown = sorted(set(config) - set(_OPTIONS))
    if unknown:
        raise UsageError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    return config


def _resolve(args: argparse.Namespace, config: dict[str, str], key: str, cast, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key not in config:
        return default
    try:
        value = cast(config[key])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc
    if key in _CHOICES and value not in _CHOICES[key]:
        raise UsageError(f"config key {key!r}: {value!r} is not one of {_CHOICES[key]}")
    return value


def _parse_kernel(text: str) -> tuple[int, int]:
    try:
        kh, kw = artifact.parse_dims(text.lower().replace(",", "x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"kernel must look like '2x3', got {text!r}") from None
    return kh, kw


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(svm.check_C(float(v)) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"C grid {text!r}: {exc}") from None


def _families(text: str) -> frozenset[str]:
    """The family names of a comma list."""
    return frozenset(f.strip() for f in text.split(",") if f.strip())


_ALL = ("featurize", "pmi-train", "train", "evaluate", "pipeline")
_FIT = ("train", "pipeline")
_RUN = ("train", "evaluate", "pipeline")
_PMI = ("pmi-train", "train", "pipeline")  # the commands that may estimate a PMI matrix

# Every option: its parser, default, the subcommands that take it as a flag,
# and its help.  Any option may also come from the config file.
_OPTIONS = {
    "data": (str, None, _ALL, "word-list TSV"),
    "seed": (int, None, _ALL, "master random seed (required)"),
    "out": (str, None, ("featurize", "pmi-train"), "output file"),
    "cutoff": (artifact.finite_float, 0.5, _PMI, None),
    "max_iterations": (int, 10, _PMI, None),
    "tol": (artifact.finite_float, 1e-4, _PMI, None),
    "pseudocount": (artifact.finite_float, 1.0, _PMI, None),
    "gap_penalty": (artifact.finite_float, -2.5, _PMI, None),
    "system": (str, None, _RUN, None),
    "out_dir": (str, None, _RUN, None),
    "model": (str, None, ("evaluate",), "checkpoint (neural) or model file (svm)"),
    "pmi_matrix": (str, None, _RUN, "saved PMI matrix (pmi_svm)"),
    "epochs": (int, 20, _FIT, None),
    "batch_size": (int, 128, _FIT, None),
    "margin": (artifact.finite_float, 1.0, _FIT, None),
    "kernel": (_parse_kernel, (2, 3), _FIT, None),
    "filters": (int, 10, _FIT, None),
    "fc_units": (int, 8, _FIT, None),
    "dropout": (artifact.finite_float, 0.5, _FIT, None),
    "pad_len": (int, 10, _FIT, None),
    "c_grid": (_parse_grid, (0.01, 0.1, 1.0, 10.0, 100.0), _FIT, None),
    "folds": (int, 10, _FIT, None),
    "svm_passes": (int, 2000, _FIT, "cap on the Newton steps of each SVM fit, which ends on its own in a few"),
    "threshold": (artifact.finite_float, None, ("evaluate", "pipeline"), None),
    "mode": (str, None, ("pipeline",), None),
    "train_fraction": (artifact.finite_float, 0.7, ("pipeline",), None),
    "train_families": (_families, frozenset(), ("pipeline",), None),
    "test_families": (_families, frozenset(), ("pipeline",), None),
}
_CHOICES = {"system": SYSTEMS, "mode": wordlists.MODES}


def build_parser() -> _Parser:
    parser = _Parser(prog="cognet", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="INI config file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, (cast, _, commands, option_help) in _OPTIONS.items():
            if command in commands:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=cast,
                               choices=_CHOICES.get(key), help=option_help)
    return parser


def _require(options: dict, *keys: str) -> None:
    missing = [k for k in keys if options.get(k) is None]  # a check, not a read: nothing is recorded or hashed
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _load_pairs(options: dict) -> tuple[list[wordlists.Lexeme], list[wordlists.WordPair]]:
    lexemes = wordlists.load_wordlist(options["data"])
    pairs = wordlists.generate_pairs(lexemes)
    if not pairs:
        raise wordlists.NoPairs(f"{options['data']}: no word pairs (no concept has words in two languages)")
    return lexemes, pairs


def _out_dir(options: dict) -> Path:
    out_dir = Path(options["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _finish(out_dir: Path, command: str, options: _Options, message: str) -> int:
    """Write the manifest of the options the run read and the input files among them; print ``message``."""
    manifest = {"command": command, "options": options.read, "inputs": options.inputs}
    (out_dir / "manifest.json").write_text(  # a family set is recorded as its sorted names
        json.dumps(manifest, indent=2, sort_keys=True, default=sorted) + "\n", encoding="utf-8")
    print(message, end="" if message.endswith("\n") else "\n")
    return 0


def features_for(system: str, pairs: list[wordlists.WordPair], artifacts: dict):
    """What ``system`` classifies for each distinct pair of forms, and each pair's row among them.

    A ConvNet classifies (forms, index): the rendered distinct forms and each
    distinct pair's two rows in them.  An SVM classifies a feature matrix.
    """
    forms, index, row = wordlists.form_table([p.forms for p in pairs])
    if system in NEURAL_SYSTEMS:
        from .neural import model as neural_model
        return (neural_model.render(forms, artifacts["net"].spec.pad_len), index), row
    if system == "pmi_svm":
        from . import pmi
        feats = np.empty((len(index), len(pmi.FEATURE_NAMES)))
        for k, (a, b) in enumerate(index.tolist()):
            feats[k] = pmi.pmi_features(forms[a], forms[b], artifacts["pmi_matrix"])
        return feats, row
    from . import similarity
    return similarity.feature_matrix(forms, index), row


def _g(value: float) -> str:
    return format(value, ".12g")


def cmd_featurize(options: dict) -> int:
    from . import similarity
    _, pairs = _load_pairs(options)
    out = Path(options["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    header = ["family", "concept", "language_a", "form_a", "language_b", "form_b", "label"]
    feats, row = features_for("ortho_svm", pairs, {})
    _write_tsv(out, header + list(similarity.FEATURE_NAMES), (
        [p.family, p.concept, p.a.language, p.a.form, p.b.language, p.b.form, str(p.label)]
        + [_g(v) for v in feats[k]]
        for p, k in zip(pairs, row)
    ))
    return _finish(out.parent, "featurize", options, f"wrote {len(pairs)} feature rows to {out}")


def cmd_pmi_train(options: dict) -> int:
    from . import pmi
    cfg = _config(pmi.PMIConfig, options)
    _, pairs = _load_pairs(options)
    matrix = pmi.estimate_pmi([p.forms for p in pairs], cfg)
    out = Path(options["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    pmi.save_matrix(matrix, out)
    return _finish(out.parent, "pmi-train", options,
                   f"PMI matrix written to {out} (iterations={matrix.iterations}, "
                   f"delta={matrix.final_delta:.3g}, converged={matrix.converged})")


def _training(options: dict) -> dict:
    """Check the training options and build the ``cfg``, ``spec`` or ``pmi_matrix`` it takes, before any input."""
    system = options["system"]
    if system in NEURAL_SYSTEMS:
        from .neural import model as neural_model
        return {"spec": _config(neural_model.ModelSpec, options, architecture=system),
                "cfg": _config(neural_model.TrainConfig, options)}
    if options["folds"] < 2:
        raise UsageError("--folds must be >= 2")
    if options["svm_passes"] < 0:
        raise UsageError("--svm-passes must be >= 0")
    if system != "pmi_svm":
        return {}
    from . import pmi
    return ({"pmi_matrix": pmi.load_matrix(options["pmi_matrix"])} if options["pmi_matrix"] else
            {"cfg": _config(pmi.PMIConfig, options)})


def _train_system(options: dict, training: dict, train_pairs: list[wordlists.WordPair], out_dir: Path) -> dict:
    """Train the chosen system with ``training``, write its artifacts to ``out_dir`` and return them."""
    system, seed = options["system"], options["seed"]
    if system in NEURAL_SYSTEMS:
        from .neural import model as neural_model
        net = neural_model.build(training["spec"], seed=seed)
        _, history = neural_model.train(net, neural_model.encode_pairs(train_pairs, net.spec.pad_len),
                                        training["cfg"])
        neural_model.save_checkpoint(net, out_dir / "model.txt")
        _write_tsv(out_dir / "loss_history.tsv", ["epoch", "mean_loss"],
                   ([str(epoch), _g(loss)] for epoch, loss in enumerate(history, 1)))
        return {"net": net}

    artifacts = {}
    if system == "pmi_svm":
        from . import pmi
        matrix = training.get("pmi_matrix") or pmi.estimate_pmi([p.forms for p in train_pairs], training["cfg"])
        pmi.save_matrix(matrix, out_dir / "pmi_matrix.tsv")
        artifacts["pmi_matrix"] = matrix
    feats, row = features_for(system, train_pairs, artifacts)
    X = feats[row]  # every repeat stays a training row
    del feats  # only X is read from here on
    y = np.array([p.label for p in train_pairs])
    search = grid_search_cv(X, y, C_grid=options["c_grid"], folds=options["folds"],
                            seed=seed, passes=options["svm_passes"])
    model = artifacts["svm"] = svm.fit(X, y, C=search.best_C, passes=options["svm_passes"])
    svm.save_model(model, out_dir / "model.txt", system)
    _write_tsv(out_dir / "cv_results.tsv", ["C", "mean_accuracy"],
               ([_g(c), _g(search.cv_scores[c])] for c in sorted(search.cv_scores)))
    return artifacts


def load_artifacts(options: dict) -> dict:
    """Read what ``--system`` was trained into; each file must record that system."""
    system = options["system"]
    if system in NEURAL_SYSTEMS:
        from .neural import model as neural_model
        return {"net": neural_model.load_checkpoint(options["model"], system)}
    artifacts = {}
    if system == "pmi_svm":
        from . import pmi
        _require(options, "pmi_matrix")
        artifacts["pmi_matrix"] = pmi.load_matrix(options["pmi_matrix"])
        names = pmi.FEATURE_NAMES
    else:
        from . import similarity
        names = similarity.FEATURE_NAMES
    artifacts["svm"] = svm.load_model(options["model"], system, len(names))
    return artifacts


def _score_and_report(options: dict, artifacts: dict, pairs: list[wordlists.WordPair],
                      out_dir: Path, title: str) -> str:
    """Score ``pairs``, threshold, evaluate, and write report.txt and report.tsv."""
    system = options["system"]
    features, row = features_for(system, pairs, artifacts)
    scores = (artifacts["net"].predict(*features) if system in NEURAL_SYSTEMS
              else decision_function(artifacts["svm"], features))
    threshold = options["threshold"]
    if threshold is None:  # SVM scores are uncalibrated margins; split at zero
        threshold = 0.5 if system in NEURAL_SYSTEMS else 0.0
    report = metrics.evaluate(np.array([p.label for p in pairs]), scores[row], threshold=threshold)
    text = metrics.render_report(report, title=title)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.tsv").write_text(metrics.report_tsv(report), encoding="utf-8")
    return text


def cmd_train(options: dict) -> int:
    training = _training(options)
    _, pairs = _load_pairs(options)
    out_dir = _out_dir(options)
    _train_system(options, training, pairs, out_dir)
    return _finish(out_dir, "train", options,
                   f"trained {options['system']} on {len(pairs)} pairs; artifacts in {out_dir}")


def cmd_evaluate(options: dict) -> int:
    artifacts = load_artifacts(options)
    _, pairs = _load_pairs(options)
    out_dir = _out_dir(options)
    text = _score_and_report(options, artifacts, pairs, out_dir, f"system: {options['system']}")
    return _finish(out_dir, "evaluate", options, text)


def cmd_pipeline(options: dict) -> int:
    mode = options["mode"]  # each mode reads only its own fields; the others are ignored and not recorded
    spec = _config(wordlists.SplitSpec, options, wordlists.MODE_FIELDS[mode], mode=mode)
    training = _training(options)
    lexemes, pairs = _load_pairs(options)
    train_pairs, test_pairs = wordlists.split(pairs, lexemes, spec)
    out_dir = _out_dir(options)
    artifacts = _train_system(options, training, train_pairs, out_dir)
    title = (f"system: {options['system']}  mode: {options['mode']}  "
             f"train pairs: {len(train_pairs)}  test pairs: {len(test_pairs)}")
    return _finish(out_dir, "pipeline", options,
                   _score_and_report(options, artifacts, test_pairs, out_dir, title))


# each command: its function, the options it requires, and its help
_COMMANDS = {
    "featurize": (cmd_featurize, ("data", "out"), "write similarity features for all pairs"),
    "pmi-train": (cmd_pmi_train, ("data", "out"), "estimate a PMI matrix from word pairs"),
    "train": (cmd_train, ("data", "system", "out_dir"), "train one system on every pair in the data"),
    "evaluate": (cmd_evaluate, ("data", "system", "model", "out_dir"), "score a trained model on a word list"),
    "pipeline": (cmd_pipeline, ("data", "system", "out_dir", "mode"), "split, train, and evaluate one system"),
}


_M_TRIM_THRESHOLD, _M_MMAP_MAX = -1, -4  # mallopt(3) parameters


def _keep_freed_heap() -> None:
    """Keep freed heap pages in the process for its lifetime; a no-op without glibc's mallopt.

    A ConvNet training step frees megabytes of numpy temporaries, and by
    default glibc returns them to the kernel and faults them back in on the
    next step.  Serving every block from the heap and never trimming it stops that.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, -1)
    mallopt(_M_MMAP_MAX, 0)


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes.

    Every number is bounded where it enters but ``--margin``, whose overflow training detects.
    """
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        options = _Options({key: _resolve(args, config, key, cast, default)
                            for key, (cast, default, _, _) in _OPTIONS.items()})
        if options["seed"] is None:
            raise UsageError("a --seed is required (reproducibility contract)")
        if options["seed"] < 0:
            raise UsageError(f"--seed must be >= 0, got {options['seed']}")
        _require(options, *_COMMANDS[args.command][1])
        return _COMMANDS[args.command][0](options)
    except (UsageError, FloatingPointError) as exc:  # a FloatingPointError is an overflowing --margin
        field, space, rest = str(exc).partition(" ")  # a library field leading the message is named as its option
        field = "--" + _FIELD_OPTIONS[field].replace("_", "-") if field in _FIELD_OPTIONS else field
        print(f"cognet: usage error: {field}{space}{rest}", file=sys.stderr)
        return 1
    except DATA_ERRORS as exc:
        print(f"cognet: data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # every output is closed (by `with` or write_text) before run returns, so none waits on a finalizer:
    # the shutdown's collections can skip all the process holds, and the OS frees its memory
    atexit.register(gc.freeze)
    try:
        code = run()
    except Exception:  # a bug, not a usage (1) or data (2) error
        traceback.print_exc()
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
