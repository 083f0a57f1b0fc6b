"""Command-line front end for featurization, training, and evaluation runs.

Subcommands: featurize, pmi-train, train, evaluate, pipeline.  Options can
come from an INI-style config file (``key = value`` under ``[section]``
headers) with command-line flags taking precedence.  Every run writes a
manifest (resolved options plus input digests) next to its outputs, and
all randomness flows from the single ``--seed``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error (an
exception no check expected; its traceback is printed).
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import hashlib
import json
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import artifact, metrics, pmi, similarity, svm, wordlists
from .neural import model as neural_model
from .svm import decision_function, grid_search_cv

NEURAL_SYSTEMS = ("manhattan", "two_channel", "siamese_euclid")
SYSTEMS = svm.SYSTEMS + NEURAL_SYSTEMS
# width of each SVM system's feature vectors
N_FEATURES = {"ortho_svm": len(similarity.FEATURE_NAMES), "pmi_svm": 4}

# bad input: each data exception derives from artifact.DataError; a bare ValueError is a bug
DATA_ERRORS = (OSError, artifact.DataError)


class UsageError(Exception):
    pass


@contextmanager
def _user_values():
    """Report an invalid option value as a usage error, not a data error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _write_manifest(out_dir: Path, command: str, options: dict, inputs: list) -> None:
    manifest = {
        "command": command,
        "options": options,
        "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                           encoding="utf-8")


def _write_tsv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in [header, *rows]:
            fh.write("\t".join(row) + "\n")


def _load_config(path: str | None) -> dict[str, str]:
    """Flatten [section] key = value pairs into 'key' -> value."""
    if path is None:
        return {}
    parser = configparser.ConfigParser(interpolation=None)  # values are literal: '%' is no escape
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"bad config file {path}: {exc}") from exc
    if not read:
        raise UsageError(f"config file not found: {path}")
    config = {k.replace("-", "_"): v for section in parser.sections() for k, v in parser.items(section)}
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
        grid = tuple(artifact.finite_float(v) for v in text.split(","))
        if min(grid) > 0:
            return grid
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"C grid must list positive numbers like '0.1,1,10', got {text!r}")


def _families(options: dict, key: str) -> set[str]:
    """The comma-separated family names of ``options[key]``; at least one."""
    families = {f.strip() for f in options[key].split(",") if f.strip()}
    if not families:
        raise UsageError(f"--{key.replace('_', '-')} names no family")
    return families


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
    "svm_passes": (int, 2000, _FIT, None),
    "threshold": (artifact.finite_float, None, ("evaluate", "pipeline"), None),
    "mode": (str, None, ("pipeline",), None),
    "train_fraction": (artifact.finite_float, 0.7, ("pipeline",), None),
    "train_families": (str, None, ("pipeline",), None),
    "test_families": (str, None, ("pipeline",), None),
}
_CHOICES = {"system": SYSTEMS, "mode": ("cross-concept", "cross-family")}


def build_parser() -> _Parser:
    parser = _Parser(prog="cognet", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="INI config file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, (cast, _, commands, option_help) in _OPTIONS.items():
            if command in commands:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=cast,
                               choices=_CHOICES.get(key), help=option_help)
    return parser


def _require(options: dict, *keys: str) -> None:
    missing = [k for k in keys if options.get(k) is None]
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


def _finish(out_dir: Path, command: str, options: dict, message: str) -> int:
    """Write the manifest over every input file named in ``options`` and print ``message``."""
    inputs = [options[k] for k in ("data", "model", "pmi_matrix") if options[k]]
    _write_manifest(out_dir, command, options, inputs)
    print(message, end="" if message.endswith("\n") else "\n")
    return 0


def features_for(system: str, pairs: list[wordlists.WordPair], artifacts: dict):
    """What ``system`` classifies for each distinct pair of forms, and each pair's row among them.

    A ConvNet classifies rendered (xa, xb, y), an SVM a feature matrix.
    """
    unique, inverse = wordlists.distinct(pairs, key=lambda p: p.forms)
    if system in NEURAL_SYSTEMS:
        return neural_model.encode_pairs(unique, artifacts["net"].spec.pad_len), inverse
    if system == "pmi_svm":
        return np.array([pmi.pmi_features(*p.forms, artifacts["pmi_matrix"]) for p in unique]), inverse
    return similarity.feature_matrix([p.forms for p in unique]), inverse


def _g(value: float) -> str:
    return format(value, ".12g")


def cmd_featurize(options: dict) -> int:
    _require(options, "data", "out")
    _, pairs = _load_pairs(options)
    out = Path(options["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    header = ["family", "concept", "language_a", "form_a", "language_b", "form_b", "label"]
    feats, inverse = features_for("ortho_svm", pairs, {})
    _write_tsv(out, header + list(similarity.FEATURE_NAMES), (
        [p.family, p.concept, p.a.language, p.a.form, p.b.language, p.b.form, str(p.label)]
        + [_g(v) for v in feats[k]]
        for p, k in zip(pairs, inverse)
    ))
    return _finish(out.parent, "featurize", options, f"wrote {len(pairs)} feature rows to {out}")


def _pmi_config(options: dict) -> pmi.PMIConfig:
    with _user_values():
        return pmi.PMIConfig(options["cutoff"], options["max_iterations"], options["tol"],
                             options["pseudocount"], options["gap_penalty"])


def cmd_pmi_train(options: dict) -> int:
    _require(options, "data", "out")
    cfg = _pmi_config(options)
    _, pairs = _load_pairs(options)
    matrix = pmi.estimate_pmi([p.forms for p in pairs], cfg)
    out = Path(options["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    pmi.save_matrix(matrix, out)
    return _finish(out.parent, "pmi-train", options,
                   f"PMI matrix written to {out} (iterations={matrix.iterations}, "
                   f"delta={matrix.final_delta:.3g}, converged={matrix.converged})")


def _train_system(options: dict, train_pairs: list[wordlists.WordPair], out_dir: Path) -> dict:
    """Train the chosen system, write its artifacts to ``out_dir`` and return them."""
    system, seed = options["system"], options["seed"]
    if system in NEURAL_SYSTEMS:
        with _user_values():
            spec = neural_model.ModelSpec(system, options["filters"], options["kernel"],
                                          options["fc_units"], options["dropout"], options["pad_len"])
            net = neural_model.build(spec, seed=seed)
            cfg = neural_model.TrainConfig(options["batch_size"], options["epochs"], options["margin"],
                                           seed)
        artifacts = {"net": net}
        _, history = neural_model.train(net, neural_model.encode_pairs(train_pairs, spec.pad_len), cfg)
        neural_model.save_checkpoint(net, out_dir / "model.txt")
        _write_tsv(out_dir / "loss_history.tsv", ["epoch", "mean_loss"],
                   ([str(epoch), _g(loss)] for epoch, loss in enumerate(history, 1)))
        return artifacts

    if options["folds"] < 2:
        raise UsageError("--folds must be >= 2")
    if options["svm_passes"] < 0:
        raise UsageError("--svm-passes must be >= 0")
    artifacts = {}
    if system == "pmi_svm":
        matrix = (pmi.load_matrix(options["pmi_matrix"]) if options["pmi_matrix"] else
                  pmi.estimate_pmi([p.forms for p in train_pairs], _pmi_config(options)))
        pmi.save_matrix(matrix, out_dir / "pmi_matrix.tsv")
        artifacts["pmi_matrix"] = matrix
    feats, inverse = features_for(system, train_pairs, artifacts)
    X = feats[inverse]  # every repeat stays a training row
    y = np.array([p.label for p in train_pairs])
    search = grid_search_cv(X, y, C_grid=options["c_grid"], folds=options["folds"],
                            seed=seed, passes=options["svm_passes"])
    model = artifacts["svm"] = svm.fit(X, y, C=search.best_C, passes=options["svm_passes"])
    if not model.weights.any() and model.bias == 0.0:  # no pass beat the zero start
        print(f"cognet: warning: the SVM for C = {model.C:g} is all zero: no pass of its descent "
              "improved on the zero start; a smaller C or more --svm-passes may help", file=sys.stderr)
    svm.save_model(model, out_dir / "model.txt", system)
    _write_tsv(out_dir / "cv_results.tsv", ["C", "mean_accuracy"],
               ([_g(c), _g(search.cv_scores[c])] for c in sorted(search.cv_scores)))
    return artifacts


def load_artifacts(options: dict) -> dict:
    """Read what ``--system`` was trained into; each file must record that system."""
    system, path = options["system"], options["model"]
    if system in NEURAL_SYSTEMS:
        return {"net": neural_model.load_checkpoint(path, system)}
    artifacts = {}
    if system == "pmi_svm":
        _require(options, "pmi_matrix")
        artifacts["pmi_matrix"] = pmi.load_matrix(options["pmi_matrix"])
    artifacts["svm"] = svm.load_model(path, system, N_FEATURES[system])
    return artifacts


def _score_and_report(options: dict, artifacts: dict, pairs: list[wordlists.WordPair],
                      out_dir: Path, title: str) -> str:
    """Score ``pairs``, threshold, evaluate, and write report.txt and report.tsv."""
    system = options["system"]
    features, inverse = features_for(system, pairs, artifacts)
    if system in NEURAL_SYSTEMS:
        scores = artifacts["net"].predict(features[0], features[1])
    else:
        scores = decision_function(artifacts["svm"], features)
    threshold = options["threshold"]
    if threshold is None:  # SVM scores are uncalibrated margins; split at zero
        threshold = 0.5 if system in NEURAL_SYSTEMS else 0.0
    report = metrics.evaluate(np.array([p.label for p in pairs]), scores[inverse], threshold=threshold)
    text = metrics.render_report(report, title=title)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.tsv").write_text(metrics.report_tsv(report), encoding="utf-8")
    return text


def cmd_train(options: dict) -> int:
    _require(options, "data", "system", "out_dir")
    _, pairs = _load_pairs(options)
    out_dir = _out_dir(options)
    _train_system(options, pairs, out_dir)
    return _finish(out_dir, "train", options,
                   f"trained {options['system']} on {len(pairs)} pairs; artifacts in {out_dir}")


def cmd_evaluate(options: dict) -> int:
    _require(options, "data", "system", "model", "out_dir")
    artifacts = load_artifacts(options)
    _, pairs = _load_pairs(options)
    out_dir = _out_dir(options)
    text = _score_and_report(options, artifacts, pairs, out_dir, f"system: {options['system']}")
    return _finish(out_dir, "evaluate", options, text)


def cmd_pipeline(options: dict) -> int:
    _require(options, "data", "system", "out_dir", "mode")
    families = {}
    if options["mode"] == "cross-family":
        _require(options, "train_families", "test_families")
        families = {key: _families(options, key) for key in ("train_families", "test_families")}
    with _user_values():
        spec = wordlists.SplitSpec(options["mode"].replace("-", "_"), options["train_fraction"],
                                   options["seed"])
    lexemes, pairs = _load_pairs(options)
    train_pairs, test_pairs = wordlists.split(pairs, lexemes, spec, **families)
    out_dir = _out_dir(options)
    artifacts = _train_system(options, train_pairs, out_dir)
    title = (f"system: {options['system']}  mode: {options['mode']}  "
             f"train pairs: {len(train_pairs)}  test pairs: {len(test_pairs)}")
    return _finish(out_dir, "pipeline", options,
                   _score_and_report(options, artifacts, test_pairs, out_dir, title))


_COMMANDS = {
    "featurize": (cmd_featurize, "write similarity features for all pairs"),
    "pmi-train": (cmd_pmi_train, "estimate a PMI matrix from word pairs"),
    "train": (cmd_train, "train one system on every pair in the data"),
    "evaluate": (cmd_evaluate, "score a trained model on a word list"),
    "pipeline": (cmd_pipeline, "split, train, and evaluate one system"),
}


# mallopt(3) parameters and the values _keep_freed_heap pins
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 32 << 20, 16 << 20  # the smallest pair that ends the faults at batch 128


def _keep_freed_heap() -> None:
    """Keep freed heap pages in the process for its lifetime; a no-op without glibc's mallopt.

    A ConvNet training step frees megabytes of numpy temporaries, and by
    default glibc returns them to the kernel and faults them back in on the
    next step.  Fixed thresholds stop that.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        options = {key: _resolve(args, config, key, cast, default)
                   for key, (cast, default, _, _) in _OPTIONS.items()}
        if options["seed"] is None:
            raise UsageError("a --seed is required (reproducibility contract)")
        return _COMMANDS[args.command][0](options)
    except (UsageError, FloatingPointError) as exc:  # an option that overflows the arithmetic is a bad option
        print(f"cognet: usage error: {exc}", file=sys.stderr)
        return 1
    except DATA_ERRORS as exc:
        print(f"cognet: data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
    except Exception:  # a bug, not a usage (1) or data (2) error
        traceback.print_exc()
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
