"""Span tracing of cognet's layers from outside the package.

As a script, this wraps one ``cognet`` CLI invocation::

    python3 perfbench/tracer.py SPANS.json OP_ID SPAWN_TIME -- pipeline --data ...

It patches the public functions of every cognet layer with a wrapper that
records one span per call (name, start, end, parent span) plus exact work
counts, runs ``cognet.cli.run`` on the remaining arguments, keeps the spans
in memory and writes them to SPANS.json when the run ends.  SPAWN_TIME is
the parent's CLOCK_MONOTONIC reading just before it started this process.

:func:`layer_metrics` turns the span files of a workload's traced
operations into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


def now() -> float:
    """CLOCK_MONOTONIC is system-wide, so readings compare across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Span and counter store for one process; wrappers append to it."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.rendered: set[tuple[str, int]] = set()
        self._originals: list[tuple[object, str, object]] = []

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, owners: list[tuple[object, str]], hook=None) -> None:
        """Replace ``owner.attr`` for every owner with one span-recording wrapper.

        ``hook(tracer, args, kwargs, result)`` runs after each call to update
        work counts; it is not part of the span.
        """
        fn = getattr(*owners[0])
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        for owner, attr in owners:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def dump(self, path, op_id: str, spawn: float) -> None:
        record = {
            "op": op_id,
            "spawn": spawn,
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "distinct_renders": len(self.rendered),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


# ------------------------------------------------------------ work counters


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def conv2d_flops(x_shape, k_shape) -> int:
    """Multiply-adds of a valid convolution, counted as 2 flops each."""
    b, h, w, c = x_shape
    kh, kw, _, f = k_shape
    return 2 * b * (h - kh + 1) * (w - kw + 1) * kh * kw * c * f


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every cognet layer.

    ``cognet.cli`` binds ``grid_search_cv`` and ``decision_function`` by
    name, and ``cognet.neural.model`` binds ``adadelta_step``, so those are
    patched where they are called from as well as where they are defined.
    """
    from cognet import cli, metrics, phoneme, pmi, similarity, svm, wordlists
    from cognet.neural import model, ops

    pad_default = inspect.signature(phoneme.word_to_matrix).parameters["pad_len"].default
    bind_fit = _binder(svm.fit)
    bind_train = _binder(model.train)

    def render(t, args, kwargs, result):
        word = args[0]
        pad = args[1] if len(args) > 1 else kwargs.get("pad_len", pad_default)
        t.rendered.add((word, pad))
        if len(word) > pad:
            t.add("phoneme.truncated_renders")

    def cells(t, args, kwargs, result):
        t.add("similarity.align_cells", (len(args[0]) + 1) * (len(args[1]) + 1))

    def conv_forward(t, args, kwargs, result):
        t.add("neural.conv2d_flops", conv2d_flops(args[0].shape, args[1].shape))

    def conv_backward(t, args, kwargs, result):
        x, kernels = args[0]
        # input gradient and kernel gradient each cost one forward pass
        t.add("neural.conv2d_flops", 2 * conv2d_flops(x.shape, kernels.shape))

    def predict(t, args, kwargs, result):
        rows = args[1].shape[0]
        t.counts["neural.predict_batch_rows"] = max(t.counts.get("neural.predict_batch_rows", 0), rows)

    def fit(t, args, kwargs, result):
        a = bind_fit(args, kwargs)
        t.add("svm.row_passes", len(a["X"]) * a["passes"])

    def train(t, args, kwargs, result):
        t.add("neural.epochs", bind_train(args, kwargs)["cfg"].epochs)

    layers = [
        ("cli.run", [(cli, "run")], None),
        ("wordlists.load_wordlist", [(wordlists, "load_wordlist")], None),
        ("wordlists.generate_pairs", [(wordlists, "generate_pairs")],
         lambda t, a, k, r: t.add("wordlists.pairs", len(r))),
        ("wordlists.split", [(wordlists, "split")], None),
        ("phoneme.word_to_matrix", [(phoneme, "word_to_matrix")], render),
        ("phoneme.to_sound_class", [(phoneme, "to_sound_class")], None),
        ("similarity.extract_features", [(similarity, "extract_features")], None),
        ("similarity.align", [(similarity, "align")], cells),
        ("similarity.edit_distance", [(similarity, "edit_distance")], None),
        ("similarity.lcs_length", [(similarity, "lcs_length")], None),
        ("similarity.common_bigrams", [(similarity, "common_bigrams")], None),
        ("similarity.common_trigrams", [(similarity, "common_trigrams")], None),
        ("similarity.xdice", [(similarity, "xdice")], None),
        ("similarity.xxdice", [(similarity, "xxdice")], None),
        ("pmi.estimate_pmi", [(pmi, "estimate_pmi")],
         lambda t, a, k, r: t.add("pmi.iterations", r.iterations)),
        ("pmi.pmi_features", [(pmi, "pmi_features")], None),
        ("pmi.load_matrix", [(pmi, "load_matrix")], None),
        ("pmi.save_matrix", [(pmi, "save_matrix")], None),
        ("neural.train", [(model, "train")], train),
        ("neural.encode_pairs", [(model, "encode_pairs")], None),
        ("neural.loss_and_grads", [(model.Model, "loss_and_grads")], None),
        ("neural.predict", [(model.Model, "predict")], predict),
        ("neural.conv2d", [(ops, "conv2d")], conv_forward),
        ("neural.conv2d_backward", [(ops, "conv2d_backward")], conv_backward),
        ("neural.maxpool2", [(ops, "maxpool2")], None),
        ("neural.maxpool2_backward", [(ops, "maxpool2_backward")], None),
        ("neural.dense", [(ops, "dense")], None),
        ("neural.dense_backward", [(ops, "dense_backward")], None),
        ("neural.adadelta_step", [(model, "adadelta_step")], None),
        ("neural.save_checkpoint", [(model, "save_checkpoint")], None),
        ("neural.load_checkpoint", [(model, "load_checkpoint")], None),
        ("svm.grid_search_cv", [(svm, "grid_search_cv"), (cli, "grid_search_cv")], None),
        ("svm.fit", [(svm, "fit")], fit),
        ("svm.decision_function", [(svm, "decision_function"), (cli, "decision_function")], None),
        ("svm.save_model", [(svm, "save_model")], None),
        ("svm.load_model", [(svm, "load_model")], None),
        ("metrics.evaluate", [(metrics, "evaluate")],
         lambda t, a, k, r: t.add("metrics.scores", r.n_test)),
        ("metrics.average_precision", [(metrics, "average_precision")], None),
    ]
    for name, owners, hook in layers:
        tracer.wrap(name, owners, hook)


# ------------------------------------------------------- per-layer metrics

# Per-layer metrics that are summed self times, and the spans they sum.
SELF_TIMES = {
    "cli.self_s": ("cli.run",),
    "wordlists.load_wordlist_s": ("wordlists.load_wordlist",),
    "wordlists.generate_pairs_s": ("wordlists.generate_pairs",),
    "wordlists.split_s": ("wordlists.split",),
    "phoneme.word_to_matrix_s": ("phoneme.word_to_matrix",),
    "phoneme.to_sound_class_s": ("phoneme.to_sound_class",),
    "similarity.extract_features_s": ("similarity.extract_features",),
    "similarity.align_s": ("similarity.align",),
    "similarity.edit_distance_s": ("similarity.edit_distance",),
    "similarity.lcs_length_s": ("similarity.lcs_length",),
    "similarity.ngram_s": ("similarity.common_bigrams", "similarity.common_trigrams",
                           "similarity.xdice", "similarity.xxdice"),
    "pmi.estimate_pmi_s": ("pmi.estimate_pmi",),
    "pmi.pmi_features_s": ("pmi.pmi_features",),
    "pmi.load_matrix_s": ("pmi.load_matrix",),
    "pmi.save_matrix_s": ("pmi.save_matrix",),
    "neural.train_s": ("neural.train",),
    "neural.loss_and_grads_s": ("neural.loss_and_grads",),
    "neural.conv2d_s": ("neural.conv2d",),
    "neural.conv2d_backward_s": ("neural.conv2d_backward",),
    "neural.maxpool2_s": ("neural.maxpool2", "neural.maxpool2_backward"),
    "neural.dense_s": ("neural.dense", "neural.dense_backward"),
    "neural.adadelta_step_s": ("neural.adadelta_step",),
    "neural.encode_pairs_s": ("neural.encode_pairs",),
    "neural.predict_s": ("neural.predict",),
    "neural.save_checkpoint_s": ("neural.save_checkpoint",),
    "neural.load_checkpoint_s": ("neural.load_checkpoint",),
    "svm.grid_search_cv_s": ("svm.grid_search_cv",),
    "svm.fit_s": ("svm.fit",),
    "svm.decision_function_s": ("svm.decision_function",),
    "svm.save_model_s": ("svm.save_model",),
    "svm.load_model_s": ("svm.load_model",),
    "metrics.evaluate_s": ("metrics.evaluate",),
    "metrics.average_precision_s": ("metrics.average_precision",),
}

# Per-layer metrics that count calls of one span.
CALLS = {
    "phoneme.word_to_matrix_calls": "phoneme.word_to_matrix",
    "similarity.extract_features_calls": "similarity.extract_features",
    "similarity.align_calls": "similarity.align",
    "pmi.pmi_features_calls": "pmi.pmi_features",
    "neural.loss_and_grads_calls": "neural.loss_and_grads",
    "neural.conv2d_calls": "neural.conv2d",
    "svm.fit_calls": "svm.fit",
}

# Per-layer metrics copied from the wrappers' exact work counts.
COUNTS = ("wordlists.pairs", "phoneme.truncated_renders", "similarity.align_cells",
          "pmi.iterations", "svm.row_passes", "metrics.scores")

SIAMESE = ("manhattan", "siamese_euclid")

UNITS = {
    "cli.startup_s": "s",
    **{k: "s" for k in SELF_TIMES},
    **{k: "count" for k in (*CALLS, *COUNTS)},
    "pmi.seed_pairs": "count",
    "phoneme.truncation_warnings": "count",
    "phoneme.render_reuse": "ratio",
    "similarity.us_per_pair": "us",
    "similarity.align_cells_per_s": "1/s",
    "neural.epoch_s": "s",
    "neural.conv2d_gflop": "GFLOP",
    "neural.conv2d_gflops": "GFLOP/s",
    "neural.trunk_passes_per_batch": "ratio",
    "neural.predict_batch_rows": "count",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_summary(record: dict) -> dict:
    """Self time, inclusive time and calls per span name for one operation."""
    names, spans = record["names"], record["spans"]
    covered = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    run_enter = None
    for i, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        self_s[name] = self_s.get(name, 0.0) + (end - start - covered[i])
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name == "cli.run" and run_enter is None:
            run_enter = start

    # epochs exclude the one-off encoding train() does before its loop
    train_ids = {i for i, s in enumerate(spans) if names[s[0]] == "neural.train"}
    encode_in_train = sum(
        s[2] - s[1] for s in spans
        if names[s[0]] == "neural.encode_pairs" and s[3] in train_ids
    )
    # estimate_pmi aligns every seed pair once, then once per iteration
    pmi_ids = {i for i, s in enumerate(spans) if names[s[0]] == "pmi.estimate_pmi"}
    pmi_aligns = sum(1 for s in spans if names[s[0]] == "similarity.align" and s[3] in pmi_ids)
    runs = len(pmi_ids) + record["counts"].get("pmi.iterations", 0)
    return {
        "self_s": self_s,
        "total_s": total_s,
        "calls": calls,
        "startup_s": (run_enter - record["spawn"]) if run_enter is not None else 0.0,
        "epoch_time_s": total_s.get("neural.train", 0.0) - encode_in_train,
        "seed_pairs": pmi_aligns // runs if runs else 0,
    }


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over a workload's traced operations.

    Each op is ``{"system", "record", "run_s", "untraced_run_s",
    "truncation_warnings"}``, where ``record`` is a span file's content.
    """
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    m: dict[str, float] = {
        "cli.startup_s": 0.0, "neural.predict_batch_rows": 0, "pmi.seed_pairs": 0,
        "phoneme.truncation_warnings": 0, "trace.overhead_s": 0.0,
    }
    epoch_time = distinct = 0.0
    siamese_conv = siamese_batches = 0
    for op in ops:
        rec = op["record"]
        s = op_summary(rec)
        for src, dst in ((s["self_s"], self_s), (s["total_s"], total_s), (s["calls"], calls)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0) + v
        m["cli.startup_s"] += s["startup_s"]
        m["pmi.seed_pairs"] += s["seed_pairs"]
        m["neural.predict_batch_rows"] = max(m["neural.predict_batch_rows"],
                                             rec["counts"].get("neural.predict_batch_rows", 0))
        m["phoneme.truncation_warnings"] += op["truncation_warnings"]
        m["trace.overhead_s"] += op["run_s"] - op["untraced_run_s"]
        epoch_time += s["epoch_time_s"]
        distinct += rec["distinct_renders"]
        if op["system"] in SIAMESE:
            siamese_conv += s["calls"].get("neural.conv2d", 0)
            siamese_batches += (s["calls"].get("neural.loss_and_grads", 0)
                                + s["calls"].get("neural.predict", 0))

    for metric, spans in SELF_TIMES.items():
        m[metric] = sum(self_s.get(n, 0.0) for n in spans)
    for metric, span in CALLS.items():
        m[metric] = calls.get(span, 0)
    for key in COUNTS:
        m[key] = counts.get(key, 0)

    renders = calls.get("phoneme.word_to_matrix", 0)
    m["phoneme.render_reuse"] = _ratio(distinct, renders)
    m["similarity.us_per_pair"] = 1e6 * _ratio(total_s.get("similarity.extract_features", 0.0),
                                               calls.get("similarity.extract_features", 0))
    m["similarity.align_cells_per_s"] = _ratio(m["similarity.align_cells"], m["similarity.align_s"])
    m["neural.epoch_s"] = _ratio(epoch_time, counts.get("neural.epochs", 0))
    gflop = counts.get("neural.conv2d_flops", 0) / 1e9
    m["neural.conv2d_gflop"] = gflop
    m["neural.conv2d_gflops"] = _ratio(gflop, m["neural.conv2d_s"] + m["neural.conv2d_backward_s"])
    m["neural.trunk_passes_per_batch"] = _ratio(siamese_conv / 2, siamese_batches)
    traced_s = sum(op["run_s"] for op in ops)
    m["trace.unaccounted_s"] = traced_s - m["cli.startup_s"] - sum(self_s.values())
    return m


def main(argv: list[str]) -> int:
    out, op_id, spawn, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json OP_ID SPAWN_TIME -- CLI-ARGS...")
    from cognet import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.run(cli_args)
    finally:
        tracer.dump(out, op_id, float(spawn))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
