"""Workload definitions and the seeded inputs each one feeds to ``cognet``.

Every input is generated from the workload seed; the program only ever sees
the generated word lists and a ``--seed`` derived from the workload seed.
Run as a script, this module is the benchmark's set-up step: it imports
cognet in a fresh process and writes one workload's inputs to a directory.
The workload is passed as the JSON of its fields, so tests can run small
ones::

    python3 perfbench/inputs.py --workload '{"name": "wide", ...}' --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

SYSTEMS = ("ortho_svm", "pmi_svm", "manhattan", "two_channel", "siamese_euclid")
NEURAL_SYSTEMS = ("manhattan", "two_channel", "siamese_euclid")
SVM_SYSTEMS = ("ortho_svm", "pmi_svm")

PIPELINE = "pipeline"
EVALUATE = "evaluate"

# Word shapes.  SHORT_PATTERNS are cognet.synthetic's stock 3-5-symbol
# shapes.  LONG_PATTERNS are the benchmark's own 8-12-symbol shapes, so the DP
# aligners see about four times the cells of short words, and forms longer
# than the default pad_len of 10 get truncated.
SHORT_PATTERNS = ("CVCV", "CVC", "CVCVC", "CCVC", "CVCCV")
LONG_PATTERNS = ("CVCVCVCV", "CVCCVCVCV", "CVCVCVCVCV", "CCVCVCCVCVC", "CVCVCCVCVCVC")
ONSETS = "ptkbdgszmnlrwfvhx"
FILLER_RATE = 0.35
TRAIN_FRACTION = 0.7  # cognet's default cross-concept split


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the CLI command timed on them.

    ``kind`` PIPELINE times ``cognet pipeline`` on one short-word family
    of ``concepts`` x ``languages``, in cognet.synthetic's word shapes.
    ``kind`` EVALUATE first trains every system on a long-word family of
    ``train_size`` during set-up, then times ``cognet evaluate`` on a
    disjoint long-word family of ``concepts`` x ``languages``.
    """

    name: str
    kind: str
    concepts: int
    languages: int
    options: tuple[str, ...] = ()
    train_size: tuple[int, int] = (0, 0)
    train_options: tuple[str, ...] = ()
    setup_repeats: int = 3

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        fields = json.loads(text)
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


WORKLOADS = {
    w.name: w for w in (
        # What users run first: the README family with every shipped default.
        # Not in BENCHMARK.json: its two passes alone take about 60 s, which
        # leaves the other workloads too little of a comparison's time budget.
        Workload("quickstart", PIPELINE, concepts=30, languages=8),
        # Short words, many pairs, every word in ~19 pairs: per-pair layers
        # (features, DP, rendering, conv backward) dominate, not SVM passes.
        Workload("wide", PIPELINE, concepts=20, languages=20,
                 options=("--epochs", "1", "--svm-passes", "50"), setup_repeats=5),
        # Inference only on long words: artifact reads, forward pass, no
        # grid search.  Training happens in set-up, twice, so the trained
        # artifacts are checked for byte-identical reruns as well.
        Workload("long-words-eval", EVALUATE, concepts=25, languages=16,
                 train_size=(20, 8),
                 train_options=("--epochs", "4", "--svm-passes", "200"),
                 setup_repeats=2),
    )
}


def _seeds(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shapes(rng: random.Random, patterns: tuple[str, ...]):
    """Endless shapes in shuffled rounds, so each is used equally often."""
    while True:
        round_ = list(patterns)
        rng.shuffle(round_)
        yield from round_


def _word(rng: random.Random, shape: str) -> str:
    from cognet.synthetic import RAW_VOWELS

    return "".join(rng.choice(ONSETS) if ch == "C" else rng.choice(RAW_VOWELS) for ch in shape)


def word_family(n_concepts: int, n_languages: int, rng: random.Random, family: str,
                patterns: tuple[str, ...], avoid: set[str]):
    """Lexemes evolved by cognet's own sound changes, in seed-independent shapes.

    The seed picks the symbols, the order of the shapes and which languages
    get a filler word.  How often each shape occurs, and how many fillers a
    concept has, is the same for every seed, so the amount of work (DP cells,
    rendered symbols) hardly changes with the seed.  Proto-forms already in
    ``avoid`` are redrawn (and new ones added), so two families drawn with
    one ``avoid`` set share no proto-form.
    """
    from cognet import synthetic
    from cognet.phoneme import parse_word
    from cognet.wordlists import Lexeme

    n_fillers = round(FILLER_RATE * n_languages)
    protos, fillers = _shapes(rng, patterns), _shapes(rng, patterns)
    lexemes = []
    for c in range(n_concepts):
        concept = f"{family}{c:03d}"
        shape = next(protos)
        proto = _word(rng, shape)
        while proto in avoid:
            proto = _word(rng, shape)
        avoid.add(proto)
        filler_languages = set(rng.sample(range(n_languages), n_fillers))
        for lang in range(n_languages):
            if lang in filler_languages:
                form = _word(rng, next(fillers))
                cognate_class = f"{concept}:f{lang}"
            else:
                form = synthetic.apply_changes(proto, lang)
                cognate_class = f"{concept}:cog"
            lexemes.append(Lexeme(family, f"L{lang}", concept, parse_word(form), cognate_class))
    return lexemes


def cross_language_pairs(n_concepts: int, n_languages: int) -> int:
    """Pairs cognet generates from one lexeme per concept and language."""
    return n_concepts * n_languages * (n_languages - 1) // 2


def expected_test_pairs(w: Workload) -> int:
    """The benchmark's own count of the pairs each timed run must score."""
    if w.kind == EVALUATE:
        return cross_language_pairs(w.concepts, w.languages)
    n_train = max(1, min(w.concepts - 1, int(TRAIN_FRACTION * w.concepts + 0.5)))
    return cross_language_pairs(w.concepts - n_train, w.languages)


def make_inputs(w: Workload, seed: int, out: Path) -> dict:
    """Write the workload's word lists into ``out``; returns their manifest."""
    from cognet import wordlists

    rng = _seeds(w.name, seed)
    program_seed = rng.randrange(2**31)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    seen: set[str] = set()
    if w.kind == PIPELINE:
        lexemes = word_family(w.concepts, w.languages, rng, "short", SHORT_PATTERNS, seen)
        files["data"] = out / "family.tsv"
        wordlists.write_wordlist(lexemes, files["data"])
    else:
        train = word_family(*w.train_size, rng, "longtrain", LONG_PATTERNS, seen)
        test = word_family(w.concepts, w.languages, rng, "longtest", LONG_PATTERNS, seen)
        files["train"] = out / "train.tsv"
        files["data"] = out / "test.tsv"
        wordlists.write_wordlist(train, files["train"])
        wordlists.write_wordlist(test, files["data"])
    manifest = {
        "workload": w.name,
        "seed": seed,
        "program_seed": program_seed,
        "n_test": expected_test_pairs(w),
        "files": {k: v.name for k, v in files.items()},
    }
    (out / "inputs.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    parser.add_argument("--workload", required=True, type=Workload.from_json,
                        help="the workload's fields as JSON")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    make_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
