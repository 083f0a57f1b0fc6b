"""Cognacy-annotated word lists, pair generation, and train/test splits.

The file schema is a UTF-8 TSV with header
``family<TAB>language<TAB>concept<TAB>asjp_form<TAB>cognate_class`` and
``#`` comment lines.  Forms are ASJP transcriptions; rows whose form does
not parse are skipped and counted rather than aborting the load.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass

import numpy as np

from . import artifact, phoneme

logger = logging.getLogger(__name__)

HEADER = ("family", "language", "concept", "asjp_form", "cognate_class")

# the split modes, spelled as ``--mode`` spells them
CROSS_CONCEPT, CROSS_FAMILY = MODES = ("cross-concept", "cross-family")


# a word list that does not follow the schema, reported as ``FILE:LINE: msg``
SchemaError = artifact.ArtifactError


class EmptySide(artifact.DataError):
    pass


class NoPairs(artifact.DataError):
    """A word list from which ``generate_pairs`` makes no pair."""


@dataclass(frozen=True, slots=True)
class Lexeme:
    family: str
    language: str
    concept: str
    form: str  # parsed ASJP word, vowels collapsed
    cognate_class: str


@dataclass(frozen=True, slots=True)
class WordPair:
    """An unordered within-concept pair, stored with a <= b by (language, form)."""

    a: Lexeme
    b: Lexeme
    label: int

    @property
    def concept(self) -> str:
        return self.a.concept

    @property
    def family(self) -> str:
        return self.a.family

    @property
    def forms(self) -> tuple[str, str]:
        """The pair's two forms, on which its features and score depend."""
        return self.a.form, self.b.form


# the fields of SplitSpec that each mode reads: the fraction and seed, or the two disjoint family sets
MODE_FIELDS = {CROSS_CONCEPT: ("train_fraction", "seed"), CROSS_FAMILY: ("train_families", "test_families")}


@dataclass(frozen=True)
class SplitSpec:
    """A whole split, with the fields that ``MODE_FIELDS`` names for its mode."""

    mode: str
    train_fraction: float = 0.7
    seed: int = 0
    train_families: frozenset[str] = frozenset()
    test_families: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.mode == CROSS_CONCEPT and not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.mode == CROSS_FAMILY:
            for side in ("train_families", "test_families"):
                if not getattr(self, side):
                    raise ValueError(f"{side} names no family")
            shared = self.train_families & self.test_families
            if shared:
                raise ValueError(f"test_families shares {', '.join(sorted(shared))} with the train families")


def load_wordlist(path, counters: dict | None = None) -> list[Lexeme]:
    """Read lexemes from a TSV word list.

    Rows with invalid transcriptions are skipped; exact duplicate rows are
    dropped.  When a ``counters`` dict is passed it receives
    ``skipped_rows`` and ``duplicate_rows`` tallies, and ``modifier_chars``,
    the modifiers stripped from the rows kept.
    """
    lexemes: list[Lexeme] = []
    seen: set[tuple] = set()
    skipped = duplicates = modifiers = 0
    header_seen = False
    for lineno, line in enumerate(artifact.read_text(path).split("\n"), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if not header_seen:
            if tuple(f.strip().lower() for f in fields) != HEADER:
                raise SchemaError(path, lineno, f"expected header {list(HEADER)}")
            header_seen = True
            continue
        if len(fields) != len(HEADER) or any(not f.strip() for f in fields):
            raise SchemaError(path, lineno, f"expected {len(HEADER)} nonempty fields, got {fields!r}")
        family, language, concept, raw_form, cognate_class = (f.strip() for f in fields)
        row: dict = {}
        try:
            form = phoneme.parse_word(raw_form, row)
        except phoneme.UnknownSymbol as exc:
            logger.warning("skipping %s line %d: %s", path, lineno, exc)
            skipped += 1
            continue
        key = (family, language, concept, form, cognate_class)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        modifiers += row.get("modifier_chars", 0)
        lexemes.append(Lexeme(family, language, concept, form, cognate_class))
    if not header_seen:
        raise SchemaError(path, 1, "missing header")
    if skipped:
        logger.warning("%s: skipped %d unparseable row(s)", path, skipped)
    if counters is not None:
        counters["skipped_rows"] = counters.get("skipped_rows", 0) + skipped
        counters["duplicate_rows"] = counters.get("duplicate_rows", 0) + duplicates
        counters["modifier_chars"] = counters.get("modifier_chars", 0) + modifiers
    return lexemes


def write_wordlist(lexemes: list[Lexeme], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(HEADER) + "\n")
        for lex in lexemes:
            fh.write("\t".join((lex.family, lex.language, lex.concept, lex.form, lex.cognate_class)) + "\n")


def generate_pairs(lexemes: list[Lexeme]) -> list[WordPair]:
    """All within-concept pairs per family, labeled by cognate-class equality.

    Pairs from the same language are excluded: they are synonym pairs, not
    cognacy judgments.
    """
    groups: dict[tuple[str, str], list[Lexeme]] = {}
    for lex in lexemes:
        groups.setdefault((lex.family, lex.concept), []).append(lex)
    pairs: list[WordPair] = []
    for (family, concept) in sorted(groups):
        members = sorted(
            groups[(family, concept)],
            key=lambda l: (l.language, l.form, l.cognate_class),
        )
        for a, b in itertools.combinations(members, 2):
            if a.language == b.language:
                continue
            pairs.append(WordPair(a=a, b=b, label=int(a.cognate_class == b.cognate_class)))
    return pairs


def distinct(items) -> tuple[list, np.ndarray]:
    """The distinct items in order of first appearance, and each item's index among them."""
    first: dict = {}
    inverse = [first.setdefault(item, len(first)) for item in items]
    return list(first), np.array(inverse, dtype=np.intp)


def form_table(pairs) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct forms of string pairs, the distinct ordered pairs as rows into them, and each pair's row.

    ``forms`` and ``index`` keep first-appearance order, and pair i is
    ``(forms[a], forms[b])`` for ``a, b = index[row[i]]`` (intp, [u, 2] and [n]).
    """
    forms, k = distinct([form for pair in pairs for form in pair])
    keys, row = distinct((k[0::2] * len(forms) + k[1::2]).tolist())
    return forms, np.stack(np.divmod(np.array(keys, dtype=np.intp), len(forms)), axis=1), row


def split(pairs: list[WordPair], lexemes: list[Lexeme], spec: SplitSpec) -> tuple[list[WordPair], list[WordPair]]:
    """Partition pairs for evaluation.

    CROSS_CONCEPT shuffles the concept list with the spec seed and assigns
    whole concepts to one side, so no concept straddles the split.
    CROSS_FAMILY routes pairs by the spec's family sets.
    """
    if spec.mode == CROSS_CONCEPT:
        concepts = sorted({lex.concept for lex in lexemes})
        if len(concepts) < 2:
            raise EmptySide("need at least 2 concepts to split")
        rng = random.Random(spec.seed)
        rng.shuffle(concepts)
        n_train = int(spec.train_fraction * len(concepts) + 0.5)
        n_train = max(1, min(len(concepts) - 1, n_train))
        train_set = set(concepts[:n_train])
        train = [p for p in pairs if p.concept in train_set]
        test = [p for p in pairs if p.concept not in train_set]
    else:
        train = [p for p in pairs if p.family in spec.train_families]
        test = [p for p in pairs if p.family in spec.test_families]
    for side, side_pairs, families in (("train", train, spec.train_families), ("test", test, spec.test_families)):
        if not side_pairs:
            named = f" (families {', '.join(sorted(families))})" if spec.mode == CROSS_FAMILY else ""
            raise EmptySide(f"the {side} side{named} has no pairs")
    return train, test
