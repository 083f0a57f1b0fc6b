"""ASJP symbol inventory, phonetic-feature binarization, and sound classes.

The working alphabet is the 34 ASJP consonant letters plus a single vowel
symbol ``V``: every ASJP vowel letter is collapsed to ``V`` during parsing
(vowels are diachronically far less stable than consonants, so their
identity carries little cognacy signal).  Each symbol maps to a fixed
16-bit vector of articulatory features, which turns a word into a small
binary matrix usable as network input.
"""

from __future__ import annotations

import functools
import logging
from importlib import resources

import numpy as np

from . import artifact

logger = logging.getLogger(__name__)

N_FEATURES = 16

# Bit order of the feature vectors.
FEATURE_NAMES = (
    "voiced", "labial", "dental", "alveolar", "palatal", "velar", "uvular",
    "glottal", "stop", "fricative", "affricate", "nasal", "click",
    "approximant", "lateral", "rhotic",
)

# 34 ASJP consonants, in the canonical order used for every table in this
# package (binarization, PMI matrices, file headers), plus the vowel.
CONSONANTS = "pbfvm84tdszcnSZCjT5kgxNqGX7hlLwyr!"
VOWEL = "V"
INVENTORY = CONSONANTS + VOWEL
SYMBOL_INDEX = {s: i for i, s in enumerate(INVENTORY)}

# ASJP vowel letters, all collapsed to V.  Descriptions of the alphabet
# disagree on whether there are six or seven of these; we accept the full
# seven-letter set, which collapses to the same single symbol either way.
VOWELS = "ieE3auo"

# Length/juncture modifiers that show up in raw ASJP transcriptions.  They
# carry no featural content here and are stripped before validation.
MODIFIERS = '~$" -'

_FEATURE_BITS = {
    "p": "0100000011000000",
    "b": "1100000011000000",
    "f": "0110000001000000",
    "v": "1110000001000000",
    "m": "1100000000010000",
    "8": "1010000001000000",
    "4": "1010000000010000",
    "t": "0001000010000000",
    "d": "1001000010000000",
    "s": "0001000001000000",
    "z": "1001000001000000",
    "c": "1001000000100000",
    "n": "1001000000010000",
    "S": "0000100001000000",
    "Z": "1000100001000000",
    "C": "0000100000100000",
    "j": "1000100000100000",
    "T": "1000100010000000",
    "5": "0000100000010000",
    "k": "0000010010000000",
    "g": "1000010010000000",
    "x": "1000010001000000",
    "N": "1000010000010000",
    "q": "0000001010000000",
    "G": "1000001010000000",
    "X": "1000001001000000",
    "7": "0000000110000000",
    "h": "1000000101000000",
    "l": "1000000000000110",
    "L": "1000000000000010",
    "w": "1100010000000100",
    "y": "1000100000000100",
    "r": "1000000000000001",
    "!": "1000000000001000",
    "V": "1000000000000000",
}

_VECTORS = {s: tuple(int(b) for b in bits) for s, bits in _FEATURE_BITS.items()}


class UnknownSymbol(ValueError):
    """A transcription character outside the ASJP inventory."""

    def __init__(self, char: str, position: int):
        self.char = char
        self.position = position
        super().__init__(f"unknown ASJP symbol {char!r} at position {position}")


def parse_word(transcription: str, counters: dict | None = None) -> str:
    """Turn a raw ASJP transcription into a validated word.

    Vowel letters collapse to ``V``; modifier characters are stripped (the
    strip count goes to ``counters['modifier_chars']`` when a dict is
    passed).  Raises :class:`UnknownSymbol` for anything else outside the
    inventory, carrying the offending character and its position in the
    original transcription.
    """
    if not transcription:
        raise UnknownSymbol("", 0)
    out = []
    stripped = 0
    for pos, ch in enumerate(transcription):
        if ch in MODIFIERS:
            stripped += 1
        elif ch in VOWELS:
            out.append(VOWEL)
        elif ch in SYMBOL_INDEX:
            out.append(ch)
        else:
            raise UnknownSymbol(ch, pos)
    if stripped:
        logger.debug("stripped %d modifier char(s) from %r", stripped, transcription)
        if counters is not None:
            counters["modifier_chars"] = counters.get("modifier_chars", 0) + stripped
    if not out:
        raise UnknownSymbol(transcription[0], 0)
    return "".join(out)


def binarize(symbol: str) -> tuple[int, ...]:
    """Return the 16-bit feature vector for one inventory symbol."""
    return _VECTORS[symbol]


def word_to_matrix(word: str, pad_len: int = 10) -> np.ndarray:
    """Stack the feature vectors of ``word`` into a zero-padded [pad_len, 16] matrix.

    Words longer than ``pad_len`` keep their first ``pad_len`` symbols; the
    truncation is reported on this module's logger.
    """
    if pad_len < 1:
        raise ValueError(f"pad_len must be >= 1, got {pad_len}")
    if len(word) > pad_len:
        logger.warning("word %r truncated from %d to %d symbols", word, len(word), pad_len)
        word = word[:pad_len]
    rows = np.zeros((pad_len, N_FEATURES), dtype=np.float64)
    for i, s in enumerate(word):
        rows[i] = _VECTORS[s]
    return rows


def to_sound_class(word: str, scheme: dict[str, str]) -> str:
    """Relabel every symbol of ``word`` with its class under ``scheme``; preserves length."""
    return "".join(scheme[s] for s in word)


def load_scheme(path) -> dict[str, str]:
    """Load a ``symbol<TAB>class`` mapping file and check it is total; raises ArtifactError."""
    mapping: dict[str, str] = {}
    lines = artifact.read_text(path).split("\n")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise artifact.ArtifactError(path, lineno, f"expected 'symbol<TAB>class', got {line!r}")
        symbol, label = parts
        if symbol not in SYMBOL_INDEX:
            raise artifact.ArtifactError(path, lineno, f"{symbol!r} is not an inventory symbol")
        if symbol in mapping:
            raise artifact.ArtifactError(path, lineno, f"duplicate entry for {symbol!r}")
        mapping[symbol] = label
    missing = [s for s in INVENTORY if s not in mapping]
    if missing:
        raise artifact.ArtifactError(path, len(lines), f"mapping not total, missing {missing}")
    return mapping


@functools.cache
def builtin_schemes() -> dict[str, dict[str, str]]:
    """The three standard schemes, symbol -> class: ASJP (identity), DOLGO, and SCA."""
    data = resources.files("cognet").joinpath("data")
    return {
        "ASJP": {s: s for s in INVENTORY},
        "DOLGO": load_scheme(data / "dolgo.tsv"),
        "SCA": load_scheme(data / "sca.tsv"),
    }
