"""ASJP symbol inventory, phonetic-feature binarization, and sound classes.

The working alphabet is the 34 ASJP consonant letters plus a single vowel
symbol ``V``: every ASJP vowel letter is collapsed to ``V`` during parsing
(vowels are diachronically far less stable than consonants, so their
identity carries little cognacy signal).  Each symbol maps to a fixed
16-bit vector of articulatory features, which turns a word into a small
binary matrix usable as network input, and to one class in each of the
DOLGO and SCA sound-class alphabets.  All of these live in one symbol
table, from which the feature vectors and the three rendering schemes
(ASJP identity, DOLGO, SCA) are read.
"""

from __future__ import annotations

import logging

import numpy as np

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

# Sound classes (List 2012) are single letters.  DOLGO, after Dolgopolsky,
# has ten consonant classes and one vowel class:
#   P labial obstruents          T dental/alveolar obstruents
#   S sibilant fricatives        K velars, uvulars, affricates, clicks
#   M labial nasal               N other nasals
#   R liquids                    W w-like (labial approximant, voiced labial fricative)
#   J palatal approximant        H laryngeals
#   V vowels
# SCA distinguishes up to 25 classes; the inventory reaches 17 of them (the
# single collapsed vowel uses only one vowel class):
#   P labial plosives       B labial fricatives     M labial nasal
#   T dental/alveolar plosives (incl. palatal stops)
#   D dental fricatives     S sibilants             C affricates
#   N non-labial nasals     K velar/uvular plosives G velar/uvular fricatives
#   H laryngeals            L laterals              R trills/taps
#   W w-like                J palatal approximant   ! clicks
#   A vowels
#
# Every per-symbol fact, one row per symbol in INVENTORY order: the symbol,
# its feature bits in FEATURE_NAMES order, its DOLGO class and its SCA class.
_SYMBOL_TABLE = (
    ("p", "0100000011000000", "P", "P"),
    ("b", "1100000011000000", "P", "P"),
    ("f", "0110000001000000", "P", "B"),
    ("v", "1110000001000000", "W", "B"),
    ("m", "1100000000010000", "M", "M"),
    ("8", "1010000001000000", "T", "D"),
    ("4", "1010000000010000", "N", "N"),
    ("t", "0001000010000000", "T", "T"),
    ("d", "1001000010000000", "T", "T"),
    ("s", "0001000001000000", "S", "S"),
    ("z", "1001000001000000", "S", "S"),
    ("c", "1001000000100000", "K", "C"),
    ("n", "1001000000010000", "N", "N"),
    ("S", "0000100001000000", "S", "S"),
    ("Z", "1000100001000000", "S", "S"),
    ("C", "0000100000100000", "K", "C"),
    ("j", "1000100000100000", "K", "C"),
    ("T", "1000100010000000", "K", "T"),
    ("5", "0000100000010000", "N", "N"),
    ("k", "0000010010000000", "K", "K"),
    ("g", "1000010010000000", "K", "K"),
    ("x", "1000010001000000", "K", "G"),
    ("N", "1000010000010000", "N", "N"),
    ("q", "0000001010000000", "K", "K"),
    ("G", "1000001010000000", "K", "K"),
    ("X", "1000001001000000", "K", "G"),
    ("7", "0000000110000000", "H", "H"),
    ("h", "1000000101000000", "H", "H"),
    ("l", "1000000000000110", "R", "L"),
    ("L", "1000000000000010", "R", "L"),
    ("w", "1100010000000100", "W", "W"),
    ("y", "1000100000000100", "J", "J"),
    ("r", "1000000000000001", "R", "R"),
    ("!", "1000000000001000", "K", "!"),
    ("V", "1000000000000000", "V", "A"),
)

_VECTORS = {s: tuple(int(b) for b in bits) for s, bits, _, _ in _SYMBOL_TABLE}

# The three standard schemes, symbol -> class: ASJP (identity), DOLGO and SCA.
SCHEMES = {
    "ASJP": {s: s for s in INVENTORY},
    "DOLGO": {s: dolgo for s, _, dolgo, _ in _SYMBOL_TABLE},
    "SCA": {s: sca for s, _, _, sca in _SYMBOL_TABLE},
}


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
