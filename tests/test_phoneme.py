import logging
import random

import numpy as np
import pytest

from cognet import phoneme


def test_inventory_is_35_closed_symbols():
    assert len(phoneme.INVENTORY) == 35
    assert len(set(phoneme.INVENTORY)) == 35
    assert phoneme.VOWEL in phoneme.INVENTORY
    assert len(phoneme.CONSONANTS) == 34


def test_binarization_matches_golden_fixture(golden_feature_table):
    assert set(golden_feature_table) == set(phoneme.INVENTORY)
    for symbol, bits in golden_feature_table.items():
        assert phoneme.binarize(symbol) == bits, symbol


def test_binarization_is_injective():
    vectors = [phoneme.binarize(s) for s in phoneme.INVENTORY]
    assert len(set(vectors)) == len(vectors)


def test_vowel_vector_is_voiced_only():
    v = phoneme.binarize("V")
    assert v == (1,) + (0,) * 15


@pytest.mark.parametrize("raw,expected", [
    ("fat", "fVt"),
    ("m", "m"),
    ("tiSa", "tVSV"),
    ("kEoN", "kVVN"),
])
def test_parse_word_collapses_vowels(raw, expected):
    assert phoneme.parse_word(raw) == expected


def test_parse_word_rejects_unknown_symbol():
    with pytest.raises(phoneme.UnknownSymbol) as exc:
        phoneme.parse_word("f@t")
    assert exc.value.char == "@"
    assert exc.value.position == 1


def test_parse_word_strips_modifiers_and_counts():
    counters = {}
    assert phoneme.parse_word('ka~ri"', counters) == "kVrV"
    assert counters["modifier_chars"] == 2


def test_parse_word_empty_or_modifier_only_raises():
    with pytest.raises(phoneme.UnknownSymbol):
        phoneme.parse_word("")
    with pytest.raises(phoneme.UnknownSymbol):
        phoneme.parse_word("~~")


def test_parse_is_idempotent_on_rendered_words():
    rng = random.Random(11)
    for _ in range(200):
        word = "".join(rng.choice(phoneme.INVENTORY) for _ in range(rng.randint(1, 9)))
        assert phoneme.parse_word(word) == word


def test_word_to_matrix_pads_with_zero_rows():
    wm = phoneme.word_to_matrix("fVt", pad_len=10)
    assert wm.shape == (10, 16)
    for i, s in enumerate("fVt"):
        assert tuple(wm[i].astype(int)) == phoneme.binarize(s)
    assert not wm[3:].any()


def test_word_to_matrix_no_padding_needed():
    wm = phoneme.word_to_matrix("m", pad_len=1)
    assert wm.shape == (1, 16)
    assert tuple(wm[0].astype(int)) == phoneme.binarize("m")


def test_word_to_matrix_truncates_and_warns(caplog):
    word = "ptkbdszmnlrw"  # 12 symbols
    with caplog.at_level(logging.WARNING, logger="cognet.phoneme"):
        wm = phoneme.word_to_matrix(word, pad_len=10)
    assert wm.shape == (10, 16)
    assert any("truncated" in rec.message for rec in caplog.records)
    for i, s in enumerate(word[:10]):
        assert tuple(wm[i].astype(int)) == phoneme.binarize(s)


def test_word_to_matrix_true_len_property():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 14)
        word = "".join(rng.choice(phoneme.INVENTORY) for _ in range(n))
        wm = phoneme.word_to_matrix(word, pad_len=10)
        # every inventory symbol sets some feature bit, so the word's rows are nonzero
        assert wm[:min(n, 10)].any(axis=1).all()
        assert not wm[min(n, 10):].any()


def test_word_to_matrix_rejects_bad_pad_len():
    with pytest.raises(ValueError):
        phoneme.word_to_matrix("m", pad_len=0)


def test_builtin_schemes_are_total_and_sized():
    schemes = phoneme.SCHEMES
    assert set(schemes) == {"ASJP", "DOLGO", "SCA"}
    for scheme in schemes.values():
        assert set(scheme) == set(phoneme.INVENTORY)
    assert len(set(schemes["DOLGO"].values())) <= 11  # ten classes plus the vowel class
    assert len(set(schemes["SCA"].values())) <= 25
    assert all(schemes["ASJP"][s] == s for s in phoneme.INVENTORY)


def test_to_sound_class_preserves_length_and_identity():
    schemes = phoneme.SCHEMES
    rng = random.Random(3)
    for _ in range(100):
        word = "".join(rng.choice(phoneme.INVENTORY) for _ in range(rng.randint(1, 8)))
        for scheme in schemes.values():
            assert len(phoneme.to_sound_class(word, scheme)) == len(word)
        assert phoneme.to_sound_class(word, schemes["ASJP"]) == word


def test_dolgo_examples():
    dolgo = phoneme.SCHEMES["DOLGO"]
    # labial obstruents share a class; dental/alveolar stops share a class
    assert phoneme.to_sound_class("p", dolgo) == phoneme.to_sound_class("b", dolgo)
    td = phoneme.to_sound_class("td", dolgo)
    assert td[0] == td[1]


def _classes(scheme):
    """The partition ``scheme`` makes of the inventory: class -> the symbols in it."""
    classes = {}
    for symbol, label in scheme.items():
        classes[label] = classes.get(label, "") + symbol
    return classes


def test_dolgo_classes_are_its_legend():
    assert _classes(phoneme.SCHEMES["DOLGO"]) == {
        "P": "pbf",              # labial obstruents
        "T": "8td",              # dental/alveolar obstruents
        "S": "szSZ",             # sibilant fricatives
        "K": "cCjTkgxqGX!",      # velars, uvulars, affricates, clicks
        "M": "m",                # labial nasal
        "N": "4n5N",             # other nasals
        "R": "lLr",              # liquids
        "W": "vw",               # w-like
        "J": "y",                # palatal approximant
        "H": "7h",               # laryngeals
        "V": "V",                # vowels
    }


def test_sca_classes_are_its_legend():
    assert _classes(phoneme.SCHEMES["SCA"]) == {
        "P": "pb",               # labial plosives, apart from the fricatives
        "B": "fv",               # labial fricatives
        "M": "m",                # labial nasal
        "T": "tdT",              # dental/alveolar plosives, incl. palatal stops
        "D": "8",                # dental fricatives
        "S": "szSZ",             # sibilants
        "C": "cCj",              # affricates
        "N": "4n5N",             # non-labial nasals
        "K": "kgqG",             # velar/uvular plosives, apart from the fricatives
        "G": "xX",               # velar/uvular fricatives
        "H": "7h",               # laryngeals
        "L": "lL",               # laterals
        "R": "r",                # trills/taps
        "W": "w",                # w-like
        "J": "y",                # palatal approximant
        "!": "!",                # clicks
        "A": "V",                # vowels
    }


def test_feature_matrix_shape():
    # the full binarization table is the rendering of the inventory
    fm = phoneme.word_to_matrix(phoneme.INVENTORY, pad_len=len(phoneme.INVENTORY))
    assert fm.shape == (35, 16)
    assert set(np.unique(fm)) <= {0.0, 1.0}
