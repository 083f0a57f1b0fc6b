import numpy as np
import pytest

from cognet.wordlists import (
    CROSS_CONCEPT,
    CROSS_FAMILY,
    EmptySide,
    Lexeme,
    OverlappingFamilies,
    SchemaError,
    SplitSpec,
    distinct,
    generate_pairs,
    load_wordlist,
    split,
    write_wordlist,
)

HEADER = "family\tlanguage\tconcept\tasjp_form\tcognate_class\n"


def _write(tmp_path, body, name="words.tsv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


def _lex(family="fam", language="L1", concept="hand", form="pVt", cognate_class="1"):
    return Lexeme(family, language, concept, form, cognate_class)


def test_load_valid_rows(tmp_path):
    path = _write(tmp_path, "fam\tL1\thand\tpat\tA\nfam\tL2\thand\tpot\tA\nfam\tL3\thand\tkir\tB\n")
    lexemes = load_wordlist(path)
    assert len(lexemes) == 3
    assert lexemes[0].form == "pVt"  # vowels collapsed on load
    assert lexemes[2].cognate_class == "B"


def test_load_skips_unparseable_forms(tmp_path):
    counters = {}
    path = _write(tmp_path, "fam\tL1\thand\tf@t\tA\nfam\tL2\thand\tpot\tA\n")
    lexemes = load_wordlist(path, counters)
    assert len(lexemes) == 1
    assert counters["skipped_rows"] == 1


def test_load_deduplicates_rows(tmp_path):
    counters = {}
    path = _write(tmp_path, "fam\tL1\thand\tpat\tA\nfam\tL1\thand\tpat\tA\n")
    lexemes = load_wordlist(path, counters)
    assert len(lexemes) == 1
    assert counters["duplicate_rows"] == 1


def test_load_empty_file_raises(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_wordlist(path)


def test_load_bad_header_raises(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\tc\td\te\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_wordlist(path)


def test_load_malformed_row_raises(tmp_path):
    path = _write(tmp_path, "fam\tL1\thand\tpat\n")
    with pytest.raises(SchemaError) as exc:
        load_wordlist(path)
    assert exc.value.line == 2 and exc.value.path == path
    assert str(exc.value).startswith(f"{path}:2: ")


def test_load_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_wordlist("/nonexistent/words.tsv")


def test_load_ignores_comments_and_blank_lines(tmp_path):
    path = _write(tmp_path, "# comment\n\nfam\tL1\thand\tpat\tA\n")
    assert len(load_wordlist(path)) == 1


def test_write_then_load_round_trips(tmp_path):
    lexemes = [
        _lex(language="L1", form="pVt", cognate_class="A"),
        _lex(language="L2", form="kVr", cognate_class="B"),
    ]
    path = tmp_path / "out.tsv"
    write_wordlist(lexemes, path)
    assert load_wordlist(path) == lexemes


def test_generate_pairs_labels_by_class():
    lexemes = [
        _lex(language="L1", cognate_class="A", form="pVt"),
        _lex(language="L2", cognate_class="A", form="pVd"),
        _lex(language="L3", cognate_class="B", form="kVr"),
    ]
    pairs = generate_pairs(lexemes)
    assert len(pairs) == 3
    labels = {(p.a.language, p.b.language): p.label for p in pairs}
    assert labels[("L1", "L2")] == 1
    assert labels[("L1", "L3")] == 0
    assert labels[("L2", "L3")] == 0


def test_generate_pairs_count_identity():
    lexemes = [
        _lex(language=f"L{i}", cognate_class="A" if i < 3 else "B", form="pVt")
        for i in range(6)
    ]
    pairs = generate_pairs(lexemes)
    assert len(pairs) == 6 * 5 // 2
    assert sum(p.label for p in pairs) == 3 + 3  # C(3,2) per class


def test_generate_pairs_excludes_same_language():
    lexemes = [
        _lex(language="L1", form="pVt", cognate_class="A"),
        _lex(language="L1", form="pVd", cognate_class="B"),
    ]
    assert generate_pairs(lexemes) == []


def test_generate_pairs_never_crosses_concepts_or_families():
    lexemes = [
        _lex(language="L1", concept="hand"),
        _lex(language="L2", concept="foot"),
        _lex(language="L3", concept="hand", family="other"),
    ]
    assert generate_pairs(lexemes) == []


def test_generate_pairs_canonical_order():
    lexemes = [
        _lex(language="L2", form="kVr", cognate_class="B"),
        _lex(language="L1", form="pVt", cognate_class="A"),
    ]
    (pair,) = generate_pairs(lexemes)
    assert (pair.a.language, pair.b.language) == ("L1", "L2")


def _family(n_concepts=10, langs=("L1", "L2", "L3"), family="fam"):
    lexemes = []
    for c in range(n_concepts):
        for i, lang in enumerate(langs):
            lexemes.append(Lexeme(family, lang, f"c{c}", "pVt" if i < 2 else "kVr",
                                  "A" if i < 2 else "B"))
    return lexemes


def test_cross_concept_split_partitions_concepts():
    lexemes = _family(10)
    pairs = generate_pairs(lexemes)
    train, test = split(pairs, lexemes, SplitSpec(CROSS_CONCEPT, 0.7, seed=1))
    train_concepts = {p.concept for p in train}
    test_concepts = {p.concept for p in test}
    assert not train_concepts & test_concepts
    assert len(train_concepts) == 7
    assert len(test_concepts) == 3
    assert len(train) + len(test) == len(pairs)


def test_cross_concept_split_is_deterministic():
    lexemes = _family(9)
    pairs = generate_pairs(lexemes)
    spec = SplitSpec(CROSS_CONCEPT, 0.7, seed=5)
    assert split(pairs, lexemes, spec) == split(pairs, lexemes, spec)
    other = split(pairs, lexemes, SplitSpec(CROSS_CONCEPT, 0.7, seed=6))
    assert other != split(pairs, lexemes, spec)


def test_cross_concept_minimum_one_concept_per_side():
    lexemes = _family(2)
    pairs = generate_pairs(lexemes)
    train, test = split(pairs, lexemes, SplitSpec(CROSS_CONCEPT, 0.9, seed=0))
    assert {p.concept for p in train} and {p.concept for p in test}


def test_cross_family_split_routes_by_family():
    fam_a = _family(4, family="famA")
    fam_b = _family(4, family="famB")
    lexemes = fam_a + fam_b
    pairs = generate_pairs(lexemes)
    train, test = split(pairs, lexemes, SplitSpec(CROSS_FAMILY),
                        train_families={"famA"}, test_families={"famB"})
    assert all(p.family == "famA" for p in train)
    assert all(p.family == "famB" for p in test)


def test_cross_family_overlap_raises():
    lexemes = _family(4, family="famA") + _family(4, family="famB")
    pairs = generate_pairs(lexemes)
    with pytest.raises(OverlappingFamilies):
        split(pairs, lexemes, SplitSpec(CROSS_FAMILY),
              train_families={"famA", "famB"}, test_families={"famB"})


def test_cross_family_empty_side_raises():
    lexemes = _family(4, family="famA")
    pairs = generate_pairs(lexemes)
    with pytest.raises(EmptySide):
        split(pairs, lexemes, SplitSpec(CROSS_FAMILY),
              train_families={"famA"}, test_families={"famC"})


def test_label_soundness_rederivable():
    lexemes = _family(6)
    for pair in generate_pairs(lexemes):
        assert pair.label == int(pair.a.cognate_class == pair.b.cognate_class)
        assert pair.a.concept == pair.b.concept == pair.concept
        assert pair.a.family == pair.b.family


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec("holdout")
    with pytest.raises(ValueError):
        SplitSpec(CROSS_CONCEPT, train_fraction=1.0)




def test_distinct_keeps_first_items_and_indexes_every_item():
    items, inverse = distinct(["b", "a", "b", "c", "a"])
    assert items == ["b", "a", "c"] and inverse.tolist() == [0, 1, 0, 2, 1]
    assert inverse.dtype == np.intp
    words = ["pVt", "PVT", "kVs", "pvt"]
    firsts, inverse = distinct(words, key=str.lower)
    assert firsts == ["pVt", "kVs"] and inverse.tolist() == [0, 0, 1, 0]
    items, inverse = distinct([])
    assert items == [] and inverse.shape == (0,)
