import json

import pytest

from patvar.annotation import (
    AnnotatedSentence,
    SynonymLexicon,
    Token,
    annotate,
    load_annotations_file,
    load_synonyms_file,
    sentence_to_record,
    tokenize,
)
from patvar.errors import InvariantViolation, ParseError, ProviderFailure

TERMINAL = ".,!?;:"


def reference_split(raw):
    """Character-level reference splitter (independent oracle for tokenize)."""
    runs = []
    current = []
    for ch in raw:
        if ch.isspace():
            if current:
                runs.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        runs.append("".join(current))
    tokens = []
    for run in runs:
        cut = len(run)
        while cut > 0 and run[cut - 1] in TERMINAL:
            cut -= 1
        if cut > 0:
            tokens.append(run[:cut])
        tokens.extend(run[cut:])
    return tokens


def test_tokenize_basic():
    assert tokenize("The food was amazing.") == ["The", "food", "was", "amazing", "."]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \t\n") == []


def test_tokenize_matches_reference_splitter():
    cases = [
        "cheap, tasty!",
        "The food was amazing.",
        "see you next monday!!",
        "u.s.a. style; really?",
        "budget-friendly menu, isn't it?",
        "...",
        "a  b\tc\nd",
        "!leading stays attached",
    ]
    for raw in cases:
        assert tokenize(raw) == reference_split(raw), raw


def test_tokenize_never_yields_empty_tokens():
    import random

    rng = random.Random(7)
    alphabet = "ab .,!?;:\t-'x"
    for _ in range(300):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        toks = tokenize(raw)
        assert all(toks)
        assert toks == reference_split(raw)


def test_token_invariants():
    with pytest.raises(InvariantViolation):
        Token(surface="food", lemma="")
    with pytest.raises(InvariantViolation):
        Token(surface="x", lemma="x", pos="XYZ")
    with pytest.raises(InvariantViolation):
        Token(surface="x", lemma="X")
    with pytest.raises(InvariantViolation):
        Token(surface="x", lemma="x", entity="loc")
    # punctuation-only surfaces may carry their surface as lemma
    Token(surface=".", lemma=".")


def test_sentence_reconstruction_invariant():
    toks = (Token("The", "the"), Token("food", "food"))
    AnnotatedSentence("s1", "The food", toks)
    with pytest.raises(InvariantViolation):
        AnnotatedSentence("s1", "The drink", toks)


def test_annotate_running_example(provider):
    s = annotate("The food was amazing.", provider)
    assert [t.pos for t in s.tokens] == ["OTHER", "NOUN", "AUX", "ADJ", "OTHER"]
    assert s.tokens[2].lemma == "be"


def test_annotate_empty(provider):
    s = annotate("", provider)
    assert len(s.tokens) == 0


def test_annotate_date_entity(provider):
    s = annotate("see you next monday", provider)
    by_surface = {t.surface: t.entity for t in s.tokens}
    assert by_surface["next"] == "DATE"
    assert by_surface["monday"] == "DATE"


def test_annotate_location_entity(provider):
    s = annotate("Find me a train ticket next monday to new york city", provider)
    tags = [t.entity for t in s.tokens]
    assert tags[-3:] == ["LOCATION", "LOCATION", "LOCATION"]


def test_annotate_is_deterministic(provider):
    a = annotate("Good food with great variety.", provider)
    b = annotate("Good food with great variety.", provider)
    assert a == b


def test_annotate_rejects_malformed_provider():
    class Bad:
        def annotate(self, raw):
            return "nope"

    with pytest.raises(ProviderFailure):
        annotate("x", Bad())


def test_synonyms_fixture_groups(lexicon):
    assert lexicon.synonyms_of("pricey") == {"pricey", "expensive", "costly"}
    assert lexicon.synonyms_of("zzz") == {"zzz"}
    assert "pricey" in lexicon.synonyms_of("expensive")


def test_synonyms_symmetric(lexicon):
    lemmas = ["pricey", "amazing", "cheap", "pay", "staff", "zzz", "good"]
    for a in lemmas:
        for b in lexicon.synonyms_of(a):
            assert a in lexicon.synonyms_of(b)


def test_synonyms_file_roundtrip(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("pricey\texpensive,costly\nhot\twarm\n", encoding="utf-8")
    lex = load_synonyms_file(path)
    assert lex.synonyms_of("costly") == {"pricey", "expensive", "costly"}
    assert lex.synonyms_of("warm") == {"hot", "warm"}
    with pytest.raises(ParseError):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no-tab-here\n", encoding="utf-8")
        load_synonyms_file(bad)


def test_lexicon_symmetry_is_not_transitive():
    lex = SynonymLexicon([("a", "b"), ("b", "c")])
    assert lex.synonyms_of("a") == {"a", "b"}
    assert lex.synonyms_of("b") == {"a", "b", "c"}
    assert lex.synonyms_of("c") == {"b", "c"}


def _write_annotations(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_load_annotations_file(tmp_path, provider):
    path = tmp_path / "ann.jsonl"
    recs = [
        sentence_to_record(provider.annotate("The food was amazing.")),
        sentence_to_record(provider.annotate("cheap, tasty!")),
    ]
    recs[0]["id"] = "a"
    recs[1]["id"] = "b"
    _write_annotations(path, recs)
    loaded = load_annotations_file(path)
    assert [s.id for s in loaded] == ["a", "b"]
    assert loaded[0].tokens[1].lemma == "food"


def test_load_annotations_unknown_pos_degrades(tmp_path, caplog):
    path = tmp_path / "ann.jsonl"
    _write_annotations(
        path,
        [{"id": "a", "raw": "hi", "tokens": [{"surface": "hi", "lemma": "hi", "pos": "XYZ"}]}],
    )
    with caplog.at_level("WARNING"):
        loaded = load_annotations_file(path)
    assert loaded[0].tokens[0].pos == "OTHER"
    assert any("XYZ" in r.message for r in caplog.records)


def test_load_annotations_bad_reconstruction(tmp_path):
    path = tmp_path / "ann.jsonl"
    _write_annotations(
        path,
        [{"id": "a", "raw": "hello there", "tokens": [{"surface": "hi", "lemma": "hi", "pos": "NOUN"}]}],
    )
    with pytest.raises(InvariantViolation) as exc:
        load_annotations_file(path)
    assert "'a'" in str(exc.value)


def test_load_annotations_parse_errors(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text('{"id": "a"\n', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_annotations_file(path)
    assert exc.value.line == 1

    _write_annotations(path, [{"id": "a", "raw": "", "tokens": [], "extra": 1}])
    with pytest.raises(ParseError):
        load_annotations_file(path)
