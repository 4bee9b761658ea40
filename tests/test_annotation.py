import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patvar.annotation import (
    AnnotatedSentence,
    Annotator,
    SynonymLexicon,
    Token,
    load_annotations_file,
    load_synonyms_file,
    tokenize,
)
from patvar.errors import ConfigError, ParseError, ProviderFailure

from conftest import sentence_to_record

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


# Unicode words, whitespace that `str.split` splits on (tab, ideographic space,
# the file separator \x1c) and runs of terminal punctuation.
@given(st.lists(st.one_of(st.text(max_size=4), st.sampled_from(["\t", "\u3000", "\x1c", " ", "\n"]),
                          st.text(TERMINAL, min_size=1, max_size=4)), max_size=12).map("".join))
@example("déjà vu!?\u3000ok.\x1c..;\tnaïve:")
def test_tokenize_matches_reference_splitter_on_unicode(raw):
    assert tokenize(raw) == reference_split(raw)


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
    with pytest.raises(ValueError, match="empty lemma for surface 'food'"):
        Token(surface="food", lemma="")
    with pytest.raises(ValueError, match="unknown pos tag 'XYZ'"):
        Token(surface="x", lemma="x", pos="XYZ")
    with pytest.raises(ValueError, match="lemma must be lowercase: 'X'"):
        Token(surface="x", lemma="X")
    with pytest.raises(ValueError, match="entity tag must be an uppercase identifier: 'loc'"):
        Token(surface="x", lemma="x", entity="loc")
    # punctuation-only surfaces may carry their surface as lemma
    Token(surface=".", lemma=".")


def test_sentence_reconstruction_invariant():
    toks = (Token("The", "the"), Token("food", "food"))
    AnnotatedSentence("s1", "The food", toks)
    with pytest.raises(ValueError, match=r"tokens do not reconstruct raw text \(sentence 's1'\)"):
        AnnotatedSentence("s1", "The drink", toks)


def test_annotate_running_example(provider):
    s = Annotator(provider).annotate("The food was amazing.")
    assert [t.pos for t in s.tokens] == ["OTHER", "NOUN", "AUX", "ADJ", "OTHER"]
    assert s.tokens[2].lemma == "be"


def test_annotate_empty(provider):
    s = Annotator(provider).annotate("")
    assert len(s.tokens) == 0


def test_annotate_date_entity(provider):
    s = Annotator(provider).annotate("see you next monday")
    by_surface = {t.surface: t.entity for t in s.tokens}
    assert by_surface["next"] == "DATE"
    assert by_surface["monday"] == "DATE"


def test_annotate_location_entity(provider):
    s = Annotator(provider).annotate("Find me a train ticket next monday to new york city")
    tags = [t.entity for t in s.tokens]
    assert tags[-3:] == ["LOCATION", "LOCATION", "LOCATION"]


def test_annotate_is_deterministic(provider):
    a = Annotator(provider).annotate("Good food with great variety.")
    b = Annotator(provider).annotate("Good food with great variety.")
    assert a == b


def test_annotate_rejects_malformed_provider(provider):
    class Bad:
        def annotate(self, raw):
            return "nope" if raw == "x" else provider.annotate("some other text")

    annotator = Annotator(Bad())
    with pytest.raises(ProviderFailure, match="returned str, not an AnnotatedSentence"):
        annotator.annotate("x")
    with pytest.raises(ProviderFailure, match="does not correspond to the input text"):
        annotator.annotate("the food")


def test_annotate_chains_a_provider_exception():
    class Crashing:
        def annotate(self, raw):
            if raw == "bad token":
                return AnnotatedSentence("s", raw, (Token("bad", "bad", "X"), Token("token", "token")))
            if raw == "offline":
                raise ProviderFailure("tagger offline")
            raise RuntimeError("tagger crashed")

    annotator = Annotator(Crashing())
    with pytest.raises(ProviderFailure, match="^provider raised RuntimeError: tagger crashed$") as info:
        annotator.annotate("x")
    assert isinstance(info.value.__cause__, RuntimeError)
    with pytest.raises(ProviderFailure, match="^provider raised ValueError: unknown pos tag 'X'$") as info:
        annotator.annotate("bad token")
    assert isinstance(info.value.__cause__, ValueError)
    with pytest.raises(ProviderFailure, match="^tagger offline$"):  # a PatvarError as it is
        annotator.annotate("offline")


class CountingProvider:
    def __init__(self, provider):
        self.provider, self.calls = provider, []

    def annotate(self, raw):
        self.calls.append(raw)
        return self.provider.annotate(raw)


def test_annotator_calls_the_provider_once_per_distinct_text(provider):
    counting = CountingProvider(provider)
    annotator = Annotator(counting)
    first = annotator.annotate("The food was amazing.")
    assert annotator.annotate("Good food.") == provider.annotate("Good food.")
    assert annotator.annotate("The food was amazing.") is first
    assert counting.calls == ["The food was amazing.", "Good food."]


def test_annotator_serves_the_given_sentences_as_given(provider):
    counting = CountingProvider(provider)
    given = AnnotatedSentence("s9", "cheap food", (Token("cheap", "cheap", "ADJ"),
                                                   Token("food", "meal", "NOUN")))
    annotator = Annotator(counting, [given])
    assert annotator.annotate("cheap food") is given
    assert annotator.annotate("cheap food") is given
    assert counting.calls == []
    annotator.annotate("cheap  food")  # another text, however alike
    assert counting.calls == ["cheap  food"]


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
    with pytest.raises(ParseError) as exc:
        load_annotations_file(path)
    assert exc.value.line == 1 and "record 'a'" in str(exc.value)


def test_load_annotations_parse_errors(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text('\n{"id": "a"\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"ann\.jsonl line 2: not JSON"):
        load_annotations_file(path)

    _write_annotations(path, [{"id": "a", "raw": "", "tokens": [], "extra": 1}])
    with pytest.raises(ParseError):
        load_annotations_file(path)
