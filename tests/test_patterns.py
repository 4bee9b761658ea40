import random

import pytest

from patvar.patterns import (
    WILDCARD,
    EntityAtom,
    PatternAst,
    PatternSyntaxError,
    PosAtom,
    SoftAtom,
    StemAtom,
    brute_force_match,
    find_matches,
    match_sentence,
    parse_pattern,
    render_pattern,
)

from oracles import random_pattern, random_sentence

# ---------------------------------------------------------------------------
# Parsing / rendering
# ---------------------------------------------------------------------------


def test_parse_stem_wildcard_pos():
    p = parse_pattern("[food]+*+ADJ")
    assert p.alternatives == ((StemAtom("food"), WILDCARD, PosAtom("ADJ")),)


def test_parse_alternation():
    p = parse_pattern("(pay)|(sale)")
    assert p.alternatives == ((SoftAtom("pay"),), (SoftAtom("sale"),))


def test_parse_collapses_wildcards():
    assert parse_pattern("*+*").alternatives == ((WILDCARD,),)
    assert parse_pattern("*+*+[a]+*+*").alternatives == ((WILDCARD, StemAtom("a"), WILDCARD),)


def test_parse_entity_and_whitespace():
    p = parse_pattern("  $DATE + [food] ")
    assert p.alternatives == ((EntityAtom("DATE"), StemAtom("food")),)
    assert parse_pattern("$date").alternatives == ((EntityAtom("DATE"),),)


def test_parse_errors_with_position():
    with pytest.raises(PatternSyntaxError) as exc:
        parse_pattern("[food")
    assert exc.value.column == 1
    for bad, col in [("[]", 1), ("(a)+", 4), ("|a", 1), ("a", 1), ("OTHER", 1), ("", 1), ("[a b]", 1)]:
        with pytest.raises(PatternSyntaxError) as exc:
            parse_pattern(bad)
        assert exc.value.column == col, bad
    with pytest.raises(PatternSyntaxError) as exc:
        parse_pattern("(pay)|(sale)|")
    assert exc.value.column == 13


def test_render_canonical():
    assert render_pattern(PatternAst(((StemAtom("food"), WILDCARD, PosAtom("ADJ")),))) == "[food]+*+ADJ"
    assert render_pattern(PatternAst(((SoftAtom("pay"),), (SoftAtom("sale"),)))) == "(pay)|(sale)"
    assert render_pattern(PatternAst(((WILDCARD,),))) == "*"


# ---------------------------------------------------------------------------
# Matching semantics
# ---------------------------------------------------------------------------


def annotated(provider, raw):
    return provider.annotate(raw)


def test_match_paper_examples(provider, lexicon):
    food_adj = parse_pattern("[food]+*+ADJ")
    assert match_sentence(food_adj, annotated(provider, "The food was amazing."), lexicon)
    assert match_sentence(food_adj, annotated(provider, "Good food with great variety."), lexicon)

    amazing = parse_pattern("(amazing)+*")
    assert match_sentence(amazing, annotated(provider, "Good food with great variety."), lexicon)

    assert not match_sentence(parse_pattern("NUM"), annotated(provider, "Good food."), lexicon)
    assert match_sentence(parse_pattern("$DATE"), annotated(provider, "see you next monday"), lexicon)


def test_match_soft_uses_synonyms_only(provider, lexicon):
    cheap_noun = parse_pattern("(cheap)+*+NOUN")
    assert match_sentence(cheap_noun, annotated(provider, "They have affordable lobster here"), lexicon)
    assert not match_sentence(cheap_noun, annotated(provider, "Service was slow."), lexicon)


def test_adjacency_is_required(provider, lexicon):
    # Without a wildcard, [food]+ADJ demands adjacent tokens.
    assert not match_sentence(parse_pattern("[food]+ADJ"), annotated(provider, "The food was amazing."), lexicon)
    assert match_sentence(parse_pattern("[amazing]+[food]"), annotated(provider, "amazing food here"), lexicon)


def test_find_matches_running_example(provider, lexicon):
    span = find_matches(parse_pattern("[food]+*+ADJ"), annotated(provider, "The food was amazing."), lexicon)
    assert (span.start, span.end) == (1, 4)
    assert span.text(annotated(provider, "The food was amazing.")) == "food was amazing"
    assert span.bindings == ((1, 2), (2, 3), (3, 4))


def test_find_matches_binds_wildcards_shortest_first(provider, lexicon):
    # Either ADJ before "good" ends the span at 3; the first wildcard takes the fewest tokens.
    s = annotated(provider, "cheap cheap good good")
    span = find_matches(parse_pattern("*+ADJ+*+(good)"), s, lexicon)
    assert (span.start, span.end) == (0, 3)
    assert span.bindings == ((0, 0), (0, 1), (1, 2), (2, 3))


def test_find_matches_wildcard_only(provider, lexicon):
    span = find_matches(parse_pattern("*"), annotated(provider, "a b c"), lexicon)
    assert (span.start, span.end) == (0, 0)
    assert span.bindings == ((0, 0),)


def test_find_matches_empty_sentence(provider, lexicon):
    assert find_matches(parse_pattern("[food]"), annotated(provider, ""), lexicon) is None
    assert match_sentence(parse_pattern("*"), annotated(provider, ""), lexicon)


def test_find_matches_multiple_disjoint(provider, lexicon):
    span = find_matches(parse_pattern("NOUN"), annotated(provider, "food staff"), lexicon)
    assert (span.start, span.end) == (0, 1)


def test_find_matches_keeps_maximal_spans(provider, lexicon):
    span = find_matches(parse_pattern("*+NOUN"), annotated(provider, "good food"), lexicon)
    assert (span.start, span.end) == (0, 2)


def test_nonempty_iff_match(provider, lexicon):
    rng = random.Random(11)
    vocab = ["food", "great", "staff", "monday", "5", "xyzzy", "cheap"]
    for _ in range(200):
        raw = " ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 7)))
        p = random_pattern(rng)
        s = annotated(provider, raw)
        assert (find_matches(p, s, lexicon) is not None) == match_sentence(p, s, lexicon)


# ---------------------------------------------------------------------------
# Oracle equivalence and algebraic properties
# ---------------------------------------------------------------------------


def test_brute_force_examples(provider, lexicon):
    assert brute_force_match(parse_pattern("[food]+*+ADJ"), annotated(provider, "The food was amazing."), lexicon)
    assert brute_force_match(parse_pattern("(amazing)+*"), annotated(provider, "Good food with great variety."), lexicon)
    assert brute_force_match(parse_pattern("*"), annotated(provider, ""), lexicon)


def test_brute_force_input_limits(provider, lexicon):
    long_sentence = annotated(provider, " ".join(["food"] * 13))
    with pytest.raises(ValueError, match=r"sentence has 13 tokens \(limit 12\)"):
        brute_force_match(parse_pattern("[food]"), long_sentence, lexicon)
    with pytest.raises(ValueError, match=r"pattern has 6 atoms \(limit 5\)"):
        brute_force_match(parse_pattern("[a]+[b]+[c]+[d]+[e]+[f]"), annotated(provider, "x"), lexicon)


def test_wildcard_substitution_preserves_match(provider, lexicon):
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        p = random_pattern(rng, max_alts=1)
        s = random_sentence(provider, rng)
        if not match_sentence(p, s, lexicon):
            continue
        seq = p.alternatives[0]
        for i in range(len(seq)):
            atoms = list(seq)
            atoms[i] = WILDCARD
            collapsed = [a for j, a in enumerate(atoms) if not (j > 0 and atoms[j - 1] == WILDCARD and a == WILDCARD)]
            weaker = PatternAst((tuple(collapsed),))
            assert match_sentence(weaker, s, lexicon)
        checked += 1


def test_alternation_is_disjunction(provider, lexicon):
    rng = random.Random(5)
    for _ in range(200):
        a = random_pattern(rng, max_alts=1, max_atoms=3)
        b = random_pattern(rng, max_alts=1, max_atoms=2)
        s = random_sentence(provider, rng, max_tokens=8)
        combined = PatternAst(a.alternatives + b.alternatives)
        assert match_sentence(combined, s, lexicon) == (
            match_sentence(a, s, lexicon) or match_sentence(b, s, lexicon)
        )


def test_unanchored_containment(provider, lexicon):
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        p = random_pattern(rng)
        s = random_sentence(provider, rng, max_tokens=8)
        if not match_sentence(p, s, lexicon):
            continue
        extended = provider.annotate(("staff " + s.raw + " monday").strip())
        assert match_sentence(p, extended, lexicon)
        checked += 1
