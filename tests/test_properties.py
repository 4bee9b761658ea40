"""Property tests: the fast matching and synthesis paths against slow references.

`match_sentence` is checked against `brute_force_match`, `find_matches`
against an exhaustive span enumeration written from its documented rules,
and the pruned beam search of `enumerate_candidates` against a beam search
that scores every candidate with `match_sentence` over every example.
"""

import dataclasses
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from patvar.fixtures import FixtureAnnotationProvider
from patvar.patterns import (
    WILDCARD,
    EntityAtom,
    MatchSpan,
    PatternAst,
    PosAtom,
    SoftAtom,
    StemAtom,
    WildcardAtom,
    atom_matches_token,
    brute_force_match,
    find_matches,
    match_sentence,
    render_pattern,
)
from patvar.synthesis import (
    LabeledExample,
    ScoredPattern,
    SynthesisConfig,
    enumerate_atoms,
    enumerate_candidates,
)

POS_CHOICES = ("VERB", "PROPN", "NOUN", "ADJ", "ADV", "AUX", "PRON", "NUM")
WORD_CHOICES = ("food", "amazing", "cheap", "pay", "staff", "monday", "play", "good", "price", "be")
ENTITY_CHOICES = ("DATE", "LOCATION", "ORG", "PERSON")
SENTENCE_VOCAB = (
    "food", "amazing", "great", "good", "cheap", "affordable", "lobster",
    "price", "staff", "monday", "new", "york", "play", "song", "5", "was",
    "the", "xyzzy", "!",
)

PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ANNOTATOR = FixtureAnnotationProvider()

any_atom = st.one_of(
    st.sampled_from(POS_CHOICES).map(PosAtom),
    st.sampled_from(WORD_CHOICES).map(StemAtom),
    st.sampled_from(WORD_CHOICES).map(SoftAtom),
    st.sampled_from(ENTITY_CHOICES).map(EntityAtom),
    st.just(WILDCARD),
)


def _collapse(seq):
    return tuple(
        a for i, a in enumerate(seq)
        if not (i > 0 and isinstance(a, WildcardAtom) and isinstance(seq[i - 1], WildcardAtom))
    )


def raw_sentences(max_words):
    # Lengths are drawn uniformly, so long sentences with repeated words are common.
    return st.integers(0, max_words).flatmap(
        lambda size: st.lists(st.sampled_from(SENTENCE_VOCAB), min_size=size, max_size=size)
    ).map(" ".join)


@st.composite
def cases(draw, max_words, max_atoms=5):
    """A sentence and a pattern of one to three alternatives and at most
    `max_atoms` atoms, drawn mostly from the sentence's own tokens so that
    matches, repeated placements and several spans are common."""
    s = ANNOTATOR.annotate(draw(raw_sentences(max_words)))
    own = [PosAtom(t.pos) for t in s.tokens if t.pos != "OTHER"]
    own += [StemAtom(t.lemma) for t in s.tokens] + [SoftAtom(t.lemma) for t in s.tokens]
    own += [EntityAtom(t.entity) for t in s.tokens if t.entity]
    atoms = st.one_of(st.sampled_from(own), any_atom) if own else any_atom
    alternatives, budget = [], max_atoms
    while budget > 0 and len(alternatives) < 3:
        size = draw(st.integers(1, budget))
        seq = draw(st.lists(atoms, min_size=size, max_size=size))
        if draw(st.booleans()):
            # A wildcard before each atom, so that the wildcards' takes matter.
            seq = [x for atom in seq[: (size + 1) // 2] for x in (WILDCARD, atom)][size % 2 :]
        seq = _collapse(seq)
        alternatives.append(seq)
        budget -= len(seq)
        if not draw(st.booleans()):
            break
    return PatternAst(tuple(alternatives)), s


@PROPERTY_SETTINGS
@given(case=cases(12))
def test_match_sentence_agrees_with_brute_force(lexicon, case):
    p, s = case
    assert match_sentence(p, s, lexicon) == brute_force_match(p, s, lexicon), render_pattern(p)


# ---------------------------------------------------------------------------
# find_matches against exhaustive span enumeration
# ---------------------------------------------------------------------------


def _anchored_matches(seq, tokens, start, lex):
    """Every way `seq` matches from `start`: (end, wildcard takes, bindings)."""
    n = len(tokens)
    n_wild = sum(isinstance(a, WildcardAtom) for a in seq)
    for takes in itertools.product(range(n - start + 1), repeat=n_wild):
        pos, bindings, pending = start, [], iter(takes)
        for atom in seq:
            if isinstance(atom, WildcardAtom):
                step = next(pending)
            elif pos < n and atom_matches_token(atom, tokens[pos], lex):
                step = 1
            else:
                break
            bindings.append((pos, pos + step))
            pos += step
        else:
            if pos <= n:
                yield pos, takes, tuple(bindings)


def reference_spans(p, s, lex):
    """find_matches by its docstring: per start the minimal end (ties: the
    earlier alternative, then the lexicographically smallest wildcard takes);
    spans contained in another are dropped; zero-length only at position 0."""
    raw = []
    for start in range(len(s.tokens) + 1):
        best = None
        for idx, seq in enumerate(p.alternatives):
            found = list(_anchored_matches(seq, s.tokens, start, lex))
            if not found:
                continue
            end, _, bindings = min(found)
            if best is None or end < best.end:
                best = MatchSpan(start, end, idx, bindings)
        if best is None or (best.end == best.start and best.start > 0):
            continue
        raw.append(best)
    return [
        span for span in raw
        if not any(
            o.start <= span.start and span.end <= o.end and (o.start, o.end) != (span.start, span.end)
            for o in raw
        )
    ]


@PROPERTY_SETTINGS
@given(case=cases(8, max_atoms=6))
def test_find_matches_agrees_with_span_enumeration(lexicon, case):
    p, s = case
    assert find_matches(p, s, lexicon) == reference_spans(p, s, lexicon), render_pattern(p)


# ---------------------------------------------------------------------------
# Pruned candidate enumeration against scoring every candidate in full
# ---------------------------------------------------------------------------


def _full_score(seq, positives, negatives, lex):
    pattern = PatternAst((seq,))
    pos_ids = frozenset(ex.sentence.id for ex in positives if match_sentence(pattern, ex.sentence, lex))
    neg_ids = frozenset(ex.sentence.id for ex in negatives if match_sentence(pattern, ex.sentence, lex))
    hits = len(pos_ids) + len(neg_ids)
    precision = len(pos_ids) / hits if hits else 0.0
    recall = len(pos_ids) / len(positives)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ScoredPattern(pattern, pos_ids, neg_ids, precision, recall, f1, render_pattern(pattern))


def reference_candidates(positives, negatives, cfg, lex):
    """The beam search of enumerate_candidates, scoring every child on every example."""
    pool = set()
    for ex in positives:
        pool |= enumerate_atoms(ex.sentence, lex)
    pool = sorted(pool, key=lambda a: render_pattern(PatternAst(((a,),))))

    def key(sp):
        return (-sp.f1, len(sp.pattern.alternatives[0]), sp.rendered)

    def keep(sp):
        seq = sp.pattern.alternatives[0]
        if sp.matched_positive_ids and not all(isinstance(a, WildcardAtom) for a in seq):
            candidates.setdefault(sp.rendered, sp)

    candidates = {}
    beam = sorted((_full_score((a,), positives, negatives, lex) for a in pool), key=key)
    for sp in beam:
        keep(sp)
    for _ in range(cfg.max_atoms - 1):
        extended = []
        for sp in beam[: cfg.beam_width]:
            seq = sp.pattern.alternatives[0]
            for atom in pool:
                if isinstance(atom, WildcardAtom) and isinstance(seq[-1], WildcardAtom):
                    continue
                child = _full_score(seq + (atom,), positives, negatives, lex)
                extended.append(child)
                keep(child)
        if not extended:
            break
        beam = sorted(extended, key=key)
    return sorted(candidates.values(), key=key)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corpus=st.lists(st.tuples(raw_sentences(6), st.booleans()), min_size=1, max_size=6),
    max_atoms=st.integers(1, 3),
    beam_width=st.integers(1, 6),
)
def test_pruned_candidates_match_full_scoring(provider, lexicon, corpus, max_atoms, beam_width):
    examples = [
        LabeledExample(dataclasses.replace(provider.annotate(raw), id=f"s{i}"), "a" if positive else "b")
        for i, (raw, positive) in enumerate(corpus)
    ]
    positives = [ex for ex in examples if ex.label == "a"]
    negatives = [ex for ex in examples if ex.label == "b"]
    if not positives:
        positives, negatives = negatives[:1], negatives[1:]
    cfg = SynthesisConfig(max_atoms=max_atoms, beam_width=beam_width)
    got = enumerate_candidates(positives, negatives, cfg, lexicon)
    want = reference_candidates(positives, negatives, cfg, lexicon)
    assert [c.rendered for c in got] == [c.rendered for c in want]
    assert got == want
