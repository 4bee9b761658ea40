import dataclasses
import itertools

import pytest

from patvar.patterns import (
    WILDCARD,
    PatternAst,
    PosAtom,
    SoftAtom,
    StemAtom,
    match_sentence,
    render_pattern,
)
from patvar.synthesis import (
    EmptyPositives,
    LabeledExample,
    NoViablePattern,
    SynthesisConfig,
    enumerate_atoms,
    enumerate_candidates,
    synthesize_patterns,
)


def example(provider, raw, label, id=None):
    s = provider.annotate(raw)
    if id is not None:
        s = dataclasses.replace(s, id=id)
    return LabeledExample(s, label)


@pytest.fixture
def running_example(provider):
    positives = [
        example(provider, "Good food with great variety.", "products", "p0"),
        example(provider, "The food was amazing.", "products", "p1"),
    ]
    negatives = [example(provider, "The staff was rude.", "service", "n0")]
    return positives, negatives


def test_enumerate_atoms_running_example(provider, lexicon):
    atoms = enumerate_atoms(provider.annotate("The food was amazing."), lexicon)
    assert StemAtom("food") in atoms
    assert PosAtom("NOUN") in atoms
    assert PosAtom("ADJ") in atoms
    assert SoftAtom("amazing") in atoms
    assert WILDCARD in atoms
    # OTHER never becomes a POS atom
    assert PosAtom("OTHER") not in {a for a in atoms if isinstance(a, PosAtom)}


def test_enumerate_atoms_empty_and_num(provider, lexicon):
    assert enumerate_atoms(provider.annotate(""), lexicon) == {WILDCARD}
    assert PosAtom("NUM") in enumerate_atoms(provider.annotate("see 5 stars"), lexicon)


def test_candidates_contain_paper_patterns(running_example, lexicon):
    positives, negatives = running_example
    cands = enumerate_candidates(positives, negatives, SynthesisConfig(), lexicon)
    by_render = {c.rendered: c for c in cands}
    for wanted in ("[food]+*+ADJ", "(amazing)+*"):
        assert wanted in by_render, wanted
        assert by_render[wanted].precision == 1.0
        assert by_render[wanted].recall == 1.0
    assert all(c.matched_positive_ids for c in cands)
    assert "*" not in by_render


def test_identical_positive_and_negative_sentences(provider, lexicon):
    positives = [example(provider, "the same sentence", "a", "p0")]
    negatives = [example(provider, "the same sentence", "b", "n0")]
    cands = enumerate_candidates(positives, negatives, SynthesisConfig(max_atoms=2), lexicon)
    assert cands
    assert all(c.precision <= 0.5 for c in cands)


def exhaustive_best_f1(positives, negatives, lexicon, max_atoms):
    """Oracle: best F1 over every sequence of derivable atoms up to max_atoms."""
    atoms = set()
    for ex in positives:
        atoms |= enumerate_atoms(ex.sentence, lexicon)
    atoms = sorted(atoms, key=lambda a: render_pattern(PatternAst(((a,),))))
    best = 0.0
    for length in range(1, max_atoms + 1):
        for seq in itertools.product(atoms, repeat=length):
            if any(a == b == WILDCARD for a, b in zip(seq, seq[1:])):
                continue
            if all(a == WILDCARD for a in seq):
                continue
            p = PatternAst((tuple(seq),))
            tp = sum(match_sentence(p, ex.sentence, lexicon) for ex in positives)
            fp = sum(match_sentence(p, ex.sentence, lexicon) for ex in negatives)
            if tp == 0:
                continue
            precision = tp / (tp + fp)
            recall = tp / len(positives)
            f1 = 2 * precision * recall / (precision + recall)
            best = max(best, f1)
    return best


def test_beam_reaches_exhaustive_optimum(provider, lexicon):
    positives = [example(provider, "play a song", "audio", "p0")]
    negatives = [example(provider, "book a flight", "transport", "n0")]
    cfg = SynthesisConfig(max_atoms=2)
    cands = enumerate_candidates(positives, negatives, cfg, lexicon)
    top = max(c.f1 for c in cands)
    assert top == pytest.approx(exhaustive_best_f1(positives, negatives, lexicon, 2))
    best = cands[0]
    assert best.matched_positive_ids == {"p0"}
    assert not best.matched_negative_ids


def test_empty_positives_raises(lexicon):
    with pytest.raises(EmptyPositives):
        enumerate_candidates([], [], SynthesisConfig(), lexicon)


def test_synthesize_running_example(running_example, lexicon):
    positives, negatives = running_example
    chosen = synthesize_patterns(positives, negatives, SynthesisConfig(), lexicon)
    patterns = [sp.pattern for sp in chosen]
    assert 1 <= len(patterns) <= 5
    for ex in positives:
        assert any(match_sentence(p, ex.sentence, lexicon) for p in patterns)
    for ex in negatives:
        assert not any(match_sentence(p, ex.sentence, lexicon) for p in patterns)
    # the returned scores are those of matching each pattern again
    for sp in chosen:
        assert sp.matched_positive_ids == {
            ex.sentence.id for ex in positives if match_sentence(sp.pattern, ex.sentence, lexicon)
        }
        assert sp.matched_negative_ids == {
            ex.sentence.id for ex in negatives if match_sentence(sp.pattern, ex.sentence, lexicon)
        }


def test_synthesize_max_patterns_one(provider, lexicon):
    positives = [
        example(provider, "play a song", "x", "p0"),
        example(provider, "cheap lobster here", "x", "p1"),
        example(provider, "rude staff today", "x", "p2"),
    ]
    negatives = [example(provider, "book a flight", "y", "n0")]
    cfg = SynthesisConfig(max_patterns=1, max_atoms=2)
    patterns = synthesize_patterns(positives, negatives, cfg, lexicon)
    assert len(patterns) == 1


def test_synthesize_no_viable_pattern(provider, lexicon):
    positives = [example(provider, "the same sentence", "a", "p0")]
    negatives = [example(provider, "the same sentence", "b", "n0")]
    with pytest.raises(NoViablePattern):
        synthesize_patterns(positives, negatives, SynthesisConfig(max_atoms=2), lexicon)


def test_greedy_first_pick_is_coverage_maximal(provider, lexicon):
    positives = [
        example(provider, "good food here", "x", "p0"),
        example(provider, "great food there", "x", "p1"),
        example(provider, "play a song", "x", "p2"),
    ]
    negatives = [example(provider, "rude staff", "y", "n0")]
    cfg = SynthesisConfig(max_atoms=2)
    cands = enumerate_candidates(positives, negatives, cfg, lexicon)
    viable = [c for c in cands if c.precision >= 1.0]
    best_cover = max(len(c.matched_positive_ids) for c in viable)
    patterns = synthesize_patterns(positives, negatives, cfg, lexicon)
    first = next(c for c in viable if c.pattern == patterns[0].pattern)
    assert len(first.matched_positive_ids) == best_cover


def test_synthesis_is_deterministic(running_example, lexicon):
    positives, negatives = running_example
    a = synthesize_patterns(positives, negatives, SynthesisConfig(), lexicon)
    b = synthesize_patterns(positives, negatives, SynthesisConfig(), lexicon)
    assert a == b
    ca = enumerate_candidates(positives, negatives, SynthesisConfig(), lexicon)
    cb = enumerate_candidates(positives, negatives, SynthesisConfig(), lexicon)
    assert [c.rendered for c in ca] == [c.rendered for c in cb]


def test_result_never_exceeds_max_patterns(provider, lexicon):
    raws = [
        "good food", "great staff", "cheap price", "cozy decor", "play a song",
        "next monday", "tasty lobster", "rude waiter",
    ]
    positives = [example(provider, raw, "x", f"p{i}") for i, raw in enumerate(raws)]
    negatives = [example(provider, "completely unrelated xyzzy", "y", "n0")]
    for cap in (1, 2, 3):
        cfg = SynthesisConfig(max_patterns=cap, max_atoms=2)
        assert len(synthesize_patterns(positives, negatives, cfg, lexicon)) <= cap
