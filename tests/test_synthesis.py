import dataclasses
import hashlib
import itertools

import pytest

from patvar import synthesis
from patvar.config import build_lexicon, build_provider, ingest, load_config
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
    LabeledExample,
    SynthesisConfig,
    enumerate_atoms,
    enumerate_candidates,
    pack,
    synthesize_patterns,
)

from oracles import decoded_candidates


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
    atoms = enumerate_atoms([provider.annotate("The food was amazing.")], lexicon)
    assert StemAtom("food") in atoms
    assert PosAtom("NOUN") in atoms
    assert PosAtom("ADJ") in atoms
    assert SoftAtom("amazing") in atoms
    assert WILDCARD in atoms
    # OTHER never becomes a POS atom
    assert PosAtom("OTHER") not in {a for a in atoms if isinstance(a, PosAtom)}


def test_enumerate_atoms_empty_and_num(provider, lexicon):
    assert enumerate_atoms([provider.annotate("")], lexicon) == {WILDCARD}
    assert PosAtom("NUM") in enumerate_atoms([provider.annotate("see 5 stars")], lexicon)


def test_candidates_contain_paper_patterns(running_example, lexicon):
    positives, negatives = running_example
    cands = decoded_candidates(pack(positives + negatives), "products", SynthesisConfig(), lexicon)
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
    cands = decoded_candidates(pack(positives + negatives), "a", SynthesisConfig(max_atoms=2), lexicon)
    assert cands
    assert all(c.precision <= 0.5 for c in cands)


def exhaustive_best_f1(positives, negatives, lexicon, max_atoms):
    """Oracle: best F1 over every sequence of derivable atoms up to max_atoms."""
    atoms = sorted(enumerate_atoms([ex.sentence for ex in positives], lexicon),
                   key=lambda a: render_pattern(PatternAst(((a,),))))
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
    cands = decoded_candidates(pack(positives + negatives), "audio", cfg, lexicon)
    top = max(c.f1 for c in cands)
    assert top == pytest.approx(exhaustive_best_f1(positives, negatives, lexicon, 2))
    best = cands[0]
    assert best.matched_positive_ids == {"p0"}
    assert not best.matched_negative_ids


def test_empty_positives_give_no_candidate(lexicon):
    assert enumerate_candidates(pack([]), "a", SynthesisConfig(), lexicon) == []


def test_shared_example_id_raises(provider, lexicon):
    # The cover counts examples, so two examples under one id would count twice.
    positives = [example(provider, "good food", "x", "p0"), example(provider, "tasty lobster", "x", "d")]
    negatives = [example(provider, "rude staff", "y", "d")]
    with pytest.raises(ValueError, match="'d'"):
        pack(positives + negatives)


def test_synthesize_running_example(running_example, lexicon):
    positives, negatives = running_example
    chosen = synthesize_patterns(pack(positives + negatives), "products", SynthesisConfig(), lexicon)
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
    patterns = synthesize_patterns(pack(positives + negatives), "x", cfg, lexicon)
    assert len(patterns) == 1


def test_synthesize_no_viable_pattern(provider, lexicon):
    positives = [example(provider, "the same sentence", "a", "p0")]
    negatives = [example(provider, "the same sentence", "b", "n0")]
    pool = pack(positives + negatives)
    assert synthesize_patterns(pool, "a", SynthesisConfig(max_atoms=2), lexicon) == []


def test_synthesis_relaxes_only_a_floor_above_the_relaxed_one(provider, lexicon, monkeypatch,
                                                             caplog):
    # n0 is the positives' text, so every candidate has precision 0.8 or less.
    positives = [example(provider, "The food was cheap.", "x", f"p{i}") for i in range(4)]
    negatives = [example(provider, "The food was cheap.", "y", "n0"),
                 example(provider, "The staff was rude.", "y", "n1")]
    pool = pack(positives + negatives)
    searches = []

    def counted(*args):
        searches.append(args)
        return enumerate_candidates(*args)

    monkeypatch.setattr(synthesis, "enumerate_candidates", counted)
    cfg = SynthesisConfig(max_atoms=2, min_precision=1.0)
    with caplog.at_level("WARNING", logger="patvar.synthesis"):
        relaxed = synthesize_patterns(pool, "x", cfg, lexicon)
    assert len(searches) == 1
    assert relaxed and all(0.8 <= sp.precision < 1.0 for sp in relaxed)
    at_relaxed = dataclasses.replace(cfg, min_precision=0.8)
    assert relaxed == synthesize_patterns(pool, "x", at_relaxed, lexicon)
    assert "label 'x': no pattern at precision 1.00; relaxed to 0.80" in caplog.text
    # A floor at or below the relaxed one is kept: no warning, and nothing is relaxed.
    caplog.clear()
    with caplog.at_level("WARNING", logger="patvar.synthesis"):
        half = synthesize_patterns(pool, "x", dataclasses.replace(cfg, min_precision=0.5), lexicon)
    assert half and not caplog.text
    # With every candidate at precision 1/3, each floor gives no pattern after one
    # search, 1.0 having tried 0.8 and 0.5 nothing else.
    copies = pack(positives + [example(provider, "The food was cheap.", "y", f"n{i}")
                               for i in range(8)])
    for floor, tried in ((1.0, "0.8"), (0.5, "0.5")):
        searches.clear()
        caplog.clear()
        with caplog.at_level("WARNING", logger="patvar.synthesis"):
            none = synthesize_patterns(copies, "x", dataclasses.replace(cfg, min_precision=floor),
                                       lexicon)
        assert none == []
        assert f"label 'x': no pattern (no candidate reaches precision {tried} " in caplog.text
        assert len(searches) == 1


def test_greedy_first_pick_is_coverage_maximal(provider, lexicon):
    positives = [
        example(provider, "good food here", "x", "p0"),
        example(provider, "great food there", "x", "p1"),
        example(provider, "play a song", "x", "p2"),
    ]
    negatives = [example(provider, "rude staff", "y", "n0")]
    cfg, pool = SynthesisConfig(max_atoms=2), pack(positives + negatives)
    cands = decoded_candidates(pool, "x", cfg, lexicon)
    viable = [c for c in cands if c.precision >= 1.0]
    best_cover = max(len(c.matched_positive_ids) for c in viable)
    patterns = synthesize_patterns(pool, "x", cfg, lexicon)
    first = next(c for c in viable if c.pattern == patterns[0].pattern)
    assert len(first.matched_positive_ids) == best_cover


def test_synthesis_is_deterministic(running_example, lexicon):
    positives, negatives = running_example
    pool = pack(positives + negatives)
    a = synthesize_patterns(pool, "products", SynthesisConfig(), lexicon)
    b = synthesize_patterns(pool, "products", SynthesisConfig(), lexicon)
    assert a == b
    ca = enumerate_candidates(pool, "products", SynthesisConfig(), lexicon)
    cb = enumerate_candidates(pool, "products", SynthesisConfig(), lexicon)
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
        assert len(synthesize_patterns(pack(positives + negatives), "x", cfg, lexicon)) <= cap


# The digest of `deep_beam_digest` on corpus seed 7. The same value comes out
# of the search that packed each label's positives ahead of its negatives,
# since the digest reads decoded ids, not the hit bits of one layout.
DEEP_BEAM_SHA256 = "54d14017e3e12e36255d58bc3095233d76575b1da7fd3e9b07a96a178978d6bd"


def deep_beam_digest(config_path):
    """sha256 over every label of the walkthrough pool at `SynthesisConfig()`:
    each candidate's render, tp, fp and the ids it matches, then each chosen
    pattern's render and covered ids."""
    cfg = load_config(config_path)
    dataset, lexicon = ingest(cfg.dataset, build_provider(cfg)), build_lexicon(cfg)
    deep, pool = SynthesisConfig(), pack(dataset.examples)
    digest = hashlib.sha256()
    for label in dataset.label_set:
        for c in enumerate_candidates(pool, label, deep, lexicon):
            sp = synthesis.scored(c, pool)
            digest.update(f"{c.rendered} {c.tp} {c.fp} {sorted(sp.matched_positive_ids)} "
                          f"{sorted(sp.matched_negative_ids)}\n".encode())
        for sp in synthesize_patterns(pool, label, deep, lexicon):
            digest.update(f"{label} {sp.rendered} {sorted(sp.matched_positive_ids)}\n".encode())
    return digest.hexdigest()


def test_the_deep_beam_on_the_walkthrough_pool_is_pinned(walkthrough_seed7):
    """4 atoms and a beam of 200 on the 200 examples of the pool: depths 3
    and 4, which the walkthrough's 2-atom beam never reaches."""
    assert deep_beam_digest(walkthrough_seed7.config) == DEEP_BEAM_SHA256
