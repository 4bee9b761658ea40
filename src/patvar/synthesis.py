"""Pattern synthesis from labeled examples.

Per label, a bottom-up beam search over atom sequences scored by F1 on a pool
packed once for every label (`pack`), then a greedy set cover that picks up to
`max_patterns` high-precision patterns whose union covers the label's examples.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

from .annotation import AnnotatedSentence, SynonymLexicon
from .patterns import (
    WILDCARD,
    Atom,
    EntityAtom,
    Features,
    PatternAst,
    PosAtom,
    SoftAtom,
    StemAtom,
    WildcardAtom,
    advance,
    atom_mask,
    render_atom,
    sentence_features,
)

logger = logging.getLogger(__name__)

# The floor the cover falls back to when no candidate reaches a higher `min_precision`.
RELAXED_PRECISION = 0.8


@dataclass(frozen=True)
class LabeledExample:
    sentence: AnnotatedSentence
    label: str

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be non-empty")


@dataclass(frozen=True)
class SynthesisConfig:
    max_patterns: int = 5
    max_atoms: int = 4
    min_precision: float = 1.0
    beam_width: int = 200

    def __post_init__(self):
        if self.max_patterns < 1 or self.max_atoms < 1 or self.beam_width < 1:
            raise ValueError("max_patterns, max_atoms and beam_width must be >= 1")
        if not 0.0 <= self.min_precision <= 1.0:
            raise ValueError("min_precision must be in [0, 1]")


@dataclass(frozen=True)
class ScoredPattern:
    pattern: PatternAst
    matched_positive_ids: frozenset[str]
    matched_negative_ids: frozenset[str]
    precision: float
    recall: float
    f1: float
    rendered: str = field(default="", compare=False)


def enumerate_atoms(sentences: list[AnnotatedSentence], lex: SynonymLexicon) -> set[Atom]:
    """Candidate atoms derivable from the sentences, plus the wildcard: each
    distinct POS tag (but OTHER), lemma, lexicon lemma and entity tag once."""
    tokens = [token for s in sentences for token in s.tokens]
    lemmas = {token.lemma for token in tokens}
    return {WILDCARD, *map(PosAtom, {token.pos for token in tokens} - {"OTHER"}),
            *map(StemAtom, lemmas), *(SoftAtom(lemma) for lemma in lemmas if lemma in lex),
            *map(EntityAtom, {token.entity for token in tokens} - {None})}


def _rates(tp: int, fp: int, n_positives: int) -> tuple[float, float, float]:
    """(precision, recall, F1) of a pattern matching `tp` of `n_positives`
    positives and `fp` negatives."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / n_positives
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


class Pool(NamedTuple):
    """Examples packed into one row (`patterns.advance`) in pool order: example j
    owns `n_j + 2` bits, its end positions then its guard bit `guards[j]`."""
    examples: list[LabeledExample]
    features: Features
    guards: list[int]
    guard: int
    valid: int


def pack(examples: list[LabeledExample]) -> Pool:
    """The examples packed once, for every label's search; ids must be unique."""
    ids = [ex.sentence.id for ex in examples]
    if len(set(ids)) < len(ids):
        shared = next(i for i in ids if ids.count(i) > 1)
        raise ValueError(f"two examples share the id {shared!r}")
    features, guards, offset = Features({}, {}, {}), [], 0
    for ex in examples:
        for table, part in zip(features, sentence_features(ex.sentence.tokens)):
            for key, mask in part.items():
                table[key] = table.get(key, 0) | mask << offset
        offset += len(ex.sentence) + 2
        guards.append(1 << (offset - 1))
    guard = sum(guards)
    return Pool(examples, features, guards, guard, (1 << offset) - 1 - guard)  # valid: all but guards


class Candidate(NamedTuple):
    """A beam candidate; its hits are guard bits of the pool it was enumerated over."""
    rendered: str
    atoms: tuple[Atom, ...]
    positive_hits: int
    negative_hits: int
    tp: int
    fp: int


def scored(cand: Candidate, pool: Pool) -> ScoredPattern:
    """The ScoredPattern of a candidate enumerated over this pool; its label is
    that of the positives it matches."""
    pos, neg = ([ex for ex, bit in zip(pool.examples, pool.guards) if bit & hits]
                for hits in (cand.positive_hits, cand.negative_hits))
    n_positives = sum(ex.label == pos[0].label for ex in pool.examples)
    return ScoredPattern(PatternAst((cand.atoms,)), frozenset(ex.sentence.id for ex in pos),
                         frozenset(ex.sentence.id for ex in neg),
                         *_rates(cand.tp, cand.fp, n_positives), cand.rendered)


def enumerate_candidates(pool: Pool, label: str, cfg: SynthesisConfig,
                         lex: SynonymLexicon) -> list[Candidate]:
    """Beam-searched single-sequence candidates that match at least one positive
    (a pool example of `label`), best F1 first (ties: shorter, then lexicographic render);
    none when the pool holds no positive.

    Sequences grow one atom per round up to `max_atoms`; each round keeps the
    top `beam_width` in that order, ties in generation order. Consecutive
    wildcards are never generated, and a bare wildcard is kept in the beam as
    a seed but never returned as a candidate.

    Every label's search shares the pool's one packed row: a child is scored from
    its parent's end states and one mask per atom with a few integer operations;
    the guard bits of `(state + valid) & guard` are the examples a state matches.

    A child that matches no positive is dropped before it is rendered or
    ranked, which changes no result: a child matches only where its parent
    does, so none of its extensions can match a positive either, and at F1 0
    it ranks after every child that matches one, so it could only fill beam
    slots whose own children would be dropped too.
    """
    examples, features, guards, guard, valid = pool
    positives = [(ex.sentence, bit) for ex, bit in zip(examples, guards) if ex.label == label]
    positive_guard = sum(bit for _, bit in positives)
    negative_guard = guard ^ positive_guard
    atoms = sorted(enumerate_atoms([s for s, _ in positives], lex), key=render_atom)
    columns = [(atom, render_atom(atom), atom_mask(atom, features, lex)) for atom in atoms]

    beam: list[tuple[tuple[Atom, ...], str, int]] = [((), "", valid)]
    candidates: dict[str, tuple] = {}  # render -> ((-F1, length, render), candidate)
    for length in range(1, cfg.max_atoms + 1):
        # One entry per child that matches a positive: (-F1, render, generation order,
        # parent, atom, mask, hit, tp); sorted, they are in candidate order (all are
        # equally long), ties in generation order.
        layer = []
        for parent in beam:
            seq, text, state = parent
            after_wildcard = bool(seq) and isinstance(seq[-1], WildcardAtom)
            for atom, atom_text, mask in columns:
                if mask is None and after_wildcard:
                    continue
                hit = (advance(state, mask, guard, valid) + valid) & guard
                tp = (hit & positive_guard).bit_count()
                if not tp:
                    continue
                child_text = f"{text}+{atom_text}" if text else atom_text
                neg_f1 = -_rates(tp, hit.bit_count() - tp, len(positives))[2]
                layer.append((neg_f1, child_text, len(layer), parent, atom, mask, hit, tp))
        layer.sort()
        for neg_f1, text, _, (seq, _, _), atom, _, hit, tp in layer:
            child = seq + (atom,)
            if text not in candidates and child != (WILDCARD,):  # `*` alone: no `*+*`
                candidates[text] = (neg_f1, length, text), Candidate(
                    text, child, hit & positive_guard, hit & negative_guard, tp, hit.bit_count() - tp
                )
        if length == cfg.max_atoms:
            break
        beam = [(seq + (atom,), text, advance(state, mask, guard, valid))
                for _, text, _, (seq, _, state), atom, mask, _, _ in layer[: cfg.beam_width]]
    return [cand for _, cand in sorted(candidates.values())]


def synthesize_patterns(pool: Pool, label: str, cfg: SynthesisConfig,
                        lex: SynonymLexicon) -> list[ScoredPattern]:
    """Greedy set cover over the high-precision candidates, in the order chosen.

    The cover draws on the candidates of precision `min_precision` or more;
    when there are none and that floor is above RELAXED_PRECISION, on those
    that reach RELAXED_PRECISION instead (logged as a warning). Either way
    the beam search runs once. When no floor is reached, it returns [] and
    logs a warning.

    Repeatedly picks the candidate covering the most not-yet-covered
    positives (ties: higher F1, then shorter, then lexicographic render)
    until the positives are covered, nothing adds coverage, or
    `max_patterns` is reached; only the chosen candidates are decoded.
    """
    candidates = enumerate_candidates(pool, label, cfg, lex)
    floors = [cfg.min_precision] + [RELAXED_PRECISION] * (cfg.min_precision > RELAXED_PRECISION)
    for floor in floors:
        viable = [c for c in candidates if c.tp / (c.tp + c.fp) >= floor - 1e-12]
        if viable:
            break
    else:
        logger.warning("label %r: no pattern (no candidate reaches precision %s "
                       "(%d candidates considered))", label, floor, len(candidates))
        return []
    if floor < cfg.min_precision:
        logger.warning("label %r: no pattern at precision %.2f; relaxed to %.2f",
                       label, cfg.min_precision, floor)
    chosen, uncovered = [], -1  # uncovered: the bits of examples no chosen pattern matches
    while len(chosen) < cfg.max_patterns:
        # The candidates come in tie order, and max() returns the first of the best.
        best = max(viable, key=lambda c: (c.positive_hits & uncovered).bit_count())
        if not best.positive_hits & uncovered:
            break
        chosen.append(scored(best, pool))
        uncovered &= ~best.positive_hits
    return chosen
