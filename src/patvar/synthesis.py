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
    Features,
    PatternAst,
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
    """A pattern, the ids of the positives it matches, and its rates on their label."""
    pattern: PatternAst
    matched_positive_ids: frozenset[str]
    precision: float
    recall: float
    f1: float
    rendered: str = field(default="", compare=False)


def enumerate_atoms(sentences: list[AnnotatedSentence], lex: SynonymLexicon) -> set[Atom]:
    """Candidate atoms derivable from the sentences, plus the wildcard: each
    distinct POS tag (but OTHER), lemma, lexicon lemma and entity tag once."""
    tokens = [token for s in sentences for token in s.tokens]
    lemmas = {token.lemma for token in tokens}
    return {WILDCARD, *(Atom("pos", tag) for tag in {token.pos for token in tokens} - {"OTHER"}),
            *(Atom("lemma", lemma) for lemma in lemmas),
            *(Atom("soft", lemma) for lemma in lemmas if lemma in lex),
            *(Atom("entity", tag) for tag in {token.entity for token in tokens} - {None})}


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
    """A beam candidate: the guard bits of the positives it matches in its pool, the
    positives (tp) and negatives (fp) it matches, and the `_rates` the beam ranked it by."""
    rendered: str
    atoms: tuple[Atom, ...]
    positive_hits: int
    tp: int
    fp: int
    precision: float
    recall: float
    f1: float


def scored(cand: Candidate, pool: Pool) -> ScoredPattern:
    """The ScoredPattern of a candidate enumerated over this pool."""
    ids = (ex.sentence.id for ex, g in zip(pool.examples, pool.guards) if g & cand.positive_hits)
    return ScoredPattern(PatternAst((cand.atoms,)), frozenset(ids), cand.precision, cand.recall,
                         cand.f1, cand.rendered)


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
    slots whose own children would be dropped too. A concrete atom's child
    matches a positive iff its mask meets its parent's end states inside a
    positive's segment (`positive_bits`), so one AND rejects it before its
    hits are counted; a wildcard child matches the examples its parent
    matches, at least one positive.
    """
    examples, features, guards, guard, valid = pool
    positives = [(ex.sentence, bit) for ex, bit in zip(examples, guards) if ex.label == label]
    if not positives:
        return []
    positive_guard = sum(bit for _, bit in positives)
    # Every bit of the positives' segments: the n + 2 bits that end at guard bit g.
    positive_bits = sum((g << 1) - (g >> (len(s) + 1)) for s, g in positives)
    atoms = sorted(enumerate_atoms([s for s, _ in positives], lex), key=render_atom)
    columns = [(atom, render_atom(atom), atom_mask(atom, features, lex)) for atom in atoms]

    beam: list[tuple[tuple[Atom, ...], str, int]] = [((), "", valid)]
    candidates: dict[str, Candidate] = {}  # render -> candidate
    for length in range(1, cfg.max_atoms + 1):
        # One entry per child that matches a positive: (-F1, render, generation order,
        # parent, atom, mask, hit, tp, fp, (precision, recall, F1)); sorted, they are in
        # candidate order (all are equally long), ties in generation order.
        layer = []
        for parent in beam:
            seq, text, state = parent
            after_wildcard = bool(seq) and seq[-1] == WILDCARD
            live = state & positive_bits
            for atom, atom_text, mask in columns:
                if mask is None:
                    if after_wildcard:
                        continue
                elif not live & mask:
                    continue
                hit = (advance(state, mask, guard, valid) + valid) & guard
                tp = (hit & positive_guard).bit_count()
                fp = hit.bit_count() - tp
                child_text = f"{text}+{atom_text}" if text else atom_text
                rates = _rates(tp, fp, len(positives))
                layer.append((-rates[2], child_text, len(layer), parent, atom, mask, hit, tp, fp, rates))
        layer.sort()
        for _, text, _, (seq, _, _), atom, mask, hit, tp, fp, rates in layer:
            if text not in candidates and (seq or mask is not None):  # `*` alone: no `*+*`
                candidates[text] = Candidate(text, seq + (atom,), hit & positive_guard, tp, fp, *rates)
        if length == cfg.max_atoms:
            break
        beam = [(seq + (atom,), text, advance(state, mask, guard, valid))
                for _, text, _, (seq, _, state), atom, mask, *_ in layer[: cfg.beam_width]]
    return sorted(candidates.values(), key=lambda c: (-c.f1, len(c.atoms), c.rendered))


def synthesize_patterns(pool: Pool, label: str, cfg: SynthesisConfig,
                        lex: SynonymLexicon) -> list[ScoredPattern]:
    """Greedy set cover over the high-precision candidates, in the order chosen.

    The cover draws on the candidates of precision `min_precision` or more;
    when there are none and that floor is above RELAXED_PRECISION, on those
    that reach RELAXED_PRECISION instead (logged as a warning). Either way
    the beam search runs once. When no floor is reached, it returns [] and
    logs a warning.

    Repeatedly picks the candidate covering the most not-yet-covered positives
    (ties: higher F1, then shorter, then lexicographic render) until no
    candidate adds coverage or `max_patterns` are chosen; only those are decoded.
    """
    candidates = enumerate_candidates(pool, label, cfg, lex)
    floors = [cfg.min_precision] + [RELAXED_PRECISION] * (cfg.min_precision > RELAXED_PRECISION)
    for floor in floors:
        viable = [c for c in candidates if c.precision >= floor - 1e-12]
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
    while viable and len(chosen) < cfg.max_patterns:
        # The candidates come in tie order, and max() returns the first of the best.
        best = max(viable, key=lambda c: (c.positive_hits & uncovered).bit_count())
        chosen.append(scored(best, pool))
        uncovered &= ~best.positive_hits
        viable = [c for c in viable if c.positive_hits & uncovered]  # those that add coverage
    return chosen
