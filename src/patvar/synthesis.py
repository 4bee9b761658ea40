"""Pattern synthesis from labeled examples.

Bottom-up beam search over atom sequences scored by F1 against the positive
and negative examples, followed by a greedy set cover that picks up to
`max_patterns` high-precision patterns whose union covers the positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .annotation import AnnotatedSentence, SynonymLexicon
from .errors import PatvarError
from .patterns import (
    WILDCARD,
    Atom,
    EntityAtom,
    PatternAst,
    PosAtom,
    SoftAtom,
    StemAtom,
    WildcardAtom,
    advance,
    atom_mask,
    render_pattern,
)


class EmptyPositives(PatvarError):
    pass


class NoViablePattern(PatvarError):
    """No candidate met the precision floor; caller may retry with a lower one."""


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
        if self.max_patterns < 1 or self.max_atoms < 1:
            raise ValueError("max_patterns and max_atoms must be >= 1")


@dataclass(frozen=True)
class ScoredPattern:
    pattern: PatternAst
    matched_positive_ids: frozenset[str]
    matched_negative_ids: frozenset[str]
    precision: float
    recall: float
    f1: float
    rendered: str = field(default="", compare=False)


def enumerate_atoms(s: AnnotatedSentence, lex: SynonymLexicon) -> set[Atom]:
    """Candidate atoms derivable from one sentence, plus the wildcard."""
    atoms: set[Atom] = {WILDCARD}
    for token in s.tokens:
        if token.pos != "OTHER":
            atoms.add(PosAtom(token.pos))
        atoms.add(StemAtom(token.lemma))
        if token.lemma in lex:
            atoms.add(SoftAtom(token.lemma))
        if token.entity is not None:
            atoms.add(EntityAtom(token.entity))
    return atoms


def _beam_key(sp: ScoredPattern):
    return (-sp.f1, len(sp.pattern.alternatives[0]), sp.rendered)


def score_pattern(
    pattern: PatternAst,
    positives: list[LabeledExample],
    hits: tuple[frozenset[str], frozenset[str]],
) -> ScoredPattern:
    """Score a pattern from `hits`, the ids of the (positives, negatives) it matches."""
    pos_ids, neg_ids = hits
    matched = len(pos_ids) + len(neg_ids)
    precision = len(pos_ids) / matched if matched else 0.0
    recall = len(pos_ids) / len(positives) if positives else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ScoredPattern(pattern, pos_ids, neg_ids, precision, recall, f1, render_pattern(pattern))


def enumerate_candidates(
    positives: list[LabeledExample],
    negatives: list[LabeledExample],
    cfg: SynthesisConfig,
    lex: SynonymLexicon,
) -> list[ScoredPattern]:
    """Beam-searched single-sequence candidates that match at least one positive.

    Sequences grow one atom per round up to `max_atoms`; each round keeps the
    top `beam_width` by F1 (ties: shorter, then lexicographic render).
    Consecutive wildcards are never generated, and a bare wildcard is kept in
    the beam as a seed but never returned as a candidate.

    A child is scored from its parent's end states (`patterns.advance`) on the
    examples the parent matched: adding an atom never adds a match.
    """
    if not positives:
        raise EmptyPositives("need at least one positive example")
    atom_pool = set()
    for ex in positives:
        atom_pool |= enumerate_atoms(ex.sentence, lex)
    atoms = sorted(atom_pool, key=lambda a: (render_pattern(PatternAst(((a,),)))))
    examples = positives + negatives
    ids = [ex.sentence.id for ex in examples]
    sizes = [len(ex.sentence) for ex in examples]
    masks = {atom: [atom_mask(atom, ex.sentence.tokens, lex) for ex in examples] for atom in atoms}

    def grow(states: dict[int, int], atom: Atom) -> dict[int, int]:
        column = masks[atom]
        return {j: end for j, state in states.items() if (end := advance(state, column[j], sizes[j]))}

    def scored(seq: tuple[Atom, ...], states: dict[int, int]) -> ScoredPattern:
        pos_ids = frozenset(ids[j] for j in states if j < len(positives))
        neg_ids = frozenset(ids[j] for j in states if j >= len(positives))
        return score_pattern(PatternAst((seq,)), positives, (pos_ids, neg_ids))

    everywhere = {j: (1 << (n + 1)) - 1 for j, n in enumerate(sizes)}
    beam: list[tuple[tuple[Atom, ...], dict[int, int]]] = [((), everywhere)]
    candidates: dict[str, ScoredPattern] = {}
    for _ in range(cfg.max_atoms):
        # (scored child, its parent's end states, its last atom)
        layer = [
            (scored(seq + (atom,), grow(states, atom)), states, atom)
            for seq, states in beam
            if states
            for atom in atoms
            if not (seq and isinstance(seq[-1], WildcardAtom) and isinstance(atom, WildcardAtom))
        ]
        layer.sort(key=lambda item: _beam_key(item[0]))
        for sp, _, _ in layer:
            seq = sp.pattern.alternatives[0]
            if sp.matched_positive_ids and not all(isinstance(a, WildcardAtom) for a in seq):
                candidates.setdefault(sp.rendered, sp)
        beam = [
            (sp.pattern.alternatives[0], grow(parent, atom))
            for sp, parent, atom in layer[: cfg.beam_width]
        ]
    return sorted(candidates.values(), key=_beam_key)


def synthesize_patterns(
    positives: list[LabeledExample],
    negatives: list[LabeledExample],
    cfg: SynthesisConfig,
    lex: SynonymLexicon,
) -> list[ScoredPattern]:
    """Greedy set cover over the high-precision candidates, in the order chosen.

    Repeatedly picks the candidate covering the most not-yet-covered
    positives (ties: higher F1, then shorter, then lexicographic render)
    until the positives are covered, nothing adds coverage, or
    `max_patterns` is reached.
    """
    candidates = enumerate_candidates(positives, negatives, cfg, lex)
    viable = [sp for sp in candidates if sp.precision >= cfg.min_precision - 1e-12]
    if not viable:
        raise NoViablePattern(
            f"no candidate reaches precision {cfg.min_precision} "
            f"({len(candidates)} candidates considered)"
        )
    uncovered = {ex.sentence.id for ex in positives}
    chosen: list[ScoredPattern] = []
    while uncovered and len(chosen) < cfg.max_patterns:
        best = min(
            viable,
            key=lambda sp: (
                -len(sp.matched_positive_ids & uncovered),
                -sp.f1,
                len(sp.pattern.alternatives[0]),
                sp.rendered,
            ),
        )
        if not best.matched_positive_ids & uncovered:
            break
        chosen.append(best)
        uncovered -= best.matched_positive_ids
    return chosen
