"""The neuro-symbolic pattern language: parsing, rendering, and matching.

Grammar (flat, no grouping):

    pattern := seq ('|' seq)*
    seq     := atom ('+' atom)*
    atom    := POSTAG | '[' word ']' | '(' word ')' | '$' TAG | '*'

Every atom is one `Atom(kind, word)`. `[word]` (kind "lemma") matches a
token by lemma, `(word)` ("soft") matches any token whose lemma is in the
word's synonym set, `$TAG` ("entity") matches a token carrying that entity
tag, a bare POS tag ("pos") matches by part of speech, and `*` (`WILDCARD`,
kind "*") matches any span of zero or more tokens. `+` joins atoms into an
adjacent sequence; `|` separates alternatives. Matching is unanchored: a
pattern matches a sentence when some alternative matches a contiguous token
span anywhere in it.

Matching is bit-parallel (shift-and; Baeza-Yates & Gonnet, CACM 1992). A
sentence's feature table (`sentence_features`, one pass over its tokens)
maps each POS tag, lemma and entity tag to the bitmask of the tokens that
carry it; an atom's mask (`atom_mask`) is read from that table and has bit t
set when the atom accepts token t. A state holds the positions 0..n where a
prefix of a sequence can end: bits 0..n when unanchored, one bit when
anchored at a start. A concrete atom maps `state` to `(state & mask) << 1`;
`*` sets every bit from the lowest set bit up to n; a sequence matches when
its final state is non-zero. `advance` also steps many sentences packed into
one integer, which is how synthesis scores a pattern on every example at once.
`find_matches` gives the leftmost match, the span that `gen` anchors a
counterfactual on: the first start whose anchored pass ends anywhere, and its
lowest end bit; a backward reachability pass gives the bindings.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import NamedTuple

from .annotation import POS_TAGS, AnnotatedSentence, SynonymLexicon, Token
from .errors import PatvarError

logger = logging.getLogger(__name__)


class PatternSyntaxError(PatvarError):
    """Pattern text could not be parsed; `column` is 1-based."""

    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"column {column}: {message}")


class Atom(NamedTuple):
    """One pattern atom. `kind` is the token field a concrete atom tests
    ("pos", "lemma" or "entity"), "soft" for a lemma's synonym set, or "*"
    for the wildcard; `word` is the tag or lemma it tests ("" for "*")."""

    kind: str
    word: str = ""


WILDCARD = Atom("*")

# Each atom kind's text form; `word` fills the braces.
_FORMS = {"pos": "{}", "lemma": "[{}]", "soft": "({})", "entity": "${}", "*": "*"}

Sequence = tuple[Atom, ...]


@dataclass(frozen=True)
class PatternAst:
    alternatives: tuple[Sequence, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "alternatives", tuple(tuple(seq) for seq in self.alternatives)
        )
        if not self.alternatives:
            raise ValueError("pattern must have at least one alternative")
        for seq in self.alternatives:
            if not seq:
                raise ValueError("pattern sequence must have at least one atom")
            for atom in seq:
                if atom.kind not in _FORMS:
                    raise ValueError(f"unknown atom kind: {atom.kind!r}")
            if any(a == b == WILDCARD for a, b in zip(seq, seq[1:])):
                raise ValueError("consecutive wildcards must be collapsed")

    def atom_count(self) -> int:
        return sum(len(seq) for seq in self.alternatives)


@dataclass(frozen=True)
class MatchSpan:
    """A contiguous token span matched by one alternative.

    `bindings[i]` is the half-open token range bound by atom i of the
    matched alternative; non-wildcard atoms bind exactly one token.
    """

    start: int
    end: int
    alternative: int = 0
    bindings: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def text(self, sentence: AnnotatedSentence) -> str:
        return " ".join(t.surface for t in sentence.tokens[self.start : self.end])


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

_DELIMITERS = set("+|")
_META = set("[]()$*+|")


def _read_word(text: str, i: int, closer: str) -> tuple[str, int]:
    # i points at the opening bracket; returns (word, index after closer)
    col = i + 1
    j = text.find(closer, i + 1)
    if j < 0:
        raise PatternSyntaxError(f"unclosed {text[i]!r}", col)
    word = text[i + 1 : j].strip()
    if not word:
        raise PatternSyntaxError("empty atom", col)
    if any(ch.isspace() for ch in word) or any(ch in _META for ch in word):
        raise PatternSyntaxError(f"atom word must be a single plain word: {word!r}", col)
    return word.lower(), j + 1


def parse_pattern(text: str) -> PatternAst:
    """Parse pattern text. Raises PatternSyntaxError with a 1-based column."""
    alternatives: list[list[Atom]] = []
    seq: list[Atom] = []
    i = 0
    n = len(text)
    expect_atom = True
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        ch = text[i]
        col = i + 1
        if expect_atom:
            if ch == "[":
                word, i = _read_word(text, i, "]")
                atom = Atom("lemma", word)
            elif ch == "(":
                word, i = _read_word(text, i, ")")
                atom = Atom("soft", word)
            elif ch == "$":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] in "_-"):
                    j += 1
                tag = text[i + 1 : j]
                if not tag:
                    raise PatternSyntaxError("empty entity tag", col)
                atom = Atom("entity", tag.upper())
                i = j
            elif ch == "*":
                atom = WILDCARD
                i += 1
            elif ch in _DELIMITERS:
                raise PatternSyntaxError("empty atom before separator", col)
            else:
                j = i
                while j < n and not text[j].isspace() and text[j] not in _META:
                    j += 1
                name = text[i:j]
                if name in POS_TAGS:
                    atom = Atom("pos", name)
                else:
                    raise PatternSyntaxError(
                        f"{name!r} is not a POS tag; write [word] or (word) for lemmas", col
                    )
                i = j
            # Adjacent wildcards collapse to one at parse time.
            if not (atom == WILDCARD and seq and seq[-1] == WILDCARD):
                seq.append(atom)
            expect_atom = False
        else:
            if ch == "+":
                expect_atom = True
                i += 1
            elif ch == "|":
                alternatives.append(seq)
                seq = []
                expect_atom = True
                i += 1
            else:
                raise PatternSyntaxError(f"expected '+', '|', or end, got {ch!r}", col)
    if expect_atom:
        if not seq and not alternatives:
            raise PatternSyntaxError("empty pattern", 1)
        raise PatternSyntaxError("dangling separator", n)
    alternatives.append(seq)
    return PatternAst(tuple(tuple(s) for s in alternatives))


def render_atom(atom: Atom) -> str:
    return _FORMS[atom.kind].format(atom.word)


def render_pattern(p: PatternAst) -> str:
    """Canonical text form; parse_pattern(render_pattern(p)) == p."""
    return "|".join("+".join(render_atom(a) for a in seq) for seq in p.alternatives)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def atom_matches_token(atom: Atom, token: Token, lex: SynonymLexicon) -> bool:
    if atom.kind == "soft":
        return token.lemma in lex.synonyms_of(atom.word)
    if atom == WILDCARD:
        raise TypeError(f"wildcards have no single-token semantics: {atom!r}")
    return getattr(token, atom.kind) == atom.word


class Features(NamedTuple):
    """Token bitmasks of a sentence (or of a packed row of sentences) by POS
    tag, lemma and entity tag: bit t of `lemma["food"]` is set iff token t
    has lemma "food"."""

    pos: dict[str, int]
    lemma: dict[str, int]
    entity: dict[str, int]


def sentence_features(tokens: tuple[Token, ...]) -> Features:
    """The feature table of a sentence, in one pass over its tokens."""
    pos: dict[str, int] = {}
    lemma: dict[str, int] = {}
    entity: dict[str, int] = {}
    for t, token in enumerate(tokens):
        bit = 1 << t
        pos[token.pos] = pos.get(token.pos, 0) | bit
        lemma[token.lemma] = lemma.get(token.lemma, 0) | bit
        if token.entity is not None:
            entity[token.entity] = entity.get(token.entity, 0) | bit
    return Features(pos, lemma, entity)


def atom_mask(atom: Atom, features: Features, lex: SynonymLexicon) -> int | None:
    """Position bitmask of `atom` over the sentence (or packed row) whose
    feature table is `features`: bit t is set iff the atom accepts token t.
    None for the wildcard, which has no per-token test."""
    if atom.kind == "soft":
        mask = 0
        for lemma in lex.synonyms_of(atom.word):
            mask |= features.lemma.get(lemma, 0)
        return mask
    if atom == WILDCARD:
        return None
    return getattr(features, atom.kind).get(atom.word, 0)


def advance(state: int, mask: int | None, guard: int, valid: int) -> int:
    """End positions after one more atom with `mask`, from the end positions
    `state` before it.

    A state may pack several sentences: sentence j of n_j tokens owns n_j + 2
    bits, end positions 0..n_j then a guard bit. `guard` has every guard bit
    set and `valid` every end position; a lone sentence of n tokens has
    `guard = 1 << (n + 1)` and `valid = guard - 1`. Masks set token
    positions only, so a concrete atom's shift never reaches the next
    sentence; for `*`, each sentence's borrow in `guard - state` stops at its
    own guard bit, which fills its end positions from its lowest set bit up
    and leaves an empty sentence empty.
    """
    if mask is not None:
        return (state & mask) << 1
    return ((guard - state) | state) & valid


def _forward(state: int, masks, n: int) -> int:
    guard = 1 << (n + 1)
    for mask in masks:
        if not state:
            break
        state = advance(state, mask, guard, guard - 1)
    return state


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def match_sentence(p: PatternAst, s: AnnotatedSentence, lex: SynonymLexicon) -> bool:
    """True iff some alternative matches a contiguous span anywhere in `s`."""
    n = len(s.tokens)
    features = sentence_features(s.tokens)
    return any(
        _forward((1 << (n + 1)) - 1, (atom_mask(atom, features, lex) for atom in seq), n)
        for seq in p.alternatives
    )


def _bindings(masks: list[int | None], start: int, end: int) -> tuple[tuple[int, int], ...]:
    """Bindings of a match from `start` to `end`, each wildcard taking as few
    tokens as the atoms after it allow (the lexicographically smallest takes)."""
    # reach[i]: positions from which atoms i.. can end exactly at `end`.
    reach = [1 << end]
    for mask in reversed(masks):
        after = reach[-1]
        reach.append((1 << after.bit_length()) - 1 if mask is None else (after >> 1) & mask)
    reach.reverse()
    bindings, pos = [], start
    for mask, after in zip(masks, reach[1:]):
        nxt = pos + 1 if mask is not None else _lowest(after >> pos << pos)
        bindings.append((pos, nxt))
        pos = nxt
    return tuple(bindings)


def find_matches(p: PatternAst, s: AnnotatedSentence, lex: SynonymLexicon) -> MatchSpan | None:
    """The leftmost match span, None iff `match_sentence(p, s, lex)` is False.

    At that start the shortest match wins; ties go to the earlier
    alternative, then to the lexicographically smallest wildcard takes. A
    zero-length match (possible only for all-wildcard alternatives) is at
    position 0.
    """
    n = len(s.tokens)
    features = sentence_features(s.tokens)
    masks = [[atom_mask(atom, features, lex) for atom in seq] for seq in p.alternatives]
    for start in range(n + 1):
        ends = [_forward(1 << start, seq_masks, n) for seq_masks in masks]
        best = min(((_lowest(state), idx) for idx, state in enumerate(ends) if state), default=None)
        if best is not None:
            end, idx = best
            return MatchSpan(start, end, idx, _bindings(masks[idx], start, end))
    return None


def brute_force_match(p: PatternAst, s: AnnotatedSentence, lex: SynonymLexicon) -> bool:
    """Exhaustive matching oracle: try every span and every partition of it.

    Kept deliberately independent of the bit-parallel matcher so the two can
    check each other. Only valid for small inputs.
    """
    if len(s.tokens) > 12:
        raise ValueError(f"sentence has {len(s.tokens)} tokens (limit 12)")
    if p.atom_count() > 5:
        raise ValueError(f"pattern has {p.atom_count()} atoms (limit 5)")
    tokens = s.tokens
    n = len(tokens)
    for seq in p.alternatives:
        k = len(seq)
        # can_match[i][t]: atom i accepts token t (wildcards accept anything)
        can_match = [
            [True] * n if atom == WILDCARD else [atom_matches_token(atom, t, lex) for t in tokens]
            for atom in seq
        ]
        for start in range(n + 1):
            for end in range(start, n + 1):
                # Cut points partition [start, end) into k consecutive pieces.
                for cuts in itertools.combinations_with_replacement(range(start, end + 1), k - 1):
                    bounds = (start, *cuts, end)
                    ok = True
                    for ai, atom in enumerate(seq):
                        lo, hi = bounds[ai], bounds[ai + 1]
                        if atom == WILDCARD:
                            continue
                        if hi - lo != 1 or not can_match[ai][lo]:
                            ok = False
                            break
                    if ok:
                        return True
    return False
