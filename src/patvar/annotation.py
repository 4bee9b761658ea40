"""Tokens, annotated sentences, and synonym lexicons: the substrate that the
pattern language matches against.

Annotations come either from a pluggable provider (see `AnnotationProvider`)
or from a pre-annotated line-delimited file produced offline by any tagger.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, runtime_checkable

from .errors import InvariantViolation, ParseError, ProviderFailure

logger = logging.getLogger(__name__)

# The eight content tags the pattern language knows about; everything else is OTHER.
POS_TAGS = ("VERB", "PROPN", "NOUN", "ADJ", "ADV", "AUX", "PRON", "NUM")
POS_OTHER = "OTHER"
ALL_POS = frozenset(POS_TAGS) | {POS_OTHER}

TERMINAL_PUNCTUATION = ".,!?;:"

_ENTITY_TAG_RE = re.compile(r"^[A-Z][A-Z0-9_-]*$")


def tokenize(raw: str) -> list[str]:
    """Split on whitespace, then peel terminal punctuation into its own tokens.

    Internal punctuation (hyphens, apostrophes, mid-word dots) stays attached.
    Never yields empty tokens; lowercase normalization is not applied here.
    """
    out: list[str] = []
    for chunk in raw.split():
        tail: list[str] = []
        while chunk and chunk[-1] in TERMINAL_PUNCTUATION:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        if chunk:
            out.append(chunk)
        out.extend(reversed(tail))
    return out


@dataclass(frozen=True)
class Token:
    surface: str
    lemma: str
    pos: str = POS_OTHER
    entity: str | None = None

    def __post_init__(self):
        if self.pos not in ALL_POS:
            raise InvariantViolation(f"unknown pos tag {self.pos!r}")
        if not self.lemma and any(ch.isalnum() for ch in self.surface):
            raise InvariantViolation(f"empty lemma for surface {self.surface!r}")
        if self.lemma != self.lemma.lower():
            raise InvariantViolation(f"lemma must be lowercase: {self.lemma!r}")
        if self.entity is not None and not _ENTITY_TAG_RE.match(self.entity):
            raise InvariantViolation(
                f"entity tag must be an uppercase identifier: {self.entity!r}"
            )


@dataclass(frozen=True)
class AnnotatedSentence:
    id: str
    raw: str
    tokens: tuple[Token, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        # Token surfaces must reconstruct the raw text once whitespace is ignored.
        if "".join(t.surface for t in self.tokens) != "".join(self.raw.split()):
            raise InvariantViolation(
                f"tokens do not reconstruct raw text (sentence {self.id!r})"
            )

    def __len__(self) -> int:
        return len(self.tokens)

    def lemmas(self) -> list[str]:
        return [t.lemma for t in self.tokens]


@runtime_checkable
class AnnotationProvider(Protocol):
    """Anything that deterministically turns raw text into an AnnotatedSentence."""

    def annotate(self, raw: str) -> AnnotatedSentence: ...


class SynonymLexicon:
    """Symmetric lemma -> synonym-set map.

    Built from groups; every member of a group is a synonym of every other
    member, so symmetry holds by construction. Lookups for unknown lemmas
    return the singleton set (a lemma is always its own synonym).
    """

    def __init__(self, groups: Iterable[Iterable[str]] = ()):
        self._sets: dict[str, set[str]] = {}
        for group in groups:
            self.add_group(group)

    def add_group(self, group: Iterable[str]) -> None:
        members = {w.strip().lower() for w in group if w.strip()}
        for w in members:
            self._sets.setdefault(w, set()).update(members)

    def __contains__(self, lemma: str) -> bool:
        return lemma.lower() in self._sets

    def __len__(self) -> int:
        return len(self._sets)

    def synonyms_of(self, lemma: str) -> frozenset[str]:
        """Synonym set of `lemma`, always containing the lemma itself."""
        key = lemma.lower()
        return frozenset(self._sets.get(key, ())) | {key}


def load_synonyms_file(path) -> SynonymLexicon:
    """Load a lexicon from `lemma<TAB>syn1,syn2,...` lines (symmetric closure applied)."""
    lex = SynonymLexicon()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise ParseError("expected `lemma<TAB>synonyms` format", line=lineno)
            lemma, _, rest = line.partition("\t")
            lex.add_group([lemma, *rest.split(",")])
    return lex


def annotate(raw: str, provider: AnnotationProvider) -> AnnotatedSentence:
    """Run the provider on raw text; reject malformed outputs."""
    sentence = provider.annotate(raw)
    if not isinstance(sentence, AnnotatedSentence):
        raise ProviderFailure(f"provider returned {type(sentence).__name__}, not an AnnotatedSentence")
    if "".join(sentence.raw.split()) != "".join(raw.split()):
        raise ProviderFailure("provider annotation does not correspond to the input text")
    return sentence


_RECORD_FIELDS = {"id", "raw", "tokens"}
_TOKEN_FIELDS = {"surface", "lemma", "pos", "entity"}


def sentence_to_record(sentence: AnnotatedSentence) -> dict:
    tokens = []
    for t in sentence.tokens:
        rec = {"surface": t.surface, "lemma": t.lemma, "pos": t.pos}
        if t.entity is not None:
            rec["entity"] = t.entity
        tokens.append(rec)
    return {"id": sentence.id, "raw": sentence.raw, "tokens": tokens}


def record_to_sentence(record: Mapping, line: int | None = None) -> AnnotatedSentence:
    unknown = set(record) - _RECORD_FIELDS
    if unknown or not _RECORD_FIELDS <= set(record):
        raise ParseError(
            f"record fields must be exactly id/raw/tokens (got {sorted(record)})", line=line
        )
    tokens = []
    for tok in record["tokens"]:
        if not isinstance(tok, Mapping) or not {"surface", "lemma"} <= set(tok) or set(tok) - _TOKEN_FIELDS:
            raise ParseError(f"malformed token record {tok!r}", line=line)
        pos = tok.get("pos", POS_OTHER)
        if pos not in ALL_POS:
            logger.warning("record %s: unknown pos %r mapped to OTHER", record["id"], pos)
            pos = POS_OTHER
        tokens.append(Token(tok["surface"], tok["lemma"], pos, tok.get("entity")))
    try:
        return AnnotatedSentence(str(record["id"]), record["raw"], tuple(tokens))
    except InvariantViolation as exc:
        raise InvariantViolation(f"record {record['id']!r}: {exc}") from exc


def load_annotations_file(path) -> list[AnnotatedSentence]:
    """Load pre-annotated sentences from line-delimited JSON records."""
    sentences: list[AnnotatedSentence] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from exc
            sentences.append(record_to_sentence(record, line=lineno))
    return sentences
