"""Tokens, annotated sentences, and synonym lexicons: the substrate that the
pattern language matches against.

Annotations come either from a pluggable provider (see `AnnotationProvider`)
or from a pre-annotated line-delimited file produced offline by any tagger;
an `Annotator` serves both, each distinct text once.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterable, Protocol

from .errors import (
    ParseError,
    PatvarError,
    ProviderFailure,
    read_jsonl,
    utf8_lines,
)

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
            raise ValueError(f"unknown pos tag {self.pos!r}")
        if not self.lemma and any(ch.isalnum() for ch in self.surface):
            raise ValueError(f"empty lemma for surface {self.surface!r}")
        if self.lemma != self.lemma.lower():
            raise ValueError(f"lemma must be lowercase: {self.lemma!r}")
        if self.entity is not None and not _ENTITY_TAG_RE.match(self.entity):
            raise ValueError(
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
            raise ValueError(
                f"tokens do not reconstruct raw text (sentence {self.id!r})"
            )

    def __len__(self) -> int:
        return len(self.tokens)

    def lemmas(self) -> list[str]:
        return [t.lemma for t in self.tokens]


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

    def synonyms_of(self, lemma: str) -> frozenset[str]:
        """Synonym set of `lemma`, always containing the lemma itself."""
        key = lemma.lower()
        return frozenset(self._sets.get(key, ())) | {key}


def load_synonyms_file(path) -> SynonymLexicon:
    """Load a lexicon from `lemma<TAB>syn1,syn2,...` lines (symmetric closure applied)."""
    lex = SynonymLexicon()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(utf8_lines(fh, path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise ParseError("expected `lemma<TAB>synonyms` format", line=lineno)
            lemma, _, rest = line.partition("\t")
            lex.add_group([lemma, *rest.split(",")])
    return lex


class Annotator:
    """The one caller of a provider's `annotate`, scoped to one command. It
    annotates each distinct text once and checks the result once: an
    AnnotatedSentence of that text, else ProviderFailure. An exception of
    the provider that is no PatvarError is chained into a ProviderFailure.
    `sentences` (an `annotations:` file's) are served as given; every later
    call for a text returns the same object."""

    def __init__(self, provider: AnnotationProvider, sentences: Iterable[AnnotatedSentence] = ()):
        self._provider = provider
        self._sentences = {s.raw: s for s in sentences}

    def annotate(self, raw: str) -> AnnotatedSentence:
        sentence = self._sentences.get(raw)
        if sentence is None:
            try:
                sentence = self._provider.annotate(raw)
            except PatvarError:
                raise
            except Exception as exc:
                raise ProviderFailure(f"provider raised {type(exc).__name__}: {exc}") from exc
            if not isinstance(sentence, AnnotatedSentence):
                raise ProviderFailure(
                    f"provider returned {type(sentence).__name__}, not an AnnotatedSentence")
            if "".join(sentence.raw.split()) != "".join(raw.split()):
                raise ProviderFailure("provider annotation does not correspond to the input text")
            self._sentences[raw] = sentence
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


def record_to_sentence(record: dict, line: int | None = None) -> AnnotatedSentence:
    if not isinstance(record, dict):
        raise ParseError(f"a record must be an object, got {type(record).__name__}", line=line)
    unknown = set(record) - _RECORD_FIELDS
    if unknown or not _RECORD_FIELDS <= set(record):
        raise ParseError(
            f"record fields must be exactly id/raw/tokens (got {sorted(record)})", line=line
        )
    if not isinstance(record["raw"], str) or not isinstance(record["tokens"], list):
        raise ParseError("record raw must be a string and tokens a list", line=line)
    tokens = []
    for tok in record["tokens"]:
        if not isinstance(tok, dict) or not {"surface", "lemma"} <= set(tok) or set(tok) - _TOKEN_FIELDS:
            raise ParseError(f"malformed token record {tok!r}", line=line)
        surface, lemma, pos, entity = tok["surface"], tok["lemma"], tok.get("pos", POS_OTHER), tok.get("entity")
        if not (isinstance(surface, str) and isinstance(lemma, str) and isinstance(pos, str)
                and (entity is None or isinstance(entity, str))):
            raise ParseError(f"token fields must be strings (entity may be null): {tok!r}", line=line)
        if pos not in ALL_POS:
            logger.warning("record %s: unknown pos %r mapped to OTHER", record["id"], pos)
            pos = POS_OTHER
        tokens.append((surface, lemma, pos, entity))
    try:  # a token rule, or tokens that do not spell raw
        return AnnotatedSentence(str(record["id"]), record["raw"], tuple(Token(*t) for t in tokens))
    except ValueError as exc:
        raise ParseError(f"record {record['id']!r}: {exc}", line=line) from None


def load_annotations_file(path) -> list[AnnotatedSentence]:
    """Load pre-annotated sentences from line-delimited JSON records; a line
    that is not UTF-8 or not JSON raises ConfigError naming the file and line,
    and a malformed record a ParseError naming the line."""
    return [record_to_sentence(record, line=lineno) for lineno, record in read_jsonl(path)]
