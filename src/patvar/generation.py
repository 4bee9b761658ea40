"""Counterfactual generation: multi-label separation, pattern-constrained
candidate phrases, the phrase-anchored counterfactual generator, and the
unconstrained rewrite baseline.

Generated phrases are never trusted: each one is re-annotated and checked
against the task pattern before it may constrain a counterfactual.
"""

from __future__ import annotations

import logging
import random
import re
import zlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Mapping, Sequence

from .annotation import AnnotatedSentence, Annotator, SynonymLexicon
from .errors import ParseError, PatvarError
from .experiment import Dataset
from .gateway import FINISH_REASONS, Gateway
from .patterns import (
    MatchSpan,
    PatternAst,
    PatternSyntaxError,
    match_sentence,
    parse_pattern,
    render_pattern,
)
from .prompts import GENERATION_MAX_TOKENS, SEPARATOR_MAX_TOKENS, fill, load_template

logger = logging.getLogger(__name__)


class ResponseFormatError(PatvarError):
    pass


@dataclass(frozen=True)
class GenerationTask:
    """One (original example, target label) generation job.

    `pattern` is None for the no-pattern rewrite baseline; otherwise it
    matches the original sentence and `matched_phrase` holds the text of the
    leftmost matched span, the anchor of the counterfactual.
    """

    original: AnnotatedSentence
    original_label: str
    target_label: str
    pattern: PatternAst | None = None
    matched_phrase: str = ""

    def __post_init__(self):
        if self.original_label == self.target_label:
            raise ValueError("original and target label must differ")


def build_task(
    original: AnnotatedSentence,
    original_label: str,
    target_label: str,
    pattern: PatternAst,
    span: MatchSpan,
) -> GenerationTask:
    """A pattern-constrained task anchored on `span`, the
    `find_matches(pattern, original, lex)` of its original."""
    return GenerationTask(original, original_label, target_label, pattern, span.text(original))


@dataclass(frozen=True)
class CounterfactualCandidate:
    """What `gen` made for one task; `filtering` judges it."""

    uid: str
    task: GenerationTask
    generated_text: str
    used_phrase: str | None
    finish_reason: str = "stop"


# ---------------------------------------------------------------------------
# Candidate (de)serialization for the candidates/survivors jsonl files
# ---------------------------------------------------------------------------


def candidate_fields(c: CounterfactualCandidate, encoded: dict) -> str:
    """The fields of a candidate's line in a candidates file, to which a
    survivors or audit line adds the filter's verdicts: the text between the
    braces of `json.dumps(record, ensure_ascii=True, sort_keys=True)`, written
    field by field. It names the original by id and text; the dataset holds
    its annotation. `encoded` (pattern -> JSON text) holds the patterns that
    earlier lines of the file wrote."""
    task = c.task
    pattern = encoded.get(task.pattern) or encoded.setdefault(
        task.pattern, "null" if task.pattern is None else _quote(render_pattern(task.pattern)))
    used_phrase = "null" if c.used_phrase is None else _quote(c.used_phrase)
    return (f'"finish_reason": {_quote(c.finish_reason)}, "generated_text": {_quote(c.generated_text)}, '
            f'"matched_phrase": {_quote(task.matched_phrase)}, '
            f'"original_id": {_quote(task.original.id)}, "original_label": {_quote(task.original_label)}, '
            f'"original_text": {_quote(task.original.raw)}, "pattern": {pattern}, '
            f'"target_label": {_quote(task.target_label)}, "uid": {_quote(c.uid)}, "used_phrase": {used_phrase}')


def candidates_from_records(
    records: Iterable[tuple[int, object]], dataset: Dataset
) -> list[CounterfactualCandidate]:
    """Rebuild the candidates of one file written by `candidate_fields`,
    given its (line number, record) pairs and the dataset, whose pool example
    each record's `original_id` names.

    Each distinct pattern string is parsed once; keys the record does not
    need (the verdicts of a survivors or audit line) are ignored. Raises
    ParseError naming the line of a record that is not an object, lacks or
    mistypes a field, names an original the pool does not hold or gives it
    another text or label, targets a label the dataset does not have, holds
    an unparsable pattern or an inconsistent task, or repeats an earlier uid.
    """
    examples = {ex.sentence.id: ex for ex in dataset.examples}
    patterns: dict[str, PatternAst] = {}
    lines: dict[str, int] = {}  # uid -> the line that holds it
    candidates = []
    for lineno, record in records:
        try:
            candidate = _candidate(record, examples, dataset.label_set, patterns)
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if candidate.uid in lines:
            raise ParseError(f"uid {candidate.uid!r} is already on line {lines[candidate.uid]}",
                             line=lineno)
        lines[candidate.uid] = lineno
        candidates.append(candidate)
    return candidates


# The fields of a candidate record and their types, in the order they are checked.
_FIELDS = (("original_id", str), ("original_text", str), ("original_label", str),
           ("target_label", str), ("pattern", (str, type(None))), ("matched_phrase", str),
           ("finish_reason", str), ("uid", str), ("generated_text", str),
           ("used_phrase", (str, type(None))))


def _candidate(record, examples: Mapping, labels, patterns: dict) -> CounterfactualCandidate:
    """One candidate; `patterns` (text -> AST) holds the patterns that
    earlier records of the file parsed."""
    if not isinstance(record, dict):
        raise ParseError(f"a candidate record must be an object, got {type(record).__name__}")
    for key, types in _FIELDS:
        if key not in record:
            raise ParseError(f"candidate record lacks {key!r}")
        if not isinstance(record[key], types):
            raise ParseError(f"candidate field {key!r} has type {type(record[key]).__name__}")
    (original_id, original_text, original_label, target_label, pattern_text, matched_phrase,
     finish_reason, uid, generated_text, used_phrase) = (record[key] for key, _ in _FIELDS)
    example = examples.get(original_id)
    if example is None:
        raise ParseError(f"original_id {original_id!r} is no example of the dataset's pool")
    if original_text != example.sentence.raw:
        raise ParseError(f"original_text differs from the text of dataset example {original_id!r}")
    if original_label != example.label:
        raise ParseError(f"original_label {original_label!r} differs from the label "
                         f"{example.label!r} of dataset example {original_id!r}")
    if target_label not in labels:
        raise ParseError(f"target_label {target_label!r} is no label of the dataset")
    try:
        if pattern_text is not None and pattern_text not in patterns:
            patterns[pattern_text] = parse_pattern(pattern_text)
        pattern = None if pattern_text is None else patterns[pattern_text]
        task = GenerationTask(example.sentence, original_label, target_label, pattern, matched_phrase)
    except (ValueError, PatternSyntaxError) as exc:
        raise ParseError(f"not a candidate record: {exc}") from None
    if finish_reason not in FINISH_REASONS:
        raise ParseError(f"finish_reason {finish_reason!r} is neither 'stop' nor 'length'")
    return CounterfactualCandidate(uid, task, generated_text, used_phrase, finish_reason)


# ---------------------------------------------------------------------------
# Multi-label separation
# ---------------------------------------------------------------------------

_TRIPLE_RE = re.compile(r"'([^']*)'\s*\+\s*'([^']*)'\s*\+\s*'([^']*)'")


def separate_multilabel(
    raw_text: str,
    patterns: Sequence[str],
    labels: Sequence[str],
    gateway: Gateway,
) -> list[tuple[str, str, str]]:
    """Split a multi-labeled sentence into (text, pattern, label) parts."""
    if not labels:
        raise ValueError("labels must be non-empty")
    slots = {
        "text": raw_text,
        "pattern": "[" + ", ".join(f"'{p}'" for p in patterns) + "]",
        "label": ", ".join(labels),
    }
    messages = fill(load_template("multilabel_separator"), slots)
    resp = gateway.complete(gateway.request(messages, SEPARATOR_MAX_TOKENS))
    parts: list[tuple[str, str, str]] = []
    for segment in resp.text.split(";"):
        if not segment.strip():
            continue
        m = _TRIPLE_RE.search(segment)
        if m is None:
            raise ResponseFormatError(
                f"cannot parse separator segment {segment.strip()[:80]!r}"
            )
        text, pattern, label = m.group(1), m.group(2), m.group(3)
        if label not in labels:
            raise ResponseFormatError(f"separator returned unknown label {label!r}")
        if not text.strip():
            raise ResponseFormatError(f"separator returned a blank text for label {label!r}")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ResponseFormatError(
                f"separator returned a lone surrogate in the text for label {label!r}") from None
        parts.append((text, pattern, label))
    if not parts:
        raise ResponseFormatError("separator returned no parts")
    return parts


# ---------------------------------------------------------------------------
# Candidate phrases
# ---------------------------------------------------------------------------


def collect_soft_matches(
    pattern: PatternAst, span: MatchSpan, original: AnnotatedSentence, lex: SynonymLexicon
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """(matched word, allowed synonyms) for each soft atom of `pattern` that
    `span`, its `find_matches` in `original`, binds."""
    seq = pattern.alternatives[span.alternative]
    return tuple(
        (original.tokens[lo].surface.lower(), tuple(sorted(lex.synonyms_of(atom.word))))
        for atom, (lo, _) in zip(seq, span.bindings)
        if atom.kind == "soft"
    )


def generate_candidate_phrases(
    task: GenerationTask,
    soft_matches: Sequence[tuple[str, Sequence[str]]],
    gateway: Gateway,
    provider: Annotator,
    lex: SynonymLexicon,
) -> tuple[str, ...]:
    """Ask for pattern-matching phrases, noting the allowed synonyms of each
    of `soft_matches`, the `collect_soft_matches` of the task's span, and
    return the ones that verify, () when none does."""
    if task.pattern is None:
        raise ValueError("candidate phrases need a pattern-constrained task")
    slots = {
        "matched_phrase": task.matched_phrase,
        "pattern": render_pattern(task.pattern),
        "label": task.original_label,
        "target_label": task.target_label,
    }
    messages = fill(load_template("candidate_phrases"), slots)
    note = load_template("soft_match_constraint")
    for word, synonyms in soft_matches:
        messages.extend(
            fill(note, {"match": word, "soft-match_words": ", ".join(synonyms)})
        )
    resp = gateway.complete(gateway.request(messages, GENERATION_MAX_TOKENS))
    valid = []
    for phrase in filter(None, (p.strip() for p in resp.text.split(","))):
        if match_sentence(task.pattern, provider.annotate(phrase), lex):
            valid.append(phrase)
        else:
            logger.warning(
                "dropping phrase %r: does not match pattern %s",
                phrase,
                render_pattern(task.pattern),
            )
    return tuple(valid)


# ---------------------------------------------------------------------------
# Counterfactual generation
# ---------------------------------------------------------------------------


def _find_used_phrase(text: str, phrases: Sequence[str]) -> str | None:
    lowered = text.lower()
    for phrase in phrases:
        if phrase.lower() in lowered:
            return phrase
    return None


def _rewrite(
    template: str, task: GenerationTask, gateway: Gateway, uid: str, phrases: Sequence[str] = ()
) -> CounterfactualCandidate:
    """One rewrite of the task's original by the prompt `template`, which may
    ask it to use one of `phrases`."""
    slots = {"text": task.original.raw, "label": task.original_label,
             "target_label": task.target_label, "generated_phrases": ", ".join(phrases)}
    messages = fill(load_template(template), slots)
    resp = gateway.complete(gateway.request(messages, GENERATION_MAX_TOKENS))
    text = resp.text.strip()
    return CounterfactualCandidate(
        uid=uid,
        task=task,
        generated_text=text,
        used_phrase=_find_used_phrase(text, phrases),
        finish_reason=resp.finish_reason,
    )


def generate_counterfactual(
    task: GenerationTask,
    phrases: Sequence[str],
    gateway: Gateway,
    uid: str,
) -> CounterfactualCandidate:
    """Generate one phrase-anchored counterfactual; filtering judges the text."""
    return _rewrite("counterfactual_generator", task, gateway, uid, phrases)


def generate_without_vt(
    original: AnnotatedSentence,
    original_label: str,
    target_label: str,
    gateway: Gateway,
    uid: str,
) -> CounterfactualCandidate:
    """Unconstrained rewrite baseline: no pattern, no phrase anchor."""
    task = GenerationTask(original, original_label, target_label, pattern=None)
    return _rewrite("counterfactual_no_vt", task, gateway, uid)


# ---------------------------------------------------------------------------
# Target planning
# ---------------------------------------------------------------------------


def plan_targets(example, label_set: Sequence[str], seed: int = 0) -> list[str]:
    """Target labels to generate counterfactuals toward: every other label
    when there are at most six labels, else three of them, sampled by a
    generator seeded with `seed`, the example's id and its label."""
    if len(label_set) < 2:
        raise ValueError("need at least two labels to plan targets")
    others = [l for l in label_set if l != example.label]
    if len(label_set) <= 6:
        return others
    rng = random.Random(f"{seed}:{example.sentence.id}:{zlib.crc32(example.label.encode())}")
    return sorted(rng.sample(others, 3), key=others.index)
