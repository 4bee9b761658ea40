"""Three-stage filtering of generated counterfactuals and the batch quality
metrics computed from the recorded verdicts.

Stage order is fixed: heuristic (cheap text checks), symbolic (does the text
still match the source pattern), discriminator (does an LLM judge assign the
target label). Metrics: the pattern keeping rate is the fraction of
symbolically judged candidates that kept their pattern; the label flip rate
is the fraction of discriminator-judged candidates whose assigned label hit
the target; the soft label flip rate is the fraction whose assigned label
left the original. Each rate is computed over its own judged population.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple, Sequence

from .annotation import Annotator, SynonymLexicon, tokenize
from .gateway import BackendError, Gateway
from .errors import ParseError, PatvarError
from .experiment import Dataset
from .generation import (
    CounterfactualCandidate,
    GenerationTask,
    ResponseFormatError,
    candidate_fields,
    candidates_from_records,
)
from .patterns import WILDCARD, PatternAst, match_sentence, render_pattern
from .prompts import DISCRIMINATOR_MAX_TOKENS, fill, load_template

logger = logging.getLogger(__name__)

REFUSAL_TEXT = "cannot generate counterfactual"

# Fragments of our own prompt scaffolding; their presence means the model
# echoed the prompt instead of answering.
SCAFFOLD_MARKERS = (
    "modified text:",
    "original text:",
    "original label:",
    "modified label:",
    "generated phrases:",
    "criteria 1",
    "criteria 2",
    "criteria 3",
    '"role"',
    "'role'",
    "system:",
    "assistant:",
)

_TERMINAL_CHARS = ".!?"
_CLOSING_CHARS = "\"')]}"

STAGES = ("heuristic", "symbolic", "discriminator")


@dataclass(frozen=True)
class StageVerdict:
    status: str  # pending | passed | failed | skipped
    reason: str = ""

    def __post_init__(self):
        if self.status not in ("pending", "passed", "failed", "skipped"):
            raise ValueError(f"unknown verdict status {self.status!r}")


# The stages of each ablation arm; every arm that runs a later stage runs
# the heuristic one.
ARMS = {
    "none": (),
    "heuristic": ("heuristic",),
    "heuristic+symbolic": ("heuristic", "symbolic"),
    "heuristic+discriminator": ("heuristic", "discriminator"),
    "all": STAGES,
}


@dataclass(frozen=True)
class QualityReport:
    n: int
    pattern_n: int
    pattern_kept: int
    label_n: int
    soft_flips: int
    hard_flips: int
    pkr: float | None
    slfr: float | None
    lfr: float | None


def compute_metrics(rows: Sequence[FilterRow]) -> QualityReport:
    """PKR / SLFR / LFR over the rows judged on each dimension: a symbolic
    verdict that passed or failed, and an assigned discriminator label."""
    pattern_judged = [r.verdicts["symbolic"].status for r in rows
                      if r.verdicts["symbolic"].status in ("passed", "failed")]
    label_judged = [(r.discriminator_label, r.candidate.task) for r in rows
                    if r.discriminator_label is not None]
    kept = pattern_judged.count("passed")
    hard = sum(1 for label, task in label_judged if label == task.target_label)
    soft = sum(1 for label, task in label_judged if label != task.original_label)
    return QualityReport(
        n=len(rows),
        pattern_n=len(pattern_judged),
        pattern_kept=kept,
        label_n=len(label_judged),
        soft_flips=soft,
        hard_flips=hard,
        pkr=kept / len(pattern_judged) if pattern_judged else None,
        slfr=soft / len(label_judged) if label_judged else None,
        lfr=hard / len(label_judged) if label_judged else None,
    )


# ---------------------------------------------------------------------------
# Stage filters
# ---------------------------------------------------------------------------


def heuristic_filter(c: CounterfactualCandidate) -> StageVerdict:
    """Reject refusals, prompt echoes, incomplete text, and trivial output."""
    text = c.generated_text
    lowered = text.lower()
    if REFUSAL_TEXT in lowered:
        return StageVerdict("failed", "refusal")
    for marker in SCAFFOLD_MARKERS:
        if marker in lowered:
            return StageVerdict("failed", f"prompt echo ({marker!r})")
    n_tokens = len(tokenize(text))
    if c.finish_reason == "length":
        return StageVerdict("failed", "incomplete (truncated)")
    stripped = text.rstrip()
    while stripped and stripped[-1] in _CLOSING_CHARS:
        stripped = stripped[:-1]
    if n_tokens > 3 and (not stripped or stripped[-1] not in _TERMINAL_CHARS):
        return StageVerdict("failed", "incomplete (no terminal punctuation)")
    if n_tokens < 3:
        return StageVerdict("failed", "trivial (too short)")
    if text == c.task.original.raw:
        return StageVerdict("failed", "trivial (identical to original)")
    return StageVerdict("passed")


def symbolic_filter(
    c: CounterfactualCandidate, lex: SynonymLexicon, provider: Annotator
) -> StageVerdict:
    """Keep only counterfactuals that still match the source pattern."""
    pattern = c.task.pattern
    if pattern is None:
        return StageVerdict("skipped", "no pattern (unconstrained baseline)")
    if all(a == WILDCARD for seq in pattern.alternatives for a in seq):
        logger.warning("vacuous pattern %r always passes", render_pattern(pattern))
        return StageVerdict("passed", "vacuous pattern")
    sentence = provider.annotate(c.generated_text)
    if match_sentence(pattern, sentence, lex):
        return StageVerdict("passed")
    return StageVerdict("failed", f"does not match pattern {render_pattern(pattern)}")


def discriminator_filter(
    c: CounterfactualCandidate, label_set: Sequence[str], gateway: Gateway
) -> tuple[StageVerdict, str]:
    """Ask the discriminator for one label; pass only if it hits the target.
    Returns the verdict and the label the discriminator assigned."""
    slots = {"text": c.generated_text, "labels": ", ".join(label_set)}
    messages = fill(load_template("discriminator"), slots)
    resp = gateway.complete(gateway.request(messages, DISCRIMINATOR_MAX_TOKENS))
    answer = resp.text.strip().strip("\"'").rstrip(".").strip().lower()
    by_lower = {label.lower(): label for label in label_set}
    if answer not in by_lower:
        raise ResponseFormatError(f"discriminator answered {resp.text!r}, not a known label")
    predicted = by_lower[answer]
    return _label_verdict(predicted, c.task), predicted


def _label_verdict(predicted: str, task: GenerationTask) -> StageVerdict:
    """The discriminator verdict of the assigned label `predicted` on `task`:
    passed on its target label, else failed."""
    if predicted == task.target_label:
        return StageVerdict("passed")
    if predicted == task.original_label:
        return StageVerdict("failed", "kept original label")
    return StageVerdict("failed", f"missed target (got {predicted!r})")


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class FilterRow(NamedTuple):
    """One candidate as `run_pipeline` judged it: a verdict per stage, in
    `STAGES` order, and the label the discriminator assigned (None when it
    did not run or failed, or when an earlier stage failed the candidate)."""

    candidate: CounterfactualCandidate
    verdicts: dict[str, StageVerdict]
    discriminator_label: str | None

    @property
    def survived(self) -> bool:
        return all(v.status != "failed" for v in self.verdicts.values())

    def line(self, encoded: dict) -> str:
        """The row's line in a survivors or audit file: its candidate's
        `candidate_fields` plus its assigned label and verdicts, with the bytes
        of `json.dumps(record, ensure_ascii=True, sort_keys=True)`. `encoded`
        (pattern or verdict -> JSON text) holds those that earlier lines of the
        file wrote."""
        for v in self.verdicts.values():
            if v not in encoded:
                encoded[v] = f'{{"reason": {_quote(v.reason)}, "status": {_quote(v.status)}}}'
        text = {stage: encoded[v] for stage, v in self.verdicts.items()}
        label = "null" if self.discriminator_label is None else _quote(self.discriminator_label)
        return (f'{{"discriminator_label": {label}, {candidate_fields(self.candidate, encoded)}, '
                f'"verdicts": {{"discriminator": {text["discriminator"]}, '
                f'"heuristic": {text["heuristic"]}, "symbolic": {text["symbolic"]}}}}}')


def run_pipeline(
    candidates: Sequence[CounterfactualCandidate],
    label_set: Sequence[str],
    lex: SynonymLexicon,
    provider: Annotator,
    gateway: Gateway,
) -> tuple[list[CounterfactualCandidate], QualityReport, list[FilterRow]]:
    """Apply the stages in order; return the survivors, the batch metrics,
    and one row per candidate in input order. The discriminator chooses
    from `label_set`.

    The symbolic and discriminator stages judge every candidate that the
    heuristic stage did not fail; after a heuristic failure they read
    pending. A PatvarError of the symbolic stage (a provider failure) and a
    malformed or failed discriminator response become failed verdicts
    instead of aborting the batch; any other exception is a fault of the
    program and propagates. The assigned label, and so each metric, counts
    a verdict only where no earlier stage failed the candidate.

    Each distinct question is judged once per call: the symbolic verdict per
    (pattern, generated text), and the discriminator's answer per generated
    text, a label or its ResponseFormatError, from which each candidate's
    verdict follows against its own target and original label. A provider
    failure and a BackendError are not kept, so a later candidate with the
    same text asks again."""
    matched: dict[tuple[PatternAst | None, str], StageVerdict] = {}
    answers: dict[str, str | ResponseFormatError] = {}
    rows: list[FilterRow] = []
    for cand in candidates:
        heuristic = heuristic_filter(cand)
        symbolic = discriminator = StageVerdict("pending")
        assigned = None
        if heuristic.status != "failed":
            question = (cand.task.pattern, cand.generated_text)
            symbolic = matched.get(question)
            if symbolic is None:
                try:
                    symbolic = matched[question] = symbolic_filter(cand, lex, provider)
                except PatvarError as exc:  # provider failures become verdicts
                    symbolic = StageVerdict("failed", f"error: {exc}")
            answer = answers.get(cand.generated_text)
            if answer is None:
                try:
                    answer = discriminator_filter(cand, label_set, gateway)[1]
                    answers[cand.generated_text] = answer
                except ResponseFormatError as exc:
                    answer = answers[cand.generated_text] = exc
                except BackendError as exc:  # not kept: the next candidate asks again
                    answer = exc
            if isinstance(answer, str):
                discriminator = _label_verdict(answer, cand.task)
                if symbolic.status != "failed":
                    assigned = answer
            else:
                discriminator = StageVerdict("failed", f"error: {answer}")
        verdicts = {"heuristic": heuristic, "symbolic": symbolic, "discriminator": discriminator}
        rows.append(FilterRow(cand, verdicts, assigned))
    survivors = [row.candidate for row in rows if row.survived]
    return survivors, compute_metrics(rows), rows


def survivors_by_arm(rows: Sequence[FilterRow]) -> dict[str, list[CounterfactualCandidate]]:
    """The survivors of each arm of `ARMS`, in input order, read off the rows
    of `run_pipeline`: as no stage reads another's verdict, an arm keeps the
    candidates that no stage of it failed. Only a heuristic failure leaves a
    stage pending, and every arm that runs a later stage runs the heuristic
    one."""
    return {arm: [row.candidate for row in rows
                  if all(row.verdicts[stage].status != "failed" for stage in stages)]
            for arm, stages in ARMS.items()}


def rows_from_audit(records: Sequence[tuple[int, object]], dataset: Dataset) -> list[FilterRow]:
    """The inverse of `FilterRow.line` for the (line number, record) pairs
    of an audit file, given the dataset. ParseError names the line
    of a record `candidates_from_records` rejects, with malformed verdicts or
    label, or whose heuristic passer has a stage neither passed nor failed
    (from an older `filter`), but for the symbolic stage of a candidate with
    no pattern, which reads skipped. Each distinct (status, reason) is one
    StageVerdict."""
    rows, known = [], {}  # (status, reason) -> its StageVerdict
    for (lineno, record), cand in zip(records, candidates_from_records(records, dataset)):
        raw, label = record.get("verdicts"), record.get("discriminator_label")
        try:
            keys = {s: (raw[s]["status"], raw[s]["reason"]) for s in STAGES}
            verdicts = {s: known.get(k) or known.setdefault(k, StageVerdict(*k)) for s, k in keys.items()}
            if set(raw) != set(STAGES) or not all(isinstance(v.reason, str) for v in verdicts.values()):
                raise ValueError
        except (TypeError, KeyError, ValueError):
            raise ParseError(f"verdicts must be an object over the stages {', '.join(STAGES)}, "
                             "each a known status with a string reason", line=lineno) from None
        if "discriminator_label" not in record or not isinstance(label, (str, type(None))):
            raise ParseError("discriminator_label must be a string or null", line=lineno)
        unjudged = [s for s, v in verdicts.items() if v.status not in ("passed", "failed")]
        if cand.task.pattern is None and verdicts["symbolic"].status == "skipped":
            unjudged.remove("symbolic")
        if unjudged and verdicts["heuristic"].status != "failed":
            raise ParseError(f"the {unjudged[0]} stage reads {verdicts[unjudged[0]].status!r}; "
                             "run `patvar filter` again", line=lineno)
        rows.append(FilterRow(cand, verdicts, label))
    return rows
