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
from typing import Callable, Iterable, Sequence

from .annotation import AnnotationProvider, SynonymLexicon, tokenize
from .gateway import BackendError, Gateway
from .generation import (
    STAGES,
    CounterfactualCandidate,
    ResponseFormatError,
    StageVerdict,
)
from .patterns import WildcardAtom, match_sentence, render_pattern
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


@dataclass(frozen=True)
class FilterConfig:
    enable_heuristic: bool = True
    enable_symbolic: bool = True
    enable_discriminator: bool = True

    ARMS = {
        "none": (False, False, False),
        "heuristic": (True, False, False),
        "heuristic+symbolic": (True, True, False),
        "heuristic+discriminator": (True, False, True),
        "all": (True, True, True),
    }

    @classmethod
    def from_arm(cls, arm: str) -> "FilterConfig":
        try:
            return cls(*cls.ARMS[arm])
        except KeyError:
            raise ValueError(f"unknown ablation arm {arm!r} (know {sorted(cls.ARMS)})") from None

    def enabled_stages(self) -> tuple[str, ...]:
        flags = (self.enable_heuristic, self.enable_symbolic, self.enable_discriminator)
        return tuple(stage for stage, on in zip(STAGES, flags) if on)


@dataclass(frozen=True)
class DiscriminatorVerdict:
    predicted: str  # label the discriminator assigned
    target: str  # label the counterfactual aimed for
    original: str  # label of the source example

    def __post_init__(self):
        if not (self.predicted and self.target and self.original):
            raise ValueError("all three labels must be non-empty")


@dataclass(frozen=True)
class MetricFlags:
    """Per-candidate inputs to compute_metrics."""

    pattern_kept: bool | None = None
    verdict: DiscriminatorVerdict | None = None


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

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern_n": self.pattern_n,
            "pattern_kept": self.pattern_kept,
            "label_n": self.label_n,
            "soft_flips": self.soft_flips,
            "hard_flips": self.hard_flips,
            "pkr": self.pkr,
            "slfr": self.slfr,
            "lfr": self.lfr,
        }


def compute_metrics(flags: Iterable[MetricFlags]) -> QualityReport:
    """PKR / SLFR / LFR over the candidates judged on each dimension."""
    flags = list(flags)
    pattern_judged = [f for f in flags if f.pattern_kept is not None]
    label_judged = [f.verdict for f in flags if f.verdict is not None]
    kept = sum(1 for f in pattern_judged if f.pattern_kept)
    hard = sum(1 for v in label_judged if v.predicted == v.target)
    soft = sum(1 for v in label_judged if v.predicted != v.original)
    return QualityReport(
        n=len(flags),
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


def heuristic_filter(c: CounterfactualCandidate, finish_reason: str | None = None) -> StageVerdict:
    """Reject refusals, prompt echoes, incomplete text, and trivial output."""
    text = c.generated_text
    lowered = text.lower()
    finish = finish_reason if finish_reason is not None else c.finish_reason
    if REFUSAL_TEXT in lowered:
        return StageVerdict("failed", "refusal")
    for marker in SCAFFOLD_MARKERS:
        if marker in lowered:
            return StageVerdict("failed", f"prompt echo ({marker!r})")
    n_tokens = len(tokenize(text))
    if finish == "length":
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
    c: CounterfactualCandidate, lex: SynonymLexicon, provider: AnnotationProvider
) -> StageVerdict:
    """Keep only counterfactuals that still match the source pattern."""
    pattern = c.task.pattern
    if pattern is None:
        return StageVerdict("skipped", "no pattern (unconstrained baseline)")
    if all(isinstance(a, WildcardAtom) for seq in pattern.alternatives for a in seq):
        logger.warning("vacuous pattern %r always passes", render_pattern(pattern))
        return StageVerdict("passed", "vacuous pattern")
    sentence = provider.annotate(c.generated_text)
    if match_sentence(pattern, sentence, lex):
        return StageVerdict("passed")
    return StageVerdict("failed", f"does not match pattern {render_pattern(pattern)}")


def discriminator_filter(
    c: CounterfactualCandidate, label_set: Sequence[str], gateway: Gateway
) -> tuple[StageVerdict, DiscriminatorVerdict]:
    """Ask the discriminator for one label; pass only if it hits the target."""
    slots = {"text": c.generated_text, "labels": ", ".join(label_set)}
    messages = fill(load_template("discriminator"), slots)
    resp = gateway.complete(gateway.request(messages, DISCRIMINATOR_MAX_TOKENS))
    answer = resp.text.strip().strip("\"'").rstrip(".").strip().lower()
    by_lower = {label.lower(): label for label in label_set}
    if answer not in by_lower:
        raise ResponseFormatError(f"discriminator answered {resp.text!r}, not a known label")
    predicted = by_lower[answer]
    verdict = DiscriminatorVerdict(
        predicted=predicted, target=c.task.target_label, original=c.task.original_label
    )
    if predicted == c.task.target_label:
        return StageVerdict("passed"), verdict
    if predicted == c.task.original_label:
        return StageVerdict("failed", "kept original label"), verdict
    return StageVerdict("failed", f"missed target (got {predicted!r})"), verdict


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass
class FilterDeps:
    lex: SynonymLexicon
    provider: AnnotationProvider
    gateway: Gateway | None = None
    label_set: Sequence[str] = ()
    audit_sink: Callable[[dict], None] | None = None


def audit_record(c: CounterfactualCandidate) -> dict:
    return {
        "uid": c.uid,
        "original_id": c.task.original.id,
        "original_text": c.task.original.raw,
        "original_label": c.task.original_label,
        "target_label": c.task.target_label,
        "pattern": render_pattern(c.task.pattern) if c.task.pattern else None,
        "generated_text": c.generated_text,
        "used_phrase": c.used_phrase,
        "verdicts": {s: {"status": v.status, "reason": v.reason} for s, v in c.verdicts.items()},
        "discriminator_label": c.discriminator_label,
    }


def run_pipeline(
    candidates: Sequence[CounterfactualCandidate],
    cfg: FilterConfig,
    deps: FilterDeps,
) -> tuple[list[CounterfactualCandidate], QualityReport]:
    """Apply the enabled stages in order; return survivors and batch metrics.

    Per-candidate errors become failed verdicts instead of aborting the
    batch. Disabled stages are marked skipped and contribute nothing to any
    metric's population.
    """
    processed: list[CounterfactualCandidate] = []
    flags: list[MetricFlags] = []
    for cand in candidates:
        cur = cand
        pattern_kept: bool | None = None
        verdict_rec: DiscriminatorVerdict | None = None
        alive = True
        for stage in STAGES:
            if stage not in cfg.enabled_stages():
                cur = cur.with_verdict(stage, StageVerdict("skipped", "stage disabled"))
                continue
            if not alive:
                break
            if stage == "heuristic":
                cur = cur.with_verdict(stage, heuristic_filter(cur))
            elif stage == "symbolic":
                try:
                    v = symbolic_filter(cur, deps.lex, deps.provider)
                except Exception as exc:  # provider failures become verdicts
                    v = StageVerdict("failed", f"error: {exc}")
                cur = cur.with_verdict(stage, v)
                if v.status in ("passed", "failed"):
                    pattern_kept = v.status == "passed"
            else:
                if deps.gateway is None or not deps.label_set:
                    raise ValueError("discriminator stage needs a gateway and label_set")
                try:
                    v, dv = discriminator_filter(cur, deps.label_set, deps.gateway)
                    verdict_rec = dv
                    cur = cur.with_verdict(stage, v, discriminator_label=dv.predicted)
                except (ResponseFormatError, BackendError) as exc:
                    cur = cur.with_verdict(stage, StageVerdict("failed", f"error: {exc}"))
            alive = cur.verdicts[stage].status != "failed"
        if not cur.is_pattern_constrained:
            pattern_kept = None
        processed.append(cur)
        flags.append(MetricFlags(pattern_kept=pattern_kept, verdict=verdict_rec))
        if deps.audit_sink is not None:
            deps.audit_sink(audit_record(cur))
    survivors = [c for c in processed if not c.failed_any()]
    return survivors, compute_metrics(flags)

