"""The experiment's conditions, datasets, shot schedule and per-condition
results, with the per-shot summary and the seed-paired p-values that
`simulate`, `ablate` and `report` share. Needs no numpy, so the commands
that only read or render results never import the simulation."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .stats import mean, paired_t_test, sample_sd
from .synthesis import LabeledExample

# Each condition's selection order and the survivors file it also trains on
# (`survivors_<file>.jsonl`; None for originals only), in report row order.
CONDITIONS: dict[str, tuple[str, str | None]] = {
    "random": ("random", None),
    "cluster": ("cluster", None),
    "uncertainty": ("uncertainty", None),
    "cf_no_vt": ("random", "novt"),
    "counterfactual": ("random", "vt"),
    "cf_uncertainty": ("uncertainty", "vt"),
}


@dataclass(frozen=True)
class Dataset:
    examples: tuple[LabeledExample, ...]
    label_set: tuple[str, ...]
    holdout: tuple[LabeledExample, ...]

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        object.__setattr__(self, "label_set", tuple(self.label_set))
        object.__setattr__(self, "holdout", tuple(self.holdout))
        labels = set(self.label_set)
        for ex in (*self.examples, *self.holdout):
            if ex.label not in labels:
                raise ValueError(f"example {ex.sentence.id!r} has unknown label {ex.label!r}")
        pool_ids = {ex.sentence.id for ex in self.examples}
        holdout_ids = {ex.sentence.id for ex in self.holdout}
        if pool_ids & holdout_ids:
            raise ValueError("holdout overlaps the pool")


@dataclass(frozen=True)
class ShotSchedule:
    shots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shots", tuple(self.shots))
        if not self.shots or self.shots[0] < 1:
            raise ValueError("first shot must be >= 1")
        if any(b <= a for a, b in zip(self.shots, self.shots[1:])):
            raise ValueError("shots must be strictly increasing")

    def validate_against(self, pool_size: int) -> None:
        if self.shots[-1] > pool_size:
            raise ValueError(f"largest shot {self.shots[-1]} exceeds pool size {pool_size}")


@dataclass(frozen=True)
class RunResult:
    condition: str
    shots: tuple[int, ...]
    seeds: tuple[int, ...]
    scores: Mapping[int, Mapping[int, float]]  # shot -> seed -> macro F1
    mean: Mapping[int, float]
    sd: Mapping[int, float]
    p_vs_reference: Mapping[int, float | None]


def summarize(
    condition: str,
    scores: Mapping[int, Mapping[int, float]],
    shots: Sequence[int],
    seeds: Sequence[int],
) -> RunResult:
    """Per-shot mean and SD over the seeds that have a cell, in seed order; no
    p-values.

    `scores` maps shot -> seed -> macro F1, with at least one cell per shot;
    a seed absent from a shot (a ragged external grid) is skipped there.
    """
    means: dict[int, float] = {}
    sds: dict[int, float] = {}
    for shot in shots:
        present = [scores[shot][seed] for seed in seeds if seed in scores[shot]]
        means[shot] = mean(present)
        sds[shot] = sample_sd(present)
    return RunResult(
        condition=condition,
        shots=tuple(shots),
        seeds=tuple(seeds),
        scores=scores,
        mean=means,
        sd=sds,
        p_vs_reference={shot: None for shot in shots},
    )


def paired_pvalues(results: Sequence[RunResult], reference: str) -> list[RunResult]:
    """Paired t-test of every other result against the `reference` condition.

    Each shot pairs the seeds that have a cell on both sides; with fewer than
    two pairs its p-value is None. The reference's own row is returned as is.
    Without a `reference` row the results come back unchanged.
    """
    ref = next((r for r in results if r.condition == reference), None)
    if ref is None:
        return list(results)
    out = []
    for r in results:
        if r.condition == reference:
            out.append(r)
            continue
        pvals: dict[int, float | None] = {}
        for shot in r.shots:
            ref_cells = ref.scores.get(shot, {})
            pairs = [
                (r.scores[shot][seed], ref_cells[seed])
                for seed in r.seeds
                if seed in r.scores[shot] and seed in ref_cells
            ]
            pvals[shot] = (
                paired_t_test([a for a, _ in pairs], [b for _, b in pairs])[1]
                if len(pairs) >= 2
                else None
            )
        out.append(replace(r, p_vs_reference=pvals))
    return out
