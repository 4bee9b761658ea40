"""Simulated active learning: selection strategies, counterfactual
augmentation, a reference classifier, and the multi-seed run grid.

The whole simulation is a pure function of (dataset, config, seeds, injected
deps): every random choice is seeded, selection orders are prefix-stable so
shot levels nest, and a fresh classifier is trained per shot level.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .annotation import AnnotationProvider
from .errors import PatvarError
from .stats import macro_f1, mean, paired_t_test, sample_sd
from .synthesis import LabeledExample

logger = logging.getLogger(__name__)

CONDITIONS = ("random", "cluster", "uncertainty", "cf_no_vt", "counterfactual")
# Conditions that draw their human-annotated base selection uniformly.
RANDOM_BASE_CONDITIONS = ("random", "cf_no_vt", "counterfactual")

TrainingItem = tuple[str, str]  # (raw text, label)
# original example id -> [(generated text, target label), ...]
SurvivorsIndex = Mapping[str, Sequence[TrainingItem]]


class NOverPool(PatvarError):
    pass


class KOverN(PatvarError):
    pass


class UntrainedClassifier(PatvarError):
    pass


class EmptyTrainingSet(PatvarError):
    pass


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


class Classifier(Protocol):
    def train(self, items: Sequence[TrainingItem]) -> None: ...

    def predict(self, text: str) -> tuple[str, float]: ...


# ---------------------------------------------------------------------------
# Reference classifier: multinomial naive Bayes over lemmas
# ---------------------------------------------------------------------------


class NaiveBayesClassifier:
    """Bag-of-lemmas multinomial naive Bayes with add-one smoothing.

    Out-of-vocabulary tokens are ignored at prediction time, so text made of
    unseen tokens falls back to the prior argmax. Ties break in label_set
    order. Confidence is the normalized posterior of the argmax.
    """

    def __init__(self, label_set: Sequence[str], provider: AnnotationProvider, seed: int = 0):
        self.label_set = tuple(label_set)
        self.provider = provider
        self.seed = seed  # unused by this deterministic model; part of the factory contract
        self._trained = False

    def _lemmas(self, text: str) -> list[str]:
        return [t.lemma for t in self.provider.annotate(text).tokens]

    def train(self, items: Sequence[TrainingItem]) -> None:
        if not items:
            raise EmptyTrainingSet("classifier needs at least one training item")
        self._doc_counts = {label: 0 for label in self.label_set}
        self._word_counts: dict[str, dict[str, int]] = {label: {} for label in self.label_set}
        self._total_words = {label: 0 for label in self.label_set}
        vocab: set[str] = set()
        for text, label in items:
            if label not in self._doc_counts:
                raise ValueError(f"training label {label!r} not in label set")
            self._doc_counts[label] += 1
            for lemma in self._lemmas(text):
                vocab.add(lemma)
                counts = self._word_counts[label]
                counts[lemma] = counts.get(lemma, 0) + 1
                self._total_words[label] += 1
        self._vocab = vocab
        total_docs = sum(self._doc_counts.values())
        self._log_prior = {
            label: (math.log(c / total_docs) if c else -math.inf)
            for label, c in self._doc_counts.items()
        }
        self._trained = True

    def predict(self, text: str) -> tuple[str, float]:
        if not self._trained:
            raise UntrainedClassifier("train() must run before predict()")
        lemmas = [l for l in self._lemmas(text) if l in self._vocab]
        v = len(self._vocab)
        log_post = []
        for label in self.label_set:
            lp = self._log_prior[label]
            if not math.isinf(lp):
                counts = self._word_counts[label]
                denom = self._total_words[label] + v
                for lemma in lemmas:
                    lp += math.log((counts.get(lemma, 0) + 1) / denom)
            log_post.append(lp)
        best = max(range(len(self.label_set)), key=lambda i: (log_post[i], -i))
        peak = log_post[best]
        weights = [math.exp(lp - peak) if not math.isinf(lp) else 0.0 for lp in log_post]
        confidence = weights[best] / sum(weights)
        return self.label_set[best], confidence


# ---------------------------------------------------------------------------
# Embeddings and clustering
# ---------------------------------------------------------------------------


class HashedEmbedder:
    """Deterministic 64-dim hashed bag-of-lemmas embedding, L2-normalized.

    A stand-in for a sentence-embedding provider; `select_cluster` takes any
    callable mapping text to a fixed-length vector.
    """

    DIM = 64

    def __init__(self, provider: AnnotationProvider):
        self.provider = provider

    def __call__(self, text: str) -> np.ndarray:
        vec = np.zeros(self.DIM, dtype=np.float64)
        for token in self.provider.annotate(text).tokens:
            digest = hashlib.sha256(token.lemma.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:4], "big") % self.DIM] += 1.0
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec


def kmeans(
    vectors: np.ndarray, k: int, seed: int, max_iter: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ plus Lloyd iterations to an assignment fixpoint.

    Empty clusters are repaired by stealing the point farthest from the
    centroid of the largest cluster.
    """
    n = len(vectors)
    if not 1 <= k <= n:
        raise KOverN(f"k={k} outside 1..{n}")
    x = np.asarray(vectors, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    closest_sq = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            centroids[j] = x[rng.choice(n, p=closest_sq / total)]
        closest_sq = np.minimum(closest_sq, np.sum((x - centroids[j]) ** 2, axis=1))
    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        dists = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assignments = np.argmin(dists, axis=1)
        for j in range(k):
            if not np.any(new_assignments == j):
                sizes = np.bincount(new_assignments, minlength=k)
                biggest = int(np.argmax(sizes))
                members = np.flatnonzero(new_assignments == biggest)
                farthest = members[int(np.argmax(dists[members, biggest]))]
                new_assignments[farthest] = j
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(k):
            centroids[j] = x[assignments == j].mean(axis=0)
    return assignments, centroids


def inertia(vectors: np.ndarray, assignments: np.ndarray, centroids: np.ndarray) -> float:
    x = np.asarray(vectors, dtype=np.float64)
    return float(np.sum((x - centroids[assignments]) ** 2))


# ---------------------------------------------------------------------------
# Selection strategies
# ---------------------------------------------------------------------------


def select_random(pool: Sequence[LabeledExample], n: int, seed: int) -> list[LabeledExample]:
    """Uniform selection without replacement; prefix-stable across n."""
    if n > len(pool):
        raise NOverPool(f"cannot select {n} from pool of {len(pool)}")
    order = list(range(len(pool)))
    random.Random(seed).shuffle(order)
    return [pool[i] for i in order[:n]]


def select_cluster(
    pool: Sequence[LabeledExample],
    n: int,
    k: int,
    seed: int,
    embedder: Callable[[str], np.ndarray],
) -> list[LabeledExample]:
    """Round-robin over k-means clusters, nearest-to-centroid first."""
    if n > len(pool):
        raise NOverPool(f"cannot select {n} from pool of {len(pool)}")
    vectors = np.stack([embedder(ex.sentence.raw) for ex in pool])
    assignments, centroids = kmeans(vectors, k, seed)
    dists = np.sum((vectors - centroids[assignments]) ** 2, axis=1)
    queues: list[list[int]] = []
    for j in range(k):
        members = [int(i) for i in np.flatnonzero(assignments == j)]
        members.sort(key=lambda i: (dists[i], i))
        queues.append(members)
    chosen: list[LabeledExample] = []
    while len(chosen) < n:
        progressed = False
        for queue in queues:
            if queue and len(chosen) < n:
                chosen.append(pool[queue.pop(0)])
                progressed = True
        if not progressed:
            break
    return chosen


def select_uncertainty(
    pool: Sequence[LabeledExample], n: int, clf: Classifier
) -> list[LabeledExample]:
    """Lowest-confidence-first selection; ties keep pool order."""
    if n > len(pool):
        raise NOverPool(f"cannot select {n} from pool of {len(pool)}")
    confidences = [clf.predict(ex.sentence.raw)[1] for ex in pool]
    order = sorted(range(len(pool)), key=lambda i: (confidences[i], i))
    return [pool[i] for i in order[:n]]


def augment_with_counterfactuals(
    selected: Sequence[LabeledExample], survivors_index: SurvivorsIndex
) -> list[TrainingItem]:
    """Originals first, then counterfactuals grouped by their original.

    Counterfactuals never count against the shot budget; shots are whatever
    `len(selected)` says.
    """
    items: list[TrainingItem] = [(ex.sentence.raw, ex.label) for ex in selected]
    for ex in selected:
        for text, label in survivors_index.get(ex.sentence.id, ()):
            items.append((text, label))
    return items


# ---------------------------------------------------------------------------
# Simulation grid
# ---------------------------------------------------------------------------


@dataclass
class SimulationDeps:
    provider: AnnotationProvider
    augment_index: Mapping[str, SurvivorsIndex] = field(default_factory=dict)


@dataclass(frozen=True)
class RunResult:
    condition: str
    shots: tuple[int, ...]
    seeds: tuple[int, ...]
    scores: Mapping[int, Mapping[int, float | None]]  # shot -> seed -> macro F1
    mean: Mapping[int, float | None]
    sd: Mapping[int, float | None]
    p_vs_reference: Mapping[int, float | None]
    reference: str | None


def summarize(
    condition: str,
    scores: Mapping[int, Mapping[int, float | None]],
    shots: Sequence[int],
    seeds: Sequence[int],
) -> RunResult:
    """Per-shot mean and SD over the cells present, in seed order; no p-values.

    `scores` maps shot -> seed -> macro F1; an absent or None cell is missing.
    """
    means: dict[int, float | None] = {}
    sds: dict[int, float | None] = {}
    for shot in shots:
        present = [v for seed in seeds if (v := scores[shot].get(seed)) is not None]
        means[shot] = mean(present) if present else None
        sds[shot] = sample_sd(present) if present else None
    return RunResult(
        condition=condition,
        shots=tuple(shots),
        seeds=tuple(seeds),
        scores=scores,
        mean=means,
        sd=sds,
        p_vs_reference={shot: None for shot in shots},
        reference=None,
    )


def paired_pvalues(results: Sequence[RunResult], reference: str) -> list[RunResult]:
    """Paired t-test of every other result against the `reference` condition.

    Each shot pairs the seeds where both cells are present; with fewer than
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
                (a, b)
                for seed in r.seeds
                if (a := r.scores[shot].get(seed)) is not None
                and (b := ref_cells.get(seed)) is not None
            ]
            pvals[shot] = (
                paired_t_test([a for a, _ in pairs], [b for _, b in pairs])[1]
                if len(pairs) >= 2
                else None
            )
        out.append(replace(r, p_vs_reference=pvals, reference=reference))
    return out


def _selection_order(
    condition: str,
    pool: Sequence[LabeledExample],
    dataset: Dataset,
    seed: int,
    deps: SimulationDeps,
) -> list[LabeledExample] | None:
    if condition in RANDOM_BASE_CONDITIONS:
        return select_random(pool, len(pool), seed)
    if condition == "cluster":
        k = min(len(dataset.label_set), len(pool))
        return select_cluster(pool, len(pool), k, seed, HashedEmbedder(deps.provider))
    return None  # uncertainty selects iteratively


def _run_cell(
    condition: str,
    dataset: Dataset,
    schedule: ShotSchedule,
    seed: int,
    clf_factory: Callable[[int], Classifier],
    deps: SimulationDeps,
) -> dict[int, float]:
    pool = dataset.examples
    order = _selection_order(condition, pool, dataset, seed, deps)
    index = deps.augment_index.get(condition, {})
    scores: dict[int, float] = {}
    labeled: list[LabeledExample] = []
    prev_clf: Classifier | None = None
    for shot in schedule.shots:
        if order is not None:
            labeled = order[:shot]
        else:
            if prev_clf is None:
                labeled = select_random(pool, shot, seed)
            else:
                have = {ex.sentence.id for ex in labeled}
                remaining = [ex for ex in pool if ex.sentence.id not in have]
                labeled = labeled + select_uncertainty(remaining, shot - len(labeled), prev_clf)
        if condition in ("cf_no_vt", "counterfactual"):
            training = augment_with_counterfactuals(labeled, index)
        else:
            training = [(ex.sentence.raw, ex.label) for ex in labeled]
        clf = clf_factory(seed)
        clf.train(training)
        predictions = [(ex.label, clf.predict(ex.sentence.raw)[0]) for ex in dataset.holdout]
        scores[shot] = macro_f1(predictions, dataset.label_set)
        prev_clf = clf
    return scores


def run_simulation(
    dataset: Dataset,
    conditions: Sequence[str],
    schedule: ShotSchedule,
    seeds: Sequence[int],
    clf_factory: Callable[[int], Classifier],
    deps: SimulationDeps,
) -> list[RunResult]:
    """Full condition x seed x shot grid with per-shot mean, SD, and p-values.

    A failed condition x seed cell is recorded as missing rather than
    aborting the run. p-values compare each baseline against the
    counterfactual condition (see `paired_pvalues`).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    unknown = [c for c in conditions if c not in CONDITIONS]
    if unknown:
        raise ValueError(f"unknown conditions {unknown}; know {list(CONDITIONS)}")
    schedule.validate_against(len(dataset.examples))
    summaries = []
    for condition in conditions:
        per_shot: dict[int, dict[int, float | None]] = {s: {} for s in schedule.shots}
        for seed in seeds:
            try:
                cell = _run_cell(condition, dataset, schedule, seed, clf_factory, deps)
            except Exception:
                logger.exception("cell %s/seed %d failed; recording as missing", condition, seed)
                cell = {}
            for shot in schedule.shots:
                per_shot[shot][seed] = cell.get(shot)
        summaries.append(summarize(condition, per_shot, schedule.shots, seeds))
    return paired_pvalues(summaries, "counterfactual")
