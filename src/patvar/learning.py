"""Simulated active learning: selection strategies, a reference classifier,
and the multi-seed run grid, whose arms train on counterfactuals as well.
A run featurizes its sentences once, into one lemma-id matrix (`LemmaIds`),
and from then on handles only integer arrays: sentences as rows of that
matrix, labels as indexes into the label set, selection orders as pool
positions.

The whole simulation is a pure function of (dataset, config, seeds): every
random choice is seeded, selection orders are prefix-stable so shot levels
nest, and every shot level is scored as a classifier trained afresh on that
level's items would score it. The uncertainty orders of every seed and
every `uncertainty` arm grow together: one naive-Bayes fit and one posterior
per later shot serve them all. Each seed then scores every condition at every
shot with one `predict_nested` call and one integer-confusion `macro_f1s`.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import math
import random
from typing import Iterable, Mapping, Sequence

import numpy as np

from .annotation import AnnotatedSentence
from .experiment import Dataset, RunResult, ShotSchedule, summarize
from .synthesis import LabeledExample

TrainingItem = tuple[AnnotatedSentence, str]  # (sentence, label)
# original example id -> [(generated sentence, target label), ...]
SurvivorsIndex = Mapping[str, Sequence[TrainingItem]]
# A run's training items, in order: their `LemmaIds` rows, their label ids
# and the first shot (an index into the schedule) each item trains at.
Run = tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# Features: one lemma-id matrix per run
# ---------------------------------------------------------------------------

EMBEDDING_DIM = 64


def _bucket(lemma: str) -> int:
    digest = hashlib.sha256(lemma.encode("utf-8", "surrogatepass")).digest()
    return int.from_bytes(digest[:4], "big") % EMBEDDING_DIM


class LemmaIds:
    """One run's lemma vocabulary and one lemma-id matrix: a row per distinct
    sentence, in token order, padded on the right with -1.

    Each distinct sentence is featurized once, when the instance is built.
    `rows` finds sentences' rows by identity, and everything else takes rows:
    the instance keeps its sentences alive (`sentences[row]`), so no other
    object can take over their ids. Scope one instance to one run.
    """

    def __init__(self, sentences: Iterable[AnnotatedSentence]):
        by_id = {id(sentence): sentence for sentence in sentences}
        self.sentences: list[AnnotatedSentence] = list(by_id.values())  # by row
        self._row = dict(zip(by_id, itertools.count()))  # id(sentence) -> row of the matrix
        lemmas = [sentence.lemmas() for sentence in self.sentences]
        flat = list(itertools.chain.from_iterable(lemmas))
        # Lemma ids in first-seen order.
        self.vocab: dict[str, int] = dict(zip(dict.fromkeys(flat), itertools.count()))
        self._lengths = np.array(list(map(len, lemmas)), dtype=np.intp)
        self._matrix = np.full((len(lemmas), self._lengths.max(initial=0)), -1, dtype=np.intp)
        self._matrix[np.arange(self._matrix.shape[1]) < self._lengths[:, None]] = list(
            map(self.vocab.__getitem__, flat))

    def rows(self, sentences: Iterable[AnnotatedSentence]) -> np.ndarray:
        """The sentences' rows; ValueError for a sentence the instance was not
        built from."""
        try:
            return np.array(list(map(self._row.__getitem__, map(id, sentences))), dtype=np.intp)
        except KeyError:
            raise ValueError("a sentence outside the run's LemmaIds") from None

    def batch(self, rows: np.ndarray) -> np.ndarray:
        """The lemma ids of the rows, cut to the longest of them."""
        return self._matrix[rows, : self._lengths[rows].max(initial=0)]

    @functools.cached_property
    def _buckets(self) -> np.ndarray:
        """Each lemma's embedding bucket, by lemma id."""
        return np.array([_bucket(lemma) for lemma in self.vocab], dtype=np.intp)

    def embeddings(self, rows: np.ndarray) -> np.ndarray:
        """Deterministic 64-dim hashed bag-of-lemmas embeddings, L2-normalized,
        one per row's sentence; an empty sentence embeds as zeros.

        A stand-in for a sentence-embedding model: lemma v counts in bucket
        `sha256(v)[:4] % 64`. The counts are integers, so each norm is exact.
        """
        ids = self.batch(rows)
        tokens = ids >= 0
        slots = np.nonzero(tokens)[0] * EMBEDDING_DIM + self._buckets[ids[tokens]]
        counts = np.bincount(slots, minlength=len(ids) * EMBEDDING_DIM).reshape(
            len(ids), EMBEDDING_DIM).astype(np.float64)
        norms = np.sqrt((counts * counts).sum(axis=1, keepdims=True))
        return counts / np.where(norms > 0, norms, 1.0)


# ---------------------------------------------------------------------------
# Reference classifier: multinomial naive Bayes over lemmas
# ---------------------------------------------------------------------------


def _fit(counts: np.ndarray, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log tables and log priors of several models' training sets.

    `counts[m, l, v]` counts lemma v in model m's items of label l, and
    `docs[m, l]` counts those items. `table[l, m, v]` is
    `math.log((count + 1) / denom)` for the lemmas that model m has seen and
    0.0 elsewhere, with one more 0.0 column at the end of each model's; each
    distinct ratio is logged once. `log_prior[m, l]` is -inf for a label
    model m has no item of. Every entry depends on its own model's counts.
    """
    n_models, n_labels, width = counts.shape
    seen = np.broadcast_to(counts.any(axis=1, keepdims=True), counts.shape)
    denom = counts.sum(axis=2, keepdims=True) + seen[:, :1].sum(axis=2, keepdims=True)
    ratios = (counts[seen] + 1) / np.broadcast_to(denom, counts.shape)[seen]
    distinct, inverse = np.unique(ratios, return_inverse=True)
    table = np.zeros((n_labels, n_models, width + 1))
    table[:, :, :width].transpose(1, 0, 2)[seen] = np.array(
        [math.log(r) for r in distinct.tolist()])[inverse]
    log_prior = np.array([
        [math.log(c / total) if c else -math.inf for c in row]
        for row, total in zip(docs.tolist(), docs.sum(axis=1).tolist())
    ])
    return table, log_prior


def _log_posterior(table: np.ndarray, log_prior: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """`log_post[l, m * n + h]`: model m's log prior of label l plus its table
    entries of the lemma ids `ids[h]`, added one token position at a time.
    Every model scores the same n queries.

    Padding (-1) reads each model's last column, 0.0, so a query padded
    further than its own length keeps every float.
    """
    log_post = np.repeat(log_prior.T, len(ids), axis=1)
    for column in ids.T:
        log_post += table[:, :, column].reshape(len(table), -1)
    return log_post


class NaiveBayesClassifier:
    """Bag-of-lemmas multinomial naive Bayes with add-one smoothing.

    Out-of-vocabulary tokens are ignored at prediction time, so text made of
    unseen tokens falls back to the prior argmax. Ties break in label_set
    order. Confidence is the normalized posterior of the argmax.

    Takes sentences as rows of the run's `features` and labels as indexes
    into `label_set`. Both paths fit many models at once: one `np.bincount`
    over (model, label, lemma) gives every model's counts, and the log table
    holds `math.log((count + 1) / denom)`, one log per distinct ratio. Each
    posterior adds the table's columns to the log prior one token position at a
    time, in the order of a per-lemma loop over the sentence, so every float
    equals that loop's, whatever else shares the batch.
    - `train` fits one model per run and `predict` scores one set of shared
      queries under each run's model.
    - `predict_nested` scores the nested training sets of several runs, with
      a `cumsum` along the shots, on one shared set of queries.
    """

    def __init__(self, label_set: Sequence[str], features: LemmaIds):
        self.label_set = tuple(label_set)
        self.features = features
        self._trained = False

    def train(self, runs: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
        """Fit one model per run, on the items of its rows and label ids."""
        self._table, self._log_prior = _fit(*self._counts(
            [(rows, labels, [0] * len(rows)) for rows, labels in runs], 1))
        self._trained = True

    def predict(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The label ids and the confidences of the sentences of `rows` under
        each trained run's model: two (run x query) matrices."""
        if not self._trained:
            raise RuntimeError("train() must run before predict()")
        log_post = _log_posterior(self._table, self._log_prior, self.features.batch(rows))
        best = np.argmax(log_post, axis=0)  # the first maximum: ties go to label_set order
        cols = np.arange(log_post.shape[1])
        weights = log_post - log_post[best, cols]
        # math.exp over one run's queries at a time, in place: no more Python
        # floats live at once than a one-run predict needs.
        n_runs, n = len(self._log_prior), len(rows)
        for run in range(n_runs):
            block = weights[:, run * n:(run + 1) * n]
            block[...] = np.fromiter(map(math.exp, block.ravel().tolist()), float,
                                     block.size).reshape(block.shape)
        total = weights[0].copy()
        for row in weights[1:]:
            total += row
        return best.reshape(n_runs, n), (weights[best, cols] / total).reshape(n_runs, n)

    def predict_nested(self, runs: Sequence[Run], n_shots: int, rows: np.ndarray) -> np.ndarray:
        """`labels[r, k, h]`: for each run r (rows, label ids, first shots) and
        each shot k < n_shots, the label id of the sentence of `rows[h]` after
        training on the run's items whose first shot is at most k: the labels
        `train` plus `predict` give on each prefix, from one pass over every
        run."""
        table, log_prior = _fit(*self._counts(runs, n_shots))
        log_post = _log_posterior(table, log_prior, self.features.batch(rows))
        # The first maximum: ties go to label_set order.
        return np.argmax(log_post, axis=0).reshape(len(runs), n_shots, len(rows))

    def _counts(self, runs, n_shots) -> tuple[np.ndarray, np.ndarray]:
        """The (run x shot, label, lemma) and (run x shot, label) item counts
        of each run's nested training sets, each shot's including earlier ones."""
        n_labels, width = len(self.label_set), len(self.features.vocab)
        slots, rows = [], []
        for run, arrays in enumerate(runs):
            run_rows, labels, first = (np.asarray(a, dtype=np.intp) for a in arrays)
            if not len(run_rows):
                raise ValueError("classifier needs at least one training item")
            if first.shape != run_rows.shape or first.min() < 0 or first.max() >= n_shots:
                raise ValueError(f"need one first shot in 0..{n_shots - 1} per training item")
            if labels.shape != run_rows.shape or labels.min() < 0 or labels.max() >= n_labels:
                raise ValueError(f"need one training label id in 0..{n_labels - 1} per item")
            slots.append((run * n_shots + first) * n_labels + labels)
            rows.append(run_rows)
        slots = np.concatenate(slots)
        ids = self.features.batch(np.concatenate(rows))
        n_rows = len(runs) * n_shots
        docs = np.bincount(slots, minlength=n_rows * n_labels).reshape(len(runs), n_shots, n_labels)
        if not docs[:, 0].any(axis=1).all():
            raise ValueError("the first shot has no training item")
        # Row-major over the padded batch: each item's tokens, in token order.
        counts = np.bincount(
            (slots[:, None] * width + ids)[ids >= 0], minlength=n_rows * n_labels * width
        ).reshape(len(runs), n_shots, n_labels, width)
        return (counts.cumsum(axis=1).reshape(n_rows, n_labels, width),
                docs.cumsum(axis=1).reshape(n_rows, n_labels))


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


KMEANS_MAX_ITER = 100


def kmeans(vectors: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ plus Lloyd iterations to an assignment fixpoint.

    Empty clusters are repaired by stealing the point farthest from the
    centroid of the largest cluster.
    """
    n = len(vectors)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    x = np.asarray(vectors, dtype=np.float64)
    rng = random.Random(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.randrange(n)]
    closest_sq = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        if closest_sq.sum() <= 0:
            centroids[j] = x[rng.randrange(n)]
        else:
            centroids[j] = x[rng.choices(range(n), weights=closest_sq.tolist())[0]]
        closest_sq = np.minimum(closest_sq, np.sum((x - centroids[j]) ** 2, axis=1))
    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
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


# ---------------------------------------------------------------------------
# Selection strategies: each returns pool positions
# ---------------------------------------------------------------------------


def select_random(pool: Sequence, seed: int) -> np.ndarray:
    """Every position of the pool in a uniform random order; a budget of n
    takes the first n."""
    order = list(range(len(pool)))
    random.Random(seed).shuffle(order)
    return np.array(order, dtype=np.intp)


def select_cluster(vectors: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Every position of the vectors, round-robin over their k-means
    clusters, nearest-to-centroid first; a budget of n takes its first n."""
    assignments, centroids = kmeans(vectors, k, seed)
    dists = np.sum((vectors - centroids[assignments]) ** 2, axis=1)
    queues: list[list[int]] = []
    for j in range(k):
        members = [int(i) for i in np.flatnonzero(assignments == j)]
        members.sort(key=lambda i: (dists[i], i))
        queues.append(members)
    return np.array([i for turn in itertools.zip_longest(*queues) for i in turn if i is not None],
                    dtype=np.intp)


def select_uncertainty(rows: np.ndarray, labeled: np.ndarray, n: int,
                       clf: NaiveBayesClassifier) -> np.ndarray:
    """`picked[r]`: the n positions in `rows`, outside `labeled[r]`, of the
    sentences that `clf`'s model of run r is least confident about, lowest
    confidence first; ties keep row order."""
    confidences = clf.predict(rows)[1]
    confidences[np.arange(len(labeled))[:, None], labeled] = math.inf
    return np.array([sorted(range(len(run)), key=run.__getitem__)[:n]
                     for run in confidences.tolist()], dtype=np.intp)


# ---------------------------------------------------------------------------
# Simulation grid
# ---------------------------------------------------------------------------


class _ArmTable:
    """One arm's training items, grouped by pool position: each pool
    example's row and label id, then those of its counterfactuals in the
    index."""

    def __init__(self, index: SurvivorsIndex, pool: Sequence[LabeledExample],
                 pool_rows: np.ndarray, pool_labels: np.ndarray, features: LemmaIds,
                 label_ids: Mapping[str, int]):
        extra = [index.get(ex.sentence.id, ()) for ex in pool]
        self.sizes = np.array([1 + len(items) for items in extra], dtype=np.intp)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.rows = np.empty(self.sizes.sum(), dtype=np.intp)
        self.labels = np.empty_like(self.rows)
        self.rows[self.starts], self.labels[self.starts] = pool_rows, pool_labels
        counterfactual = np.ones(len(self.rows), dtype=bool)
        counterfactual[self.starts] = False
        self.rows[counterfactual] = features.rows(s for items in extra for s, _ in items)
        self.labels[counterfactual] = [label_ids[label] for items in extra for _, label in items]

    def cut(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows and label ids of the groups of `positions`, in that order,
        and the index into `positions` of each item's group."""
        sizes = self.sizes[positions]
        group = np.repeat(np.arange(len(positions)), sizes)
        # An item's place in the table: its group's start plus its place in the group.
        items = (self.starts[positions] - (np.cumsum(sizes) - sizes))[group] + np.arange(len(group))
        return self.rows[items], self.labels[items], group


def _uncertainty_orders(arms: Sequence[_ArmTable], pool_rows: np.ndarray, shots: Sequence[int],
                        initial: np.ndarray, clf: NaiveBayesClassifier) -> np.ndarray:
    """`orders[i]`: `initial[i]`, grown at each later shot by the remaining pool
    positions that a model trained on `arms[i]`'s items of the previous shot's
    positions is least confident about. Every order grows in lock-step: one
    `train` and one `predict` per later shot serve them all."""
    labeled = initial
    for shot in shots[1:]:
        clf.train([arm.cut(positions)[:2] for arm, positions in zip(arms, labeled)])
        picked = select_uncertainty(pool_rows, labeled, shot - labeled.shape[1], clf)
        labeled = np.concatenate([labeled, picked], axis=1)
    return labeled


def macro_f1s(gold: np.ndarray, predicted: np.ndarray, n_labels: int) -> list[list[float]]:
    """`stats.macro_f1` of the label ids `predicted[run][shot]` against the
    label ids `gold`, over the labels 0..n_labels - 1, for every run and shot,
    from one `np.bincount` of integer confusion counts. The float steps are
    `macro_f1`'s: `2 * tp / denom` per label (0.0 where denom is 0), added in
    label order, then divided by n_labels."""
    gold, predicted = np.asarray(gold, dtype=np.intp), np.asarray(predicted, dtype=np.intp)
    if not len(gold):
        raise ValueError("no predictions to score")
    n, rows = n_labels, predicted.reshape(-1, len(gold))
    cells = (np.arange(len(rows))[:, None] * n + gold) * n + rows
    confusion = np.bincount(cells.ravel(), minlength=len(rows) * n * n).reshape(-1, n, n)
    denom = confusion.sum(axis=1) + confusion.sum(axis=2)  # 2 tp + fp + fn
    per_label = 2 * np.diagonal(confusion, axis1=1, axis2=2) / np.maximum(denom, 1)
    total = np.zeros(len(rows))
    for column in per_label.T:
        total += column
    return (total / n).reshape(len(predicted), -1).tolist()


def run_simulation(dataset: Dataset, conditions: Mapping[str, tuple[str, SurvivorsIndex]],
                   schedule: ShotSchedule, seeds: Sequence[int]) -> list[RunResult]:
    """Full condition x seed x shot grid with per-shot mean and SD, one
    unpaired summary per condition, in the mapping's order; the caller pairs
    them against its reference (`experiment.paired_pvalues`).

    `conditions` maps each arm's name to its (order, index); the name picks
    nothing. The order is `random` (the seed's one `select_random` order),
    `cluster`, or `uncertainty` (grown from that order's first shot, training
    on the arm's items); the index holds the arm's survivors (`{}` for none).
    A counterfactual whose target label is outside the label set raises
    ValueError naming its original before anything trains, whether or not its
    original lies within the budget. Every sentence is looked up in the run's
    `LemmaIds` and every label in the label set once, when each arm's
    `_ArmTable` is built; a scored run is a cut of that table. The pool is
    embedded once, for every seed's `cluster` order. One classifier, from the
    module-level name `NaiveBayesClassifier` (the seam tests patch), serves
    the whole grid:
    - the uncertainty orders of every seed and every `uncertainty` arm grow in
      lock-step, with one `train` and one `predict` per later shot for them
      all (`_uncertainty_orders`);
    - then, seed by seed, one `predict_nested` call labels every condition's
      run at every shot.
    Every cell is scored; any error propagates.
    """
    if not conditions:
        raise ValueError("need at least one condition")
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"repeated seeds in {list(seeds)}")
    unknown = {order for order, _ in conditions.values()} - {"random", "cluster", "uncertainty"}
    if unknown:
        raise ValueError(f"unknown orders {sorted(unknown)}")
    label_ids = {label: i for i, label in enumerate(dataset.label_set)}
    for _, index in conditions.values():
        for original, items in index.items():
            for _, label in items:
                if label not in label_ids:
                    raise ValueError(f"a counterfactual of {original} targets {label!r}, "
                                     f"outside the label set {list(dataset.label_set)}")
    schedule.validate_against(len(dataset.examples))
    pool, shots = dataset.examples, schedule.shots
    examples = pool + dataset.holdout
    survivors = [sentence for _, index in conditions.values() for items in index.values()
                 for sentence, _ in items]
    features = LemmaIds([ex.sentence for ex in examples] + survivors)
    rows = features.rows(ex.sentence for ex in examples)
    labels = np.array([label_ids[ex.label] for ex in examples], dtype=np.intp)
    pool_rows, holdout_rows, gold = rows[: len(pool)], rows[len(pool):], labels[len(pool):]
    arms = [(order, _ArmTable(index, pool, pool_rows, labels[: len(pool)], features, label_ids))
            for order, index in conditions.values()]
    n_clusters = min(len(dataset.label_set), len(pool))
    clf = NaiveBayesClassifier(dataset.label_set, features)
    randoms = [select_random(pool, seed) for seed in seeds]
    if any(order == "cluster" for order, _ in arms):
        vectors = features.embeddings(pool_rows)
    # Seed by seed, each uncertainty arm's order, grown together and read in
    # the same order by the loop below.
    growing = [(arm, random_order[: shots[0]]) for random_order in randoms
               for order, arm in arms if order == "uncertainty"]
    grown = iter(_uncertainty_orders([arm for arm, _ in growing], pool_rows, shots,
                                     np.array([first for _, first in growing]), clf)
                 if growing else ())
    # Place p's example and its counterfactuals (outside the budget) join at shot firsts[p].
    firsts = np.array([bisect.bisect_right(shots, place) for place in range(shots[-1])],
                      dtype=np.intp)
    scores = {condition: {shot: {} for shot in shots} for condition in conditions}
    for seed, random_order in zip(seeds, randoms):
        runs = []
        for order, arm in arms:
            if order == "cluster":
                positions = select_cluster(vectors, n_clusters, seed)
            elif order == "uncertainty":
                positions = next(grown)
            else:
                positions = random_order
            run_rows, run_labels, group = arm.cut(positions[: shots[-1]])
            runs.append((run_rows, run_labels, firsts[group]))
        f1s = macro_f1s(gold, clf.predict_nested(runs, len(shots), holdout_rows),
                        len(dataset.label_set))
        for condition, f1 in zip(conditions, f1s):
            for shot, value in zip(shots, f1):
                scores[condition][shot][seed] = value
    return [summarize(condition, scores[condition], shots, seeds) for condition in conditions]
