"""Random pattern and sentence generators, and the slow reference oracles,
that more than one test module checks the package against. Each exists
once, here."""

import itertools
import json
import math

import numpy as np

from patvar.gateway import TEMPERATURE
from patvar.patterns import WILDCARD, Atom, PatternAst
from patvar.synthesis import enumerate_candidates, scored

POS_CHOICES = ("VERB", "PROPN", "NOUN", "ADJ", "ADV", "AUX", "PRON", "NUM")
WORD_CHOICES = ("food", "amazing", "cheap", "pay", "staff", "monday", "play", "good", "price", "be")
ENTITY_CHOICES = ("DATE", "LOCATION", "ORG", "PERSON")
SENTENCE_VOCAB = (
    "food", "amazing", "great", "good", "cheap", "affordable", "lobster",
    "price", "staff", "monday", "new", "york", "play", "song", "5", "was",
    "the", "xyzzy", "!",
)


def random_atom(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return Atom("pos", rng.choice(POS_CHOICES))
    if kind == 1:
        return Atom("lemma", rng.choice(WORD_CHOICES))
    if kind == 2:
        return Atom("soft", rng.choice(WORD_CHOICES))
    if kind == 3:
        return Atom("entity", rng.choice(ENTITY_CHOICES))
    return WILDCARD


def random_pattern(rng, max_alts=3, max_atoms=5):
    n_alts = rng.randint(1, max_alts)
    alts, budget = [], max_atoms
    for _ in range(n_alts):
        n_atoms = rng.randint(1, max(1, budget - (n_alts - len(alts) - 1)))
        seq = []
        for _ in range(n_atoms):
            atom = random_atom(rng)
            if seq and seq[-1] == WILDCARD and atom == WILDCARD:
                atom = Atom("lemma", rng.choice(WORD_CHOICES))
            seq.append(atom)
        budget -= len(seq)
        alts.append(tuple(seq))
        if budget <= 0:
            break
    return PatternAst(tuple(alts))


def random_sentence(provider, rng, max_tokens=12):
    raw = " ".join(rng.choice(SENTENCE_VOCAB) for _ in range(rng.randrange(0, max_tokens + 1)))
    return provider.annotate(raw)


def decoded_candidates(pool, label, cfg, lexicon):
    """The beam search's candidates for `label`, each decoded into a ScoredPattern."""
    return [scored(c, pool) for c in enumerate_candidates(pool, label, cfg, lexicon)]


def cache_line(key, req, text, finish_reason, timestamp):
    """The cache line of `key` for `req` and its response, with its entry
    written by `json.dumps`: the reference for the line a Gateway appends."""
    entry = {"request": {"model": req.model,
                         "messages": [{"role": m.role, "content": m.content} for m in req.messages],
                         "temperature": TEMPERATURE, "max_tokens": req.max_tokens},
             "response": {"text": text, "finish_reason": finish_reason}, "timestamp": timestamp}
    return f"{key} {json.dumps(entry, ensure_ascii=True)}\n"


def two_sided_p_by_quadrature(t, df, points=8001):
    """Simpson integration of the t density over [-|t|, |t|]."""
    hi = abs(t)
    if hi == 0:
        return 1.0
    x = np.linspace(-hi, hi, points)
    log_norm = math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    density = np.exp(log_norm - ((df + 1) / 2.0) * np.log1p(x * x / df))
    weights = np.full(points, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    return 1.0 - float(weights @ density) * (x[1] - x[0]) / 3.0


def macro_f1_by_confusion(predictions, label_set):
    """Macro-F1 counted off a full confusion matrix, with `macro_f1`'s
    closed-form per-label F1, so that the two must be equal."""
    idx = {label: i for i, label in enumerate(label_set)}
    k = len(label_set)
    conf = [[0] * k for _ in range(k)]
    for gold, pred in predictions:
        conf[idx[gold]][idx[pred]] += 1
    total = 0.0
    for i in range(k):
        tp = conf[i][i]
        fp = sum(conf[j][i] for j in range(k)) - tp
        fn = sum(conf[i]) - tp
        denom = 2 * tp + fp + fn
        total += 2 * tp / denom if denom else 0.0
    return total / k


def inertia(vectors, assignments, centroids):
    """The summed squared distance of each vector to its assigned centroid."""
    x = np.asarray(vectors, dtype=np.float64)
    return float(np.sum((x - centroids[assignments]) ** 2))


def gather_then_sort(confidences, labeled, n):
    """Uncertainty picks the gathering way: each run's unlabeled positions in
    pool order, sorted by the run's confidence with Python's stable sort, the
    first n taken. `confidences[r][p]` is run r's confidence at position p."""
    picks = []
    for run, taken in zip(confidences, labeled):
        remaining = [p for p in range(len(run)) if p not in set(taken)]
        ranked = sorted(range(len(remaining)), key=lambda i: run[remaining[i]])
        picks.append([remaining[i] for i in ranked[:n]])
    return picks


def exhaustive_best_inertia(points, k):
    """The least inertia of any partition of `points` into `k` non-empty clusters."""
    best = math.inf
    n = len(points)
    x = np.asarray(points, dtype=np.float64)
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        total = 0.0
        for j in range(k):
            members = x[[i for i in range(n) if assignment[i] == j]]
            total += float(np.sum((members - members.mean(axis=0)) ** 2))
        best = min(best, total)
    return best
