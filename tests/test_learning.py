import collections
import dataclasses
import hashlib
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from patvar import learning
from patvar.annotation import AnnotatedSentence, Token
from patvar.experiment import CONDITIONS, Dataset, paired_pvalues, summarize
from patvar.learning import (
    LemmaIds,
    NaiveBayesClassifier,
    ShotSchedule,
    kmeans,
    run_simulation,
    select_cluster,
    select_random,
    select_uncertainty,
)
from patvar.stats import macro_f1, mean, paired_t_test, sample_sd
from patvar.synthesis import LabeledExample

from oracles import gather_then_sort, inertia


def ex(provider, raw, label, id):
    import dataclasses

    return LabeledExample(dataclasses.replace(provider.annotate(raw), id=id), label)


@pytest.fixture
def small_pool(provider):
    texts = [
        ("good food here", "products"),
        ("tasty lobster today", "products"),
        ("fresh menu arrived", "products"),
        ("delicious dish served", "products"),
        ("rude staff there", "service"),
        ("friendly waiter smiled", "service"),
        ("helpful server came", "service"),
        ("polite employee worked", "service"),
    ]
    return [ex(provider, t, l, f"p{i}") for i, (t, l) in enumerate(texts)]


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def test_select_random_whole_pool(small_pool):
    sel = select_random(small_pool, seed=3)
    assert sorted(small_pool[i].sentence.id for i in sel) == sorted(
        e.sentence.id for e in small_pool)


def test_select_random_deterministic_and_nested(small_pool):
    """A seed gives one order of the whole pool's positions; a budget of n
    labels its first n examples, so the budgets nest."""
    order = select_random(small_pool, seed=11).tolist()
    assert select_random(small_pool, seed=11).tolist() == order
    assert sorted(order) == list(range(len(small_pool)))
    assert select_random(small_pool, seed=12).tolist() != order


def reference_embedding(sentence):
    """The sha256-per-lemma loop that `LemmaIds.embeddings` is specified by."""
    vec = np.zeros(64, dtype=np.float64)
    for lemma in sentence.lemmas():
        digest = hashlib.sha256(lemma.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:4], "big") % len(vec)] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def sentence_of(words, sentence_id="s"):
    return AnnotatedSentence(sentence_id, " ".join(words), tuple(Token(w, w) for w in words))


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.lists(st.text("abcé中ß", min_size=1, max_size=4), max_size=8),
                      max_size=6))
def test_embeddings_match_sha256_reference(texts):
    sentences = [sentence_of(words) for words in texts]
    features = LemmaIds(sentences)
    for sentence in sentences:
        [vector] = features.embeddings(features.rows([sentence]))
        assert np.array_equal(vector, reference_embedding(sentence))


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.lists(st.sampled_from(["a", "b", "c", "é", "中"]), max_size=5),
                      min_size=1, max_size=6),
       data=st.data())
def test_lemma_ids_batches_and_embeddings_match_dict_reference(texts, data):
    """The rows of any of the run's sentences, repeated or not, in any order,
    as a list or a tuple, read back as those sentences; their batch is each
    sentence's lemma ids padded with -1; one embeddings call over sentences of
    mixed lengths, empty ones too, equals the per-sentence reference row by
    row."""
    distinct = [sentence_of(words, f"s{i}") for i, words in enumerate(texts)]
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=6))
    built = data.draw(st.permutations(distinct + repeats))
    picked = data.draw(st.lists(st.integers(0, len(distinct) - 1), max_size=8))
    as_tuple = data.draw(st.booleans())
    vocab = {}
    ids = {id(s): [vocab.setdefault(lemma, len(vocab)) for lemma in s.lemmas()] for s in built}
    subset = [distinct[i] for i in picked]
    width = max((len(ids[id(s)]) for s in subset), default=0)
    expected = [ids[id(s)] + [-1] * (width - len(ids[id(s)])) for s in subset]
    features = LemmaIds(built)
    rows = features.rows(tuple(subset) if as_tuple else subset)
    assert features.vocab == vocab
    assert all(features.sentences[row] is s for row, s in zip(rows.tolist(), subset, strict=True))
    assert features.batch(rows).tolist() == expected
    vectors = features.embeddings(rows)
    assert vectors.shape == (len(subset), 64)
    for vector, sentence in zip(vectors, subset):
        assert np.array_equal(vector, reference_embedding(sentence))


def test_lemma_ids_know_only_their_own_sentences():
    good = sentence_of(["good", "food", "good"])
    twin = sentence_of(["good", "food", "good"])  # equal to `good`, but another object
    features = LemmaIds([good, good])
    assert features.rows([good, good]).tolist() == [0, 0]
    assert features.batch(features.rows([good, good])).tolist() == [[0, 1, 0], [0, 1, 0]]
    for sentences in ([twin], [good, twin]):
        with pytest.raises(ValueError, match="outside the run's LemmaIds"):
            features.rows(sentences)
        with pytest.raises(ValueError, match="outside the run's LemmaIds"):
            features.rows(tuple(sentences))
        with pytest.raises(ValueError, match="outside the run's LemmaIds"):
            features.rows(iter(sentences))


def test_embedder_properties(provider):
    def embed(text):
        features = LemmaIds([provider.annotate(text)])
        [vector] = features.embeddings(np.array([0]))
        return vector

    a = embed("good food")
    b = embed("good food")
    assert np.array_equal(a, b)
    assert a.shape == (64,)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    assert np.linalg.norm(embed("")) == 0.0
    unrelated = embed("rude staff waited")
    cos = float(a @ unrelated)
    assert cos < 1.0
    assert float(a @ b) == pytest.approx(1.0)


def test_kmeans_degenerate_ks():
    points = np.array([[0.0], [1.0], [5.0]])
    assignments, centroids = kmeans(points, 3, seed=1)
    assert sorted(assignments.tolist()) == [0, 1, 2]
    assert inertia(points, assignments, centroids) == pytest.approx(0.0)
    assignments1, centroids1 = kmeans(points, 1, seed=1)
    assert np.allclose(centroids1[0], points.mean(axis=0))
    with pytest.raises(ValueError, match=r"k=4 outside 1\.\.3"):
        kmeans(points, 4, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(30, 4))
    a1, c1 = kmeans(points, 4, seed=9)
    a2, c2 = kmeans(points, 4, seed=9)
    assert np.array_equal(a1, a2)
    assert np.allclose(c1, c2)


def pool_vectors(pool):
    """The embeddings of the pool's sentences, one row per example."""
    features = LemmaIds(e.sentence for e in pool)
    return features.embeddings(features.rows(e.sentence for e in pool))


def test_select_cluster_alternates(provider):
    pool = [
        ex(provider, "good food here", "a", "x0"),
        ex(provider, "good food there", "a", "x1"),
        ex(provider, "rude staff waited", "b", "x2"),
        ex(provider, "rude staff arrived", "b", "x3"),
    ]
    vectors = pool_vectors(pool)
    sel = select_cluster(vectors, k=2, seed=0)[:2]
    groups = {("x0", "x1"), ("x2", "x3")}
    picked = tuple(sorted(pool[i].sentence.id for i in sel))
    assert not any(set(picked) <= set(g) for g in groups), "must take one from each cluster"


def test_select_cluster_whole_pool_and_nesting(small_pool):
    """The order holds every position of the pool once, taking each
    cluster's next nearest member in turn; a budget of n labels its first n."""
    vectors = pool_vectors(small_pool)
    order = select_cluster(vectors, k=2, seed=4).tolist()
    assert sorted(order) == list(range(len(small_pool)))
    assert select_cluster(vectors, k=2, seed=4).tolist() == order
    assignments, _ = kmeans(vectors, 2, seed=4)
    turns = [int(assignments[i]) for i in order]
    smaller = min(collections.Counter(turns).values())
    assert turns[: 2 * smaller] == [turns[0], 1 - turns[0]] * smaller


class Scripted:
    """A classifier whose model of run r is `confs[r][row]` confident about
    the sentence of each row, whatever it trained on."""

    def __init__(self, confs):
        self.confs = np.array(confs, dtype=np.float64)

    def train(self, runs):
        pass

    def predict(self, rows):
        return np.zeros((len(self.confs), len(rows)), dtype=np.intp), self.confs[:, rows]


NOTHING_LABELED = np.empty((1, 0), dtype=np.intp)  # one run, no labeled position


def test_select_uncertainty_ordering(small_pool):
    rows = np.arange(len(small_pool))
    confs = [0.9, 0.1, 0.5, 0.9, 0.2, 0.9, 0.9, 0.9]
    [sel] = select_uncertainty(rows, NOTHING_LABELED, 3, Scripted([confs]))
    assert [small_pool[i].sentence.id for i in sel] == ["p1", "p4", "p2"]

    flat = [0.5] * len(small_pool)
    [sel] = select_uncertainty(rows, NOTHING_LABELED, 3, Scripted([flat]))
    assert [small_pool[i].sentence.id for i in sel] == ["p0", "p1", "p2"]
    # Positions index the rows given, not the pool.
    [sel] = select_uncertainty(rows[[6, 1, 4]], NOTHING_LABELED, 2, Scripted([confs]))
    assert sel.tolist() == [1, 2]
    # Each run skips its own labeled positions; ties keep row order.
    sel = select_uncertainty(rows, np.array([[1, 4], [0, 2], [2, 1]]), 2, Scripted([confs] * 3))
    assert sel.tolist() == [[2, 0], [1, 4], [4, 0]]


@st.composite
def uncertainty_picks(draw):
    """Each run's confidences by row, drawn from three values so that exact
    ties are common; the pool's rows in some order; each run's labeled
    positions, as many for every run; and a budget that the unlabeled
    positions can fill."""
    n_pool, n_runs = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    confs = draw(st.lists(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=n_pool,
                                   max_size=n_pool), min_size=n_runs, max_size=n_runs))
    rows = draw(st.permutations(range(n_pool)))
    k = draw(st.integers(0, n_pool - 1))
    labeled = [draw(st.permutations(range(n_pool)))[:k] for _ in range(n_runs)]
    return confs, rows, labeled, draw(st.integers(0, n_pool - k))


@settings(max_examples=300, deadline=None)
@given(case=uncertainty_picks())
# every confidence alike: each run takes its first unlabeled positions
@example(case=([[0.5] * 4, [0.5] * 4], [3, 1, 0, 2], [[2, 0], [1, 3]], 2))
def test_whole_pool_selection_equals_gather_then_sort(case):
    """Predicting the whole pool and passing over each run's labeled
    positions picks what gathering each run's unlabeled positions and
    sorting their confidences picks."""
    confs, rows, labeled, n = case
    picked = select_uncertainty(np.array(rows, dtype=np.intp),
                                np.array(labeled, dtype=np.intp).reshape(len(confs), -1), n,
                                Scripted(confs))
    by_position = [[run[row] for row in rows] for run in confs]
    assert picked.tolist() == gather_then_sort(by_position, labeled, n)


def test_select_uncertainty_untrained(small_pool):
    features = LemmaIds(e.sentence for e in small_pool)
    clf = NaiveBayesClassifier(["products", "service"], features)
    with pytest.raises(RuntimeError, match=r"train\(\) must run before predict\(\)"):
        select_uncertainty(features.rows(e.sentence for e in small_pool), NOTHING_LABELED, 2, clf)


# ---------------------------------------------------------------------------
# Naive Bayes reference classifier
# ---------------------------------------------------------------------------


def run_nb(label_set, items, queries):
    """A classifier whose run-wide `LemmaIds` holds the training and query
    sentences, as `run_simulation` builds it."""
    return NaiveBayesClassifier(label_set, LemmaIds([s for s, _ in items] + list(queries)))


def id_run(clf, items, first_shot):
    """A run of (sentence, label) items as `predict_nested` takes it: rows of
    the classifier's `LemmaIds`, label ids and first shots."""
    return (clf.features.rows(s for s, _ in items),
            np.array([clf.label_set.index(label) for _, label in items], dtype=np.intp),
            np.array(first_shot, dtype=np.intp))


def train(clf, items):
    """`clf.train` on one run of (sentence, label) items."""
    rows, labels, _ = id_run(clf, items, [])
    clf.train([(rows, labels)])


def predict(clf, sentences):
    """`clf.predict` of queries under one trained run's model as (label,
    confidence) pairs, the oracle's form."""
    [labels], [confidences] = clf.predict(clf.features.rows(sentences))
    return [(clf.label_set[label], c) for label, c in zip(labels.tolist(), confidences.tolist())]


def predict_nested(clf, runs, n_shots, sentences):
    """`clf.predict_nested` over (items, first_shot) runs, as label names:
    the oracle's form."""
    labels = clf.predict_nested([id_run(clf, items, first) for items, first in runs], n_shots,
                                clf.features.rows(sentences))
    return [[[clf.label_set[label] for label in shot] for shot in run] for run in labels.tolist()]


def read_back(clf, run):
    """A run's (sentence, label) items and first shots, read back through the
    classifier's `LemmaIds`."""
    rows, labels, first_shot = run
    names = [clf.label_set[label] for label in labels.tolist()]
    sentences = [clf.features.sentences[row] for row in rows.tolist()]
    return list(zip(sentences, names)), first_shot.tolist()


def test_nb_hand_computed_posterior(provider):
    s = provider.annotate
    items, query = [(s("good food"), "A"), (s("rude staff"), "B")], s("good")
    clf = run_nb(["A", "B"], items, [query])
    train(clf, items)
    [(label, conf)] = predict(clf, [query])
    assert label == "A"
    # add-one smoothing: (2/6 * 0.5) / (2/6 * 0.5 + 1/6 * 0.5) = 2/3
    assert conf == pytest.approx(2 / 3, abs=1e-4)


def test_nb_predicts_trained_class(provider):
    s = provider.annotate
    items, query = [(s("good food"), "A"), (s("rude staff"), "B")], s("good food")
    clf = run_nb(["A", "B"], items, [query])
    train(clf, items)
    [(label, conf)] = predict(clf, [query])
    assert label == "A"
    assert conf > 0.5


def test_nb_unseen_tokens_fall_back_to_prior(provider):
    s = provider.annotate
    items = [(s("good food"), "A"), (s("rude staff"), "B"), (s("more staff"), "B")]
    query = s("xyzzy qwerty")
    clf = run_nb(["A", "B"], items, [query])
    train(clf, items[:2])
    [(label, conf)] = predict(clf, [query])
    assert label == "A"  # tie broken by label order
    assert conf == pytest.approx(0.5)
    train(clf, items)
    [(label, _)] = predict(clf, [query])
    assert label == "B"  # prior argmax


def test_nb_empty_training():
    clf = NaiveBayesClassifier(["A"], LemmaIds([]))
    with pytest.raises(ValueError, match="classifier needs at least one training item"):
        train(clf, [])


def test_nb_missing_label_never_predicted(provider):
    s = provider.annotate
    items, query = [(s("good food"), "A"), (s("rude staff"), "B")], s("anything here")
    clf = run_nb(["A", "B", "C"], items, [query])
    train(clf, items)
    [(label, _)] = predict(clf, [query])
    assert label in ("A", "B")


class OracleNaiveBayes:
    """The per-lemma dict classifier that `NaiveBayesClassifier` replaced.

    Same model and arithmetic, one sentence at a time in Python: the
    reference the array classifier must equal float for float.
    """

    def __init__(self, label_set):
        self.label_set = tuple(label_set)
        self._trained = False

    def train(self, items):
        if not items:
            raise ValueError("classifier needs at least one training item")
        self._doc_counts = {label: 0 for label in self.label_set}
        self._word_counts = {label: {} for label in self.label_set}
        self._total_words = {label: 0 for label in self.label_set}
        vocab = set()
        for sentence, label in items:
            if label not in self._doc_counts:
                raise ValueError(f"training label {label!r} not in label set")
            self._doc_counts[label] += 1
            for lemma in sentence.lemmas():
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

    def predict(self, sentences):
        return [self._predict_one(sentence) for sentence in sentences]

    def predict_nested(self, runs, n_shots, sentences):
        """Train on each shot's prefix of each run, then predict: the
        per-run, per-shot loop that `predict_nested` must equal."""
        labels = []
        for items, first_shot in runs:
            labels.append([])
            for shot in range(n_shots):
                self.train([item for item, first in zip(items, first_shot) if first <= shot])
                labels[-1].append([label for label, _ in self.predict(sentences)])
        return labels

    def _predict_one(self, sentence):
        if not self._trained:
            raise RuntimeError("train() must run before predict()")
        lemmas = [l for l in sentence.lemmas() if l in self._vocab]
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
        return self.label_set[best], weights[best] / sum(weights)


class OracleOnRows:
    """`OracleNaiveBayes` behind `NaiveBayesClassifier`'s interface, one
    oracle per run: rows and label ids are read back through the run's
    `LemmaIds` and label set, and label names mapped back to ids."""

    def __init__(self, label_set, features):
        self.label_set, self.features = tuple(label_set), features

    def train(self, runs):
        self.oracles = []
        for rows, labels in runs:
            self.oracles.append(OracleNaiveBayes(self.label_set))
            self.oracles[-1].train(read_back(self, (rows, labels, np.zeros_like(rows)))[0])

    def predict(self, rows):
        sentences = [self.features.sentences[row] for row in rows.tolist()]
        pairs = [oracle.predict(sentences) for oracle in self.oracles]
        shape = len(self.oracles), len(rows)
        return (np.array([[self.label_set.index(label) for label, _ in run] for run in pairs],
                         dtype=np.intp).reshape(shape),
                np.array([[c for _, c in run] for run in pairs]).reshape(shape))

    def predict_nested(self, runs, n_shots, rows):
        labels = OracleNaiveBayes(self.label_set).predict_nested(
            [read_back(self, run) for run in runs], n_shots,
            [self.features.sentences[row] for row in rows.tolist()])
        return np.array([[[self.label_set.index(label) for label in shot] for shot in run]
                         for run in labels], dtype=np.intp).reshape(len(runs), n_shots, len(rows))


NB_WORDS = ("good", "food", "rude", "staff", "cheap", "the", "was", "very")
NB_UNSEEN = ("xyzzy", "qwerty")  # never trained on: out of vocabulary


@st.composite
def nb_corpora(draw):
    """A label set, training items (at least one label unused when there are
    three or more) and query word lists. A small vocabulary makes repeated
    lemmas and exact ties common."""
    label_set = draw(st.sampled_from([("A", "B"), ("A", "B", "C"), ("D", "A", "C", "B")]))
    used = draw(st.lists(st.sampled_from(label_set), min_size=1,
                         max_size=max(1, len(label_set) - 1), unique=True))
    words = st.sampled_from(NB_WORDS[: draw(st.integers(1, len(NB_WORDS)))])
    items = draw(st.lists(st.tuples(st.lists(words, max_size=6), st.sampled_from(used)),
                          min_size=1, max_size=10))
    queries = draw(st.lists(st.lists(st.sampled_from(NB_WORDS + NB_UNSEEN), max_size=8),
                            max_size=8))
    return label_set, items, queries


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpus=nb_corpora())
@example(corpus=(("A", "B"), [(["good"], "A"), (["good"], "B")], [["good"], [], ["xyzzy"]]))
# an exact tie: both labels score alike
@example(corpus=(("A", "B", "C"), [([], "B"), (["the", "the"], "A")], [["the"], ["qwerty"]]))
def test_nb_matches_per_lemma_oracle(corpus):
    label_set, items, queries = corpus
    training = [(sentence_of(words, f"t{i}"), label) for i, (words, label) in enumerate(items)]
    query_sentences = [sentence_of(words, f"q{i}") for i, words in enumerate(queries)]
    # Like a run's, the vocabulary holds the queries' unseen lemmas too.
    clf = run_nb(label_set, training, query_sentences)
    train(clf, training)
    oracle = OracleNaiveBayes(label_set)
    oracle.train(training)
    # == on (label, confidence) tuples: the floats must be equal, not close.
    assert predict(clf, query_sentences) == oracle.predict(query_sentences)


@st.composite
def nested_corpora(draw):
    """`nb_corpora` plus a shot count and each item's first shot; shot 0
    always trains on something, later shots may add labels and lemmas."""
    label_set, items, queries = draw(nb_corpora())
    n_shots = draw(st.integers(1, 4))
    first = draw(st.lists(st.integers(0, n_shots - 1), min_size=len(items), max_size=len(items)))
    first[draw(st.integers(0, len(items) - 1))] = 0
    return label_set, items, first, n_shots, queries


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpus=nested_corpora())
# an exact tie at shot 1; only A exists at shot 0
@example(corpus=(("A", "B"), [(["good"], "A"), (["good"], "B")], [0, 1], 2, [["good"], []]))
# B and C join late, with lemmas shot 0 never saw
@example(corpus=(("A", "B", "C"), [([], "A"), (["the", "food"], "B"), (["food"], "C")],
                 [0, 1, 2], 3, [["food"], ["the"], [], ["xyzzy"]]))
# a padded query batch
@example(corpus=(("A", "B"), [(["good"], "A"), (["rude", "rude"], "B")], [0, 0], 1,
                 [["good", "good"], []]))
def test_nb_nested_matches_oracle_on_every_prefix(corpus):
    label_set, items, first, n_shots, queries = corpus
    training = [(sentence_of(words, f"t{i}"), label) for i, (words, label) in enumerate(items)]
    query_sentences = tuple(sentence_of(words, f"q{i}") for i, words in enumerate(queries))
    clf = run_nb(label_set, training, query_sentences)
    oracle = OracleNaiveBayes(label_set)
    expected = oracle.predict_nested([(training, first)], n_shots, query_sentences)
    assert predict_nested(clf, [(training, first)], n_shots, query_sentences) == expected
    assert predict_nested(clf, [(training, first)], n_shots, list(query_sentences)) == expected


@st.composite
def run_batches(draw):
    """`nb_corpora` plus a shot count and one to four runs, each a non-empty
    subset of the items with first shots that train something at shot 0."""
    label_set, items, queries = draw(nb_corpora())
    n_shots = draw(st.integers(1, 4))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        picked = draw(st.lists(st.integers(0, len(items) - 1), min_size=1, max_size=len(items)))
        first = draw(st.lists(st.integers(0, n_shots - 1), min_size=len(picked),
                              max_size=len(picked)))
        first[draw(st.integers(0, len(picked) - 1))] = 0
        runs.append((picked, first))
    return label_set, items, runs, n_shots, queries


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=run_batches())
def test_nb_nested_over_runs_equals_each_run_alone(batch):
    label_set, items, picks, n_shots, queries = batch
    training = [(sentence_of(words, f"t{i}"), label) for i, (words, label) in enumerate(items)]
    query_sentences = [sentence_of(words, f"q{i}") for i, words in enumerate(queries)]
    runs = [([training[i] for i in picked], first) for picked, first in picks]
    clf = run_nb(label_set, training, query_sentences)
    together = predict_nested(clf, runs, n_shots, query_sentences)
    assert together == [predict_nested(clf, [run], n_shots, query_sentences)[0] for run in runs]
    assert together == OracleNaiveBayes(label_set).predict_nested(runs, n_shots, query_sentences)


@st.composite
def batched_runs(draw):
    """`nb_corpora` and one to four runs, each a non-empty subset of the
    items."""
    label_set, items, queries = draw(nb_corpora())
    picks = st.lists(st.integers(0, len(items) - 1), min_size=1, max_size=len(items))
    return label_set, items, draw(st.lists(picks, min_size=1, max_size=4)), queries


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=batched_runs())
# C has no item (a -inf prior), an empty sentence trains, and the queries pad
# to 3 tokens, one of them empty.
@example(batch=(("A", "B", "C"), [(["good", "food"], "A"), ([], "B"), (["good"], "B")],
                [[0, 1], [1, 2, 0, 2]], [["good", "good", "the"], [], ["xyzzy"]]))
# an exact tie in the first run; the second knows one label only
@example(batch=(("A", "B"), [(["good"], "A"), (["good"], "B")], [[0, 1], [0]],
                [["good"], ["rude", "rude"]]))
# the second run saw no B
@example(batch=(("A", "B"), [(["good", "food"], "A"), (["rude", "staff"], "B")], [[0, 1], [0]],
                [["good"], ["good"]]))
def test_batched_train_and_predict_equal_one_oracle_per_run(batch):
    """One `train` over R runs and one `predict` of shared queries equal R
    one-run `OracleNaiveBayes` fits, each predicting those queries: (label,
    confidence) pairs compared with ==."""
    label_set, items, runs, queries = batch
    training = [(sentence_of(words, f"t{i}"), label) for i, (words, label) in enumerate(items)]
    query_sentences = [sentence_of(words, f"q{h}") for h, words in enumerate(queries)]
    clf = run_nb(label_set, training, query_sentences)
    clf.train([id_run(clf, [training[i] for i in picked], [])[:2] for picked in runs])
    labels, confidences = clf.predict(clf.features.rows(query_sentences))
    assert labels.shape == confidences.shape == (len(runs), len(queries))
    expected = []
    for picked in runs:
        oracle = OracleNaiveBayes(label_set)
        oracle.train([training[i] for i in picked])
        expected.append(oracle.predict(query_sentences))
    assert [[(label_set[label], c) for label, c in zip(*pair)]
            for pair in zip(labels.tolist(), confidences.tolist())] == expected
    # A run that trained on one label knows no other: it is sure of every query.
    for picked, run in zip(runs, confidences.tolist()):
        if len({items[i][1] for i in picked}) == 1:
            assert run == [1.0] * len(queries)


@st.composite
def confusions(draw):
    """A label set, gold labels and a (run, shot) grid of predicted labels;
    small holdouts often leave labels out of the gold labels or the
    predictions."""
    label_set = draw(st.sampled_from([("A",), ("A", "B"), ("D", "A", "C"), ("D", "A", "C", "B")]))
    n = draw(st.integers(1, 10))
    n_runs, n_shots = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    holdout = st.lists(st.sampled_from(label_set), min_size=n, max_size=n)
    gold = draw(holdout)
    predicted = draw(st.lists(st.lists(holdout, min_size=n_shots, max_size=n_shots),
                              min_size=n_runs, max_size=n_runs))
    return label_set, gold, predicted


@settings(max_examples=300, deadline=None)
@given(case=confusions())
@example(case=(("A",), ["A"], [[["A"]]]))  # one label, one holdout sentence
@example(case=(("A", "B", "C"), ["B", "B"], [[["B", "B"], ["A", "C"]]]))  # a one-label holdout
@example(case=(("D", "A", "C", "B"), ["D", "A", "C", "B"], [[["D"] * 4]]))  # labels never predicted
def test_macro_f1s_equal_stats_macro_f1(case):
    label_set, gold, predicted = case
    ids = {label: i for i, label in enumerate(label_set)}
    predicted_ids = [[[ids[label] for label in labels] for labels in shots] for shots in predicted]
    # == on floats: each must equal the oracle's, not be close to it.
    assert learning.macro_f1s([ids[label] for label in gold], predicted_ids, len(label_set)) == [
        [macro_f1(list(zip(gold, labels)), label_set) for labels in shots] for shots in predicted
    ]


def test_macro_f1s_need_a_holdout():
    with pytest.raises(ValueError, match="no predictions to score"):
        learning.macro_f1s([], [[[], []]], 2)


def test_nb_nested_rejects_bad_first_shots(provider):
    s = provider.annotate
    items, query = [(s("good food"), "A"), (s("rude staff"), "B"), (s("cheap"), "C")], s("good")
    clf = run_nb(["A", "B"], items, [query])
    rows, query_rows = clf.features.rows(s for s, _ in items), clf.features.rows([query])
    for first in ([0], [0, 2], [0, -1]):
        with pytest.raises(ValueError, match="first shot"):
            clf.predict_nested([(rows[:2], np.array([0, 1]), np.array(first))], 2, query_rows)
    with pytest.raises(ValueError, match="the first shot has no training item"):
        clf.predict_nested([(rows[:2], np.array([0, 1]), np.array([1, 1]))], 2, query_rows)
    # C is outside the label set: no label id names it.
    for labels in ([0, 1, 2], [0, 1, -1], [0, 1]):
        with pytest.raises(ValueError, match=r"label id in 0\.\.1"):
            clf.predict_nested([(rows, np.array(labels), np.array([0, 0, 1]))], 2, query_rows)
        with pytest.raises(ValueError, match=r"label id in 0\.\.1"):
            clf.train([(rows, np.array(labels))])


# ---------------------------------------------------------------------------
# Per-shot summaries and the seed pairing
# ---------------------------------------------------------------------------


def test_summarize_over_present_cells():
    scores = {10: {2: 0.7, 0: 0.5}, 20: {1: 0.4}}  # seed 1 absent at 10, seeds 0 and 2 at 20
    r = summarize("random", scores, (10, 20), (0, 1, 2))
    assert r.mean[10] == mean([0.5, 0.7]) and r.sd[10] == sample_sd([0.5, 0.7])
    assert (r.mean[20], r.sd[20]) == (0.4, 0.0)
    assert r.p_vs_reference == {10: None, 20: None}


def test_paired_pvalues_pairs_present_seeds_only():
    ref = summarize("counterfactual", {
        10: {0: 0.5, 1: 0.6, 3: 0.7},  # seed 2 absent on the reference side
        20: {0: 0.6},
    }, (10, 20), (0, 1, 2, 3))
    base = summarize("random", {
        10: {0: 0.4, 1: 0.45, 2: 0.5},  # seed 3 absent on the baseline side
        20: {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5},
    }, (10, 20), (0, 1, 2, 3))
    out = paired_pvalues([base, ref], "counterfactual")
    assert out[1] == ref
    assert out[0].p_vs_reference[10] == paired_t_test([0.4, 0.45], [0.5, 0.6])[1]
    assert out[0].p_vs_reference[20] is None  # one pair only
    assert (out[0].mean, out[0].sd, out[0].scores) == (base.mean, base.sd, base.scores)
    assert paired_pvalues([base], "counterfactual") == [base]


# ---------------------------------------------------------------------------
# run_simulation
# ---------------------------------------------------------------------------


def tiny_dataset(provider):
    product_words = ["food", "lobster", "menu", "dish"]
    service_words = ["staff", "waiter", "server", "employee"]
    pool = []
    i = 0
    for words, label in ((product_words, "products"), (service_words, "service")):
        for a, b in itertools.product(words, words):
            if len([p for p in pool if p.label == label]) == 10:
                break
            pool.append(ex(provider, f"the {a} and the {b} here", label, f"d{i}"))
            i += 1
    holdout = [ex(provider, f"that {w} was fine", l, f"h{j}")
               for j, (w, l) in enumerate([("food", "products"), ("menu", "products"),
                                           ("staff", "service"), ("waiter", "service")])]
    return Dataset(tuple(pool), ("products", "service"), tuple(holdout))


def test_run_simulation_shape_and_determinism(provider):
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((4, 8))
    index = {
        e.sentence.id: [(provider.annotate(f"the {w} spoke kindly."), "service")]
        for e, w in zip(dataset.examples, itertools.cycle(["staff", "waiter"]))
        if e.label == "products"
    }
    conditions = {"random": ("random", {}), "counterfactual": ("random", index)}
    results = run_simulation(dataset, conditions, schedule, [0, 1])
    assert [r.condition for r in results] == ["random", "counterfactual"]
    for r in results:
        assert r.shots == (4, 8)
        assert r.seeds == (0, 1)
        assert set(r.scores) == {4, 8}
        assert all(set(cell) == {0, 1} for cell in r.scores.values())
        for shot in r.shots:
            assert 0.0 <= r.mean[shot] <= 1.0
            assert r.sd[shot] >= 0.0
    # The summaries come back unpaired; the caller names the reference.
    assert all(p is None for r in results for p in r.p_vs_reference.values())
    paired = paired_pvalues(results, "counterfactual")
    assert all(p is not None for p in paired[0].p_vs_reference.values())
    assert paired[1] == results[1]
    again = run_simulation(dataset, conditions, schedule, [0, 1])
    assert again == results


def test_run_simulation_equal_under_oracle_classifier(provider, monkeypatch):
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((2, 4, 8))
    survivors = {
        e.sentence.id: [(provider.annotate(f"the {w} spoke kindly."), "service")]
        for e, w in zip(dataset.examples, itertools.cycle(["staff", "menu", "waiter"]))
        if e.label == "products"
    }
    augment = {"counterfactual": survivors, "cf_no_vt": dict(list(survivors.items())[::2])}
    conditions = {c: (order, augment.get(c, {})) for c, (order, _) in CONDITIONS.items()}
    fast = run_simulation(dataset, conditions, schedule, [0, 1, 2])
    monkeypatch.setattr(learning, "NaiveBayesClassifier", OracleOnRows)
    slow = run_simulation(dataset, conditions, schedule, [0, 1, 2])
    assert fast == slow


def test_arm_named_conditions_equal_single_counterfactual_runs(provider):
    """One run over survivor indexes named by ablation arm equals, float for
    float, a `counterfactual` run over each index alone, renamed to its arm."""
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((2, 4, 8))
    products = [e.sentence.id for e in dataset.examples if e.label == "products"]
    words = itertools.cycle(["staff", "menu", "waiter", "server"])
    full = {i: [(provider.annotate(f"the {next(words)} spoke kindly."), "service")]
            for i in products}
    indexes = {
        "none": full,
        "heuristic": dict(list(full.items())[:7]),
        "heuristic+symbolic": dict(list(full.items())[:4]),
        "heuristic+discriminator": dict(list(full.items())[1:6:2]),
        "all": {},
    }
    together = run_simulation(dataset, {arm: ("random", index) for arm, index in indexes.items()},
                              schedule, [0, 1, 2])
    alone = [
        dataclasses.replace(run_simulation(dataset, {"counterfactual": ("random", index)}, schedule,
                                           [0, 1, 2])[0], condition=arm)
        for arm, index in indexes.items()
    ]
    assert together == alone
    assert len({tuple(r.mean.values()) for r in together}) > 1  # the indexes do differ


def _patch_failing(monkeypatch, error):
    class Failing(NaiveBayesClassifier):
        def train(self, runs):
            raise error("failing on purpose")

        def predict_nested(self, runs, n_shots, rows):
            raise error("failing on purpose")

    monkeypatch.setattr(learning, "NaiveBayesClassifier", Failing)


def test_run_simulation_programming_error_propagates(provider, monkeypatch):
    dataset = tiny_dataset(provider)
    _patch_failing(monkeypatch, TypeError)
    with pytest.raises(TypeError, match="failing on purpose"):
        run_simulation(dataset, {"random": ("random", {})}, ShotSchedule((4,)), [0])


ARM_WORDS = ("good", "food", "rude", "staff", "the")


@st.composite
def random_arms(draw):
    """A small dataset over the labels A, B and C, a shot schedule, seeds and
    a survivors index. The pool holds A and B only, so C trains only as a
    counterfactual target and is often absent at the first shot. Survivors of
    originals past the budget never train."""
    words = st.lists(st.sampled_from(ARM_WORDS), max_size=4)
    n_pool = draw(st.integers(2, 7))
    pool = [LabeledExample(sentence_of(draw(words), f"p{i}"), draw(st.sampled_from("AB")))
            for i in range(n_pool)]
    holdout = [LabeledExample(sentence_of(draw(words), f"h{i}"), draw(st.sampled_from("ABC")))
               for i in range(draw(st.integers(1, 4)))]
    shots = sorted(draw(st.sets(st.integers(1, n_pool), min_size=1, max_size=3)))
    index = {}
    for ex in pool:
        targets = draw(st.lists(st.sampled_from("ABC"), max_size=2))
        if targets:
            index[ex.sentence.id] = [(sentence_of(draw(words), f"c{i}"), target)
                                     for i, target in enumerate(targets)]
    seeds = draw(st.lists(st.integers(0, 30), min_size=1, max_size=3, unique=True))
    return Dataset(tuple(pool), ("A", "B", "C"), tuple(holdout)), tuple(shots), index, seeds


def reference_cell(dataset, index, shots, seed):
    """A random-order cell the slow way: the seed's shuffle of the pool, each
    of its first shots[-1] examples followed by its counterfactuals, a fresh
    oracle trained on each shot's items, and `stats.macro_f1` of its holdout
    labels."""
    order = list(range(len(dataset.examples)))
    random.Random(seed).shuffle(order)
    groups = [[(ex.sentence, ex.label), *index.get(ex.sentence.id, ())]
              for ex in (dataset.examples[i] for i in order[: shots[-1]])]
    scores = []
    for shot in shots:
        clf = OracleNaiveBayes(dataset.label_set)
        clf.train([item for group in groups[:shot] for item in group])
        predicted = [label for label, _ in clf.predict([ex.sentence for ex in dataset.holdout])]
        scores.append(macro_f1([(ex.label, p) for ex, p in zip(dataset.holdout, predicted)],
                               dataset.label_set))
    return scores


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=random_arms())
def test_random_arms_equal_the_oracle_on_every_prefix(case):
    dataset, shots, index, seeds = case
    conditions = {"plain": ("random", {}), "augmented": ("random", index)}
    results = run_simulation(dataset, conditions, ShotSchedule(shots), seeds)
    for result, (_, arm_index) in zip(results, conditions.values()):
        for seed in seeds:
            assert [result.scores[shot][seed] for shot in shots] == reference_cell(
                dataset, arm_index, shots, seed)


@pytest.mark.parametrize("place", [0, -1], ids=["first", "past_the_budget"])
def test_an_off_label_counterfactual_raises_before_anything_trains(place):
    """A counterfactual whose target label is outside the label set raises
    ValueError naming its original before any `train` or `predict_nested`
    call: when its original is the first of the seed's order, and when it is
    the last, past the budget, where it would never train."""
    pool = tuple(LabeledExample(sentence_of([word], f"p{i}"), label) for i, (word, label) in
                 enumerate([("good", "A"), ("food", "A"), ("rude", "B"), ("staff", "B")]))
    dataset = Dataset(pool, ("A", "B", "C"), (LabeledExample(sentence_of(["good"], "h0"), "A"),))
    original = pool[select_random(pool, 0)[place]].sentence.id
    index = {original: [(sentence_of(["the"], "c0"), "Z")]}
    calls = []

    class Recording(NaiveBayesClassifier):
        def train(self, runs):
            calls.append("train")
            return super().train(runs)

        def predict_nested(self, runs, n_shots, rows):
            calls.append("predict_nested")
            return super().predict_nested(runs, n_shots, rows)

    conditions = {"plain": ("uncertainty", {}), "augmented": ("random", index)}
    with mock.patch.object(learning, "NaiveBayesClassifier", Recording):
        run_simulation(dataset, {"plain": conditions["plain"]}, ShotSchedule((1, 2)), [0])
        assert calls == ["train", "predict_nested"]
        calls.clear()
        with pytest.raises(ValueError, match=f"a counterfactual of {original} targets 'Z'"):
            run_simulation(dataset, conditions, ShotSchedule((1, 2)), [0])
    assert calls == []


def test_run_simulation_all_conditions_run(provider):
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((4, 8))
    conditions = {c: (order, {}) for c, (order, _) in CONDITIONS.items()}
    assert list(conditions) == ["random", "cluster", "uncertainty", "cf_no_vt", "counterfactual",
                                "cf_uncertainty"]
    results = run_simulation(dataset, conditions, schedule, [0, 1, 2])
    for r in results:
        for shot in r.shots:
            assert set(r.scores[shot]) == set(r.seeds) and 0.0 <= r.mean[shot] <= 1.0


def test_uncertainty_cell_scores_its_order_with_one_predict_nested(provider, monkeypatch):
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((2, 4, 8))
    n_pool = len(dataset.examples)
    for seeds in ([0], [0, 1, 2]):
        calls = collections.Counter()
        shapes = []

        class Spy(NaiveBayesClassifier):
            def train(self, runs):
                calls["train"] += 1
                shapes.append(("train", len(runs)))
                super().train(runs)

            def predict(self, rows):
                calls["predict"] += 1
                shapes.append(("predict", rows.shape))
                return super().predict(rows)

            def predict_nested(self, runs, n_shots, rows):
                calls["predict_nested"] += 1
                return super().predict_nested(runs, n_shots, rows)

        monkeypatch.setattr(learning, "NaiveBayesClassifier", Spy)
        run_simulation(dataset, {"uncertainty": ("uncertainty", {})}, schedule, seeds)
        # One training per shot but the last picks the next shot's examples,
        # for every seed at once; each seed scores its cells with one
        # predict_nested.
        assert calls == {"train": 2, "predict": 2, "predict_nested": len(seeds)}
        # Each prediction scores the whole pool.
        assert shapes == [("train", len(seeds)), ("predict", (n_pool,)),
                          ("train", len(seeds)), ("predict", (n_pool,))]


def test_run_simulation_builds_one_classifier_per_run(provider, monkeypatch):
    dataset = tiny_dataset(provider)
    built = []

    class Counting(NaiveBayesClassifier):
        def __init__(self, label_set, features):
            built.append(label_set)
            super().__init__(label_set, features)

    monkeypatch.setattr(learning, "NaiveBayesClassifier", Counting)
    results = run_simulation(dataset, {"random": ("random", {}), "uncertainty": ("uncertainty", {})},
                             ShotSchedule((2, 4, 8)), [0, 1])
    # Both cells of both conditions and every training of the uncertainty
    # orders share it.
    assert built == [dataset.label_set]
    assert all(set(r.scores[shot]) == set(r.seeds) for r in results for shot in r.shots)


def test_an_arm_name_picks_no_order(provider):
    """The order comes from the (order, index) pair: an arm named `cluster`
    that follows the random order scores cell for cell like `random`."""
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((2, 4, 8))
    [named] = run_simulation(dataset, {"cluster": ("random", {})}, schedule, [0, 1, 2])
    [plain] = run_simulation(dataset, {"random": ("random", {})}, schedule, [0, 1, 2])
    assert named.condition == "cluster"
    assert named.scores == plain.scores
    [clustered] = run_simulation(dataset, {"cluster": ("cluster", {})}, schedule, [0, 1, 2])
    assert clustered.scores != plain.scores  # the cluster order does differ here


def test_uncertainty_order_trains_on_its_arms_items(provider, monkeypatch):
    """Every training that grows an ("uncertainty", index) order holds the
    examples labeled so far, each followed by its counterfactuals in the index."""
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((2, 4, 8))
    flip = dict(zip(dataset.label_set, reversed(dataset.label_set)))
    index = {e.sentence.id: [(provider.annotate(f"the staff spoke {i}."), flip[e.label])]
             for i, e in enumerate(dataset.examples) if i % 3}
    pool = {id(e.sentence) for e in dataset.examples}
    calls = []

    class Spy(NaiveBayesClassifier):
        def train(self, runs):
            calls.append([read_back(self, (rows, labels, np.zeros_like(rows)))[0]
                          for rows, labels in runs])
            super().train(runs)

    monkeypatch.setattr(learning, "NaiveBayesClassifier", Spy)
    [result] = run_simulation(dataset, {"uncertainty": ("uncertainty", index)}, schedule, [0, 1])
    # One training per shot but the last, of both seeds' orders at once.
    assert [len(runs) for runs in calls] == [2] * (len(schedule.shots) - 1)
    trained = [items for runs in calls for items in runs]
    for items, shot in zip(trained, [shot for shot in schedule.shots[:-1] for _ in range(2)],
                           strict=True):
        labeled = [(sentence, label) for sentence, label in items if id(sentence) in pool]
        assert len(labeled) == shot
        assert items == [item for sentence, label in labeled
                         for item in [(sentence, label), *index.get(sentence.id, ())]]
    assert any(len(items) > len(schedule.shots) for items in trained)
    assert all(set(result.scores[shot]) == set(result.seeds) for shot in schedule.shots)


def test_uncertainty_arm_without_survivors_scores_as_before(provider):
    """("uncertainty", {}) equals the per-shot reference: grow the order from
    the seed's random first shot by least confidence, train a fresh oracle
    classifier on each shot's examples and score the holdout."""
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((2, 4, 8))
    seeds = [0, 1, 2]
    [result] = run_simulation(dataset, {"uncertainty": ("uncertainty", {})}, schedule, seeds)
    holdout = [e.sentence for e in dataset.holdout]
    for seed in seeds:
        order = select_random(dataset.examples, seed)
        labeled = [dataset.examples[i] for i in order[: schedule.shots[0]]]
        for shot in schedule.shots:
            if shot > len(labeled):
                have = {e.sentence.id for e in labeled}
                remaining = [e for e in dataset.examples if e.sentence.id not in have]
                confidences = [conf for _, conf in clf.predict([e.sentence for e in remaining])]
                ranked = sorted(range(len(remaining)), key=lambda i: (confidences[i], i))
                labeled = labeled + [remaining[i] for i in ranked[: shot - len(labeled)]]
            clf = OracleNaiveBayes(dataset.label_set)
            clf.train([(e.sentence, e.label) for e in labeled])
            predicted = [label for label, _ in clf.predict(holdout)]
            expected = macro_f1([(e.label, p) for e, p in zip(dataset.holdout, predicted)],
                                dataset.label_set)
            assert result.scores[shot][seed] == expected


def test_uncertainty_arms_grown_together_equal_each_arm_alone(provider):
    """A grid whose uncertainty arms grow their orders together, with and
    without counterfactuals and with a random arm between them, equals each
    arm run alone, float for float."""
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((2, 4, 8))
    flip = dict(zip(dataset.label_set, reversed(dataset.label_set)))
    index = {e.sentence.id: [(provider.annotate(f"the staff spoke {i}."), flip[e.label])]
             for i, e in enumerate(dataset.examples) if i % 3}
    conditions = {"uncertainty": ("uncertainty", {}), "random": ("random", index),
                  "cf_uncertainty": ("uncertainty", index)}
    together = run_simulation(dataset, conditions, schedule, [0, 1, 2])
    alone = [run_simulation(dataset, {name: arm}, schedule, [0, 1, 2])[0]
             for name, arm in conditions.items()]
    assert together == alone
    assert together[0].scores != together[2].scores  # the two uncertainty arms do differ


def test_run_simulation_embeds_the_pool_once(provider, monkeypatch):
    """The cluster order embeds the pool once per run, not once per seed, and
    a grid without a cluster arm embeds nothing."""
    dataset = tiny_dataset(provider)
    calls = []
    embeddings = LemmaIds.embeddings

    def spy(self, rows):
        calls.append(len(rows))
        return embeddings(self, rows)

    monkeypatch.setattr(LemmaIds, "embeddings", spy)
    run_simulation(dataset, {"cluster": ("cluster", {}), "random": ("random", {})},
                   ShotSchedule((2, 4)), [0, 1, 2])
    assert calls == [len(dataset.examples)]
    calls.clear()
    run_simulation(dataset, {"uncertainty": ("uncertainty", {})}, ShotSchedule((2, 4)), [0, 1])
    assert calls == []


def test_run_simulation_rejects_bad_inputs(provider):
    dataset = tiny_dataset(provider)
    with pytest.raises(ValueError):
        run_simulation(dataset, {"random": ("random", {})}, ShotSchedule((4, 999)), [0])
    with pytest.raises(ValueError):
        run_simulation(dataset, {"random": ("random", {})}, ShotSchedule((4,)), [])
    with pytest.raises(ValueError, match="need at least one condition"):
        run_simulation(dataset, {}, ShotSchedule((4,)), [0])
    # A repeated seed would summarize its cells twice and pair them with themselves.
    with pytest.raises(ValueError, match=r"repeated seeds in \[0, 3, 0\]"):
        run_simulation(dataset, {"random": ("random", {})}, ShotSchedule((4,)), [0, 3, 0])
    with pytest.raises(ValueError, match=r"unknown orders \['randm'\]"):
        run_simulation(dataset, {"random": ("randm", {})}, ShotSchedule((4,)), [0])


def test_shot_schedule_validation():
    with pytest.raises(ValueError):
        ShotSchedule(())
    with pytest.raises(ValueError):
        ShotSchedule((0, 5))
    with pytest.raises(ValueError):
        ShotSchedule((5, 5))
    ShotSchedule((10, 15, 30))


def test_dataset_validation(provider):
    good = ex(provider, "good food", "a", "i0")
    with pytest.raises(ValueError):
        Dataset((good,), ("b",), ())
    with pytest.raises(ValueError):
        Dataset((good,), ("a",), (good,))


def test_nesting_across_shots(provider, monkeypatch):
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((3, 6, 9))
    survivors = {e.sentence.id: [(provider.annotate(f"the staff spoke {i}."), "service")]
                 for i, e in enumerate(dataset.examples)}
    seen = []

    class Spy(NaiveBayesClassifier):
        def predict_nested(self, runs, n_shots, rows):
            seen.extend([[item for item, first in zip(items, first_shot) if first <= shot]
                         for shot in range(n_shots)]
                        for items, first_shot in (read_back(self, run) for run in runs))
            return super().predict_nested(runs, n_shots, rows)

    monkeypatch.setattr(learning, "NaiveBayesClassifier", Spy)
    run_simulation(dataset, {"random": ("random", {}), "counterfactual": ("random", survivors)},
                   schedule, [7])
    originals, augmented = seen
    order = [dataset.examples[i] for i in select_random(dataset.examples, 7)]
    for shot, training in zip(schedule.shots, originals):
        assert training == [(ex.sentence, ex.label) for ex in order[:shot]]
    # Each original is followed by its counterfactuals, which train from the
    # shot the original first trains at and do not count against the budget.
    for shot, training in zip(schedule.shots, augmented):
        assert training == [item for ex in order[:shot]
                            for item in [(ex.sentence, ex.label), *survivors[ex.sentence.id]]]
        assert len(training) == 2 * shot
