import itertools
import math

import numpy as np
import pytest

from patvar.learning import (
    Dataset,
    EmptyTrainingSet,
    HashedEmbedder,
    KOverN,
    NaiveBayesClassifier,
    NOverPool,
    RunResult,
    ShotSchedule,
    SimulationDeps,
    UntrainedClassifier,
    augment_with_counterfactuals,
    inertia,
    kmeans,
    paired_pvalues,
    run_simulation,
    select_cluster,
    select_random,
    select_uncertainty,
    summarize,
)
from patvar.stats import mean, paired_t_test, sample_sd
from patvar.synthesis import LabeledExample


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
    sel = select_random(small_pool, len(small_pool), seed=3)
    assert sorted(e.sentence.id for e in sel) == sorted(e.sentence.id for e in small_pool)


def test_select_random_deterministic_and_nested(small_pool):
    a = select_random(small_pool, 5, seed=11)
    b = select_random(small_pool, 5, seed=11)
    assert a == b
    bigger = select_random(small_pool, 7, seed=11)
    assert bigger[:5] == a
    assert select_random(small_pool, 5, seed=12) != a or True  # other seeds may differ


def test_select_random_over_pool(small_pool):
    with pytest.raises(NOverPool):
        select_random(small_pool, len(small_pool) + 1, seed=0)


def test_embedder_properties(provider):
    embed = HashedEmbedder(provider)
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


def exhaustive_best_inertia(points, k):
    best = math.inf
    n = len(points)
    x = np.asarray(points, dtype=np.float64)
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        total = 0.0
        for j in range(k):
            members = x[[i for i in range(n) if assignment[i] == j]]
            centroid = members.mean(axis=0)
            total += float(np.sum((members - centroid) ** 2))
        best = min(best, total)
    return best


def test_kmeans_one_dimensional_fixture():
    points = np.array([[0.0], [0.1], [10.0], [10.1]])
    assignments, centroids = kmeans(points, 2, seed=0)
    assert assignments[0] == assignments[1]
    assert assignments[2] == assignments[3]
    assert assignments[0] != assignments[2]
    got = inertia(points, assignments, centroids)
    assert got == pytest.approx(exhaustive_best_inertia(points, 2), abs=1e-12)


def test_kmeans_degenerate_ks():
    points = np.array([[0.0], [1.0], [5.0]])
    assignments, centroids = kmeans(points, 3, seed=1)
    assert sorted(assignments.tolist()) == [0, 1, 2]
    assert inertia(points, assignments, centroids) == pytest.approx(0.0)
    assignments1, centroids1 = kmeans(points, 1, seed=1)
    assert np.allclose(centroids1[0], points.mean(axis=0))
    with pytest.raises(KOverN):
        kmeans(points, 4, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(30, 4))
    a1, c1 = kmeans(points, 4, seed=9)
    a2, c2 = kmeans(points, 4, seed=9)
    assert np.array_equal(a1, a2)
    assert np.allclose(c1, c2)


def test_select_cluster_alternates(provider):
    pool = [
        ex(provider, "good food here", "a", "x0"),
        ex(provider, "good food there", "a", "x1"),
        ex(provider, "rude staff waited", "b", "x2"),
        ex(provider, "rude staff arrived", "b", "x3"),
    ]
    embed = HashedEmbedder(provider)
    sel = select_cluster(pool, 2, k=2, seed=0, embedder=embed)
    groups = {("x0", "x1"), ("x2", "x3")}
    picked = tuple(sorted(e.sentence.id for e in sel))
    assert not any(set(picked) <= set(g) for g in groups), "must take one from each cluster"


def test_select_cluster_whole_pool_and_nesting(small_pool, provider):
    embed = HashedEmbedder(provider)
    all_sel = select_cluster(small_pool, len(small_pool), k=2, seed=4, embedder=embed)
    assert len(all_sel) == len(small_pool)
    assert len({e.sentence.id for e in all_sel}) == len(small_pool)
    prefix = select_cluster(small_pool, 3, k=2, seed=4, embedder=embed)
    assert all_sel[:3] == prefix
    assert select_cluster(small_pool, 3, k=2, seed=4, embedder=embed) == prefix


def test_select_uncertainty_ordering(small_pool, provider):
    class Scripted:
        def __init__(self, confs):
            self.confs = confs

        def train(self, items):
            pass

        def predict(self, text):
            return "products", self.confs[text]

    confs = {e.sentence.raw: c for e, c in zip(small_pool, [0.9, 0.1, 0.5, 0.9, 0.2, 0.9, 0.9, 0.9])}
    sel = select_uncertainty(small_pool, 3, Scripted(confs))
    assert [e.sentence.id for e in sel] == ["p1", "p4", "p2"]

    flat = {e.sentence.raw: 0.5 for e in small_pool}
    sel = select_uncertainty(small_pool, 3, Scripted(flat))
    assert [e.sentence.id for e in sel] == ["p0", "p1", "p2"]


def test_select_uncertainty_untrained(small_pool, provider):
    clf = NaiveBayesClassifier(["products", "service"], provider)
    with pytest.raises(UntrainedClassifier):
        select_uncertainty(small_pool, 2, clf)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def test_augment_counts_and_order(small_pool):
    selected = small_pool[:2]
    index = {
        "p0": [("counterfactual one.", "service"), ("counterfactual two.", "service")],
    }
    items = augment_with_counterfactuals(selected, index)
    assert len(items) == 4
    assert items[0] == ("good food here", "products")
    assert items[1] == ("tasty lobster today", "products")
    assert items[2][1] == "service"
    # shot budget is the number of selected originals, independent of survivors
    assert len(selected) == 2


def test_augment_without_survivors(small_pool):
    items = augment_with_counterfactuals(small_pool[:3], {})
    assert items == [(e.sentence.raw, e.label) for e in small_pool[:3]]


# ---------------------------------------------------------------------------
# Naive Bayes reference classifier
# ---------------------------------------------------------------------------


def test_nb_hand_computed_posterior(provider):
    clf = NaiveBayesClassifier(["A", "B"], provider)
    clf.train([("good food", "A"), ("rude staff", "B")])
    label, conf = clf.predict("good")
    assert label == "A"
    # add-one smoothing: (2/6 * 0.5) / (2/6 * 0.5 + 1/6 * 0.5) = 2/3
    assert conf == pytest.approx(2 / 3, abs=1e-4)


def test_nb_predicts_trained_class(provider):
    clf = NaiveBayesClassifier(["A", "B"], provider)
    clf.train([("good food", "A"), ("rude staff", "B")])
    label, conf = clf.predict("good food")
    assert label == "A"
    assert conf > 0.5


def test_nb_unseen_tokens_fall_back_to_prior(provider):
    clf = NaiveBayesClassifier(["A", "B"], provider)
    clf.train([("good food", "A"), ("rude staff", "B")])
    label, conf = clf.predict("xyzzy qwerty")
    assert label == "A"  # tie broken by label order
    assert conf == pytest.approx(0.5)
    clf.train([("good food", "A"), ("rude staff", "B"), ("more staff", "B")])
    label, _ = clf.predict("xyzzy qwerty")
    assert label == "B"  # prior argmax


def test_nb_empty_training(provider):
    clf = NaiveBayesClassifier(["A"], provider)
    with pytest.raises(EmptyTrainingSet):
        clf.train([])


def test_nb_missing_label_never_predicted(provider):
    clf = NaiveBayesClassifier(["A", "B", "C"], provider)
    clf.train([("good food", "A"), ("rude staff", "B")])
    label, _ = clf.predict("anything here")
    assert label in ("A", "B")


# ---------------------------------------------------------------------------
# Per-shot summaries and the seed pairing
# ---------------------------------------------------------------------------


def test_summarize_over_present_cells():
    scores = {10: {2: 0.7, 0: 0.5, 1: None}, 20: {0: None}}
    r = summarize("random", scores, (10, 20), (0, 1, 2))
    assert r.mean[10] == mean([0.5, 0.7]) and r.sd[10] == sample_sd([0.5, 0.7])
    assert r.mean[20] is None and r.sd[20] is None
    assert r.p_vs_reference == {10: None, 20: None} and r.reference is None


def test_paired_pvalues_pairs_present_seeds_only():
    ref = summarize("counterfactual", {
        10: {0: 0.5, 1: 0.6, 2: None, 3: 0.7},  # seed 2 missing on the reference side
        20: {0: 0.6, 1: None, 2: None, 3: None},
    }, (10, 20), (0, 1, 2, 3))
    base = summarize("random", {
        10: {0: 0.4, 1: 0.45, 2: 0.5},  # seed 3 missing on the baseline side
        20: {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5},
    }, (10, 20), (0, 1, 2, 3))
    out = paired_pvalues([base, ref], "counterfactual")
    assert out[1] == ref and out[1].reference is None
    assert out[0].reference == "counterfactual"
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
        e.sentence.id: [(f"the {w} spoke kindly.", "service")]
        for e, w in zip(dataset.examples, itertools.cycle(["staff", "waiter"]))
        if e.label == "products"
    }
    deps = SimulationDeps(provider=provider, augment_index={"counterfactual": index})

    def factory(seed):
        return NaiveBayesClassifier(dataset.label_set, provider, seed)

    results = run_simulation(dataset, ["random", "counterfactual"], schedule, [0, 1], factory, deps)
    assert [r.condition for r in results] == ["random", "counterfactual"]
    for r in results:
        assert r.shots == (4, 8)
        assert r.seeds == (0, 1)
        assert set(r.scores) == {4, 8}
        assert all(set(cell) == {0, 1} for cell in r.scores.values())
        for shot in r.shots:
            assert 0.0 <= r.mean[shot] <= 1.0
            assert r.sd[shot] >= 0.0
    random_result = results[0]
    assert random_result.reference == "counterfactual"
    assert results[1].reference is None
    again = run_simulation(dataset, ["random", "counterfactual"], schedule, [0, 1], factory, deps)
    assert again == results


def test_run_simulation_all_conditions_run(provider):
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((4, 8))
    deps = SimulationDeps(provider=provider)

    def factory(seed):
        return NaiveBayesClassifier(dataset.label_set, provider, seed)

    conditions = ["random", "cluster", "uncertainty", "cf_no_vt", "counterfactual"]
    results = run_simulation(dataset, conditions, schedule, [0, 1, 2], factory, deps)
    for r in results:
        for shot in r.shots:
            assert r.mean[shot] is not None


def test_run_simulation_rejects_bad_inputs(provider):
    dataset = tiny_dataset(provider)
    deps = SimulationDeps(provider=provider)

    def factory(seed):
        return NaiveBayesClassifier(dataset.label_set, provider, seed)

    with pytest.raises(ValueError):
        run_simulation(dataset, ["bogus"], ShotSchedule((2,)), [0], factory, deps)
    with pytest.raises(ValueError):
        run_simulation(dataset, ["random"], ShotSchedule((4, 999)), [0], factory, deps)
    with pytest.raises(ValueError):
        run_simulation(dataset, ["random"], ShotSchedule((4,)), [], factory, deps)


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


def test_nesting_across_shots(provider):
    dataset = tiny_dataset(provider)
    schedule = ShotSchedule((3, 6, 9))
    deps = SimulationDeps(provider=provider)
    seen = []

    class Spy(NaiveBayesClassifier):
        def train(self, items):
            seen.append([t for t, _ in items])
            super().train(items)

    def factory(seed):
        return Spy(dataset.label_set, provider, seed)

    run_simulation(dataset, ["random"], schedule, [7], factory, deps)
    assert len(seen) == 3
    assert seen[0] == seen[1][:3]
    assert seen[1] == seen[2][:6]
