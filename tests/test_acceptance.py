"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the end-to-end criteria (8-10) share one pipeline run in a temp dir.
"""

import hashlib
import json
import math
import random
import time

import numpy as np
import pytest
import yaml

import patvar.cli as cli
from patvar.filtering import (
    DiscriminatorVerdict,
    FilterConfig,
    FilterDeps,
    MetricFlags,
    compute_metrics,
    run_pipeline,
)
from patvar.gateway import Gateway, MockBackend
from patvar.generation import (
    CounterfactualCandidate,
    GenerationTask,
    separate_multilabel,
)
from patvar.learning import RunResult, inertia, kmeans
from patvar.patterns import (
    WILDCARD,
    EntityAtom,
    PatternAst,
    PosAtom,
    SoftAtom,
    StemAtom,
    brute_force_match,
    match_sentence,
    parse_pattern,
    render_pattern,
)
from patvar.prompts import fill, load_template
from patvar.reports import render_f1_grid, render_quality_table
from patvar.stats import macro_f1, paired_t_test
from patvar.synthdata import LABEL_VOCAB, make_rows, write_csv
from patvar.synthesis import LabeledExample, SynthesisConfig, enumerate_candidates, synthesize_patterns


def check(num: int, ok: bool, text: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


# ---------------------------------------------------------------------------
# Randomized structure generators (shared by criteria 1 and 2)
# ---------------------------------------------------------------------------

POS_CHOICES = ("VERB", "PROPN", "NOUN", "ADJ", "ADV", "AUX", "PRON", "NUM")
WORD_CHOICES = ("food", "amazing", "cheap", "pay", "staff", "monday", "play", "good", "price", "be")
ENTITY_CHOICES = ("DATE", "LOCATION", "ORG", "PERSON")
SENTENCE_VOCAB = [
    "food", "amazing", "great", "good", "cheap", "affordable", "lobster", "price",
    "staff", "monday", "new", "york", "play", "song", "5", "was", "the", "xyzzy", "!",
]


def random_atom(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return PosAtom(rng.choice(POS_CHOICES))
    if kind == 1:
        return StemAtom(rng.choice(WORD_CHOICES))
    if kind == 2:
        return SoftAtom(rng.choice(WORD_CHOICES))
    if kind == 3:
        return EntityAtom(rng.choice(ENTITY_CHOICES))
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
                atom = StemAtom(rng.choice(WORD_CHOICES))
            seq.append(atom)
        budget -= len(seq)
        alts.append(tuple(seq))
        if budget <= 0:
            break
    return PatternAst(tuple(alts))


def random_sentence(provider, rng, max_tokens=12):
    raw = " ".join(rng.choice(SENTENCE_VOCAB) for _ in range(rng.randrange(0, max_tokens + 1)))
    return provider.annotate(raw)


# ---------------------------------------------------------------------------
# Criteria 1-2: matcher oracle equivalence and parse/render round-trip
# ---------------------------------------------------------------------------


def test_criterion_01_matcher_oracle_equivalence(provider, lexicon):
    rng = random.Random(20240501)
    start = time.perf_counter()
    disagreements = 0
    for _ in range(1000):
        p = random_pattern(rng)
        s = random_sentence(provider, rng)
        if match_sentence(p, s, lexicon) != brute_force_match(p, s, lexicon):
            disagreements += 1
    elapsed = time.perf_counter() - start
    check(
        1,
        disagreements == 0 and elapsed < 10.0,
        f"matcher vs brute force on 1000 random pairs: {disagreements} disagreements, "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_roundtrip():
    rng = random.Random(20240502)
    bad = sum(
        1 for _ in range(1000)
        if parse_pattern(render_pattern(p := random_pattern(rng))) != p
    )
    check(2, bad == 0, f"parse(render(ast)) identity on 1000 random asts: {bad} failures")


# ---------------------------------------------------------------------------
# Criterion 3: the running synthesis example
# ---------------------------------------------------------------------------


def test_criterion_03_running_example_synthesis(provider, lexicon):
    import dataclasses

    def example(raw, label, id):
        return LabeledExample(dataclasses.replace(provider.annotate(raw), id=id), label)

    positives = [
        example("Good food with great variety.", "products", "p0"),
        example("The food was amazing.", "products", "p1"),
    ]
    negatives = [example("The staff was rude.", "service", "n0")]
    cands = enumerate_candidates(positives, negatives, SynthesisConfig(), lexicon)
    renders = {c.rendered for c in cands}
    chosen = synthesize_patterns(positives, negatives, SynthesisConfig(), lexicon)
    patterns = [sp.pattern for sp in chosen]
    covers_all = all(
        any(match_sentence(p, ex.sentence, lexicon) for p in patterns) for ex in positives
    )
    excludes_neg = not any(match_sentence(p, negatives[0].sentence, lexicon) for p in patterns)
    ok = (
        {"[food]+*+ADJ", "(amazing)+*"} <= renders
        and 1 <= len(patterns) <= 5
        and covers_all
        and excludes_neg
    )
    check(3, ok, f"{len(patterns)} patterns cover both positives, exclude the negative; "
                 "candidate set holds both expected patterns")


# ---------------------------------------------------------------------------
# Criterion 4: metric exactness
# ---------------------------------------------------------------------------


def test_criterion_04_metric_exactness():
    def dv(pred, target, orig):
        return DiscriminatorVerdict(pred, target, orig)

    batches = [
        # kept 3/4 patterns; all 4 hit their target
        ([MetricFlags(True, dv("B", "B", "A")), MetricFlags(True, dv("B", "B", "A")),
          MetricFlags(True, dv("B", "B", "A")), MetricFlags(False, dv("B", "B", "A"))],
         (0.75, 1.0, 1.0)),
        # kept 2/4 judged; hits 2/5; soft flips 4/5
        ([MetricFlags(True, dv("B", "B", "A")), MetricFlags(False, dv("A", "B", "A")),
          MetricFlags(None, dv("C", "B", "A")), MetricFlags(True, dv("B", "B", "A")),
          MetricFlags(False, dv("C", "B", "A"))],
         (0.5, 0.8, 0.4)),
        # kept 1/2; hits 0/2; soft flips 1/2
        ([MetricFlags(True, dv("A", "C", "B")), MetricFlags(False, dv("B", "C", "B"))],
         (0.5, 0.5, 0.0)),
    ]
    worst = 0.0
    for flags, (pkr, slfr, lfr) in batches:
        report = compute_metrics(flags)
        worst = max(worst, abs(report.pkr - pkr), abs(report.slfr - slfr), abs(report.lfr - lfr))
    rng = random.Random(20240504)
    labels = ["a", "b", "c", "d"]
    violations = 0
    for _ in range(1000):
        flags = []
        for _ in range(rng.randint(1, 10)):
            orig, target = rng.sample(labels, 2)
            flags.append(MetricFlags(None, dv(rng.choice(labels), target, orig)))
        report = compute_metrics(flags)
        if report.lfr > report.slfr:
            violations += 1
    check(4, worst <= 1e-9 and violations == 0,
          f"hand-counted batches within {worst:.2e} of expected; "
          f"LFR<=SLFR violations on 1000 random batches: {violations}")


# ---------------------------------------------------------------------------
# Criterion 5: filter ablation monotonicity
# ---------------------------------------------------------------------------


def test_criterion_05_filter_monotonicity(provider, lexicon):
    texts = [
        "The affordable lobster here is a steal.",
        "cannot generate counterfactual",
        "modified text: affordable lobster again.",
        "Service was slow today",
        "Nothing matches the pattern here today.",
        "The affordable staff was rude here.",
        "The tasty food impressed everyone greatly.",
        "so cheap",
        "A cheap deal and a tasty menu around.",
    ]
    patterns = ["(cheap)+*+NOUN", "[staff]", None]
    labels = ["service", "price", "environment", "products"]
    gw = Gateway(backend=MockBackend(label_vocab=LABEL_VOCAB), model="m")
    deps = FilterDeps(lex=lexicon, provider=provider, gateway=gw, label_set=labels)
    configs = [FilterConfig(*flags) for flags in
               ((False, False, False), (True, False, False), (False, True, False),
                (False, False, True), (True, True, False), (True, False, True),
                (False, True, True), (True, True, True))]
    rng = random.Random(20240505)
    violations = 0
    for batch_no in range(200):
        batch = []
        for i in range(rng.randint(2, 8)):
            orig, target = rng.sample(labels, 2)
            pattern = rng.choice(patterns)
            task = GenerationTask(
                provider.annotate("The staff was rude."), orig, target,
                parse_pattern(pattern) if pattern else None,
                "affordable lobster" if pattern else "",
            )
            batch.append(CounterfactualCandidate(
                uid=f"b{batch_no}c{i}", task=task,
                generated_text=rng.choice(texts), used_phrase=None,
            ))
        survivors_by_cfg = {}
        for cfg in configs:
            survivors, _ = run_pipeline(batch, cfg, deps)
            survivors_by_cfg[cfg] = {c.uid for c in survivors}
        for small in configs:
            for big in configs:
                if set(small.enabled_stages()) <= set(big.enabled_stages()):
                    if not survivors_by_cfg[big] <= survivors_by_cfg[small]:
                        violations += 1
    check(5, violations == 0,
          f"survivors(C2) subset of survivors(C1) for nested configs over 200 batches: "
          f"{violations} violations")


# ---------------------------------------------------------------------------
# Criterion 6: prompt fidelity
# ---------------------------------------------------------------------------


def test_criterion_06_prompt_fidelity():
    anchors = {
        "multilabel_separator": "separate the given multi-labeled sentences",
        "candidate_phrases": "generate as many diverse example phrases",
        "counterfactual_generator": "must use one of the following phrases without rewording it",
    }
    anchored = all(
        any(anchor in m.content for m in load_template(name))
        for name, anchor in anchors.items()
    )
    reply = (
        " 'Great customer service, ' + '(customer)+*+[service]' + 'service'; "
        "'reasonable prices, ' + '(pay)|(sale)' + 'price'; "
        "'and a chill atmosphere.' + '(environment)' + 'environment' "
    )
    backend = MockBackend(template_mode=False)
    gw = Gateway(backend=backend, model="m")
    messages = fill(load_template("multilabel_separator"), {
        "text": "Great customer service, reasonable prices, and a chill atmosphere.",
        "pattern": "['(customer)+*+[service]', '(pay)|(sale)', '(environment)']",
        "label": "price, service, environment",
    })
    backend.add_response(tuple(messages), reply)
    parts = separate_multilabel(
        "Great customer service, reasonable prices, and a chill atmosphere.",
        ["(customer)+*+[service]", "(pay)|(sale)", "(environment)"],
        ["price", "service", "environment"],
        gw,
    )
    expected = [
        ("Great customer service, ", "(customer)+*+[service]", "service"),
        ("reasonable prices, ", "(pay)|(sale)", "price"),
        ("and a chill atmosphere.", "(environment)", "environment"),
    ]
    check(6, anchored and parts == expected,
          "prompt anchors present verbatim; separator reproduces the worked triple")


# ---------------------------------------------------------------------------
# Criterion 7: statistics oracles
# ---------------------------------------------------------------------------


def t_pdf(x, df):
    return math.exp(
        math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi) - ((df + 1) / 2.0) * math.log1p(x * x / df)
    )


def quadrature_p(t, df, points=8001):
    hi = abs(t)
    if hi == 0:
        return 1.0
    h = 2 * hi / (points - 1)
    total = sum(
        (1 if i in (0, points - 1) else (4 if i % 2 else 2)) * t_pdf(-hi + i * h, df)
        for i in range(points)
    )
    return 1.0 - total * h / 3.0


def confusion_macro_f1(preds, label_set):
    # Independent counting route (full confusion matrix); same closed-form
    # per-label F1 so the comparison can demand exact equality.
    idx = {l: i for i, l in enumerate(label_set)}
    k = len(label_set)
    conf = [[0] * k for _ in range(k)]
    for gold, pred in preds:
        conf[idx[gold]][idx[pred]] += 1
    total = 0.0
    for i in range(k):
        tp = conf[i][i]
        fp = sum(conf[j][i] for j in range(k)) - tp
        fn = sum(conf[i]) - tp
        denom = 2 * tp + fp + fn
        total += 2 * tp / denom if denom else 0.0
    return total / k


def test_criterion_07_statistics_oracles():
    rng = random.Random(20240507)
    worst_p = 0.0
    for _ in range(100):
        n = rng.randint(4, 16)
        a = [rng.uniform(0, 1) for _ in range(n)]
        b = [x + rng.gauss(0.05, 0.25) for x in a]
        t, p = paired_t_test(a, b)
        if math.isinf(t):
            continue
        worst_p = max(worst_p, abs(p - quadrature_p(t, n - 1)))

    labels = ["a", "b", "c", "d"]
    f1_mismatches = 0
    for _ in range(500):
        preds = [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(1, 25))]
        if macro_f1(preds, labels) != confusion_macro_f1(preds, labels):
            f1_mismatches += 1

    points = np.array([[0.0], [0.1], [10.0], [10.1]])
    assignments, centroids = kmeans(points, 2, seed=0)
    best = min(
        sum(
            float(np.sum((points[[i for i in range(4) if assign[i] == j]]
                          - points[[i for i in range(4) if assign[i] == j]].mean(axis=0)) ** 2))
            for j in set(assign)
        )
        for assign in [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)]
    )
    km_optimal = inertia(points, assignments, centroids) == pytest.approx(best, abs=1e-12)

    check(7, worst_p <= 1e-3 and f1_mismatches == 0 and km_optimal,
          f"t-test within {worst_p:.2e} of quadrature; macro-F1 exact on 500 sets; "
          f"k-means hits the inertia-optimal 1-D partition")


# ---------------------------------------------------------------------------
# Criteria 8-10: end-to-end mock pipeline (shared run)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    write_csv(tmp / "data.csv", make_rows(300, seed=7))
    config = {
        "dataset": {"path": "data.csv", "holdout_fraction": 1 / 3, "split_seed": 5},
        "synthesis": {"max_patterns": 5, "max_atoms": 2, "beam_width": 40},
        "conditions": ["random", "cf_no_vt", "counterfactual"],
        "shots": [10, 30, 120],
        "seeds": [0, 1, 2, 3, 4, 5, 6, 7],
        "backend": {"kind": "mock", "model": "mock-model",
                    "label_vocab": LABEL_VOCAB, "flaw_rate": 0.25},
        "cache_dir": "cache",
        "output_dir": "out",
    }
    config_path = tmp / "exp.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    start = time.perf_counter()
    for command in ("synth", "gen", "filter", "simulate"):
        assert cli.main([command, "--config", str(config_path)]) == 0
    elapsed = time.perf_counter() - start
    return {"dir": tmp, "config": config_path, "elapsed": elapsed}


def _summary_rows(e2e):
    import csv

    with open(e2e["dir"] / "out" / "summary.csv", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_criterion_08_cold_start_effect(e2e):
    rows = _summary_rows(e2e)
    mean = {(r["condition"], int(r["shot"])): float(r["mean"]) for r in rows}
    p10 = next(float(r["p_vs_counterfactual"]) for r in rows
               if r["condition"] == "random" and r["shot"] == "10")
    pool_size = 300 - 100
    first, last = 10, 120
    gap_first = mean[("counterfactual", first)] - mean[("random", first)]
    gap_last = mean[("counterfactual", last)] - mean[("random", last)]
    ok = (
        mean[("counterfactual", first)] > mean[("random", first)]
        and p10 < 0.05
        and gap_last < gap_first
        and e2e["elapsed"] < 300.0
    )
    check(8, ok,
          f"10-shot gap {gap_first:+.3f} (p={p10:.2g} < 0.05) over a {pool_size}/100 split; "
          f"gap at {last} shots {gap_last:+.3f} (shrunk or reversed); "
          f"pipeline ran in {e2e['elapsed']:.0f}s with zero network calls")


def test_criterion_09_determinism(e2e):
    out = e2e["dir"] / "out"
    before = {n: (out / n).read_bytes() for n in ("results.csv", "summary.csv")}
    assert cli.main(["simulate", "--config", str(e2e["config"])]) == 0
    after = {n: (out / n).read_bytes() for n in ("results.csv", "summary.csv")}
    check(9, before == after, "re-running the simulation reproduces byte-identical CSVs")


def test_criterion_10_cache_replay(e2e):
    out = e2e["dir"] / "out"
    watched = ("candidates_vt.jsonl", "candidates_novt.jsonl",
               "survivors_vt.jsonl", "audit_vt.jsonl", "quality_report.json")
    before = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in watched}
    captured = {}
    original = cli.build_gateway

    def spying_build(cfg):
        gw = original(cfg)
        captured.setdefault("backends", []).append(gw.backend)
        return gw

    cli.build_gateway = spying_build
    try:
        assert cli.main(["gen", "--config", str(e2e["config"])]) == 0
        assert cli.main(["filter", "--config", str(e2e["config"])]) == 0
    finally:
        cli.build_gateway = original
    total_calls = sum(b.calls for b in captured["backends"])
    after = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in watched}
    check(10, total_calls == 0 and before == after,
          f"gen+filter replay against the populated cache: {total_calls} backend calls, "
          "outputs byte-identical")


# ---------------------------------------------------------------------------
# Criterion 11: report fidelity
# ---------------------------------------------------------------------------

EXPECTED_QUALITY_TABLE = (
    "|                      | YELP | MASSIVE | Emotions |\n"
    "| -------------------- | ---- | ------- | -------- |\n"
    "| Pattern Keeping Rate | 0.94 | 0.88    | 0.81     |\n"
    "| Soft Label Flip Rate | 0.45 | 0.71    | 0.58     |\n"
    "| Label Flip Rate      | 0.98 | 0.86    | 0.86     |\n"
)


def test_criterion_11_report_fidelity():
    table = render_quality_table({
        "YELP": {"pkr": 0.94, "slfr": 0.45, "lfr": 0.98},
        "MASSIVE": {"pkr": 0.88, "slfr": 0.71, "lfr": 0.86},
        "Emotions": {"pkr": 0.81, "slfr": 0.58, "lfr": 0.86},
    })
    shots = (10, 15, 30)

    def rr(condition, means, ps):
        return RunResult(
            condition=condition, shots=shots, seeds=(0, 1),
            scores={s: {} for s in shots},
            mean=dict(zip(shots, means)), sd=dict(zip(shots, (0.05, 0.06, 0.07))),
            p_vs_reference=dict(zip(shots, ps)),
            reference="counterfactual" if any(p is not None for p in ps) else None,
        )

    grid = render_f1_grid("Macro F1 (YELP)", [
        rr("random", (0.38, 0.44, 0.51), (0.00005, 0.00005, 0.00005)),
        rr("counterfactual", (0.55, 0.59, 0.63), (None, None, None)),
    ])
    lines = grid.splitlines()
    header_cells = [c.strip() for c in lines[2].split("|")[1:-1]]
    ok = (
        table == EXPECTED_QUALITY_TABLE
        and header_cells == ["Method", "10", "15", "30"]
        and "**.55 (.05)**" in grid
        and ".38 (.05) ***" in grid
    )
    check(11, ok, "quality table matches the published layout byte for byte; "
                  "F1 grid has shots as columns, bold best, stars")
