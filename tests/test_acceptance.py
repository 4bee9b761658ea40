"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end criteria (8-10) read the pinned README walkthrough of
corpus seeds 7 and 11 (the `walkthroughs` fixture), one line per seed; 9 and
10 rerun commands on a copy of it.
"""

import contextlib
import csv
import io
import math
import os
import random
import time

import numpy as np
import pytest

import patvar.cli as cli
from patvar.experiment import RunResult
from patvar.filtering import (
    ARMS,
    FilterRow,
    StageVerdict,
    compute_metrics,
    run_pipeline,
    survivors_by_arm,
)
from patvar.gateway import MockBackend
from patvar.generation import (
    CounterfactualCandidate,
    GenerationTask,
    separate_multilabel,
)
from patvar.learning import kmeans
from patvar.patterns import brute_force_match, match_sentence, parse_pattern, render_pattern
from patvar.prompts import fill, load_template
from patvar.reports import render_f1_grid, render_quality_table
from patvar.stats import macro_f1, paired_t_test
from patvar.synthdata import LABEL_VOCAB
from patvar.synthesis import (
    LabeledExample,
    SynthesisConfig,
    enumerate_candidates,
    pack,
    synthesize_patterns,
)

from oracles import (
    exhaustive_best_inertia,
    inertia,
    macro_f1_by_confusion,
    random_pattern,
    random_sentence,
    two_sided_p_by_quadrature,
)


def check(num: int, ok: bool, text: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


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
    pool = pack(positives + negatives)
    cands = enumerate_candidates(pool, "products", SynthesisConfig(), lexicon)
    renders = {c.rendered for c in cands}
    chosen = synthesize_patterns(pool, "products", SynthesisConfig(), lexicon)
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


def test_criterion_04_metric_exactness(provider):
    original = provider.annotate("The staff was rude.")

    def row(pattern_kept, pred, target, orig):
        """A judged row: the symbolic verdict passed, failed or (None) skipped,
        and `pred` the label the discriminator assigned."""
        cand = CounterfactualCandidate(uid="c", task=GenerationTask(original, orig, target),
                                       generated_text="Some rewrite.", used_phrase=None)
        symbolic = {True: "passed", False: "failed", None: "skipped"}[pattern_kept]
        verdicts = {"heuristic": StageVerdict("passed"), "symbolic": StageVerdict(symbolic),
                    "discriminator": StageVerdict("passed" if pred == target else "failed")}
        return FilterRow(cand, verdicts, pred)

    batches = [
        # kept 3/4 patterns; all 4 hit their target
        ([row(True, "B", "B", "A"), row(True, "B", "B", "A"),
          row(True, "B", "B", "A"), row(False, "B", "B", "A")],
         (0.75, 1.0, 1.0)),
        # kept 2/4 judged; hits 2/5; soft flips 4/5
        ([row(True, "B", "B", "A"), row(False, "A", "B", "A"),
          row(None, "C", "B", "A"), row(True, "B", "B", "A"),
          row(False, "C", "B", "A")],
         (0.5, 0.8, 0.4)),
        # kept 1/2; hits 0/2; soft flips 1/2
        ([row(True, "A", "C", "B"), row(False, "B", "C", "B")],
         (0.5, 0.5, 0.0)),
    ]
    worst = 0.0
    for rows, (pkr, slfr, lfr) in batches:
        report = compute_metrics(rows)
        worst = max(worst, abs(report.pkr - pkr), abs(report.slfr - slfr), abs(report.lfr - lfr))
    rng = random.Random(20240504)
    labels = ["a", "b", "c", "d"]
    violations = 0
    for _ in range(1000):
        rows = []
        for _ in range(rng.randint(1, 10)):
            orig, target = rng.sample(labels, 2)
            rows.append(row(None, rng.choice(labels), target, orig))
        report = compute_metrics(rows)
        if report.lfr > report.slfr:
            violations += 1
    check(4, worst <= 1e-9 and violations == 0,
          f"hand-counted batches within {worst:.2e} of expected; "
          f"LFR<=SLFR violations on 1000 random batches: {violations}")


# ---------------------------------------------------------------------------
# Criterion 5: filter ablation monotonicity
# ---------------------------------------------------------------------------


def test_criterion_05_filter_monotonicity(provider, lexicon, gateway_for):
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
    gw = gateway_for(MockBackend(label_vocab=LABEL_VOCAB))
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
        _, _, rows = run_pipeline(batch, labels, lexicon, provider, gw)
        survivors = {arm: {c.uid for c in kept} for arm, kept in survivors_by_arm(rows).items()}
        for small in ARMS:
            for big in ARMS:
                if set(ARMS[small]) <= set(ARMS[big]):
                    if not survivors[big] <= survivors[small]:
                        violations += 1
    check(5, violations == 0,
          f"survivors(C2) subset of survivors(C1) for nested arms over 200 batches: "
          f"{violations} violations")


# ---------------------------------------------------------------------------
# Criterion 6: prompt fidelity
# ---------------------------------------------------------------------------


def test_criterion_06_prompt_fidelity(canned, gateway_for):
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
    messages = fill(load_template("multilabel_separator"), {
        "text": "Great customer service, reasonable prices, and a chill atmosphere.",
        "pattern": "['(customer)+*+[service]', '(pay)|(sale)', '(environment)']",
        "label": "price, service, environment",
    })
    gw = gateway_for(canned({tuple(messages): reply}))
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


def test_criterion_07_statistics_oracles():
    labels = ["a", "b", "c", "d"]
    rng = random.Random(20240507)
    pairs = []
    for _ in range(100):
        a = [rng.uniform(0, 1) for _ in range(rng.randint(4, 16))]
        pairs.append((a, [x + rng.gauss(0.05, 0.25) for x in a]))
    prediction_sets = [[(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(1, 25))]
                       for _ in range(500)]
    rng = random.Random(2718)
    for _ in range(100):
        base = [rng.uniform(0, 1) for _ in range(rng.randint(4, 16))]
        shift = rng.uniform(-0.3, 0.3)
        pairs.append(([x + shift + rng.gauss(0, 0.2) for x in base], base))
    rng = random.Random(31337)
    prediction_sets += [[(rng.choice(labels), rng.choice(labels))
                         for _ in range(rng.randint(1, 30))] for _ in range(500)]

    worst_p = 0.0
    for a, b in pairs:
        t, p = paired_t_test(a, b)
        if not math.isinf(t):
            worst_p = max(worst_p, abs(p - two_sided_p_by_quadrature(t, len(a) - 1)))
    f1_mismatches = sum(macro_f1(preds, labels) != macro_f1_by_confusion(preds, labels)
                        for preds in prediction_sets)

    points = np.array([[0.0], [0.1], [10.0], [10.1]])
    assignments, centroids = kmeans(points, 2, seed=0)
    km_optimal = inertia(points, assignments, centroids) == pytest.approx(
        exhaustive_best_inertia(points, 2), abs=1e-12)

    sets = len(prediction_sets)
    check(7, worst_p <= 1e-3 and f1_mismatches == 0 and km_optimal,
          f"t-test within {worst_p:.2e} of quadrature on {len(pairs)} paired samples; "
          f"macro-F1 exact on {sets - f1_mismatches} of {sets} sets; "
          f"k-means hits the inertia-optimal 1-D partition")


# ---------------------------------------------------------------------------
# Criteria 8-10: the pinned README walkthrough of each corpus seed
# ---------------------------------------------------------------------------

def out_files(work):
    return {name: (work / "out" / name).read_bytes() for name in os.listdir(work / "out")}


def test_criterion_08_cold_start_effect(walkthroughs):
    for seed, run in walkthroughs.items():
        with open(run.dir / "out" / "summary.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        mean = {(r["condition"], int(r["shot"])): float(r["mean"]) for r in rows}
        p10 = next(float(r["p_vs_counterfactual"]) for r in rows
                   if r["condition"] == "random" and r["shot"] == "10")
        first, last = 10, 120
        gap_first = mean[("counterfactual", first)] - mean[("random", first)]
        gap_last = mean[("counterfactual", last)] - mean[("random", last)]
        ok = gap_first > 0 and p10 < 0.05 and gap_last < gap_first and run.seconds < 300.0
        check(8, ok,
              f"corpus seed {seed}: 10-shot gap {gap_first:+.3f} (p={p10:.2g} < 0.05) over a "
              f"200/100 split; gap at {last} shots {gap_last:+.3f} (shrunk or reversed); "
              f"pipeline ran in {run.seconds:.1f}s with zero network calls")


def test_criterion_09_determinism(walkthroughs, copy_walkthrough):
    """Rerunning all six commands rewrites every output byte for byte."""
    for seed, run in walkthroughs.items():
        work = copy_walkthrough(run)
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("synth", "gen", "filter", "simulate", "ablate", "report"):
                assert cli.main([command, "--config", str(work.config)]) == 0, command
        moved = work.moved()
        check(9, moved == [] and out_files(work.dir) == out_files(run.dir),
              f"corpus seed {seed}: rerunning the six commands rewrites all "
              f"{len(run.pins)} pinned outputs and the manifest byte for byte (moved: {moved})")


def test_criterion_10_cache_replay(walkthroughs, copy_walkthrough, backend_sends):
    for seed, run in walkthroughs.items():
        work = copy_walkthrough(run)
        segments = sorted(os.listdir(work.dir / "cache"))
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("gen", "filter"):
                assert cli.main([command, "--config", str(work.config)]) == 0, command
        added = sorted(set(os.listdir(work.dir / "cache")) - set(segments))
        moved = work.moved()
        same = out_files(work.dir) == out_files(run.dir)
        check(10, backend_sends == [] and added == [] and moved == [] and same,
              f"corpus seed {seed}: gen+filter replay against the populated cache: "
              f"{len(backend_sends)} backend requests, {len(added)} new cache segments, "
              f"every output byte-identical (moved: {moved})")


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
