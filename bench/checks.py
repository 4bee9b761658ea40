"""Correctness checks on the files `patvar` writes, each against a separate
computation or a property the method must have, never a stored copy.

Each check raises CheckFailed with the first problem it finds. selftest.py
feeds every check a corrupted copy of real outputs and expects it to fail.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import statistics
from collections import Counter

from patvar.fixtures import FixtureAnnotationProvider, fixture_synonyms
from patvar.patterns import brute_force_match, parse_pattern, render_pattern

# The filter arms of the paper's ablation.
ABLATION_ARMS = ("none", "heuristic", "heuristic+symbolic", "heuristic+discriminator", "all")
# results.csv and summary.csv print macro-F1 with 6 decimals, p-values with 6
# significant digits; the summary was computed from the unrounded cells.
CELL_ROUNDING = 5e-7


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def changed_files(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """Names whose digest differs, or that exist on one side only."""
    return sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# learn: patterns.json
# ---------------------------------------------------------------------------


def check_patterns(out: str, dataset, synthesis_cfg) -> None:
    """Every pattern round-trips, and brute-force matching over the pool
    reproduces its covered ids, precision, recall and F1."""
    with open(os.path.join(out, "patterns.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    lex = fixture_synonyms()
    require(list(payload["label_set"]) == list(dataset.label_set),
            f"label_set {payload['label_set']} != {list(dataset.label_set)}")
    require(set(payload["patterns"]) == set(dataset.label_set), "a label has no pattern list")
    for label, entries in payload["patterns"].items():
        require(1 <= len(entries) <= synthesis_cfg.max_patterns,
                f"{label}: {len(entries)} patterns, want 1..{synthesis_cfg.max_patterns}")
        positives = [ex for ex in dataset.examples if ex.label == label]
        negatives = [ex for ex in dataset.examples if ex.label != label]
        for entry in entries:
            text = entry["pattern"]
            pattern = parse_pattern(text)
            require(render_pattern(pattern) == text, f"{text!r} renders as {render_pattern(pattern)!r}")
            pos = sorted(ex.sentence.id for ex in positives
                         if brute_force_match(pattern, ex.sentence, lex))
            neg = [ex for ex in negatives if brute_force_match(pattern, ex.sentence, lex)]
            require(entry["covered"] == pos, f"{label} {text}: covered ids differ from brute force")
            precision = len(pos) / (len(pos) + len(neg)) if pos or neg else 0.0
            recall = len(pos) / len(positives)
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            for key, want in (("precision", precision), ("recall", recall), ("f1", f1)):
                require(math.isclose(entry[key], want, rel_tol=1e-12, abs_tol=1e-12),
                        f"{label} {text}: {key} {entry[key]} != {want}")
            require(precision >= synthesis_cfg.min_precision - 1e-12,
                    f"{label} {text}: precision {precision} < {synthesis_cfg.min_precision}")


# ---------------------------------------------------------------------------
# augment / replay: candidates, survivors, audit logs, quality report
# ---------------------------------------------------------------------------


def expected_quality(audit: list[dict]) -> dict:
    """PKR, SLFR and LFR recomputed from the per-candidate audit records."""
    judged = [r for r in audit if r["pattern"] is not None
              and r["verdicts"]["symbolic"]["status"] in ("passed", "failed")]
    kept = sum(1 for r in judged if r["verdicts"]["symbolic"]["status"] == "passed")
    labelled = [r for r in audit if r["discriminator_label"] is not None]
    hard = sum(1 for r in labelled if r["discriminator_label"] == r["target_label"])
    soft = sum(1 for r in labelled if r["discriminator_label"] != r["original_label"])
    return {
        "n": len(audit), "pattern_n": len(judged), "pattern_kept": kept,
        "label_n": len(labelled), "soft_flips": soft, "hard_flips": hard,
        "pkr": kept / len(judged) if judged else None,
        "slfr": soft / len(labelled) if labelled else None,
        "lfr": hard / len(labelled) if labelled else None,
    }


def check_augment(out: str, dataset) -> None:
    """Candidates, survivors, audit logs and quality report of gen + filter."""
    provider, lex = FixtureAnnotationProvider(), fixture_synonyms()
    with open(os.path.join(out, "quality_report.json"), encoding="utf-8") as fh:
        quality = json.load(fh)
    for name, key in (("vt", "vt"), ("novt", "no_vt")):
        candidates = read_jsonl(os.path.join(out, f"candidates_{name}.jsonl"))
        survivors = read_jsonl(os.path.join(out, f"survivors_{name}.jsonl"))
        audit = read_jsonl(os.path.join(out, f"audit_{name}.jsonl"))
        if name == "novt":
            want = len(dataset.examples) * (len(dataset.label_set) - 1)
            require(len(candidates) == want,
                    f"{len(candidates)} unconstrained candidates, want pool x targets = {want}")
        by_uid = {c["uid"]: c for c in candidates}
        require(len(by_uid) == len(candidates), f"candidates_{name}: duplicate uids")
        for c in candidates:
            require(c["target_label"] != c["original_label"],
                    f"{c['uid']} targets its own label {c['target_label']!r}")
        for s in survivors:
            source = by_uid.get(s["uid"])
            require(source is not None and source["generated_text"] == s["generated_text"],
                    f"survivor {s['uid']} is not one of the candidates")
            if name == "vt":
                sentence = provider.annotate(s["generated_text"])
                require(brute_force_match(parse_pattern(s["pattern"]), sentence, lex),
                        f"survivor {s['uid']} does not match its pattern {s['pattern']}")
                require(s["discriminator_label"] == s["target_label"],
                        f"survivor {s['uid']}: discriminator said {s['discriminator_label']!r}, "
                        f"target {s['target_label']!r}")
        require(len(audit) == len(candidates), f"audit_{name} has {len(audit)} records")
        want = expected_quality(audit)
        require(quality[key] == want, f"quality_report {key} {quality[key]} != {want}")


# ---------------------------------------------------------------------------
# grid: results, summary, ablation, report
# ---------------------------------------------------------------------------


def _nb_macro_f1(train, test, label_set, lemmas) -> float:
    """Multinomial naive Bayes with add-one smoothing over lemmas; unseen
    lemmas are ignored and ties go to the earlier label."""
    docs = Counter(label for _, label in train)
    words = {label: Counter() for label in label_set}
    for text, label in train:
        words[label].update(lemmas(text))
    vocab = set().union(*words.values())
    totals = {label: sum(words[label].values()) for label in label_set}
    predictions = []
    for text, gold in test:
        seen = [w for w in lemmas(text) if w in vocab]
        best_label, best = None, -math.inf
        for label in label_set:
            if not docs[label]:
                continue
            score = math.log(docs[label] / len(train))
            for w in seen:
                score += math.log((words[label][w] + 1) / (totals[label] + len(vocab)))
            if best_label is None or score > best:
                best_label, best = label, score
        predictions.append((gold, best_label))
    f1s = []
    for label in label_set:
        tp = sum(1 for g, p in predictions if g == p == label)
        wrong = sum(1 for g, p in predictions if (g == label) != (p == label))
        f1s.append(2 * tp / (2 * tp + wrong) if tp else 0.0)
    return sum(f1s) / len(f1s)


def _p_value(a: list[float], b: list[float]) -> tuple[float, float]:
    """scipy's paired p-value of the printed cells, and how far it can move
    when each cell moves by its rounding error (to first order)."""
    from scipy import stats

    if all(x == y for x, y in zip(a, b)):
        return 1.0, 0.0  # patvar.stats convention where scipy gives nan
    p = float(stats.ttest_rel(a, b).pvalue)
    slack = 0.0
    for i in range(len(a)):
        moved = list(a)
        moved[i] += CELL_ROUNDING
        slack += abs(float(stats.ttest_rel(moved, b).pvalue) - p)
        moved = list(b)
        moved[i] += CELL_ROUNDING
        slack += abs(float(stats.ttest_rel(a, moved).pvalue) - p)
    return p, slack


def check_grid(out: str, dataset, cfg) -> None:
    conditions, shots, seeds = list(cfg.conditions), list(cfg.shots), list(cfg.seeds)
    rows = read_csv(os.path.join(out, "results.csv"))
    scores: dict[tuple[str, int], dict[int, float]] = {}
    for row in rows:
        require(row["macro_f1"] != "",
                f"missing cell {row['condition']} shot {row['shot']} seed {row['seed']}")
        value = float(row["macro_f1"])
        require(0.0 <= value <= 1.0, f"macro-F1 {value} outside [0, 1]")
        scores.setdefault((row["condition"], int(row["shot"])), {})[int(row["seed"])] = value
    want_cells = {(c, s) for c in conditions for s in shots}
    require(set(scores) == want_cells and len(rows) == len(want_cells) * len(seeds)
            and all(sorted(v) == seeds for v in scores.values()),
            f"results.csv has {len(rows)} rows, not one per (condition, shot, seed)")

    summary = {(r["condition"], int(r["shot"])): r
               for r in read_csv(os.path.join(out, "summary.csv"))}
    require(set(summary) == want_cells, "summary.csv lacks a (condition, shot) row")
    for (condition, shot), row in summary.items():
        values = [scores[condition, shot][s] for s in seeds]
        for key, want in (("mean", statistics.mean(values)), ("sd", statistics.stdev(values))):
            require(abs(float(row[key]) - want) <= 4 * CELL_ROUNDING,
                    f"summary {condition}@{shot} {key} {row[key]} != {want:.6f}")
        if condition == "counterfactual":
            require(row["p_vs_counterfactual"] == "", "counterfactual has a p-value against itself")
            continue
        want, slack = _p_value(values, [scores["counterfactual", shot][s] for s in seeds])
        got = float(row["p_vs_counterfactual"])
        require(abs(got - want) <= 2 * slack + 1e-5 * want + 1e-12,
                f"summary {condition}@{shot} p {got} != scipy {want} (+-{2 * slack:.3g})")

    mean = {key: float(row["mean"]) for key, row in summary.items()}
    first, last = shots[0], shots[-1]
    gap_first = mean["counterfactual", first] - mean["random", first]
    gap_last = mean["counterfactual", last] - mean["random", last]
    p_first = float(summary["random", first]["p_vs_counterfactual"])
    require(gap_first > 0 and p_first < 0.05,
            f"counterfactual does not beat random at {first} shots (gap {gap_first:+.3f}, p {p_first})")
    require(gap_last < gap_first, f"gap at {last} shots {gap_last:+.3f} >= {gap_first:+.3f}")

    # A separate naive Bayes reproduces the random condition's cells.
    provider = FixtureAnnotationProvider()
    lemma_cache: dict[str, list[str]] = {}

    def lemmas(text):
        if text not in lemma_cache:
            lemma_cache[text] = [t.lemma for t in provider.annotate(text).tokens]
        return lemma_cache[text]

    pool = list(dataset.examples)
    test = [(ex.sentence.raw, ex.label) for ex in dataset.holdout]
    for seed in seeds:
        order = list(range(len(pool)))
        random.Random(seed).shuffle(order)
        for shot in (first, last):
            train = [(pool[i].sentence.raw, pool[i].label) for i in order[:shot]]
            want = _nb_macro_f1(train, test, dataset.label_set, lemmas)
            got = scores["random", shot][seed]
            require(f"{want:.6f}" == f"{got:.6f}",
                    f"random@{shot} seed {seed}: macro-F1 {got} but reference NB gives {want:.6f}")

    ablation = read_csv(os.path.join(out, "ablation_results.csv"))
    arms = Counter(r["condition"] for r in ablation)
    require(set(arms) == set(ABLATION_ARMS)
            and all(n == len(shots) * len(seeds) for n in arms.values())
            and all(r["macro_f1"] != "" for r in ablation),
            f"ablation covers {dict(arms)}, want all of {ABLATION_ARMS}")

    with open(os.path.join(out, "report.md"), encoding="utf-8") as fh:
        report = fh.read()
    for condition in conditions:
        require(f"\n| {condition} " in report, f"report.md has no row for {condition}")
