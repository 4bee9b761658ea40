"""Per-layer tracing of the patvar modules, from outside the program.

`Tracer.install()` replaces the public functions and methods listed in
TRACED with timing wrappers. A function imported by name into other modules
is replaced in every patvar module that holds it, so `match_sentence` is
traced when `synthesis`, `generation`, `filtering` or `cli` call it.

Spans are aggregated by (name, parent) into a call count, total time and
self time (total minus the time of traced calls made inside), never one
record per call: `learn` makes about 1.3 M matcher calls per round.
`layer_metrics` turns one round's spans and counters into the per-layer
metrics of LAYER_UNITS.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

from patvar import config, filtering, gateway, generation, learning, patterns, synthesis
from patvar.fixtures import FixtureAnnotationProvider

# span name -> (object that defines it, attribute)
TRACED = {
    "config.ingest": (config, "ingest"),
    "annotation.annotate": (FixtureAnnotationProvider, "annotate"),
    "patterns.match_sentence": (patterns, "match_sentence"),
    "patterns.find_matches": (patterns, "find_matches"),
    "synthesis.synthesize_patterns": (synthesis, "synthesize_patterns"),
    "synthesis.enumerate_candidates": (synthesis, "enumerate_candidates"),
    "gateway.complete": (gateway.Gateway, "complete"),
    "gateway.send": (gateway.MockBackend, "send"),
    "generation.build_task": (generation, "build_task"),
    "generation.generate_candidate_phrases": (generation, "generate_candidate_phrases"),
    "generation.generate_counterfactual": (generation, "generate_counterfactual"),
    "generation.generate_without_vt": (generation, "generate_without_vt"),
    "filtering.run_pipeline": (filtering, "run_pipeline"),
    "filtering.heuristic_filter": (filtering, "heuristic_filter"),
    "filtering.symbolic_filter": (filtering, "symbolic_filter"),
    "filtering.discriminator_filter": (filtering, "discriminator_filter"),
    "learning.run_simulation": (learning, "run_simulation"),
    "learning.train": (learning.NaiveBayesClassifier, "train"),
    "learning.predict": (learning.NaiveBayesClassifier, "predict"),
    "learning.kmeans": (learning, "kmeans"),
    "learning.select_uncertainty": (learning, "select_uncertainty"),
}

LAYER_UNITS = {
    "cli.synth_s": "s", "cli.gen_s": "s", "cli.filter_s": "s",
    "cli.simulate_s": "s", "cli.ablate_s": "s", "cli.report_s": "s",
    "config.ingest_calls": "count", "config.ingest_busy_s": "s",
    "annotation.calls": "count", "annotation.distinct_texts": "count",
    "annotation.useful_ratio": "ratio", "annotation.busy_s": "s",
    "patterns.match_calls": "count", "patterns.match_busy_s": "s",
    "patterns.match_per_s": "1/s", "patterns.find_calls": "count",
    "patterns.find_busy_s": "s",
    "synthesis.label_s": "s", "synthesis.candidates": "count",
    "gateway.requests": "count", "gateway.hits": "count", "gateway.misses": "count",
    "gateway.hit_ratio": "ratio", "gateway.hit_s": "s", "gateway.miss_s": "s",
    "gateway.backend_calls": "count", "gateway.retries": "count",
    "gateway.cache_files": "count", "gateway.cache_mb": "MB",
    "generation.tasks": "count", "generation.phrases_busy_s": "s",
    "generation.counterfactuals": "count", "generation.skipped": "count",
    "generation.yield_ratio": "ratio",
    "filtering.candidates": "count", "filtering.survivors": "count",
    "filtering.survival_ratio": "ratio",
    "filtering.heuristic_busy_s": "s", "filtering.symbolic_busy_s": "s",
    "filtering.discriminator_busy_s": "s",
    "filtering.heuristic_rejected": "count", "filtering.symbolic_rejected": "count",
    "filtering.discriminator_rejected": "count",
    "learning.cells": "count", "learning.cells_missing": "count",
    "learning.train_calls": "count", "learning.train_busy_s": "s",
    "learning.predict_calls": "count", "learning.predict_busy_s": "s",
    "learning.kmeans_busy_s": "s", "learning.uncertainty_busy_s": "s",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [span name, time spent in traced children]
        self._restore: list[tuple[object, str, object]] = []
        self.total: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: dict[tuple[str, str | None], list] = {}
        self.start_round()

    def start_round(self) -> None:
        """Fold the last round into `total` and start counting afresh."""
        for key, (count, busy, own) in self.spans.items():
            agg = self.total[key]
            agg[0] += count
            agg[1] += busy
            agg[2] += own
        self.spans = {}
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, int] = defaultdict(int)
        self.texts: set[str] = set()

    def wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[name + ":raised"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (name, parent[0] if parent else None)
                rec = self.spans.get(key)
                if rec is None:
                    rec = self.spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if observe is not None:
                observe(self, args, result, elapsed)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "patvar" or n.startswith("patvar."))]
        for name, (owner, attr) in TRACED.items():
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, traced)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def count(self, name: str) -> int:
        return sum(rec[0] for (n, parent), rec in self.spans.items() if n == name)

    def busy(self, name: str) -> float:
        # Skip a span's calls from inside itself, so recursion is not counted twice.
        return sum(rec[1] for (n, parent), rec in self.spans.items()
                   if n == name and parent != name)

    def write_spans(self, path: str, walls: list[float]) -> None:
        self.start_round()
        spans = [
            {"name": name, "parent": parent, "count": count, "total_s": busy, "self_s": own}
            for (name, parent), (count, busy, own) in sorted(
                self.total.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rounds": len(walls), "traced_wall_s": walls, "spans": spans},
                      fh, indent=1)
            fh.write("\n")


# -- what each span's result tells -------------------------------------------


def _annotate(t, args, result, elapsed):
    t.texts.add(args[1])


def _enumerate(t, args, result, elapsed):
    t.counters["candidates"] += len(result)


def _synthesize(t, args, result, elapsed):
    t.durations["label"].append(elapsed)


def _complete(t, args, result, elapsed):
    kind = "hit" if result.from_cache else "miss"
    t.durations[kind].append(elapsed)


def _counterfactual(t, args, result, elapsed):
    t.counters["counterfactuals"] += 1


def _pipeline(t, args, result, elapsed):
    t.counters["candidates_in"] += len(args[0])
    t.counters["survivors"] += len(result[0])


def _stage(stage):
    def observe(t, args, result, elapsed):
        verdict = result[0] if isinstance(result, tuple) else result
        t.counters[f"{stage}_rejected"] += verdict.status == "failed"
    return observe


def _simulation(t, args, result, elapsed):
    t.counters["cells"] += len(args[1]) * len(args[3])
    t.counters["cells_missing"] += sum(
        1 for r in result for seed in r.seeds
        if all(r.scores[shot][seed] is None for shot in r.shots)
    )


_OBSERVERS = {
    "annotation.annotate": _annotate,
    "synthesis.enumerate_candidates": _enumerate,
    "synthesis.synthesize_patterns": _synthesize,
    "gateway.complete": _complete,
    "generation.generate_counterfactual": _counterfactual,
    "filtering.run_pipeline": _pipeline,
    "filtering.heuristic_filter": _stage("heuristic"),
    "filtering.symbolic_filter": _stage("symbolic"),
    "filtering.discriminator_filter": _stage("discriminator"),
    "learning.run_simulation": _simulation,
}


def _cache_size(cache_dir: str) -> tuple[int, int]:
    if not os.path.isdir(cache_dir):
        return 0, 0
    names = os.listdir(cache_dir)
    return len(names), sum(os.path.getsize(os.path.join(cache_dir, n)) for n in names)


def layer_metrics(t: Tracer, cache_dir: str) -> dict[str, float]:
    """The per-layer metrics of the round `t` has traced since start_round()."""
    c = t.counters
    annotate_calls = t.count("annotation.annotate")
    match_calls = t.count("patterns.match_sentence")
    match_busy = t.busy("patterns.match_sentence")
    hits, misses = len(t.durations["hit"]), len(t.durations["miss"])
    backend_calls = t.count("gateway.send")
    cache_files, cache_bytes = _cache_size(cache_dir)
    tasks = t.count("generation.build_task")
    planned = t.count("generation.generate_without_vt")
    metrics = {
        f"cli.{command}_s": t.busy(f"cli.{command}")
        for command in ("synth", "gen", "filter", "simulate", "ablate", "report")
    }
    metrics.update({
        "config.ingest_calls": t.count("config.ingest"),
        "config.ingest_busy_s": t.busy("config.ingest"),
        "annotation.calls": annotate_calls,
        "annotation.distinct_texts": len(t.texts),
        "annotation.useful_ratio": _ratio(len(t.texts), annotate_calls),
        "annotation.busy_s": t.busy("annotation.annotate"),
        "patterns.match_calls": match_calls,
        "patterns.match_busy_s": match_busy,
        "patterns.match_per_s": _ratio(match_calls, match_busy),
        "patterns.find_calls": t.count("patterns.find_matches"),
        "patterns.find_busy_s": t.busy("patterns.find_matches"),
        "synthesis.label_s": _median(t.durations["label"]),
        "synthesis.candidates": c["candidates"],
        "gateway.requests": hits + misses,
        "gateway.hits": hits,
        "gateway.misses": misses,
        "gateway.hit_ratio": _ratio(hits, hits + misses),
        "gateway.hit_s": _median(t.durations["hit"]),
        "gateway.miss_s": _median(t.durations["miss"]),
        "gateway.backend_calls": backend_calls,
        "gateway.retries": max(backend_calls - misses, 0),
        "gateway.cache_files": cache_files,
        "gateway.cache_mb": cache_bytes / 1e6,
        "generation.tasks": tasks,
        "generation.phrases_busy_s": t.busy("generation.generate_candidate_phrases"),
        "generation.counterfactuals": c["counterfactuals"],
        # every planned target gets an unconstrained rewrite (cf_no_vt is on)
        "generation.skipped": planned - c["counterfactuals"],
        "generation.yield_ratio": _ratio(c["counterfactuals"], tasks),
        "filtering.candidates": c["candidates_in"],
        "filtering.survivors": c["survivors"],
        "filtering.survival_ratio": _ratio(c["survivors"], c["candidates_in"]),
        "learning.cells": c["cells"],
        "learning.cells_missing": c["cells_missing"],
        "learning.train_calls": t.count("learning.train"),
        "learning.train_busy_s": t.busy("learning.train"),
        "learning.predict_calls": t.count("learning.predict"),
        "learning.predict_busy_s": t.busy("learning.predict"),
        "learning.kmeans_busy_s": t.busy("learning.kmeans"),
        "learning.uncertainty_busy_s": t.busy("learning.select_uncertainty"),
    })
    for stage in ("heuristic", "symbolic", "discriminator"):
        name = f"filtering.{stage}_filter"
        metrics[f"filtering.{stage}_busy_s"] = t.busy(name)
        metrics[f"filtering.{stage}_rejected"] = c[f"{stage}_rejected"] + c[name + ":raised"]
    return metrics
