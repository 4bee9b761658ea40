"""Command-line entry point: synth, gen, filter, simulate, ablate, report.

Every command reads one YAML config, writes deterministic artifacts into the
output directory, and records them (with content hashes) in manifest.json.
Re-running a command against an unchanged cache and config rewrites
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys

from .config import (
    ExperimentConfig,
    build_gateway,
    build_lexicon,
    build_provider,
    ingest,
    load_config,
)
from .errors import ConfigError, PatvarError
from .filtering import FilterConfig, FilterDeps, QualityReport, run_pipeline
from .gateway import BackendError, CacheError
from .generation import (
    AllOthers,
    NoPatternMatch,
    NoValidPhrases,
    RandomTargets,
    RoundRobin,
    build_task,
    candidate_from_record,
    candidate_to_record,
    collect_soft_matches,
    default_target_policy,
    generate_candidate_phrases,
    generate_counterfactual,
    generate_without_vt,
    plan_targets,
)
from .learning import (
    CONDITIONS,
    NaiveBayesClassifier,
    RunResult,
    ShotSchedule,
    SimulationDeps,
    paired_pvalues,
    run_simulation,
)
from .patterns import match_sentence, parse_pattern
from .reports import (
    read_results_csv,
    render_f1_grid,
    render_quality_table,
    results_from_rows,
    write_results_csv,
    write_summary_csv,
)
from .synthesis import NoViablePattern, synthesize_patterns

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Output bookkeeping
# ---------------------------------------------------------------------------


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _update_manifest(cfg: ExperimentConfig, config_path: str, command: str, outputs: list[str]) -> None:
    manifest_path = os.path.join(cfg.output_dir, "manifest.json")
    manifest = {}
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except ValueError:
            logger.warning("manifest was unreadable; rebuilding")
    manifest[command] = {
        "config_sha256": _sha256_file(config_path),
        "outputs": {os.path.basename(p): _sha256_file(p) for p in sorted(outputs)},
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=True, sort_keys=True) + "\n")


def _read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _dataset_name(cfg: ExperimentConfig) -> str:
    return os.path.splitext(os.path.basename(cfg.dataset.path))[0]


def _target_policy(cfg: ExperimentConfig, label_set):
    spec = cfg.target_policy
    if spec == "default":
        return default_target_policy(label_set, seed=cfg.seeds[0] if cfg.seeds else 0)
    if spec == "all_others":
        return AllOthers()
    kind, _, arg = spec.partition(":")
    if kind == "round_robin":
        return RoundRobin(int(arg or 1))
    if kind == "random":
        return RandomTargets(int(arg or 3), seed=cfg.seeds[0] if cfg.seeds else 0)
    raise ConfigError(f"unknown target_policy {spec!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: ExperimentConfig, config_path: str) -> int:
    provider = build_provider(cfg)
    lexicon = build_lexicon(cfg)
    gateway = build_gateway(cfg) if cfg.dataset.multi_label else None
    dataset = ingest(cfg.dataset, provider, gateway)
    payload = {"dataset": _dataset_name(cfg), "label_set": list(dataset.label_set), "patterns": {}}
    lines = []
    for label in dataset.label_set:
        positives = [ex for ex in dataset.examples if ex.label == label]
        negatives = [ex for ex in dataset.examples if ex.label != label]
        if not positives:
            logger.warning("label %r has no pool examples; skipping", label)
            payload["patterns"][label] = []
            continue
        syn_cfg = cfg.synthesis
        try:
            scored = synthesize_patterns(positives, negatives, syn_cfg, lexicon)
        except NoViablePattern:
            relaxed = dataclasses.replace(syn_cfg, min_precision=0.8)
            logger.warning("label %r: no pattern at precision %.2f; retrying at 0.8",
                           label, syn_cfg.min_precision)
            try:
                scored = synthesize_patterns(positives, negatives, relaxed, lexicon)
            except NoViablePattern:
                logger.warning("label %r: no viable pattern at all", label)
                scored = []
        payload["patterns"][label] = [
            {"pattern": sp.rendered, "precision": sp.precision, "recall": sp.recall, "f1": sp.f1,
             "covered": sorted(sp.matched_positive_ids)}
            for sp in scored
        ]
        lines.extend(f"{label}\t{sp.rendered}" for sp in scored)
    patterns_json = _out(cfg, "patterns.json")
    with open(patterns_json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    patterns_txt = _out(cfg, "patterns.txt")
    with open(patterns_txt, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    _update_manifest(cfg, config_path, "synth", [patterns_json, patterns_txt])
    print(f"synthesized patterns for {len(payload['patterns'])} labels -> {patterns_json}")
    return 0


def _load_patterns(cfg: ExperimentConfig) -> tuple[list[str], dict[str, list]]:
    path = _out(cfg, "patterns.json")
    if not os.path.exists(path):
        raise ConfigError(f"{path} not found; run `patvar synth` first")
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return payload["label_set"], {
        label: [parse_pattern(entry["pattern"]) for entry in entries]
        for label, entries in payload["patterns"].items()
    }


def cmd_gen(cfg: ExperimentConfig, config_path: str) -> int:
    provider = build_provider(cfg)
    lexicon = build_lexicon(cfg)
    gateway = build_gateway(cfg)
    dataset = ingest(cfg.dataset, provider, gateway if cfg.dataset.multi_label else None)
    label_set, patterns_by_label = _load_patterns(cfg)
    if len(label_set) < 2:
        raise ConfigError(f"need at least two labels to plan targets, got {label_set}")
    policy = _target_policy(cfg, label_set)
    want_no_vt = "cf_no_vt" in cfg.conditions
    vt_records, novt_records = [], []
    skipped = 0
    for ex in dataset.examples:
        patterns = patterns_by_label.get(ex.label, [])
        pattern = next((p for p in patterns if match_sentence(p, ex.sentence, lexicon)), None)
        for target in plan_targets(ex, label_set, policy):
            for j in range(cfg.per_target):
                if pattern is not None:
                    try:
                        task = build_task(ex.sentence, ex.label, target, pattern, lexicon)
                        phrases = generate_candidate_phrases(
                            task, collect_soft_matches(task, lexicon), gateway, provider, lexicon
                        )
                        cand = generate_counterfactual(
                            task, phrases, gateway, uid=f"{ex.sentence.id}:{target}:{j}"
                        )
                        vt_records.append(candidate_to_record(cand))
                    except (NoValidPhrases, NoPatternMatch) as exc:
                        logger.warning("skipping %s -> %s: %s", ex.sentence.id, target, exc)
                        skipped += 1
                else:
                    skipped += 1
                if want_no_vt:
                    cand = generate_without_vt(
                        ex.sentence, ex.label, target, gateway,
                        uid=f"{ex.sentence.id}:{target}:novt:{j}",
                    )
                    novt_records.append(candidate_to_record(cand))
    outputs = []
    vt_path = _out(cfg, "candidates_vt.jsonl")
    _write_jsonl(vt_path, vt_records)
    outputs.append(vt_path)
    if want_no_vt:
        novt_path = _out(cfg, "candidates_novt.jsonl")
        _write_jsonl(novt_path, novt_records)
        outputs.append(novt_path)
    _update_manifest(cfg, config_path, "gen", outputs)
    print(f"generated {len(vt_records)} pattern-kept candidates "
          f"(+{len(novt_records)} unconstrained, {skipped} skipped)")
    return 0


def _filter_candidates(cfg, name, filter_cfg, deps) -> tuple[list, QualityReport, list[str]]:
    path = _out(cfg, f"candidates_{name}.jsonl")
    if not os.path.exists(path):
        return [], None, []
    candidates = [candidate_from_record(r) for r in _read_jsonl(path)]
    audit_records = []
    deps.audit_sink = audit_records.append
    survivors, report = run_pipeline(candidates, filter_cfg, deps)
    survivors_path = _out(cfg, f"survivors_{name}.jsonl")
    _write_jsonl(survivors_path, [candidate_to_record(c) for c in survivors])
    audit_path = _out(cfg, f"audit_{name}.jsonl")
    _write_jsonl(audit_path, audit_records)
    return survivors, report, [survivors_path, audit_path]


def cmd_filter(cfg: ExperimentConfig, config_path: str) -> int:
    provider = build_provider(cfg)
    lexicon = build_lexicon(cfg)
    gateway = build_gateway(cfg)
    label_set, _ = _load_patterns(cfg)
    deps = FilterDeps(lex=lexicon, provider=provider, gateway=gateway, label_set=label_set)
    outputs = []
    quality = {"dataset": _dataset_name(cfg)}
    vt_survivors, vt_report, paths = _filter_candidates(cfg, "vt", cfg.filters, deps)
    outputs.extend(paths)
    if vt_report is not None:
        quality["vt"] = vt_report.as_dict()
    novt_survivors, novt_report, paths = _filter_candidates(cfg, "novt", cfg.filters, deps)
    outputs.extend(paths)
    if novt_report is not None:
        quality["no_vt"] = novt_report.as_dict()
    quality_path = _out(cfg, "quality_report.json")
    with open(quality_path, "w", encoding="utf-8") as fh:
        json.dump(quality, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(quality_path)
    _update_manifest(cfg, config_path, "filter", outputs)
    vt_n = len(vt_survivors)
    print(f"filter kept {vt_n} pattern-kept survivors"
          + (f" and {len(novt_survivors)} unconstrained" if novt_report else ""))
    if vt_report is not None:
        print(f"quality: pkr={vt_report.pkr} slfr={vt_report.slfr} lfr={vt_report.lfr}")
    return 0


def _survivors_index(records) -> dict[str, list[tuple[str, str]]]:
    index: dict[str, list[tuple[str, str]]] = {}
    for rec in records:
        index.setdefault(rec["original"]["id"], []).append(
            (rec["generated_text"], rec["target_label"])
        )
    return index


def _simulation_pieces(cfg: ExperimentConfig):
    provider = build_provider(cfg)
    dataset = ingest(
        cfg.dataset, provider, build_gateway(cfg) if cfg.dataset.multi_label else None
    )

    def clf_factory(seed: int):
        return NaiveBayesClassifier(dataset.label_set, provider, seed)

    return provider, dataset, clf_factory


def cmd_simulate(cfg: ExperimentConfig, config_path: str) -> int:
    provider, dataset, clf_factory = _simulation_pieces(cfg)
    augment_index = {}
    for condition, name in (("counterfactual", "vt"), ("cf_no_vt", "novt")):
        path = _out(cfg, f"survivors_{name}.jsonl")
        if condition in cfg.conditions:
            if not os.path.exists(path):
                raise ConfigError(f"{path} not found; run `patvar gen` and `patvar filter` first")
            augment_index[condition] = _survivors_index(_read_jsonl(path))
    deps = SimulationDeps(provider=provider, augment_index=augment_index)
    results = run_simulation(
        dataset, list(cfg.conditions), ShotSchedule(cfg.shots), list(cfg.seeds), clf_factory, deps
    )
    name = _dataset_name(cfg)
    results_path = _out(cfg, "results.csv")
    write_results_csv(results_path, results, name)
    summary_path = _out(cfg, "summary.csv")
    write_summary_csv(summary_path, results, name)
    _update_manifest(cfg, config_path, "simulate", [results_path, summary_path])
    failed = []
    for r in results:
        first = r.shots[0]
        missing = sum(r.scores[first][seed] is None for seed in r.seeds)
        if r.mean[first] is None:
            failed.append(r.condition)
            line = f"{r.condition}: F1@{first} = n/a"
        else:
            line = f"{r.condition}: F1@{first} = {r.mean[first]:.3f} (sd {r.sd[first]:.3f})"
        print(line + (f" ({missing} of {len(r.seeds)} cells missing)" if missing else ""))
    if failed:
        print(f"data error: every cell of {', '.join(failed)} failed", file=sys.stderr)
        return 4
    return 0


def cmd_ablate(cfg: ExperimentConfig, config_path: str) -> int:
    provider, dataset, clf_factory = _simulation_pieces(cfg)
    lexicon = build_lexicon(cfg)
    gateway = build_gateway(cfg)
    label_set, _ = _load_patterns(cfg)
    cand_path = _out(cfg, "candidates_vt.jsonl")
    if not os.path.exists(cand_path):
        raise ConfigError(f"{cand_path} not found; run `patvar gen` first")
    candidates = [candidate_from_record(r) for r in _read_jsonl(cand_path)]
    per_arm: list[RunResult] = []
    for arm in FilterConfig.ARMS:
        deps = FilterDeps(lex=lexicon, provider=provider, gateway=gateway, label_set=label_set)
        survivors, _report = run_pipeline(candidates, FilterConfig.from_arm(arm), deps)
        index = _survivors_index([candidate_to_record(c) for c in survivors])
        sim_deps = SimulationDeps(provider=provider, augment_index={"counterfactual": index})
        result = run_simulation(
            dataset, ["counterfactual"], ShotSchedule(cfg.shots), list(cfg.seeds),
            clf_factory, sim_deps,
        )[0]
        per_arm.append(dataclasses.replace(result, condition=arm))
    finished = paired_pvalues(per_arm, "all")
    name = _dataset_name(cfg)
    results_path = _out(cfg, "ablation_results.csv")
    write_results_csv(results_path, finished, name)
    summary_path = _out(cfg, "ablation_summary.csv")
    write_summary_csv(summary_path, finished, name)
    md_path = _out(cfg, "ablation.md")
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(render_f1_grid(f"Filter ablation ({name})", finished))
    _update_manifest(cfg, config_path, "ablate", [results_path, summary_path, md_path])
    print(f"ablation over {len(FilterConfig.ARMS)} filter arms -> {summary_path}")
    return 0


def cmd_report(cfg: ExperimentConfig, config_path: str, quality_files=(), external=()) -> int:
    sections = []
    quality_tables: dict[str, dict] = {}
    default_quality = _out(cfg, "quality_report.json")
    candidates_files = list(quality_files) or (
        [default_quality] if os.path.exists(default_quality) else []
    )
    for path in candidates_files:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if "vt" in payload:  # produced by cmd_filter
            quality_tables[payload.get("dataset", os.path.basename(path))] = payload["vt"]
        else:  # plain {dataset: {pkr, slfr, lfr}} fixture
            quality_tables.update(payload)
    if quality_tables:
        sections.append("## Counterfactual quality\n\n" + render_quality_table(quality_tables))
    grid_rows = []
    results_path = _out(cfg, "results.csv")
    if os.path.exists(results_path):
        grid_rows.extend(read_results_csv(results_path))
    for path in external:
        grid_rows.extend(read_results_csv(path))
    if grid_rows:
        by_dataset: dict[str, list[dict]] = {}
        for row in grid_rows:
            by_dataset.setdefault(row["dataset"], []).append(row)
        for ds_name in sorted(by_dataset):
            results = sorted(results_from_rows(by_dataset[ds_name]), key=_condition_rank)
            sections.append(
                "## Macro F1 by annotation budget\n\n"
                + render_f1_grid(f"Macro F1 ({ds_name})", paired_pvalues(results, "counterfactual"))
            )
    if not sections:
        raise ConfigError("nothing to report: no quality report or results found")
    report_path = _out(cfg, "report.md")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("# Experiment report\n\n" + "\n".join(sections))
    _update_manifest(cfg, config_path, "report", [report_path])
    print(f"report -> {report_path}")
    return 0


def _condition_rank(r: RunResult):
    order = {c: i for i, c in enumerate(CONDITIONS)}
    return (order.get(r.condition, len(order)), r.condition)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "synth": cmd_synth,
    "gen": cmd_gen,
    "filter": cmd_filter,
    "simulate": cmd_simulate,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="patvar",
        description="Pattern-guided counterfactual augmentation for active learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*COMMANDS, "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment YAML")
        p.add_argument("--seed", type=int, default=None, help="run with this single seed")
        p.add_argument("--cache-dir", default=None, help="override cache directory")
        p.add_argument("--out", default=None, help="override output directory")
        if name == "report":
            p.add_argument("--quality", action="append", default=[],
                           help="quality report JSON (repeatable)")
            p.add_argument("--external", action="append", default=[],
                           help="external results CSV in the standard schema (repeatable)")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seeds=(args.seed,))
        if args.cache_dir is not None:
            cfg = dataclasses.replace(cfg, cache_dir=args.cache_dir)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        if args.command == "report":
            return cmd_report(cfg, args.config, args.quality, args.external)
        return COMMANDS[args.command](cfg, args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BackendError, CacheError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except PatvarError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
