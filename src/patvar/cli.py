"""Command-line entry point: synth, gen, filter, simulate, ablate, report.

Every command reads one YAML config, writes deterministic artifacts into the
output directory, and records them (with content hashes) in manifest.json.
Re-running a command against an unchanged cache and config rewrites
byte-identical outputs. Only `simulate` and `ablate` import `learning`, and
with it numpy, inside the command.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import os
import sys

from .annotation import Annotator, SynonymLexicon
from .config import (
    ExperimentConfig,
    build_gateway,
    build_lexicon,
    build_provider,
    ingest,
    load_config,
)
from .errors import ConfigError, PatvarError, in_file, read_jsonl
from .experiment import CONDITIONS, Dataset, RunResult, ShotSchedule, paired_pvalues
from .filtering import rows_from_audit, run_pipeline, survivors_by_arm
from .gateway import BackendError, CacheError, Gateway
from .generation import (
    build_task,
    candidate_fields,
    candidates_from_records,
    collect_soft_matches,
    generate_candidate_phrases,
    generate_counterfactual,
    generate_without_vt,
    plan_targets,
)
from .patterns import PatternSyntaxError, find_matches, parse_pattern, render_pattern
from .reports import (
    read_quality_json,
    read_results_csv,
    render_f1_grid,
    render_quality_table,
    results_from_rows,
    write_results_csv,
    write_summary_csv,
)
from .synthesis import pack, synthesize_patterns

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# The command context and its outputs
# ---------------------------------------------------------------------------


class Context:
    """One command's config, the pieces built from it on first use (through
    this module's `build_*` and `ingest` names), and the outputs it writes,
    which `main` records in manifest.json once the command returns."""

    def __init__(self, cfg: ExperimentConfig, config_path: str):
        self.cfg = cfg
        self.config_path = config_path
        self.outputs: list[str] = []

    @functools.cached_property
    def provider(self) -> Annotator:
        return build_provider(self.cfg)

    @functools.cached_property
    def lexicon(self) -> SynonymLexicon:
        return build_lexicon(self.cfg)

    @functools.cached_property
    def gateway(self) -> Gateway:
        return build_gateway(self.cfg)

    @functools.cached_property
    def dataset(self) -> Dataset:
        """The dataset; multi-labeled rows are separated by the gateway."""
        spec = self.cfg.dataset
        with in_file(spec.path):
            return ingest(spec, self.provider, self.gateway if spec.multi_label else None)

    @property
    def dataset_name(self) -> str:
        return os.path.splitext(os.path.basename(self.cfg.dataset.path))[0]

    def close(self) -> None:
        """Close the gateway's cache files, if the command built a gateway."""
        if "gateway" in vars(self):
            self.gateway.close()

    def path(self, name: str) -> str:
        """The path of `name` in the output directory."""
        return os.path.join(self.cfg.output_dir, name)

    def output(self, name: str) -> str:
        """The path of output `name`, recorded as written by this command."""
        try:
            os.makedirs(self.cfg.output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory {self.cfg.output_dir}: "
                              f"{exc.strerror}") from None
        self.outputs.append(self.path(name))
        return self.outputs[-1]


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _update_manifest(ctx: Context, command: str) -> None:
    manifest_path = ctx.path("manifest.json")
    manifest = {}
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except ValueError:
            logger.warning("manifest was unreadable; rebuilding")
        if not isinstance(manifest, dict):
            logger.warning("manifest was not a JSON object; rebuilding")
            manifest = {}
    manifest[command] = {
        "config_sha256": _sha256_file(ctx.config_path),
        "outputs": {os.path.basename(p): _sha256_file(p) for p in sorted(ctx.outputs)},
    }
    _write_json(manifest_path, manifest)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_lines(path, lines) -> None:
    """Write each line as it comes; a file's text is never held whole."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_candidates(path, candidates) -> None:
    encoded: dict = {}
    _write_lines(path, ("{" + candidate_fields(c, encoded) + "}" for c in candidates))


def _read_candidates(ctx: Context, name: str, writer: str, reader=candidates_from_records) -> list:
    """The candidates of output `name`, a candidates or survivors file (an audit
    file's rows with `rows_from_audit`), joined to the pool by `original_id`;
    ConfigError naming the file if it is missing, or the line of a bad record."""
    path = ctx.path(name)
    if not os.path.exists(path):
        raise ConfigError(f"{path} not found; run {writer} first")
    with in_file(path):
        return reader(read_jsonl(path), ctx.dataset)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(ctx: Context) -> None:
    patterns_json, patterns_txt = ctx.output("patterns.json"), ctx.output("patterns.txt")
    cfg, lexicon, dataset = ctx.cfg, ctx.lexicon, ctx.dataset
    payload = {"dataset": ctx.dataset_name, "label_set": list(dataset.label_set), "patterns": {}}
    lines, pool = [], pack(dataset.examples)
    for label in dataset.label_set:
        scored = synthesize_patterns(pool, label, cfg.synthesis, lexicon)
        payload["patterns"][label] = [
            {"pattern": sp.rendered, "precision": sp.precision, "recall": sp.recall, "f1": sp.f1,
             "covered": sorted(sp.matched_positive_ids)}
            for sp in scored
        ]
        lines.extend(f"{label}\t{sp.rendered}" for sp in scored)
    _write_json(patterns_json, payload)
    with open(patterns_txt, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    print(f"synthesized patterns for {len(payload['patterns'])} labels -> {patterns_json}")


def _load_patterns(ctx: Context) -> dict[str, list]:
    """The patterns of patterns.json by label; ConfigError unless the dataset
    has two labels or more and the file was synthesized for its label set."""
    label_set = ctx.dataset.label_set
    if len(label_set) < 2:
        raise ConfigError(f"need at least two labels, the dataset has {list(label_set)}")
    path = ctx.path("patterns.json")
    if not os.path.exists(path):
        raise ConfigError(f"{path} not found; run `patvar synth` first")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        labels = payload["label_set"]
        texts = {label: [entry["pattern"] for entry in entries]
                 for label, entries in payload["patterns"].items()}
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path} is not a patterns file of `patvar synth` ({exc!r})") from None
    if not isinstance(labels, list) or not all(
        isinstance(item, str) for item in [*labels, *(t for ts in texts.values() for t in ts)]
    ):
        raise ConfigError(f"{path}: labels and patterns must be strings")
    if set(labels) != set(label_set):
        raise ConfigError(f"{path} is for the labels {labels}, not the dataset's "
                          f"{list(label_set)}; run `patvar synth` again")
    missing, extra = sorted(set(label_set) - set(texts)), sorted(set(texts) - set(label_set))
    if missing or extra:
        raise ConfigError(f"{path} misses the patterns of the labels {missing} and has extra "
                          f"ones for {extra}; run `patvar synth` again")
    patterns = {}
    for label, ts in texts.items():
        try:
            patterns[label] = [parse_pattern(t) for t in ts]
        except PatternSyntaxError as exc:
            raise ConfigError(f"{path}: a pattern of the label {label!r} does not parse "
                              f"({exc})") from None
    return patterns


def _wants_novt(ctx: Context) -> bool:
    """Whether `gen` writes, and `filter` reads, the `novt` set: some condition trains on it."""
    return any(CONDITIONS[c][1] == "novt" for c in ctx.cfg.conditions)


def cmd_gen(ctx: Context) -> None:
    """Write one phrase-anchored candidate per task and, when a condition
    trains on them, one unconstrained rewrite per planned target.

    An example's tasks are anchored on one span, found once: the leftmost
    match of the first of its label's patterns that matches it. Each distinct
    phrase question (pattern, matched phrase, label, target label and soft
    matches: all that the phrase request and the phrase check read) is asked
    and checked once per command; the tasks that share it share its verified
    phrases, none if no phrase verified. So a "dropping phrase" warning is
    logged once per distinct question, not once per task; a task whose
    question has no phrase is skipped with a warning."""
    patterns_by_label = _load_patterns(ctx)
    cfg, provider, lexicon, gateway = ctx.cfg, ctx.provider, ctx.lexicon, ctx.gateway
    dataset, want_no_vt = ctx.dataset, _wants_novt(ctx)
    vt_candidates, novt_candidates = [], []
    skipped = 0
    answers: dict[tuple, tuple[str, ...]] = {}  # phrase question -> verified phrases
    for ex in dataset.examples:
        span = None
        for pattern in patterns_by_label.get(ex.label, []):
            span = find_matches(pattern, ex.sentence, lexicon)
            if span is not None:
                soft_matches = collect_soft_matches(pattern, span, ex.sentence, lexicon)
                break
        for target in plan_targets(ex, dataset.label_set, cfg.dataset.split_seed):
            if span is not None:
                task = build_task(ex.sentence, ex.label, target, pattern, span)
                question = (pattern, task.matched_phrase, ex.label, target, soft_matches)
                phrases = answers.get(question)
                if phrases is None:
                    phrases = answers[question] = generate_candidate_phrases(
                        task, soft_matches, gateway, provider, lexicon)
                if phrases:
                    vt_candidates.append(generate_counterfactual(
                        task, phrases, gateway, uid=f"{ex.sentence.id}:{target}:0"))
                else:
                    logger.warning("skipping %s -> %s: no returned phrase matches %r",
                                   ex.sentence.id, target, render_pattern(pattern))
                    skipped += 1
            else:
                skipped += 1
            if want_no_vt:
                novt_candidates.append(generate_without_vt(ex.sentence, ex.label, target, gateway,
                                                           uid=f"{ex.sentence.id}:{target}:novt:0"))
    _write_candidates(ctx.output("candidates_vt.jsonl"), vt_candidates)
    if want_no_vt:
        _write_candidates(ctx.output("candidates_novt.jsonl"), novt_candidates)
    print(f"generated {len(vt_candidates)} pattern-kept candidates "
          f"(+{len(novt_candidates)} unconstrained, {skipped} skipped)")


def _filter_candidates(ctx: Context, name: str):
    candidates = _read_candidates(ctx, f"candidates_{name}.jsonl", "`patvar gen`")
    survivors, report, rows = run_pipeline(candidates, ctx.dataset.label_set, ctx.lexicon,
                                           ctx.provider, ctx.gateway)
    encoded: dict = {}
    lines = [row.line(encoded) for row in rows]
    _write_lines(ctx.output(f"survivors_{name}.jsonl"),
                 (line for line, row in zip(lines, rows) if row.survived))
    _write_lines(ctx.output(f"audit_{name}.jsonl"), lines)
    print(f"filter kept {len(survivors)} of {len(rows)} {name} candidates: "
          f"pkr={report.pkr} slfr={report.slfr} lfr={report.lfr}")
    return report


def cmd_filter(ctx: Context) -> None:
    quality = {"dataset": ctx.dataset_name, "vt": dataclasses.asdict(_filter_candidates(ctx, "vt"))}
    if _wants_novt(ctx):
        quality["no_vt"] = dataclasses.asdict(_filter_candidates(ctx, "novt"))
    _write_json(ctx.output("quality_report.json"), quality)


def _survivors_index(arms, provider: Annotator) -> dict[str, tuple[str, dict]]:
    """Each arm of `arms`, a name -> (order, survivors) mapping, as (order,
    index): each survivor's annotated text and target label, indexed by its
    original's id."""
    indexed = {}
    for name, (order, survivors) in arms.items():
        index: dict[str, list] = {}
        for c in survivors:
            index.setdefault(c.task.original.id, []).append(
                (provider.annotate(c.generated_text), c.task.target_label))
        indexed[name] = (order, index)
    return indexed


def _run_grid(ctx: Context, read_arms, reference: str, prefix: str) -> list[RunResult]:
    """Check the shots and the holdout, which scores them, before any survivors are
    read, then simulate each arm of `read_arms()`, a name -> (order, survivors)
    mapping; pair the results against `reference`, write `<prefix>results.csv` and
    `<prefix>summary.csv`, print each arm's first shot and return the results."""
    from .learning import run_simulation

    if not ctx.dataset.holdout:
        raise ConfigError(f"dataset.holdout_fraction {ctx.cfg.dataset.holdout_fraction} "
                          "leaves the holdout empty")
    schedule = ShotSchedule(ctx.cfg.shots)
    try:
        schedule.validate_against(len(ctx.dataset.examples))
    except ValueError as exc:
        raise ConfigError(f"bad shots: {exc}") from None
    arms = _survivors_index(read_arms(), ctx.provider)
    results = paired_pvalues(
        run_simulation(ctx.dataset, arms, schedule, list(ctx.cfg.seeds)), reference)
    write_results_csv(ctx.output(f"{prefix}results.csv"), results, ctx.dataset_name)
    write_summary_csv(ctx.output(f"{prefix}summary.csv"), results, ctx.dataset_name, reference)
    for r in results:
        first = r.shots[0]
        print(f"{r.condition}: F1@{first} = {r.mean[first]:.3f} (sd {r.sd[first]:.3f})")
    return results


def cmd_simulate(ctx: Context) -> None:
    def read_arms():
        arms = {c: CONDITIONS[c] for c in ctx.cfg.conditions}
        return {c: (order, _read_candidates(ctx, f"survivors_{file}.jsonl",
                                            "`patvar gen` and `patvar filter`") if file else [])
                for c, (order, file) in arms.items()}

    _run_grid(ctx, read_arms, "counterfactual", "")


def cmd_ablate(ctx: Context) -> None:
    def read_arms():
        audit = _read_candidates(ctx, "audit_vt.jsonl", "`patvar filter`", rows_from_audit)
        return {arm: ("random", survivors) for arm, survivors in survivors_by_arm(audit).items()}

    results = _run_grid(ctx, read_arms, "all", "ablation_")
    with open(ctx.output("ablation.md"), "w", encoding="utf-8") as fh:
        fh.write(render_f1_grid(f"Filter ablation ({ctx.dataset_name})", results))


def cmd_report(ctx: Context, quality_files=(), external=()) -> None:
    sections = []
    quality_tables: dict[str, dict] = {}
    default_quality = ctx.path("quality_report.json")
    candidates_files = list(quality_files) or (
        [default_quality] if os.path.exists(default_quality) else []
    )
    quality_source: dict[str, str] = {}  # dataset -> quality file it came from
    for path in candidates_files:
        for ds_name, table in read_quality_json(path).items():
            if ds_name in quality_tables:
                raise ConfigError(f"quality of dataset {ds_name} in {path} is already in "
                                  f"{quality_source[ds_name]}")
            quality_tables[ds_name], quality_source[ds_name] = table, path
    if quality_tables:
        sections.append("## Counterfactual quality\n\n" + render_quality_table(quality_tables))
    by_dataset: dict[str, list[dict]] = {}
    source: dict[tuple, str] = {}  # (dataset, condition, shot, seed) -> file it came from
    results_path = ctx.path("results.csv")
    for path in ([results_path] if os.path.exists(results_path) else []) + list(external):
        for row in read_results_csv(path):
            cell = (row["dataset"], row["condition"], row["shot"], row["seed"])
            if cell in source:
                raise ConfigError("cell dataset={} condition={} shot={} seed={} of {} is "
                                  "already in {}".format(*cell, path, source[cell]))
            source[cell] = path
            by_dataset.setdefault(row["dataset"], []).append(row)
    rank = {c: i for i, c in enumerate(CONDITIONS)}  # the table's order, then other names
    for ds_name in sorted(by_dataset):
        results = sorted(results_from_rows(by_dataset[ds_name]),
                         key=lambda r: (rank.get(r.condition, len(rank)), r.condition))
        sections.append(
            "## Macro F1 by annotation budget\n\n"
            + render_f1_grid(f"Macro F1 ({ds_name})", paired_pvalues(results, "counterfactual"))
        )
    if not sections:
        raise ConfigError("nothing to report: no quality report or results found")
    report_path = ctx.output("report.md")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("# Experiment report\n\n" + "\n".join(sections))
    print(f"report -> {report_path}")


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
        ctx = Context(cfg, args.config)
        try:
            if args.command == "report":
                cmd_report(ctx, args.quality, args.external)
            else:
                COMMANDS[args.command](ctx)
        finally:
            ctx.close()
        _update_manifest(ctx, args.command)
        return 0
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
