"""Markdown and CSV renderers for quality reports and macro-F1 grids.

Layouts mirror the published tables: the quality table has the three rates
as rows and datasets as columns; F1 grids have methods as rows, shots as
columns, cells as `mean (sd)` with the best mean per column in bold and
significance stars appended. All formatting is deterministic so re-rendered
reports are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, utf8_lines
from .experiment import RunResult, summarize

QUALITY_ROWS = (
    ("pkr", "Pattern Keeping Rate"),
    ("slfr", "Soft Label Flip Rate"),
    ("lfr", "Label Flip Rate"),
)

STAR_THRESHOLDS = ((0.0001, "***"), (0.01, "**"), (0.05, "*"), (0.1, "+"))


def significance_stars(p: float | None) -> str:
    if p is None:
        return ""
    for threshold, stars in STAR_THRESHOLDS:
        if p < threshold:
            return stars
    return ""


def _fmt_rate(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _fmt_mean(value: float) -> str:
    # paper-style ".55" / "(.08)" cells
    text = f"{value:.2f}"
    return text[1:] if text.startswith("0.") else text


def _markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(str(cell)) for cell in col) for col in zip(header, *rows)]
    def line(cells):
        return "| " + " | ".join(str(c).ljust(w) for c, w in zip(cells, widths)) + " |"
    sep = "| " + " | ".join("-" * w for w in widths) + " |"
    return "\n".join([line(header), sep, *[line(r) for r in rows]]) + "\n"


def read_quality_json(path) -> dict[str, Mapping[str, float | None]]:
    """Rates by dataset from `filter`'s quality_report.json or a plain
    `{dataset: {pkr, slfr, lfr}}` file; ConfigError names a malformed file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"quality file {path}: {exc}") from None
    if isinstance(payload, dict) and "vt" in payload:  # produced by cmd_filter
        payload = {str(payload.get("dataset", os.path.basename(path))): payload["vt"]}
    if not isinstance(payload, dict) or not all(
        isinstance(rates, dict)
        and all(type(rates.get(key)) in (int, float, type(None)) for key, _ in QUALITY_ROWS)
        for rates in payload.values()
    ):
        raise ConfigError(f"quality file {path} is not {{dataset: {{pkr, slfr, lfr}}}}")
    return payload


def render_quality_table(per_dataset: Mapping[str, Mapping[str, float | None]]) -> str:
    """Quality rates table: one column per dataset, one row per rate."""
    datasets = list(per_dataset)
    header = ["", *datasets]
    rows = []
    for key, title in QUALITY_ROWS:
        rows.append([title, *[_fmt_rate(per_dataset[d].get(key)) for d in datasets]])
    return _markdown_table(header, rows)


def render_f1_grid(title: str, results: Sequence[RunResult]) -> str:
    """Macro-F1 grid: methods as rows, the union of their shots as columns,
    bold best per column; a shot a method lacks renders as n/a."""
    if not results:
        return f"**{title}**\n\n(no results)\n"
    shots = sorted({shot for r in results for shot in r.shots})
    best_per_shot = {shot: max(r.mean[shot] for r in results if shot in r.mean) for shot in shots}
    header = ["Method", *[str(s) for s in shots]]
    rows = []
    for r in results:
        cells = [r.condition]
        for shot in shots:
            if shot not in r.mean:
                cells.append("n/a")
                continue
            m = r.mean[shot]
            body = f"{_fmt_mean(m)} ({_fmt_mean(r.sd[shot])})"
            if m == best_per_shot[shot]:
                body = f"**{body}**"
            stars = significance_stars(r.p_vs_reference.get(shot))
            cells.append(f"{body} {stars}".rstrip())
        rows.append(cells)
    return f"**{title}**\n\n" + _markdown_table(header, rows)


# ---------------------------------------------------------------------------
# CSV results files
# ---------------------------------------------------------------------------

RESULTS_FIELDS = ("condition", "dataset", "shot", "seed", "macro_f1")


def write_results_csv(path, results: Sequence[RunResult], dataset_name: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_FIELDS)
        for r in results:
            for shot in r.shots:
                for seed in r.seeds:
                    writer.writerow([
                        r.condition, dataset_name, shot, seed, f"{r.scores[shot][seed]:.6f}",
                    ])


def write_summary_csv(path, results: Sequence[RunResult], dataset_name: str, reference: str) -> None:
    """Per-shot mean, SD and p-value of each result; the p column is named
    after the `reference` condition the results were paired against."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("condition", "dataset", "shot", "mean", "sd", f"p_vs_{reference}",
                         "significance"))
        for r in results:
            for shot in r.shots:
                p = r.p_vs_reference.get(shot)
                writer.writerow([
                    r.condition, dataset_name, shot,
                    f"{r.mean[shot]:.6f}",
                    f"{r.sd[shot]:.6f}",
                    "" if p is None else f"{p:.6g}",
                    significance_stars(p),
                ])


def read_results_csv(path) -> list[dict]:
    """Rows of the per-seed results schema; also used for external imports.

    `shot` and `seed` come back as int and `macro_f1` as a float in [0, 1].
    A file that cannot be read, a byte that is not UTF-8, a missing column or
    a bad value, an empty score among them, raises ConfigError naming the
    file (and the line, where there is one).
    """
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ConfigError(f"results file {path}: {exc.strerror}") from None
    with fh:
        reader = csv.DictReader(utf8_lines(fh, path))
        missing = set(RESULTS_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ConfigError(f"results file {path} lacks columns {sorted(missing)}")
        rows = []
        for row in reader:
            where = f"results file {path} line {reader.line_num}"
            if any(row[name] is None for name in RESULTS_FIELDS):
                raise ConfigError(f"{where}: fewer fields than the header")
            try:
                row["shot"], row["seed"] = int(row["shot"]), int(row["seed"])
                row["macro_f1"] = float(row["macro_f1"])
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            if not 0.0 <= row["macro_f1"] <= 1.0:
                raise ConfigError(f"{where}: macro_f1 {row['macro_f1']} is outside [0, 1]")
            rows.append(row)
        return rows


def results_from_rows(rows: Iterable[dict]) -> list[RunResult]:
    """Aggregate rows of `read_results_csv` back into RunResult grids (no p-values)."""
    by_condition: dict[str, dict[int, dict[int, float]]] = {}
    for row in rows:
        cells = by_condition.setdefault(row["condition"], {}).setdefault(row["shot"], {})
        cells[row["seed"]] = row["macro_f1"]
    return [
        summarize(cond, scores, sorted(scores), sorted({seed for c in scores.values() for seed in c}))
        for cond, scores in by_condition.items()
    ]
