"""Markdown and CSV renderers for quality reports and macro-F1 grids.

Layouts mirror the published tables: the quality table has the three rates
as rows and datasets as columns; F1 grids have methods as rows, shots as
columns, cells as `mean (sd)` with the best mean per column in bold and
significance stars appended. All formatting is deterministic so re-rendered
reports are byte-identical.
"""

from __future__ import annotations

import csv
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .learning import RunResult, summarize

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
    best_per_shot = {}
    for shot in shots:
        means = [m for r in results if (m := r.mean.get(shot)) is not None]
        best_per_shot[shot] = max(means) if means else None
    header = ["Method", *[str(s) for s in shots]]
    rows = []
    for r in results:
        cells = [r.condition]
        for shot in shots:
            m = r.mean.get(shot)
            if m is None:
                cells.append("n/a")
                continue
            body = f"{_fmt_mean(m)} ({_fmt_mean(r.sd[shot] or 0.0)})"
            if best_per_shot[shot] is not None and m == best_per_shot[shot]:
                body = f"**{body}**"
            stars = significance_stars(r.p_vs_reference.get(shot))
            cells.append(f"{body} {stars}".rstrip())
        rows.append(cells)
    return f"**{title}**\n\n" + _markdown_table(header, rows)


# ---------------------------------------------------------------------------
# CSV results files
# ---------------------------------------------------------------------------

RESULTS_FIELDS = ("condition", "dataset", "shot", "seed", "macro_f1")
SUMMARY_FIELDS = ("condition", "dataset", "shot", "mean", "sd", "p_vs_counterfactual", "significance")


def write_results_csv(path, results: Sequence[RunResult], dataset_name: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_FIELDS)
        for r in results:
            for shot in r.shots:
                for seed in r.seeds:
                    value = r.scores[shot][seed]
                    writer.writerow([
                        r.condition, dataset_name, shot, seed,
                        "" if value is None else f"{value:.6f}",
                    ])


def write_summary_csv(path, results: Sequence[RunResult], dataset_name: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        for r in results:
            for shot in r.shots:
                mean_v, sd_v = r.mean[shot], r.sd[shot]
                p = r.p_vs_reference.get(shot)
                writer.writerow([
                    r.condition, dataset_name, shot,
                    "" if mean_v is None else f"{mean_v:.6f}",
                    "" if sd_v is None else f"{sd_v:.6f}",
                    "" if p is None else f"{p:.6g}",
                    significance_stars(p),
                ])


def read_results_csv(path) -> list[dict]:
    """Rows of the per-seed results schema; also used for external imports.

    `shot` and `seed` come back as int and `macro_f1` as a float in [0, 1], or
    None when empty. A missing column or a bad value raises ConfigError naming
    the file and line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
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
                row["macro_f1"] = float(row["macro_f1"]) if row["macro_f1"] else None
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            if row["macro_f1"] is not None and not 0.0 <= row["macro_f1"] <= 1.0:
                raise ConfigError(f"{where}: macro_f1 {row['macro_f1']} is outside [0, 1]")
            rows.append(row)
        return rows


def results_from_rows(rows: Iterable[dict]) -> list[RunResult]:
    """Aggregate rows of `read_results_csv` back into RunResult grids (no p-values)."""
    by_condition: dict[str, dict[int, dict[int, float | None]]] = {}
    for row in rows:
        cells = by_condition.setdefault(row["condition"], {}).setdefault(row["shot"], {})
        cells[row["seed"]] = row["macro_f1"]
    return [
        summarize(cond, scores, sorted(scores), sorted({seed for c in scores.values() for seed in c}))
        for cond, scores in by_condition.items()
    ]
