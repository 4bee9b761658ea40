import csv
import json
import os

import pytest
import yaml

from patvar.cli import main
from patvar.config import (
    DatasetSpec,
    EmptyDataset,
    UnknownLabel,
    build_gateway,
    ingest,
    load_config,
)
from patvar.errors import ConfigError, ParseError
from patvar.fixtures import FixtureAnnotationProvider
from patvar.gateway import Gateway, MockBackend
from patvar.learning import RunResult
from patvar.reports import render_f1_grid, render_quality_table, significance_stars
from patvar.synthdata import LABEL_VOCAB, make_rows, write_csv


def write_config(tmp_path, **overrides):
    data_path = tmp_path / "data.csv"
    if not data_path.exists():
        write_csv(data_path, make_rows(120, seed=3))
    cfg = {
        "dataset": {
            "path": "data.csv",
            "format": "csv",
            "text_field": "text",
            "label_field": "label",
            "holdout_fraction": 0.25,
            "split_seed": 1,
        },
        "synthesis": {"max_patterns": 5, "max_atoms": 2, "beam_width": 30},
        "conditions": ["random", "cf_no_vt", "counterfactual"],
        "shots": [5, 10, 20],
        "seeds": [0, 1, 2],
        "backend": {"kind": "mock", "model": "mock-model", "label_vocab": LABEL_VOCAB},
        "cache_dir": "cache",
        "output_dir": "out",
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def test_load_config_roundtrip(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path)
    assert cfg.dataset.path.endswith("data.csv")
    assert cfg.shots == (5, 10, 20)
    assert cfg.backend.kind == "mock"


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, typo_section={"a": 1})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "typo_section" in str(exc.value)
    path = write_config(tmp_path, dataset={"path": "data.csv", "bogus_field": True})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "bogus_field" in str(exc.value)


def test_missing_paths_rejected(tmp_path):
    path = write_config(tmp_path, dataset={"path": "nope.csv"})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, lexicon="missing.tsv")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_values_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, dataset={"path": "data.csv", "holdout_fraction": 1.5}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, conditions=["random", "alps"]))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, backend={"kind": "quantum"}))


def test_env_overrides_backend_only(tmp_path, monkeypatch):
    monkeypatch.setenv("LLM_MODEL", "env-model")
    monkeypatch.setenv("LLM_API_BASE", "http://example.invalid")
    cfg = load_config(write_config(tmp_path))
    assert cfg.backend.model == "env-model"
    assert cfg.backend.api_base == "http://example.invalid"
    assert cfg.dataset.text_field == "text"


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def test_ingest_balanced_split(tmp_path, provider):
    path = tmp_path / "d.csv"
    write_csv(path, make_rows(500, seed=2))
    spec = DatasetSpec(path=str(path), holdout_fraction=0.3, split_seed=4)
    ds = ingest(spec, provider)
    assert len(ds.examples) == 350
    assert len(ds.holdout) == 150
    for label in ds.label_set:
        pool_n = sum(1 for e in ds.examples if e.label == label)
        hold_n = sum(1 for e in ds.holdout if e.label == label)
        assert abs(hold_n - 0.3 * (pool_n + hold_n)) <= 1


def test_ingest_label_set_order_and_validation(tmp_path, provider):
    path = tmp_path / "d.csv"
    path.write_text("text,label\ngood food,products\nrude staff,service\n", encoding="utf-8")
    ds = ingest(DatasetSpec(path=str(path), holdout_fraction=0.5), provider)
    assert ds.label_set == ("products", "service")
    with pytest.raises(UnknownLabel):
        ingest(DatasetSpec(path=str(path), holdout_fraction=0.5, labels=("products",)), provider)


def test_ingest_parse_errors(tmp_path, provider):
    path = tmp_path / "d.csv"
    path.write_text("text,label\nmissing label,\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        ingest(DatasetSpec(path=str(path)), provider)
    assert exc.value.line == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("text,label\n", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        ingest(DatasetSpec(path=str(empty)), provider)


def test_ingest_jsonl(tmp_path, provider):
    path = tmp_path / "d.jsonl"
    rows = [{"utterance": "good food", "intent": "products"},
            {"utterance": "rude staff", "intent": "service"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    spec = DatasetSpec(path=str(path), format="jsonl", text_field="utterance",
                       label_field="intent", holdout_fraction=0.5)
    ds = ingest(spec, provider)
    assert {e.label for e in (*ds.examples, *ds.holdout)} == {"products", "service"}


def test_ingest_multilabel_without_gateway_duplicates(tmp_path, provider, caplog):
    path = tmp_path / "d.csv"
    path.write_text(
        "text,label\nGreat service and fair prices,service|price\nonly service here,service\n",
        encoding="utf-8",
    )
    spec = DatasetSpec(path=str(path), multi_label=True, holdout_fraction=0.4)
    with caplog.at_level("WARNING"):
        ds = ingest(spec, provider)
    ids = sorted(e.sentence.id for e in (*ds.examples, *ds.holdout))
    assert ids == ["r00000#0", "r00000#1", "r00001"]


def test_ingest_multilabel_with_gateway_separates(tmp_path, provider):
    path = tmp_path / "d.csv"
    path.write_text(
        "text,label\nGreat service and fair prices,service|price\n", encoding="utf-8"
    )
    spec = DatasetSpec(path=str(path), multi_label=True, holdout_fraction=0.4)
    gw = Gateway(backend=MockBackend(label_vocab=LABEL_VOCAB), model="m")
    ds = ingest(spec, provider, gw)
    labels = sorted(e.label for e in (*ds.examples, *ds.holdout))
    assert labels == ["price", "service"]


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def test_significance_star_mapping():
    assert significance_stars(0.00005) == "***"
    assert significance_stars(0.005) == "**"
    assert significance_stars(0.03) == "*"
    assert significance_stars(0.07) == "+"
    assert significance_stars(0.5) == ""
    assert significance_stars(None) == ""


def test_quality_table_layout():
    table = render_quality_table({
        "YELP": {"pkr": 0.94, "slfr": 0.45, "lfr": 0.98},
        "MASSIVE": {"pkr": 0.88, "slfr": 0.71, "lfr": 0.86},
        "Emotions": {"pkr": 0.81, "slfr": 0.58, "lfr": 0.86},
    })
    expected = (
        "|                      | YELP | MASSIVE | Emotions |\n"
        "| -------------------- | ---- | ------- | -------- |\n"
        "| Pattern Keeping Rate | 0.94 | 0.88    | 0.81     |\n"
        "| Soft Label Flip Rate | 0.45 | 0.71    | 0.58     |\n"
        "| Label Flip Rate      | 0.98 | 0.86    | 0.86     |\n"
    )
    assert table == expected


def fixture_result(condition, means, sds, ps=None):
    shots = (10, 15)
    return RunResult(
        condition=condition, shots=shots, seeds=(0, 1),
        scores={s: {0: means[i], 1: means[i]} for i, s in enumerate(shots)},
        mean={s: means[i] for i, s in enumerate(shots)},
        sd={s: sds[i] for i, s in enumerate(shots)},
        p_vs_reference={s: (ps[i] if ps else None) for i, s in enumerate(shots)},
        reference="counterfactual" if ps else None,
    )


def test_f1_grid_layout():
    rows = [
        fixture_result("random", [0.38, 0.44], [0.05, 0.06], [0.00005, 0.03]),
        fixture_result("counterfactual", [0.55, 0.59], [0.08, 0.07]),
    ]
    grid = render_f1_grid("Macro F1 (YELP)", rows)
    lines = grid.splitlines()
    assert lines[0] == "**Macro F1 (YELP)**"
    header = lines[2]
    assert header.split("|")[2].strip() == "10"
    assert header.split("|")[3].strip() == "15"
    assert ".38 (.05) ***" in grid
    assert ".44 (.06) *" in grid
    assert "**.55 (.08)**" in grid
    assert "**.59 (.07)**" in grid


# ---------------------------------------------------------------------------
# Command plumbing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config = write_config(tmp_path)
    for command in ("synth", "gen", "filter", "simulate"):
        assert main([command, "--config", str(config)]) == 0
    return tmp_path, config


def test_cli_outputs_and_manifest(pipeline_dir):
    tmp_path, config = pipeline_dir
    out = tmp_path / "out"
    for name in ("patterns.json", "candidates_vt.jsonl", "candidates_novt.jsonl",
                 "survivors_vt.jsonl", "audit_vt.jsonl", "quality_report.json",
                 "results.csv", "summary.csv", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"synth", "gen", "filter", "simulate"}
    for entry in manifest.values():
        assert entry["outputs"]
        assert all(len(h) == 64 for h in entry["outputs"].values())


def test_cli_filter_report_matches_compute_metrics(pipeline_dir, provider, lexicon):
    tmp_path, config = pipeline_dir
    from patvar.filtering import FilterConfig, FilterDeps, run_pipeline
    from patvar.generation import candidate_from_record

    out = tmp_path / "out"
    quality = json.loads((out / "quality_report.json").read_text(encoding="utf-8"))
    records = [json.loads(l) for l in (out / "candidates_vt.jsonl").read_text().splitlines()]
    cfg = load_config(config)
    gw = build_gateway(cfg)
    deps = FilterDeps(lex=lexicon, provider=provider, gateway=gw,
                      label_set=list(LABEL_VOCAB))
    _, report = run_pipeline([candidate_from_record(r) for r in records], FilterConfig(), deps)
    assert quality["vt"]["pkr"] == report.pkr
    assert quality["vt"]["slfr"] == report.slfr
    assert quality["vt"]["lfr"] == report.lfr


def test_cli_report_renders_tables(pipeline_dir):
    tmp_path, config = pipeline_dir
    assert main(["report", "--config", str(config)]) == 0
    text = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
    assert "## Counterfactual quality" in text
    assert "Pattern Keeping Rate" in text
    assert "| Method" in text
    header = next(l for l in text.splitlines() if l.startswith("| Method"))
    assert [c.strip() for c in header.split("|")[2:-1]] == ["5", "10", "20"]


def test_cli_report_external_import(pipeline_dir):
    tmp_path, config = pipeline_dir
    external = tmp_path / "alps.csv"
    lines = ["condition,dataset,shot,seed,macro_f1"]
    for shot in (5, 10, 20):
        for seed in (0, 1, 2):
            lines.append(f"alps-import,data,{shot},{seed},0.42")
    external.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    assert main(["report", "--config", str(config), "--external", str(external)]) == 0
    text = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
    assert "alps-import" in text
    assert ".42 (.00)" in text


def test_cli_report_external_other_shots(pipeline_dir):
    tmp_path, config = pipeline_dir
    external = tmp_path / "other_shots.csv"
    lines = ["condition,dataset,shot,seed,macro_f1"]
    lines += [f"alps-import,data,{shot},{seed},0.42" for shot in (5, 7) for seed in (0, 1)]
    external.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    assert main(["report", "--config", str(config), "--external", str(external)]) == 0
    text = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
    rows = {r.split("|")[1].strip(): [c.strip() for c in r.split("|")[2:-1]]
            for r in text.splitlines() if r.startswith("| ")}
    assert rows["Method"] == ["5", "7", "10", "20"]
    assert rows["alps-import"][2:] == ["n/a", "n/a"]
    assert rows["alps-import"][1] == "**.42 (.00)**"  # the only method at 7 shots
    assert rows["random"][1] == "n/a" and rows["random"][2] != "n/a"


@pytest.mark.parametrize("content, message", [
    ("condition,dataset,shot,seed,macro_f1\nrandom,data,5,0,abc\n", "line 2"),
    ("condition,dataset,shot\nrandom,data,5\n", "lacks columns ['macro_f1', 'seed']"),
    ("condition,dataset,shot,seed,macro_f1\nrandom,data,5,0,0.4\nrandom,data,5,1,nan\n",
     "line 3: macro_f1 nan is outside [0, 1]"),
], ids=["bad_value", "missing_columns", "nan_score"])
def test_cli_report_rejects_malformed_external(tmp_path, capsys, content, message):
    config = write_config(tmp_path)
    external = tmp_path / "bad.csv"
    external.write_text(content, encoding="utf-8")
    assert main(["report", "--config", str(config), "--external", str(external)]) == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and message in err


def test_cli_report_stars_match_summary(pipeline_dir):
    tmp_path, config = pipeline_dir
    assert main(["report", "--config", str(config)]) == 0
    text = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("| Method"))
    table = [l for l in lines[start:] if l.startswith("| ")]
    shots = [c.strip() for c in table[0].split("|")[2:-1]]
    stars = {}
    for line in table[2:]:
        condition, *cells = [c.strip() for c in line.split("|")[1:-1]]
        for shot, cell in zip(shots, cells):
            tail = cell.rpartition(")")[2]  # "**.55 (.08)** **": bold best, then the stars
            stars[condition, shot] = (tail[2:] if cell.startswith("**") else tail).strip()
    with open(tmp_path / "out" / "summary.csv", encoding="utf-8", newline="") as fh:
        summary = {(r["condition"], r["shot"]): r["significance"] for r in csv.DictReader(fh)}
    assert stars == summary


def test_cli_rerun_is_idempotent(pipeline_dir):
    import hashlib

    tmp_path, config = pipeline_dir
    out = tmp_path / "out"
    names = ["patterns.json", "candidates_vt.jsonl", "survivors_vt.jsonl",
             "quality_report.json", "results.csv", "summary.csv"]
    before = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}
    for command in ("synth", "gen", "filter", "simulate"):
        assert main([command, "--config", str(config)]) == 0
    after = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}
    assert before == after


def test_cli_ablate_arms(tmp_path):
    config = write_config(tmp_path, shots=[5, 10], seeds=[0, 1])
    for command in ("synth", "gen", "ablate"):
        assert main([command, "--config", str(config)]) == 0
    with open(tmp_path / "out" / "ablation_summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    arms = {row["condition"] for row in rows}
    assert arms == {"none", "heuristic", "heuristic+symbolic", "heuristic+discriminator", "all"}
    # every arm is paired against the full pipeline, which has no p-value itself
    for row in rows:
        assert (row["p_vs_counterfactual"] == "") == (row["condition"] == "all")


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.yaml"
    bad_cfg.write_text("dataset: {path: missing.csv}\n", encoding="utf-8")
    assert main(["synth", "--config", str(bad_cfg)]) == 2

    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 2  # survivors missing

    empty_csv = tmp_path / "data.csv"
    empty_csv.write_text("text,label\n", encoding="utf-8")
    assert main(["synth", "--config", str(config)]) == 4  # empty dataset


def test_cli_gen_rejects_single_label(tmp_path, capsys):
    config = write_config(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "patterns.json").write_text(
        json.dumps({"dataset": "data", "label_set": ["price"], "patterns": {"price": []}}),
        encoding="utf-8",
    )
    assert main(["gen", "--config", str(config)]) == 2
    assert "need at least two labels" in capsys.readouterr().err


def test_cli_simulate_reports_failed_condition(tmp_path, capsys):
    config = write_config(tmp_path, conditions=["random", "counterfactual"])
    cfg = load_config(config)
    dataset = ingest(cfg.dataset, FixtureAnnotationProvider())
    # Every pool example gets a counterfactual whose label is not in the label set.
    (tmp_path / "out").mkdir()
    with open(tmp_path / "out" / "survivors_vt.jsonl", "w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            record = {"original": {"id": ex.sentence.id}, "generated_text": "x", "target_label": "bogus"}
            fh.write(json.dumps(record) + "\n")
    assert main(["simulate", "--config", str(config)]) == 4
    out = capsys.readouterr().out
    assert "counterfactual: F1@5 = n/a (3 of 3 cells missing)" in out
    assert "random: F1@5 = " in out and "random: F1@5 = n/a" not in out
    assert (tmp_path / "out" / "results.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_seed_and_out_overrides(tmp_path):
    config = write_config(tmp_path, shots=[3, 6], seeds=[0, 1])
    alt_out = tmp_path / "alt"
    for command in ("synth", "gen", "filter"):
        assert main([command, "--config", str(config), "--out", str(alt_out)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(alt_out), "--seed", "5"]) == 0
    rows = (alt_out / "results.csv").read_text(encoding="utf-8").splitlines()
    seeds = {line.split(",")[3] for line in rows[1:]}
    assert seeds == {"5"}
