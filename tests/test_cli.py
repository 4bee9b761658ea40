import collections
import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import patvar
from patvar import cli, filtering, gateway, generation, synthesis
from patvar.annotation import Annotator, Token
from patvar.cli import main
from patvar.config import (
    DatasetSpec,
    build_gateway,
    ingest,
    load_config,
)
from patvar.errors import ConfigError, ParseError, ProviderFailure
from patvar.fixtures import FixtureAnnotationProvider
from patvar.gateway import MockBackend
from patvar.filtering import STAGES
from patvar.generation import CounterfactualCandidate, GenerationTask, candidate_to_record
from patvar.experiment import RunResult
from patvar.learning import LemmaIds
from patvar.patterns import parse_pattern, render_pattern
from patvar.reports import render_f1_grid, render_quality_table, significance_stars
from patvar.synthdata import LABEL_VOCAB, make_rows, write_csv

from conftest import Reply, sentence_to_record


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


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_config_loads_alike_with_and_without_libyaml(tmp_path, capsys, readme_config):
    texts = [readme_config]
    for overrides in ({}, {"dataset": {"holdout_fraction": 1 / 3}, "synthesis": {"beam_width": 3}},
                      {"backend": {"flaw_rate": 0.25, "label_vocab": {"caf\u00e9": ["cr\u00e8me"]}}}):
        texts.append(write_config(tmp_path, **overrides).read_text(encoding="utf-8"))
    for text in texts:
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    assert "label_vocab" in texts[0]
    config = tmp_path / "exp.yaml"
    config.write_text("dataset: [data.csv\n", encoding="utf-8")
    assert main(["synth", "--config", str(config)]) == 2
    assert "is not valid YAML" in capsys.readouterr().err


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
    (tmp_path / "folder").mkdir()
    for overrides, message in [
        ({"dataset": {"path": "nope.csv"}}, "dataset.path does not exist"),
        ({"lexicon": "missing.tsv"}, "lexicon does not exist"),
        ({"dataset": {"path": "folder"}}, "dataset.path is not a file"),
        ({"annotations": "folder"}, "annotations is not a file"),
        ({"lexicon": "folder"}, "lexicon is not a file"),
    ]:
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, **overrides))
        assert message in str(exc.value)


def test_bad_values_rejected(tmp_path, capsys):
    """A bad value exits 2 from any command, naming its section."""
    for overrides, section in [
        ({"dataset": {"holdout_fraction": 1.5}}, "dataset"),
        ({"dataset": {"holdout_fraction": "abc"}}, "dataset"),
        ({"conditions": ["random", "alps"]}, "conditions"),
        ({"backend": {"kind": "quantum"}}, "backend"),
        ({"backend": {"flaw_rate": "lots"}}, "backend"),
        ({"shots": ["ten"]}, "shots"),
        ({"shots": [15, 10]}, "shots"),
        ({"seeds": 3}, "seeds"),
        ({"seeds": []}, "seeds"),
        ({"seeds": [0, 0, 1]}, "bad seeds: [0] listed more than once"),
        ({"shots": [10.7, 20]}, "bad shots: need whole numbers, got [10.7, 20]"),
        ({"shots": ["10", "20"]}, "bad shots: need whole numbers, got ['10', '20']"),
        ({"seeds": [True, 1]}, "bad seeds: need whole numbers, got [True, 1]"),
        ({"seeds": [0, 1.0]}, "bad seeds: need whole numbers, got [0, 1.0]"),
        ({"seeds": "12"}, "bad seeds: need a list, got the string '12'"),
        ({"shots": "59"}, "bad shots: need a list, got the string '59'"),
        ({"conditions": "random"}, "bad conditions: need a list, got the string 'random'"),
        ({"conditions": ["random", "random", "counterfactual"]},
         "bad conditions: ['random'] listed more than once"),
        ({"conditions": []}, "bad conditions: need at least one condition"),
        ({"synthesis": "beam"}, "synthesis"),
        ({"synthesis": {"beam_width": "x"}}, "synthesis"),
        ({"synthesis": {"min_precision": 2}}, "synthesis"),
        ({"cache_dir": 5}, "cache_dir"),
        ({"dataset": {"split_seed": [1]}}, "dataset"),
        ({"dataset": {"multi_label": True, "label_delimiter": 5}}, "dataset"),
        ({"dataset": {"multi_label": True, "label_delimiter": ""}},
         "dataset.label_delimiter must not be empty"),
        ({"backend": {"label_vocab": ["a"]}}, "backend"),
        ({"filters": {"heuristic": "no"}}, "unknown key(s) in config: ['filters']"),
        ({"dataset": {"labels": ["service", "service", "price", "environment", "products"]}},
         "bad dataset.labels: ['service'] listed more than once"),
        ({"dataset": {"labels": ["service", "price", "environment", "products", 5]}},
         "bad dataset.labels: need non-empty strings, got ['service', 'price', 'environment', "
         "'products', 5]"),
        ({"dataset": {"labels": "service"}},
         "bad dataset.labels: need a list, got the string 'service'"),
        ({"dataset": {"labels": {"service": "price"}}},
         "bad dataset.labels: need a list, got {'service': 'price'}"),
    ]:
        config = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError) as exc:
            load_config(config)
        assert section in str(exc.value), overrides
        assert main(["synth", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {exc.value}")
        assert not (tmp_path / "out" / "patterns.json").exists(), overrides


@pytest.mark.parametrize("vocab", [
    {"price": 5}, {"service": "staff"}, {"price": ["cheap", ""]}, {"price": ["cheap", 3]},
    {5: ["cheap"]}, {"price": None},
], ids=["number", "string", "empty_word", "number_word", "number_label", "null_words"])
def test_bad_label_vocab_rejected(tmp_path, capsys, vocab):
    config = write_config(tmp_path, backend={"label_vocab": vocab})
    with pytest.raises(ConfigError, match="backend.label_vocab"):
        load_config(config)
    assert main(["gen", "--config", str(config)]) == 2
    assert "backend.label_vocab" in capsys.readouterr().err


def test_env_overrides_backend_only(tmp_path, monkeypatch):
    monkeypatch.setenv("LLM_MODEL", "env-model")
    monkeypatch.setenv("LLM_API_BASE", "http://example.invalid")
    monkeypatch.setenv("LLM_API_KEY", "env-key")
    cfg = load_config(write_config(tmp_path))
    assert cfg.backend.model == "env-model"
    assert cfg.backend.api_base == "http://example.invalid"
    assert cfg.backend.api_key == "env-key"
    assert cfg.dataset.text_field == "text"
    # LLM_MODEL replaces the config's model; the config's api_base and api_key
    # win over LLM_API_BASE and LLM_API_KEY, which only fill in a missing one.
    cfg = load_config(write_config(tmp_path, backend={
        "model": "config-model", "api_base": "http://config.invalid/v1", "api_key": "config-key"}))
    assert cfg.backend.model == "env-model"
    assert cfg.backend.api_base == "http://config.invalid/v1"
    assert cfg.backend.api_key == "config-key"
    # A null api_base or api_key is a missing one: the env var fills it in.
    cfg = load_config(write_config(tmp_path, backend={
        "kind": "http", "api_base": None, "api_key": None}))
    assert cfg.backend.api_base == "http://example.invalid"
    assert cfg.backend.api_key == "env-key"
    assert build_gateway(cfg).backend.base_url == "http://example.invalid"


@pytest.mark.parametrize("api_base", ["llm.local/v1", "ftp://x/v1", "http://", "http://[::1/v1",
                                      "http://llm.local:port/v1", None])
def test_malformed_api_base_is_a_config_error(tmp_path, monkeypatch, capsys, api_base):
    monkeypatch.delenv("LLM_API_BASE", raising=False)
    write_csv(tmp_path / "data.csv", make_rows(60, seed=3))
    config = write_config(tmp_path, synthesis={"max_atoms": 1},
                          backend={"kind": "http", "api_base": api_base})
    with pytest.raises(ConfigError, match="backend.api_base"):
        build_gateway(load_config(config))
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["gen", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: backend.kind=http requires backend.api_base "
                          "(or LLM_API_BASE), an http or https URL with a host; got "
                          f"{api_base!r}")


def test_gen_gives_up_on_replies_cut_short(tmp_path, monkeypatch, capsys, loopback):
    """A reply whose body ends before its Content-Length is transient: `gen`
    retries it, then exits 3."""
    url = loopback.serve(lambda path, headers, body: Reply(200, b'{"choices": [', length=100))
    write_csv(tmp_path / "data.csv", make_rows(60, seed=3))
    config = write_config(tmp_path, synthesis={"max_atoms": 1},
                          backend={"kind": "http", "api_base": url + "/v1"})
    assert main(["synth", "--config", str(config)]) == 0
    slept = []
    monkeypatch.setattr(gateway.time, "sleep", slept.append)
    assert main(["gen", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "backend error: backend error None: gave up after 3 retries" in err
    assert "IncompleteRead" in err
    assert slept == [0.5, 1.0, 2.0]


def test_http_backend_writes_what_the_mock_writes(tmp_path, loopback):
    """`gen` + `filter` against a loopback chat-completions server that
    answers as the mock backend would write byte for byte what they write
    with the mock backend itself."""
    settings = {"label_vocab": LABEL_VOCAB, "flaw_rate": 0.25}
    answering = MockBackend(**settings)

    def answer(path, headers, body):
        posted = json.loads(body)
        messages = tuple(gateway.ChatMessage(m["role"], m["content"]) for m in posted["messages"])
        resp = answering.send(gateway.CompletionRequest(posted["model"], messages,
                                                        posted["max_tokens"]))
        choice = {"message": {"role": "assistant", "content": resp.text},
                  "finish_reason": resp.finish_reason}
        return Reply(200, json.dumps({"choices": [choice]}).encode())

    written = {}
    for kind, api_base in (("mock", None), ("http", loopback.serve(answer) + "/v1")):
        work = tmp_path / kind  # its own data, config, cache and output
        work.mkdir()
        write_csv(work / "data.csv", make_rows(60, seed=3))
        config = write_config(work, backend={"kind": kind, "api_base": api_base, **settings})
        for command in ("synth", "gen", "filter"):
            assert main([command, "--config", str(config)]) == 0, (kind, command)
        written[kind] = {p.name: p.read_bytes() for p in sorted((work / "out").iterdir())
                         if p.name.startswith(("candidates_", "survivors_", "audit_"))
                         or p.name == "quality_report.json"}
    assert sorted(written["mock"]) == [
        "audit_novt.jsonl", "audit_vt.jsonl", "candidates_novt.jsonl", "candidates_vt.jsonl",
        "quality_report.json", "survivors_novt.jsonl", "survivors_vt.jsonl"]
    assert written["http"] == written["mock"]
    assert answering.calls > 0


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
    with pytest.raises(ParseError, match="'service' is not in dataset.labels") as exc:
        ingest(DatasetSpec(path=str(path), holdout_fraction=0.5, labels=("products",)), provider)
    assert exc.value.line == 3
    declared = ingest(DatasetSpec(path=str(path), holdout_fraction=0.5,
                                  labels=("service", "price", "products")), provider)
    assert declared.label_set == ("service", "price", "products")


def test_ingest_parse_errors(tmp_path, provider):
    path = tmp_path / "d.csv"
    path.write_text("text,label\nmissing label,\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        ingest(DatasetSpec(path=str(path)), provider)
    assert exc.value.line == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("text,label\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="no rows") as exc:
        ingest(DatasetSpec(path=str(empty)), provider)
    assert str(exc.value) == f"no rows in {empty}"


def test_ingest_jsonl(tmp_path, provider):
    path = tmp_path / "d.jsonl"
    rows = [{"utterance": "good food", "intent": "products"},
            {"utterance": "rude staff", "intent": "service"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    spec = DatasetSpec(path=str(path), format="jsonl", text_field="utterance",
                       label_field="intent", holdout_fraction=0.5)
    ds = ingest(spec, provider)
    assert {e.label for e in (*ds.examples, *ds.holdout)} == {"products", "service"}


def test_ingest_multilabel_needs_a_gateway(tmp_path, provider):
    path = tmp_path / "d.csv"
    path.write_text("text,label\nonly service here,service\n", encoding="utf-8")
    spec = DatasetSpec(path=str(path), multi_label=True, holdout_fraction=0.4)
    with pytest.raises(ValueError, match="needs a gateway"):
        ingest(spec, provider)


class RepliesWith:
    """A backend that answers every request with `text`."""

    def __init__(self, text):
        self.text = text

    def send(self, req):
        return gateway.CompletionResponse(self.text)


@pytest.mark.parametrize("name, content, overrides, code, message", [
    ("data.csv", "text,label\ngood food,products\n,products\n", {}, 2,
     "data.csv line 3: field 'text' is blank"),
    ("data.csv", 'text,label\ngood food,products\n"   ",service\n', {}, 2,
     "data.csv line 3: field 'text' is blank"),
    ("data.jsonl", '{"text": "good food", "label": "products"}\n{"text": "", "label": "service"}\n',
     {"dataset": {"path": "data.jsonl", "format": "jsonl"}}, 2,
     "data.jsonl line 2: field 'text' is blank"),
    ("data.csv", "text,label\nGreat service and fair prices,service|price\n",
     {"dataset": {"multi_label": True}}, 4, "separator returned a blank text for label 'price'"),
], ids=["csv_empty", "csv_spaces", "jsonl_empty", "separator_part"])
def test_blank_texts_rejected(tmp_path, capsys, monkeypatch, gateway_for, name, content, overrides,
                              code, message):
    """A dataset text, or a separated part's text, that is empty or blank
    would become an example with no token; ingesting it fails instead."""
    (tmp_path / name).write_text(content, encoding="utf-8")
    config = write_config(tmp_path, **overrides)
    separator = RepliesWith("'Great service' + '' + 'service'; '   ' + '' + 'price'")
    monkeypatch.setattr(cli, "build_gateway", lambda cfg: gateway_for(separator))
    assert main(["synth", "--config", str(config)]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name, content", [
    ("data.csv", "text,label\ngood food,products\nrude staff,service\ncheap deal,price\n"),
    ("data.csv", "text,label\n\ngood food,products\nrude staff,service\ncheap deal,price\n"),
    ("data.jsonl", '{"text": "good food", "label": "products"}\n\n'
                   '{"text": "rude staff", "label": "service"}\n'
                   '{"text": "cheap deal", "label": "price"}\n'),
], ids=["csv", "csv_blank_line", "jsonl_blank_line"])
def test_an_undeclared_label_exits_2_naming_its_line(tmp_path, capsys, name, content):
    """The last row's label is not declared; the message names the file's last
    line, past any blank line."""
    (tmp_path / name).write_text(content, encoding="utf-8")
    config = write_config(tmp_path, dataset={"path": name, "format": name.rpartition(".")[2],
                                             "labels": ["products", "service"]})
    assert main(["synth", "--config", str(config)]) == 2
    line = content.rstrip("\n").count("\n") + 1
    assert f"{name} line {line}: label 'price' is not in dataset.labels" in capsys.readouterr().err


def test_labels_that_differ_only_in_case_exit_2_naming_both(tmp_path, capsys):
    """The discriminator's answers are matched without case, so `Price` and
    `price` could not be told apart; ingest refuses them."""
    (tmp_path / "data.csv").write_text(
        "text,label\ngood food,products\ncheap deal,Price\nlow cost,price\n", encoding="utf-8")
    config = write_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 2
    assert "data.csv: the labels 'Price' and 'price' differ only in case" in capsys.readouterr().err


def test_ingest_multilabel_with_gateway_separates(tmp_path, provider, gateway_for):
    path = tmp_path / "d.csv"
    path.write_text(
        "text,label\nGreat service and fair prices,service|price\n", encoding="utf-8"
    )
    spec = DatasetSpec(path=str(path), multi_label=True, holdout_fraction=0.4)
    ds = ingest(spec, provider, gateway_for(MockBackend(label_vocab=LABEL_VOCAB)))
    labels = sorted(e.label for e in (*ds.examples, *ds.holdout))
    assert labels == ["price", "service"]


class OtherTextProvider:
    """Annotates every text outside `good` as some other text."""

    def __init__(self, good=()):
        self.good = set(good)

    def annotate(self, raw):
        return FixtureAnnotationProvider().annotate(raw if raw in self.good else "other text")


def test_provider_output_for_other_text_fails(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, conditions=["random", "counterfactual"])
    cfg = load_config(config)
    with pytest.raises(ProviderFailure):
        ingest(cfg.dataset, Annotator(OtherTextProvider()))
    # Dataset rows annotate correctly; the survivor's generated text does not.
    with open(cfg.dataset.path, encoding="utf-8", newline="") as fh:
        texts = [row["text"] for row in csv.DictReader(fh)]
    dataset = ingest(cfg.dataset, Annotator(OtherTextProvider(texts)))
    (tmp_path / "out").mkdir()
    record = {**pool_candidate(dataset), "generated_text": "the waiter was friendly"}
    (tmp_path / "out" / "survivors_vt.jsonl").write_text(json.dumps(record) + "\n")
    monkeypatch.setattr("patvar.cli.build_provider", lambda cfg: Annotator(OtherTextProvider(texts)))
    assert main(["simulate", "--config", str(config)]) == 4
    assert "does not correspond to the input text" in capsys.readouterr().err


def test_provider_token_with_an_unknown_tag_exits_4(tmp_path, monkeypatch, capsys):
    class UnknownTagProvider:
        def annotate(self, raw):
            return Token(raw, raw.lower(), "X")  # raises before any sentence is built

    config = write_config(tmp_path)
    monkeypatch.setattr("patvar.cli.build_provider", lambda cfg: Annotator(UnknownTagProvider()))
    assert main(["synth", "--config", str(config)]) == 4
    assert "data error: provider raised ValueError: unknown pos tag 'X'" in capsys.readouterr().err


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


# command -> the files it writes with this file's configs
WRITERS = {
    "synth": {"patterns.json", "patterns.txt"},
    "gen": {"candidates_vt.jsonl", "candidates_novt.jsonl"},
    "filter": {"survivors_vt.jsonl", "audit_vt.jsonl", "survivors_novt.jsonl",
               "audit_novt.jsonl", "quality_report.json"},
    "simulate": {"results.csv", "summary.csv"},
    "ablate": {"ablation_results.csv", "ablation_summary.csv", "ablation.md"},
    "report": {"report.md"},
}


def test_cli_outputs_and_manifest(walkthrough):
    """`out/` holds the pinned files and the manifest, which records their pinned hashes."""
    import hashlib

    out = walkthrough.dir / "out"
    assert set(os.listdir(out)) == set().union(*WRITERS.values()) | {"manifest.json"}
    assert set(os.listdir(out)) == set(walkthrough.pins) | {"manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {
        command: {"config_sha256": hashlib.sha256(walkthrough.config.read_bytes()).hexdigest(),
                  "outputs": {name: walkthrough.pins[name] for name in names}}
        for command, names in WRITERS.items()
    }


def test_cli_filter_report_matches_compute_metrics(walkthrough_seed7, copy_walkthrough, provider,
                                                   lexicon):
    from patvar.filtering import run_pipeline
    from patvar.generation import candidates_from_records

    work = copy_walkthrough(walkthrough_seed7)
    out = work.dir / "out"
    quality = json.loads((out / "quality_report.json").read_text(encoding="utf-8"))
    records = [json.loads(l) for l in (out / "candidates_vt.jsonl").read_text().splitlines()]
    cfg = load_config(work.config)
    gw = build_gateway(cfg)
    dataset = ingest(cfg.dataset, provider)
    candidates = candidates_from_records(enumerate(records, 1), dataset)
    _, report, _ = run_pipeline(candidates, dataset.label_set, lexicon, provider, gw)
    gw.close()
    assert quality["vt"]["pkr"] == report.pkr
    assert quality["vt"]["slfr"] == report.slfr
    assert quality["vt"]["lfr"] == report.lfr


def test_cli_report_renders_tables(walkthrough_seed7):
    text = (walkthrough_seed7.dir / "out" / "report.md").read_text(encoding="utf-8")
    assert "## Counterfactual quality" in text
    assert "Pattern Keeping Rate" in text
    assert "| Method" in text
    header = next(l for l in text.splitlines() if l.startswith("| Method"))
    shots = load_config(walkthrough_seed7.config).shots
    assert [c.strip() for c in header.split("|")[2:-1]] == [str(shot) for shot in shots]


def test_cli_report_external_import(walkthrough_seed7, copy_walkthrough, tmp_path):
    work = copy_walkthrough(walkthrough_seed7)
    external = tmp_path / "alps.csv"
    lines = ["condition,dataset,shot,seed,macro_f1"]
    for shot in load_config(work.config).shots:
        for seed in (0, 1, 2):
            lines.append(f"alps-import,data,{shot},{seed},0.42")
    external.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    assert main(["report", "--config", str(work.config), "--external", str(external)]) == 0
    text = (work.dir / "out" / "report.md").read_text(encoding="utf-8")
    assert "alps-import" in text
    assert ".42 (.00)" in text


def test_cli_report_external_other_shots(walkthrough_seed7, copy_walkthrough, tmp_path):
    work = copy_walkthrough(walkthrough_seed7)
    external = tmp_path / "other_shots.csv"
    lines = ["condition,dataset,shot,seed,macro_f1"]
    lines += [f"alps-import,data,{shot},{seed},0.42" for shot in (5, 10) for seed in (0, 1)]
    external.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    assert main(["report", "--config", str(work.config), "--external", str(external)]) == 0
    text = (work.dir / "out" / "report.md").read_text(encoding="utf-8")
    rows = {r.split("|")[1].strip(): [c.strip() for c in r.split("|")[2:-1]]
            for r in text.splitlines() if r.startswith("| ")}
    shots = load_config(work.config).shots
    assert rows["Method"] == ["5", *(str(shot) for shot in shots)]
    assert rows["alps-import"][2:] == ["n/a"] * (len(shots) - 1)
    assert rows["alps-import"][0] == "**.42 (.00)**"  # the only method at 5 shots
    assert rows["random"][0] == "n/a" and rows["random"][1] != "n/a"


@pytest.mark.parametrize("content, message", [
    ("condition,dataset,shot,seed,macro_f1\nrandom,data,5,0,abc\n", "line 2"),
    ("condition,dataset,shot\nrandom,data,5\n", "lacks columns ['macro_f1', 'seed']"),
    ("condition,dataset,shot,seed,macro_f1\nrandom,data,5,0,0.4\nrandom,data,5,1,nan\n",
     "line 3: macro_f1 nan is outside [0, 1]"),
    ("condition,dataset,shot,seed,macro_f1\nalps,data,10,0,0.9\nalps,data,10,1,\n"
     "alps,data,10,2,0.1\n", "line 3: could not convert string to float: ''"),
], ids=["bad_value", "missing_columns", "nan_score", "empty_score"])
def test_cli_report_rejects_malformed_external(tmp_path, capsys, content, message):
    config = write_config(tmp_path)
    external = tmp_path / "bad.csv"
    external.write_text(content, encoding="utf-8")
    assert main(["report", "--config", str(config), "--external", str(external)]) == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and message in err


@pytest.mark.parametrize("content", ["{not json", '{"yelp": [1, 2]}'], ids=["not_json", "not_rates"])
def test_cli_report_rejects_malformed_quality(tmp_path, capsys, content):
    config = write_config(tmp_path)
    quality = tmp_path / "quality.json"
    quality.write_text(content, encoding="utf-8")
    assert main(["report", "--config", str(config), "--quality", str(quality)]) == 2
    assert "quality.json" in capsys.readouterr().err


def test_cli_report_rejects_cells_in_two_files(walkthrough_seed7, copy_walkthrough, tmp_path,
                                               capsys):
    work = copy_walkthrough(walkthrough_seed7)
    external = tmp_path / "same_cells.csv"
    lines = ["condition,dataset,shot,seed,macro_f1"]
    lines += [f"counterfactual,data,10,{seed},0.9" for seed in (0, 1, 2)]
    external.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    assert main(["report", "--config", str(work.config), "--external", str(external)]) == 2
    err = capsys.readouterr().err
    assert "dataset=data condition=counterfactual shot=10 seed=0" in err
    assert "same_cells.csv" in err and "results.csv" in err


def test_cli_report_rejects_two_quality_files_for_one_dataset(walkthrough_seed7, copy_walkthrough,
                                                              tmp_path, capsys):
    work = copy_walkthrough(walkthrough_seed7)
    other = tmp_path / "q2.json"
    other.write_text(json.dumps({"data": {"pkr": 0.12, "slfr": 0.5, "lfr": 0.4}}), encoding="utf-8")
    first = work.dir / "out" / "quality_report.json"
    assert main(["report", "--config", str(work.config), "--quality", str(first),
                 "--quality", str(other)]) == 2
    err = capsys.readouterr().err
    assert "dataset data" in err and "q2.json" in err and "quality_report.json" in err


def test_cli_report_stars_match_summary(walkthrough_seed7):
    out = walkthrough_seed7.dir / "out"
    text = (out / "report.md").read_text(encoding="utf-8")
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
    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        summary = {(r["condition"], r["shot"]): r["significance"] for r in csv.DictReader(fh)}
    assert stars == summary


def count_annotations(monkeypatch) -> list:
    """The texts the fixture provider annotates from now on, one entry per call."""
    calls = []
    original = FixtureAnnotationProvider.annotate

    def counting(self, raw):
        calls.append(raw)
        return original(self, raw)

    monkeypatch.setattr(FixtureAnnotationProvider, "annotate", counting)
    return calls


def test_cli_simulate_annotates_each_text_once(walkthrough_seed7, copy_walkthrough, monkeypatch):
    work = copy_walkthrough(walkthrough_seed7)
    calls = count_annotations(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(work.config)]) == 0
    out = work.dir / "out"
    rows = len((work.dir / "data.csv").read_text(encoding="utf-8").splitlines()) - 1
    survivors = sum(len((out / f"survivors_{name}.jsonl").read_text().splitlines())
                    for name in ("vt", "novt"))
    assert 0 < len(calls) <= rows + survivors


def test_cli_ablate_annotates_each_text_once(walkthrough_seed7, copy_walkthrough, monkeypatch):
    work = copy_walkthrough(walkthrough_seed7)
    out = work.dir / "out"
    calls = count_annotations(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ablate", "--config", str(work.config)]) == 0
    rows = len((work.dir / "data.csv").read_text(encoding="utf-8").splitlines()) - 1
    texts = {json.loads(line)["generated_text"]
             for line in (out / "candidates_vt.jsonl").read_text().splitlines()}
    assert 0 < len(calls) <= rows + len(texts)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_cli_gen_opens_each_cache_file_at_most_once(walkthrough_seed7, copy_walkthrough,
                                                    monkeypatch, warm):
    """A warm gen opens each segment once and creates none; a cold gen creates one."""
    work = copy_walkthrough(walkthrough_seed7)
    cache = work.dir / "cache"
    if not warm:
        shutil.rmtree(cache)
    before = set(os.listdir(cache)) if warm else set()
    opened = collections.Counter()

    def counting_open(path, *args, **kwargs):
        opened[os.path.basename(path)] += 1
        return open(path, *args, **kwargs)

    monkeypatch.setattr(gateway, "open", counting_open, raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(work.config)]) == 0
    after = set(os.listdir(cache))
    assert after >= before and len(after - before) == (0 if warm else 1)
    assert all(name.endswith(gateway.SEGMENT_SUFFIX) for name in after)
    assert opened and max(opened.values()) == 1
    assert set(opened) == after


@pytest.mark.parametrize("valid", [True, False], ids=["phrases", "no_valid_phrases"])
def test_cli_gen_asks_each_phrase_question_once(tmp_path, monkeypatch, capsys, caplog, valid):
    """Two pool examples per label share their phrase question: one phrase
    request per question, whose answer both tasks use. A `[staff]` answer
    that matches nothing skips both service tasks, with one warning."""
    (tmp_path / "data.csv").write_text(
        "text,label\nThe staff was rude.,service\nThe staff was slow.,service\n"
        "The cheap lobster was great.,price\nA cheap deal today.,price\n", encoding="utf-8")
    config = write_config(tmp_path, dataset={"holdout_fraction": 0.1},
                          conditions=["random", "counterfactual"])
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "patterns.json").write_text(json.dumps({
        "label_set": ["service", "price"],
        "patterns": {"service": [{"pattern": "[staff]"}], "price": [{"pattern": "[cheap]"}]},
    }), encoding="utf-8")
    asked = collections.Counter()  # pattern of each phrase request -> requests
    complete = gateway.Gateway.complete

    def counting(self, req):
        if "create a list of phrases" in req.messages[0].content:
            pattern = req.messages[2].content.partition("pattern: ")[2].partition(",")[0]
            asked[pattern] += 1
            if pattern == "[staff]" and not valid:
                return gateway.CompletionResponse("nothing at all")
        return complete(self, req)

    monkeypatch.setattr(gateway.Gateway, "complete", counting)
    with caplog.at_level("WARNING", logger="patvar"):
        assert main(["gen", "--config", str(config)]) == 0
    assert asked == {"[staff]": 1, "[cheap]": 1}
    summary = "generated 4 pattern-kept candidates (+0 unconstrained, 0 skipped)" if valid else \
        "generated 2 pattern-kept candidates (+0 unconstrained, 2 skipped)"
    assert summary in capsys.readouterr().out
    assert caplog.text.count("dropping phrase 'nothing at all'") == (0 if valid else 1)
    assert caplog.text.count("skipping r0000") == (0 if valid else 2)


def test_cli_gen_matches_each_example_once(walkthrough_seed7, copy_walkthrough, monkeypatch):
    """gen chooses an example's pattern by `find_matches` alone, calls it at
    most once per (example, pattern), and collects the soft matches of each
    of the 200 pool examples that get a task once, for all its targets."""
    work = copy_walkthrough(walkthrough_seed7)
    out = work.dir / "out"
    for name in ("candidates_vt.jsonl", "candidates_novt.jsonl"):
        (out / name).unlink()
    found = collections.Counter()  # (example id, pattern) -> find_matches calls
    collected = []  # the arguments of each collect_soft_matches call
    find, collect = cli.find_matches, generation.collect_soft_matches

    def counting_find(p, s, lex):
        found[s.id, render_pattern(p)] += 1
        return find(p, s, lex)

    def counting_collect(*args):
        collected.append(args)
        return collect(*args)

    monkeypatch.setattr(cli, "find_matches", counting_find)
    for module in (cli, generation):
        monkeypatch.setattr(module, "collect_soft_matches", counting_collect)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(work.config)]) == 0
    assert not hasattr(cli, "match_sentence")
    assert found and max(found.values()) == 1
    assert len(collected) == 200
    assert len({original.id for _, _, original, _ in collected}) == 200
    assert work.moved() == []


STAGE_FUNCTIONS = ("heuristic_filter", "symbolic_filter", "discriminator_filter")


def test_cli_filter_judges_each_stage_at_most_once_per_candidate(walkthrough_seed7,
                                                                 copy_walkthrough, monkeypatch):
    work = copy_walkthrough(walkthrough_seed7)
    out = work.dir / "out"
    calls = {}  # stage function -> candidate uid -> calls
    for name in STAGE_FUNCTIONS:
        counts = calls[name] = collections.Counter()

        def counting(c, *args, _stage=getattr(filtering, name), _counts=counts):
            _counts[c.uid] += 1
            return _stage(c, *args)

        monkeypatch.setattr(filtering, name, counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["filter", "--config", str(work.config)]) == 0
    uids = [json.loads(line)["uid"] for name in ("vt", "novt")
            for line in (out / f"candidates_{name}.jsonl").read_text().splitlines()]
    assert calls["heuristic_filter"] == collections.Counter(uids)
    for name in STAGE_FUNCTIONS[1:]:
        assert calls[name] and max(calls[name].values()) == 1, name


def test_cli_ablate_judges_nothing_and_builds_no_gateway(walkthrough_seed7, copy_walkthrough,
                                                        monkeypatch):
    work = copy_walkthrough(walkthrough_seed7)
    cache = work.dir / "cache"

    def forbidden(*args, **kwargs):
        raise AssertionError("ablate judged a candidate or built a gateway")

    for name in STAGE_FUNCTIONS:
        monkeypatch.setattr(filtering, name, forbidden)
    monkeypatch.setattr(cli, "build_gateway", forbidden)
    before = sorted(os.listdir(cache))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ablate", "--config", str(work.config)]) == 0
    assert sorted(os.listdir(cache)) == before


def test_cli_ablate_arms(walkthrough_seed7):
    with open(walkthrough_seed7.dir / "out" / "ablation_summary.csv", encoding="utf-8",
              newline="") as fh:
        rows = list(csv.DictReader(fh))
    arms = {row["condition"] for row in rows}
    assert arms == {"none", "heuristic", "heuristic+symbolic", "heuristic+discriminator", "all"}
    # every arm is paired against the full pipeline, which has no p-value itself
    for row in rows:
        assert (row["p_vs_all"] == "") == (row["condition"] == "all")


def test_cli_cf_uncertainty_is_uncertainty_plus_the_vt_survivors(walkthrough_seed7,
                                                                 copy_walkthrough):
    """`cf_uncertainty` grows an uncertainty order on the originals plus
    `survivors_vt.jsonl`: with that file empty, its rows are `uncertainty`'s."""
    def rows_of(results, condition):
        return [row[1:] for row in results if row[0] == condition]

    with open(walkthrough_seed7.dir / "out" / "results.csv", encoding="utf-8", newline="") as fh:
        results = list(csv.reader(fh))
    assert rows_of(results, "cf_uncertainty") != rows_of(results, "uncertainty")
    work = copy_walkthrough(walkthrough_seed7)
    (work.dir / "out" / "survivors_vt.jsonl").write_text("", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(work.config)]) == 0
    with open(work.dir / "out" / "results.csv", encoding="utf-8", newline="") as fh:
        results = list(csv.reader(fh))
    assert rows_of(results, "cf_uncertainty") == rows_of(results, "uncertainty") != []


def test_cli_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.yaml"
    bad_cfg.write_text("dataset: {path: missing.csv}\n", encoding="utf-8")
    assert main(["synth", "--config", str(bad_cfg)]) == 2
    assert main(["synth", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert "config file not found" in capsys.readouterr().err

    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 2  # survivors missing
    assert main(["gen", "--config", str(config)]) == 2
    assert "patterns.json not found; run `patvar synth` first" in capsys.readouterr().err
    assert main(["report", "--config", str(config)]) == 2
    assert "nothing to report" in capsys.readouterr().err

    assert main(["synth", "--config", str(config)]) == 0
    not_a_dir = tmp_path / "cache_file"
    not_a_dir.write_text("", encoding="utf-8")
    assert main(["gen", "--config", str(config), "--cache-dir", str(not_a_dir)]) == 3
    assert "backend error: cannot write cache entry" in capsys.readouterr().err

    empty_csv = tmp_path / "data.csv"
    empty_csv.write_text("text,label\n", encoding="utf-8")
    assert main(["synth", "--config", str(config)]) == 2  # empty dataset


def test_cli_filter_without_candidates_exits_2(tmp_path, capsys):
    write_csv(tmp_path / "data.csv", make_rows(60, seed=3))
    config = write_config(tmp_path, synthesis={"max_atoms": 1})
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["filter", "--config", str(config)]) == 2
    assert "candidates_vt.jsonl not found; run `patvar gen` first" in capsys.readouterr().err
    assert not (tmp_path / "out" / "quality_report.json").exists()


@pytest.mark.parametrize("min_precision, floors", [(0.5, [0.5]), (1.0, [1.0, 0.8])])
def test_cli_synth_retries_only_a_floor_above_the_relaxed_one(tmp_path, monkeypatch, caplog,
                                                             min_precision, floors):
    # With no candidates, each label's one search ends at the last floor tried,
    # and synth writes the label with no patterns.
    write_csv(tmp_path / "data.csv", make_rows(60, seed=3))
    config = write_config(tmp_path, synthesis={"min_precision": min_precision})
    searches = collections.Counter()

    def finds_nothing(pool, label, cfg, lex):
        searches[label] += 1
        return []

    monkeypatch.setattr(synthesis, "enumerate_candidates", finds_nothing)
    with caplog.at_level("WARNING", logger="patvar"), contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--config", str(config)]) == 0
    payload = json.loads((tmp_path / "out" / "patterns.json").read_text(encoding="utf-8"))
    assert searches and set(searches.values()) == {1}
    assert all(payload["patterns"][label] == [] for label in searches)
    for label in searches:
        assert (f"label {label!r}: no pattern (no candidate reaches precision {floors[-1]} "
                in caplog.text)
    assert "relaxed" not in caplog.text


def test_cli_synth_packs_the_pool_once(walkthrough_seed7, copy_walkthrough, monkeypatch):
    # One feature table per pool example, not one per example and label.
    work = copy_walkthrough(walkthrough_seed7)
    tables = []

    def counted(tokens):
        tables.append(tokens)
        return features(tokens)

    features = synthesis.sentence_features
    monkeypatch.setattr(synthesis, "sentence_features", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--config", str(work.config)]) == 0
    assert len(tables) == 200
    for name in ("patterns.json", "patterns.txt"):
        assert ((work.dir / "out" / name).read_bytes()
                == (walkthrough_seed7.dir / "out" / name).read_bytes()), name


def forbid_backend_requests(monkeypatch):
    def forbidden(self, req):
        raise AssertionError("a request reached the backend")

    monkeypatch.setattr(gateway.MockBackend, "send", forbidden)


def test_cli_gen_targets_do_not_depend_on_the_simulation_seeds(tmp_path):
    """Past six labels `gen` samples three targets per row, seeded by
    dataset.split_seed: a `--seed` run writes the same candidates."""
    rows = [(text, f"{label}{i // 4 % 2}") for i, (text, label) in enumerate(make_rows(80, seed=3))]
    write_csv(tmp_path / "data.csv", rows)
    config = write_config(tmp_path, synthesis={"max_atoms": 1})
    out = tmp_path / "out"
    written = []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--config", str(config)]) == 0
        for seed in ([], ["--seed", "1"]):
            assert main(["gen", "--config", str(config), *seed]) == 0
            written.append({name: (out / name).read_bytes() for name in WRITERS["gen"]})
    assert len(json.loads((out / "patterns.json").read_text())["label_set"]) == 8
    assert written[0]["candidates_novt.jsonl"] and written[0] == written[1]


def test_cli_gen_rejects_single_label(tmp_path, capsys, monkeypatch):
    rows = [row for row in make_rows(120, seed=3) if row[1] == "price"]
    write_csv(tmp_path / "data.csv", rows)
    config = write_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    forbid_backend_requests(monkeypatch)
    assert main(["gen", "--config", str(config)]) == 2
    assert "need at least two labels, the dataset has ['price']" in capsys.readouterr().err


@pytest.mark.parametrize("label_set", [[], ["price"], [*LABEL_VOCAB, "extra"], ["a", "b"]],
                         ids=["empty", "single", "extra", "other"])
def test_cli_gen_rejects_patterns_for_other_labels(tmp_path, capsys, monkeypatch, label_set):
    config = write_config(tmp_path, seeds=[0])
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "patterns.json").write_text(
        json.dumps({"dataset": "data", "label_set": label_set,
                    "patterns": {label: [] for label in label_set}}), encoding="utf-8"
    )
    forbid_backend_requests(monkeypatch)
    assert main(["gen", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "patterns.json is for the labels" in err and "run `patvar synth` again" in err
    assert not (tmp_path / "out" / "candidates_vt.jsonl").exists()


def test_cli_gen_compares_the_patterns_labels_as_a_set(walkthrough_seed7, copy_walkthrough):
    work = copy_walkthrough(walkthrough_seed7)
    out = work.dir / "out"
    payload = json.loads((out / "patterns.json").read_text(encoding="utf-8"))
    payload["label_set"].reverse()
    (out / "patterns.json").write_text(json.dumps(payload), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(work.config)]) == 0
    shared = walkthrough_seed7.dir / "out"
    for name in WRITERS["gen"]:
        assert (out / name).read_bytes() == (shared / name).read_bytes(), name


@pytest.mark.parametrize("missing, extra", [(["price"], ["bogus"]), (["price"], []),
                                            ([], ["bogus"])], ids=["both", "missing", "extra"])
def test_cli_gen_rejects_patterns_keyed_by_other_labels(walkthrough_seed7, copy_walkthrough, capsys,
                                                        monkeypatch, missing, extra):
    work = copy_walkthrough(walkthrough_seed7)
    out = work.dir / "out"
    payload = json.loads((out / "patterns.json").read_text(encoding="utf-8"))
    for label in missing:
        del payload["patterns"][label]
    payload["patterns"].update({label: [] for label in extra})
    (out / "patterns.json").write_text(json.dumps(payload), encoding="utf-8")
    (out / "candidates_vt.jsonl").unlink()
    forbid_backend_requests(monkeypatch)
    assert main(["gen", "--config", str(work.config)]) == 2
    err = capsys.readouterr().err
    assert (f"{out / 'patterns.json'} misses the patterns of the labels {missing} and has extra "
            f"ones for {extra}; run `patvar synth` again") in err
    assert not (out / "candidates_vt.jsonl").exists()


@pytest.mark.parametrize("line", [
    '{"id": "a", "raw": "x", "tokens": [{"surface": "x", "lemma": 3}]}',
    '{"id": "a", "raw": "x", "tokens": 5}',
    '["a", "x", []]',
    '{"id": "a", "raw": "Good", "tokens": [{"surface": "Good", "lemma": "Good"}]}',
    '{"id": "a", "raw": "Rome", "tokens": [{"surface": "Rome", "lemma": "rome", "entity": "loc"}]}',
    '{"id": "a", "raw": "hello there", "tokens": [{"surface": "hi", "lemma": "hi"}]}',
], ids=["lemma_not_string", "tokens_not_list", "not_object", "lemma_not_lowercase",
        "entity_not_uppercase", "tokens_do_not_spell_raw"])
def test_cli_rejects_malformed_annotations(tmp_path, capsys, provider, line):
    (tmp_path / "ann.jsonl").write_text(
        json.dumps(sentence_to_record(provider.annotate("The food was cheap."))) + "\n" + line + "\n",
        encoding="utf-8",
    )
    config = write_config(tmp_path, annotations="ann.jsonl")
    assert main(["synth", "--config", str(config)]) == 2
    assert "ann.jsonl line 2" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    "{not json",
    '{"patterns": {"price": []}}',
    '{"label_set": ["price", "service"]}',
    '{"label_set": ["price", "service"], "patterns": {"price": ["price"]}}',
    '{"label_set": "price", "patterns": {}}',
    json.dumps({"label_set": list(LABEL_VOCAB), "patterns": {
        label: [{"pattern": "[cheap]+BOGUS" if label == "price" else "[x]"}]
        for label in LABEL_VOCAB}}),
], ids=["not_json", "no_label_set", "no_patterns", "entry_not_mapping", "label_set_not_list",
        "pattern_does_not_parse"])
def test_cli_gen_rejects_malformed_patterns(tmp_path, capsys, content):
    config = write_config(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "patterns.json").write_text(content, encoding="utf-8")
    assert main(["gen", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "patterns.json" in err
    if "BOGUS" in content:
        assert "the label 'price'" in err and "'BOGUS' is not a POS tag" in err


def pool_dataset(config):
    """The dataset as a command ingests it: a multi-label one through the gateway."""
    ctx = cli.Context(load_config(config), str(config))
    try:
        return ctx.dataset
    finally:
        ctx.close()


def pool_candidate(dataset) -> dict:
    """The record of a candidate of the first `price` example of the pool."""
    ex = next(ex for ex in dataset.examples if ex.label == "price")
    task = GenerationTask(ex.sentence, "price", "service", parse_pattern("[cheap]"), "cheap")
    return candidate_to_record(CounterfactualCandidate("u0", task, "the staff was rude.", "rude"))


@pytest.mark.parametrize("kind", ["missing_keys", "id_not_string", "text_not_string",
                                  "not_mapping", "not_json", "holdout_id", "unknown_id",
                                  "original_text_differs", "original_label_differs",
                                  "target_label_unknown", "empty_pattern", "no_matched_phrase",
                                  "no_used_phrase", "no_finish_reason", "bad_finish_reason",
                                  "repeated_uid"])
def test_cli_simulate_rejects_malformed_survivor(tmp_path, capsys, kind):
    config = write_config(tmp_path, conditions=["random", "counterfactual"])
    dataset = pool_dataset(config)
    good = pool_candidate(dataset)
    held_out = dataset.holdout[0].sentence
    bad = {
        "missing_keys": {"generated_text": "x"},
        "id_not_string": {**good, "original_id": 3},
        "text_not_string": {**good, "original_text": None},
        "not_mapping": [good["original_id"], good["generated_text"], good["target_label"]],
        "holdout_id": {**good, "original_id": held_out.id, "original_text": held_out.raw},
        "unknown_id": {**good, "original_id": "r99999"},
        "original_text_differs": {**good, "original_text": good["original_text"] + " x"},
        "original_label_differs": {**good, "original_label": "environment"},
        "target_label_unknown": {**good, "target_label": "bogus"},
        "empty_pattern": {**good, "pattern": ""},
        "bad_finish_reason": {**good, "finish_reason": "bogus"},
        "repeated_uid": {**good, "generated_text": "the waiter was friendly."},
        **{f"no_{key}": {k: v for k, v in good.items() if k != key}
           for key in ("matched_phrase", "used_phrase", "finish_reason")},
    }
    line = "{not json" if kind == "not_json" else json.dumps(bad[kind])
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "survivors_vt.jsonl").write_text(
        json.dumps(good) + "\n" + line + "\n", encoding="utf-8"
    )
    assert main(["simulate", "--config", str(config), "--seed", "0"]) == 2
    assert "survivors_vt.jsonl line 2" in capsys.readouterr().err


def write_two_label_patterns(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "patterns.json").write_text(
        json.dumps({"dataset": "data", "label_set": ["price", "service"],
                    "patterns": {"price": [{"pattern": "[cheap]"}], "service": []}}),
        encoding="utf-8",
    )


def malformed_candidate(config, kind):
    record = pool_candidate(pool_dataset(config))
    if kind == "empty":
        return {}
    if kind == "no_generated_text":
        del record["generated_text"]
    elif kind == "uid_not_string":
        record["uid"] = 3
    elif kind == "bad_pattern":
        record["pattern"] = "[cheap"
    elif kind == "empty_pattern":
        record["pattern"] = ""
    elif kind in ("no_matched_phrase", "no_used_phrase", "no_finish_reason"):
        del record[kind[len("no_"):]]
    elif kind == "unknown_original_id":
        record["original_id"] = "r99999"
    elif kind == "original_text_differs":
        record["original_text"] = record["original_text"].upper()
    elif kind == "original_label_differs":
        record["original_label"] = "environment"
    elif kind == "target_label_unknown":
        record["target_label"] = "bogus"
    elif kind == "bad_finish_reason":
        record["finish_reason"] = "bogus"
    elif kind == "repeated_uid":  # the uid of the good record on line 1
        record["generated_text"] = "the waiter was friendly."
    return record


@pytest.mark.parametrize("command", ["filter", "ablate"])
@pytest.mark.parametrize("kind", ["empty", "no_generated_text", "uid_not_string", "bad_pattern",
                                  "unknown_original_id", "original_text_differs",
                                  "original_label_differs", "target_label_unknown",
                                  "empty_pattern", "no_matched_phrase", "no_used_phrase",
                                  "no_finish_reason", "bad_finish_reason", "repeated_uid"])
def test_cli_rejects_malformed_candidate(tmp_path, capsys, command, kind):
    """`filter` reads the candidates file, `ablate` the audit file."""
    config = write_config(tmp_path, seeds=[0])
    write_two_label_patterns(tmp_path)
    name, judged = "candidates_vt.jsonl", {}
    if command == "ablate":
        name, judged = "audit_vt.jsonl", audit_fields()
    records = [malformed_candidate(config, "good"), malformed_candidate(config, kind)]
    (tmp_path / "out" / name).write_text(
        "".join(json.dumps({**record, **judged}) + "\n" for record in records), encoding="utf-8"
    )
    assert main([command, "--config", str(config)]) == 2
    assert f"{name} line 2" in capsys.readouterr().err


def audit_fields():
    """The fields `filter` adds to a candidate's record in the audit file."""
    return {"discriminator_label": "service",
            "verdicts": {stage: {"status": "passed", "reason": ""} for stage in STAGES}}


@pytest.mark.parametrize("command", ["simulate", "ablate"])
def test_cli_grid_rejects_an_empty_holdout(tmp_path, capsys, command):
    write_csv(tmp_path / "data.csv", make_rows(12, seed=3))
    config = write_config(tmp_path, dataset={"holdout_fraction": 0.02}, conditions=["random"],
                          shots=[2, 4], seeds=[0])
    assert main([command, "--config", str(config)]) == 2
    assert "config error: dataset.holdout_fraction 0.02 leaves the holdout empty" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out" / "results.csv").exists()


def test_cli_ablate_needs_the_audit(tmp_path, capsys):
    config = write_config(tmp_path, seeds=[0])
    assert main(["ablate", "--config", str(config)]) == 2
    assert "audit_vt.jsonl not found; run `patvar filter` first" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["verdicts_not_object", "stage_missing", "unknown_status",
                                  "reason_missing", "reason_not_string", "label_missing",
                                  "label_not_string"])
def test_cli_ablate_rejects_malformed_verdicts(tmp_path, capsys, kind):
    config = write_config(tmp_path, seeds=[0])
    good = {**malformed_candidate(config, "good"), **audit_fields()}
    other = {**good, "uid": "u1"}  # a uid of its own, so the line reaches the verdict checks
    verdicts = good["verdicts"]
    bad = {
        "verdicts_not_object": {**other, "verdicts": ["passed", "passed", "passed"]},
        "stage_missing": {**other, "verdicts": {s: verdicts[s] for s in STAGES[:2]}},
        "unknown_status": {**other, "verdicts": {**verdicts, "symbolic": {"status": "kept",
                                                                          "reason": ""}}},
        "reason_missing": {**other, "verdicts": {**verdicts, "heuristic": {"status": "passed"}}},
        "reason_not_string": {**other, "verdicts": {**verdicts, "heuristic": {"status": "passed",
                                                                              "reason": None}}},
        "label_missing": {k: v for k, v in other.items() if k != "discriminator_label"},
        "label_not_string": {**other, "discriminator_label": 5},
    }[kind]
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "audit_vt.jsonl").write_text(
        json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8"
    )
    assert main(["ablate", "--config", str(config)]) == 2
    message = ("discriminator_label must be a string or null" if kind.startswith("label_")
               else "verdicts must be an object over the stages")
    assert f"audit_vt.jsonl line 2: {message}" in capsys.readouterr().err


def test_cli_ablate_featurizes_each_sentence_once(walkthrough_seed7, copy_walkthrough, monkeypatch):
    work = copy_walkthrough(walkthrough_seed7)
    out = work.dir / "out"
    built = []
    init = LemmaIds.__init__

    def spy(self, sentences):
        init(self, sentences)
        built.append(self)

    monkeypatch.setattr(LemmaIds, "__init__", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ablate", "--config", str(work.config)]) == 0
    # One LemmaIds for the run, with one row per distinct sentence: the five
    # arms share the pool, the holdout and the annotation of each survivor
    # text (the `none` arm keeps every line of the audit).
    [features] = built
    dataset = pool_dataset(work.config)
    texts = {json.loads(line)["generated_text"]
             for line in (out / "audit_vt.jsonl").read_text(encoding="utf-8").splitlines()}
    assert len(features.sentences) == len(dataset.examples) + len(dataset.holdout) + len(texts)


def test_cli_ablate_annotates_each_audit_line_once(walkthrough_seed7, copy_walkthrough,
                                                   monkeypatch):
    """The five arms share their survivors: no text is annotated twice,
    however many arms keep it, and every audit line's text is served."""
    work = copy_walkthrough(walkthrough_seed7)
    out = work.dir / "out"
    calls = count_annotations(monkeypatch)
    served = []
    original = Annotator.annotate

    def serving(self, raw):
        served.append(raw)
        return original(self, raw)

    monkeypatch.setattr(Annotator, "annotate", serving)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ablate", "--config", str(work.config)]) == 0
    records = [json.loads(line)
               for line in (out / "audit_vt.jsonl").read_text(encoding="utf-8").splitlines()]
    # A line that passed every stage is in all five arms.
    assert any(all(v["status"] == "passed" for v in r["verdicts"].values()) for r in records)
    assert calls and len(calls) == len(set(calls))
    assert {r["generated_text"] for r in records} <= set(served)


CANDIDATE_FIELDS = ("uid", "original_id", "original_text", "original_label", "target_label",
                    "pattern", "generated_text")
SURVIVOR_FIELDS = ("original_id", "original_text", "generated_text", "target_label")
# artifact -> (the commands that read it, the fields their reader needs in each record)
ARTIFACT_READERS = {
    "patterns.json": (("gen",), ("label_set", "patterns")),
    "candidates_vt.jsonl": (("filter",), CANDIDATE_FIELDS),
    "audit_vt.jsonl": (("ablate",), (*CANDIDATE_FIELDS, "verdicts", "discriminator_label")),
    "candidates_novt.jsonl": (("filter",), CANDIDATE_FIELDS),
    "survivors_vt.jsonl": (("simulate",), SURVIVOR_FIELDS),
    "survivors_novt.jsonl": (("simulate",), SURVIVOR_FIELDS),
    "quality_report.json": (("report",), ("vt",)),
    # "report --external" reads the file as another run's results. Only
    # macro_f1 is a field that 5, 2.5 and true each make invalid.
    "results.csv": (("report", "report --external"), ("macro_f1",)),
}


@pytest.fixture(scope="module")
def tiny_walkthrough(tmp_path_factory):
    """A 60-row run for the 100 examples below, each of which copies `out/`
    and runs one command: on the 300-row walkthrough they take twice as long."""
    tmp_path = tmp_path_factory.mktemp("tiny")
    write_csv(tmp_path / "data.csv", make_rows(60, seed=3))
    config = write_config(tmp_path, synthesis={"max_atoms": 1}, shots=[3, 6], seeds=[0])
    for command in ("synth", "gen", "filter", "simulate"):
        assert main([command, "--config", str(config)]) == 0
    return tmp_path, config


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_corrupted_artifact_exits_cleanly(tiny_walkthrough, data):
    source, config = tiny_walkthrough
    name = data.draw(st.sampled_from(sorted(ARTIFACT_READERS)), label="artifact")
    commands, fields = ARTIFACT_READERS[name]
    command = data.draw(st.sampled_from(commands), label="command")
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out")
        shutil.copytree(source / "out", out)
        path = os.path.join(out, name)
        extra = []
        if command == "report --external":
            path = shutil.move(path, os.path.join(work, "external.csv"))
            command, extra = "report", ["--external", path]
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        # a .jsonl or .csv file is one record per line; a .json file is one record
        lines = [text.rstrip("\n")] if name.endswith(".json") else text.splitlines()
        index = data.draw(st.integers(0, len(lines) - 1), label="line")
        kind = data.draw(st.sampled_from(["truncate", "drop_key", "change_type", "not_utf8"]),
                         label="kind")
        if kind == "truncate":
            # No strict prefix of a JSON object is JSON; a CSV row cut before
            # its last comma has too few fields.
            stop = lines[index].rindex(",") if name.endswith(".csv") else len(lines[index]) - 1
            lines[index] = lines[index][: data.draw(st.integers(1, stop))]
        elif kind != "not_utf8":
            key = data.draw(st.sampled_from(fields), label="key")
            value = data.draw(st.sampled_from([5, 2.5, True]), label="value")
            if name.endswith(".csv"):  # the header row is a record too
                cells = lines[index].split(",")
                column = lines[0].split(",").index(key)
                if kind == "drop_key":
                    del cells[column]
                else:
                    cells[column] = str(value)
                lines[index] = ",".join(cells)
            else:
                record = json.loads(lines[index])
                if kind == "drop_key":
                    del record[key]
                else:
                    record[key] = value
                lines[index] = json.dumps(record)
        encoded = [line.encode("utf-8") for line in lines]
        if kind == "not_utf8":
            at = data.draw(st.integers(0, len(encoded[index])), label="byte")
            encoded[index] = encoded[index][:at] + b"\xff\xfe" + encoded[index][at:]
        with open(path, "wb") as fh:
            fh.write(b"\n".join(encoded) + b"\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config), "--out", out,
                         "--cache-dir", str(source / "cache"), *extra])
    assert code in (2, 4)
    assert os.path.basename(path) in err.getvalue()
    if name.endswith(".jsonl") or (kind == "not_utf8" and name.endswith(".csv")):
        assert f"line {index + 1}" in err.getvalue()


def test_cli_filter_needs_no_patterns_file(walkthrough_seed7, copy_walkthrough):
    work = copy_walkthrough(walkthrough_seed7)
    out, cache = work.dir / "out", work.dir / "cache"
    (out / "patterns.json").unlink()
    before = sorted(os.listdir(cache))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["filter", "--config", str(work.config)]) == 0
    assert sorted(os.listdir(cache)) == before
    shared = walkthrough_seed7.dir / "out"
    for name in WRITERS["filter"]:
        assert (out / name).read_bytes() == (shared / name).read_bytes(), name


def test_cli_unwritable_output_directory_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, synthesis={"max_atoms": 1})
    (tmp_path / "afile").write_text("", encoding="utf-8")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "afile")]) == 2
    assert "cannot create the output directory" in capsys.readouterr().err


def test_cli_synth_checks_the_output_directory_before_the_search(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    (tmp_path / "afile").write_text("", encoding="utf-8")

    def search(*args):
        raise AssertionError("the pattern search ran")

    monkeypatch.setattr(cli, "synthesize_patterns", search)
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "afile")]) == 2
    assert "cannot create the output directory" in capsys.readouterr().err


def test_cli_filter_ignores_the_verdicts_a_line_holds(walkthrough_seed7, copy_walkthrough):
    work = copy_walkthrough(walkthrough_seed7)
    out = work.dir / "out"
    for name in ("vt", "novt"):
        path = out / f"candidates_{name}.jsonl"
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for record in records:
            record["verdicts"] = {stage: {"status": "passed", "reason": ""} for stage in STAGES}
            record["discriminator_label"] = record["original_label"]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["filter", "--config", str(work.config)]) == 0
    shared = walkthrough_seed7.dir / "out"
    for name in ("survivors_vt.jsonl", "audit_vt.jsonl", "survivors_novt.jsonl", "audit_novt.jsonl"):
        assert (out / name).read_bytes() == (shared / name).read_bytes(), name


@pytest.mark.parametrize("skipped", [None, "heuristic", "symbolic", "discriminator"],
                         ids=["older_filter", "no_heuristic", "no_symbolic", "no_discriminator"])
def test_cli_ablate_rejects_an_audit_with_unjudged_stages(walkthrough_seed7, copy_walkthrough,
                                                          capsys, skipped):
    """An audit whose heuristic passer has a stage that is neither passed nor
    failed exits 2 in `ablate`: one from a `filter` that stopped at a
    candidate's first failure, or from one whose config could disable a
    stage, which it wrote as skipped."""
    work = copy_walkthrough(walkthrough_seed7)
    audit = work.dir / "out" / "audit_vt.jsonl"
    records = [json.loads(line) for line in audit.read_text(encoding="utf-8").splitlines()]
    line = next(i for i, r in enumerate(records, 1)
                if i > 1 and r["verdicts"]["heuristic"]["status"] == "passed")
    record = records[line - 1]
    if skipped:
        record["verdicts"][skipped] = {"status": "skipped", "reason": "stage disabled"}
    else:  # a symbolic failure as a filter that stopped at the first failure wrote it
        record["discriminator_label"] = None
        record["verdicts"].update(symbolic={"status": "failed", "reason": "no match"},
                                  discriminator={"status": "pending", "reason": ""})
    audit.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["ablate", "--config", str(work.config)]) == 2
    err = capsys.readouterr().err
    assert f"audit_vt.jsonl line {line}: " in err and "run `patvar filter` again" in err


def test_cli_multilabel_parts_join_and_survive(tmp_path):
    """Candidates of the separated parts of multi-labeled rows (ids
    `rNNNNN#k`) are read back by `filter` and `simulate` through the dataset."""
    rows = make_rows(160, seed=3)
    pairs = zip(rows[::2], rows[1::2])  # labels are round-robin: each pair has two
    write_csv(tmp_path / "data.csv", [
        (f"{a} {b}", f"{label_a}|{label_b}") if i % 4 == 0 else (a, label_a)
        for i, ((a, label_a), (b, label_b)) in enumerate(pairs)
    ])
    config = write_config(tmp_path, dataset={"multi_label": True})
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("synth", "gen", "filter", "simulate"):
            assert main([command, "--config", str(config)]) == 0, command
    parts = {ex.sentence.id: ex.sentence.raw for ex in pool_dataset(config).examples
             if "#" in ex.sentence.id}
    for name in ("vt", "novt"):
        survivors = [json.loads(line) for line in
                     (tmp_path / "out" / f"survivors_{name}.jsonl").read_text().splitlines()]
        joined = [s for s in survivors if s["original_id"] in parts]
        assert joined, name
        assert all(s["original_text"] == parts[s["original_id"]] for s in joined)


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_report_rejects_unreadable_external(tmp_path, capsys, kind):
    config = write_config(tmp_path)
    external = tmp_path / "external.csv"
    if kind == "directory":
        external.mkdir()
    assert main(["report", "--config", str(config), "--external", str(external)]) == 2
    assert "external.csv" in capsys.readouterr().err


# input file -> config overrides that make `synth` read it
INPUT_FILES = {
    "exp.yaml": {},
    "data.csv": {},
    "data.jsonl": {"dataset": {"path": "data.jsonl", "format": "jsonl"}},
    "annotations.jsonl": {"annotations": "annotations.jsonl"},
    "lexicon.tsv": {"lexicon": "lexicon.tsv"},
}


@pytest.mark.parametrize("name, kind, message", [
    ("exp.yaml", "not_utf8", "not UTF-8"),
    ("data.csv", "not_utf8", "not UTF-8"),
    ("data.jsonl", "not_utf8", "not UTF-8"),
    ("data.jsonl", "truncate", "not JSON"),
    ("annotations.jsonl", "not_utf8", "not UTF-8"),
    ("annotations.jsonl", "truncate", "not JSON"),
    ("lexicon.tsv", "not_utf8", "not UTF-8"),
    ("data.csv", "malformed", "missing field 'label'"),
    ("data.jsonl", "malformed", "record needs fields 'text' and 'label'"),
    ("lexicon.tsv", "malformed", "expected `lemma<TAB>synonyms` format"),
])
def test_cli_corrupted_input_exits_2(tmp_path, capsys, name, kind, message):
    rows = make_rows(40, seed=3)
    write_csv(tmp_path / "data.csv", rows)
    with open(tmp_path / "data.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"text": text, "label": label}) + "\n" for text, label in rows)
    provider = FixtureAnnotationProvider()
    with open(tmp_path / "annotations.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(sentence_to_record(provider.annotate(text))) + "\n"
                      for text, _ in rows[:5])
    (tmp_path / "lexicon.tsv").write_text("pricey\texpensive\ntasty\tdelicious\n", encoding="utf-8")
    config = write_config(tmp_path, **INPUT_FILES[name])
    path = tmp_path / name
    lines = path.read_bytes().splitlines()
    index = 1  # the second line; a .csv file's first record
    if kind == "truncate":
        lines[index] = lines[index][:-1]
    elif kind == "malformed":  # a line without its label or its tab
        lines[index] = b'{"text": "notab"}' if name.endswith(".jsonl") else b"notab"
    else:
        lines[index] = lines[index][:3] + b"\xff\xfe" + lines[index][3:]
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["synth", "--config", str(config)]) == 2
    assert f"{name} line {index + 1}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name, multi_label, line, message", [
    ("data.jsonl", False, b'{"text": "good food", "label": ""}', "field 'label' holds an empty label"),
    ("data.jsonl", True, b'{"text": "good food", "label": []}', "field 'label' holds an empty label"),
    ("data.jsonl", False, b'{"text": "good food", "label": null}', "field 'label' holds a null label"),
    ("data.jsonl", True, b'{"text": "good food", "label": [null]}', "field 'label' holds a null label"),
    ("data.jsonl", False, b'{"text": "good food", "label": ["products", "service"]}',
     "field 'label' is a list; that needs multi_label: true"),
    ("data.jsonl", False, b'{"text": null, "label": "products"}', "field 'text' is null"),
    ("data.csv", True, b"good food,|", "field 'label' holds an empty label"),
    ("data.csv", True, b"good food,products|", "field 'label' holds an empty label"),
], ids=["empty", "empty_list", "null", "null_in_list", "list_without_multi_label", "null_text",
        "csv_only_delimiter", "csv_empty_part"])
def test_cli_malformed_labels_exit_2(tmp_path, capsys, name, multi_label, line, message):
    """A row's labels must be a non-empty list of non-empty strings after
    splitting; the text and labels of a JSONL row may not be null."""
    rows = make_rows(40, seed=3)
    write_csv(tmp_path / "data.csv", rows)
    with open(tmp_path / "data.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"text": text, "label": label}) + "\n" for text, label in rows)
    dataset = {**INPUT_FILES[name].get("dataset", {}), "multi_label": multi_label}
    config = write_config(tmp_path, dataset=dataset)
    path = tmp_path / name
    lines = path.read_bytes().splitlines()
    lines[2] = line
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["synth", "--config", str(config)]) == 2
    assert f"{name} line 3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "ablate"])
def test_cli_rejects_shot_above_pool(tmp_path, capsys, command):
    config = write_config(tmp_path, conditions=["random"], shots=[5, 10, 500])
    assert main([command, "--config", str(config)]) == 2
    assert "config error: bad shots: largest shot 500 exceeds pool size 90" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "ablate"])
def test_cli_checks_shots_before_reading_survivors(tmp_path, capsys, command):
    """A bad shot exits 2 naming the shot before any survivors or audit file
    is read, so it is named even when those files do not exist."""
    config = write_config(tmp_path, shots=[10, 999])
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error: bad shots: largest shot 999 exceeds pool size 90" in err
    assert "not found" not in err


@pytest.mark.parametrize("content, warning", [("[]", "manifest was not a JSON object"),
                                              ("{not json", "manifest was unreadable")],
                         ids=["not_object", "not_json"])
def test_cli_rebuilds_manifest_that_is_not_an_object(tmp_path, caplog, content, warning):
    config = write_config(tmp_path)
    write_two_label_patterns(tmp_path)
    (tmp_path / "out" / "manifest.json").write_text(content, encoding="utf-8")
    with caplog.at_level("WARNING"):
        assert main(["synth", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"synth"}
    assert warning in caplog.text


def test_text_commands_never_import_numpy(tmp_path):
    """`synth`, `gen`, `filter` and `report` run in a fresh interpreter on
    the mock backend without importing numpy, ssl or urllib.request, and
    `import patvar` exposes only its version."""
    write_csv(tmp_path / "data.csv", make_rows(60, seed=3))
    config = write_config(tmp_path, synthesis={"max_atoms": 1}, shots=[3, 6], seeds=[0])
    script = "\n".join([
        "import json, sys",
        "import patvar",
        "exposed = [name for name in vars(patvar) if not name.startswith('__')]",
        "from patvar.cli import main",
        "commands = ('synth', 'gen', 'filter', 'report')",
        "codes = [main([command, '--config', sys.argv[1]]) for command in commands]",
        "loaded = [name in sys.modules for name in ('numpy', 'ssl', 'urllib.request')]",
        "print(json.dumps([exposed, patvar.__version__, codes, loaded]))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(patvar.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config)], cwd=tmp_path, capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    exposed, version, codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert exposed == [] and version == patvar.__version__
    assert codes == [0, 0, 0, 0]
    # numpy, and the ssl that the HTTP backend's client loads, stay unloaded
    assert loaded == [False, False, False]


def test_cluster_simulation_never_imports_numpy_random(tmp_path):
    """k-means++ draws its seeds from `random.Random`, so a `cluster`
    simulation in a fresh interpreter leaves `numpy.random` unloaded."""
    config = write_config(tmp_path, conditions=["cluster"], shots=[3, 6], seeds=[0, 1])
    script = "\n".join([
        "import json, sys",
        "from patvar.cli import main",
        "code = main(['simulate', '--config', sys.argv[1]])",
        "print(json.dumps([code, 'numpy' in sys.modules, 'numpy.random' in sys.modules]))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(patvar.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config)], cwd=tmp_path, capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, True, False]
