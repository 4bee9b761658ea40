"""The README walkthrough on corpus seeds 7 and 11 (the `walkthrough`
fixture): its outputs against their pinned hashes, and the properties that
tie its files to each other and to partial runs of the same experiment.
Acceptance criteria 08-10 read the same runs: the cold-start effect, a rerun
of every command, and a `gen` + `filter` replay against the cache."""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil

import yaml

from patvar.cli import main
from patvar.config import build_provider, ingest, load_config
from patvar.errors import in_file, read_jsonl
from patvar.filtering import rows_from_audit


def lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def run(config, *commands, out=None):
    extra = ["--out", str(out)] if out else []
    with contextlib.redirect_stdout(io.StringIO()):
        for command in commands:
            assert main([*command.split(), "--config", str(config), *extra]) == 0, command


def test_audit_reads_back_and_its_survivors_are_the_survivors_file(walkthrough):
    """`rows_from_audit` reads each audit line back as itself, and each
    survivors file is exactly the audit lines that no stage failed, in order."""
    cfg = load_config(walkthrough.config)
    dataset = ingest(cfg.dataset, build_provider(cfg))
    for name in ("vt", "novt"):
        path = walkthrough.dir / "out" / f"audit_{name}.jsonl"
        audit = lines(path)
        with in_file(str(path)):
            rows = rows_from_audit(read_jsonl(str(path)), dataset)
        encoded = {}
        assert [row.line(encoded) for row in rows] == audit
        survived = [line for line in audit if all(
            v["status"] != "failed" for v in json.loads(line)["verdicts"].values())]
        assert 0 < len(survived) < len(audit)
        assert lines(walkthrough.dir / "out" / f"survivors_{name}.jsonl") == survived


def test_audit_line_is_its_candidate_line_plus_the_verdicts(walkthrough):
    for name in ("vt", "novt"):
        candidates, audit = (
            [json.loads(line) for line in lines(walkthrough.dir / "out" / f"{kind}_{name}.jsonl")]
            for kind in ("candidates", "audit")
        )
        assert candidates and [r["uid"] for r in audit] == [r["uid"] for r in candidates]
        for cand, judged in zip(candidates, audit):
            assert "verdicts" not in cand and "discriminator_label" not in cand
            del judged["verdicts"], judged["discriminator_label"]
            assert judged == cand, cand["uid"]


def test_one_seed_gives_its_rows_of_the_full_run(walkthrough, copy_walkthrough):
    work = copy_walkthrough(walkthrough).dir
    run(work / "exp.yaml", "simulate --seed 3", "ablate --seed 3")
    for name in ("results.csv", "ablation_results.csv"):
        header, *rows = lines(walkthrough.dir / "out" / name)
        assert lines(work / "out" / name) == [header, *(r for r in rows if r.split(",")[3] == "3")]


def test_synth_out_writes_the_pinned_patterns_and_an_unlisted_seed_only_its_rows(
        walkthrough, copy_walkthrough):
    """`synth --out DIR` writes `patterns.json` and `patterns.txt` to DIR with
    their pinned bytes, and `simulate --seed 8`, a seed outside the config's
    list, writes only seed-8 rows."""
    work = copy_walkthrough(walkthrough).dir
    run(work / "exp.yaml", "synth", out=work / "alt")
    for name in ("patterns.json", "patterns.txt"):
        digest = hashlib.sha256((work / "alt" / name).read_bytes()).hexdigest()
        assert digest == walkthrough.pins[name], name
    run(work / "exp.yaml", "simulate --seed 8")
    header, *rows = lines(work / "out" / "results.csv")
    assert header == lines(walkthrough.dir / "out" / "results.csv")[0]
    assert rows and {r.split(",")[3] for r in rows} == {"8"}


def test_two_conditions_write_no_novt_set_and_give_their_rows_of_the_full_run(
        walkthrough, copy_walkthrough, backend_sends):
    """With no condition that trains on the `novt` set, `gen` writes none and
    `filter` reads none, not even a stale `candidates_novt.jsonl`."""
    work = copy_walkthrough(walkthrough).dir
    full = lines(work / "exp.yaml")
    subset = ["conditions: [random, counterfactual]" if line.startswith("conditions: ") else line
              for line in full]
    assert subset != full
    (work / "subset.yaml").write_text("".join(line + "\n" for line in subset), encoding="utf-8")
    out = work / "subset"
    out.mkdir()
    shutil.copy(work / "out" / "patterns.json", out)
    shutil.copy(work / "out" / "candidates_vt.jsonl", out / "candidates_novt.jsonl")
    segments = sorted(os.listdir(work / "cache"))
    run(work / "subset.yaml", "gen", "filter", "simulate", out=out)
    assert backend_sends == []
    assert sorted(os.listdir(work / "cache")) == segments
    vt = ["candidates_vt.jsonl", "survivors_vt.jsonl", "audit_vt.jsonl"]
    assert sorted(os.listdir(out)) == sorted(["patterns.json", *vt, "candidates_novt.jsonl",
                                              "quality_report.json", "results.csv",
                                              "summary.csv", "manifest.json"])
    for name in vt:
        assert (out / name).read_bytes() == (work / "out" / name).read_bytes(), name
    assert (out / "candidates_novt.jsonl").read_bytes() == (out / "candidates_vt.jsonl").read_bytes()
    assert sorted(json.loads((out / "quality_report.json").read_text(encoding="utf-8"))) == \
        ["dataset", "vt"]
    header, *rows = lines(work / "out" / "results.csv")
    assert lines(out / "results.csv") == [
        header, *(r for r in rows if r.split(",")[0] in ("random", "counterfactual"))]


# Six words per label that no row of the synthetic corpus contains. The mock
# writes a label's first three words into every rewrite toward it.
DISJOINT_VOCAB = {
    "service": ["server", "host", "courteous", "polite", "slow", "welcoming"],
    "price": ["bill", "cost", "pricey", "bargain", "value", "steep"],
    "environment": ["ambience", "lighting", "music", "crowded", "calm", "spacious"],
    "products": ["dish", "pasta", "dessert", "flavorful", "stale", "portion"],
}


def gap_at_10(out):
    """`counterfactual` - `random` mean macro-F1 at 10 shots in `out/summary.csv`."""
    mean = {row.split(",")[0]: float(row.split(",")[3])
            for row in lines(out / "summary.csv")[1:] if row.split(",")[2] == "10"}
    return mean["counterfactual"] - mean["random"]


def test_cold_start_gain_needs_the_mocks_words_in_the_corpus(walkthrough_seed7, tmp_path):
    """The README's `label_vocab` is the corpus generator's own cue words; with
    words that no row contains, the 10-shot gain of `counterfactual` over
    `random` falls from +.181 to -.028 on seed 7. The gain measures how much of
    the corpus's vocabulary the mock writes, so assert the drop, not a sign."""
    data = (walkthrough_seed7.dir / "data.csv").read_text(encoding="utf-8")
    assert not set(re.findall(r"[a-z]+", data)) & {w for ws in DISJOINT_VOCAB.values() for w in ws}
    cfg = yaml.safe_load(walkthrough_seed7.config.read_text(encoding="utf-8"))
    cfg["backend"]["label_vocab"] = DISJOINT_VOCAB
    cfg["conditions"] = ["random", "counterfactual"]
    (tmp_path / "exp.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
    (tmp_path / "data.csv").write_text(data, encoding="utf-8")
    (tmp_path / "out").mkdir()
    shutil.copy(walkthrough_seed7.dir / "out" / "patterns.json", tmp_path / "out")
    run(tmp_path / "exp.yaml", "gen", "filter", "simulate")
    pinned, disjoint = gap_at_10(walkthrough_seed7.dir / "out"), gap_at_10(tmp_path / "out")
    assert disjoint < pinned - 0.1, f"10-shot gap {pinned:+.3f} pinned, {disjoint:+.3f} disjoint"


def test_outputs_match_their_pins(walkthrough):
    """Last in the session's order, so it sees the shared walkthrough after
    every other test has read it."""
    assert len(walkthrough.pins) == 15
    assert walkthrough.moved() == []
