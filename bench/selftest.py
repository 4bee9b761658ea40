"""Self-test of the benchmark's correctness checks.

Runs the pipeline once on the walkthrough corpus (one-atom synthesis, so it
takes seconds), checks that the clean outputs pass every check, then feeds
each check a corrupted copy of the outputs and expects it to fail.

    python3 bench/selftest.py
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import sys

import run  # sets up the import path of the checkout's patvar
import checks

WORK = os.path.join(run.WORK, "selftest")


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _edit_jsonl(path, edit):
    records = checks.read_jsonl(path)
    records = edit(records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def _edit_csv(path, edit):
    rows = checks.read_csv(path)
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def _first_pattern(payload):
    return next(entries[0] for entries in payload["patterns"].values() if entries)


def _set(record, key, value):
    record[key] = value
    return record


def _changed_p(rows):
    row = next(r for r in rows if r["p_vs_counterfactual"])
    row["p_vs_counterfactual"] = f"{float(row['p_vs_counterfactual']) * 1.01:.6g}"
    return rows


def _changed_mean(rows):
    rows[0]["mean"] = f"{float(rows[0]['mean']) + 0.001:.6f}"
    return rows


def _drop_report_row(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(line for line in text.split("\n") if not line.startswith("| cluster ")))


# (check, what is corrupted, how)
CASES = [
    ("patterns", "a pattern with a wrong covered list",
     lambda out: _edit_json(f"{out}/patterns.json",
                            lambda p: _first_pattern(p)["covered"].pop())),
    ("patterns", "a pattern with a wrong precision",
     lambda out: _edit_json(f"{out}/patterns.json",
                            lambda p: _set(_first_pattern(p), "precision", 0.5))),
    ("patterns", "a label with no pattern",
     lambda out: _edit_json(f"{out}/patterns.json",
                            lambda p: p["patterns"][p["label_set"][0]].clear())),
    ("augment", "a survivor whose discriminator_label is not its target",
     lambda out: _edit_jsonl(f"{out}/survivors_vt.jsonl", lambda rs: [
         _set(rs[0], "discriminator_label", rs[0]["original_label"]), *rs[1:]])),
    ("augment", "a survivor that is not a candidate",
     lambda out: _edit_jsonl(f"{out}/survivors_vt.jsonl",
                             lambda rs: [_set(rs[0], "generated_text", "made up."), *rs[1:]])),
    ("augment", "a vt survivor that does not match its pattern",
     lambda out: _edit_jsonl(f"{out}/survivors_vt.jsonl",
                             lambda rs: [_set(rs[0], "pattern", "$DATE"), *rs[1:]])),
    ("augment", "a dropped unconstrained candidate",
     lambda out: _edit_jsonl(f"{out}/candidates_novt.jsonl", lambda rs: rs[1:])),
    ("augment", "a changed PKR",
     lambda out: _edit_json(f"{out}/quality_report.json",
                            lambda q: _set(q["vt"], "pkr", q["vt"]["pkr"] - 0.01))),
    ("grid", "a dropped results.csv row",
     lambda out: _edit_csv(f"{out}/results.csv", lambda rows: rows[:-1])),
    ("grid", "a changed p-value",
     lambda out: _edit_csv(f"{out}/summary.csv", _changed_p)),
    ("grid", "a changed mean",
     lambda out: _edit_csv(f"{out}/summary.csv", _changed_mean)),
    ("grid", "a dropped ablation arm",
     lambda out: _edit_csv(f"{out}/ablation_results.csv",
                           lambda rows: [r for r in rows if r["condition"] != "none"])),
    ("grid", "report.md without the cluster row",
     lambda out: _drop_report_row(f"{out}/report.md")),
    ("grid-pool", "random cells scored on a reordered pool (reference naive Bayes)",
     lambda out: None),
]


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    run.write_inputs(WORK, 7)
    cfg, dataset = run.load_dataset(WORK)
    run.setup_command("synth", WORK, run.SETUP_CONFIG)
    for command in ("gen", "filter", "simulate", "ablate", "report"):
        run.setup_command(command, WORK)
    out = os.path.join(WORK, "out")
    reordered = dataclasses.replace(dataset, examples=tuple(reversed(dataset.examples)))
    run_check = {
        "patterns": lambda d: checks.check_patterns(d, dataset, cfg.synthesis),
        "augment": lambda d: checks.check_augment(d, dataset),
        "grid": lambda d: checks.check_grid(d, dataset, cfg),
        "grid-pool": lambda d: checks.check_grid(d, reordered, cfg),
    }
    failures = 0
    for name in ("patterns", "augment", "grid"):
        try:
            run_check[name](out)
            print(f"ok    clean outputs pass the {name} check")
        except checks.CheckFailed as exc:
            print(f"FAIL  clean outputs fail the {name} check: {exc}")
            failures += 1
    for name, what, corrupt in CASES:
        bad = os.path.join(WORK, "corrupted")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        corrupt(bad)
        try:
            run_check[name](bad)
        except checks.CheckFailed as exc:
            print(f"ok    {what}: {exc}")
        else:
            print(f"FAIL  {what}: the {name} check passed")
            failures += 1
    before = run.tree_digests(out)
    after = dict(before, **{"results.csv": "0" * 64})
    if checks.changed_files(before, after) == ["results.csv"]:
        print("ok    a rewritten file shows up as changed bytes")
    else:
        print("FAIL  changed_files missed a rewritten file")
        failures += 1
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
