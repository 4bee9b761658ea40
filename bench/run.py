"""End-to-end benchmark of the patvar pipeline through its CLI entry point.

Usage, from the root of a checkout:

    python3 bench/run.py --workload learn --seed 7 --seconds 20 --trace 0

Each workload builds its inputs from the corpus seed (set-up, done three
times and reported as the median), then runs whole rounds of `patvar`
commands in this process, one after the other, until `--seconds` have
passed. Every round starts from the same state, so every round does the same
work. After the rounds the outputs are checked against separate computations
(see checks.py). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); the two times are in seconds at a reference CPU speed (see
speed.py), and the raw times go to standard error. With `--trace 1` the
calls into each module are timed and counted (see tracing.py) and the
metrics are the per-layer ones, each the median over rounds; the aggregated
spans go to .bench_work/<workload>/spans.json.

An operation is one CLI command invocation or one simulation cell
(condition x seed); a command that raises or returns non-zero, and a cell
that `run_simulation` records as missing, count as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# The benchmark measures the program of this checkout, never an installed copy.
if not os.path.isfile(os.path.join(SRC, "patvar", "cli.py")):
    sys.exit(f"bench: no patvar sources under {SRC}; run from the root of a full checkout")
sys.path.insert(0, SRC)

import yaml  # noqa: E402

import patvar  # noqa: E402
from patvar import cli  # noqa: E402
from patvar.config import build_provider, ingest, load_config  # noqa: E402
from patvar.synthdata import LABEL_VOCAB, make_rows, write_csv  # noqa: E402

if not os.path.abspath(patvar.__file__).startswith(SRC + os.sep):
    sys.exit(f"bench: imported patvar from {patvar.__file__}, not from {SRC}")

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
CORPUS_ROWS = 300

# The README walkthrough's exp.yaml; the corpus seed is the benchmark's --seed.
WALKTHROUGH = {
    "dataset": {"path": "data.csv", "format": "csv", "text_field": "text",
                "label_field": "label", "holdout_fraction": 0.3333, "split_seed": 5},
    "synthesis": {"max_patterns": 5, "max_atoms": 2, "beam_width": 40},
    "conditions": ["random", "cluster", "uncertainty", "cf_no_vt", "counterfactual"],
    "shots": [10, 15, 30, 50, 70, 90, 120],
    "seeds": [0, 1, 2, 3, 4, 5, 6, 7],
    "backend": {"kind": "mock", "model": "mock-model", "flaw_rate": 0.25,
                "label_vocab": LABEL_VOCAB},
    "cache_dir": "cache",
    "output_dir": "out",
}
CONFIG = "exp.yaml"
# Same experiment with one-atom synthesis: the set-up of augment and grid
# only needs some patterns.json, and this search takes ~0.5 s, not ~20 s.
SETUP_CONFIG = "setup.yaml"


class SetupFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------


class Backends:
    """Records the gateways `cli` builds, to count requests that reached a backend."""

    def __init__(self):
        self.gateways = []
        self._build = cli.build_gateway

        def spying_build(cfg):
            gateway = self._build(cfg)
            self.gateways.append(gateway)
            return gateway

        cli.build_gateway = spying_build

    def take_calls(self) -> int:
        calls = sum(g.backend.calls for g in self.gateways)
        self.gateways.clear()
        return calls


def run_command(command: str, work: str, config: str = CONFIG) -> bool:
    """One `patvar <command>` invocation; True when it returned 0."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "--config", os.path.join(work, config)])
    except Exception:
        traceback.print_exc()
        code = None
    if code != 0:
        print(f"bench: patvar {command} failed (exit {code})", file=sys.stderr)
    return code == 0


def setup_command(command: str, work: str, config: str = CONFIG) -> None:
    if not run_command(command, work, config):
        raise SetupFailed(f"set-up step `patvar {command}` failed")


def write_inputs(work: str, seed: int) -> None:
    os.makedirs(work)
    write_csv(os.path.join(work, "data.csv"), make_rows(CORPUS_ROWS, seed))
    one_atom = dict(WALKTHROUGH, synthesis=dict(WALKTHROUGH["synthesis"], max_atoms=1))
    for name, cfg in ((CONFIG, WALKTHROUGH), (SETUP_CONFIG, one_atom)):
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=True)


def load_dataset(work: str):
    cfg = load_config(os.path.join(work, CONFIG))
    return cfg, ingest(cfg.dataset, build_provider(cfg))


def tree_digests(path: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def missing_cells(results_csv: str) -> int:
    """(condition, seed) cells whose every shot is empty: recorded as missing."""
    present: dict[tuple[str, str], bool] = {}
    with open(results_csv, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["condition"], row["seed"])
            present[key] = present.get(key, False) or row["macro_f1"] != ""
    return sum(1 for ok in present.values() if not ok)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """Set-up, the timed commands, and the untimed steps around each round.

    `setup(work, seed)` builds the inputs and returns the state the other
    steps share. `after` restores that state after a round, returns the
    round's failed cells, and raises CheckFailed when the round broke a
    property that holds between rounds.
    """

    setup: Callable[[str, int], dict]
    commands: tuple[str, ...]
    cells: int
    check: Callable[[str, dict], None]
    after: Callable[[str, dict, int], int] = lambda work, state, backend_calls: 0


def setup_learn(work, seed):
    write_inputs(work, seed)
    cfg, dataset = load_dataset(work)  # the checks score patterns on this pool
    return {"cfg": cfg, "dataset": dataset}


def setup_augmented(work, seed):
    """Patterns, then the cold pass of gen + filter, which fills the cache."""
    state = setup_learn(work, seed)
    setup_command("synth", work, SETUP_CONFIG)
    setup_command("gen", work)
    setup_command("filter", work)
    state["outputs"] = tree_digests(os.path.join(work, "out"))
    state["cache_files"] = set(os.listdir(os.path.join(work, "cache")))
    return state


def after_replay(work, state, backend_calls):
    if backend_calls:
        raise checks.CheckFailed(f"replay sent {backend_calls} backend requests, expected 0")
    changed = checks.changed_files(state["outputs"], tree_digests(os.path.join(work, "out")))
    if changed:
        raise checks.CheckFailed(f"replay rewrote different bytes: {changed}")
    return 0


def after_grid(work, state, backend_calls):
    # ablate's discriminator-only arm asks about candidates `filter` never
    # sent to the discriminator; drop those entries so each round is the first.
    cache = os.path.join(work, "cache")
    for name in set(os.listdir(cache)) - state["cache_files"]:
        os.remove(os.path.join(cache, name))
    out = os.path.join(work, "out")
    return missing_cells(os.path.join(out, "results.csv")) + missing_cells(
        os.path.join(out, "ablation_results.csv")
    )


def check_learn(work, state):
    checks.check_patterns(os.path.join(work, "out"), state["dataset"], state["cfg"].synthesis)


def check_augment(work, state):
    checks.check_augment(os.path.join(work, "out"), state["dataset"])


def check_grid(work, state):
    checks.check_grid(os.path.join(work, "out"), state["dataset"], state["cfg"])


GRID_CELLS = len(WALKTHROUGH["conditions"]) * len(WALKTHROUGH["seeds"]) + len(
    checks.ABLATION_ARMS
) * len(WALKTHROUGH["seeds"])

WORKLOADS = {
    "learn": Workload(setup_learn, ("synth",), 0, check_learn),
    "augment": Workload(setup_augmented, ("gen", "filter"), 0, check_augment,
                        after=after_replay),
    "grid": Workload(setup_augmented, ("simulate", "ablate", "report"), GRID_CELLS, check_grid,
                     after=after_grid),
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def configure_logging(work_root: str, name: str) -> None:
    # The CLI logs at INFO to stderr through logging.basicConfig, which is a
    # no-op once the root logger has a handler: keep the level and format,
    # but write to a file so the timing does not depend on the terminal.
    handler = logging.FileHandler(os.path.join(work_root, f"{name}.log"), mode="w")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(logging.INFO)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    configure_logging(WORK, name)
    work = os.path.join(WORK, name)
    backends = Backends()
    clock = speed.RawClock if trace else speed.SpeedClock

    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        with clock() as timed:
            state = workload.setup(work, seed)
        setups.append(timed)
    backends.take_calls()

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    per_round_layers: list[dict] = []
    rounds = []
    attempted = failed = 0
    problems: list[str] = []
    first_outputs = None
    began = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.start_round()
        with clock() as timed:
            for command in workload.commands:
                if tracer is not None:
                    ok = tracer.wrap(f"cli.{command}", run_command)(command, work)
                else:
                    ok = run_command(command, work)
                attempted += 1
                failed += not ok
        rounds.append(timed)
        if tracer is not None:
            per_round_layers.append(tracing.layer_metrics(tracer, os.path.join(work, "cache")))
        attempted += workload.cells
        try:
            failed += workload.after(work, state, backends.take_calls())
            outputs = tree_digests(os.path.join(work, "out"))
            first_outputs = first_outputs or outputs
            changed = checks.changed_files(first_outputs, outputs)
            if changed:
                raise checks.CheckFailed(f"round {len(rounds)} wrote different bytes: {changed}")
        except checks.CheckFailed as exc:
            problems.append(str(exc))
        if time.perf_counter() - began >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(os.path.join(work, "spans.json"), [r.raw_s for r in rounds])
    try:
        workload.check(work, state)
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    if tracer is not None:
        metrics = {}
        for metric, unit in tracing.LAYER_UNITS.items():
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[metric] = {"value": median(r[metric] for r in per_round_layers), "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(t.seconds for t in setups), "unit": "s"},
            "wall_s": {"value": statistics.median(t.seconds for t in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    def show(timings):
        return " ".join(f"{t.seconds:.3f}/{t.raw_s:.3f}" for t in timings)

    print(f"bench: {name} seed {seed}: seconds at reference speed/raw: set-up {show(setups)}; "
          f"{len(rounds)} rounds {show(rounds)}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="corpus seed (default 7)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting rounds until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
