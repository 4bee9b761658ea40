import json
import random

import pytest

from patvar import filtering
from patvar.annotation import Annotator
from patvar.filtering import (
    ARMS,
    STAGES,
    FilterRow,
    StageVerdict,
    compute_metrics,
    discriminator_filter,
    heuristic_filter,
    rows_from_audit,
    run_pipeline,
    survivors_by_arm,
    symbolic_filter,
)
from patvar.errors import ParseError
from patvar.experiment import Dataset
from patvar.gateway import GatewayTimeout, MockBackend
from patvar.generation import (
    CounterfactualCandidate,
    GenerationTask,
    JSON_LINE,
    ResponseFormatError,
    candidate_to_record,
)
from patvar.patterns import parse_pattern
from patvar.prompts import fill, load_template
from patvar.synthesis import LabeledExample


def make_candidate(provider, text, *, original="The staff was rude.", pattern="(cheap)+*+NOUN",
                   original_label="service", target_label="price", uid="c0",
                   finish_reason="stop", used_phrase=None):
    task = GenerationTask(
        provider.annotate(original),
        original_label,
        target_label,
        parse_pattern(pattern) if pattern else None,
        "affordable lobster" if pattern else "",
    )
    return CounterfactualCandidate(
        uid=uid, task=task, generated_text=text, used_phrase=used_phrase,
        finish_reason=finish_reason,
    )


LABELS = ["service", "price", "environment", "products"]


@pytest.fixture
def label_gateway(gateway_for):
    return gateway_for(MockBackend(label_vocab={
        "price": ["affordable", "cheap", "lobster", "deal"],
        "service": ["staff", "rude", "friendly"],
        "environment": ["cozy", "decor"],
        "products": ["food", "tasty"],
    }))


# ---------------------------------------------------------------------------
# Heuristic stage
# ---------------------------------------------------------------------------


def test_heuristic_rejects_refusal(provider):
    v = heuristic_filter(make_candidate(provider, "cannot generate counterfactual"))
    assert (v.status, v.reason) == ("failed", "refusal")


def test_heuristic_rejects_prompt_echo(provider):
    v = heuristic_filter(make_candidate(provider, "modified text: The affordable lobster is great."))
    assert v.status == "failed"
    assert "prompt echo" in v.reason


def test_heuristic_rejects_truncation(provider):
    v = heuristic_filter(make_candidate(provider, "The affordable lobster here is", finish_reason="length"))
    assert v.status == "failed"
    assert "incomplete" in v.reason
    v2 = heuristic_filter(make_candidate(provider, "The affordable lobster here is"))
    assert v2.status == "failed"
    assert "punctuation" in v2.reason


def test_heuristic_rejects_trivial(provider):
    assert heuristic_filter(make_candidate(provider, "so cheap")).status == "failed"
    identical = make_candidate(provider, "The staff was rude.")
    assert "identical" in heuristic_filter(identical).reason


def test_heuristic_passes_clean_text(provider):
    v = heuristic_filter(make_candidate(provider, "The affordable lobster here is a steal."))
    assert v.status == "passed"


def test_heuristic_accepts_quoted_terminal(provider):
    v = heuristic_filter(make_candidate(provider, 'They said "what a nice affordable deal!"'))
    assert v.status == "passed"


# ---------------------------------------------------------------------------
# Symbolic stage
# ---------------------------------------------------------------------------


def test_symbolic_pass_and_fail(provider, lexicon):
    good = make_candidate(provider, "The affordable lobster here is a steal.")
    assert symbolic_filter(good, lexicon, provider).status == "passed"
    bad = make_candidate(provider, "Service was slow today, sadly so.")
    v = symbolic_filter(bad, lexicon, provider)
    assert v.status == "failed"
    assert "(cheap)+*+NOUN" in v.reason


def test_symbolic_vacuous_pattern_warns(provider, lexicon, caplog):
    cand = make_candidate(provider, "anything at all goes here.", pattern="*")
    with caplog.at_level("WARNING"):
        v = symbolic_filter(cand, lexicon, provider)
    assert v.status == "passed"
    assert any("vacuous" in r.message for r in caplog.records)


def test_symbolic_skips_unconstrained(provider, lexicon):
    cand = make_candidate(provider, "Some rewrite without a pattern.", pattern=None)
    v = symbolic_filter(cand, lexicon, provider)
    assert v.status == "skipped"


# ---------------------------------------------------------------------------
# Discriminator stage
# ---------------------------------------------------------------------------


def test_discriminator_hits_target(provider, label_gateway):
    cand = make_candidate(provider, "The affordable lobster deal is unbeatable.")
    v, label = discriminator_filter(cand, LABELS, label_gateway)
    assert v.status == "passed"
    assert label == "price"


def test_discriminator_kept_original(provider, label_gateway):
    cand = make_candidate(provider, "The affordable staff was rude here.")
    v, label = discriminator_filter(cand, LABELS, label_gateway)
    assert v.status == "failed"
    assert "kept original" in v.reason
    assert label == "service"


def test_discriminator_missed_target_is_soft_flip(provider, label_gateway):
    cand = make_candidate(provider, "The tasty food impressed everyone.")
    v, label = discriminator_filter(cand, LABELS, label_gateway)
    assert v.status == "failed"
    assert "missed target" in v.reason
    assert label == "products"


def test_discriminator_format_error(provider, canned, gateway_for):
    cand = make_candidate(provider, "whatever text.")
    from patvar.filtering import fill, load_template  # build the exact request the filter sends

    messages = fill(load_template("discriminator"), {"text": cand.generated_text, "labels": ", ".join(LABELS)})
    gw = gateway_for(canned({tuple(messages): "not-a-label"}))
    with pytest.raises(ResponseFormatError):
        discriminator_filter(cand, LABELS, gw)


# ---------------------------------------------------------------------------
# compute_metrics
# ---------------------------------------------------------------------------


def judged_row(provider, pattern_kept, predicted, target, original):
    """A row as `compute_metrics` reads it: its symbolic verdict passed, failed
    or (for None) skipped, and the label the discriminator assigned."""
    cand = make_candidate(provider, "Some rewrite.", original_label=original, target_label=target)
    symbolic = {True: "passed", False: "failed", None: "skipped"}[pattern_kept]
    verdicts = {"heuristic": StageVerdict("passed"), "symbolic": StageVerdict(symbolic),
                "discriminator": StageVerdict("passed" if predicted == target else "failed")}
    return FilterRow(cand, verdicts, predicted)


def test_compute_metrics_all_perfect(provider):
    rows = [judged_row(provider, True, "b", "b", "a") for _ in range(5)]
    report = compute_metrics(rows)
    assert (report.pkr, report.slfr, report.lfr) == (1.0, 1.0, 1.0)


def test_compute_metrics_hand_counts(provider):
    # predicted/target/original triples (A,B,A),(B,B,A),(C,B,A):
    # hits-target = 1 -> lfr 1/3; left-original = 2 -> slfr 2/3
    rows = [
        judged_row(provider, None, "A", "B", "A"),
        judged_row(provider, None, "B", "B", "A"),
        judged_row(provider, None, "C", "B", "A"),
    ]
    report = compute_metrics(rows)
    assert report.lfr == pytest.approx(0.3333, abs=1e-4)
    assert report.slfr == pytest.approx(0.6667, abs=1e-4)
    assert report.pkr is None


def test_compute_metrics_empty():
    report = compute_metrics([])
    assert report.n == 0
    assert report.pkr is None and report.slfr is None and report.lfr is None


def test_compute_metrics_permutation_invariant(provider):
    rng = random.Random(4)
    labels = ["a", "b", "c"]
    rows = [judged_row(provider, rng.random() < 0.5, rng.choice(labels), "b", "a")
            for _ in range(40)]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert compute_metrics(rows) == compute_metrics(shuffled)


def test_lfr_never_exceeds_slfr_when_labels_differ(provider):
    rng = random.Random(99)
    labels = ["a", "b", "c", "d"]
    for _ in range(1000):
        n = rng.randint(1, 12)
        rows = []
        for _ in range(n):
            original, target = rng.sample(labels, 2)
            rows.append(judged_row(provider, None, rng.choice(labels), target, original))
        report = compute_metrics(rows)
        assert report.lfr <= report.slfr


# ---------------------------------------------------------------------------
# run_pipeline
# ---------------------------------------------------------------------------


def batch(provider):
    return [
        make_candidate(provider, "The affordable lobster deal is unbeatable.", uid="keep"),
        make_candidate(provider, "cannot generate counterfactual", uid="refused"),
        make_candidate(provider, "Service was slow and boring today.", uid="pattern-lost"),
        make_candidate(provider, "The affordable staff was rude here.", uid="kept-label"),
    ]


@pytest.fixture
def filter_args(provider, lexicon, label_gateway):
    """`run_pipeline`'s arguments after the candidates."""
    return LABELS, lexicon, provider, label_gateway


def test_run_pipeline_full(provider, filter_args):
    survivors, report, _ = run_pipeline(batch(provider), *filter_args)
    assert [c.uid for c in survivors] == ["keep"]
    assert report.n == 4
    # refused candidate never reached the symbolic or discriminator stage
    assert report.pattern_n == 3
    assert report.pkr == pytest.approx(2 / 3)
    assert report.label_n == 2
    assert report.lfr == pytest.approx(1 / 2)
    assert report.slfr == pytest.approx(1 / 2)


def test_none_arm_is_identity(provider, filter_args):
    cands = batch(provider)
    _, _, rows = run_pipeline(cands, *filter_args)
    assert survivors_by_arm(rows)["none"] == cands


def test_run_pipeline_pkr_formula(provider, filter_args):
    cands = [
        make_candidate(provider, "The affordable lobster deal is unbeatable.", uid="a"),
        make_candidate(provider, "Another affordable menu item appears today.", uid="b"),
        make_candidate(provider, "A cheap deal arrived this morning.", uid="c"),
        make_candidate(provider, "Nothing relevant happened here today sadly.", uid="d"),
    ]
    _, report, rows = run_pipeline(cands, *filter_args)
    assert report.pattern_n == 4
    assert report.pkr == pytest.approx(0.75)
    assert [c.uid for c in survivors_by_arm(rows)["heuristic+symbolic"]] == ["a", "b", "c"]


def test_run_pipeline_novt_bypasses_symbolic_and_pkr(provider, filter_args):
    cand = make_candidate(provider, "The affordable lobster deal is unbeatable.", pattern=None, uid="novt")
    survivors, report, (row,) = run_pipeline([cand], *filter_args)
    assert survivors == [cand]
    assert row.verdicts["symbolic"].status == "skipped"
    assert report.pattern_n == 0 and report.pkr is None
    assert report.label_n == 1


def test_run_pipeline_audit_log(provider, filter_args):
    cands = batch(provider)
    survivors, _, rows = run_pipeline(cands, *filter_args)
    assert [row.candidate for row in rows] == cands
    by_uid = {row.candidate.uid: row for row in rows}
    assert by_uid["refused"].verdicts["heuristic"].reason == "refusal"
    assert by_uid["keep"].discriminator_label == "price"
    # Only a heuristic failure leaves the later stages pending.
    assert [v.status for v in by_uid["refused"].verdicts.values()] == ["failed", "pending", "pending"]
    lost = by_uid["pattern-lost"]
    assert lost.verdicts["symbolic"].status == "failed"
    assert lost.verdicts["discriminator"].status in ("passed", "failed")
    # A label counts for the metrics only where no earlier stage failed.
    assert lost.discriminator_label is None
    assert survivors == [row.candidate for row in rows if row.survived] == [by_uid["keep"].candidate]


def test_rows_from_audit_inverts_record(provider, filter_args):
    unconstrained = make_candidate(provider, "The affordable lobster deal is unbeatable.",
                                   pattern=None, uid="novt")
    _, _, rows = run_pipeline([*batch(provider), unconstrained], *filter_args)
    assert rows[-1].verdicts["symbolic"].status == "skipped"
    pool = {row.candidate.task.original.id: LabeledExample(row.candidate.task.original, "service")
            for row in rows}
    dataset = Dataset(tuple(pool.values()), LABELS, ())
    records = [(i, json.loads(JSON_LINE.encode(row.record()))) for i, row in enumerate(rows, 1)]
    assert rows_from_audit(records, dataset) == rows
    # Only a candidate without a pattern may skip the symbolic stage, and none may
    # leave a stage pending after passing the heuristic one.
    keep, novt = records[0][1], records[-1][1]
    for record, stage, status in ((keep, "symbolic", "skipped"), (keep, "discriminator", "pending"),
                                  (novt, "symbolic", "pending"), (novt, "discriminator", "pending")):
        stale = {**record, "verdicts": {**record["verdicts"], stage: {"status": status, "reason": ""}}}
        with pytest.raises(ParseError, match=f"line 7: the {stage} stage reads '{status}'"):
            rows_from_audit([(7, stale)], dataset)


def test_run_pipeline_discriminator_error_fails_candidate(provider, lexicon, canned, gateway_for):
    gw = gateway_for(canned({}))  # no canned replies: every call errors
    cands = [make_candidate(provider, "The affordable lobster deal is unbeatable.", uid="x")]
    survivors, report, _ = run_pipeline(cands, LABELS, lexicon, provider, gw)
    assert survivors == []
    assert report.label_n == 0


def count_requests(monkeypatch, gw):
    """The requests `gw.complete` gets from now on, recorded as they come."""
    requests, complete = [], gw.complete

    def counting(req):
        requests.append(req)
        return complete(req)

    monkeypatch.setattr(gw, "complete", counting)
    return requests


class TimesOutOnce:
    """Ends its first send in a GatewayTimeout and answers the others from `backend`."""

    def __init__(self, backend):
        self.backend = backend
        self.calls = 0

    def send(self, req):
        self.calls += 1
        if self.calls == 1:
            raise GatewayTimeout("gave up after 3 retries: busy")
        return self.backend.send(req)


def test_run_pipeline_asks_again_after_a_backend_error(provider, lexicon, gateway_for,
                                                       label_gateway, monkeypatch):
    backend = TimesOutOnce(label_gateway.backend)
    gw = gateway_for(backend)
    requests = count_requests(monkeypatch, gw)
    text = "The affordable lobster deal is unbeatable."
    cands = [make_candidate(provider, text, uid="timed-out"), make_candidate(provider, text, uid="asks"),
             make_candidate(provider, text, uid="reuses", target_label="products")]
    _, _, rows = run_pipeline(cands, LABELS, lexicon, provider, gw)
    assert backend.calls == len(requests) == 2
    assert rows[0].verdicts["discriminator"] == StageVerdict(
        "failed", "error: backend error None: gave up after 3 retries: busy")
    assert rows[0].discriminator_label is None
    # The label is remembered; each candidate is judged against its own target.
    assert [row.verdicts["discriminator"] for row in rows[1:]] == [
        StageVerdict("passed"), StageVerdict("failed", "missed target (got 'price')")]
    assert [row.discriminator_label for row in rows[1:]] == ["price", "price"]


def test_run_pipeline_asks_a_malformed_answer_once(provider, lexicon, canned, gateway_for,
                                                   monkeypatch):
    text = "The affordable lobster deal is unbeatable."
    slots = {"text": text, "labels": ", ".join(LABELS)}
    gw = gateway_for(canned({tuple(fill(load_template("discriminator"), slots)): "no idea"}))
    requests = count_requests(monkeypatch, gw)
    cands = [make_candidate(provider, text, uid="a"),
             make_candidate(provider, text, uid="b", original_label="products")]
    _, report, rows = run_pipeline(cands, LABELS, lexicon, provider, gw)
    assert len(requests) == 1
    assert [row.verdicts["discriminator"] for row in rows] == [StageVerdict(
        "failed", "error: discriminator answered 'no idea', not a known label")] * 2
    assert report.label_n == 0


def test_run_pipeline_matches_each_pattern_and_text_once(provider, filter_args, monkeypatch):
    matched = []
    symbolic = filtering.symbolic_filter

    def counting(c, *args):
        matched.append((c.task.pattern, c.generated_text))
        return symbolic(c, *args)

    monkeypatch.setattr(filtering, "symbolic_filter", counting)
    text = "The affordable lobster deal is unbeatable."
    cands = [make_candidate(provider, text, uid="a"), make_candidate(provider, text, uid="b"),
             make_candidate(provider, text, uid="other-pattern", pattern="[staff]")]
    _, _, rows = run_pipeline(cands, *filter_args)
    assert len(matched) == len(set(matched)) == 2
    assert [row.verdicts["symbolic"].status for row in rows] == ["passed", "passed", "failed"]


class CrashesOn:
    """Annotates like `provider`, but raises RuntimeError on `text`."""

    def __init__(self, provider, text):
        self.provider, self.text = provider, text

    def annotate(self, raw):
        if raw == self.text:
            raise RuntimeError("tagger crashed")
        return self.provider.annotate(raw)


def test_run_pipeline_records_a_provider_failure(provider, lexicon, label_gateway):
    crash = "The affordable lobster deal is unbeatable."
    cands = [make_candidate(provider, crash, uid="crashed"),
             make_candidate(provider, "The affordable lobster deal is here.", uid="after")]
    annotator = Annotator(CrashesOn(provider, crash))
    survivors, report, rows = run_pipeline(cands, LABELS, lexicon, annotator, label_gateway)
    assert rows[0].verdicts["symbolic"] == StageVerdict(
        "failed", "error: provider raised RuntimeError: tagger crashed")
    assert rows[0].discriminator_label is None
    assert rows[1].verdicts["symbolic"] == StageVerdict("passed")
    assert [c.uid for c in survivors] == ["after"]
    assert report.pattern_n == 2


def test_run_pipeline_lets_a_fault_of_the_program_propagate(provider, filter_args, monkeypatch):
    def broken(p, s, lex):
        raise TypeError("a fault of the matcher")

    monkeypatch.setattr(filtering, "match_sentence", broken)
    with pytest.raises(TypeError, match="a fault of the matcher"):
        run_pipeline(batch(provider), *filter_args)


def test_stage_monotonicity_on_fixed_batch(provider, filter_args):
    _, _, rows = run_pipeline(batch(provider), *filter_args)
    by_arm = survivors_by_arm(rows)
    nested = ["none", "heuristic", "heuristic+symbolic", "all"]
    survivor_sets = [{c.uid for c in by_arm[arm]} for arm in nested]
    for bigger, smaller in zip(survivor_sets, survivor_sets[1:]):
        assert smaller <= bigger
    assert survivor_sets[-1] == {"keep"}


def test_filter_config_arms():
    assert list(ARMS) == ["none", "heuristic", "heuristic+symbolic",
                          "heuristic+discriminator", "all"]
    assert ARMS["heuristic+symbolic"] == ("heuristic", "symbolic")
    assert ARMS["none"] == ()
    assert ARMS["all"] == STAGES


def test_audit_record_shape(provider, filter_args):
    _, _, rows = run_pipeline(batch(provider), *filter_args)
    for row in rows:
        rec, made = row.record(), candidate_to_record(row.candidate)
        assert set(made) == {
            "finish_reason", "generated_text", "matched_phrase", "original_id", "original_label",
            "original_text", "pattern", "target_label", "uid", "used_phrase",
        }
        assert rec == {**made, "discriminator_label": row.discriminator_label, "verdicts": rec["verdicts"]}
        assert rec["original_id"] == row.candidate.task.original.id
        assert rec["original_text"] == "The staff was rude."
        assert rec["pattern"] == "(cheap)+*+NOUN"
        assert list(rec["verdicts"]) == list(STAGES)
        assert all(set(v) == {"status", "reason"} for v in rec["verdicts"].values())
