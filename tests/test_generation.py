import pytest

from patvar import generation
from patvar.gateway import ChatMessage, Gateway, MockBackend
from patvar.generation import (
    AllOthers,
    CandidatePhrases,
    CounterfactualCandidate,
    GenerationTask,
    LabelMismatch,
    NoValidPhrases,
    RandomTargets,
    ResponseFormatError,
    RoundRobin,
    StageVerdict,
    build_task,
    collect_soft_matches,
    generate_candidate_phrases,
    generate_counterfactual,
    generate_without_vt,
    plan_targets,
    separate_multilabel,
)
from patvar.patterns import parse_pattern
from patvar.prompts import fill, load_template
from patvar.synthesis import LabeledExample

WORKED_SEPARATOR_REPLY = (
    " 'Great customer service, ' + '(customer)+*+[service]' + 'service'; "
    "'reasonable prices, ' + '(pay)|(sale)' + 'price'; "
    "'and a chill atmosphere.' + '(environment)' + 'environment' "
)


class FakeBackend:
    def __init__(self, respond):
        self.send = respond


def gateway_with(responder=None, **mock_kw):
    backend = MockBackend(**mock_kw) if responder is None else FakeBackend(responder)
    return Gateway(backend=backend, model="mock-model"), backend


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------


def test_prompt_anchor_substrings_present():
    anchors = {
        "multilabel_separator": "separate the given multi-labeled sentences",
        "candidate_phrases": "generate as many diverse example phrases",
        "counterfactual_generator": "must use one of the following phrases without rewording it",
    }
    for name, anchor in anchors.items():
        template = load_template(name)
        assert any(anchor in m.content for m in template), name


def test_separator_prompt_includes_worked_example():
    template = load_template("multilabel_separator")
    contents = "\n".join(m.content for m in template)
    assert "Great customer service, reasonable prices, and a chill atmosphere." in contents
    assert "'(customer)+*+[service]'" in contents


def test_counterfactual_prompt_slots_and_escape_clause(provider):
    task = GenerationTask(provider.annotate("Service was great."), "service", "price")
    slots = {
        "text": task.original.raw,
        "label": "service",
        "target_label": "price",
        "generated_phrases": "a, b",
    }
    messages = fill(load_template("counterfactual_generator"), slots)
    joined = "\n".join(m.content for m in messages)
    assert "criteria 2: the modified sentence can not also be about service" in joined
    assert "cannot generate counterfactual" in joined
    assert "Find me a train ticket next monday to new york city" in joined
    assert "{" not in joined.replace("{}", "")


# ---------------------------------------------------------------------------
# separate_multilabel
# ---------------------------------------------------------------------------


def test_separator_parses_worked_example():
    from patvar.gateway import CompletionResponse

    gw, _ = gateway_with(responder=lambda req: CompletionResponse(WORKED_SEPARATOR_REPLY))
    parts = separate_multilabel(
        "Great customer service, reasonable prices, and a chill atmosphere.",
        ["(customer)+*+[service]", "(pay)|(sale)", "(environment)"],
        ["price", "service", "environment"],
        gw,
    )
    assert parts == [
        ("Great customer service, ", "(customer)+*+[service]", "service"),
        ("reasonable prices, ", "(pay)|(sale)", "price"),
        ("and a chill atmosphere.", "(environment)", "environment"),
    ]


def test_separator_single_label_passthrough():
    from patvar.gateway import CompletionResponse

    gw, _ = gateway_with(responder=lambda req: CompletionResponse("'some text' + '' + 'price'"))
    parts = separate_multilabel("some text", [""], ["price"], gw)
    assert parts == [("some text", "", "price")]


def test_separator_format_and_label_errors():
    from patvar.gateway import CompletionResponse

    gw, _ = gateway_with(responder=lambda req: CompletionResponse("prose without separators"))
    with pytest.raises(ResponseFormatError):
        separate_multilabel("text", [""], ["price"], gw)

    gw2, _ = gateway_with(responder=lambda req: CompletionResponse("'t' + '' + 'bogus'"))
    with pytest.raises(LabelMismatch):
        separate_multilabel("text", [""], ["price"], gw2)


def test_separator_template_mock_round_trips():
    gw, _ = gateway_with(label_vocab={})
    parts = separate_multilabel("Great service and fair prices.", ["", ""], ["service", "price"], gw)
    assert [p[2] for p in parts] == ["service", "price"]
    assert all(p[0] == "Great service and fair prices." for p in parts)


# ---------------------------------------------------------------------------
# Candidate phrases
# ---------------------------------------------------------------------------


@pytest.fixture
def price_task(provider, lexicon):
    original = provider.annotate("They have affordable lobster here")
    return build_task(original, "products", "price", parse_pattern("(cheap)+*+NOUN"), lexicon)


def test_build_task_extracts_matched_phrase(price_task):
    assert price_task.matched_phrase == "affordable lobster"


def test_build_task_requires_match(provider, lexicon):
    from patvar.generation import NoPatternMatch

    with pytest.raises(NoPatternMatch):
        build_task(provider.annotate("Service was slow."), "service", "price",
                   parse_pattern("(cheap)+*+NOUN"), lexicon)


def test_collect_soft_matches(price_task, lexicon, monkeypatch):
    # The soft matches come from the span build_task kept, not a second search.
    monkeypatch.setattr(generation, "find_matches", None)
    info = collect_soft_matches(price_task, lexicon)
    assert len(info) == 1
    word, synonyms = info[0]
    assert word == "affordable"
    assert set(synonyms) == {"cheap", "affordable", "reasonable", "budget-friendly",
                             "inexpensive", "economical"}


def test_candidate_phrases_validated(price_task, provider, lexicon):
    from patvar.gateway import CompletionResponse

    reply = "affordable lobster, reasonable price, budget-friendly menu"
    gw, backend = gateway_with(responder=lambda req: CompletionResponse(reply))
    phrases = generate_candidate_phrases(
        price_task, collect_soft_matches(price_task, lexicon), gw, provider, lexicon
    )
    assert phrases.phrases == ("affordable lobster", "reasonable price", "budget-friendly menu")


def test_candidate_phrases_drop_nonmatching(price_task, provider, lexicon, caplog):
    from patvar.gateway import CompletionResponse

    reply = "affordable lobster, completely unrelated"
    gw, _ = gateway_with(responder=lambda req: CompletionResponse(reply))
    with caplog.at_level("WARNING"):
        phrases = generate_candidate_phrases(price_task, [], gw, provider, lexicon)
    assert phrases.phrases == ("affordable lobster",)
    assert any("completely unrelated" in r.message for r in caplog.records)


def test_candidate_phrases_all_invalid(price_task, provider, lexicon):
    from patvar.gateway import CompletionResponse

    gw, _ = gateway_with(responder=lambda req: CompletionResponse("completely unrelated"))
    with pytest.raises(NoValidPhrases):
        generate_candidate_phrases(price_task, [], gw, provider, lexicon)


def test_phrase_prompt_contains_anchor_and_soft_note(price_task, provider, lexicon):
    from patvar.gateway import CompletionResponse

    seen = {}

    def responder(req):
        seen["prompt"] = "\n".join(m.content for m in req.messages)
        return CompletionResponse("affordable lobster")

    gw, _ = gateway_with(responder=responder)
    generate_candidate_phrases(
        price_task, collect_soft_matches(price_task, lexicon), gw, provider, lexicon
    )
    assert "generate as many diverse example phrases" in seen["prompt"]
    assert "you can only use" in seen["prompt"]
    assert "affordable" in seen["prompt"]
    assert "(cheap)+*+NOUN" in seen["prompt"]


# ---------------------------------------------------------------------------
# Counterfactual generation
# ---------------------------------------------------------------------------


def test_generate_counterfactual_detects_used_phrase(price_task):
    from patvar.gateway import CompletionResponse

    reply = "The affordable lobster here makes this spot unbeatable."
    gw, _ = gateway_with(responder=lambda req: CompletionResponse(reply))
    phrases = CandidatePhrases(price_task, ("affordable lobster", "reasonable price"))
    cand = generate_counterfactual(price_task, phrases, gw)
    assert cand.generated_text == reply
    assert cand.used_phrase == "affordable lobster"
    assert all(v.status == "pending" for v in cand.verdicts.values())


def test_generate_counterfactual_refusal_still_yields_candidate(price_task):
    from patvar.gateway import CompletionResponse

    gw, _ = gateway_with(responder=lambda req: CompletionResponse("cannot generate counterfactual"))
    phrases = CandidatePhrases(price_task, ("affordable lobster",))
    cand = generate_counterfactual(price_task, phrases, gw)
    assert cand.used_phrase is None
    assert cand.generated_text == "cannot generate counterfactual"


def test_generate_without_vt(provider):
    from patvar.gateway import CompletionResponse

    gw, _ = gateway_with(responder=lambda req: CompletionResponse("The deal was all about cheap."))
    original = provider.annotate("The staff was rude.")
    cand = generate_without_vt(original, "service", "price", gw)
    assert cand.task.pattern is None
    assert cand.used_phrase is None
    with pytest.raises(ValueError):
        generate_without_vt(original, "service", "service", gw)


def test_candidate_verdict_ordering_invariant(provider):
    task = GenerationTask(provider.annotate("x y z."), "a", "b")
    with pytest.raises(ValueError):
        CounterfactualCandidate(
            uid="u", task=task, generated_text="t", used_phrase=None,
            verdicts={"heuristic": StageVerdict("failed", "r"), "symbolic": StageVerdict("passed")},
        )


# ---------------------------------------------------------------------------
# Target planning
# ---------------------------------------------------------------------------


def make_example(provider, label):
    return LabeledExample(provider.annotate("placeholder text."), label)


def test_plan_targets_all_others(provider):
    labels = ["service", "price", "environment", "products"]
    ex = make_example(provider, "service")
    assert plan_targets(ex, labels, AllOthers()) == ["price", "environment", "products"]


def test_plan_targets_two_labels(provider):
    ex = make_example(provider, "a")
    assert plan_targets(ex, ["a", "b"]) == ["b"]


def test_plan_targets_default_policy_many_labels(provider):
    labels = [f"intent{i}" for i in range(18)]
    ex = make_example(provider, "intent0")
    first = plan_targets(ex, labels)
    second = plan_targets(ex, labels)
    assert len(first) == 3
    assert first == second
    assert all(t != "intent0" for t in first)


def test_plan_targets_random_seeded(provider):
    labels = [f"l{i}" for i in range(10)]
    ex = make_example(provider, "l0")
    a = plan_targets(ex, labels, RandomTargets(3, seed=1))
    b = plan_targets(ex, labels, RandomTargets(3, seed=1))
    c = plan_targets(ex, labels, RandomTargets(3, seed=2))
    assert a == b
    assert len(a) == 3
    assert a != c or a == c  # different seeds may coincide; only determinism is required


def test_plan_targets_round_robin(provider):
    labels = ["a", "b", "c", "d"]
    policy = RoundRobin(2)
    ex = make_example(provider, "a")
    first = plan_targets(ex, labels, policy)
    second = plan_targets(ex, labels, policy)
    assert first == ["b", "c"]
    assert second == ["c", "d"]
    with pytest.raises(ValueError):
        plan_targets(ex, ["only"], policy)
