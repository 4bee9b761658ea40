import pytest

from patvar import generation
from patvar.errors import ParseError
from patvar.experiment import Dataset
from patvar.gateway import MockBackend
from patvar.generation import (
    CounterfactualCandidate,
    GenerationTask,
    NoValidPhrases,
    ResponseFormatError,
    build_task,
    candidate_to_record,
    candidates_from_records,
    collect_soft_matches,
    generate_candidate_phrases,
    generate_counterfactual,
    generate_without_vt,
    plan_targets,
    separate_multilabel,
)
from patvar.patterns import find_matches, parse_pattern
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


@pytest.fixture
def gateway_with(gateway_for):
    """Builds a gateway whose backend answers a request with `respond(request)`."""
    return lambda respond: gateway_for(FakeBackend(respond), "mock-model")


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


def test_separator_parses_worked_example(gateway_with):
    from patvar.gateway import CompletionResponse

    gw = gateway_with(lambda req: CompletionResponse(WORKED_SEPARATOR_REPLY))
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


def test_separator_single_label_passthrough(gateway_with):
    from patvar.gateway import CompletionResponse

    gw = gateway_with(lambda req: CompletionResponse("'some text' + '' + 'price'"))
    parts = separate_multilabel("some text", [""], ["price"], gw)
    assert parts == [("some text", "", "price")]


def test_separator_format_and_label_errors(gateway_with):
    from patvar.gateway import CompletionResponse

    gw = gateway_with(lambda req: CompletionResponse("prose without separators"))
    with pytest.raises(ResponseFormatError):
        separate_multilabel("text", [""], ["price"], gw)

    gw2 = gateway_with(lambda req: CompletionResponse("'t' + '' + 'bogus'"))
    with pytest.raises(ResponseFormatError, match="unknown label 'bogus'"):
        separate_multilabel("text", [""], ["price"], gw2)


def test_separator_template_mock_round_trips(gateway_for):
    gw = gateway_for(MockBackend(label_vocab={}))
    parts = separate_multilabel("Great service and fair prices.", ["", ""], ["service", "price"], gw)
    assert [p[2] for p in parts] == ["service", "price"]
    assert all(p[0] == "Great service and fair prices." for p in parts)


# ---------------------------------------------------------------------------
# Candidate phrases
# ---------------------------------------------------------------------------


PRICE_PATTERN = parse_pattern("(cheap)+*+NOUN")


@pytest.fixture
def price_span(provider, lexicon):
    """The original of the price task and its leftmost `(cheap)+*+NOUN` span."""
    original = provider.annotate("They have affordable lobster here")
    return original, find_matches(PRICE_PATTERN, original, lexicon)


@pytest.fixture
def price_task(price_span):
    original, span = price_span
    return build_task(original, "products", "price", PRICE_PATTERN, span)


@pytest.fixture
def price_soft(price_span, lexicon):
    original, span = price_span
    return collect_soft_matches(PRICE_PATTERN, span, original, lexicon)


def test_build_task_extracts_matched_phrase(price_task):
    assert price_task.matched_phrase == "affordable lobster"


def test_collect_soft_matches(price_soft):
    # The soft matches come from the span the caller found, not a second search.
    assert not hasattr(generation, "find_matches")
    assert len(price_soft) == 1
    word, synonyms = price_soft[0]
    assert word == "affordable"
    assert set(synonyms) == {"cheap", "affordable", "reasonable", "budget-friendly",
                             "inexpensive", "economical"}


def test_candidate_phrases_validated(price_task, price_soft, provider, lexicon, gateway_with):
    from patvar.gateway import CompletionResponse

    reply = "affordable lobster, reasonable price, budget-friendly menu"
    gw = gateway_with(lambda req: CompletionResponse(reply))
    phrases = generate_candidate_phrases(price_task, price_soft, gw, provider, lexicon)
    assert phrases == ("affordable lobster", "reasonable price", "budget-friendly menu")


def test_candidate_phrases_drop_nonmatching(price_task, price_soft, provider, lexicon, caplog, gateway_with):
    from patvar.gateway import CompletionResponse

    reply = "affordable lobster, completely unrelated"
    gw = gateway_with(lambda req: CompletionResponse(reply))
    with caplog.at_level("WARNING"):
        phrases = generate_candidate_phrases(price_task, price_soft, gw, provider, lexicon)
    assert phrases == ("affordable lobster",)
    assert any("completely unrelated" in r.message for r in caplog.records)


def test_candidate_phrases_all_invalid(price_task, price_soft, provider, lexicon, gateway_with):
    from patvar.gateway import CompletionResponse

    gw = gateway_with(lambda req: CompletionResponse("completely unrelated"))
    with pytest.raises(NoValidPhrases):
        generate_candidate_phrases(price_task, price_soft, gw, provider, lexicon)


def test_phrase_prompt_contains_anchor_and_soft_note(price_task, price_soft, provider, lexicon, gateway_with):
    from patvar.gateway import CompletionResponse

    seen = {}

    def responder(req):
        seen["prompt"] = "\n".join(m.content for m in req.messages)
        return CompletionResponse("affordable lobster")

    gw = gateway_with(responder)
    generate_candidate_phrases(price_task, price_soft, gw, provider, lexicon)
    assert "generate as many diverse example phrases" in seen["prompt"]
    assert "you can only use" in seen["prompt"]
    assert "affordable" in seen["prompt"]
    assert "(cheap)+*+NOUN" in seen["prompt"]


# ---------------------------------------------------------------------------
# Counterfactual generation
# ---------------------------------------------------------------------------


def test_generate_counterfactual_detects_used_phrase(price_task, gateway_with):
    from patvar.gateway import CompletionResponse

    reply = "The affordable lobster here makes this spot unbeatable."
    gw = gateway_with(lambda req: CompletionResponse(reply))
    phrases = ("affordable lobster", "reasonable price")
    cand = generate_counterfactual(price_task, phrases, gw, "r1:price:0")
    assert cand.uid == "r1:price:0"
    assert cand.generated_text == reply
    assert cand.used_phrase == "affordable lobster"


def test_generate_counterfactual_refusal_still_yields_candidate(price_task, gateway_with):
    from patvar.gateway import CompletionResponse

    gw = gateway_with(lambda req: CompletionResponse("cannot generate counterfactual"))
    cand = generate_counterfactual(price_task, ("affordable lobster",), gw, "r1:price:0")
    assert cand.used_phrase is None
    assert cand.generated_text == "cannot generate counterfactual"


def test_generate_without_vt(provider, gateway_with):
    from patvar.gateway import CompletionResponse

    gw = gateway_with(lambda req: CompletionResponse("The deal was all about cheap."))
    original = provider.annotate("The staff was rude.")
    cand = generate_without_vt(original, "service", "price", gw, "r2:price:novt:0")
    assert cand.uid == "r2:price:novt:0"
    assert cand.task.pattern is None
    assert cand.used_phrase is None
    with pytest.raises(ValueError):
        generate_without_vt(original, "service", "service", gw, "r2:service:novt:0")


def test_candidates_from_records_names_the_line(price_task):
    dataset = Dataset((LabeledExample(price_task.original, price_task.original_label),),
                      ("products", "price", "environment"), ())
    cand = CounterfactualCandidate("u0", price_task, "text", None, "length")
    good = candidate_to_record(cand)
    (back,) = candidates_from_records([(1, good)], dataset)
    assert back == cand and back.task.original is price_task.original
    # The verdicts of a survivors or audit line are not the candidate's.
    judged = {**good, "discriminator_label": 5, "verdicts": {"lexical": ["failed"]}}
    assert candidates_from_records([(1, judged)], dataset) == [cand]
    for key, value in (("original_id", "r99999"), ("original_text", "They have lobster"),
                       ("original_label", "environment"), ("target_label", "service")):
        with pytest.raises(ParseError, match="line 3"):
            candidates_from_records(
                enumerate([good, {**good, "uid": "u1"}, {**good, "uid": "u2", key: value}], 1),
                dataset)
    with pytest.raises(ParseError, match="line 3: uid 'u0' is already on line 1"):
        candidates_from_records(enumerate([good, {**good, "uid": "u1"}, good], 1), dataset)


# ---------------------------------------------------------------------------
# Target planning
# ---------------------------------------------------------------------------


def make_example(provider, label):
    return LabeledExample(provider.annotate("placeholder text."), label)


def test_plan_targets_all_others(provider):
    labels = ["service", "price", "environment", "products"]
    ex = make_example(provider, "service")
    assert plan_targets(ex, labels) == ["price", "environment", "products"]


def test_plan_targets_two_labels(provider):
    ex = make_example(provider, "a")
    assert plan_targets(ex, ["a", "b"]) == ["b"]
    with pytest.raises(ValueError):
        plan_targets(ex, ["a"])


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
    a = plan_targets(ex, labels, seed=1)
    assert a == plan_targets(ex, labels, seed=1)
    assert len(a) == 3
    # two seeds may coincide, but the seed must reach the sample
    assert len({tuple(plan_targets(ex, labels, seed=s)) for s in range(10)}) > 1
