import collections
import json
import os
import tempfile
from unittest import mock

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from patvar import gateway
from patvar.gateway import (
    BackendError,
    CacheError,
    ChatMessage,
    CompletionRequest,
    CompletionResponse,
    Gateway,
    GatewayTimeout,
    MockBackend,
    TransientBackendError,
    cache_key,
    cached_complete,
    complete,
)


def req(content="hello there", **kw):
    kw.setdefault("model", "test-model")
    kw.setdefault("max_tokens", 64)
    return CompletionRequest(messages=(ChatMessage("user", content),), **kw)


def test_message_validation():
    with pytest.raises(ValueError):
        ChatMessage("oracle", "x")
    with pytest.raises(ValueError):
        ChatMessage("user", "")
    with pytest.raises(ValueError):
        req(max_tokens=0)
    with pytest.raises(ValueError):
        req(temperature=-1.0)


def test_cache_key_sensitivity():
    base = req()
    assert cache_key(base) == cache_key(req())
    assert cache_key(base) != cache_key(req(temperature=0.5))
    assert cache_key(base) != cache_key(req(max_tokens=65))
    assert cache_key(base) != cache_key(req(model="other", max_tokens=64))
    assert cache_key(base) != cache_key(req("hello  there"))


def test_mock_table_response():
    backend = MockBackend(template_mode=False)
    r = req("ping")
    backend.add_response(r.messages, "canned")
    resp = complete(r, backend)
    assert resp == CompletionResponse("canned", "stop", from_cache=False)
    assert backend.calls == 1


def test_mock_without_entry_errors():
    backend = MockBackend(template_mode=False)
    with pytest.raises(BackendError):
        complete(req("unknown"), backend)


def test_transient_errors_retry_then_timeout():
    class Flaky:
        def __init__(self, failures):
            self.failures = failures
            self.calls = 0

        def send(self, r):
            self.calls += 1
            if self.calls <= self.failures:
                raise TransientBackendError(503, "unavailable")
            return CompletionResponse("late but fine")

    flaky = Flaky(failures=2)
    assert complete(req(), flaky, retries=3, backoff=0).text == "late but fine"
    assert flaky.calls == 3

    dead = Flaky(failures=99)
    with pytest.raises(GatewayTimeout):
        complete(req(), dead, retries=3, backoff=0)
    assert dead.calls == 4  # initial call plus three retries


def test_client_errors_never_retry():
    class Rejecting:
        def __init__(self):
            self.calls = 0

        def send(self, r):
            self.calls += 1
            raise BackendError(401, "unauthorized")

    backend = Rejecting()
    with pytest.raises(BackendError):
        complete(req(), backend, retries=3, backoff=0)
    assert backend.calls == 1


def test_cached_complete_hit_and_miss(tmp_path):
    backend = MockBackend(template_mode=False)
    r = req("cache me")
    backend.add_response(r.messages, "value")
    first = cached_complete(r, backend, tmp_path)
    assert (first.text, first.from_cache) == ("value", False)
    second = cached_complete(r, backend, tmp_path)
    assert (second.text, second.from_cache) == ("value", True)
    assert backend.calls == 1

    other = req("cache me", temperature=0.7)
    backend.add_response(other.messages, "value")
    third = cached_complete(other, backend, tmp_path)
    assert third.from_cache is False
    assert backend.calls == 2


def test_cache_transparency(tmp_path):
    backend = MockBackend(template_mode=False)
    r = req("transparent")
    backend.add_response(r.messages, "same answer")
    direct = complete(r, backend)
    cached_miss = cached_complete(r, backend, tmp_path)
    cached_hit = cached_complete(r, backend, tmp_path)
    assert direct.text == cached_miss.text == cached_hit.text
    assert direct.finish_reason == cached_hit.finish_reason


CORRUPTED_ENTRIES = [
    "{not json",
    "[]",
    '{"response": ["good", "stop"]}',
    '{"response": {"text": "good"}}',
    '{"response": {"text": 5, "finish_reason": "bogus"}}',
    '{"response": {"text": 5, "finish_reason": "stop"}}',
    '{"response": {"text": "stale", "finish_reason": "bogus"}}',
    '{"response": {"text": "stale", "finish_reason": "error"}}',
]


def test_corrupted_cache_entry_is_overwritten(tmp_path, caplog):
    for i, content in enumerate(CORRUPTED_ENTRIES):
        backend = MockBackend(template_mode=False)
        r = req("fragile")
        backend.add_response(r.messages, "good")
        cached_complete(r, backend, tmp_path / str(i))
        path = tmp_path / str(i) / (cache_key(r) + ".json")
        path.write_text(content, encoding="utf-8")
        caplog.clear()
        with caplog.at_level("WARNING"):
            resp = cached_complete(r, backend, tmp_path / str(i))
        assert (resp.text, resp.from_cache, backend.calls) == ("good", False, 2), content
        assert json.loads(path.read_text(encoding="utf-8"))["response"]["text"] == "good"
        assert any("corrupted" in rec.message for rec in caplog.records), content


def test_cache_dir_is_created_on_write(tmp_path):
    backend = MockBackend(template_mode=False)
    r = req("nested")
    backend.add_response(r.messages, "value")
    cache_dir = tmp_path / "a" / "b"
    assert cached_complete(r, backend, cache_dir).from_cache is False
    assert [p.name for p in cache_dir.iterdir()] == [cache_key(r) + ".json"]
    blocked = tmp_path / "file"
    blocked.write_text("", encoding="utf-8")
    with pytest.raises(CacheError):
        cached_complete(r, backend, blocked)


def test_cache_keys_stable_across_runs(tmp_path):
    # Key depends only on request content, not process state.
    assert cache_key(req("stable")) == "{}".format(cache_key(req("stable")))
    entry_names = set()
    backend = MockBackend(template_mode=False)
    r = req("stable")
    backend.add_response(r.messages, "x")
    cached_complete(r, backend, tmp_path)
    entry_names = {p.name for p in tmp_path.iterdir()}
    assert entry_names == {cache_key(r) + ".json"}


def test_error_responses_not_cached(tmp_path):
    class Erroring:
        def send(self, r):
            raise BackendError(400, "refused")

    with pytest.raises(BackendError):
        cached_complete(req("boom"), Erroring(), tmp_path)
    gw = Gateway(Erroring(), "test-model", str(tmp_path))
    with pytest.raises(BackendError):
        gw.complete(req("boom"))
    assert list(tmp_path.iterdir()) == []
    assert gw._served == {}


def test_mock_template_discriminator():
    backend = MockBackend(label_vocab={"price": ["cheap", "deal"], "service": ["staff"]})
    messages = (
        ChatMessage("system", "The assistant labels the text with exactly one label from the list."),
        ChatMessage("user", "text: what a cheap deal today\nlabels: service, price\nanswer with one label only"),
    )
    resp = backend.send(CompletionRequest("m", messages, 0.0, 16))
    assert resp.text == "price"


class Scripted:
    """Answers by prompt: `error*` raises a BackendError, `flaky*` fails
    transiently on its first send, anything else gets a text."""

    def __init__(self):
        self.calls = collections.Counter()

    def send(self, r):
        content = r.messages[0].content
        self.calls[content] += 1
        if content.startswith("flaky") and self.calls[content] == 1:
            raise TransientBackendError(503, "busy")
        if content.startswith("error"):
            raise BackendError(400, "refused")
        return CompletionResponse(f"answer to {content}", "length" if "1" in content else "stop")


prompts = st.sampled_from(["a0", "a1", "b0", "flaky0", "flaky1", "error0", "error1"])


@settings(max_examples=150, deadline=None)
@given(warm=st.lists(prompts, max_size=4), sequence=st.lists(prompts, max_size=16))
def test_gateway_serves_what_fresh_cached_calls_serve(warm, sequence):
    with tempfile.TemporaryDirectory() as gateway_dir, tempfile.TemporaryDirectory() as fresh_dir, \
            mock.patch.object(gateway.time, "sleep"):
        for content in warm:  # entries an earlier command left on disk
            outcome(cached_complete, req(content), Scripted(), gateway_dir)
            outcome(cached_complete, req(content), Scripted(), fresh_dir)
        caching, fresh, uncached = Scripted(), Scripted(), Scripted()
        gw = Gateway(caching, "test-model", gateway_dir)
        plain = Gateway(uncached, "test-model")
        for content in sequence:
            r = req(content)
            got = outcome(gw.complete, r)
            assert got == outcome(cached_complete, r, fresh, fresh_dir)
            assert outcome(plain.complete, r)[2] in (False, None)
        assert caching.calls == fresh.calls
        errors = [c for c in sequence if c.startswith("error")]
        assert all(caching.calls[c] == errors.count(c) for c in errors)
        assert sum(uncached.calls.values()) == len(sequence) + len(
            {c for c in sequence if c.startswith("flaky")})
        assert sorted(os.listdir(gateway_dir)) == sorted(os.listdir(fresh_dir))
        error_keys = {cache_key(req(c)) for c in errors}
        assert not error_keys & set(gw._served)
        assert not {k + ".json" for k in error_keys} & set(os.listdir(gateway_dir))


def outcome(call, *args):
    """(text, finish_reason, from_cache) of a completion, or the class of the
    BackendError it raised, padded to the same shape."""
    try:
        resp = call(*args)
    except BackendError as exc:
        return (type(exc), exc.status, None)
    return (resp.text, resp.finish_reason, resp.from_cache)


class _FakeReply:
    def __init__(self, status, body):
        self.status_code = status
        self.text = body if isinstance(body, str) else json.dumps(body)

    def json(self):
        return json.loads(self.text)


def _choice(content, finish="stop"):
    return {"choices": [{"message": {"role": "assistant", "content": content},
                         "finish_reason": finish}]}


@pytest.mark.parametrize("status, body, expected", [
    (200, _choice("hi"), CompletionResponse("hi", "stop")),
    (200, _choice("hi", "length"), CompletionResponse("hi", "length")),
    (200, _choice(""), CompletionResponse("", "stop")),
    (200, _choice(None), BackendError),
    (200, _choice([{"type": "text", "text": "hi"}]), BackendError),
    (200, _choice(7), BackendError),
    (200, {"choices": []}, BackendError),
    (200, {"choices": [{"finish_reason": "stop"}]}, BackendError),
    (200, ["hi"], BackendError),
    (200, "not json", BackendError),
    (404, "no such model", BackendError),
    (500, "oops", TransientBackendError),
    (503, _choice("hi"), TransientBackendError),
    (None, requests.Timeout("read timed out"), TransientBackendError),
    (None, requests.ConnectionError("refused"), TransientBackendError),
    (200, _choice("hi", None), CompletionResponse("hi", "stop")),
    (200, _choice("hi", "content_filter"), BackendError),
])
def test_http_backend_reply_to_response(monkeypatch, status, body, expected):
    sent = []

    def post(url, **kwargs):
        sent.append((url, kwargs))
        if isinstance(body, Exception):
            raise body
        return _FakeReply(status, body)

    monkeypatch.setattr(requests, "post", post)
    backend = gateway.HttpBackend("http://llm.invalid/v1/", api_key="k")
    if isinstance(expected, CompletionResponse):
        assert backend.send(req()) == expected
    else:
        with pytest.raises(expected) as exc:
            backend.send(req())
        assert type(exc.value) is expected
        assert exc.value.status == status
    [(url, kwargs)] = sent
    assert url == "http://llm.invalid/v1/chat/completions"
    assert kwargs["json"]["messages"] == [{"role": "user", "content": "hello there"}]
    assert kwargs["headers"]["Authorization"] == "Bearer k"
    assert kwargs["timeout"] == gateway.HttpBackend.TIMEOUT_S
