import collections
import contextlib
import json
import os
import socket
import tempfile
import time
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patvar import gateway
from patvar.gateway import (
    FINISH_REASONS,
    ROLES,
    BackendError,
    CacheError,
    ChatMessage,
    CompletionRequest,
    CompletionResponse,
    Gateway,
    MockBackend,
    TransientBackendError,
    cache_key,
    complete,
)
from patvar.prompts import fill, load_template

from conftest import Reply
from oracles import cache_line


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


@pytest.mark.parametrize("max_tokens", [True, 256.0])
def test_max_tokens_must_be_an_int(max_tokens):
    # A bool would be keyed and posted as `true`, a float as `256.0`.
    with pytest.raises(ValueError, match="max_tokens must be a positive int"):
        req(max_tokens=max_tokens)


def test_cache_key_sensitivity():
    base = req()
    assert cache_key(base) == cache_key(req())
    assert cache_key(base) != cache_key(req(max_tokens=65))
    assert cache_key(base) != cache_key(req(model="other", max_tokens=64))
    assert cache_key(base) != cache_key(req("hello  there"))


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
    with mock.patch.object(gateway.time, "sleep") as sleep:
        assert complete(req(), flaky).text == "late but fine"
    assert [c.args[0] for c in sleep.call_args_list] == [0.5, 1.0]
    assert flaky.calls == 3

    dead = Flaky(failures=99)
    with mock.patch.object(gateway.time, "sleep") as sleep, \
            pytest.raises(BackendError, match="gave up after 3 retries"):
        complete(req(), dead)
    assert [c.args[0] for c in sleep.call_args_list] == [0.5, 1.0, 2.0]
    assert dead.calls == 1 + gateway.RETRIES == 4


def test_client_errors_never_retry():
    class Rejecting:
        def __init__(self):
            self.calls = 0

        def send(self, r):
            self.calls += 1
            raise BackendError(401, "unauthorized")

    backend = Rejecting()
    with mock.patch.object(gateway.time, "sleep") as sleep, pytest.raises(BackendError):
        complete(req(), backend)
    assert backend.calls == 1
    sleep.assert_not_called()


def served(r, backend, cache_dir):
    """The response of a fresh gateway, as a new command would get it."""
    with contextlib.closing(Gateway(backend, r.model, str(cache_dir))) as gw:
        return gw.complete(r)


def segments(cache_dir):
    return sorted(p for p in os.listdir(cache_dir) if p.endswith(gateway.SEGMENT_SUFFIX))


def cache_lines(cache_dir, names=None):
    """(key, entry) of every line of the named segments, all by default, in
    segment order."""
    lines = []
    for name in sorted(segments(cache_dir) if names is None else names):
        with open(os.path.join(cache_dir, name), encoding="ascii") as fh:
            for line in fh:
                key, _, entry = line.partition(" ")
                lines.append((key, json.loads(entry)))
    return lines


def new_keys(cache_dir, old):
    """How often each key was appended to the segments not in `old`."""
    return collections.Counter(
        key for key, _ in cache_lines(cache_dir, set(os.listdir(cache_dir)) - old))


def entry_line(r, text, finish_reason="stop"):
    return cache_line(cache_key(r), r, text, finish_reason, 0.0)


def test_cache_hit_and_miss(tmp_path, canned):
    r = req("cache me")
    backend = canned({r.messages: "value"})
    first = served(r, backend, tmp_path)
    assert (first.text, first.from_cache) == ("value", False)
    second = served(r, backend, tmp_path)
    assert (second.text, second.from_cache) == ("value", True)
    assert backend.calls == 1

    other = req("cache me", max_tokens=65)
    third = served(other, backend, tmp_path)
    assert third.from_cache is False
    assert backend.calls == 2
    assert [key for key, _ in cache_lines(tmp_path)] == [cache_key(r), cache_key(other)]


def test_cache_transparency(tmp_path, canned):
    r = req("transparent")
    backend = canned({r.messages: "same answer"})
    direct = complete(r, backend)
    cached_miss = served(r, backend, tmp_path)
    cached_hit = served(r, backend, tmp_path)
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


def test_corrupted_cache_entry_is_overwritten(tmp_path, caplog, canned):
    r = req("fragile")
    torn = [entry_line(r, "stale")[:cut] for cut in (65, 100, -1)]
    for i, line in enumerate([f"{cache_key(r)} {c}\n" for c in CORRUPTED_ENTRIES] + torn):
        cache_dir = tmp_path / str(i)
        cache_dir.mkdir()
        (cache_dir / "0-old.log").write_text(entry_line(r, "stale") + line, encoding="ascii")
        backend = canned({r.messages: "good"})
        caplog.clear()
        with caplog.at_level("WARNING"):
            resp = served(r, backend, cache_dir)
        assert (resp.text, resp.from_cache, backend.calls) == ("good", False, 1), line
        assert any("corrupted" in rec.message for rec in caplog.records), line
        [old, new] = segments(cache_dir)
        assert old == "0-old.log"
        assert (cache_dir / new).read_text(encoding="ascii").startswith(cache_key(r) + " ")
        resp = served(r, backend, cache_dir)
        assert (resp.text, resp.from_cache, backend.calls) == ("good", True, 1), line


def test_cache_line_that_is_not_utf8_is_overwritten(tmp_path, caplog, canned):
    r = req("bytes")
    line = entry_line(r, "stale").encode("ascii").replace(b"stale", b"st\xffle")
    (tmp_path / "0-old.log").write_bytes(line)
    backend = canned({r.messages: "good"})
    with caplog.at_level("WARNING"):
        resp = served(r, backend, tmp_path)
    assert (resp.text, resp.from_cache, backend.calls) == ("good", False, 1)
    assert any("corrupted" in rec.message for rec in caplog.records)
    resp = served(r, backend, tmp_path)
    assert (resp.text, resp.from_cache, backend.calls) == ("good", True, 1)


def test_cache_dir_is_created_on_write(tmp_path, canned):
    r = req("nested")
    backend = canned({r.messages: "value"})
    cache_dir = tmp_path / "a" / "b"
    assert served(r, backend, cache_dir).from_cache is False
    [name] = os.listdir(cache_dir)
    assert name.endswith(gateway.SEGMENT_SUFFIX)
    assert [key for key, _ in cache_lines(cache_dir)] == [cache_key(r)]
    blocked = tmp_path / "file"
    blocked.write_text("", encoding="utf-8")
    with pytest.raises(CacheError):
        served(r, backend, blocked)


def test_cache_keys_stable_across_runs(tmp_path, canned):
    # Key depends only on request content, not process state.
    assert cache_key(req("stable")) == "{}".format(cache_key(req("stable")))
    r = req("stable")
    backend = canned({r.messages: "x"})
    served(r, backend, tmp_path)
    [(key, entry)] = cache_lines(tmp_path)
    assert key == cache_key(r)
    assert entry["response"] == {"text": "x", "finish_reason": "stop"}


def test_cache_key_is_pinned():
    # A changed key would orphan every cache directory written before the change.
    r = CompletionRequest("mock-model", (ChatMessage("system", "s"), ChatMessage("user", "u")),
                          max_tokens=16)
    assert cache_key(r) == "78d9b1585cc6a2ea6d54aba3bcee9c2b265d0032c522feab073e157f9e3d4b05"
    assert '"temperature": 0.0' in r.to_json()


def test_per_key_files_are_not_read(tmp_path, canned):
    r = req("legacy")
    backend = canned({r.messages: "fresh"})
    legacy = tmp_path / (cache_key(r) + ".json")
    legacy.write_text(entry_line(r, "old").partition(" ")[2], encoding="ascii")
    assert served(r, backend, tmp_path).text == "fresh"
    assert legacy.read_text(encoding="ascii") == entry_line(r, "old").partition(" ")[2]


def test_error_responses_not_cached(tmp_path):
    class Erroring:
        def send(self, r):
            raise BackendError(400, "refused")

    with pytest.raises(BackendError):
        served(req("boom"), Erroring(), tmp_path)
    gw = Gateway(Erroring(), "test-model", str(tmp_path))
    with pytest.raises(BackendError):
        gw.complete(req("boom"))
    assert list(tmp_path.iterdir()) == []
    assert gw._served == {}


# Field names as the mock reads them, each with the text that ends its value.
MOCK_FIELDS = [("conversation", " Pattern:"), ("text", ","), ("text", "\n"),
               ("modified label", ","), ("original label", ","),
               ("generated phrases", ", modified text:"), ("target label", "\n"),
               ("sentence", "\n"), ("labels", "\n")]


@pytest.mark.parametrize("name, stop", MOCK_FIELDS)
def test_mock_field_after_text_that_lowercases_longer(name, stop):
    # "İ".lower() is two characters, so an index into a lowercased prompt
    # would lie past the field in the prompt itself.
    prompt = f"İİİ {name}: Great Food{stop} İ tail: x"
    assert MockBackend._field(prompt, name, stop=stop) == "Great Food"
    assert MockBackend._field(prompt.replace("İ", "I"), name, stop=stop) == "Great Food"


def test_mock_discriminator_reads_labels_after_non_ascii_text():
    backend = MockBackend(label_vocab={"price": ["cheap"], "service": ["staff"]})
    messages = (
        ChatMessage("system", "The assistant labels the text with exactly one label from the list."),
        ChatMessage("user", "text: İİİİ the staff\nlabels: service, price\nanswer with one label only"),
    )
    assert backend.send(CompletionRequest("m", messages, 16)).text == "service"


@pytest.mark.parametrize("template, slots, answer", [
    ("discriminator", {"text": "ASK THE STAFF. LABELS: none", "labels": "service, price"},
     "service"),
    ("counterfactual_no_vt", {"text": "Target Label: oops. the staff was rude.", "label": "service",
                              "target_label": "price"},
     "Target Label: oops. the staff but cheap deal overall."),
], ids=["discriminator_labels", "rewrite_target_label"])
def test_mock_skips_a_marker_in_another_case_in_slot_text(template, slots, answer):
    backend = MockBackend(label_vocab={"price": ["cheap", "deal"], "service": ["staff"]})
    messages = fill(load_template(template), slots)
    assert backend.send(CompletionRequest("m", messages, 16)).text == answer


# Text a JSON encoder must escape: non-ASCII, quotes, backslashes and control characters.
escaped_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\n\té☃\u2028\U0001f600')),
                       max_size=12)


@settings(max_examples=100, deadline=None)
@given(model=escaped_text,
       messages=st.lists(st.tuples(st.sampled_from(ROLES), escaped_text.filter(bool)),
                         min_size=1, max_size=5),
       max_tokens=st.integers(1, 10**9), text=escaped_text,
       finish_reason=st.sampled_from(FINISH_REASONS),
       now=st.floats(0, 4e9) | st.sampled_from([0.0, 1e-7, 1.7e9, 1e16]))
def test_miss_appends_the_json_line_of_its_entry(model, messages, max_tokens, text, finish_reason, now):
    r = CompletionRequest(model, tuple(ChatMessage(*m) for m in messages), max_tokens)
    backend = types.SimpleNamespace(send=lambda _: CompletionResponse(text, finish_reason))
    with tempfile.TemporaryDirectory() as cache_dir, mock.patch.object(gateway.time, "time", return_value=now):
        gw = Gateway(backend, model, cache_dir)
        gw.complete(r)
        gw.close()
        (segment,) = os.listdir(cache_dir)
        with open(os.path.join(cache_dir, segment), "rb") as fh:
            line = fh.read().decode("ascii")
    assert line == cache_line(cache_key(r), r, text, finish_reason, now)


def test_mock_template_discriminator():
    backend = MockBackend(label_vocab={"price": ["cheap", "deal"], "service": ["staff"]})
    messages = (
        ChatMessage("system", "The assistant labels the text with exactly one label from the list."),
        ChatMessage("user", "text: what a cheap deal today\nlabels: service, price\nanswer with one label only"),
    )
    resp = backend.send(CompletionRequest("m", messages, 16))
    assert resp.text == "price"
    with pytest.raises(BackendError):  # no template for this prompt
        backend.send(req("an instruction the mock does not know"))


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
# A line of an earlier command's segment: a stored answer (None) or a corrupted entry.
old_lines = st.tuples(prompts, st.sampled_from([None, *CORRUPTED_ENTRIES]))
# A segment: its lines, and perhaps a last line torn after `cut` characters.
old_segments = st.tuples(st.lists(old_lines, max_size=4),
                         st.none() | st.tuples(prompts, st.integers(1, 10_000)))


def write_segments(cache_dir, drawn):
    """Writes the drawn segments and returns, for each prompt that has a
    line, whether its last line is bad."""
    bad = {}
    for i, (lines, torn) in enumerate(drawn):
        text = ""
        for content, corrupted in lines:
            r = req(content)
            text += entry_line(r, f"stored {content}") if corrupted is None else \
                f"{cache_key(r)} {corrupted}\n"
            bad[content] = corrupted is not None
        if torn is not None:
            content, cut = torn
            line = entry_line(req(content), f"stored {content}")
            cut = cut % (len(line) - 1) + 1
            text += line[:cut]
            if cut > 64:  # the key and its space survived, so the key's last line is bad
                bad[content] = True
        (cache_dir / f"{i:020d}-0-0.log").write_text(text, encoding="ascii")
    return bad


@settings(max_examples=150, deadline=None)
@given(drawn=st.lists(old_segments, max_size=3), sequence=st.lists(prompts, max_size=16))
def test_gateway_serves_what_fresh_gateways_serve(drawn, sequence):
    with tempfile.TemporaryDirectory() as gateway_dir, tempfile.TemporaryDirectory() as fresh_dir, \
            mock.patch.object(gateway.time, "sleep"):
        bad = write_segments(Path(gateway_dir), drawn)
        assert write_segments(Path(fresh_dir), drawn) == bad
        old = set(os.listdir(gateway_dir))
        caching, fresh = Scripted(), Scripted()
        gw = Gateway(caching, "test-model", gateway_dir)
        stored = {c for c in sequence if c in bad and not bad[c]}
        answered = set()
        for content in sequence:
            r = req(content)
            got = outcome(gw.complete, r)
            assert got == outcome(served, r, fresh, fresh_dir)
            if got[2] is not None:  # a hit when the prompt was stored or answered before
                assert got[2] == (content in stored or content in answered), content
                answered.add(content)
        assert caching.calls == fresh.calls
        for c in set(sequence):
            expected = (0 if c in stored else sequence.count(c) if c.startswith("error")
                        else 2 if c.startswith("flaky") else 1)
            assert caching.calls[c] == expected, c
        appended = {c for c in sequence if c not in stored and not c.startswith("error")}
        new = set(os.listdir(gateway_dir)) - old
        assert len(new) == (1 if appended else 0)
        # read before close: each entry was flushed before its response was returned
        assert new_keys(gateway_dir, old) == new_keys(fresh_dir, old) == collections.Counter(
            cache_key(req(c)) for c in appended)
        gw.close()
        error_keys = {cache_key(req(c)) for c in sequence if c.startswith("error") and c not in stored}
        assert not error_keys & set(gw._served)


def outcome(call, *args):
    """(text, finish_reason, from_cache) of a completion, or the class of the
    BackendError it raised, padded to the same shape."""
    try:
        resp = call(*args)
    except BackendError as exc:
        return (type(exc), exc.status, None)
    return (resp.text, resp.finish_reason, resp.from_cache)


def _choice(content, finish="stop"):
    return {"choices": [{"message": {"role": "assistant", "content": content},
                         "finish_reason": finish}]}


def _reply(status, body, headers=None):
    """The loopback reply of `body`, which is JSON-encoded unless it is a string."""
    return Reply(status, (body if isinstance(body, str) else json.dumps(body)).encode(), headers or {})


# Bodies of a send that gets no complete reply: the server holds its reply
# past TIMEOUT_S, no server listens on the port, or the server announces a
# longer body than it sends before it closes the connection.
STALLED, REFUSED, CUT = object(), object(), object()


def serving(loopback, *replies):
    """The URL of a loopback server that answers with `replies`, the last one
    forever, and the (path, headers, raw body) of each POST it gets."""
    queue, received = list(replies), []

    def answer(path, headers, body):
        received.append((path, headers, body))
        reply = queue.pop(0) if len(queue) > 1 else queue[0]
        if reply is STALLED:
            loopback.ended.wait(30)
            return None
        return reply

    return loopback.serve(answer), received


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
    (None, STALLED, TransientBackendError),
    (None, REFUSED, TransientBackendError),
    (200, _choice("hi", None), CompletionResponse("hi", "stop")),
    (200, _choice("hi", "content_filter"), BackendError),
    (429, "slow down", TransientBackendError),
    (None, CUT, TransientBackendError),
])
def test_http_backend_reply_to_response(loopback, monkeypatch, tmp_path, status, body, expected):
    if body is STALLED:
        monkeypatch.setattr(gateway.HttpBackend, "TIMEOUT_S", 0.2)
    whole = json.dumps(_choice("hi")).encode()
    reply = (Reply(200, whole[:13], length=len(whole)) if body is CUT
             else body if body in (STALLED, REFUSED) else _reply(status, body))
    url, received = serving(loopback, reply)
    with socket.socket() as unheard:  # bound, but nothing listens on it
        unheard.bind(("127.0.0.1", 0))
        if body is REFUSED:
            url = f"http://127.0.0.1:{unheard.getsockname()[1]}"
        backend = gateway.HttpBackend(url + "/v1/", api_key="k")
        start = time.monotonic()
        if isinstance(expected, CompletionResponse):
            assert backend.send(req()) == expected
        else:
            with pytest.raises(expected) as exc:
                backend.send(req())
            assert type(exc.value) is expected
            assert exc.value.status == status
    # The shortened TIMEOUT_S, not the server, ended the wait for a stalled reply.
    assert time.monotonic() - start < 10
    assert len(received) == (0 if body is REFUSED else 1)
    for path, headers, posted in received:
        assert path == "/v1/chat/completions"
        assert json.loads(posted)["messages"] == [{"role": "user", "content": "hello there"}]
        assert headers["Authorization"] == "Bearer k"
        assert headers["Content-Type"] == "application/json"
    if isinstance(expected, CompletionResponse):
        # The bytes the backend posts are the request text its cache line records.
        gw = Gateway(backend, "test-model", str(tmp_path))
        assert gw.complete(req()) == expected
        gw.close()
        [segment] = tmp_path.iterdir()
        key, _, entry = segment.read_bytes().partition(b" ")
        assert key.decode() == cache_key(req())
        assert entry.startswith(b'{"request": ' + received[-1][2] + b', "response": ')
        assert received[-1][2] == req().to_json().encode()


@pytest.mark.parametrize("retry_after, slept", [
    ("2", [2.0]),
    (" 7 ", [7.0]),
    ("86400", [TransientBackendError.MAX_RETRY_AFTER_S]),
    ("Wed, 21 Oct 2015 07:28:00 GMT", [0.5]),
    ("1.5", [0.5]),
    (None, [0.5]),
])
def test_http_429_sleeps_its_capped_retry_after(loopback, tmp_path, retry_after, slept):
    headers = {} if retry_after is None else {"retry-after": retry_after}
    url, received = serving(loopback, _reply(429, "slow down", headers), _reply(200, _choice("hi")))
    gw = Gateway(gateway.HttpBackend(url + "/v1"), "test-model", str(tmp_path))
    with mock.patch.object(gateway.time, "sleep") as sleep:
        resp = gw.complete(req())
    gw.close()
    assert resp == CompletionResponse("hi", "stop")
    assert [c.args[0] for c in sleep.call_args_list] == slept
    assert len(received) == 2
    [(key, entry)] = cache_lines(tmp_path)
    assert (key, entry["response"]["text"]) == (cache_key(req()), "hi")


def test_http_429_forever_times_out_uncached(loopback, tmp_path):
    url, received = serving(loopback, _reply(429, "slow down", {"Retry-After": "3"}))
    gw = Gateway(gateway.HttpBackend(url + "/v1"), "test-model", str(tmp_path))
    with mock.patch.object(gateway.time, "sleep") as sleep, \
            pytest.raises(BackendError, match="gave up after 3 retries"):
        gw.complete(req())
    gw.close()
    assert [c.args[0] for c in sleep.call_args_list] == [3.0, 3.0, 3.0]
    assert len(received) == 1 + gateway.RETRIES
    assert list(tmp_path.iterdir()) == []
    assert gw._served == {}
