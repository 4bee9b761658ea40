"""Uniform access to chat-completion backends.

Three pieces: request/response types with a stable content-hash cache key,
backends (an HTTP client for any chat-completions-compatible server and a
deterministic mock for offline runs), and `complete`, which retries a
transient failure `RETRIES` times. `Gateway` binds a backend to a model,
keeps the responses of a cache directory in append-only segment files, and
serves a repeated request from memory.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import re
import time
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Mapping, Protocol

from .errors import PatvarError

logger = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")

# Every request is sent, and keyed, at this temperature; a float, so every
# cache key hashes the same `"temperature":0.0`.
TEMPERATURE = 0.0


class BackendError(PatvarError):
    def __init__(self, status: int | None, body: str):
        self.status = status
        self.body = body
        super().__init__(f"backend error {status}: {body[:200]}")


class TransientBackendError(BackendError):
    """Retryable failure (429, 5xx, connection trouble). `retry_after` is the
    delay in seconds the server asked for, when it gave one."""

    MAX_RETRY_AFTER_S = 60.0

    def __init__(self, status: int | None, body: str, retry_after: float | None = None):
        super().__init__(status, body)
        self.retry_after = retry_after


class CacheError(PatvarError):
    pass


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")


@dataclass(frozen=True)
class CompletionRequest:
    model: str
    messages: tuple[ChatMessage, ...]
    max_tokens: int = 256

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        # A bool is an int but would be keyed and posted as `true`.
        if type(self.max_tokens) is not int or self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be a positive int, got {self.max_tokens!r}")

    def to_json(self) -> str:
        """The chat-completions request body, what a backend posts and a cache line
        records: the text of `json.dumps` of `{"model", "messages": [{"role",
        "content"}...], "temperature", "max_tokens"}`, written field by field."""
        messages = ", ".join(f'{{"role": {_quote(m.role)}, "content": {_quote(m.content)}}}'
                             for m in self.messages)
        return (f'{{"model": {_quote(self.model)}, "messages": [{messages}], '
                f'"temperature": {TEMPERATURE!r}, "max_tokens": {self.max_tokens}}}')


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    finish_reason: str = "stop"
    from_cache: bool = False


FINISH_REASONS = ("stop", "length")  # every finish reason a response may carry


_quote = json.encoder.encode_basestring_ascii


def cache_key(req: CompletionRequest) -> str:
    """Stable digest over the full request; any field change changes the key.

    The digest is the sha256 of the request's canonical JSON: the keys
    `max_tokens`, `messages` (as `[[role, content], ...]`), `model` and
    `temperature` in that order, ASCII escapes and no spaces. It is written
    string by string, with no encoder, dict or list per request. A key is
    built for every request, a repeated one too: a cold seed-7 `gen` builds
    1,257 keys for 1,131 distinct ones.
    """
    messages = ",".join(f"[{_quote(m.role)},{_quote(m.content)}]" for m in req.messages)
    payload = (f'{{"max_tokens":{req.max_tokens},"messages":[{messages}],'
               f'"model":{_quote(req.model)},"temperature":{TEMPERATURE!r}}}')
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


class Backend(Protocol):
    def send(self, req: CompletionRequest) -> CompletionResponse: ...


class MockBackend:
    """Deterministic template answers, enough to drive the whole pipeline
    offline.

    The prompt kind is recognized from its instruction text and an
    echo-style answer is synthesized. `label_vocab` (label -> indicative
    words) makes the counterfactual generator and discriminator label-aware;
    `flaw_rate` is the share of generation prompts answered with a flaw.
    """

    def __init__(self, label_vocab: Mapping[str, list[str]] | None = None, flaw_rate: float = 0.0):
        self.label_vocab = {k.lower(): list(v) for k, v in (label_vocab or {}).items()}
        self.flaw_rate = flaw_rate
        self.calls = 0

    # -- template helpers ---------------------------------------------------

    @staticmethod
    def _field(text: str, name: str, *, stop: str = ",") -> str:
        # Case-sensitive: the templates write every marker in lowercase, as `name` is.
        marker = name + ":"
        i = text.find(marker)
        if i < 0:
            return ""
        rest = text[i + len(marker):]
        j = rest.find(stop)
        return (rest if j < 0 else rest[:j]).strip()

    def _vocab(self, label: str) -> list[str]:
        return self.label_vocab.get(label.lower(), [label])

    _FLAWS = ("refusal", "echo", "pattern-drop", "label-miss")

    def _flaw(self, prompt: str) -> str | None:
        # Deterministic per prompt: the same request always gets the same flaw.
        if self.flaw_rate <= 0:
            return None
        bucket = int.from_bytes(hashlib.sha256(prompt.encode("utf-8", "surrogatepass")).digest()[:4], "big")
        draw = (bucket % 10_000) / 10_000.0
        if draw >= self.flaw_rate:
            return None
        return self._FLAWS[bucket // 10_000 % len(self._FLAWS)]

    def send(self, req: CompletionRequest) -> CompletionResponse:
        self.calls += 1
        system = req.messages[0].content if req.messages else ""
        prompt = "\n".join(m.content for m in req.messages if m.role == "user")
        if "separate the given multi-labeled sentences" in system:
            tail = prompt.rpartition("Conversation:")[2]
            text = self._field("conversation:" + tail, "conversation", stop=" Pattern:")
            labels = [l.strip() for l in tail.rpartition("Label:")[2].split(",") if l.strip()]
            parts = "; ".join(f"'{text}' + '' + '{label}'" for label in labels)
            return CompletionResponse(parts)
        if "create a list of phrases" in system:
            phrase = self._field(prompt, "text")
            return CompletionResponse(phrase)
        if "generate a counterfactual example" in system:
            target = self._field(prompt, "modified label")
            original_label = self._field(prompt, "original label")
            phrases = self._field(prompt, "generated phrases", stop=", modified text:")
            phrase = phrases.split(",")[0].strip()
            words = " ".join(self._vocab(target)[:3])
            flaw = self._flaw(prompt)
            if flaw == "refusal":
                return CompletionResponse("cannot generate counterfactual")
            if flaw == "echo":
                return CompletionResponse(f"modified text: {phrase} and the {words}.")
            if flaw == "pattern-drop":
                return CompletionResponse(f"Something else entirely about the {words}.")
            if flaw == "label-miss":
                kept = " ".join(self._vocab(original_label)[:4])
                return CompletionResponse(f"{phrase} and the {kept} above all.")
            return CompletionResponse(f"{phrase} and the {words}.")
        if "rewrites the given sentence" in system:
            # Unconstrained rewrites tend to keep chunks of the original text,
            # so the mock does too; the counterfactual text stays noisier than
            # the phrase-anchored one.
            target = self._field(prompt, "target label", stop="\n")
            original = self._field(prompt, "sentence", stop="\n").rstrip(".!?")
            fragment = " ".join(original.split()[:5])
            words = " ".join(self._vocab(target)[:2])
            return CompletionResponse(f"{fragment} but {words} overall.")
        if "labels the text" in system:
            text = self._field(prompt, "text", stop="\n").lower()
            labels = [l.strip() for l in self._field(prompt, "labels", stop="\n").split(",")]
            tokens = text.replace(".", " ").replace(",", " ").split()
            best, best_score = labels[0] if labels else "", -1
            for label in labels:
                hints = {w.lower() for w in self._vocab(label)} | {label.lower()}
                score = sum(1 for t in tokens if t in hints)
                if score > best_score:
                    best, best_score = label, score
            return CompletionResponse(best)
        raise BackendError(400, f"mock has no template for: {system[:80]}")


class HttpBackend:
    """Chat-completions HTTP client (OpenAI-style wire format).

    The completion is the first choice's `message.content`, which must be a
    string; any other reply body is a malformed-body BackendError, and so is
    a `finish_reason` other than `stop`, `length` or null. A 429 or 5xx reply
    is transient and carries its `Retry-After` when that is given in seconds;
    a timeout, a refused connection and a body cut short are transient too.
    """

    TIMEOUT_S = 60.0

    def __init__(self, base_url: str, api_key: str | None = None):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key

    def send(self, req: CompletionRequest) -> CompletionResponse:
        import http.client
        import urllib.error
        import urllib.request  # imported here: it loads ssl, which no mock run needs

        post = urllib.request.Request(f"{self.base_url}/chat/completions",
                                      headers={"Content-Type": "application/json"})
        if self.api_key:
            post.add_header("Authorization", f"Bearer {self.api_key}")
        try:
            try:
                reply = urllib.request.urlopen(post, req.to_json().encode("ascii"), self.TIMEOUT_S)
            except urllib.error.HTTPError as exc:  # a 4xx or 5xx reply; its body is read below
                reply = exc
            with reply:
                status, body = reply.status, reply.read().decode("utf-8", errors="replace")
                retry_after = reply.headers.get("Retry-After", "").strip()
        except (OSError, http.client.HTTPException) as exc:  # a timeout, no connection, a cut body
            raise TransientBackendError(None, f"no complete reply: {exc!r}") from exc
        if status == 429 or status >= 500:
            raise TransientBackendError(
                status, body, float(retry_after) if retry_after.isdecimal() else None)
        if status >= 400:
            raise BackendError(status, body)
        try:
            choice = json.loads(body)["choices"][0]
            text = choice["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(status, f"malformed response body: {exc!r}") from exc
        if not isinstance(text, str):
            raise BackendError(status, f"malformed response body: content is {type(text).__name__}")
        finish = choice.get("finish_reason")
        if finish not in (*FINISH_REASONS, None):
            raise BackendError(status, f"malformed response body: finish_reason {finish!r}")
        return CompletionResponse(text, finish or "stop")


RETRIES = 3
BACKOFF_S = 0.5


def complete(req: CompletionRequest, backend: Backend) -> CompletionResponse:
    """Single completion with up to `RETRIES` retries on transient failures only.

    Before a retry it sleeps the delay the server asked for, capped at
    `TransientBackendError.MAX_RETRY_AFTER_S`, or else the exponential backoff
    `BACKOFF_S * 2 ** (retry - 1)`.
    """
    attempt = 0
    while True:
        try:
            return backend.send(req)
        except TransientBackendError as exc:
            attempt += 1
            if attempt > RETRIES:
                raise BackendError(None, f"gave up after {RETRIES} retries: {exc.body}") from exc
            if exc.retry_after is None:
                delay = BACKOFF_S * (2 ** (attempt - 1))
            else:
                delay = min(exc.retry_after, TransientBackendError.MAX_RETRY_AFTER_S)
            logger.warning("transient backend failure (attempt %d/%d): %s", attempt, RETRIES, exc)
            if delay:
                time.sleep(delay)


SEGMENT_SUFFIX = ".log"
_ENTRY_HEAD = re.compile(rb"[0-9a-f]{64} ")
_segment_numbers = itertools.count()


@dataclass
class Gateway:
    """A backend bound to a model name and a cache directory.

    The cache is a set of append-only segment files (`*.log`), one per
    gateway that missed, so one per command. Each line is
    `<cache_key> <entry JSON>`, and a later line for a key, in segment-name
    order, supersedes an earlier one. The entry is `{"request": <request
    JSON>, "response": {"text", "finish_reason"}, "timestamp": <seconds>}`,
    written field by field, with the bytes of `json.dumps(entry,
    ensure_ascii=True)`. On its first request the gateway indexes every
    segment in one map (key -> file and byte offset of its last line). On a
    hit it reads and validates that one line, and the map then holds its
    response, so a hit's line is read from disk once. A line that is
    torn or not JSON, or whose response lacks a string `text` or a
    `stop`/`length` finish, is corrupted: a warned miss whose fresh response
    supersedes it. A miss appends its entry to this gateway's own segment,
    created on the first miss, before the response is returned, and the map
    holds the response as `from_cache=True`; a backend failure appends and
    holds nothing. Requests do repeat within a command: a pool row that
    repeats another's text and label sends its rewrite and its
    counterfactual prompts again for each target. On the walkthrough corpus
    (seed 7: 200 pool rows, 179 distinct), a cold `gen` makes 1,257 calls
    for 1,131 keys, and the map answers the 126 repeats. `close` drops it.
    """

    backend: Backend
    model: str
    cache_dir: str
    _index: dict[str, CompletionResponse | tuple[BinaryIO, int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _readers: list[BinaryIO] = field(default_factory=list, init=False, repr=False, compare=False)
    _segment: BinaryIO | None = field(default=None, init=False, repr=False, compare=False)

    def request(self, messages: Iterable[ChatMessage], max_tokens: int) -> CompletionRequest:
        """A request for this gateway's model."""
        return CompletionRequest(self.model, tuple(messages), max_tokens)

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        key = cache_key(req)
        if self._index is None:
            self._index = self._build_index()
        resp = self._index.get(key)
        if type(resp) is tuple:
            resp = self._read(*resp)  # a disk hit is already from_cache
            if resp is not None:
                self._index[key] = resp
        if resp is None:
            resp = complete(req, self.backend)
            self._append(key, req, resp)
            self._index[key] = CompletionResponse(resp.text, resp.finish_reason, from_cache=True)
        return resp

    def close(self) -> None:
        """Close the segment files and drop the map; a later request indexes the cache again."""
        for fh in self._readers:
            fh.close()
        if self._segment is not None:
            self._segment.close()
        self._index, self._readers, self._segment = None, [], None

    def _build_index(self) -> dict[str, CompletionResponse | tuple[BinaryIO, int]]:
        try:
            names = sorted(os.listdir(self.cache_dir))
        except (FileNotFoundError, NotADirectoryError):
            return {}
        except OSError as exc:
            raise CacheError(f"cannot list cache directory {self.cache_dir}: {exc}") from exc
        index: dict[str, CompletionResponse | tuple[BinaryIO, int]] = {}
        for name in names:
            if not name.endswith(SEGMENT_SUFFIX):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                reader = open(path, "rb")
                self._readers.append(reader)
                offset = 0
                for lineno, line in enumerate(reader, start=1):
                    if _ENTRY_HEAD.match(line):
                        index[line[:64].decode("ascii")] = (reader, offset)
                    else:
                        logger.warning("cache line %s:%d has no key; ignored", path, lineno)
                    offset += len(line)
            except OSError as exc:
                raise CacheError(f"cannot read cache segment {path}: {exc}") from exc
        return index

    @staticmethod
    def _read(reader: BinaryIO, offset: int) -> CompletionResponse | None:
        """The response of the cache line at `offset`, or None if it is corrupted."""
        try:
            reader.seek(offset)
            line = reader.readline()
        except OSError as exc:
            raise CacheError(f"cannot read cache segment {reader.name}: {exc}") from exc
        try:
            if not line.endswith(b"\n"):
                raise ValueError("torn line")
            stored = json.loads(line[65:].decode("utf-8"))["response"]
            text, finish_reason = stored["text"], stored["finish_reason"]
            if not isinstance(text, str) or finish_reason not in FINISH_REASONS:
                raise TypeError(f"response {stored!r} is not a string text with a stop or length finish")
        except (ValueError, KeyError, TypeError) as exc:
            logger.warning("corrupted cache entry %s at byte %d treated as a miss: %s",
                           reader.name, offset, exc)
            return None
        return CompletionResponse(text, finish_reason, from_cache=True)

    def _append(self, key: str, req: CompletionRequest, resp: CompletionResponse) -> None:
        line = (f'{key} {{"request": {req.to_json()}, "response": {{"text": {_quote(resp.text)}, '
                f'"finish_reason": {_quote(resp.finish_reason)}}}, '
                f'"timestamp": {time.time()!r}}}\n').encode("ascii")
        try:
            if self._segment is None:
                os.makedirs(self.cache_dir, exist_ok=True)
                name = f"{time.time_ns():020d}-{os.getpid()}-{next(_segment_numbers)}"
                self._segment = open(os.path.join(self.cache_dir, name + SEGMENT_SUFFIX), "xb")
            self._segment.write(line)
            self._segment.flush()
        except OSError as exc:
            raise CacheError(f"cannot write cache entry to {self.cache_dir}: {exc}") from exc
