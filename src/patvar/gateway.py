"""Uniform access to chat-completion backends.

Three pieces: request/response types with a stable content-hash cache key,
backends (an HTTP client for any chat-completions-compatible server and a
deterministic mock for offline runs), and `complete`/`cached_complete` which
add bounded retries and a content-addressed file cache.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

from .errors import PatvarError

logger = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")
FINISH_REASONS = ("stop", "length", "error")


class BackendError(PatvarError):
    def __init__(self, status: int | None, body: str):
        self.status = status
        self.body = body
        super().__init__(f"backend error {status}: {body[:200]}")


class TransientBackendError(BackendError):
    """Retryable failure (5xx, connection trouble)."""


class GatewayTimeout(BackendError):
    def __init__(self, body: str):
        super().__init__(None, body)


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
    temperature: float = 0.0
    max_tokens: int = 256

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    finish_reason: str = "stop"
    from_cache: bool = False


def messages_digest(messages: Iterable[ChatMessage]) -> str:
    payload = json.dumps(
        [[m.role, m.content] for m in messages], ensure_ascii=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_key(req: CompletionRequest) -> str:
    """Stable digest over the full request; any field change changes the key."""
    payload = json.dumps(
        {
            "model": req.model,
            "messages": [[m.role, m.content] for m in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        },
        sort_keys=True,
        ensure_ascii=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Backend(Protocol):
    def send(self, req: CompletionRequest) -> CompletionResponse: ...


class MockBackend:
    """Table-driven responses plus an optional template mode.

    Canned responses are keyed by the digest of the request messages. When no
    canned response exists and template mode is on, the prompt kind is
    recognized from its instruction text and a deterministic echo-style
    answer is synthesized, which is enough to drive the whole pipeline
    offline. `label_vocab` (label -> indicative words) makes the template
    counterfactual generator and discriminator label-aware.
    """

    def __init__(
        self,
        table: Mapping[str, str] | None = None,
        label_vocab: Mapping[str, list[str]] | None = None,
        template_mode: bool = True,
        flaw_rate: float = 0.0,
    ):
        self.table: dict[str, str] = dict(table or {})
        self.label_vocab = {k.lower(): list(v) for k, v in (label_vocab or {}).items()}
        self.template_mode = template_mode
        self.flaw_rate = flaw_rate
        self.calls = 0

    def add_response(self, messages: Iterable[ChatMessage], text: str) -> None:
        self.table[messages_digest(messages)] = text

    # -- template helpers ---------------------------------------------------

    @staticmethod
    def _field(text: str, name: str, *, stop: str = ",") -> str:
        marker = name + ":"
        i = text.lower().find(marker)
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
        bucket = int.from_bytes(hashlib.sha256(prompt.encode("utf-8")).digest()[:4], "big")
        draw = (bucket % 10_000) / 10_000.0
        if draw >= self.flaw_rate:
            return None
        return self._FLAWS[bucket // 10_000 % len(self._FLAWS)]

    def _template(self, req: CompletionRequest) -> CompletionResponse:
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
        raise BackendError(400, f"mock has no canned response and no template for: {system[:80]}")

    def send(self, req: CompletionRequest) -> CompletionResponse:
        self.calls += 1
        key = messages_digest(req.messages)
        if key in self.table:
            return CompletionResponse(self.table[key])
        if self.template_mode:
            return self._template(req)
        raise BackendError(404, "mock has no canned response for this prompt")


class HttpBackend:
    """Chat-completions HTTP client (OpenAI-style wire format).

    `response_path` locates the completion text in the response JSON, e.g.
    ("choices", 0, "message", "content").
    """

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        response_path: tuple = ("choices", 0, "message", "content"),
        timeout: float = 60.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.response_path = response_path
        self.timeout = timeout

    def send(self, req: CompletionRequest) -> CompletionResponse:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": req.model,
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        try:
            resp = requests.post(
                f"{self.base_url}/chat/completions", json=body, headers=headers, timeout=self.timeout
            )
        except requests.Timeout as exc:
            raise TransientBackendError(None, f"timeout: {exc}") from exc
        except requests.ConnectionError as exc:
            raise TransientBackendError(None, f"connection error: {exc}") from exc
        if resp.status_code >= 500:
            raise TransientBackendError(resp.status_code, resp.text)
        if resp.status_code >= 400:
            raise BackendError(resp.status_code, resp.text)
        try:
            data = resp.json()
            text = data
            for step in self.response_path:
                text = text[step]
            finish = "stop"
            choice = data.get("choices", [{}])[0] if isinstance(data, dict) else {}
            if isinstance(choice, dict) and choice.get("finish_reason") == "length":
                finish = "length"
            return CompletionResponse(str(text), finish)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(resp.status_code, f"malformed response body: {exc}") from exc


def complete(
    req: CompletionRequest,
    backend: Backend,
    retries: int = 3,
    backoff: float = 0.5,
) -> CompletionResponse:
    """Single completion with bounded retry on transient failures only."""
    attempt = 0
    while True:
        try:
            return backend.send(req)
        except TransientBackendError as exc:
            attempt += 1
            if attempt > retries:
                raise GatewayTimeout(f"gave up after {retries} retries: {exc.body}") from exc
            delay = backoff * (2 ** (attempt - 1))
            logger.warning("transient backend failure (attempt %d/%d): %s", attempt, retries, exc)
            if delay:
                time.sleep(delay)


def cached_complete(
    req: CompletionRequest,
    backend: Backend,
    cache_dir,
) -> CompletionResponse:
    """complete() behind a content-addressed file cache.

    On a hit the backend is never touched. Entries are one JSON file per key,
    written atomically; corrupted entries are treated as misses and
    overwritten. Error responses are never cached.
    """
    key = cache_key(req)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".json")
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            stored = entry["response"]
            return CompletionResponse(stored["text"], stored["finish_reason"], from_cache=True)
        except (ValueError, KeyError, TypeError) as exc:
            logger.warning("corrupted cache entry %s treated as a miss: %s", path, exc)
    resp = complete(req, backend)
    if resp.finish_reason == "error":
        return resp
    entry = {
        "request": {
            "model": req.model,
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        },
        "response": {"text": resp.text, "finish_reason": resp.finish_reason},
        "timestamp": time.time(),
    }
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, ensure_ascii=True)
        os.replace(tmp, path)
    except OSError as exc:
        raise CacheError(f"cannot write cache entry {path}: {exc}") from exc
    return resp


@dataclass
class Gateway:
    """A backend bound to a model name and an optional cache directory."""

    backend: Backend
    model: str
    cache_dir: str | None = None

    def request(
        self, messages: Iterable[ChatMessage], max_tokens: int, temperature: float = 0.0
    ) -> CompletionRequest:
        return CompletionRequest(self.model, tuple(messages), temperature, max_tokens)

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        if self.cache_dir is not None:
            return cached_complete(req, self.backend, self.cache_dir)
        return complete(req, self.backend)
