"""Loading and slot-filling for the prompt template fixtures in prompts/.

Templates are JSON message lists with {slot} placeholders. Slots are
substituted in one pass over the template (not with str.format) because slot
names may contain hyphens and template text may contain stray braces, and so
that a slot value is never rewritten, whatever braces it holds.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources
from typing import Mapping

from .gateway import ChatMessage

SEPARATOR_MAX_TOKENS = 512
GENERATION_MAX_TOKENS = 256
DISCRIMINATOR_MAX_TOKENS = 16


@lru_cache(maxsize=None)
def load_template(name: str) -> tuple[ChatMessage, ...]:
    text = resources.files("patvar").joinpath(f"prompts/{name}.json").read_text("utf-8")
    return tuple(ChatMessage(m["role"], m["content"]) for m in json.loads(text))


_PLACEHOLDER = re.compile(r"\{([^{}]*)\}")


@lru_cache(maxsize=None)
def _pieces(content: str) -> tuple[str, ...]:
    """`content` split at its `{name}` placeholders: text at the even
    indices, the names at the odd ones."""
    return tuple(_PLACEHOLDER.split(content))


def fill(messages: tuple[ChatMessage, ...], slots: Mapping[str, str]) -> list[ChatMessage]:
    """`messages` with each `{name}` placeholder replaced by `slots[name]`;
    a placeholder no slot names stays as it is."""
    out = []
    for msg in messages:
        pieces = list(_pieces(msg.content))
        for i in range(1, len(pieces), 2):
            name = pieces[i]
            pieces[i] = slots[name] if name in slots else "{" + name + "}"
        out.append(ChatMessage(msg.role, "".join(pieces)))
    return out
