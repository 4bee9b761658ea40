import contextlib
import io
from pathlib import Path
from typing import NamedTuple

import pytest

from patvar import synthdata
from patvar.cli import main
from patvar.fixtures import FixtureAnnotationProvider, fixture_synonyms
from patvar.gateway import BackendError, CompletionResponse, Gateway

TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="session")
def provider():
    return FixtureAnnotationProvider()


@pytest.fixture(scope="session")
def lexicon():
    return fixture_synonyms()


@pytest.fixture
def gateway_for(tmp_path_factory):
    """Builds a gateway over a backend, each with a cache directory of its
    own, and closes the gateways when the test ends."""
    built = []

    def build(backend, model="m"):
        gw = Gateway(backend, model, str(tmp_path_factory.mktemp("cache")))
        built.append(gw)
        return gw

    yield build
    for gw in built:
        gw.close()


class Canned:
    """A backend that answers a request whose messages `replies` maps with
    that reply, and any other request from `fallback`; without a fallback
    that is a 404 BackendError. `calls` counts the sends."""

    def __init__(self, replies, fallback=None):
        self.replies = replies
        self.fallback = fallback
        self.calls = 0

    def send(self, req):
        self.calls += 1
        if req.messages in self.replies:
            return CompletionResponse(self.replies[req.messages])
        if self.fallback is None:
            raise BackendError(404, "no canned reply for this prompt")
        return self.fallback.send(req)


@pytest.fixture(scope="session")
def canned():
    """The `Canned` backend class: `canned({messages: reply}, fallback)`."""
    return Canned


@pytest.fixture(scope="session")
def readme_config():
    """The README walkthrough's `exp.yaml`: the lines between the first
    "```yaml" line after the line "`exp.yaml`:" and the next "```" line."""
    lines = (TESTS.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("```yaml", lines.index("`exp.yaml`:")) + 1
    return "".join(line + "\n" for line in lines[start:lines.index("```", start)])


class Walkthrough(NamedTuple):
    dir: Path  # holds data.csv, exp.yaml, out/ and cache/
    config: Path
    pins: dict  # output file name -> its pinned sha256


@pytest.fixture(scope="session", params=[7, 11], ids=lambda seed: f"seed{seed}")
def walkthrough(request, readme_config, tmp_path_factory):
    """The README walkthrough on a 300-row corpus of seed 7 or 11: its six
    commands run in-process, and the hashes that
    `tests/data/walkthrough_seed<N>.sha256` pins for its `out/` files."""
    work = tmp_path_factory.mktemp(f"walkthrough_seed{request.param}")
    config = work / "exp.yaml"
    config.write_text(readme_config, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        synthdata.main([str(work / "data.csv"), "--rows", "300", "--seed", str(request.param)])
        for command in ("synth", "gen", "filter", "simulate", "ablate", "report"):
            assert main([command, "--config", str(config)]) == 0, command
    pins = (TESTS / "data" / f"walkthrough_seed{request.param}.sha256").read_text(encoding="utf-8")
    return Walkthrough(work, config, dict(line.split("  out/")[::-1] for line in pins.splitlines()))
