import contextlib
import hashlib
import http.server
import io
import shutil
import threading
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from patvar import synthdata
from patvar.annotation import AnnotatedSentence
from patvar.cli import main
from patvar.fixtures import FixtureAnnotationProvider, fixture_synonyms
from patvar.gateway import BackendError, CompletionResponse, Gateway, MockBackend

TESTS = Path(__file__).resolve().parent
PINNED_SEEDS = (7, 11)  # the corpus seeds of tests/data/walkthrough_seed<N>.sha256


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
    seconds: float  # the six commands' wall time

    def moved(self):
        """The pinned files of `out/` whose bytes differ from their pins."""
        return [name for name, digest in self.pins.items()
                if hashlib.sha256((self.dir / "out" / name).read_bytes()).hexdigest() != digest]


def build_walkthrough(seed, config_text, work) -> Walkthrough:
    config = work / "exp.yaml"
    config.write_text(config_text, encoding="utf-8")
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        synthdata.main([str(work / "data.csv"), "--rows", "300", "--seed", str(seed)])
        for command in ("synth", "gen", "filter", "simulate", "ablate", "report"):
            assert main([command, "--config", str(config)]) == 0, command
    seconds = time.perf_counter() - start
    pins = (TESTS / "data" / f"walkthrough_seed{seed}.sha256").read_text(encoding="utf-8")
    return Walkthrough(work, config, dict(line.split("  out/")[::-1] for line in pins.splitlines()),
                       seconds)


@pytest.fixture(scope="session")
def walkthroughs(readme_config, tmp_path_factory):
    """Corpus seed -> the README walkthrough on a 300-row corpus of that seed,
    for seeds 7 and 11: its six commands run in-process once per session, and
    the hashes that `tests/data/walkthrough_seed<N>.sha256` pins for its
    `out/` files. Tests read them; a test that writes works on `copy_walkthrough`."""
    return {seed: build_walkthrough(seed, readme_config,
                                    tmp_path_factory.mktemp(f"walkthrough_seed{seed}"))
            for seed in PINNED_SEEDS}


@pytest.fixture(params=PINNED_SEEDS, ids=lambda seed: f"seed{seed}")
def walkthrough(request, walkthroughs):
    """The walkthrough of each pinned corpus seed, one test per seed."""
    return walkthroughs[request.param]


@pytest.fixture(scope="session")
def walkthrough_seed7(walkthroughs):
    """The walkthrough of corpus seed 7, for a test that needs one seed."""
    return walkthroughs[7]


@pytest.fixture
def copy_walkthrough(tmp_path):
    """`copy_walkthrough(walkthrough)`: the same walkthrough in a copy of its
    directory, for a test that writes, so that the shared one stays as it was."""
    def copy(walkthrough):
        work = shutil.copytree(walkthrough.dir, tmp_path / walkthrough.dir.name)
        return walkthrough._replace(dir=work, config=work / walkthrough.config.name)

    return copy


@pytest.fixture
def backend_sends(monkeypatch):
    """The requests that reach the mock backend from now on."""
    sent = []
    send = MockBackend.send

    def counting(self, req):
        sent.append(req)
        return send(self, req)

    monkeypatch.setattr(MockBackend, "send", counting)
    return sent


def sentence_to_record(sentence: AnnotatedSentence) -> dict:
    """The line of an `annotations:` file that `load_annotations_file` reads
    back as `sentence`."""
    tokens = []
    for t in sentence.tokens:
        rec = {"surface": t.surface, "lemma": t.lemma, "pos": t.pos}
        if t.entity is not None:
            rec["entity"] = t.entity
        tokens.append(rec)
    return {"id": sentence.id, "raw": sentence.raw, "tokens": tokens}


class Reply(NamedTuple):
    """What a loopback server answers to one POST."""

    status: int
    body: bytes
    headers: dict = {}
    length: int | None = None  # the Content-Length sent; one above len(body) cuts the body short


class _LoopbackHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        reply = self.server.answer(self.path, self.headers, body)
        if reply is None:
            return  # the connection closes with no reply
        self.send_response(reply.status)
        self.send_header("Content-Length", str(len(reply.body) if reply.length is None else reply.length))
        for name, value in reply.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(reply.body)

    def log_message(self, format, *args):
        pass


class Loopback:
    """HTTP servers on 127.0.0.1, each serving from a daemon thread until the
    test ends."""

    def __init__(self):
        self.ended = threading.Event()  # set when the test ends; a stalled answer waits for it
        self._servers = []

    def serve(self, answer) -> str:
        """Starts a server on a free port and returns its base URL. It calls
        `answer(path, headers, body)` with each POST's path, headers and body
        bytes, and sends the `Reply` it returns, or closes the connection
        with no reply when it returns None."""
        server = http.server.HTTPServer(("127.0.0.1", 0), _LoopbackHandler)
        server.answer = answer
        # A short poll interval, so that shutting the server down takes no half second.
        thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
        thread.start()
        self._servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}"

    def close(self):
        self.ended.set()
        for server, thread in self._servers:
            server.shutdown()
            server.server_close()
            thread.join()


@pytest.fixture
def loopback(monkeypatch):
    """A `Loopback`; no proxy stands between it and the HTTP backend."""
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    servers = Loopback()
    yield servers
    servers.close()
