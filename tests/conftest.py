import pytest

from patvar.fixtures import FixtureAnnotationProvider, fixture_synonyms
from patvar.gateway import BackendError, CompletionResponse, Gateway


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
