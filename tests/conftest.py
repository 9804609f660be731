import pytest

from qelab.rng import Stream


@pytest.fixture
def built_streams(monkeypatch) -> list:
    """The path of every `Stream` built during the test, in order."""
    built = []
    init = Stream.__init__

    def recording(self, seed, path=()):
        init(self, seed, path)
        built.append(self.path)

    monkeypatch.setattr(Stream, "__init__", recording)
    return built
