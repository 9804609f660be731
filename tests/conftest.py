import pytest
from hypothesis import settings

from qelab.rng import Stream

# Every run, local or CI, draws the same Hypothesis examples: a failure found
# once is found again.  Derandomizing also turns off the example database.
settings.register_profile("qelab", derandomize=True)
settings.load_profile("qelab")


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
