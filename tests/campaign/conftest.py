import pytest

import repro.experiments.registry as experiments_registry
from tests.campaign import crashy_experiment


@pytest.fixture()
def crashy(monkeypatch):
    """Register the crash-injection fixture experiment as ``crashy``.

    Yields the fixture module with a clean crash set; the registry is
    patched so the campaign layer resolves it like any real experiment.
    """
    entry = ("tests.campaign.crashy_experiment", crashy_experiment.DESCRIPTION, False)
    monkeypatch.setitem(experiments_registry.REGISTRY, "crashy", entry)
    crashy_experiment.CRASH_ON.clear()
    yield crashy_experiment
    crashy_experiment.CRASH_ON.clear()
