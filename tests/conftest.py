"""Hypothesis settings and fixtures shared by every test module.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples and a Tier-1 result does not depend on the run
or on what earlier runs left behind.  ``mc_spy`` keeps the per-trial values
of every ``rng.mc_values`` call, so a test can check an estimator's trials
and not just their mean.
"""

import pytest
from hypothesis import settings

from framelab import rng

settings.register_profile("framelab", derandomize=True, database=None)
settings.load_profile("framelab")


@pytest.fixture
def mc_spy(monkeypatch):
    """The per-trial values of each ``rng.mc_values`` call, in call order."""
    calls = []
    real = rng.mc_values

    def spy(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(rng, "mc_values", spy)
    return calls
