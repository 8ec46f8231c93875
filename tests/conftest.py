"""Hypothesis settings shared by every test module.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples and a Tier-1 result does not depend on the run
or on what earlier runs left behind.
"""

from hypothesis import settings

settings.register_profile("framelab", derandomize=True, database=None)
settings.load_profile("framelab")
