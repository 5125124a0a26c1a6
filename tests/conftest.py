"""Shared test settings: Hypothesis draws the same examples on every run."""

from hypothesis import settings

# Derandomized: examples derive from each test alone, so CI and local
# runs check the same circuits; no example database is written.
settings.register_profile("phasefold", derandomize=True, database=None, deadline=None)
settings.load_profile("phasefold")
