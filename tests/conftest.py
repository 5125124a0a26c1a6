"""Shared test settings and fixtures.

Hypothesis draws the same examples on every run, and ``peak_bytes``
measures the memory a call allocates at its peak.
"""

import tracemalloc

import pytest
from hypothesis import settings

# Derandomized: examples derive from each test alone, so CI and local
# runs check the same circuits; no example database is written.
settings.register_profile("phasefold", derandomize=True, database=None, deadline=None)
settings.load_profile("phasefold")


@pytest.fixture
def peak_bytes():
    """A function that calls ``fn()`` and returns the peak bytes traced while it ran."""

    def measure(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    return measure
