"""Shared test configuration.

Hypothesis runs a fixed, derandomized set of examples, so every run of the
suite checks the same cases, and has no per-example deadline, since timings
on a loaded machine say nothing about correctness.
"""

from hypothesis import settings

settings.register_profile("popdiff", derandomize=True, deadline=None)
settings.load_profile("popdiff")
