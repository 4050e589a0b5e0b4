"""Test-suite configuration.

Hypothesis runs under a derandomized profile: every run draws the same
examples, keeps no example database and sets no per-example deadline, so
the suite is reproducible and leaves no ``.hypothesis/`` directory behind.
"""
from hypothesis import settings

settings.register_profile(
    "mstiff", derandomize=True, database=None, deadline=None
)
settings.load_profile("mstiff")
