"""Shared test settings.

Every ``hypothesis`` property test runs under one profile: fixed examples
(derandomized, no example database), so that each run checks the same
cases, with no deadline and 200 examples per property.
"""

from hypothesis import settings

settings.register_profile(
    "pcgroups", max_examples=200, deadline=None, derandomize=True, database=None
)
settings.load_profile("pcgroups")
