"""Test-wide settings: property tests draw the same examples on every run."""

from hypothesis import settings

# Derandomized with a fixed example count and no example database, so Tier-1
# is reproducible; no deadline, since timing on a loaded machine is noise.
settings.register_profile("tier1", derandomize=True, max_examples=200, deadline=None, database=None)
settings.load_profile("tier1")
