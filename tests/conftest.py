"""Test-wide settings: property tests draw the same examples on every run."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
