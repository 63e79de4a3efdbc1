"""Test-suite settings.

Hypothesis draws its examples from a seed derived from each test, so every
run of the suite tests the same examples and a property cannot pass on one
run and fail on the next.  Example counts stay as each test sets them.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
