"""One Hypothesis profile for the whole suite.

``derandomize`` draws the same examples on every run, ``database=None``
keeps no example database between runs, and ``deadline=None`` leaves
timing to the suite's own budgets, so every run checks the same cases.
Tests set only their example counts and health checks.
"""

from hypothesis import settings

settings.register_profile("collapsim", derandomize=True, database=None, deadline=None)
settings.load_profile("collapsim")
