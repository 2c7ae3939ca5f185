"""Shared test settings.

Property tests run under one hypothesis profile: each test's examples are
drawn from a seed derived from the test itself (``derandomize``), so every run
of the suite tries the same inputs; no per-example deadline applies, since
wall time on a shared host swings from run to run; and no example database is
kept.
"""

from hypothesis import settings

settings.register_profile("morbench", derandomize=True, deadline=None, database=None)
settings.load_profile("morbench")
