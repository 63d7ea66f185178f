"""One hypothesis profile for every property test: examples are derived from
each test's name (derandomized), nothing is stored between runs, and slow
examples are neither timed out nor flagged. Tests set only max_examples."""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "topodyn", deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("topodyn")
