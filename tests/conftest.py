"""One Hypothesis profile for every property test: derandomized, with no
example database and no deadline, so a run is repeatable and its length is
bounded by the example cap."""

from hypothesis import settings

settings.register_profile(
    "hftkit", derandomize=True, database=None, deadline=None, max_examples=20
)
settings.load_profile("hftkit")
