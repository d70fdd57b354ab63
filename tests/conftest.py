"""One Hypothesis profile for every property test: derandomized, with no
example database and no deadline, so a run is repeatable and its length is
bounded by the example cap.  No test may leave a thread running."""

import threading

import pytest
from hypothesis import settings

settings.register_profile(
    "hftkit", derandomize=True, database=None, deadline=None, max_examples=20
)
settings.load_profile("hftkit")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    if left:
        pytest.fail(f"threads left running: {', '.join(left)}")
