"""One Hypothesis profile for every property test: derandomized, with no
example database and no deadline, so a run is repeatable and its length is
bounded by the example cap.  No test may leave a thread running, and a test
still running after 60 s ends the run with every thread's stack, so that a
deadlock shows where each thread waits."""

import faulthandler
import os
import sys
import threading

import pytest
from hypothesis import settings

settings.register_profile(
    "hftkit", derandomize=True, database=None, deadline=None, max_examples=20
)
settings.load_profile("hftkit")

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output is not captured while plugins are configured, so this is the
    # run's own stderr.  During a test fd 2 feeds pytest's capture, which
    # is lost when faulthandler ends the process.
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def stacks_dumped_on_hang(request):
    faulthandler.dump_traceback_later(60, exit=True, file=request.config.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    if left:
        pytest.fail(f"threads left running: {', '.join(left)}")
